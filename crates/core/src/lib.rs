//! # qbs-core
//!
//! **Query-by-Sketch (QbS)**: scalable shortest-path-graph queries, the
//! primary contribution of the paper *"Query-by-Sketch: Scaling Shortest
//! Path Graph Queries on Very Large Networks"* (SIGMOD 2021).
//!
//! Given an unweighted graph `G` and a query `SPG(u, v)`, QbS returns the
//! *shortest path graph*: the subgraph containing exactly all shortest paths
//! between `u` and `v`. It does so in three phases:
//!
//! 1. **Labelling** (offline, [`labelling`], [`meta_graph`]) — pick a
//!    small set of high-degree landmarks `R` and run one pruned BFS per
//!    landmark (Algorithm 2), all of them together as the bits of one mask
//!    per vertex, to build a *labelling scheme*: a meta-graph over the
//!    landmarks plus a compact per-vertex path labelling. The scheme is
//!    deterministic w.r.t. `R` (Lemma 5.2).
//! 2. **Sketching** (online, [`sketch`]) — combine the two query labels and
//!    the meta-graph into a *sketch*: an upper bound `d⊤` on the distance
//!    plus the landmark paths achieving it (Algorithm 3, `O(|R|²)`).
//! 3. **Guided searching** (online, [`search`]) — run a sketch-bounded
//!    bidirectional BFS on the sparsified graph `G[V \ R]`, then a reverse
//!    search and/or a recover search to materialise the answer (Algorithm 4,
//!    Eq. 5).
//!
//! The façade type is [`QbsIndex`]:
//!
//! ```
//! use qbs_core::{QbsConfig, QbsIndex};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! // Build the index with the paper's running example: landmarks {1, 2, 3}.
//! let graph = figure4_graph();
//! let index = QbsIndex::build(graph, QbsConfig::with_explicit_landmarks(vec![1, 2, 3]));
//!
//! // Figure 6(f): SPG(6, 11) has distance 5 and 13 edges.
//! let answer = index.query(6, 11).unwrap();
//! assert_eq!(answer.distance(), 5);
//! assert_eq!(answer.num_edges(), 13);
//! ```

// `unsafe` is denied crate-wide; the single exception is the tiny
// `mmap` shim (raw `mmap(2)`/`munmap(2)` bindings, reviewed in isolation),
// which opts back in with a module-level `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coverage;
pub mod engine;
pub mod error;
pub mod format;
pub mod labelling;
pub mod landmark;
pub mod meta_graph;
pub mod mmap;
pub mod obs;
pub mod query;
pub mod request;
pub mod search;
pub mod serialize;
pub mod session;
pub mod sketch;
pub mod stats;
pub mod store;
pub mod wire;
pub mod workspace;

pub use cache::{AnswerCache, CacheConfig, CacheStats};
pub use error::QbsError;
pub use format::{IndexView, ViewBuf};
pub use labelling::{LabellingScheme, PathLabelling, NO_LABEL};
pub use landmark::LandmarkStrategy;
pub use meta_graph::MetaGraph;
pub use obs::{
    counter, Counter, CounterDef, Fold, HistogramSnapshot, LatencyHistogram, Metrics,
    MetricsSnapshot, Stage, StageNanos, TraceId,
};
pub use query::{QbsConfig, QueryAnswer};
pub use request::{QueryMode, QueryOptions, QueryOutcome, QueryRequest, RequestError};
pub use search::SearchStats;
pub use serialize::MapMode;
pub use session::Qbs;
pub use sketch::Sketch;
pub use stats::IndexStats;
pub use store::QbsIndex;
pub use wire::{RequestId, Wire, WireError};
pub use workspace::QueryWorkspace;

/// Result alias for fallible QbS operations.
pub type Result<T> = std::result::Result<T, QbsError>;
