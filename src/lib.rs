//! # qbs — Query-by-Sketch
//!
//! A Rust implementation of *"Query-by-Sketch: Scaling Shortest Path Graph
//! Queries on Very Large Networks"* (SIGMOD 2021), packaged as a workspace
//! façade. This crate simply re-exports the workspace members so downstream
//! users can depend on a single crate:
//!
//! * [`graph`] — the CSR graph substrate, traversal primitives and the
//!   [`PathGraph`] answer type;
//! * [`gen`] — deterministic synthetic graph generators, the Table 1 dataset
//!   catalog and query workloads;
//! * [`core`] — the QbS index: labelling, sketching and guided searching;
//! * [`baselines`] — the exact baselines (ground-truth BFS, PPL and
//!   ParentPPL) used by the paper's evaluation; Bi-BFS is a [`QbsIndex`]
//!   built with no landmarks;
//! * [`server`] — the framed TCP serving subsystem: protocol, admission
//!   control, the long-running server and the blocking client (spec in
//!   `docs/protocol.md`).
//!
//! # Quickstart
//!
//! A [`Qbs`] session is the one-stop entry point: it serves an index —
//! freshly built ([`Qbs::build`]) or an index file, read or mapped
//! ([`Qbs::open`]) — behind the same API, executes typed [`QueryRequest`]
//! batches with per-request outcomes, and can carry a sharded LRU answer
//! cache.
//!
//! ```
//! use qbs::prelude::*;
//!
//! // Build a small scale-free network and start a session over it with
//! // 20 landmarks and an answer cache.
//! let graph = qbs::gen::barabasi_albert::generate(&BarabasiAlbertConfig {
//!     vertices: 2_000,
//!     edges_per_vertex: 3,
//!     seed: 42,
//! });
//! let qbs = Qbs::build(graph.clone(), QbsConfig::with_landmark_count(20))
//!     .unwrap()
//!     .with_cache(CacheConfig::default());
//!
//! // Ask for the shortest path graph between two vertices: exactly all
//! // shortest paths, as the two-BFS oracle computes them.
//! let outcome = qbs.execute(&QueryRequest::path_graph(17, 1234));
//! let answer = outcome.path_graph().unwrap();
//! assert_eq!(answer, &GroundTruth::new(graph.clone()).query(17, 1234));
//!
//! // Serving batches mix modes freely; a bad request fails alone.
//! let outcomes = qbs.submit(&[
//!     QueryRequest::distance(17, 1234),
//!     QueryRequest::path_graph(17, 1234).with_stats(),
//!     QueryRequest::sketch(17, 1234),
//!     QueryRequest::distance(17, 999_999),
//! ]);
//! assert_eq!(outcomes[0].distance(), Some(answer.distance()));
//! assert_eq!(outcomes[1].path_graph(), Some(answer));
//! assert!(outcomes[2].sketch().is_some());
//! assert!(outcomes[3].is_error()); // that slot only — the batch survived
//! ```
//!
//! (See `examples/quickstart.rs` for a larger runnable version, and
//! `docs/api.md` for the migration table from the pre-session entry
//! points.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qbs_baselines as baselines;
pub use qbs_core as core;
pub use qbs_gen as gen;
pub use qbs_graph as graph;
pub use qbs_server as server;

pub use qbs_core::{Qbs, QbsConfig, QbsIndex, QueryAnswer, QueryMode, QueryOutcome, QueryRequest};
pub use qbs_graph::{Graph, GraphBuilder, PathGraph, VertexId};

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use qbs_baselines::{GroundTruth, ParentPpl, Ppl, SpgEngine, SpgQueryError};
    pub use qbs_core::{
        AnswerCache, CacheConfig, CacheStats, IndexView, LandmarkStrategy, MapMode,
        MetricsSnapshot, Qbs, QbsConfig, QbsIndex, QueryAnswer, QueryMode, QueryOptions,
        QueryOutcome, QueryRequest, QueryWorkspace, RequestError, SearchStats, ViewBuf,
    };
    pub use qbs_gen::prelude::*;
    pub use qbs_graph::{Graph, GraphBuilder, PathGraph, VertexFilter, VertexId};
    pub use qbs_server::{
        AdmissionConfig, BatchReply, BusyReason, QbsClient, QbsServer, ServerConfig,
    };
}
