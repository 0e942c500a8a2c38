//! # qbs-graph
//!
//! Compact graph substrate underpinning the Query-by-Sketch (QbS)
//! shortest-path-graph engine.
//!
//! The crate provides:
//!
//! * [`Graph`] — an immutable, cache-friendly CSR (compressed sparse row)
//!   representation of an undirected, unweighted graph, the data model used
//!   throughout the paper (directed inputs are symmetrised, matching §6.1
//!   "We treated graphs in these datasets as being undirected").
//! * [`GraphBuilder`] — a mutable edge accumulator that deduplicates edges,
//!   drops self-loops, optionally restricts to the largest connected
//!   component and finally freezes into a [`Graph`].
//! * [`VertexFilter`] / [`FilteredGraph`] — a zero-copy "sparsified" view
//!   `G[V \ R]` obtained by removing a vertex set (the landmarks) without
//!   rebuilding the CSR; this is the search substrate of QbS §4.3.
//! * Traversal primitives: single-source, bounded and early-terminating BFS
//!   ([`traversal`]), connected components ([`components`]). The one
//!   bidirectional BFS is the QbS guided search in `qbs-core`.
//! * [`PathGraph`] — the answer type of a shortest-path-graph query
//!   (Definition 2.2 of the paper), shared by QbS and every baseline.
//! * Statistics ([`stats`]) and I/O ([`io`]) used by the experiment harness
//!   to regenerate Table 1, and the JSON writer ([`json`]) behind the CLI's
//!   `--format json` and the harness's `--out` files.
//!
//! # Example
//!
//! ```
//! use qbs_graph::{GraphBuilder, traversal};
//!
//! // The 7-vertex example graph from Figure 3(a) of the paper.
//! let edges = [(1u32, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6), (5, 6), (5, 7)];
//! let graph = GraphBuilder::from_edges(edges.iter().copied()).build();
//! assert_eq!(graph.num_vertices(), 8); // vertex 0 exists but is isolated
//! let dist = traversal::bfs_distances(&graph, 3);
//! assert_eq!(dist[7], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod error;
pub mod fixtures;
pub mod io;
pub mod json;
pub mod path_graph;
pub mod stats;
pub mod traversal;
pub mod view;
pub mod workspace;

mod vertex;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use error::GraphError;
pub use path_graph::PathGraph;
pub use vertex::{Distance, VertexId, INFINITE_DISTANCE, INVALID_VERTEX};
pub use view::{FilteredGraph, VertexFilter};
pub use workspace::{DistanceField, VisitedSet};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
