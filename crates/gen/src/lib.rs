//! # qbs-gen
//!
//! Deterministic synthetic graph generators, a dataset catalog and query
//! workloads for the Query-by-Sketch experiments.
//!
//! The paper evaluates on 12 real-world networks (Table 1), the largest of
//! which has 1.7 billion vertices. Those datasets (and the 512 GB server
//! used to process them) are not available here, so this crate provides
//! *scaled-down synthetic stand-ins* that reproduce the structural
//! characteristics the paper's analysis depends on:
//!
//! * heavy-tailed degree distributions with very high-degree hubs
//!   (social networks and web graphs such as Twitter, Baidu, ClueWeb09) —
//!   generated by preferential attachment ([`barabasi_albert`]) and a
//!   Chung–Lu power-law model ([`power_law`]);
//! * near-regular degree distributions without dominant hubs
//!   (Friendster) — generated by [`erdos_renyi`] and [`watts_strogatz`];
//! * small diameters and local clustering — all generators are calibrated
//!   in [`catalog`] so the sampled query distances fall in the 2–9 range
//!   reported in Figure 7.
//!
//! Every generator is fully deterministic given its seed, so experiments are
//! reproducible run-to-run.
//!
//! # Example
//!
//! ```
//! use qbs_gen::prelude::*;
//!
//! let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
//!     vertices: 500,
//!     edges_per_vertex: 3,
//!     seed: 7,
//! });
//! assert!(graph.num_edges() >= 3 * (500 - 4));
//! let workload = QueryWorkload::sample(&graph, 100, 42);
//! assert_eq!(workload.pairs().len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barabasi_albert;
pub mod catalog;
pub mod community;
pub mod erdos_renyi;
pub mod power_law;
pub mod rng;
pub mod structured;
pub mod watts_strogatz;
pub mod workload;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::barabasi_albert::{self, BarabasiAlbertConfig};
    pub use crate::catalog::{Catalog, DatasetSpec, Scale};
    pub use crate::community::{self, PlantedPartitionConfig};
    pub use crate::erdos_renyi::{self, ErdosRenyiConfig};
    pub use crate::power_law::{self, PowerLawConfig};
    pub use crate::structured;
    pub use crate::watts_strogatz::{self, WattsStrogatzConfig};
    pub use crate::workload::QueryWorkload;
}

pub use catalog::{Catalog, DatasetSpec, Scale};
pub use workload::QueryWorkload;
