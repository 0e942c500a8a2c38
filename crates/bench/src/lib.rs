//! # qbs-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§6) on the scaled-down dataset catalog:
//!
//! | Experiment | Module entry point |
//! |---|---|
//! | Table 1 — dataset statistics | [`experiments::table1`] |
//! | Table 2 — construction & query time | [`experiments::table2`] |
//! | Table 3 — labelling sizes | [`experiments::table3`] |
//! | Figure 7 — query distance distribution | [`experiments::fig7`] |
//! | Figure 8 — pair coverage vs #landmarks | [`experiments::fig8`] |
//! | Figure 9 — labelling size vs #landmarks | [`experiments::landmark_sweep`] |
//! | Figure 10 — construction time vs #landmarks | [`experiments::landmark_sweep`] |
//! | Figure 11 — query time vs #landmarks | [`experiments::landmark_sweep`] |
//! | §6.5 — edges traversed, QbS vs Bi-BFS (QbS at \|R\| = 0) | [`experiments::traversal`] |
//! | Ablations — sketch guidance, landmark strategy | [`experiments::ablation`] |
//!
//! The `experiments` binary drives these from the command line and prints
//! paper-style tables, plus JSON files under `--out` (written with
//! [`qbs_graph::json`]). Performance claims go through the repository's
//! benchmark package, not these wall-clock tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engines;
pub mod experiments;
pub mod reporting;
pub mod runner;

pub use engines::AnyEngine;
pub use runner::{ExperimentConfig, MethodLimits};
