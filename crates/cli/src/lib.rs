//! # qbs-cli
//!
//! Library backing the `qbs-cli` binary: a small command layer over the QbS
//! workspace so the index can be used without writing Rust —
//!
//! ```text
//! qbs-cli generate --dataset YT --scale small --out youtube.qbsg
//! qbs-cli build    --graph youtube.qbsg --landmarks 20 --out youtube.qbs
//! qbs-cli query    --index youtube.qbs --source 17 --target 1234 --format json
//! qbs-cli route    --replica 127.0.0.1:7411 --replica 127.0.0.1:7412
//! qbs-cli stats    --index youtube.qbs
//! qbs-cli convert  --from edges.txt --to graph.qbsg
//! ```
//!
//! Every command is a plain function returning its report as a `String`, so
//! the whole surface is unit-testable without spawning processes; `main.rs`
//! only parses arguments and prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};
pub use commands::{run, CommandError};
