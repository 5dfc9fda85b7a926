#![warn(missing_docs)]

//! # dlhub-bench
//!
//! The experiment harness: one binary per table and figure of the
//! paper's evaluation (§V), the ablations, the open-loop `workloads`
//! observatory, and Criterion micro-benchmarks for the design choices
//! called out in DESIGN.md. Throughput and latency of the serving path
//! itself are measured by the repo benchmark in `benchmark/`, not here.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin table1
//! cargo run --release -p dlhub-bench --bin table2
//! cargo run --release -p dlhub-bench --bin fig3   # … fig4..fig8
//! cargo run --release -p dlhub-bench --bin workloads
//! ```
//!
//! Each binary prints the regenerated table/series and writes a CSV
//! under `results/`. Latency experiments run on the [`dlhub_sim`]
//! testbed with **service times calibrated from the real Rust
//! kernels** ([`calibrate`]), so compute ratios are genuine while
//! network constants come from the paper's §V-A description.

pub mod calibrate;
pub mod report;

pub use calibrate::{calibrate_servables, CalibratedServable};
