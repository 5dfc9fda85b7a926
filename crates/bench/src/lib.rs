#![warn(missing_docs)]

//! # dlhub-bench
//!
//! The experiment harness: one binary per table and figure of the
//! paper's evaluation (§V), the ablations, the open-loop `workloads`
//! observatory with its coordinated-omission-correct [`openloop`]
//! recorder, and Criterion micro-benchmarks for the design choices
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
//! under `results/`. Every latency figure is served by the real
//! dispatch path — a `TestHub`, or the real baselines for Fig 8 — and
//! reads its measured timings; [`testbed`] adds the paper's two §V-A
//! link round trips for each link an answer actually crossed.
//!
//! [`workload`] draws arrivals (Poisson, Markov-modulated bursts, a
//! diurnal cycle), popularity, tenancy and payload sizes from a seed on
//! the virtual clock of [`time::SimTime`], so the same seed replays the
//! same schedule byte for byte: the `workloads` bin, the control-loop
//! tests and the memo ablation are built on it.

pub mod openloop;
pub mod report;
pub mod testbed;
pub mod time;
pub mod workload;
