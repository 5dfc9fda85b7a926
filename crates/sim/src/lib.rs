#![warn(missing_docs)]

//! # dlhub-sim
//!
//! A virtual clock and the seeded workload generators that run on it.
//!
//! [`time::SimTime`] is virtual nanoseconds. [`workload`] draws
//! arrivals (Poisson, Markov-modulated bursts, a diurnal cycle),
//! popularity, tenancy and payload sizes from a seed, so the same seed
//! replays the same schedule byte for byte: the `workloads` bench, the
//! control-loop tests and the memo ablation are built on it.
//!
//! Nothing here models the serving path. The paper's figures are
//! regenerated by serving requests through the real one (`dlhub-bench`,
//! EXPERIMENTS.md).

pub mod time;
pub mod workload;

pub use time::SimTime;
