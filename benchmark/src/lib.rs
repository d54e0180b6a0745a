//! `pastbench`: the benchmark of the PAST reproduction.
//!
//! Four replay workloads, nine end-to-end metrics with regression
//! bounds, and a per-layer cost model measured from outside — by timing
//! calls into the crates' public functions. See `README.md`.

pub mod cli;
pub mod compare;
pub mod drives;
pub mod json;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
