//! Experiment harness for the PAST reproduction.
//!
//! [`ExperimentConfig`] captures one run of the paper's evaluation
//! (§5): a 2250-node overlay, Table 1 node capacities scaled to the
//! trace, the `t_pri`/`t_div` policies under test, and the workload
//! replay mode (insert-only for the storage experiments, full replay
//! with lookups for the caching experiment). [`Runner`] builds the
//! overlay and replays a `past-workload` trace; [`ExperimentResult`]
//! exposes exactly the aggregates each table and figure needs.

//!
//! [`ChurnRunner`] drives the robustness experiments instead: it
//! subjects a smaller overlay to fault-plan churn (crashes, partitions,
//! message loss) and audits the §3.5 storage invariants globally,
//! reporting violations as a structured [`InvariantReport`].

mod churn;
mod config;
mod engine;
mod metrics;
mod report;
mod runner;

pub use churn::{ChurnConfig, ChurnRunner, InvariantReport, UnderReplicated, CLIENT};
pub use config::{ExperimentConfig, TopologyKind};
pub use engine::Engine;
pub use metrics::{ExperimentResult, InsertRecord, LookupRecord, NodeWindowStat, WindowSeries};
pub use report::{out_dir, write_metrics_file};
pub use runner::{run_experiment, Runner};
