//! Experiment harness for the PAST reproduction.
//!
//! The paper runs every experiment of §5 — storage, caching and the
//! §3.5 failure cases — against one emulated overlay, and so does this
//! crate: [`Overlay`] builds the nodes on an [`Engine`], issues client
//! operations, drains upcalls, runs the `past-obs` recording, folds
//! per-node counters and audits the global storage invariants into an
//! [`InvariantReport`]. Two harnesses add what is specific to them:
//!
//! - [`Runner`] replays a `past-workload` trace under an
//!   [`ExperimentConfig`] (a 2250-node overlay, Table 1 capacities
//!   scaled to the trace, the `t_pri`/`t_div` policies under test),
//!   closed or open loop, and accounts it into an [`ExperimentResult`]
//!   — exactly the aggregates each table and figure needs.
//! - [`ChurnRunner`] inserts a working set under a [`ChurnConfig`] and
//!   subjects the overlay to fault plans (crashes, partitions, message
//!   loss, Byzantine holders).

mod churn;
mod config;
mod engine;
mod metrics;
mod overlay;
mod report;
mod runner;

pub use churn::{ChurnConfig, ChurnRunner, CLIENT};
pub use config::{ExperimentConfig, TopologyKind};
pub use engine::Engine;
pub use metrics::{ExperimentResult, InsertRecord, LookupRecord, NodeWindowStat, WindowSeries};
pub use overlay::{InvariantReport, Overlay, UnderReplicated};
pub use report::{out_dir, write_metrics_file};
pub use runner::{run_experiment, Runner};
