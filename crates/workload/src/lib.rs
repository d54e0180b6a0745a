//! Workload generation for the PAST reproduction.
//!
//! The paper evaluates PAST against (a) a combined NLANR web-proxy log
//! (4 M entries, 1.86 M unique URLs, 18.7 GB) and (b) a filesystem
//! snapshot from the authors' institutions (2 M files, 166.6 GB). Those
//! traces are not redistributable, so this crate synthesizes workloads
//! calibrated to every statistic the paper publishes: size distributions
//! (lognormal fits of the mean/median/max), Zipf request popularity,
//! 775 clients on 8 geographic sites, and the Table 1 node-capacity
//! distributions d1–d4.
//!
//! All generators are deterministic given their seed.

pub mod capacity;
pub mod dist;
pub mod stream;
pub mod trace;

pub use capacity::{admit, Admission, CapacityDistribution, MB};
pub use dist::{
    standard_normal, truncated_pareto_mean, LogNormal, Pareto, SizeModel, SizeStats,
    TruncatedNormal, Zipf,
};
pub use stream::{OpStream, SizeTable, StreamTrace, Workload};
pub use trace::{
    FileSpec, FlashCrowdConfig, FsTraceConfig, Trace, TraceOp, WebTraceConfig, CLIENTS, CLUSTERS,
    FS_SIZES, WEB_SIZES,
};
