//! # past — facade for the PAST reproduction workspace
//!
//! A from-scratch Rust reproduction of *"Storage management and caching
//! in PAST, a large-scale, persistent peer-to-peer storage utility"*
//! (Rowstron & Druschel, SOSP 2001). Each subsystem lives in its own
//! crate; this facade re-exports them under one roof for examples,
//! integration tests and downstream users.
//!
//! - [`id`] — 128/160-bit identifier arithmetic (nodeIds, fileIds).
//! - [`crypto`] — SHA-1, signatures, smartcards, certificates, quotas.
//! - [`net`] — deterministic discrete-event network emulation.
//! - [`pastry`] — the Pastry routing substrate.
//! - [`store`] — per-node storage management and GD-S/LRU caching.
//! - [`core`] — the PAST protocol (insert/lookup/reclaim, replica and
//!   file diversion, maintenance, caching).
//! - [`workload`] — synthetic traces calibrated to the paper's.
//! - [`sim`] — the experiment harness behind every table and figure.
//! - [`obs`] — metrics registry, operation spans, JSON emission.
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the
//! paper-to-code map.

pub use past_core as core;
pub use past_crypto as crypto;
pub use past_id as id;
pub use past_net as net;
pub use past_obs as obs;
pub use past_pastry as pastry;
pub use past_sim as sim;
pub use past_store as store;
pub use past_workload as workload;
