//! Deterministic guards on what an idle node costs: counts of what a
//! built overlay has allocated, not resident-set readings, so they hold
//! on any host. DESIGN.md ("What a node and a cached file cost") turns
//! them into bytes.

use std::mem::size_of;

use past_id::FileId;
use past_pastry::NodeEntry;
use past_sim::{ExperimentConfig, Runner};
use past_store::{BackupPointer, Pointer};
use past_workload::WebTraceConfig;

/// One diverted replica is one map bucket at A and one at C. Held as
/// six maps in two crates, the same state was 160 + 144 B of buckets.
#[test]
fn a_diversion_is_two_records() {
    assert!(size_of::<(FileId, Pointer<NodeEntry>)>() <= 128);
    assert!(size_of::<(FileId, BackupPointer<NodeEntry>)>() <= 112);
}

#[test]
fn a_built_overlay_allocates_only_the_state_it_uses() {
    let cfg = ExperimentConfig {
        nodes: 200,
        ..Default::default()
    };
    assert!(!cfg.past_config().verify_certificates);
    let trace = WebTraceConfig::default().with_unique_files(200).stream();
    let runner = Runner::build(cfg, &trace);
    assert_eq!(runner.entries().len(), 200);
    for e in runner.entries() {
        let node = runner.engine().node(e.addr).expect("node built");
        // 200 nodes fill ⌈log_16 200⌉ = 2 rows and thin out over the
        // next few; the id space has 32.
        let table = node.state().routing_table();
        assert_eq!(table.row_count(), 32);
        assert!(
            table.allocated_rows() <= 6,
            "{}: {} routing-table rows allocated",
            e.addr,
            table.allocated_rows()
        );
        assert!(!table.is_empty());
        // Nothing verifies, so nothing is memoized and no table exists.
        assert_eq!(node.app().verify_memo().allocated_slots(), 0);
    }
}
