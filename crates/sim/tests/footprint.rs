//! Deterministic guards on what an idle node costs: counts of what a
//! built overlay has allocated, not resident-set readings, so they hold
//! on any host. DESIGN.md ("What a node and a cached file cost") turns
//! them into bytes.

use std::mem::{size_of, size_of_val};

use past_core::{PastMsg, PastNode, PastOverlayNode, ReqId};
use past_crypto::{FileCertificate, KeyPair, Scheme, Sha1};
use past_pastry::{Envelope, NodeEntry, PastryState, RouteCell};
use past_sim::{ExperimentConfig, InsertRecord, Runner};
use past_store::{Cache, NodeStore};
use past_workload::{FileSpec, TraceOp, WebTraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A node id is stored at 8-byte alignment, so a record that holds one
/// beside a 4-byte address or a sequence number carries no 16-byte
/// padding: these are the sizes DESIGN.md's per-record table multiplies.
#[test]
fn records_that_hold_a_node_id_are_not_padded_to_sixteen() {
    assert_eq!(size_of::<NodeEntry>(), 24);
    assert!(size_of::<ReqId>() <= 32);
    // A routing-table row is 16 of these: 640 B, not 1,024.
    assert!(size_of::<Option<RouteCell>>() <= 40);
    assert!(size_of::<Envelope<PastMsg>>() <= 176);
    // The sender filter: 24-byte stamps, under 1 kB per node.
    const {
        assert!(PastryState::SENDER_FILTER_BYTES.is_multiple_of(24));
        assert!(PastryState::SENDER_FILTER_BYTES <= 1024);
    }
}

/// One diverted replica is one table record at B, one at A and one at
/// C, each found by the certificate it holds (no second copy of the
/// file's id) and naming its nodes by 4-byte peer handles. Held as six
/// maps in two crates, A's and C's state was 160 + 144 B of buckets; as
/// two maps keyed by `FileId`, 128 + 112 B; with whole `NodeEntry`s in
/// the records, 64 + 56 B, and B's record 32 B.
#[test]
fn a_diversion_is_three_sixteen_byte_records() {
    type Store = NodeStore<NodeEntry>;
    const {
        assert!(Store::DIVERTED_RECORD_BYTES <= 16);
        assert!(Store::POINTER_RECORD_BYTES <= 16);
        assert!(Store::BACKUP_RECORD_BYTES <= 16);
    }
}

/// What a replay keeps per op: an insert leaves one record (it left two
/// 24-byte ones while the replica totals had a vector of their own), and
/// a materialised trace holds 8 bytes per op and 8 per file.
#[test]
fn an_insert_leaves_one_record_and_a_trace_op_is_eight_bytes() {
    assert!(size_of::<InsertRecord>() <= 32, "{} B", size_of::<InsertRecord>());
    assert!(size_of::<TraceOp>() <= 8, "{} B", size_of::<TraceOp>());
    assert!(size_of::<FileSpec>() <= 8, "{} B", size_of::<FileSpec>());
}

/// A cached copy's GD-S order entry names its file through the
/// certificate (24 B, not 40 with a second copy of the id), and an
/// unsigned certificate carries one null pointer where a 24-byte
/// signature used to sit: 88 B, an `Arc` block of 104 B instead of 120.
#[test]
fn a_cached_copy_and_an_unsigned_certificate_carry_nothing_unread() {
    const { assert!(Cache::ORDER_ENTRY_BYTES <= 24) };
    assert!(size_of::<FileCertificate>() <= 88, "{} B", size_of::<FileCertificate>());
    let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(1));
    let cert = FileCertificate::issue_unsigned(&owner, "f", Sha1::digest(b"f"), 1, 3, 0, 0);
    assert!(cert.signature.is_none());
    assert_eq!(size_of_val(&cert.signature), size_of::<usize>());
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
    }
}

/// Every node carries one `PastNode` inline in the engine's slot
/// vector, so a field added to it costs its size on every node.
#[test]
fn a_past_node_is_no_larger_than_measured() {
    assert!(size_of::<PastNode>() <= 880, "{} B", size_of::<PastNode>());
}

/// The same holds for the Pastry node wrapped around it.
#[test]
fn a_past_overlay_node_is_no_larger_than_measured() {
    let bytes = size_of::<PastOverlayNode>();
    assert!(bytes <= 1256, "{bytes} B");
}
