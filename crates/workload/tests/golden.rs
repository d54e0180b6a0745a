//! Pins what each generator emits. The digests were recorded from the
//! last commit that had a hand-written `generate()` per config beside
//! the lazy stream, so they hold the single draw loop to that output
//! (the flash crowd's was recorded again for the fixed flip parameters
//! it runs with now, before they became constants); a deliberate change to
//! a generator re-records them in the same PR (and moves
//! `arc_cert_golden` and the pastbench pins with it).

use past_workload::{
    FlashCrowdConfig, FsTraceConfig, StreamTrace, Trace, TraceOp, WebTraceConfig, Workload,
};

/// FNV-1a over every file size, then every op, little-endian.
fn fold(w: &dyn Workload) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..w.unique_files() as u32 {
        eat(&w.file_size(i).to_le_bytes());
    }
    for op in w.ops_iter() {
        // Widened: the digests were recorded when a client was a `u32`.
        eat(&u32::from(op.client).to_le_bytes());
        eat(&op.file.to_le_bytes());
        eat(&[op.is_insert as u8]);
    }
    h
}

/// Both forms of one config: same digest, same ops, same accessors.
fn check(trace: Trace, stream: StreamTrace, digest: u64) {
    let (materialised, streamed) = (fold(&trace), fold(&stream));
    assert_eq!(materialised, digest, "materialised: {materialised:#x}");
    assert_eq!(streamed, digest, "streamed: {streamed:#x}");
    assert_eq!(trace.ops, stream.ops().collect::<Vec<TraceOp>>());
    let (t, s): (&dyn Workload, &dyn Workload) = (&trace, &stream);
    assert_eq!(t.total_bytes(), s.total_bytes());
    assert_eq!(t.unique_files(), s.unique_files());
    assert_eq!(t.op_count(), s.op_count());
    assert_eq!(t.op_count(), trace.ops.len());
    assert_eq!(t.file_name(17), s.file_name(17));
}

#[test]
fn web_golden() {
    let cfg = WebTraceConfig::default().with_unique_files(2_000);
    check(cfg.generate(), cfg.stream(), 0x2870_fe0f_b5f5_9873);
}

#[test]
fn fs_golden() {
    let cfg = FsTraceConfig {
        files: 3_000,
        ..Default::default()
    };
    check(cfg.generate(), cfg.stream(), 0xc714_b179_1623_6e11);
}

#[test]
fn flash_crowd_golden() {
    let cfg = FlashCrowdConfig {
        unique_files: 1_000,
        zipf_alpha_after: 1.1,
        ..Default::default()
    };
    check(cfg.generate(), cfg.stream(), 0x7528_2a3c_5d7d_7647);
}
