//! The runner's side of the workload contract: a replay fed the lazy
//! `StreamTrace` is metric-for-metric the replay fed the materialised
//! `Trace` (they are one generator, see `past_workload::stream`; what
//! is under test here is that `Runner` treats the two `Workload` impls
//! alike), and record sampling leaves the exact counters alone.

use past_net::SimDuration;
use past_sim::{ExperimentConfig, ExperimentResult, Runner};
use past_workload::{WebTraceConfig, Workload};

/// The deterministic metric surface of a replay (everything except
/// wall-clock time and the obs report).
fn metric_surface(r: &ExperimentResult) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.inserts_total,
        r.inserts_ok,
        r.lookups_total,
        r.lookups_ok,
        r.replicas_stored,
        r.replicas_diverted,
        r.stored_bytes,
        r.net.events,
        r.net.delivered,
    )
}

fn run_replay(w: &dyn Workload, shards: usize, record_every: usize) -> ExperimentResult {
    let cfg = ExperimentConfig {
        nodes: 30,
        seed: 4242,
        shards,
        replay_lookups: true,
        ..Default::default()
    };
    Runner::build(cfg, w)
        .with_record_sampling(record_every)
        .run_pipelined(w, SimDuration::from_millis(2))
}

/// `run_pipelined` produces identical metrics whether fed the
/// materialized trace or the stream.
#[test]
fn pipelined_replay_identical_for_stream_and_materialized() {
    let cfg = WebTraceConfig::default().with_unique_files(1_000);
    let m = run_replay(&cfg.generate(), 2, 1);
    let s = run_replay(&cfg.stream(), 2, 1);
    assert_eq!(metric_surface(&m), metric_surface(&s));
    // The per-record vectors agree too (same completion order).
    assert_eq!(m.inserts.len(), s.inserts.len());
    assert_eq!(m.lookups.len(), s.lookups.len());
}

/// Record sampling thins the per-event vectors without touching the
/// exact aggregate counters the XL rows report.
#[test]
fn record_sampling_preserves_exact_counters() {
    let cfg = WebTraceConfig::default().with_unique_files(800);
    let stream = cfg.stream();
    let full = run_replay(&stream, 0, 1);
    let thinned = run_replay(&stream, 0, 16);
    assert_eq!(metric_surface(&full), metric_surface(&thinned));
    assert!(
        thinned.inserts.len() < full.inserts.len() / 8,
        "sampling must thin the insert records ({} vs {})",
        thinned.inserts.len(),
        full.inserts.len()
    );
    assert!(thinned.lookups.len() < full.lookups.len());
    assert_eq!(
        full.inserts.len() as u64,
        full.inserts_total,
        "unsampled runs record every completion"
    );
}
