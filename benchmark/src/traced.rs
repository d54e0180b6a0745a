//! The traced run of one workload: replays with `past-obs` metrics on
//! and wall-clock stamps inside the replay, the layer drives, and the
//! engine comparisons on the probe overlay — then the per-layer
//! metrics, the estimated shares and `trace_<workload>.json`.
//!
//! It is a separate run: end-to-end numbers always come from the
//! untraced one, and the gap between the two replay times is the price
//! of watching (`obs.overhead_ratio`).

use std::path::Path;
use std::time::Instant;

use crate::drives::{run_drives, DriveInput};
use crate::json::{self, Value};
use crate::metrics::{Metric, PER_LAYER};
use crate::run::{check_outcomes, simulated_stats, Check, WorkloadResult};
use crate::spans::Tracer;
use crate::stats::{median, percentile, spread};
use crate::workloads::{
    churn_config, churn_rep, experiment_config, run_rep, trace_rep, Observe, Outcome, Rep, Replay,
    Scales, Seeds, Workload,
};

/// Spread above which a comparison of two configurations is reported
/// as unresolved rather than as a ratio to act on.
const UNRESOLVED_SPREAD: f64 = 0.10;

/// The final `past-obs` snapshot of a traced replay.
struct Registry {
    snapshot: Value,
}

impl Registry {
    fn from_report(report: &str) -> Result<Registry, String> {
        let doc = json::parse(report)?;
        let snapshot = doc
            .get("snapshots")
            .and_then(Value::as_array)
            .and_then(|s| s.last())
            .cloned()
            .ok_or("the metrics report holds no snapshot")?;
        Ok(Registry { snapshot })
    }

    fn counter(&self, name: &str) -> f64 {
        self.snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    /// Sum of the counters whose name starts with `prefix` (the cache
    /// counters carry their policy as a suffix).
    fn counter_family(&self, prefix: &str) -> f64 {
        self.snapshot
            .get("counters")
            .and_then(Value::as_object)
            .map_or(0.0, |fields| {
                fields
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .filter_map(|(_, v)| v.as_f64())
                    .fold(0.0, |sum, v| sum + v)
            })
    }

    /// `(count, sum)` of a histogram.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let field = |f: &str| {
            self.snapshot
                .get("histograms")
                .and_then(|h| h.get(name))
                .and_then(|h| h.get(f))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        (field("count"), field("sum"))
    }
}

/// Records the spans of one repetition under the innermost open span.
fn record_rep(tracer: &mut Tracer, rep: &Rep) {
    let m = rep.marks;
    if m.trace_ready > m.start {
        tracer.record("workload.generate", m.start, m.trace_ready);
    }
    tracer.record("sim.build", m.trace_ready, m.overlay_ready);
    let replay = tracer.record("sim.replay", m.replay_start, m.replay_end);
    for &(start, end, _) in &rep.windows {
        tracer.record_under(Some(replay), "sim.window", start, end);
    }
    tracer.record("sim.report", m.replay_end, m.end);
}

/// The full-scale repetitions of a traced run.
struct Replays {
    warm: Rep,
    /// Metrics off.
    plain: Vec<Rep>,
    /// `past-obs` metrics on.
    watched: Vec<Rep>,
}

impl Replays {
    /// A warm-up, then plain and watched replays in turn. Both kinds
    /// carry the wall-clock stamps, so the stamps cancel out of the
    /// overhead ratio.
    fn run(w: Workload, scales: Scales, seeds: Seeds, tracer: &mut Tracer) -> Replays {
        let mut rep = |span: &str, observe: Observe| {
            tracer.span(span, |t| {
                let rep = run_rep(w, scales, seeds, observe);
                record_rep(t, &rep);
                rep
            })
        };
        let warm = rep("rep.warmup", Observe::default());
        let (mut plain, mut watched) = (Vec::new(), Vec::new());
        for _ in 0..scales.reps {
            plain.push(rep(
                "rep.plain",
                Observe {
                    metrics: false,
                    windows: true,
                },
            ));
            watched.push(rep(
                "rep.watched",
                Observe {
                    metrics: true,
                    windows: true,
                },
            ));
        }
        Replays {
            warm,
            plain,
            watched,
        }
    }

    fn median_plain(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.plain.iter().map(f).collect::<Vec<_>>())
    }

    /// Watched ÷ plain replay time, pair by pair.
    fn overhead_ratios(&self) -> Vec<f64> {
        ratios(
            &self.watched.iter().map(Rep::replay_s).collect::<Vec<_>>(),
            &self.plain.iter().map(Rep::replay_s).collect::<Vec<_>>(),
        )
    }
}

/// Replays on the small overlays: the falloff probe and the engine
/// comparisons.
struct Probes {
    /// `events_per_s` of `w`'s kind of replay on the probe overlay.
    falloff_events_per_s: Vec<f64>,
    shard1_s: Vec<f64>,
    legacy_s: Vec<f64>,
    threaded_s: Vec<f64>,
    inline_s: Vec<f64>,
}

impl Probes {
    fn run(w: Workload, scales: Scales, seeds: Seeds, tracer: &mut Tracer) -> Probes {
        let probe_scale = scales.probe_of(w);
        let falloff_events_per_s = tracer.span("probe.scale_falloff", |_| {
            let run = || match w.replay() {
                Some(replay) => trace_rep("probe", replay, probe_scale, seeds, Observe::default()),
                None => churn_rep(probe_scale, seeds, Observe::default()),
            };
            run();
            (0..scales.reps).map(|_| run().events_per_s()).collect()
        });

        // Engine comparisons: the open-loop insert replay on the engine
        // overlay, whatever `w` is — they measure the engine, not the
        // workload.
        let open_loop = |shards| Replay {
            cache: false,
            open_loop: true,
            shards,
        };
        let (shard1_s, legacy_s) = engine_pair(
            tracer,
            "probe.shard1_vs_legacy",
            scales,
            seeds,
            || open_loop(1),
            || open_loop(0),
        );
        // Two shards on the engine's default worker pool against the
        // same two shards run inline. The pool size is read when the
        // engine is built, from the variable `cli` pins to 0 for every
        // other replay.
        let (threaded_s, inline_s) = engine_pair(
            tracer,
            "probe.threaded_vs_inline",
            scales,
            seeds,
            || {
                std::env::remove_var("PAST_SHARD_THREADS");
                open_loop(2)
            },
            || {
                std::env::set_var("PAST_SHARD_THREADS", "0");
                open_loop(2)
            },
        );
        std::env::set_var("PAST_SHARD_THREADS", "0");
        Probes {
            falloff_events_per_s,
            shard1_s,
            legacy_s,
            threaded_s,
            inline_s,
        }
    }
}

/// Replay wall times of two engine configurations on the engine
/// overlay: a warm-up, then `scales.reps` repetitions of each in turn,
/// as `(a, b)` samples.
fn engine_pair(
    tracer: &mut Tracer,
    name: &str,
    scales: Scales,
    seeds: Seeds,
    mut a: impl FnMut() -> Replay,
    mut b: impl FnMut() -> Replay,
) -> (Vec<f64>, Vec<f64>) {
    tracer.span(name, |_| {
        let run = |replay: Replay| {
            trace_rep("probe", replay, scales.engine, seeds, Observe::default()).replay_s()
        };
        run(a());
        let mut pairs = (Vec::new(), Vec::new());
        for _ in 0..scales.reps {
            pairs.0.push(run(a()));
            pairs.1.push(run(b()));
        }
        pairs
    })
}

/// Pairwise ratios `a[i] / b[i]`.
fn ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x / y).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Estimated shares of a replay: calls counted in the watched replay ×
/// the drive's median cost per call ÷ the plain replay's wall time.
struct Shares {
    net: f64,
    pastry: f64,
    store: f64,
    crypto: f64,
}

impl Shares {
    fn estimate(
        w: Workload,
        outcome: &Outcome,
        reg: &Registry,
        drive: impl Fn(&str) -> f64,
        replay_s: f64,
    ) -> Shares {
        let replay_ns = replay_s * 1.0e9;
        let bare = match w.shards() {
            0 => drive("net.bare_ns_per_event"),
            1 => drive("net.bare_ns_per_event_s1"),
            _ => drive("net.bare_ns_per_event_s4"),
        };
        // One routing decision per hop and one at the destination; one
        // replica-set computation per routed insert attempt.
        let attempts = reg.counter("past.insert.started") + reg.counter("past.insert.re_salt");
        let (routes, hops) = reg.histogram("pastry.route.hops");
        let replicas = reg.counter("store.replica.primary")
            + reg.counter("store.replica.diverted")
            + reg.counter("store.replica.reject");
        let probes =
            reg.counter_family("store.cache.hit.") + reg.counter_family("store.cache.miss.");
        // Every insert attempt hashes a fileId. With verification on,
        // each certificate and each store receipt is signed once, every
        // check hashes the signed bytes for the memo key (one
        // keyed-hash pass, what a keyed verify costs), and a memo miss
        // verifies in full.
        let memo_hit = reg.counter("crypto.verify.memo_hit");
        let memo_miss = reg.counter("crypto.verify.memo_miss");
        let mut crypto_ns = attempts * drive("crypto.file_id_ns");
        if memo_hit + memo_miss > 0.0 {
            crypto_ns += (attempts + replicas) * drive("crypto.keyed_sign_ns")
                + (memo_hit + 2.0 * memo_miss) * drive("crypto.keyed_verify_ns");
        }
        Shares {
            net: outcome.replay_events() as f64 * bare / replay_ns,
            pastry: ((hops + routes) * drive("pastry.next_hop_ns")
                + attempts * drive("pastry.replica_candidates_ns"))
                / replay_ns,
            store: (replicas * drive("store.store_primary_ns")
                + reg.counter_family("store.cache.insert.") * drive("store.cache_file_ns")
                + probes * drive("store.cache_probe_ns"))
                / replay_ns,
            crypto: crypto_ns / replay_ns,
        }
    }

    fn all(&self) -> [f64; 4] {
        [self.net, self.pastry, self.store, self.crypto]
    }

    /// What outside timing cannot attribute: the insert, lookup and
    /// maintenance state machines of `core`, but also message
    /// construction, allocation and every cache miss the tight drive
    /// loops do not suffer. An upper bound on `core`, not a
    /// measurement.
    fn residual(&self) -> f64 {
        1.0 - self.all().iter().sum::<f64>()
    }
}

/// Runs `w` traced. Writes `<out>/trace_<workload>.json`.
pub fn run_traced(
    w: Workload,
    scales: Scales,
    seed: u64,
    out: &Path,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let seeds = Seeds::derive(seed);
    let scale = scales.of(w);
    let mut tracer = Tracer::new(w.name());

    let reps = Replays::run(w, scales, seeds, &mut tracer);
    let report = reps
        .watched
        .last()
        .and_then(|r| r.metrics_json.as_deref())
        .ok_or("the watched replay returned no metrics report")?;
    let reg = tracer.span("sim.report", |_| Registry::from_report(report))?;

    // Layer drives on the workload's own files and node ids.
    let pastry = match w.replay() {
        Some(replay) => experiment_config(replay, scale, seeds).pastry_config(),
        None => churn_config(scale, seeds).pastry,
    };
    let drives = run_drives(
        &DriveInput {
            files: scale.files,
            batches: scales.drive_batches,
            seeds,
            entries: reps.warm.entries.clone(),
            pastry,
        },
        &mut tracer,
    );
    let probes = Probes::run(w, scales, seeds, &mut tracer);

    let o = &reps.plain[0].outcome;
    let replay_s = reps.median_plain(Rep::replay_s);
    let build_s = reps.median_plain(Rep::build_s);
    let drive = |name: &str| {
        drives
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let shares = Shares::estimate(w, o, &reg, drive, replay_s);
    // Wall milliseconds per 1000 client ops, one sample per window.
    let kop_ms: Vec<f64> = reps
        .plain
        .iter()
        .flat_map(|r| &r.windows)
        .map(|&(start, end, ops)| (end - start).as_secs_f64() * 1.0e6 / ops as f64)
        .collect();
    let overhead = reps.overhead_ratios();
    let threaded_ratios = ratios(&probes.threaded_s, &probes.inline_s);
    let (route_count, route_hops) = reg.histogram("pastry.route.hops");
    let cache_hit = reg.counter_family("store.cache.hit.");
    let cache_miss = reg.counter_family("store.cache.miss.");
    let memo_hit = reg.counter("crypto.verify.memo_hit");
    let memo_miss = reg.counter("crypto.verify.memo_miss");

    let measured: Vec<(&str, f64)> = vec![
        ("workload.gen_s", reps.median_plain(Rep::gen_s)),
        ("workload.ops", reps.plain[0].trace_ops as f64),
        ("sim.build_s", build_s),
        ("sim.ops_per_s", o.ops_issued as f64 / replay_s),
        ("sim.kop_ms_p50", median(&kop_ms)),
        ("sim.kop_ms_p90", percentile(&kop_ms, 90.0)),
        ("sim.first_rep_ratio", reps.warm.replay_s() / replay_s),
        (
            "sim.scale_falloff",
            reps.median_plain(Rep::events_per_s) / median(&probes.falloff_events_per_s),
        ),
        ("net.events", o.events as f64),
        ("net.delivered", o.delivered as f64),
        ("net.timers_fired", o.timers_fired as f64),
        ("net.dropped", o.dropped as f64),
        ("net.queue_peak", o.queue_peak as f64),
        (
            "net.events_per_op",
            ratio(o.replay_events() as f64, o.ops_issued as f64),
        ),
        ("net.est_share", shares.net),
        (
            "net.shard1_vs_legacy",
            median(&probes.shard1_s) / median(&probes.legacy_s),
        ),
        (
            "net.threaded_vs_inline",
            median(&probes.threaded_s) / median(&probes.inline_s),
        ),
        ("net.threaded_vs_inline_spread", spread(&threaded_ratios)),
        ("pastry.delivered", reg.counter("pastry.delivered")),
        ("pastry.route_hops_mean", ratio(route_hops, route_count)),
        (
            "pastry.join_us_per_node",
            build_s * 1.0e6 / scale.nodes as f64,
        ),
        ("pastry.est_share", shares.pastry),
        ("core.insert_started", reg.counter("past.insert.started")),
        ("core.insert_ok", reg.counter("past.insert.ok")),
        ("core.insert_fail", reg.counter("past.insert.fail")),
        ("core.insert_re_salt", reg.counter("past.insert.re_salt")),
        (
            "core.divert_requested",
            reg.counter("past.divert.requested"),
        ),
        ("core.lookup_ok", reg.counter("past.lookup.ok")),
        ("core.lookup_miss", reg.counter("past.lookup.miss")),
        ("core.maint_sent", reg.counter("maint.sent")),
        ("core.maint_retry", reg.counter("maint.retry")),
        ("core.maint_exhausted", reg.counter("maint.exhausted")),
        ("core.residual_share", shares.residual()),
        (
            "store.replica_primary",
            reg.counter("store.replica.primary"),
        ),
        (
            "store.replica_diverted",
            reg.counter("store.replica.diverted"),
        ),
        ("store.replica_reject", reg.counter("store.replica.reject")),
        ("store.cache_hit", cache_hit),
        ("store.cache_miss", cache_miss),
        (
            "store.cache_insert",
            reg.counter_family("store.cache.insert."),
        ),
        (
            "store.cache_evict",
            reg.counter_family("store.cache.evict."),
        ),
        (
            "store.node_hit_ratio",
            ratio(cache_hit, cache_hit + cache_miss),
        ),
        ("store.est_share", shares.store),
        (
            "crypto.memo_hit_ratio",
            ratio(memo_hit, memo_hit + memo_miss),
        ),
        ("crypto.est_share", shares.crypto),
        ("obs.overhead_ratio", median(&overhead)),
        ("obs.overhead_ratio_spread", spread(&overhead)),
        ("obs.report_kb", report.len() as f64 / 1024.0),
    ];
    // Report in the table's order: a drive's samples where a drive
    // measured the metric, the value above otherwise. A gap is a bug.
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            drives
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .or_else(|| {
                    measured
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, value)| Metric::single(name, unit, value))
                })
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
        })
        .collect();

    // Watching must not change what is simulated.
    let outcomes: Vec<&Outcome> = reps
        .plain
        .iter()
        .chain(&reps.watched)
        .chain([&reps.warm])
        .map(|r| &r.outcome)
        .collect();
    let mut checks = check_outcomes(w, scales, seed, &outcomes, true);
    checks.push(Check {
        name: "shares_within_unit",
        ok: shares.all().iter().all(|s| (0.0..=1.0).contains(s)) && shares.residual() >= 0.0,
        detail: format!(
            "net {:.3} pastry {:.3} store {:.3} crypto {:.3}: \
             a sum above 1 means a drive overstates its layer",
            shares.net, shares.pastry, shares.store, shares.crypto
        ),
    });

    let unresolved: Vec<Value> = [
        ("net.threaded_vs_inline", spread(&threaded_ratios)),
        ("obs.overhead_ratio", spread(&overhead)),
    ]
    .into_iter()
    .filter(|(_, s)| *s > UNRESOLVED_SPREAD)
    .map(|(name, s)| {
        eprintln!(
            "{} {name}: spread {s:.3} exceeds {UNRESOLVED_SPREAD}; unresolved",
            w.name()
        );
        Value::from(name)
    })
    .collect();
    let trace = Value::obj([
        ("workload", Value::from(w.name())),
        ("seed", seed.into()),
        ("replay_s_plain", replay_s.into()),
        (
            "replay_s_watched",
            median(&reps.watched.iter().map(Rep::replay_s).collect::<Vec<_>>()).into(),
        ),
        ("unresolved", Value::Arr(unresolved)),
        (
            "samples",
            Value::obj([
                ("threaded_replay_s", num_array(&probes.threaded_s)),
                ("inline_replay_s", num_array(&probes.inline_s)),
                ("shard1_replay_s", num_array(&probes.shard1_s)),
                ("legacy_replay_s", num_array(&probes.legacy_s)),
                ("overhead_ratios", num_array(&overhead)),
            ]),
        ),
        (
            "counts",
            reg.snapshot.get("counters").cloned().unwrap_or(Value::Null),
        ),
        ("spans", tracer.to_json()),
    ]);
    let path = out.join(format!("trace_{}.json", w.name()));
    std::fs::write(&path, trace.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    Ok(WorkloadResult {
        workload: w,
        seed,
        scales,
        traced: true,
        metrics,
        simulated: simulated_stats(w, o),
        checks,
        attempted: o.ops_issued,
        failed: o.ops_unaccounted(),
        warmup: (reps.warm.setup_s(), reps.warm.replay_s()),
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn num_array(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::from(v)).collect())
}
