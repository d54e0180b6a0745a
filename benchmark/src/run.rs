//! The untraced run of one workload: a discarded warm-up repetition,
//! then measured repetitions, medians, and the output checks.

use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::{produces, Metric, END_TO_END};
use crate::workloads::{run_rep, Observe, Outcome, Rep, Scales, Seeds, Workload};

/// `--seed` when none is given; the seed the pins are recorded at.
pub const DEFAULT_SEED: u64 = 2001;

/// The simulated statistics of the default seed at the recorded scale,
/// written by `pastbench pin`. A change that moves one of them changes
/// the model: it must say so and re-pin.
const PINS: &str = include_str!("../pins.json");

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Everything one run of one workload reports.
pub struct WorkloadResult {
    pub workload: Workload,
    pub seed: u64,
    pub scales: Scales,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// The simulated statistics, which repeat exactly for a seed.
    pub simulated: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    /// Client operations one repetition issues.
    pub attempted: u64,
    /// Operations the harness lost track of (see
    /// [`Outcome::ops_unaccounted`]).
    pub failed: u64,
    /// The discarded first repetition's `(setup_s, replay_s)`.
    pub warmup: (f64, f64),
    pub wall_s: f64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Value {
        let scale = self.scales.of(self.workload);
        Value::obj([
            ("workload", Value::from(self.workload.name())),
            ("seed", self.seed.into()),
            ("nodes", scale.nodes.into()),
            ("files", scale.files.into()),
            ("traced", self.traced.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "warmup",
                Value::obj([
                    ("setup_s", Value::from(self.warmup.0)),
                    ("replay_s", self.warmup.1.into()),
                ]),
            ),
            ("wall_s", self.wall_s.into()),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| (m.name.clone(), m.to_json()))),
            ),
            (
                "simulated",
                Value::obj(self.simulated.iter().map(|&(k, v)| (k, Value::from(v)))),
            ),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::obj([
                                ("name", Value::from(c.name)),
                                ("ok", c.ok.into()),
                                ("detail", c.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The simulated statistics of an outcome: `net.events`, the operation
/// counts, and the simulated end-to-end metrics the workload produces.
pub fn simulated_stats(w: Workload, o: &Outcome) -> Vec<(&'static str, f64)> {
    let mut stats = vec![
        ("net.events", o.events as f64),
        ("net.build_events", o.build_events as f64),
        ("net.delivered", o.delivered as f64),
        ("net.timers_fired", o.timers_fired as f64),
        ("net.dropped", o.dropped as f64),
        ("net.queue_peak", o.queue_peak as f64),
        ("inserts_total", o.inserts_total as f64),
        ("inserts_ok", o.inserts_ok as f64),
        ("lookups_total", o.lookups_total as f64),
        ("lookups_ok", o.lookups_ok as f64),
        ("replicas_stored", o.replicas_stored as f64),
        ("replicas_diverted", o.replicas_diverted as f64),
    ];
    let e2e = [
        ("op_success_ratio", o.op_success_ratio()),
        ("final_utilization", o.final_utilization),
        ("cache_hit_ratio", o.cache_hit_ratio),
        ("mean_lookup_hops", o.mean_lookup_hops),
        ("maint_mb", o.maint_mb()),
    ];
    stats.extend(e2e.into_iter().filter(|(name, _)| produces(w, name)));
    if !w.is_static() {
        stats.push(("audit.dangling_pointers", o.dangling_pointers as f64));
    }
    stats
}

/// The checks every run makes on its repetitions' outcomes.
pub fn check_outcomes(
    w: Workload,
    scales: Scales,
    seed: u64,
    outcomes: &[&Outcome],
    pin: bool,
) -> Vec<Check> {
    let first = outcomes[0];
    let mut checks = Vec::new();
    let differing = outcomes.iter().filter(|o| **o != first).count();
    checks.push(Check::new(
        "repetitions_identical",
        differing == 0,
        format!(
            "{differing} of {} repetitions differ from the first in a simulated statistic",
            outcomes.len()
        ),
    ));
    checks.push(Check::new(
        "ops_attempted_once",
        first.ops_unaccounted() == 0,
        format!(
            "inserts {}/{} expected, lookups {}/{} expected",
            first.inserts_total,
            first.inserts_expected,
            first.lookups_total,
            first.lookups_expected
        ),
    ));
    if w.is_static() {
        checks.push(Check::new(
            "lookups_all_found",
            first.lookups_ok == first.lookups_total,
            format!("{}/{} lookups found", first.lookups_ok, first.lookups_total),
        ));
    } else {
        checks.push(Check::new(
            "replicated_after_heal",
            first.audit_ok,
            first.audit_summary.clone(),
        ));
    }
    checks.push(Check::new(
        "inserts_succeed",
        first.inserts_ok > 0,
        format!("{} inserts succeeded", first.inserts_ok),
    ));
    if pin && seed == DEFAULT_SEED && scales == Scales::FULL {
        checks.push(check_pins(w, &simulated_stats(w, first)));
    }
    checks
}

fn check_pins(w: Workload, stats: &[(&'static str, f64)]) -> Check {
    let pins = json::parse(PINS).expect("pins.json is valid JSON");
    let Some(pinned) = pins.get(w.name()).and_then(Value::as_object) else {
        return Check::new(
            "pinned_simulated_stats",
            false,
            format!(
                "pins.json has no entry for {}; run `pastbench pin`",
                w.name()
            ),
        );
    };
    let moved: Vec<String> = stats
        .iter()
        .filter_map(|&(name, value)| {
            let pin = pinned
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_f64());
            (pin != Some(value)).then(|| format!("{name}: pinned {pin:?}, got {value}"))
        })
        .collect();
    Check::new("pinned_simulated_stats", moved.is_empty(), moved.join("; "))
}

/// Runs `w` untraced: one warm-up repetition, then measured repetitions
/// until at least `scales.reps` are done and `seconds` have been
/// measured.
pub fn run_untraced(
    w: Workload,
    scales: Scales,
    seed: u64,
    seconds: f64,
    pin: bool,
) -> WorkloadResult {
    let started = Instant::now();
    let seeds = Seeds::derive(seed);
    let warm = run_rep(w, scales, seeds, Observe::default());
    let measuring = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < scales.reps || measuring.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(w, scales, seeds, Observe::default()));
    }

    let samples = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let first = &reps[0].outcome;
    let simulated = simulated_stats(w, first);
    let metrics = END_TO_END
        .iter()
        .filter(|m| produces(w, m.name))
        .map(|m| match m.name {
            "setup_s" => Metric::of_samples(m.name, m.unit, &samples(&Rep::setup_s)),
            "replay_s" => Metric::of_samples(m.name, m.unit, &samples(&Rep::replay_s)),
            "events_per_s" => Metric::of_samples(m.name, m.unit, &samples(&Rep::events_per_s)),
            "peak_rss_mb" => {
                Metric::single(m.name, m.unit, past_obs::mem::peak_rss_kb() as f64 / 1024.0)
            }
            // The rest is what the replay simulated.
            name => {
                let (_, value) = simulated
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} has no measurement"));
                Metric::single(m.name, m.unit, *value)
            }
        })
        .collect();

    let mut outcomes: Vec<&Outcome> = reps.iter().map(|r| &r.outcome).collect();
    outcomes.push(&warm.outcome);
    let checks = check_outcomes(w, scales, seed, &outcomes, pin);
    WorkloadResult {
        workload: w,
        seed,
        scales,
        traced: false,
        metrics,
        simulated,
        checks,
        attempted: first.ops_issued,
        failed: first.ops_unaccounted(),
        warmup: (warm.setup_s(), warm.replay_s()),
        wall_s: started.elapsed().as_secs_f64(),
    }
}
