//! The metric tables: the nine end-to-end metrics with their bounds and
//! the per-layer metric names. `BENCHMARK.json` lists the same names;
//! `tests/contract.rs` holds the two together.

use crate::json::Value;
use crate::workloads::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// A simulated statistic: for a fixed seed it repeats exactly, so
    /// `compare` holds it to equality, not to the bound.
    pub simulated: bool,
}

/// The end-to-end metrics, in reporting order. The first four are host
/// costs a user of the simulator waits on or pays for; the last five
/// are what the replay simulated.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        simulated: false,
    },
    EndToEnd {
        name: "replay_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        simulated: false,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.10,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "op_success_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.002,
        simulated: true,
    },
    EndToEnd {
        name: "final_utilization",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.002,
        simulated: true,
    },
    EndToEnd {
        name: "cache_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.002,
        simulated: true,
    },
    EndToEnd {
        name: "mean_lookup_hops",
        unit: "hops",
        better: Better::Lower,
        bound: 0.01,
        simulated: true,
    },
    EndToEnd {
        name: "maint_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.01,
        simulated: true,
    },
];

/// Whether workload `w` produces end-to-end metric `name`. A workload
/// with no lookups has no hit ratio or hop count; a static overlay
/// sends no maintenance traffic.
pub fn produces(w: Workload, name: &str) -> bool {
    match name {
        "cache_hit_ratio" => w == Workload::CacheLookup,
        "mean_lookup_hops" => matches!(w, Workload::CacheLookup | Workload::ChurnRepair),
        "maint_mb" => w == Workload::ChurnRepair,
        _ => true,
    }
}

/// The value the driver's result line carries for a metric the
/// workload does not produce. The driver wants every end-to-end metric
/// from every workload and none of them zero; a constant one can
/// neither regress nor improve. The metric listing and the result
/// files leave such metrics out instead.
pub const NOT_PRODUCED: f64 = 1.0;

/// The per-layer metrics of the traced run, as `(name, unit, better)`,
/// grouped by layer. They carry no bound; the direction says which way
/// an optimisation of the layer should move them (a count of work done
/// for the same input is better lower).
pub const PER_LAYER: [(&str, &str, Better); 63] = [
    ("workload.gen_s", "s", Better::Lower),
    ("workload.ops", "count", Better::Lower),
    ("workload.stream_ns_per_op", "ns", Better::Lower),
    ("sim.build_s", "s", Better::Lower),
    ("sim.ops_per_s", "1/s", Better::Higher),
    ("sim.kop_ms_p50", "ms", Better::Lower),
    ("sim.kop_ms_p90", "ms", Better::Lower),
    ("sim.first_rep_ratio", "ratio", Better::Lower),
    ("sim.scale_falloff", "ratio", Better::Higher),
    ("net.events", "count", Better::Lower),
    ("net.delivered", "count", Better::Lower),
    ("net.timers_fired", "count", Better::Lower),
    ("net.dropped", "count", Better::Lower),
    ("net.queue_peak", "count", Better::Lower),
    ("net.events_per_op", "count", Better::Lower),
    ("net.bare_ns_per_event", "ns", Better::Lower),
    ("net.bare_ns_per_event_s1", "ns", Better::Lower),
    ("net.bare_ns_per_event_s4", "ns", Better::Lower),
    ("net.est_share", "ratio", Better::Lower),
    ("net.shard1_vs_legacy", "ratio", Better::Lower),
    ("net.threaded_vs_inline", "ratio", Better::Lower),
    ("net.threaded_vs_inline_spread", "ratio", Better::Lower),
    ("pastry.delivered", "count", Better::Lower),
    ("pastry.route_hops_mean", "hops", Better::Lower),
    ("pastry.join_us_per_node", "us", Better::Lower),
    ("pastry.next_hop_ns", "ns", Better::Lower),
    ("pastry.replica_candidates_ns", "ns", Better::Lower),
    ("pastry.est_share", "ratio", Better::Lower),
    ("core.insert_started", "count", Better::Lower),
    ("core.insert_ok", "count", Better::Higher),
    ("core.insert_fail", "count", Better::Lower),
    ("core.insert_re_salt", "count", Better::Lower),
    ("core.divert_requested", "count", Better::Lower),
    ("core.lookup_ok", "count", Better::Higher),
    ("core.lookup_miss", "count", Better::Lower),
    ("core.maint_sent", "count", Better::Lower),
    ("core.maint_retry", "count", Better::Lower),
    ("core.maint_exhausted", "count", Better::Lower),
    ("core.residual_share", "ratio", Better::Lower),
    ("store.replica_primary", "count", Better::Higher),
    ("store.replica_diverted", "count", Better::Lower),
    ("store.replica_reject", "count", Better::Lower),
    ("store.cache_hit", "count", Better::Higher),
    ("store.cache_miss", "count", Better::Lower),
    ("store.cache_insert", "count", Better::Lower),
    ("store.cache_evict", "count", Better::Lower),
    ("store.node_hit_ratio", "ratio", Better::Higher),
    ("store.store_primary_ns", "ns", Better::Lower),
    ("store.cache_file_ns", "ns", Better::Lower),
    ("store.cache_probe_ns", "ns", Better::Lower),
    ("store.est_share", "ratio", Better::Lower),
    ("crypto.file_id_ns", "ns", Better::Lower),
    ("crypto.keyed_sign_ns", "ns", Better::Lower),
    ("crypto.keyed_verify_ns", "ns", Better::Lower),
    ("crypto.schnorr_verify_us", "us", Better::Lower),
    ("crypto.memo_hit_ratio", "ratio", Better::Higher),
    ("crypto.est_share", "ratio", Better::Lower),
    ("id.prefix_ns", "ns", Better::Lower),
    ("id.ring_distance_ns", "ns", Better::Lower),
    ("obs.overhead_ratio", "ratio", Better::Lower),
    ("obs.overhead_ratio_spread", "ratio", Better::Lower),
    ("obs.counter_ns", "ns", Better::Lower),
    ("obs.report_kb", "kB", Better::Lower),
];

/// The unit of per-layer metric `name`.
///
/// # Panics
///
/// Panics when the table does not name it: measuring a metric the
/// contract does not list is a bug in the benchmark.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// A reported metric: the value (a median where samples exist), its
/// unit, and the samples' range and count.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    /// The samples in the order they were taken (empty for a single
    /// value), so a result file shows drift within a run.
    pub samples: Vec<f64>,
    /// The highest percentile with ten samples beyond it, where the
    /// sample supports one.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// A single measured or counted value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            min: value,
            max: value,
            n: 1,
            samples: Vec::new(),
            tail: None,
        }
    }

    /// The median of `samples`, with their range and tail.
    pub fn of_samples(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let (min, max) = crate::stats::min_max(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: crate::stats::median(samples),
            min,
            max,
            n: samples.len(),
            samples: samples.to_vec(),
            tail: crate::stats::tail_with_ten_beyond(samples),
        }
    }

    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("value", Value::from(self.value)),
            ("unit", Value::from(self.unit)),
        ];
        if self.n > 1 {
            fields.push(("min", self.min.into()));
            fields.push(("max", self.max.into()));
            fields.push(("n", self.n.into()));
            fields.push((
                "samples",
                Value::Arr(self.samples.iter().map(|&v| Value::from(v)).collect()),
            ));
        }
        if let Some((pct, value)) = self.tail {
            fields.push(("tail_pct", pct.into()));
            fields.push(("tail", value.into()));
        }
        Value::obj(fields)
    }
}
