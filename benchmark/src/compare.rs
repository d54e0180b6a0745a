//! `pastbench compare A.json B.json`: holds result set B against
//! baseline A.
//!
//! Host metrics (times, rates, memory) are held to their bound: B is
//! `worse` when its median is worse than A's by more than the bound,
//! `better` when it is better by more than the bound, `same` otherwise
//! — and `unresolved` when either set's own min–max spread exceeds the
//! bound, because then the sets cannot tell a change of that size from
//! noise. Simulated statistics repeat exactly for a seed, so they are
//! compared for equality: any difference is a change of the model.

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's samples of a metric, as a result file records them.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    pub fn spread(self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }

    fn from_json(m: &Value) -> Option<Side> {
        let median = m.get("value")?.as_f64()?;
        let or_median = |key| m.get(key).and_then(Value::as_f64).unwrap_or(median);
        Some(Side {
            median,
            min: or_median("min"),
            max: or_median("max"),
        })
    }
}

/// By what share of A's median B is worse (negative: better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one metric of one workload.
pub fn judge(metric: &EndToEnd, a: Side, b: Side) -> Verdict {
    let worse_by = worsening(metric, a.median, b.median);
    if metric.simulated {
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if a.spread().max(b.spread()) > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The per-workload results of a file: a result set (`results.json`)
/// or one workload's file.
fn workloads_of(doc: &Value) -> Vec<&Value> {
    match doc.get("workloads").and_then(Value::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two result files and prints one line per pair. Returns
/// whether B holds up: no `worse`, no simulated statistic changed.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let mut holds = true;
    let mut compared = 0;
    for a in workloads_of(&a_doc) {
        let name = a
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a result without a workload name")?;
        let Some(b) = workloads_of(&b_doc)
            .into_iter()
            .find(|b| b.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name} - missing from {}", b_path.display());
            holds = false;
            continue;
        };
        let seed = |w: &Value| w.get("seed").and_then(Value::as_f64);
        if seed(a) != seed(b) {
            return Err(format!(
                "{name}: the two sets ran different seeds ({:?}, {:?}); \
                 simulated statistics only compare at one seed",
                seed(a),
                seed(b)
            ));
        }
        for metric in &END_TO_END {
            let side = |w: &Value| {
                w.get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(Side::from_json)
            };
            let (Some(sa), Some(sb)) = (side(a), side(b)) else {
                continue;
            };
            let verdict = judge(metric, sa, sb);
            holds &= verdict != Verdict::Worse;
            compared += 1;
            println!(
                "{name} {} {} A={} B={} improved={:+.2}% spread A={:.2}% B={:.2}% bound={}",
                metric.name,
                verdict.word(),
                sa.median,
                sb.median,
                -100.0 * worsening(metric, sa.median, sb.median),
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                if metric.simulated {
                    "exact".to_string()
                } else {
                    format!("{}%", 100.0 * metric.bound)
                },
            );
        }
        // The undirected simulated statistics: event and operation
        // counts.
        let stats = |w: &Value| {
            w.get("simulated")
                .and_then(Value::as_object)
                .map(<[_]>::to_vec)
        };
        let (sa, sb) = (stats(a).unwrap_or_default(), stats(b).unwrap_or_default());
        let changed: Vec<String> = sa
            .iter()
            .filter(|(k, va)| sb.iter().find(|(kb, _)| kb == k).map(|(_, vb)| vb) != Some(va))
            .map(|(k, _)| k.clone())
            .collect();
        if changed.is_empty() {
            println!("{name} simulated same ({} statistics identical)", sa.len());
        } else {
            println!("{name} simulated changed: {}", changed.join(" "));
            holds = false;
        }
    }
    if compared == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".to_string());
    }
    println!(
        "{}",
        if holds {
            "B holds: nothing worse, no simulated statistic changed"
        } else {
            "B does not hold"
        }
    );
    Ok(holds)
}
