//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Everything stays in memory until the run ends; `to_json` writes the
//! spans out with their self time (duration minus the part covered by
//! child spans). Spans inside the program are a later change
//! (`past_obs::prof`); these are taken from outside, at the public
//! function boundary.

use std::time::Instant;

use crate::json::Value;

/// One span: a named interval, and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// The spans of one traced run of one workload. The workload's name is
/// the identifier all of them share.
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let now = Instant::now();
        let id = self.record(name, now, now);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    /// Records a span whose interval was stamped elsewhere (inside a
    /// repetition), as a child of the innermost open span. Returns its
    /// id.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        self.record_under(self.open.last().copied(), name, start, end)
    }

    /// Records a stamped span under an explicit parent.
    pub fn record_under(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in seconds: its duration minus its
    /// children's durations. Child spans never overlap each other here
    /// (one thread, properly nested), so the sum is the covered part.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// The span list for `trace_<workload>.json`. Times are
    /// microseconds since the tracer was created.
    pub fn to_json(&self) -> Value {
        let us = |t: Instant| (t.max(self.origin) - self.origin).as_secs_f64() * 1.0e6;
        let own = self.self_times();
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::from(id)),
                        ("name", s.name.as_str().into()),
                        ("workload", self.workload.as_str().into()),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("start_us", us(s.start).into()),
                        ("end_us", us(s.end).into()),
                        ("self_us", (own[id] * 1.0e6).into()),
                    ])
                })
                .collect(),
        )
    }
}
