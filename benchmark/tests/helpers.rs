//! Unit tests of the order statistics, the JSON writer and parser, the
//! span self-time rule and `compare`'s verdicts.

use pastbench::compare::{judge, Side, Verdict};
use pastbench::json::{self, Value};
use pastbench::metrics::{Metric, END_TO_END};
use pastbench::spans::Tracer;
use pastbench::stats::{median, min_max, percentile, spread, tail_with_ten_beyond};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
#[should_panic(expected = "median of no samples")]
fn median_of_nothing_is_a_bug() {
    median(&[]);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(tail_with_ten_beyond(&ten), None);
    // Eleven samples: only the smallest has ten beyond it.
    let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
    let (pct, value) = tail_with_ten_beyond(&eleven).unwrap();
    assert_eq!(value, 1.0);
    assert!((pct - 100.0 / 11.0).abs() < 1e-9);
    // A hundred samples: the 90th smallest, i.e. p90.
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_with_ten_beyond(&hundred), Some((90.0, 90.0)));
    // Thirty-one: the 21st smallest.
    let drive: Vec<f64> = (1..=31).map(f64::from).collect();
    assert_eq!(tail_with_ten_beyond(&drive).unwrap().1, 21.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
    assert_eq!(percentile(&[4.0, 2.0], 90.0), 4.0);
}

#[test]
fn spread_is_range_over_median() {
    assert_eq!(min_max(&[2.0, 5.0, 3.0]), (2.0, 5.0));
    assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
    assert_eq!(spread(&[10.0]), 0.0);
    assert_eq!(spread(&[0.0, 0.0]), 0.0);
}

#[test]
fn json_round_trips_every_digit() {
    let doc = Value::obj([
        ("ratio", Value::from(0.745_776_364_381_152_8)),
        ("events", Value::from(1_491_905u64)),
        ("tiny", Value::from(1.0e-7)),
        ("name", Value::from("a \"quoted\"\nline\\")),
        ("flag", Value::from(true)),
        ("none", Value::Null),
        (
            "list",
            Value::Arr(vec![
                Value::from(1u64),
                Value::from(2.5),
                Value::obj([("k", Value::Null)]),
            ]),
        ),
        ("empty", Value::Arr(Vec::new())),
    ]);
    for text in [doc.to_line(), doc.to_pretty()] {
        assert_eq!(json::parse(&text).unwrap(), doc, "{text}");
    }
    // Whole numbers carry no fraction; others carry every digit.
    let line = doc.to_line();
    assert!(line.contains("\"events\":1491905,"), "{line}");
    assert!(line.contains("0.7457763643811528"), "{line}");
}

#[test]
fn json_rejects_malformed_input_and_maps_non_finite_to_null() {
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
        assert!(json::parse(bad).is_err(), "{bad:?} parsed");
    }
    assert_eq!(Value::from(f64::NAN).to_line(), "null");
    assert_eq!(json::parse("\"\\u0041\\t\"").unwrap(), Value::from("A\t"));
    assert_eq!(
        json::parse(" [ -1.5e3 ] ").unwrap(),
        Value::Arr(vec![Value::from(-1500.0)])
    );
}

#[test]
fn metric_json_carries_unit_and_sample_range() {
    let single = Metric::single("net.events", "count", 12.0).to_json();
    assert_eq!(single.to_line(), "{\"value\":12,\"unit\":\"count\"}");
    let samples: Vec<f64> = (1..=11).map(f64::from).collect();
    let m = Metric::of_samples("replay_s", "s", &samples).to_json();
    assert_eq!(m.get("value").unwrap().as_f64(), Some(6.0));
    assert_eq!(m.get("min").unwrap().as_f64(), Some(1.0));
    assert_eq!(m.get("max").unwrap().as_f64(), Some(11.0));
    assert_eq!(m.get("n").unwrap().as_f64(), Some(11.0));
    assert_eq!(m.get("tail").unwrap().as_f64(), Some(1.0));
}

#[test]
fn self_time_is_duration_minus_children() {
    let mut tracer = Tracer::new("w");
    let t0 = std::time::Instant::now();
    let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
    let replay = tracer.record("sim.replay", at(0), at(100));
    tracer.record_under(Some(replay), "sim.window", at(0), at(30));
    tracer.record_under(Some(replay), "sim.window", at(30), at(90));
    let own = tracer.self_times();
    assert!((own[0] - 0.010).abs() < 1e-9, "{own:?}");
    assert!((own[1] - 0.030).abs() < 1e-9);
    // Nested closures parent themselves.
    tracer.span("outer", |t| t.span("inner", |_| ()));
    let spans = tracer.spans();
    assert_eq!(spans[4].parent, Some(3));
    assert_eq!(spans[3].parent, None);
    let json = tracer.to_json();
    assert_eq!(json.as_array().unwrap().len(), 5);
    assert_eq!(
        json.as_array().unwrap()[1]
            .get("workload")
            .unwrap()
            .as_str(),
        Some("w")
    );
}

fn side(median: f64, min: f64, max: f64) -> Side {
    Side { median, min, max }
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let by_name = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
    let replay = by_name("replay_s"); // lower is better, 10 %
    let steady = |m: f64| side(m, m * 0.99, m * 1.01);
    assert_eq!(judge(replay, steady(2.0), steady(2.1)), Verdict::Same);
    assert_eq!(judge(replay, steady(2.0), steady(2.3)), Verdict::Worse);
    assert_eq!(judge(replay, steady(2.0), steady(1.7)), Verdict::Better);
    // A set that spreads wider than the bound cannot resolve it.
    assert_eq!(
        judge(replay, side(2.0, 1.8, 2.2), steady(2.3)),
        Verdict::Unresolved
    );
    let rate = by_name("events_per_s"); // higher is better
    assert_eq!(judge(rate, steady(1.0e6), steady(0.85e6)), Verdict::Worse);
    assert_eq!(judge(rate, steady(1.0e6), steady(1.2e6)), Verdict::Better);
    // Simulated statistics compare exactly, whatever the bound.
    let hit = by_name("cache_hit_ratio");
    let exact = |m: f64| side(m, m, m);
    assert_eq!(judge(hit, exact(0.393), exact(0.393)), Verdict::Same);
    assert_eq!(judge(hit, exact(0.393), exact(0.3929)), Verdict::Worse);
    assert_eq!(judge(hit, exact(0.393), exact(0.3931)), Verdict::Better);
    let hops = by_name("mean_lookup_hops");
    assert_eq!(judge(hops, exact(1.23), exact(1.24)), Verdict::Worse);
}
