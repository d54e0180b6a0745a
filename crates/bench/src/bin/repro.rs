//! `repro <experiment>|all|list` — every experiment of the repository,
//! written as CSVs under `results/` (or `$PAST_OUT_DIR`): the paper's
//! tables and figures (§5) and the planes built since — churn
//! self-healing (§3.5), sampled audits against Byzantine holders, the
//! flash-crowd cache frontier and the streaming replay.
//!
//! The paper's evaluation is parameter sweeps over one web trace and
//! one filesystem trace, and several figures are views of the same run
//! (Table 3 and Figure 2, Table 4 and Figure 3, Figures 4–6 and a row
//! each of Tables 2–4). So an experiment here is an entry in
//! [`EXPERIMENTS`]: the replays it asks for, what it keeps of each
//! result, and how the kept pieces make its CSVs. The driver runs every
//! *distinct* replay once and shows the result to each experiment that
//! asked for it, one result alive at a time. An experiment that drives
//! its own overlay asks for no replay and does its work in `render`,
//! where it also asserts the contract of its plane that no test
//! states; a failed assert fails the run.
//!
//! Every CSV is a function of the seeds alone: host-time numbers are
//! printed, never written. With the `count-alloc` feature the binary
//! installs `past-obs`'s counting allocator, every experiment prints
//! its peak live heap (bytes, repeatable to the byte with the shards
//! inline) and `streaming_replay` per-phase allocation totals to stderr.

use std::collections::{BTreeMap, BTreeSet};

use past_bench::{
    base_config, fs_trace, progress_logger, storage_row, web_stream, web_trace, NamedRow, Scale,
    Table,
};
use past_core::{PastConfig, PastEvent};
use past_net::{Addr, EuclideanTopology, FaultPlan, SimDuration};
use past_obs::mem;
use past_sim::{
    ChurnConfig, ChurnRunner, Engine, ExperimentConfig, ExperimentResult, Overlay, Runner,
    TopologyKind,
};
use past_store::CachePolicyKind;
use past_workload::{CapacityDistribution, FlashCrowdConfig, MB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(feature = "count-alloc")]
#[global_allocator]
static COUNTING_ALLOC: mem::count::CountingAlloc = mem::count::CountingAlloc;

/// Evaluates an expression with its allocations billed to a
/// `past_obs::mem::count::Site` (no-op without the feature).
macro_rules! alloc_site {
    ($site:ident, $e:expr) => {{
        #[cfg(feature = "count-alloc")]
        {
            mem::count::with_site(mem::count::Site::$site, || $e)
        }
        #[cfg(not(feature = "count-alloc"))]
        {
            $e
        }
    }};
}

/// The heap's live-byte high-water mark since the previous call, which
/// restarts it (0 without the `count-alloc` feature).
fn take_peak_live() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        mem::count::take_peak_live()
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// Which trace a replay runs over.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// The NLANR-like web-proxy trace.
    Web,
    /// The filesystem snapshot.
    Fs,
}

/// One replay an experiment asks for, under the experiment's own label
/// for it (a row or column name).
struct Replay {
    label: String,
    source: Source,
    cfg: ExperimentConfig,
}

/// One table or figure of the paper, or one experiment on a later
/// plane.
struct Experiment {
    name: &'static str,
    /// Heading of the printed table, and the experiment's line in
    /// `repro list`.
    title: &'static str,
    /// The replays it needs, in the order its rows or columns appear.
    replays: fn(Scale) -> Vec<Replay>,
    /// What it keeps of one replay: that replay's share of its tables.
    /// The last argument is the trace's mean file size.
    keep: fn(&Experiment, &str, &ExperimentResult, f64) -> Vec<Table>,
    /// Puts the kept shares, in `replays` order, together.
    render: fn(&Experiment, Scale, Vec<Vec<Table>>) -> Vec<Table>,
}

const EXPERIMENTS: &[Experiment] = &[
    // Paper totals: 61,009 / 61,154 / 61,493 / 59,595 MB.
    Experiment {
        name: "table1",
        title: "Table 1: node storage-size distributions",
        replays: no_replays,
        keep: keep_nothing,
        render: render_table1,
    },
    // Paper (l = 32): success 97.9–99.4%, file diversion 3.1–4.1%,
    // replica diversion 15.0–23.3%, utilization 98.1–99.3%.
    Experiment {
        name: "table2",
        title: "Table 2: storage distributions x leaf-set size (t_pri=0.1, t_div=0.05)",
        replays: table2_replays,
        keep: keep_storage_row,
        render: stack,
    },
    // Paper: success falls from 99.73% to 88.02% while utilization
    // rises from 97.4% to 99.7% as t_pri grows.
    Experiment {
        name: "table3",
        title: "Table 3: varying t_pri (t_div=0.05, d1, l=32)",
        replays: t_pri_descending,
        keep: keep_storage_row,
        render: stack,
    },
    // Paper: success 93.7% → 99.6%, utilization 99.8% → 90.5% as t_div
    // shrinks.
    Experiment {
        name: "table4",
        title: "Table 4: varying t_div (t_pri=0.1, d1, l=32)",
        replays: t_div_descending,
        keep: keep_storage_row,
        render: stack,
    },
    // Paper shape: the failure ratio stays below ~10⁻³ until utilization
    // approaches 80–90%, then rises sharply; smaller t_pri fails *more*
    // small files at low utilization but keeps high-utilization failures
    // lower.
    Experiment {
        name: "fig2",
        title: "Figure 2: cumulative failure ratio vs utilization (t_pri sweep)",
        replays: t_pri_ascending,
        keep: keep_failure_curve,
        render: join,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3: cumulative failure ratio vs utilization (t_div sweep)",
        replays: t_div_ascending,
        keep: keep_failure_curve,
        render: join,
    },
    // Paper shape: file diversions are negligible below ~83%
    // utilization; single diversions dominate, with 2- and 3-fold
    // diversions appearing only near capacity.
    Experiment {
        name: "fig4",
        title: "Figure 4: file diversions and insertion failures vs utilization",
        replays: default_replay,
        keep: keep_fig4,
        render: stack,
    },
    // Paper shape: fewer than 10% of replicas are diverted at 80%
    // utilization, rising toward ~16% near capacity.
    Experiment {
        name: "fig5",
        title: "Figure 5: cumulative replica diversion ratio vs utilization",
        replays: default_replay,
        keep: keep_fig5,
        render: stack,
    },
    // Paper shape: as utilization rises, ever smaller files fail; a file
    // of average size (10,517 B) is first rejected only at 90.5%
    // utilization, no file under 0.5 MB fails before ~80%, and the
    // failure ratio stays below 0.05 until ~95%.
    Experiment {
        name: "fig6",
        title: "Figure 6: insertion failures vs utilization (web workload)",
        replays: default_replay,
        keep: keep_fig6,
        render: stack,
    },
    // The paper scales d1 by 10 for this workload; the runner's
    // trace-relative scaling already accounts for the larger files, so
    // the distribution shape carries over unchanged. Paper shape: as
    // Figure 6 with a much heavier-tailed size distribution; failure
    // ratio below 0.01 until very high utilization.
    Experiment {
        name: "fig7",
        title: "Figure 7: insertion failures vs utilization (filesystem workload)",
        replays: fs_replay,
        keep: keep_fig7,
        render: stack,
    },
    // Full replay: inserts + lookups, 775 clients on 8 sites, c = 1.
    // Paper shape: hit rate falls as utilization rises (caches shrink);
    // GD-S beats LRU on both metrics; even at 99% utilization the
    // average hop count with caching stays below the no-caching line,
    // which itself is flat near ⌈log₁₆ 2250⌉ until replica diversion
    // adds extra hops.
    Experiment {
        name: "fig8",
        title: "Figure 8: cache hit ratio and routing hops vs utilization",
        replays: fig8_replays,
        keep: keep_cache_curve,
        render: render_fig8,
    },
    // DESIGN.md §4: each mechanism's own contribution to utilization
    // and insert success.
    Experiment {
        name: "ablation_diversion",
        title: "Ablation: replica diversion x file diversion",
        replays: ablation_replays,
        keep: keep_storage_row,
        render: stack,
    },
    // §5.1: t_pri = 1, t_div = 0, no re-salting.
    Experiment {
        name: "baseline_no_diversion",
        title: "Baseline: replica and file diversion disabled (paper: 51.1% fail, 60.8% util)",
        replays: baseline_replay,
        keep: keep_storage_row,
        render: stack,
    },
    // §2.1: route length below ⌈log_2^b N⌉ under normal operation.
    Experiment {
        name: "pastry_props",
        title: "Pastry §2.1 routing properties: lookup hops against ceil(log_16 N)",
        replays: no_replays,
        keep: keep_nothing,
        render: render_pastry_props,
    },
    // §3.5 self-healing: lookups served through Poisson churn and
    // message loss, then the time maintenance takes to restore k copies.
    Experiment {
        name: "churn_availability",
        title: "Availability under churn: mtbf x message loss (30 nodes / 8 files)",
        replays: no_replays,
        keep: keep_nothing,
        render: render_churn_availability,
    },
    Experiment {
        name: "churn_warm_vs_cold",
        title: "Warm vs cold restarts, one seed per pair (60 nodes / 24 files)",
        replays: no_replays,
        keep: keep_nothing,
        render: render_churn_warm_vs_cold,
    },
    // LOCKSS-style sampled audits (arXiv cs/0303026) against holders
    // that lie; `crates/sim/tests/byzantine_audits.rs` states the
    // contract.
    Experiment {
        name: "byzantine_audit",
        title: "Byzantine faults: residual corruption vs audits (16 nodes / 6 files)",
        replays: no_replays,
        keep: keep_nothing,
        render: render_byzantine_audit,
    },
    // Which replacement policy and cache budget hold the hot node's
    // served load flat when a few cold files suddenly take half the
    // lookups (the budget axis is Sarshar–Roychowdhury's, arXiv
    // cs/0210010).
    Experiment {
        name: "flash_crowd",
        title: "Flash crowd: the cache-size frontier (policy x budget x post-flip skew)",
        replays: no_replays,
        keep: keep_nothing,
        render: render_flash_crowd,
    },
    // The memory-wall replay: `PAST_NODES=10000 PAST_FILES=10000000`.
    Experiment {
        name: "streaming_replay",
        title: "Streaming replay: open-loop inserts from the lazy trace on 8 shards",
        replays: no_replays,
        keep: keep_nothing,
        render: render_streaming_replay,
    },
];

// ---- the replays each experiment asks for -------------------------------

/// A replay of the web trace under the default configuration at this
/// scale, as `change` alters it.
fn web(
    scale: Scale,
    label: impl Into<String>,
    change: impl FnOnce(ExperimentConfig) -> ExperimentConfig,
) -> Replay {
    Replay {
        label: label.into(),
        source: Source::Web,
        cfg: change(base_config(scale)),
    }
}

fn no_replays(_: Scale) -> Vec<Replay> {
    Vec::new()
}

fn default_replay(scale: Scale) -> Vec<Replay> {
    vec![web(scale, "defaults", |c| c)]
}

fn fs_replay(scale: Scale) -> Vec<Replay> {
    vec![Replay {
        source: Source::Fs,
        ..web(scale, "defaults", |c| c)
    }]
}

fn table2_replays(scale: Scale) -> Vec<Replay> {
    let row = |leaf_set_size: usize, capacity: CapacityDistribution| {
        let label = format!("{} l={leaf_set_size}", capacity.name);
        web(scale, label, |c| ExperimentConfig {
            leaf_set_size,
            capacity,
            ..c
        })
    };
    let per_l = |l| CapacityDistribution::table1().map(|dist| row(l, dist));
    [per_l(16), per_l(32)].into_iter().flatten().collect()
}

fn t_pri_descending(scale: Scale) -> Vec<Replay> {
    let row = |t_pri: f64| {
        web(scale, format!("t_pri={t_pri}"), |c| ExperimentConfig {
            t_pri,
            ..c
        })
    };
    [0.5, 0.2, 0.1, 0.05].map(row).into()
}

fn t_div_descending(scale: Scale) -> Vec<Replay> {
    let row = |t_div: f64| {
        web(scale, format!("t_div={t_div}"), |c| ExperimentConfig {
            t_div,
            ..c
        })
    };
    [0.1, 0.05, 0.01, 0.005].map(row).into()
}

fn t_pri_ascending(scale: Scale) -> Vec<Replay> {
    t_pri_descending(scale).into_iter().rev().collect()
}

fn t_div_ascending(scale: Scale) -> Vec<Replay> {
    t_div_descending(scale).into_iter().rev().collect()
}

fn fig8_replays(scale: Scale) -> Vec<Replay> {
    let curve = |(label, cache_policy): (&str, CachePolicyKind)| {
        web(scale, label, |c| ExperimentConfig {
            cache_policy,
            replay_lookups: true,
            topology: TopologyKind::Clustered { clusters: 8 },
            ..c
        })
    };
    [
        ("GD-S", CachePolicyKind::GreedyDualSize),
        ("LRU", CachePolicyKind::Lru),
        ("None", CachePolicyKind::None),
    ]
    .map(curve)
    .into()
}

fn ablation_replays(scale: Scale) -> Vec<Replay> {
    let no_resalt = |c| ExperimentConfig {
        max_file_diversions: 0,
        ..c
    };
    let no_replica_diversion = |c| ExperimentConfig {
        t_pri: 1.0,
        t_div: 0.0,
        ..c
    };
    vec![
        web(scale, "both on (paper)", |c| c),
        web(scale, "replica div. only", no_resalt),
        web(scale, "file div. only", no_replica_diversion),
        web(scale, "both off (baseline)", ExperimentConfig::no_diversion),
    ]
}

fn baseline_replay(scale: Scale) -> Vec<Replay> {
    vec![web(scale, "no diversion", ExperimentConfig::no_diversion)]
}

// ---- what an experiment keeps of one replay -----------------------------

fn strings<const N: usize>(cells: [&str; N]) -> Vec<String> {
    cells.map(str::to_string).into()
}

/// The one table of a single-table experiment.
fn table(e: &Experiment, header: Vec<String>, rows: Vec<Vec<String>>) -> Vec<Table> {
    vec![Table::new(e.name, true, header, rows)]
}

/// A further CSV of a multi-table experiment, written but not printed.
fn quiet_table(name: &'static str, header: Vec<String>, rows: Vec<Vec<String>>) -> Table {
    Table::new(name, false, header, rows)
}

/// The one table of a single-table experiment, from rows that carry
/// their column names.
fn named_table(e: &Experiment, rows: Vec<NamedRow>) -> Vec<Table> {
    let header = rows[0].iter().map(|(name, _)| name.to_string()).collect();
    let cells = |row: NamedRow| row.into_iter().map(|(_, cell)| cell).collect();
    table(e, header, rows.into_iter().map(cells).collect())
}

fn keep_nothing(_: &Experiment, _: &str, _: &ExperimentResult, _: f64) -> Vec<Table> {
    Vec::new()
}

fn keep_storage_row(e: &Experiment, label: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    named_table(e, vec![storage_row(label, r)])
}

/// A two-column curve on the 50-point utilization grid.
fn curve_rows(curve: &[(f64, f64)]) -> Vec<Vec<String>> {
    curve
        .iter()
        .map(|(u, v)| vec![format!("{u:.2}"), format!("{v:.6}")])
        .collect()
}

fn keep_failure_curve(e: &Experiment, label: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    table(
        e,
        strings(["utilization", label]),
        curve_rows(&r.cumulative_failure_curve(50)),
    )
}

fn keep_fig4(e: &Experiment, _: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    let rows = r
        .diversion_histogram_curve(50)
        .iter()
        .map(|(u, ratios)| {
            std::iter::once(format!("{u:.2}"))
                .chain(ratios.iter().map(|v| format!("{v:.6}")))
                .collect()
        })
        .collect();
    let header = strings([
        "utilization",
        "1 redirect",
        "2 redirects",
        "3 redirects",
        "failure",
    ]);
    table(e, header, rows)
}

fn keep_fig5(e: &Experiment, _: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    table(
        e,
        strings(["utilization", "replica diversion ratio"]),
        curve_rows(&r.replica_diversion_curve(50)),
    )
}

/// The scatter of every failed insertion and the windowed failure ratio
/// (the two axes of Figures 6 and 7).
fn failure_tables(scatter: &'static str, ratio: &'static str, r: &ExperimentResult) -> [Table; 2] {
    let points = r
        .failure_scatter()
        .iter()
        .map(|(u, s)| vec![format!("{u:.4}"), format!("{s}")])
        .collect();
    [
        quiet_table(
            scatter,
            strings(["utilization", "file size (bytes)"]),
            points,
        ),
        quiet_table(
            ratio,
            strings(["utilization", "cumulative failure ratio"]),
            curve_rows(&r.cumulative_failure_curve(50)),
        ),
    ]
}

fn percent(u: f64) -> String {
    format!("{:.1}%", u * 100.0)
}

/// The printed headline table of a multi-table experiment.
fn summary(name: &'static str, rows: &[(&str, String)]) -> Table {
    let rows = rows
        .iter()
        .map(|(metric, value)| vec![metric.to_string(), value.clone()]);
    Table::new(name, true, strings(["metric", "value"]), rows.collect())
}

fn keep_fig6(_: &Experiment, _: &str, r: &ExperimentResult, mean_size: f64) -> Vec<Table> {
    // Headline numbers matching the paper's prose.
    let first_failure = |wanted: &dyn Fn(u64) -> bool| {
        let first = r.inserts.iter().filter(|i| !i.success && wanted(i.size));
        let first = first.map(|i| i.utilization).min_by(f64::total_cmp);
        first.map_or_else(String::new, percent)
    };
    let [scatter, ratio] = failure_tables("fig6_scatter", "fig6_failure_ratio", r);
    let rows = [
        ("first failure (any size)", first_failure(&|_| true)),
        (
            "first failure of file <= mean size",
            first_failure(&|size| size as f64 <= mean_size),
        ),
        (
            "first failure of file < 0.5 MB",
            first_failure(&|size| size < 512 * 1024),
        ),
        ("failures total", scatter.rows.len().to_string()),
        ("final utilization", percent(r.final_utilization())),
    ];
    vec![scatter, ratio, summary("fig6_summary", &rows)]
}

fn keep_fig7(_: &Experiment, _: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    let [scatter, ratio] = failure_tables("fig7_scatter", "fig7_failure_ratio", r);
    let rows = [
        (
            "success ratio",
            format!("{:.2}%", r.success_ratio() * 100.0),
        ),
        ("final utilization", percent(r.final_utilization())),
        (
            "replica diversion ratio",
            format!("{:.2}%", r.replica_diversion_ratio() * 100.0),
        ),
        ("failures total", scatter.rows.len().to_string()),
    ];
    vec![scatter, ratio, summary("fig7_summary", &rows)]
}

fn keep_cache_curve(e: &Experiment, label: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    let rows = r
        .cache_curve(20)
        .iter()
        .map(|(u, hit, hops, _)| vec![format!("{u:.3}"), format!("{hit:.4}"), format!("{hops:.3}")])
        .collect();
    let header = vec![
        "utilization".to_string(),
        format!("{label} hit rate"),
        format!("{label} hops"),
    ];
    table(e, header, rows)
}

// ---- putting the kept shares together -----------------------------------

/// Rows under rows: table `i` of every replay, appended in replay order.
fn stack(_: &Experiment, _: Scale, kept: Vec<Vec<Table>>) -> Vec<Table> {
    let mut shares = kept.into_iter();
    let mut tables = shares.next().unwrap_or_default();
    for share in shares {
        for (table, more) in tables.iter_mut().zip(share) {
            table.rows.extend(more.rows);
        }
    }
    tables
}

/// Columns beside columns, keyed on the first: the first replay's rows,
/// each extended by the other replays' cells for the same key (empty
/// where a replay has no such row).
fn join(_: &Experiment, _: Scale, kept: Vec<Vec<Table>>) -> Vec<Table> {
    let mut shares = kept.into_iter().flatten();
    let mut joined = shares.next().expect("a joined experiment has replays");
    for share in shares {
        let width = share.header.len() - 1;
        joined.header.extend_from_slice(&share.header[1..]);
        for row in &mut joined.rows {
            match share.rows.iter().find(|r| r[0] == row[0]) {
                Some(found) => row.extend_from_slice(&found[1..]),
                None => row.extend(std::iter::repeat_n(String::new(), width)),
            }
        }
    }
    vec![joined]
}

/// The figure plots the two hit rates, then all three hop curves (no
/// caching has no hit rate to plot).
fn render_fig8(e: &Experiment, scale: Scale, kept: Vec<Vec<Table>>) -> Vec<Table> {
    let mut tables = join(e, scale, kept);
    let table = &mut tables[0];
    for row in std::iter::once(&mut table.header).chain(&mut table.rows) {
        *row = [0, 1, 3, 2, 4, 6].map(|i| row[i].clone()).into();
    }
    tables
}

fn render_table1(e: &Experiment, scale: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(2001);
    let rows = CapacityDistribution::table1()
        .iter()
        .map(|dist| {
            let total_mb = dist.sample_nodes(scale.nodes, &mut rng).iter().sum::<u64>() / MB;
            vec![
                ("Dist", dist.name.clone()),
                ("m (MB)", format!("{:.0}", dist.mean / MB as f64)),
                ("sigma (MB)", format!("{:.1}", dist.sd / MB as f64)),
                ("Lower", format!("{:.0}", dist.lower / MB as f64)),
                ("Upper", format!("{:.0}", dist.upper / MB as f64)),
                ("Total capacity (MB)", format!("{total_mb}")),
            ]
        })
        .collect();
    named_table(e, rows)
}

/// Builds an overlay node by node, inserts 500 files from random nodes,
/// looks each up from another node and counts the hops.
fn render_pastry_props(e: &Experiment, scale: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let n = scale.nodes;
    let mut seeder = StdRng::seed_from_u64(31);
    let topo = EuclideanTopology::random(n, &mut seeder);
    let past_cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    eprintln!("pastry_props: building {n}-node overlay ...");
    let mut overlay = Overlay::build(
        Engine::build(Box::new(topo), 32, 0),
        &ExperimentConfig::default().pastry_config(),
        &past_cfg,
        &vec![u64::MAX / 4; n],
        &mut seeder,
    );
    let mut file_ids = Vec::new();
    let mut rng = StdRng::seed_from_u64(77);
    for f in 0..500 {
        let from = Addr(rng.gen_range(0..n) as u32);
        overlay.insert(from, &format!("props{f}"), 1024);
        overlay.engine.run_until_idle();
        file_ids.extend(overlay.drain_inserted().map(|(fid, _)| fid));
    }
    eprintln!(
        "pastry_props: {} files inserted; issuing lookups ...",
        file_ids.len()
    );
    let mut hops_hist = [0u64; 16];
    let mut total_hops = 0u64;
    let mut lookups = 0u64;
    for (i, &fid) in file_ids.iter().enumerate() {
        overlay.lookup(Addr(((i * 37) % n) as u32), fid);
        overlay.engine.run_until_idle();
        for (_, _, event) in overlay.drain_upcalls() {
            if let PastEvent::LookupDone {
                found: true, hops, ..
            } = event
            {
                hops_hist[(hops as usize).min(15)] += 1;
                total_hops += hops as u64;
                lookups += 1;
            }
        }
    }
    let bound = (128f64 / 4.0).min((n as f64).log(16.0).ceil());
    let mean = total_hops as f64 / lookups.max(1) as f64;
    assert!(
        mean <= bound + 0.5,
        "mean hops {mean:.2} exceeds the log bound {bound:.0}"
    );
    let mut rows = vec![
        ("nodes".to_string(), format!("{n}")),
        ("ceil(log_16 N) bound".to_string(), format!("{bound:.0}")),
        ("mean lookup hops".to_string(), format!("{mean:.2}")),
    ];
    for (h, &count) in hops_hist.iter().enumerate() {
        if count > 0 {
            let share = 100.0 * count as f64 / lookups as f64;
            rows.push((format!("lookups with {h} hops"), format!("{share:.1}%")));
        }
    }
    let rows = rows.into_iter().map(|(m, v)| vec![m, v]).collect();
    table(e, strings(["metric", "value"]), rows)
}

// ---- churn, Byzantine holders, flash crowds, the streaming replay ---------

/// The churn script. Inserts the working set, then runs Poisson churn
/// at `mtbf_s` (mean downtime `downtime_s`) with global message `loss`:
/// a 10 s head start, `lookups` lookups 2 s apart *inside* the window,
/// `tail_s` to play out. Then the faults stop but the dead stay dead —
/// clearing the plan cancels their pending recoveries, and healing
/// first would be trivial, since recovered nodes bring their replicas
/// back — and the time maintenance takes to restore min(k, live) copies
/// on the survivors is measured before the overlay heals. Returns the
/// runner, for its totals, and the "rereplication (s)" cell.
fn churn_run(
    mut cfg: ChurnConfig,
    mtbf_s: u64,
    loss: f64,
    downtime_s: u64,
    lookups: usize,
    tail_s: u64,
) -> (ChurnRunner, String) {
    let secs = SimDuration::from_secs;
    // Anti-entropy backs up the acked retries during sustained churn.
    cfg.past.anti_entropy_period = secs(10);
    let mut r = ChurnRunner::build(cfg);
    assert!(r.insert_files() > 0, "no insert succeeded before churn");
    let span = secs(10 + 2 * lookups as u64 + tail_s);
    let plan = r.poisson_plan(secs(mtbf_s), secs(downtime_s), span);
    r.set_loss_probability(loss);
    r.run_with_faults(plan, secs(10));
    r.lookup_round(lookups, secs(2));
    r.run_for(secs(tail_s));
    r.set_loss_probability(0.0);
    r.run_with_faults(FaultPlan::new(), SimDuration::ZERO);
    let repaired = r
        .time_to_full_replication(secs(1), secs(300))
        .map_or("timeout".to_string(), seconds);
    r.heal(secs(10));
    (r, repaired)
}

fn seconds(d: SimDuration) -> String {
    format!("{:.1}", d.micros() as f64 / 1e6)
}

/// The "lookup ok" cell: found / issued.
fn lookups_cell(r: &ChurnRunner) -> String {
    let (issued, ok) = r.lookup_totals();
    format!("{ok}/{issued}")
}

/// The "under-rep" cell: files the auditor finds short of copies.
fn under_replicated_cell(r: &ChurnRunner) -> String {
    r.audit().under_replicated.len().to_string()
}

fn render_churn_availability(e: &Experiment, _: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let mut rows = Vec::new();
    for mtbf_s in [240u64, 120, 60] {
        for loss in [0.0f64, 0.05, 0.1] {
            eprintln!("churn_availability: mtbf={mtbf_s}s loss={loss} ...");
            let cfg = ChurnConfig {
                nodes: 30,
                files: 8,
                seed: (1000 + mtbf_s) ^ (loss * 100.0) as u64,
                ..Default::default()
            };
            // 60 s of churn, past the 15 s failure detector.
            let (r, repaired) = churn_run(cfg, mtbf_s, loss, 15, 20, 10);
            let (maint, net) = (r.maint_totals(), r.net_stats());
            rows.push(vec![
                ("mtbf (s)", mtbf_s.to_string()),
                ("loss", format!("{loss:.2}")),
                ("lookup ok", lookups_cell(&r)),
                ("rereplication (s)", repaired),
                ("under-rep", under_replicated_cell(&r)),
                ("maint sent", maint.sent.to_string()),
                ("retries", maint.retries.to_string()),
                ("exhausted", maint.exhausted.to_string()),
                ("crashes", net.crashes.to_string()),
                ("lost msgs", net.lost.to_string()),
            ]);
        }
    }
    named_table(e, rows)
}

/// One half of a warm-vs-cold pair: its row, and the numbers the
/// experiment's asserts compare.
struct RestartRun {
    row: NamedRow,
    restarts_warm: u64,
    restarts_cold: u64,
    maint_bytes: u64,
    lookups_ok: usize,
}

/// 60 nodes / 24 files, not the grid's 30 / 8: there almost every node
/// holds a copy of every file (k = 5 replicas plus caches), lookups
/// succeed whatever the restart mode and the comparison is a tie.
/// Sparser replicas expose the root-miss windows warm restarts close.
fn restart_run(mtbf_s: u64, warm: bool) -> RestartRun {
    let mode = if warm { "warm" } else { "cold" };
    eprintln!("churn_warm_vs_cold: mtbf={mtbf_s}s mode={mode} ...");
    // One seed for both halves of a pair: identical overlay, churn
    // schedule and lookup workload — only the restart mode differs.
    let mut cfg = ChurnConfig {
        nodes: 60,
        files: 24,
        seed: 7000 + mtbf_s,
        ..Default::default()
    };
    cfg.pastry.warm_restart = warm;
    // 300 s of churn with 30 s mean downtime (well past the 15 s
    // failure detector, so every outage is noticed) and no message
    // loss. The long window is what separates the modes: at mtbf 60 s
    // nearly every node crashes at least once, and a cold restart
    // permanently loses its background-sweep timers while a warm one
    // re-arms them.
    let (r, repaired) = churn_run(cfg, mtbf_s, 0.0, 30, 120, 50);
    let maint = r.maint_totals();
    let (restarts_warm, restarts_cold) = r.restart_totals();
    let downtime_mean_s = r
        .downtime_summary()
        .map_or(0.0, |(_, mean_us, _)| mean_us as f64 / 1e6);
    RestartRun {
        row: vec![
            ("mtbf (s)", mtbf_s.to_string()),
            ("mode", mode.to_string()),
            ("lookup ok", lookups_cell(&r)),
            ("rereplication (s)", repaired),
            ("under-rep", under_replicated_cell(&r)),
            ("maint sent", maint.sent.to_string()),
            ("rerepl bytes", maint.bytes_rereplication.to_string()),
            ("refresh bytes", maint.bytes_refresh.to_string()),
            ("restarts w/c", format!("{restarts_warm}/{restarts_cold}")),
            ("crashes", r.net_stats().crashes.to_string()),
            ("downtime mean (s)", format!("{downtime_mean_s:.1}")),
        ],
        restarts_warm,
        restarts_cold,
        maint_bytes: maint.bytes_rereplication + maint.bytes_refresh,
        lookups_ok: r.lookup_totals().1,
    }
}

fn render_churn_warm_vs_cold(e: &Experiment, _: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let mut rows = Vec::new();
    for mtbf_s in [900u64, 300, 60] {
        let [cold, warm] = [false, true].map(|warm| restart_run(mtbf_s, warm));
        // The warm-restart contract, at the highest churn rate: the
        // advertise-then-fetch sweep at least halves maintenance bytes
        // and loses no lookup against cold.
        if mtbf_s == 60 {
            assert!(
                warm.restarts_warm > 0 && warm.restarts_cold == 0,
                "the warm run restarts warm only: {:?}",
                warm.row
            );
            assert!(
                cold.restarts_cold > 0 && cold.restarts_warm == 0,
                "the cold run restarts cold only: {:?}",
                cold.row
            );
            assert!(
                2 * warm.maint_bytes <= cold.maint_bytes,
                "warm maintenance bytes not halved: warm {} cold {}",
                warm.maint_bytes,
                cold.maint_bytes
            );
            assert!(
                warm.lookups_ok >= cold.lookups_ok,
                "warm restarts lost lookups: warm {} cold {}",
                warm.lookups_ok,
                cold.lookups_ok
            );
        }
        rows.extend([cold.row, warm.row]);
    }
    named_table(e, rows)
}

/// Each malicious fraction runs the same seeded overlay twice:
/// undefended, and with the full defense stack (periodic sampled
/// possession audits, lookup content verification, and shunning of
/// convicted holders). The overlay is small enough that every node sees
/// every other through its leaf set: shunning a convicted holder then
/// reroutes around it in one hop, which is what lets the defended runs
/// reach zero residual corruption.
fn render_byzantine_audit(e: &Experiment, _: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let mut rows = Vec::new();
    for fraction in [0.0f64, 0.05, 0.10, 0.20] {
        for audits in [false, true] {
            let mode = if audits { "audits" } else { "undefended" };
            eprintln!("byzantine_audit: fraction={fraction:.2} mode={mode} ...");
            let mut cfg = ChurnConfig {
                nodes: 16,
                files: 6,
                seed: 39,
                ..Default::default()
            };
            if audits {
                cfg.past.audit_period = SimDuration::from_secs(10);
            }
            let mut r = ChurnRunner::build(cfg);
            assert!(
                r.insert_files() > 0,
                "no insert succeeded before the adversary"
            );
            // The sampled adversaries flip on (the behavior mix of
            // `ChurnRunner::byzantine_plan`); audits sweep, convict and
            // repair over a 120 s detection window while the overlay
            // idles; then 40 lookups 1 s apart measure what corruption
            // is left.
            let plan = r.byzantine_plan(fraction);
            r.apply_byzantine(&plan);
            r.run_for(SimDuration::from_secs(120));
            r.discard_upcalls();
            r.lookup_round(40, SimDuration::from_secs(1));

            let (challenges, passed, failed, timeouts) = r.audit_totals();
            let shunned: usize = r
                .entries()
                .iter()
                .filter_map(|e| r.sim().node(e.addr))
                .map(|n| n.shunned().len())
                .sum();
            let report = r.audit();
            let malicious = format!("{:.0}% ({})", fraction * 100.0, r.malicious().len());
            let detected = r.detection_latency().map_or("-".to_string(), seconds);
            rows.push(vec![
                ("malicious", malicious),
                ("mode", mode.to_string()),
                ("lookup ok", lookups_cell(&r)),
                ("corrupted", r.corrupted_lookups().to_string()),
                ("detect (s)", detected),
                ("challenges", challenges.to_string()),
                ("pass/fail/timeout", format!("{passed}/{failed}/{timeouts}")),
                ("shunned", shunned.to_string()),
                ("replicas on mal", report.replicas_on_malicious.to_string()),
                ("under-rep", report.under_replicated.len().to_string()),
            ]);
        }
    }
    named_table(e, rows)
}

/// Open-loop injection gap of the flash-crowd and streaming replays:
/// short enough to keep tens of operations in flight, long enough that
/// the run does not degenerate into one giant event window.
const PIPELINE_GAP: SimDuration = SimDuration::from_millis(2);

/// One cell of the flash-crowd frontier: its `flash_crowd.csv` row, its
/// `flash_crowd_windows.csv` rows, and the two numbers the experiment's
/// gate compares.
struct FlashCell {
    policy: CachePolicyKind,
    budget: f64,
    row: NamedRow,
    windows: Vec<Vec<String>>,
    /// Share of post-flip completions answered by a cache instead of a
    /// replica: the load the caches absorbed.
    hit_rate_post: f64,
    /// The busiest single node's served count in any post-flip window
    /// (the hot node).
    hot_peak_post: u64,
}

/// One open-loop replay of a [`FlashCrowdConfig`] trace — popularity
/// flips mid-run, four previously cold files suddenly take half the
/// lookups — with `obs_window` set so that about 40 fixed sim-time
/// windows cover it, and what the windowed series say of the flip.
/// `budget` is the cache admission fraction c (the share of a node's
/// free space lookups may fill), `alpha_after` the post-flip Zipf
/// parameter.
fn flash_crowd_cell(
    scale: Scale,
    policy: CachePolicyKind,
    budget: f64,
    alpha_after: f64,
) -> FlashCell {
    let wl = FlashCrowdConfig {
        zipf_alpha_after: alpha_after,
        ..FlashCrowdConfig::default()
    }
    .with_unique_files(10 * scale.nodes);
    let trace = wl.stream();
    let gap = PIPELINE_GAP.micros();
    let cfg = ExperimentConfig {
        cache_policy: policy,
        cache_fraction: budget,
        replay_lookups: true,
        topology: TopologyKind::Clustered { clusters: 8 },
        seed: 0xf1a5,
        obs_window: SimDuration((wl.requests() as u64 * gap / 40).max(1_000_000)),
        ..base_config(scale)
    };
    let policy_name = match policy {
        CachePolicyKind::GreedyDualSize => "gds",
        CachePolicyKind::Lru => "lru",
        CachePolicyKind::PopularityRandom => "poprand",
        CachePolicyKind::None => "none",
    };
    let label = format!("fc_{policy_name}_c{budget}_a{alpha_after}");
    let result = Runner::build(cfg, &trace)
        .with_metrics_quiet(&label, usize::MAX)
        .run_pipelined(&trace, PIPELINE_GAP);
    eprintln!(
        "flash_crowd: {label}: {:.1}s wall, {} lookups ok",
        result.wall_seconds, result.lookups_ok
    );

    let series = result.windows.as_ref().expect("obs_window is set");
    let width = series.width_us;
    let start = result.replay_start_us;
    let flip_us = start + wl.flip_index() as u64 * gap;
    let empty = BTreeMap::new();
    let counter = |name: &str| series.counters.get(name).unwrap_or(&empty);
    let done = counter("past.win.lookup");
    let cached = counter("past.win.lookup.cached");
    let hops = counter("past.win.lookup.hops");
    let served = series.node_stats.get("past.win.served");
    let key = [
        policy_name.to_string(),
        format!("{budget:.2}"),
        format!("{alpha_after:.2}"),
    ];

    let mut buckets: BTreeSet<u64> = done.keys().copied().collect();
    buckets.extend(served.into_iter().flat_map(|s| s.keys().copied()));
    let mut windows = Vec::with_capacity(buckets.len());
    let (mut post_done, mut post_cached) = (0u64, 0u64);
    let mut hot_peak_post = 0u64;
    let mut spread_peak_post = 0.0f64;
    let mut absorbed_at = None;
    for b in buckets {
        let at = |series: &BTreeMap<u64, u64>| series.get(&b).copied().unwrap_or(0);
        let (d, c) = (at(done), at(cached));
        let s = served.and_then(|s| s.get(&b).copied()).unwrap_or_default();
        if b >= flip_us / width {
            post_done += d;
            post_cached += c;
            hot_peak_post = hot_peak_post.max(s.max);
            // Load concentration: the busiest node against the mean
            // over the nodes that served anything.
            if s.nodes > 0 {
                let mean = s.total as f64 / s.nodes as f64;
                spread_peak_post = spread_peak_post.max(s.max as f64 / mean);
            }
            // Absorbed: the first window where caches answer half.
            if absorbed_at.is_none() && d > 0 && 2 * c >= d {
                absorbed_at = Some(SimDuration((b * width).saturating_sub(flip_us)));
            }
        }
        let mut row = key.to_vec();
        row.push(seconds(SimDuration((b * width).saturating_sub(start))));
        row.extend([d, c, at(hops), s.total, s.nodes, s.max].map(|n| n.to_string()));
        windows.push(row);
    }

    let all_done: u64 = done.values().sum();
    let all_cached: u64 = cached.values().sum();
    assert_eq!(
        all_done, result.lookups_ok,
        "{label}: the windows' completions are the lookup counter"
    );
    if policy == CachePolicyKind::None {
        assert_eq!(all_cached, 0, "{label}: a cache hit without a cache");
    }
    let mut hop_samples: Vec<u32> = result
        .lookups
        .iter()
        .filter(|r| r.found)
        .map(|r| r.hops)
        .collect();
    hop_samples.sort_unstable();
    let percentile = |q: f64| match hop_samples.len() {
        0 => 0,
        n => hop_samples[((n - 1) as f64 * q).round() as usize],
    };
    let hops_sum: u64 = hop_samples.iter().map(|&h| h as u64).sum();
    let rate = |c: u64, d: u64| if d == 0 { 0.0 } else { c as f64 / d as f64 };
    let hit_rate_post = rate(post_cached, post_done);
    let hops_mean = rate(hops_sum, hop_samples.len() as u64);
    let [policy_cell, budget_cell, alpha_cell] = key;
    let row = vec![
        ("policy", policy_cell),
        ("budget", budget_cell),
        ("alpha_after", alpha_cell),
        ("lookups_ok", result.lookups_ok.to_string()),
        ("hit_rate", format!("{:.4}", rate(all_cached, all_done))),
        ("hit_rate_post", format!("{hit_rate_post:.4}")),
        ("hot_peak_post", hot_peak_post.to_string()),
        ("spread_peak", format!("{spread_peak_post:.2}")),
        ("hops_mean", format!("{hops_mean:.3}")),
        ("hops_p50", percentile(0.50).to_string()),
        ("hops_p95", percentile(0.95).to_string()),
        (
            "absorb (s)",
            absorbed_at.map_or("never".to_string(), seconds),
        ),
    ];
    FlashCell {
        policy,
        budget,
        row,
        windows,
        hit_rate_post,
        hot_peak_post,
    }
}

/// The frontier grid at `PAST_NODES` nodes and ten unique files per
/// node, on the default engine.
fn render_flash_crowd(e: &Experiment, scale: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let mut cells = Vec::new();
    for alpha_after in [0.7, 1.1] {
        for policy in CachePolicyKind::ALL {
            // Without a cache the budget means nothing: one cell.
            let budgets: &[f64] = match policy {
                CachePolicyKind::None => &[1.0],
                _ => &[0.1, 0.5, 1.0],
            };
            for &budget in budgets {
                cells.push(flash_crowd_cell(scale, policy, budget, alpha_after));
            }
        }
    }
    // Route-through caching absorbs the crowd: at the full budget and
    // the last (sharpest) skew, whose cells come last, GD-S answers
    // post-flip lookups from caches and its hot node serves less than
    // the hot node of an overlay without caches.
    let last_at_full_budget = |policy| {
        let found = cells
            .iter()
            .rfind(|c| c.policy == policy && c.budget == 1.0);
        found.expect("a cell of the grid")
    };
    let gds = last_at_full_budget(CachePolicyKind::GreedyDualSize);
    let none = last_at_full_budget(CachePolicyKind::None);
    assert!(gds.hit_rate_post > 0.0, "GD-S absorbed no post-flip load");
    assert!(
        gds.hot_peak_post < none.hot_peak_post,
        "GD-S hot-node peak {} not below the no-cache peak {}",
        gds.hot_peak_post,
        none.hot_peak_post
    );

    let windows_header = strings([
        "policy",
        "budget",
        "alpha_after",
        "t_s",
        "done",
        "cached",
        "hops",
        "served_total",
        "served_nodes",
        "served_max",
    ]);
    let (mut rows, mut windows) = (Vec::new(), Vec::new());
    for cell in cells {
        rows.push(cell.row);
        windows.extend(cell.windows);
    }
    let mut tables = named_table(e, rows);
    tables.push(quiet_table("flash_crowd_windows", windows_header, windows));
    tables
}

/// Replays the web trace's inserts open-loop from the lazy
/// [`web_stream`] — the request vector never exists — with per-event
/// records thinned 1-in-1024 (the exact counters are unaffected).
fn render_streaming_replay(e: &Experiment, scale: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    // VmHWM is a process-wide high-water mark: reset, it reads this
    // replay's own peak. Not every kernel allows the reset.
    let peak_semantics = if mem::reset_peak() {
        "since_reset"
    } else {
        "process_wide"
    };
    let trace = alloc_site!(TraceBuild, web_stream(scale));
    let shards = 8;
    let cfg = ExperimentConfig {
        seed: 2005,
        shards,
        ..base_config(scale)
    };
    let runner = alloc_site!(OverlayBuild, Runner::build(cfg, &trace))
        .with_record_sampling(1024)
        .with_progress(progress_logger("streaming_replay"));
    let r = alloc_site!(Replay, runner.run_pipelined(&trace, PIPELINE_GAP));
    #[cfg(feature = "count-alloc")]
    for (site, calls, bytes) in mem::count::site_totals() {
        let mb = bytes as f64 / (1024.0 * 1024.0);
        eprintln!("streaming_replay: alloc {site} {calls} calls, {mb:.1} MB");
    }
    assert_eq!(
        r.inserts_total, scale.files as u64,
        "every file of the stream is inserted exactly once"
    );
    // Host time: printed, and kept out of the CSV, which holds the
    // shard-invariant counters only.
    println!(
        "streaming_replay: {:.2} s wall, {:.0} events/s, peak RSS {:.1} MB ({peak_semantics}), host_cpus {}",
        r.wall_seconds,
        r.net.events as f64 / r.wall_seconds.max(f64::MIN_POSITIVE),
        mem::peak_rss_kb() as f64 / 1024.0,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let row = vec![
        ("nodes", scale.nodes.to_string()),
        ("files", scale.files.to_string()),
        ("shards", shards.to_string()),
        ("events", r.net.events.to_string()),
        ("delivered", r.net.delivered.to_string()),
        ("inserts ok", r.inserts_ok.to_string()),
        (
            "inserts failed",
            (r.inserts_total - r.inserts_ok).to_string(),
        ),
    ];
    named_table(e, vec![row])
}

// ---- the driver ---------------------------------------------------------

/// One distinct replay and every (experiment, slot, label) that asked
/// for it.
struct Job {
    source: Source,
    cfg: ExperimentConfig,
    askers: Vec<(usize, usize, String)>,
}

fn usage() -> ! {
    eprintln!("usage: repro <experiment>|all|list   (scale: PAST_NODES, PAST_FILES; output: PAST_OUT_DIR)");
    std::process::exit(2)
}

fn main() {
    let selected: Vec<&Experiment> = match std::env::args().nth(1).as_deref() {
        Some("list") => {
            for e in EXPERIMENTS {
                println!("{:<22} {}", e.name, e.title);
            }
            return;
        }
        Some("all") => EXPERIMENTS.iter().collect(),
        Some(name) => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => vec![e],
            None => usage(),
        },
        None => usage(),
    };
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2)
    });

    // The distinct replays, and who asked for each.
    let mut jobs: Vec<Job> = Vec::new();
    let mut kept: Vec<Vec<Vec<Table>>> = Vec::new();
    for (e_idx, e) in selected.iter().enumerate() {
        let replays = (e.replays)(scale);
        kept.push(replays.iter().map(|_| Vec::new()).collect());
        for (slot, replay) in replays.into_iter().enumerate() {
            let asker = (e_idx, slot, replay.label);
            match jobs
                .iter_mut()
                .find(|j| j.source == replay.source && j.cfg == replay.cfg)
            {
                Some(job) => job.askers.push(asker),
                None => jobs.push(Job {
                    source: replay.source,
                    cfg: replay.cfg,
                    askers: vec![asker],
                }),
            }
        }
    }
    let asked: usize = jobs.iter().map(|j| j.askers.len()).sum();

    // Replay-major, one trace (generated once) and one result alive at
    // a time. Each experiment's heap peak is the highest over the
    // replays it asked for and its render.
    let mut peaks = vec![0; selected.len()];
    take_peak_live();
    let (mut done, mut traces) = (0, 0);
    for source in [Source::Web, Source::Fs] {
        let wanted: Vec<&Job> = jobs.iter().filter(|j| j.source == source).collect();
        if wanted.is_empty() {
            continue;
        }
        let trace = match source {
            Source::Web => web_trace(scale),
            Source::Fs => fs_trace(scale),
        };
        traces += 1;
        let mean_size = trace.mean_file_size();
        for job in wanted {
            let result = Runner::build(job.cfg.clone(), &trace)
                .with_progress(progress_logger("repro"))
                .run(&trace);
            done += 1;
            eprint!(
                "[{done}/{}] done in {:.1}s:",
                jobs.len(),
                result.wall_seconds
            );
            for (e_idx, slot, label) in &job.askers {
                let e = selected[*e_idx];
                eprint!(" {} '{label}'", e.name);
                kept[*e_idx][*slot] = (e.keep)(e, label, &result, mean_size);
            }
            eprintln!();
            let peak = take_peak_live();
            for (e_idx, ..) in &job.askers {
                peaks[*e_idx] = peaks[*e_idx].max(peak);
            }
        }
    }

    for ((e, shares), peak) in selected.iter().zip(kept).zip(peaks) {
        take_peak_live();
        let tables = (e.render)(e, scale, shares);
        if cfg!(feature = "count-alloc") {
            let peak = peak.max(take_peak_live());
            eprintln!("repro: {} peak live heap {peak} B", e.name);
        }
        for table in tables {
            if table.print {
                table.print(e.title);
            }
            if let Err(e) = table.write_csv() {
                eprintln!("repro: cannot write {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "repro: {} experiments at {} nodes / {} files: ran {} distinct replays for {asked} asked, generated {traces} traces",
        selected.len(),
        scale.nodes,
        scale.files,
        jobs.len(),
    );
}
