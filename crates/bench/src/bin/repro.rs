//! `repro <experiment>|all|list` — regenerates the paper's tables and
//! figures (§5) as CSVs under `results/` (or `$PAST_OUT_DIR`).
//!
//! The paper's evaluation is parameter sweeps over one web trace and
//! one filesystem trace, and several figures are views of the same run
//! (Table 3 and Figure 2, Table 4 and Figure 3, Figures 4–6 and a row
//! each of Tables 2–4). So an experiment here is an entry in
//! [`EXPERIMENTS`]: the replays it asks for, what it keeps of each
//! result, and how the kept pieces make its CSVs. The driver runs every
//! *distinct* replay once and shows the result to each experiment that
//! asked for it, one result alive at a time.

use past_bench::{
    base_config, fs_trace, print_table, progress_logger, storage_header, storage_row, web_trace,
    write_csv, Scale,
};
use past_core::{PastConfig, PastEvent, PastNode, PastOverlayNode};
use past_crypto::{KeyPair, Scheme};
use past_net::{Addr, EuclideanTopology, Simulator};
use past_pastry::{NodeEntry, PastryNode};
use past_sim::{ExperimentConfig, ExperimentResult, Runner, TopologyKind};
use past_store::CachePolicyKind;
use past_workload::{CapacityDistribution, MB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// One CSV, `<name>.csv`.
struct Table {
    name: &'static str,
    /// Whether it is also printed, under the experiment's title.
    print: bool,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// One table or figure of the paper.
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
    vec![Table {
        name: e.name,
        print: true,
        header,
        rows,
    }]
}

/// A further CSV of a multi-table experiment, written but not printed.
fn quiet_table(name: &'static str, header: Vec<String>, rows: Vec<Vec<String>>) -> Table {
    Table {
        name,
        print: false,
        header,
        rows,
    }
}

fn keep_nothing(_: &Experiment, _: &str, _: &ExperimentResult, _: f64) -> Vec<Table> {
    Vec::new()
}

fn keep_storage_row(e: &Experiment, label: &str, r: &ExperimentResult, _: f64) -> Vec<Table> {
    table(e, storage_header(), vec![storage_row(label, r)])
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
    Table {
        name,
        print: true,
        header: strings(["metric", "value"]),
        rows: rows.collect(),
    }
}

fn keep_fig6(_: &Experiment, _: &str, r: &ExperimentResult, mean_size: f64) -> Vec<Table> {
    // Headline numbers matching the paper's prose.
    let first_failure = |wanted: &dyn Fn(u64) -> bool| {
        let first = r.inserts.iter().filter(|i| !i.success && wanted(i.size));
        let first = first.map(|i| i.utilization).min_by(f64::total_cmp);
        format!("{:?}", first.map(percent))
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
                dist.name.clone(),
                format!("{:.0}", dist.mean / MB as f64),
                format!("{:.1}", dist.sd / MB as f64),
                format!("{:.0}", dist.lower / MB as f64),
                format!("{:.0}", dist.upper / MB as f64),
                format!("{total_mb}"),
            ]
        })
        .collect();
    let header = strings([
        "Dist",
        "m (MB)",
        "sigma (MB)",
        "Lower",
        "Upper",
        "Total capacity (MB)",
    ]);
    table(e, header, rows)
}

/// Builds an overlay node by node, inserts 500 files from random nodes,
/// looks each up from another node and counts the hops.
fn render_pastry_props(e: &Experiment, scale: Scale, _: Vec<Vec<Table>>) -> Vec<Table> {
    let n = scale.nodes;
    let mut seeder = StdRng::seed_from_u64(31);
    let topo = EuclideanTopology::random(n, &mut seeder);
    let mut sim: Simulator<PastOverlayNode> = Simulator::new(Box::new(topo), 32);
    let past_cfg = PastConfig {
        cache_policy: CachePolicyKind::None,
        ..Default::default()
    };
    let pastry_cfg = ExperimentConfig::default().pastry_config();
    eprintln!("pastry_props: building {n}-node overlay ...");
    for i in 0..n {
        let keys = KeyPair::generate(Scheme::Keyed, &mut seeder);
        let id = past_crypto::derive_node_id(&keys.public());
        let addr = Addr(i as u32);
        let app = PastNode::new(past_cfg.clone(), keys, u64::MAX / 4, u64::MAX / 2);
        let bootstrap = (i > 0).then(|| Addr(seeder.gen_range(0..i) as u32));
        sim.add_node(
            addr,
            PastryNode::new(pastry_cfg.clone(), NodeEntry::new(id, addr), app, bootstrap),
        );
        sim.run_until_idle();
    }
    let mut file_ids = Vec::new();
    let mut rng = StdRng::seed_from_u64(77);
    for f in 0..500 {
        let from = Addr(rng.gen_range(0..n) as u32);
        let name = format!("props{f}");
        sim.invoke(from, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.insert(actx, &name, 1024);
            });
        });
        sim.run_until_idle();
        for (_, _, event) in sim.drain_upcalls() {
            if let PastEvent::InsertDone {
                file_id,
                success: true,
                ..
            } = event
            {
                file_ids.push(file_id);
            }
        }
    }
    eprintln!(
        "pastry_props: {} files inserted; issuing lookups ...",
        file_ids.len()
    );
    let mut hops_hist = [0u64; 16];
    let mut total_hops = 0u64;
    let mut lookups = 0u64;
    for (i, &fid) in file_ids.iter().enumerate() {
        let from = Addr(((i * 37) % n) as u32);
        sim.invoke(from, move |node, ctx| {
            node.invoke_app(ctx, |app, actx| {
                app.lookup(actx, fid);
            });
        });
        sim.run_until_idle();
        for (_, _, event) in sim.drain_upcalls() {
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
    let scale = Scale::from_env();

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
    // a time.
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
        }
    }

    for (e, shares) in selected.iter().zip(kept) {
        for table in (e.render)(e, scale, shares) {
            if table.print {
                print_table(e.title, &table.header, &table.rows);
            }
            write_csv(table.name, &table.header, &table.rows);
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
