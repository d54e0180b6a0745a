#!/usr/bin/env bash
# Local CI gate: build, full test suite, lint, rustdoc and the benchmark's own
# tests — all offline.
#
# The workspace vendors its few dev-dependencies (see vendor/ and the
# [patch.crates-io] table in Cargo.toml), so everything here runs with
# no network access. Run from the repository root:
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release --workspace --offline

echo "== zero-test guard"
# Every workspace crate must ship at least one test: a crate that
# silently drops to zero tests would pass `cargo test` forever.
for crate in crates/*/; do
  if ! grep -rq '#\[test\]' "${crate}src" "${crate}tests" 2>/dev/null; then
    echo "error: ${crate%/} has no tests (add at least one #[test])" >&2
    exit 1
  fi
done

echo "== cargo test"
# The root package is a facade; --workspace covers every crate.
cargo test -q --workspace --no-fail-fast --offline

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings"
# Deleting a public item leaves the intra-doc links that named it
# dangling; rustdoc is the only tool that notices.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== pastbench (helpers, BENCHMARK.json contract, --smoke run of all four workloads)"
# The benchmark is a package of its own (benchmark/Cargo.toml); its tests
# replay every workload at smoke scale with the output checks on, so an
# engine change that breaks `repetitions_identical` or
# `ops_attempted_once` fails here, before the driver sees it (~7 s).
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== perf smoke (perf_suite, reduced scale)"
# End-to-end run of the perf bench at a scale that finishes in seconds;
# guards the hot path and the hand-rolled JSON writer. Artifacts go to
# a scratch dir so CI never dirties the working tree.
perf_out=$(mktemp -d)
trap 'rm -rf "$perf_out"' EXIT
PAST_NODES=60 PAST_FILES=5000 PAST_OUT_DIR="$perf_out" \
  cargo run --release -q -p past-bench --bin perf_suite --offline
python3 - "$perf_out/BENCH_perf.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == 3, f"unexpected schema: {report['schema']}"
workloads = {(w["name"], w["scale"]) for w in report["workloads"]}
want = {("insert_heavy", "env"), ("lookup_heavy", "env"), ("churn", "env")}
missing = want - workloads
assert not missing, f"perf_suite JSON missing workloads: {missing}"
# RSS budget: the smoke workloads peak at 7.1 / 9.4 / 7.6 MB since-reset
# today (streaming traces, interned certs, packed inventories,
# routing-table rows and the verify memo allocated on first use). The
# ceiling has ~5x headroom over the largest for allocator/kernel
# variance while still catching a regression that re-materializes
# per-replica or per-node state at scale.
RSS_BUDGET_KB = 48 * 1024
peaks = []
for w in report["workloads"]:
    assert w["wall_seconds"] > 0, f"{w['name']}: non-positive wall time"
    assert w["peak_semantics"] in ("since_reset", "process_wide"), w
    assert w["peak_rss_kb"] > 0, f"{w['name']}: no RSS sample"
    if w["peak_semantics"] == "since_reset":
        assert w["peak_rss_kb"] < RSS_BUDGET_KB, (
            f"{w['name']}/{w['scale']}: peak RSS {w['peak_rss_kb']} kB "
            f"blew the {RSS_BUDGET_KB} kB smoke budget"
        )
    peaks.append(f"{w['name']} {w['peak_rss_kb']} kB ({w['peak_semantics']})")
print(f"perf smoke OK: {len(workloads)} workloads, JSON parseable, "
      f"peak RSS within {RSS_BUDGET_KB} kB: " + ", ".join(peaks))
PY

echo "== repro (every paper table and figure at smoke scale, twice)"
# One binary regenerates Tables 1-4, Figures 2-8, the ablations and the
# Pastry properties. Two runs must write byte-identical CSVs, every
# experiment `repro list` names must leave a non-empty CSV (`<name>.csv`
# or `<name>_*.csv`), and the driver must share replays between
# experiments: 21 distinct ones, not the 36 they ask for between them.
repro() {
  cargo run --release -q -p past-bench --bin repro --offline -- "$@"
}
for run in a b; do
  PAST_NODES=60 PAST_FILES=5000 PAST_OUT_DIR="$perf_out/repro_$run" \
    repro all >"$perf_out/repro_$run.out" 2>/dev/null
done
for csv in "$perf_out"/repro_a/*.csv; do
  cmp "$csv" "$perf_out/repro_b/$(basename "$csv")" \
    || { echo "error: repro CSVs not deterministic across runs" >&2; exit 1; }
done
experiments=0
while read -r name _; do
  wrote=0
  for csv in "$perf_out/repro_a/$name".csv "$perf_out/repro_a/$name"_*.csv; do
    if [ -s "$csv" ]; then wrote=1; fi
  done
  [ "$wrote" = 1 ] || { echo "error: repro $name wrote no CSV" >&2; exit 1; }
  experiments=$((experiments + 1))
done < <(repro list)
tail -n 1 "$perf_out/repro_a.out"
grep -q "ran 21 distinct replays for 36 asked" "$perf_out/repro_a.out" \
  || { echo "error: repro all no longer shares replays (want 21 of 36)" >&2; exit 1; }
echo "repro OK: $experiments experiments, $(ls "$perf_out"/repro_a/*.csv | wc -l) CSVs byte-identical across two runs"

echo "== counting-allocator feature build"
# The allocation-site harness is feature-gated off the default build;
# make sure the gate keeps compiling (bench binary owns the
# #[global_allocator] so the feature only exists there and in past-obs).
cargo build --release -q -p past-bench --features count-alloc --offline

echo "== sharded-engine smoke (shards=1 vs shards=2 counter parity)"
# The sharded engine's determinism contract: the same seed must produce
# identical protocol and network counters at any shard count. Run the
# reduced-scale suite on the sharded engine at 1 and 2 shards and fail
# on any divergence in the counters a perf comparison would read.
PAST_NODES=60 PAST_FILES=5000 PAST_SHARDS=1 PAST_OUT_DIR="$perf_out/s1" \
  cargo run --release -q -p past-bench --bin perf_suite --offline
PAST_NODES=60 PAST_FILES=5000 PAST_SHARDS=2 PAST_OUT_DIR="$perf_out/s2" \
  cargo run --release -q -p past-bench --bin perf_suite --offline
python3 - "$perf_out/s1/BENCH_perf.json" "$perf_out/s2/BENCH_perf.json" <<'PY'
import json, sys
KEYS = ("events", "delivered", "inserts_ok", "inserts_failed", "lookups", "lookups_ok")
def counters(path):
    report = json.load(open(path))
    return {
        (w["name"], w["scale"]): {k: w[k] for k in KEYS}
        for w in report["workloads"]
    }
one, two = counters(sys.argv[1]), counters(sys.argv[2])
assert one.keys() == two.keys(), f"workload sets differ: {one.keys() ^ two.keys()}"
for wl in sorted(one):
    if one[wl] != two[wl]:
        raise AssertionError(
            f"{wl}: counters diverge across shard counts\n  shards=1: {one[wl]}\n  shards=2: {two[wl]}"
        )
print(f"sharded smoke OK: {len(one)} workloads bit-identical at 1 vs 2 shards")
PY

echo "== warm-restart churn smoke (warm vs cold at mtbf 60 s)"
# The warm-restart contract: at the highest churn rate, warm restarts
# must cut maintenance bytes hard (the advertise-then-fetch sweep) and
# must not lose lookups vs cold. Run the smoke pair twice and also
# assert the JSON is deterministic run-to-run.
PAST_CHURN_SMOKE=1 PAST_CHURN_NODES=60 PAST_OUT_DIR="$perf_out/w1" \
  cargo run --release -q -p past-bench --bin churn_availability --offline
PAST_CHURN_SMOKE=1 PAST_CHURN_NODES=60 PAST_OUT_DIR="$perf_out/w2" \
  cargo run --release -q -p past-bench --bin churn_availability --offline
cmp "$perf_out/w1/BENCH_churn.json" "$perf_out/w2/BENCH_churn.json" \
  || { echo "error: churn smoke JSON not deterministic across runs" >&2; exit 1; }
python3 - "$perf_out/w1/BENCH_churn.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
rows = {r["warm_restart"]: r for r in report["warm_vs_cold"] if r["mtbf_s"] == 60}
assert set(rows) == {True, False}, f"missing warm/cold pair: {set(rows)}"
warm, cold = rows[True], rows[False]
wb = warm["maint_bytes_rereplication"] + warm["maint_bytes_refresh"]
cb = cold["maint_bytes_rereplication"] + cold["maint_bytes_refresh"]
assert warm["restarts_warm"] > 0 and warm["restarts_cold"] == 0, warm
assert cold["restarts_cold"] > 0 and cold["restarts_warm"] == 0, cold
assert wb * 2 <= cb, f"warm maintenance bytes not halved: warm={wb} cold={cb}"
assert warm["lookup_success_rate"] >= cold["lookup_success_rate"], \
    f"warm lookups regressed: {warm['lookup_success_rate']} < {cold['lookup_success_rate']}"
print(f"warm smoke OK: bytes {cb} -> {wb} ({cb / wb:.1f}x), "
      f"lookup success {cold['lookup_success_rate']} -> {warm['lookup_success_rate']}")
PY

echo "== byzantine audit smoke (10% malicious, audits on vs off)"
# The Byzantine defense contract: with 10% of the overlay malicious,
# the audited run must end with ZERO residual corrupted lookups, detect
# the adversary, and beat the undefended run on the same seed.
PAST_BYZ_SMOKE=1 PAST_OUT_DIR="$perf_out/byz" \
  cargo run --release -q -p past-bench --bin byzantine_audit --offline
python3 - "$perf_out/byz/BENCH_byzantine.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
rows = {r["audits"]: r for r in report["rows"] if r["fraction"] == 0.10}
assert set(rows) == {True, False}, f"missing audits on/off pair: {set(rows)}"
on, off = rows[True], rows[False]
assert on["malicious"] > 0, "10% fraction converted nobody"
assert off["corrupted_lookups"] > 0, \
    "undefended run saw no corruption - smoke scenario miscalibrated"
assert on["corrupted_lookups"] == 0, \
    f"audited run left residual corruption: {on['corrupted_lookups']}"
assert on["corrupted_lookups"] < off["corrupted_lookups"], (on, off)
assert on["challenges"] > 0 and on["failed"] + on["timeouts"] > 0, \
    f"audits never convicted the adversary: {on}"
assert on["detection_latency_s"] is not None, "no detection timestamp"
print(f"byzantine smoke OK: corrupted {off['corrupted_lookups']} -> 0, "
      f"detected in {on['detection_latency_s']}s, "
      f"{on['shunned']} shun entries")
PY

echo "== flash-crowd smoke (policies x flip, windowed series, engine equality)"
# The flash-crowd serving contract: the smoke sweep must be
# deterministic run-to-run (byte-identical JSON), GDS must absorb a
# nonzero share of the post-flip load and keep its hot node's served
# peak strictly below the no-cache row, and a default-knob run (no
# obs_window, no new policy) must produce identical counters on the
# legacy engine (twice) and the sharded engine at 1 and 2 shards.
PAST_FC_SMOKE=1 PAST_OUT_DIR="$perf_out/fc1" \
  cargo run --release -q -p past-bench --bin flash_crowd --offline
PAST_FC_SMOKE=1 PAST_OUT_DIR="$perf_out/fc2" \
  cargo run --release -q -p past-bench --bin flash_crowd --offline
cmp "$perf_out/fc1/BENCH_flashcrowd.json" "$perf_out/fc2/BENCH_flashcrowd.json" \
  || { echo "error: flash_crowd smoke JSON not deterministic across runs" >&2; exit 1; }
python3 - "$perf_out/fc1/BENCH_flashcrowd.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
cells = {c["policy"]: c for c in report["frontier"]["cells"]}
assert {"gds", "lru", "poprand", "none"} <= set(cells), f"missing policies: {set(cells)}"
gds, none = cells["gds"], cells["none"]
assert gds["absorbed_post_flip"] > 0, "GDS absorbed no post-flip load"
assert gds["hot_node_peak_post_flip"] < none["hot_node_peak_post_flip"], (
    f"GDS hot-node peak {gds['hot_node_peak_post_flip']} not below "
    f"no-cache {none['hot_node_peak_post_flip']}"
)
assert none["hit_rate"] == 0, "no-cache run reported cache hits"
for c in cells.values():
    assert c["windows"], f"{c['policy']}: no windowed series"
    assert sum(w[1] for w in c["windows"]) == c["lookups_ok"], (
        f"{c['policy']}: windowed completions disagree with the lookup counter"
    )
runs = report["baseline"]["runs"]
assert report["baseline"]["all_equal"], "engine-equality baseline diverged"
by_mode = {}
for r in runs:
    key = {k: v for k, v in r.items() if k not in ("engine", "shards", "mode")}
    by_mode.setdefault(r["mode"], []).append((r["engine"], key))
assert set(by_mode) == {"per_op", "pipelined"}, f"unexpected modes: {set(by_mode)}"
for mode, group in by_mode.items():
    first_engine, first = group[0]
    for engine, got in group[1:]:
        assert got == first, (
            f"{mode}: {engine} counters diverge from {first_engine}"
        )
assert report["gates"]["gds_absorbs"], report["gates"]
print(f"flash-crowd smoke OK: gds absorbed {gds['absorbed_post_flip']}, "
      f"hot peak {gds['hot_node_peak_post_flip']} vs {none['hot_node_peak_post_flip']} (no cache), "
      f"{len(runs)} engine runs bit-identical")
PY

echo "CI OK"
