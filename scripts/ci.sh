#!/usr/bin/env bash
# Local CI gate, all offline (the workspace vendors its few
# dev-dependencies: see vendor/ and [patch.crates-io] in Cargo.toml).
# Run from the repository root:
#
#   scripts/ci.sh
#
# Stages:
#   1. cargo build --release, the whole workspace
#   2. zero-test guard: every crate ships at least one #[test]
#   3. cargo test --workspace
#   4. cargo clippy -D warnings
#   5. cargo doc -D warnings
#   6. pastbench's own tests (benchmark/, a package of its own), a
#      `pastbench run --seconds 0` at the recorded scale whose checks
#      include the simulated statistics pinned in benchmark/pins.json,
#      and the layout guards, SHA-1 and the leaf set in the profile
#      pastbench measures
#   7. copies of a message between send and handler (count_copies.sh)
#   8. repro: every experiment at smoke scale, twice, asserts on, and
#      its CSVs against the recorded digests (scripts/repro_smoke.sha256)
#      and the fixed-scale ones against results/
#   9. the three examples, each asserting its own outcome
#  10. the count-alloc feature: its test, and the peak live heap of fig8
#      and fig5, each equal to the byte over two runs, fig5's under a
#      ceiling (MAX_FIG5_PEAK)
set -euo pipefail
cd "$(dirname "$0")/.."
# Stages that write output write it to a scratch dir, so CI never
# dirties the working tree.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

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
# The smoke runs above skip the pins, which hold at the recorded scale
# only: a run there (default seed, the fewest repetitions) checks every
# simulated statistic against benchmark/pins.json (~30 s on 2 vCPUs).
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
  run --seconds 0 --out "$out/pastbench" >"$out/pastbench.out" 2>&1 \
  || { cat "$out/pastbench.out" >&2; echo "error: pastbench run failed a check" >&2; exit 1; }
tail -n 1 "$out/pastbench.out"
# pastbench measures a release build, and the footprint guards and the
# file-table model check are statements about layout: hold them in that
# profile too, not only in stage 3's debug build.
cargo test -q --release --offline -p past-store
cargo test -q --release --offline -p past-sim --test footprint
# SHA-1's block function runs on `unsafe` SHA-extension intrinsics and
# the leaf set answers from its sides' order: hold both against their
# reference forms in the optimized build too.
cargo test -q --release --offline -p past-crypto -p past-pastry

echo "== copies per message (memcpy/memmove calls of a message's size, per message sent)"
# A message is written into the slab once and read out of it once; a
# by-value hop added anywhere between `Ctx::send` and the handler shows
# up here as one more call per message (the count repeats exactly). All
# four pastbench workloads are gated, so both event orders are: three
# run the legacy order, `shard_pipeline` the shard order and its barrier.
scripts/count_copies.sh

echo "== repro (every experiment at smoke scale, twice)"
# One binary regenerates Tables 1-4, Figures 2-8, the ablations and the
# Pastry properties, and runs the churn, Byzantine, flash-crowd and
# streaming experiments, whose asserts (warm restarts halve maintenance
# bytes, GD-S absorbs the flash crowd, ...) fail the run. Two runs must
# write byte-identical CSVs, every experiment `repro list` names must
# leave a non-empty CSV (`<name>.csv` or `<name>_*.csv`), and the driver
# must share replays between experiments: 21 distinct ones, not the 36
# they ask for between them. Run `a` must also match the SHA-256 list in
# scripts/repro_smoke.sha256 byte for byte: a refactor moves no number.
# A change meant to alter the model re-records the list in the same
# commit (as `benchmark/pins.json` is re-pinned), from the repo root:
#   PAST_NODES=60 PAST_FILES=5000 PAST_OUT_DIR=/tmp/smoke \
#     cargo run --release -q -p past-bench --bin repro -- all
#   (cd /tmp/smoke && sha256sum *.csv) >scripts/repro_smoke.sha256
#   cp /tmp/smoke/{churn_availability,churn_warm_vs_cold,byzantine_audit}.csv results/
repro() {
  cargo run --release -q -p past-bench --bin repro --offline -- "$@"
}
for run in a b; do
  PAST_NODES=60 PAST_FILES=5000 PAST_OUT_DIR="$out/$run" \
    repro all >"$out/$run.out" 2>"$out/$run.err" \
    || { cat "$out/$run.err" >&2; echo "error: repro all failed" >&2; exit 1; }
done
for csv in "$out"/a/*.csv; do
  cmp "$csv" "$out/b/$(basename "$csv")" \
    || { echo "error: repro CSVs not deterministic across runs" >&2; exit 1; }
done
(cd "$out/a" && sha256sum --quiet -c -) <scripts/repro_smoke.sha256 \
  || { echo "error: repro CSVs differ from scripts/repro_smoke.sha256 (re-record it if the model change is meant)" >&2; exit 1; }
# The three experiments that drive their own overlay at a fixed scale
# ignore PAST_NODES / PAST_FILES, so the smoke run must also reproduce
# their committed results/ files byte for byte.
for name in churn_availability churn_warm_vs_cold byzantine_audit; do
  cmp "$out/a/$name.csv" "results/$name.csv" \
    || { echo "error: repro $name differs from results/$name.csv" >&2; exit 1; }
done
experiments=0
while read -r name _; do
  wrote=0
  for csv in "$out/a/$name".csv "$out/a/$name"_*.csv; do
    if [ -s "$csv" ]; then wrote=1; fi
  done
  [ "$wrote" = 1 ] || { echo "error: repro $name wrote no CSV" >&2; exit 1; }
  experiments=$((experiments + 1))
done < <(repro list)
tail -n 1 "$out/a.out"
grep -q "ran 21 distinct replays for 36 asked" "$out/a.out" \
  || { echo "error: repro all no longer shares replays (want 21 of 36)" >&2; exit 1; }
echo "repro OK: $experiments experiments, $(ls "$out"/a/*.csv | wc -l) CSVs byte-identical across two runs and to the recorded digests"

echo "== examples (quickstart, content_distribution, archival_backup)"
# Each drives a `past_sim::Overlay` and asserts that its insert, lookup,
# reclaim or recovery completed: a failed assert's panic goes to stderr
# and stops the gate.
for example in quickstart content_distribution archival_backup; do
  cargo run --release --offline -q --example "$example" >/dev/null
done

echo "== counting allocator (feature build, residency twice)"
# The counting allocator is feature-gated off the default build (`repro`
# owns the #[global_allocator], so the feature only exists there and in
# past-obs). With it, `repro` prints each experiment's peak live heap:
# requested bytes, frees subtracted, no allocator slack, so on one
# thread it repeats to the byte where RSS drifts by hundreds of kB; the
# sharded streaming_replay is checked for that too.
# fig5 is the storage replay, so its peak is what a stored file and a
# replayed op cost: the ceiling is the count when it was last cut, plus
# 2 %. Lower it when a change cuts the count; raise it only in a change
# that says which bytes it adds and why.
MAX_FIG5_PEAK=2004138
cargo test -q --release -p past-obs --features count-alloc --offline
for exp in fig8 fig5 streaming_replay; do
  for run in a b; do
    PAST_NODES=60 PAST_FILES=5000 PAST_OUT_DIR="$out/alloc_$run" \
      cargo run --release -q -p past-bench --features count-alloc --bin repro --offline -- "$exp" \
      2>"$out/alloc_$exp$run.err" >/dev/null \
      || { cat "$out/alloc_$exp$run.err" >&2; echo "error: repro $exp (count-alloc) failed" >&2; exit 1; }
    grep "peak live heap" "$out/alloc_$exp$run.err" >"$out/alloc_$exp$run.peak" \
      || { echo "error: repro $exp printed no peak live heap" >&2; exit 1; }
  done
  cmp "$out/alloc_${exp}a.peak" "$out/alloc_${exp}b.peak" \
    || { echo "error: $exp's peak live heap differs between two runs" >&2; exit 1; }
  cat "$out/alloc_${exp}a.peak"
done
peak=$(awk '{ print $(NF - 1) }' "$out/alloc_fig5a.peak")
[ "$peak" -le "$MAX_FIG5_PEAK" ] \
  || { echo "error: fig5's peak live heap $peak B is above $MAX_FIG5_PEAK B" >&2; exit 1; }

echo "CI OK"
