#!/usr/bin/env bash
# How many times is a message copied between `Ctx::send` and the handler
# that consumes it?
#
#   scripts/count_copies.sh [--full] [--hist]
#
# Rust moves a value of more than 128 bytes with a call to libc's
# `memcpy` / `memmove`, and every wire message here is one (`Body` 152,
# `Envelope<PastMsg>` 176, a slab `Parcel` 184). So an `LD_PRELOAD`
# interposer that counts those calls, divided by the messages the engine
# sent, is the copy count of the event path, protocol-side moves
# included. The count repeats to within a few calls from run to run,
# which is why `scripts/ci.sh` can gate it: at most MAX_COPIES calls of
# 96 bytes or more per message sent on each of pastbench's four
# workloads, so both event orders of the one event core are held:
# `storage_fill`, `cache_lookup` and `churn_repair` run the legacy order,
# `shard_pipeline` the shard order, whose cross-shard sends also move
# slab to slab at the window barrier.
#
# Builds the interposer with the host `cc` (the linker rustc already
# needs), runs `pastbench run --smoke --trace 0` under it and reads
# `net.delivered + net.dropped` from the result file. The result has no
# field for the number of replays the process made, so that is read from
# the detail of its `repetitions_identical` check ("0 of N repetitions
# differ ..."); anything else there is an error, not a guess.
# `--full` measures at pastbench's full scale instead (a minute or two
# under the interposer); `--hist` also prints the calls by size.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lower it here when the counts drop (storage_fill 2.6, cache_lookup 2.7,
# shard_pipeline 2.8, churn_repair 2.3 when this was written).
MAX_COPIES=4.0
scale=(--smoke)
hist=0
for arg in "$@"; do
  case "$arg" in
    --full) scale=() ;;
    --hist) hist=1 ;;
    *) echo "usage: scripts/count_copies.sh [--full] [--hist]" >&2; exit 2 ;;
  esac
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat >"$work/count.c" <<'EOF'
/* Counts memcpy/memmove calls of 96 bytes or more, by 16-byte bucket,
 * and writes them to $COPY_COUNT_OUT when the process exits. The copy
 * itself is a plain loop: built with -fno-builtin and without loop
 * idiom recognition, so the compiler cannot turn it back into the call
 * this file replaces. */
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>

#define BUCKETS 64 /* [96,112) ... ; the last one takes everything larger */
static unsigned long calls[BUCKETS], bytes[BUCKETS];

static void count(size_t n) {
  if (n < 96) return;
  size_t b = (n - 96) / 16;
  if (b >= BUCKETS) b = BUCKETS - 1;
  calls[b]++;
  bytes[b] += n;
}

void *memmove(void *dst, const void *src, size_t n) {
  count(n);
  unsigned char *d = dst;
  const unsigned char *s = src;
  if (d < s || d >= s + n) {
    for (size_t i = 0; i < n; i++) d[i] = s[i];
  } else {
    while (n--) d[n] = s[n];
  }
  return dst;
}

void *memcpy(void *dst, const void *src, size_t n) { return memmove(dst, src, n); }

__attribute__((destructor)) static void report(void) {
  const char *path = getenv("COPY_COUNT_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) return;
  for (int b = 0; b < BUCKETS; b++)
    if (calls[b]) fprintf(f, "%d %lu %lu\n", 96 + 16 * b, calls[b], bytes[b]);
  fclose(f);
}
EOF
cc -O2 -fPIC -shared -fno-builtin -fno-tree-loop-distribute-patterns \
  -o "$work/count.so" "$work/count.c"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench=benchmark/target/release/pastbench

status=0
for workload in storage_fill cache_lookup shard_pipeline churn_repair; do
  COPY_COUNT_OUT="$work/$workload.counts" LD_PRELOAD="$work/count.so" \
    "$bench" run "${scale[@]}" --trace 0 --workload "$workload" --out "$work/out" >/dev/null
  result="$work/out/$workload.json"
  # N replays, the warm-up included, all with the same message count.
  replays=$(sed -n 's/^ *"detail": "0 of \([0-9]*\) repetitions differ .*/\1/p' "$result")
  if [ -z "$replays" ]; then
    echo "error: $result: pastbench's repetitions_identical check does not read" \
      '"0 of N repetitions differ ..."; it failed, or its wording changed' >&2
    exit 1
  fi
  delivered=$(sed -n 's/.*"net\.delivered": \([0-9]*\).*/\1/p' "$result")
  dropped=$(sed -n 's/.*"net\.dropped": \([0-9]*\).*/\1/p' "$result")
  if [ -z "$delivered" ] || [ -z "$dropped" ]; then
    echo "error: cannot read net.delivered / net.dropped from $result" >&2
    exit 1
  fi
  awk -v w="$workload" -v sent=$(((delivered + dropped) * replays)) -v max="$MAX_COPIES" -v hist="$hist" '
    { calls += $2; bytes += $3; if (hist) printf "  %s  %4d-%-4d B  %10d calls\n", w, $1, $1 + 15, $2 }
    END {
      per = calls / sent
      printf "%s: %.2f copies >= 96 B and %.0f bytes per message sent (%d calls, %d messages)\n",
        w, per, bytes / sent, calls, sent
      if (per > max) { printf "error: %s is over %.1f copies per message\n", w, max; exit 1 }
    }' "$work/$workload.counts" || status=1
done
exit $status
