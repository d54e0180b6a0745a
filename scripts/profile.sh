#!/usr/bin/env bash
# Where does a pastbench workload spend its time, function by function?
#
#   scripts/profile.sh <workload> [--seconds N] [--top N]
#
# A sampling profile without `perf`: an `LD_PRELOAD` sampler (built with
# the host `cc`, as in count_copies.sh) arms a SIGPROF timer every 1 ms
# of process CPU time (the kernel checks CPU-time timers once per tick,
# so with HZ=250 a sample comes every 4 ms) and, at each signal, records
# the interrupted instruction and the return addresses found by walking
# the frame pointers. pastbench is built for it with `-C force-frame-pointers=yes`
# and line tables in a target directory of its own
# (target/profile-pastbench), so the measured build is left alone.
#
# Addresses are symbolized with `addr2line -i` (inlined frames
# included: under thin LTO most of the hot code is inlined into a few
# handlers) and `nm` (the containing symbol, when addr2line has no line
# for an address). The report gives, per function:
#   self  the share of samples whose innermost frame is that function;
#   incl  the share of samples with that function anywhere on the stack.
# The whole process is sampled, trace build and setup included; `--seconds`
# is passed to `pastbench run` (default 8) with `--trace 0 --seed 7`.
# Frames in code built without frame pointers (libc, the prebuilt std)
# can hide their immediate caller, never a sample.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { echo "usage: scripts/profile.sh <workload> [--seconds N] [--top N]" >&2; exit 2; }
[ $# -ge 1 ] || usage
workload=$1
shift
seconds=8
top=30
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds=${2:?}; shift 2 ;;
    --top) top=${2:?}; shift 2 ;;
    *) usage ;;
  esac
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat >"$work/sampler.c" <<'EOF'
/* SIGPROF sampler: at each tick, the interrupted pc and the return
 * addresses of up to MAX_DEPTH frame-pointer frames go into a static
 * buffer; at exit the loaded objects, then the samples, one a line, go
 * to $PROFILE_OUT. The handler calls nothing and reads no frame outside
 * the interrupted stack. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 64
#define MAX_SAMPLES 400000
#define STACK_SPAN (64UL << 20)

static uintptr_t frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile unsigned long taken, lost;

static void on_tick(int sig, siginfo_t *info, void *uc_) {
  (void)sig;
  (void)info;
  if (taken >= MAX_SAMPLES) { lost++; return; }
  ucontext_t *uc = uc_;
  uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
  uintptr_t *out = frames[taken];
  int n = 0;
  out[n++] = pc;
  while (n < MAX_DEPTH && fp >= sp && fp - sp < STACK_SPAN && (fp & 7) == 0) {
    uintptr_t next = ((uintptr_t *)fp)[0];
    uintptr_t ret = ((uintptr_t *)fp)[1];
    if (ret == 0) break;
    /* A return address points after the call: step back into it. */
    out[n++] = ret - 1;
    if (next <= fp) break;
    fp = next;
  }
  depth[taken] = (unsigned char)n;
  taken++;
}

/* One line per loaded object: load address, end of its highest segment,
 * path (empty for the executable, which comes first). */
static int list_object(struct dl_phdr_info *info, size_t size, void *f) {
  (void)size;
  uintptr_t end = 0;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && ph->p_vaddr + ph->p_memsz > end) end = ph->p_vaddr + ph->p_memsz;
  }
  fprintf(f, "object %lx %lx %s\n", (unsigned long)info->dlpi_addr,
          (unsigned long)(info->dlpi_addr + end), info->dlpi_name);
  return 0;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("PROFILE_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) return;
  fprintf(f, "lost %lu\n", lost);
  dl_iterate_phdr(list_object, f);
  for (unsigned long s = 0; s < taken; s++) {
    for (int i = 0; i < depth[s]; i++) fprintf(f, i ? " %lx" : "%lx", (unsigned long)frames[s][i]);
    fputc('\n', f);
  }
  fclose(f);
}
EOF
cc -O2 -fPIC -shared -o "$work/sampler.so" "$work/sampler.c"

target=target/profile-pastbench
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  CARGO_TARGET_DIR="$target" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="$target/release/pastbench"

PROFILE_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
  "$bench" run --workload "$workload" --seconds "$seconds" --trace 0 --seed 7 \
  --out "$work/out" >/dev/null

python3 - "$work/samples" "$bench" "$top" "$workload" "$PWD/crates/" <<'EOF'
import bisect, collections, os, re, subprocess, sys

samples_path, binary, top, workload, crates = sys.argv[1:6]
top = int(top)
objects, stacks = [], []
with open(samples_path) as f:
    lost = int(f.readline().split()[1])
    for line in f:
        if line.startswith("object "):
            _, lo, hi, *path = line.rstrip("\n").split(" ", 3)
            objects.append((int(lo, 16), int(hi, 16), path[0] if path else ""))
        elif line.strip():
            stacks.append([int(a, 16) for a in line.split()])
if not stacks:
    sys.exit("error: no samples recorded")
exe_lo, exe_hi, _ = objects[0]

HASH = re.compile(r"::h[0-9a-f]{16}$")

def clean(name):
    return HASH.sub("", name)

class Symbols:
    """The function containing an address, from `nm -S`: the defined
    functions of an object, the exported ones of a shared library. An
    address past the end of every function it could be in (a library's
    internal code, such as malloc's) is named by its object alone."""
    def __init__(self, path, dynamic):
        args = ["nm", "-C", "-S", "--defined-only"] + (["-D"] if dynamic else []) + [path]
        out = subprocess.run(args, capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwWiI":
                syms.append((int(parts[0], 16), int(parts[1], 16), clean(parts[3].strip())))
        syms.sort()
        self.starts = [a for a, _, _ in syms]
        self.syms = syms
        self.label = os.path.basename(path)

    def name(self, offset):
        i = bisect.bisect_right(self.starts, offset) - 1
        if i >= 0 and offset < self.syms[i][0] + self.syms[i][1]:
            return f"{self.syms[i][2]} [{self.label}]"
        return f"[{self.label}]"

exe_syms, lib_syms = Symbols(binary, False), {}

def in_library(addr):
    for lo, hi, path in objects[1:]:
        if lo <= addr < hi and path:
            if path not in lib_syms:
                lib_syms[path] = Symbols(path, True)
            return [(lib_syms[path].name(addr - lo), "")]
    return [("[unknown]", "")]

# addr2line -i: the inlined chain of every distinct address in the
# executable, innermost first, each name with the file its code is in.
# `-a` prints each address before its chain.
addrs = sorted({a for s in stacks for a in s if exe_lo <= a < exe_hi})
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                     input="\n".join(f"{a - exe_lo:x}" for a in addrs),
                     capture_output=True, text=True, check=True).stdout.splitlines()
chains, i = {}, 0
while i < len(out):
    if out[i].startswith("0x"):
        current = int(out[i], 16) + exe_lo
        chains[current] = []
        i += 1
        continue
    name, where = clean(out[i]), out[i + 1] if i + 1 < len(out) else "??"
    i += 2
    if name == "??":
        continue
    path = where.rsplit(":", 1)[0]
    # Inlined frames carry short names: say which file they are from.
    if "::" not in name and path != "??":
        name = f"{name} [{os.path.basename(path)}]"
    chains[current].append((name, path))
for a in addrs:
    if not chains.get(a):
        chains[a] = [(exe_syms.name(a - exe_lo), "")]

def chain(a):
    return chains[a] if a in chains else in_library(a)

total = len(stacks)
self_count, incl_count, ours = collections.Counter(), collections.Counter(), set()
for stack in stacks:
    self_count[chain(stack[0])[0][0]] += 1
    seen = set()
    for a in stack:
        for name, path in chain(a):
            seen.add(name)
            if path.startswith(crates):
                ours.add(name)
    incl_count.update(seen)

print(f"{workload}: {total} samples of CPU time ({lost} lost)")
print(f"{'self %':>7} {'incl %':>7}  function (by self)")
for name, n in self_count.most_common(top):
    print(f"{100 * n / total:7.2f} {100 * incl_count[name] / total:7.2f}  {name}")
print(f"\n{'incl %':>7} {'self %':>7}  function in crates/ (by inclusive)")
shown = [(name, n) for name, n in incl_count.most_common() if name in ours][:top]
for name, n in shown:
    print(f"{100 * n / total:7.2f} {100 * self_count[name] / total:7.2f}  {name}")
EOF
