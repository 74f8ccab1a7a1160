#!/usr/bin/env bash
# Where a benchmark workload spends its CPU, by source line. The box has no
# `perf`, so this is the whole method: a SIGPROF + backtrace() sampler,
# LD_PRELOADed into `atum-benchmark` built with debug info, symbolised with
# addr2line. It prints two tables:
#
# * by line: every sample is charged to the innermost frame — inlined ones
#   included — that lies in `crates/` or `benchmark/src/`, so time under
#   `memcpy`, the allocator, the standard library or a vendored crate shows
#   at the line that called it, and time in the benchmark's own code (say,
#   its application checking a delivered payload) shows at the benchmark's
#   line, not at the product line that called into it;
# * by file, inclusive: a sample counts once for every `crates/` or
#   `benchmark/src/` file with a frame anywhere on its stack, so a file's
#   share is the time spent in it and in everything it called. The shares
#   add up to more than 100 %.
#
# (The standard library's SIMD intrinsics sit under a `crates/` directory
# too, `/rustc/…/stdarch/crates/core_arch`; frames under `/rustc/` are
# skipped by path in both tables.)
#
#   scripts/profile.sh <workload> [seconds]     e.g. scripts/profile.sh sim_fanout 20
#
# Needs cc and addr2line. Everything it builds goes to target/profile (its
# own --target-dir: the debug-info build never replaces the one that is
# measured); no product crate links the sampler.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-12}
build="$root/target/profile"
mkdir -p "$build"

cat > "$build/sampler.c" <<'EOF'
/* Every 2 ms of process CPU time: the interrupted thread's stack, as file
   addresses of the main executable (frames in shared objects are skipped),
   one sample per line in $ATUM_PROFILE_OUT at exit. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

enum { DEPTH = 64, SAMPLES = 1 << 17 };
static void *stacks[SAMPLES][DEPTH];
static int depths[SAMPLES];
static int taken;
static unsigned long base, end;

static void on_prof(int sig) {
    int at = __sync_fetch_and_add(&taken, 1);
    if (at < SAMPLES) depths[at] = backtrace(stacks[at], DEPTH);
}

static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        unsigned long top = base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
        if (info->dlpi_phdr[i].p_type == PT_LOAD && top > end) end = top;
    }
    return 1; /* the first object is the executable: stop */
}

__attribute__((constructor)) static void start(void) {
    void *warm[2];
    backtrace(warm, 2); /* loads the unwinder now, not inside the handler */
    dl_iterate_phdr(main_object, NULL);
    struct sigaction action = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 2000}, {0, 2000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(getenv("ATUM_PROFILE_OUT"), "w");
    for (int s = 0; out && s < taken && s < SAMPLES; s++) {
        /* [0] is the handler, [1] the signal trampoline, [2] the interrupted
           instruction; every later frame is a return address, one past its
           call. */
        for (int f = 2; f < depths[s]; f++) {
            unsigned long pc = (unsigned long)stacks[s][f] - (f > 2);
            if (pc >= base && pc < end) fprintf(out, "0x%016lx ", pc - base);
        }
        fputc('\n', out);
    }
    if (out) fclose(out);
}
EOF
cc -O1 -shared -fPIC -o "$build/sampler.so" "$build/sampler.c"
CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$build" >&2
exe="$build/release/atum-benchmark"

# `--run` is what the suite's child processes execute; no micro-benchmarks.
# The binary writes ./bench-out/, so it runs from the build directory.
(cd "$build" && ATUM_PROFILE_OUT="$build/samples.txt" LD_PRELOAD="$build/sampler.so" \
    "$exe" --run "$workload" --seed 47 --seconds "$seconds" --warmup 0 --micro-div 0 --trace 0 \
    > "$build/record.json")

tr ' ' '\n' < "$build/samples.txt" | grep . | sort -u \
    | addr2line -e "$exe" -a -f -C -i > "$build/symbols.txt"
awk '
    NR == FNR {
        if (/^0x/) addr = $1
        else if (!(addr in where) && !/^\/rustc\// && match($0, /(crates|benchmark\/src)\/[^ ]*:[0-9]+/))
            where[addr] = substr($0, RSTART, RLENGTH)
        next
    }
    {
        total++
        for (i = 1; i <= NF; i++) if ($i in where) { hits[where[$i]]++; next }
        hits["(no frame in crates/ or benchmark/src/)"]++
    }
    END {
        printf "%d samples of 2 ms, by innermost crates/ or benchmark/src/ line:\n", total
        for (line in hits) printf "%7d %5.1f%%  %s\n", hits[line], 100 * hits[line] / total, line
    }
' "$build/symbols.txt" "$build/samples.txt" | sort -k1,1nr | sed -n 1,41p

echo
echo "$(wc -l < "$build/samples.txt") samples of 2 ms, by crates/ or benchmark/src/ file anywhere on the stack (once per file per sample):"
awk '
    NR == FNR {
        if (/^0x/) addr = $1
        else if (!/^\/rustc\// && match($0, /(crates|benchmark\/src)\/[^ :]*:[0-9]+/)) {
            file = substr($0, RSTART, RLENGTH)
            sub(/:[0-9]+$/, "", file)
            if (index(files[addr] " ", " " file " ") == 0) files[addr] = files[addr] " " file
        }
        next
    }
    {
        total++
        split("", seen)
        for (i = 1; i <= NF; i++) {
            n = split(files[$i], list, " ")
            for (j = 1; j <= n; j++) if (!(list[j] in seen)) { seen[list[j]] = 1; hits[list[j]]++ }
        }
    }
    END {
        for (file in hits) printf "%7d %5.1f%%  %s\n", hits[file], 100 * hits[file] / total, file
    }
' "$build/symbols.txt" "$build/samples.txt" | sort -k1,1nr | sed -n 1,30p
