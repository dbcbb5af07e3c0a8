#!/usr/bin/env bash
# RSS timeline of one benchmark workload: runs it as BENCHMARK.json does and
# samples VmRSS / VmHWM of every server child the benchmark spawns, from
# /proc, every 50 ms. A workload that spawns no server (replay.inproc serves
# in the benchmark's own process) gets one row for the benchmark itself,
# role `bench`, whose VmHWM is then what `rss_mb` reads. Helpers the
# benchmark runs for its host line (rustc, git) carry no `--role` and are
# not reported.
#
#   scripts/rss_timeline.sh [--smaps] <workload> <seed> [benchmark-binary]
#
# Without a binary, this checkout's benchmark is built and used; pass a copy
# built from another commit (see the verify skill) to take its timeline.
# Prints one row per child: VmRSS in MB at fixed ages of the child (MARKS,
# seconds since its first sample), at its last sample, and VmHWM — the figure
# `rss_mb` sums over the children that are alive at the end (the `measured`
# ones; the benchmark starts each role a few times for `setup_s` first) —
# with `hwm_at_s`, the child's age at the first sample whose VmHWM equals its
# final one: the phase that set the peak. A node loads within its first
# 0.3 s (VmHWM then is its load peak), is warmed up by 1.5 s, and is
# measured from there. The samples stay in the directory
# named on the last line. awk only: the sandbox has neither bc nor rsync.
#
# With --smaps, each child's /proc/<pid>/smaps is copied at every sample as
# well, and for every measured child the copy from its last whole sample is
# summed by mapping, in Rss MB: [heap], the 64 MB-aligned anonymous maps
# (glibc's thread arenas, reserve included; a predict thread's kernel
# scratch lives in its own), each other anonymous map holding 1 MB or more
# (large allocations glibc maps alone), the binary, the shared libraries
# and the rest (stacks, small anonymous maps, vdso).
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/rss_timeline.sh [--smaps] <workload> <seed> [benchmark-binary]"
smaps=0
if [ "${1:-}" = "--smaps" ]; then
    smaps=1
    shift
fi
workload=${1:?$usage}
seed=${2:?$usage}
bin=${3:-}
MARKS="0 0.1 0.2 0.3 0.5 1 1.5 3 6 9 12"

if [ -z "$bin" ]; then
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
    bin=benchmark/target/release/serenade-benchmark
fi
out=$(mktemp -d "${TMPDIR:-/tmp}/rss_timeline.XXXXXX")

"$bin" run --workload "$workload" --seed "$seed" --seconds 10 --trace 0 >"$out/run.txt" 2>&1 &
bench=$!
trap 'kill "$bench" 2>/dev/null || true' EXIT

# "<t_us> <pid> <role> <VmRSS kB> <VmHWM kB>" per process per tick: every
# child, and the benchmark itself (reported only if no server ever shows).
while kill -0 "$bench" 2>/dev/null; do
    now=${EPOCHREALTIME/./}
    for pid in "$bench" $(cat /proc/"$bench"/task/*/children 2>/dev/null); do
        # A child may exit between any two of these reads.
        if [ "$pid" = "$bench" ]; then
            role=bench
        else
            role=$(cat "/proc/$pid/cmdline" 2>/dev/null | tr '\0' ' ' | sed -n 's/.*--role \([a-z]*\).*/\1/p' || true)
        fi
        sample=$(awk -v now="$now" -v pid="$pid" -v role="${role:-?}" '
            $1 == "VmHWM:" { hwm = $2 }
            $1 == "VmRSS:" { rss = $2 }
            END { if (rss) print now, pid, role, rss, hwm }' "/proc/$pid/status" 2>/dev/null || true)
        [ -n "$sample" ] || continue
        echo "$sample"
        # The copy replaces the last one only when it is whole: an exiting
        # child's smaps reads short, so its Rss must come to 90 % of the
        # VmRSS just sampled.
        if [ "$smaps" = 1 ] && exe=$(readlink "/proc/$pid/exe" 2>/dev/null) &&
            cat "/proc/$pid/smaps" >"$out/smaps.tmp" 2>/dev/null &&
            awk -v rss="$(cut -d' ' -f4 <<<"$sample")" '$1 == "Rss:" { kb += $2 }
                END { exit !(kb >= 0.9 * rss) }' "$out/smaps.tmp"; then
            mv "$out/smaps.tmp" "$out/smaps.$pid"
            echo "$exe" >"$out/exe.$pid"
        fi
    done >>"$out/samples.txt"
    sleep 0.05
done
wait "$bench" || true
trap - EXIT

awk -v marks="$MARKS" '
    BEGIN { m = split(marks, mark, " ") }
    !($2 in first) {
        first[$2] = $1; order[++n] = $2; role[$2] = $3; next_mark[$2] = 1
        hwm[$2] = $5; hwm_at[$2] = 0
    }
    $3 != "?" { role[$2] = $3 } # "?": sampled between fork and exec, or a helper
    {
        age = ($1 - first[$2]) / 1e6
        while (next_mark[$2] <= m && age >= mark[next_mark[$2]]) at[$2, next_mark[$2]++] = $4
        if ($5 != hwm[$2]) hwm_at[$2] = age # VmHWM only grows: its last rise
        last[$2] = $1; end[$2] = $4; hwm[$2] = $5
        if ($1 > newest) newest = $1
    }
    END {
        printf "%-8s %-7s %7s", "pid", "role", "life_s"
        for (k = 1; k <= m; k++) printf " %7s", mark[k] "s"
        printf " %7s %7s %8s\n", "end", "VmHWM", "hwm_at_s"
        for (i = 1; i <= n; i++) if (role[order[i]] != "?" && role[order[i]] != "bench") servers++
        for (i = 1; i <= n; i++) {
            p = order[i]
            if (role[p] == "?" || (role[p] == "bench" && servers)) continue
            printf "%-8s %-7s %7.1f", p, role[p], (last[p] - first[p]) / 1e6
            for (k = 1; k <= m; k++) printf " %7s", ((p, k) in at) ? sprintf("%.1f", at[p, k] / 1024) : "-"
            measured = newest - last[p] < 200000
            printf " %7.1f %7.1f %8.2f  %s\n", end[p] / 1024, hwm[p] / 1024, hwm_at[p],
                (measured ? "measured" : "")
            if (measured) print p, role[p] >(out "/measured.txt")
        }
    }' out="$out" "$out/samples.txt"

# Rss by mapping at each measured child's last whole sample.
if [ "$smaps" = 1 ]; then
    while read -r pid role; do
        [ -s "$out/smaps.$pid" ] || continue
        echo "smaps of $pid ($role) at its last whole sample, Rss MB:"
        awk -v exe="$(cat "$out/exe.$pid" 2>/dev/null)" '
            function hex(digits,    value, i) {
                value = 0
                for (i = 1; i <= length(digits); i++)
                    value = value * 16 + index("0123456789abcdef", substr(digits, i, 1)) - 1
                return value
            }
            BEGIN { arena = -1 }
            # One mapping: its group, by what it is and where it lies. A
            # thread arena is a 64 MB-aligned heap that glibc maps as its
            # used part and the reserve behind it; both count as the arena.
            function flush() {
                if (path == "[heap]") group = "[heap]"
                else if (path == "" && int(start / 67108864) == arena) group = "thread arenas (64 MB-aligned)"
                else if (path == "" && kb >= 1024) group = sprintf("anon %s (%.1f MB mapped)", first, size / 1048576)
                else if (path != "" && path == exe) group = "binary"
                else if (path ~ /\.so/) group = "shared libraries"
                else group = "other"
                if (!(group in rss)) order[++n] = group
                rss[group] += kb
                total += kb
            }
            # A mapping header: "start-end perms offset dev inode [path]".
            $1 ~ /^[0-9a-f]+-[0-9a-f]+$/ {
                if (mapped) flush()
                mapped = 1
                split($1, range, "-")
                first = range[1]
                path = $6
                start = hex(range[1])
                size = hex(range[2]) - start
                kb = 0
                if (path == "" && start % 67108864 == 0) arena = start / 67108864
            }
            $1 == "Rss:" { kb = $2 }
            END {
                if (mapped) flush()
                for (i = 1; i <= n; i++) printf "    %-40s %7.2f\n", order[i], rss[order[i]] / 1024
                printf "    %-40s %7.2f\n", "total", total / 1024
            }' "$out/smaps.$pid"
    done <"$out/measured.txt"
fi
grep -E "^ +(rss_mb|setup_s|ingest.publishes) |attempted=" "$out/run.txt" || cat "$out/run.txt"
echo "samples: $out/samples.txt"
