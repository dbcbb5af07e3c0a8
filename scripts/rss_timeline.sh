#!/usr/bin/env bash
# RSS timeline of one benchmark workload: runs it as BENCHMARK.json does and
# samples VmRSS / VmHWM of every server child the benchmark spawns, from
# /proc, every 50 ms.
#
#   scripts/rss_timeline.sh <workload> <seed> [benchmark-binary]
#
# Without a binary, this checkout's benchmark is built and used; pass a copy
# built from another commit (see the verify skill) to take its timeline.
# Prints one row per child: VmRSS in MB at fixed ages of the child (MARKS,
# seconds since its first sample), at its last sample, and VmHWM — the figure
# `rss_mb` sums over the children that are alive at the end (the `measured`
# ones; the benchmark starts each role a few times for `setup_s` first). A
# node loads within its first 0.3 s (VmHWM then is its load peak), is warmed
# up by 1.5 s, and is measured from there. The samples stay in the directory
# named on the last line. awk only: the sandbox has neither bc nor rsync.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/rss_timeline.sh <workload> <seed> [benchmark-binary]}
seed=${2:?usage: scripts/rss_timeline.sh <workload> <seed> [benchmark-binary]}
bin=${3:-}
MARKS="0 0.1 0.2 0.3 0.5 1 1.5 3 6"

if [ -z "$bin" ]; then
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
    bin=benchmark/target/release/serenade-benchmark
fi
out=$(mktemp -d "${TMPDIR:-/tmp}/rss_timeline.XXXXXX")

"$bin" run --workload "$workload" --seed "$seed" --seconds 10 --trace 0 >"$out/run.txt" 2>&1 &
bench=$!
trap 'kill "$bench" 2>/dev/null || true' EXIT

# "<t_us> <pid> <role> <VmRSS kB> <VmHWM kB>" per child per tick.
while kill -0 "$bench" 2>/dev/null; do
    now=${EPOCHREALTIME/./}
    for pid in $(cat /proc/"$bench"/task/*/children 2>/dev/null); do
        # A child may exit between any two of these reads.
        role=$(cat "/proc/$pid/cmdline" 2>/dev/null | tr '\0' ' ' | sed -n 's/.*--role \([a-z]*\).*/\1/p' || true)
        awk -v now="$now" -v pid="$pid" -v role="${role:-?}" '
            $1 == "VmHWM:" { hwm = $2 }
            $1 == "VmRSS:" { rss = $2 }
            END { if (rss) print now, pid, role, rss, hwm }' "/proc/$pid/status" 2>/dev/null || true
    done >>"$out/samples.txt"
    sleep 0.05
done
wait "$bench" || true
trap - EXIT

awk -v marks="$MARKS" '
    BEGIN { m = split(marks, mark, " ") }
    !($2 in first) { first[$2] = $1; order[++n] = $2; role[$2] = $3; next_mark[$2] = 1 }
    $3 != "?" { role[$2] = $3 } # "?": sampled between fork and exec
    {
        age = ($1 - first[$2]) / 1e6
        while (next_mark[$2] <= m && age >= mark[next_mark[$2]]) at[$2, next_mark[$2]++] = $4
        last[$2] = $1; end[$2] = $4; hwm[$2] = $5
        if ($1 > newest) newest = $1
    }
    END {
        printf "%-8s %-7s %7s", "pid", "role", "life_s"
        for (k = 1; k <= m; k++) printf " %7s", mark[k] "s"
        printf " %7s %7s\n", "end", "VmHWM"
        for (i = 1; i <= n; i++) {
            p = order[i]
            printf "%-8s %-7s %7.1f", p, role[p], (last[p] - first[p]) / 1e6
            for (k = 1; k <= m; k++) printf " %7s", ((p, k) in at) ? sprintf("%.1f", at[p, k] / 1024) : "-"
            printf " %7.1f %7.1f  %s\n", end[p] / 1024, hwm[p] / 1024,
                (newest - last[p] < 200000 ? "measured" : "")
        }
    }' "$out/samples.txt"
grep -E "^ +(rss_mb|setup_s|ingest.publishes) |attempted=" "$out/run.txt" || cat "$out/run.txt"
echo "samples: $out/samples.txt"
