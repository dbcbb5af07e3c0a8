#!/usr/bin/env bash
# One-command verification: tier-1 build+tests, then only what tier-1 does
# not cover — the dev-only parser's place in the dependency graph, the
# workspace checker from the CLI, the rustdoc link check,
# the benchmark's smoke run and self-tests, the loom model
# checks, and the seeded-mutation kill tests (where the checker must FAIL
# the mutated protocol — their test files assert exactly that).
set -euo pipefail
cd "$(dirname "$0")/.."

# A `file.rs:N` reference in the docs names a file by its path or by a
# unique path suffix (`cluster.rs:115`, `core/src/index/build.rs:183`).
# It fails when no file or several match, or when the file ends before
# line N; it cannot tell whether line N still says what the text claims,
# so a PR that moves lines re-reads the references into its files.
check_references() {
    local files doc path line matches count lines failed=0
    files=$(find crates benchmark/src examples tests shims -name '*.rs' -not -path '*/target/*' | sort)
    while IFS=: read -r doc path line; do
        matches=$(grep -E "(^|/)${path//./\\.}\$" <<<"$files" || true)
        count=$(grep -c . <<<"$matches" || true)
        if [ "$count" -ne 1 ]; then
            echo "FAIL: $doc names $path:$line, which matches $count files: ${matches//$'\n'/ }" >&2
            failed=1
            continue
        fi
        lines=$(wc -l <"$matches")
        if [ "$line" -lt 1 ] || [ "$line" -gt "$lines" ]; then
            echo "FAIL: $doc names $path:$line, but $matches has $lines lines" >&2
            failed=1
        fi
    done < <(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.rs:[0-9]+' DESIGN.md README.md ROADMAP.md)
    return "$failed"
}

echo "==> docs: every file.rs:N reference in DESIGN.md, README.md and ROADMAP.md names an existing line"
check_references

echo "==> tier-1: cargo build --release (any warning fails the check)"
build_output=$(cargo build --release 2>&1) || { echo "$build_output"; exit 1; }
echo "$build_output"
if warnings=$(grep '^warning' <<<"$build_output"); then
    echo "FAIL: the release build printed warnings:" >&2
    echo "$warnings" >&2
    exit 1
fi

echo "==> tier-1: cargo test -q"
cargo test -q

# The exposition parser only reads /metrics back in tests: it is a
# dev-dependency of the crates that render the page, and must not become a
# build dependency of either.
echo "==> dependencies: no product build links the dev-only serenade-promtext"
for package in serenade-serving serenade-telemetry; do
    tree=$(cargo tree --offline -e normal -p "$package")
    if grep -q serenade-promtext <<<"$tree"; then
        echo "FAIL: $package depends on serenade-promtext outside [dev-dependencies]:" >&2
        echo "$tree" >&2
        exit 1
    fi
done

# The probe's answer fingerprint at `--quick`, held to the committed value:
# a kernel change that moves one answer bit fails here, not only in the
# property tests. So is the layout's size, the `total` row of the probe's
# `SessionIndex::bytes()` table (the index and the kernel's idf table): a
# layout that grows fails here. A change meant to move either updates the
# value here.
probe_answers() {
    local expected=$1 bytes=$2 output
    shift 2
    output=$(cargo run --release -q -p serenade-bench --bin kernel_probe -- --quick "$@")
    echo "$output"
    if ! grep -q "^answers: FNV-1a $expected " <<<"$output"; then
        echo "FAIL: kernel_probe --quick${*:+ $*} no longer answers with fingerprint $expected" >&2
        return 1
    fi
    if ! grep -qE "^ +total +$bytes\$" <<<"$output"; then
        echo "FAIL: kernel_probe --quick${*:+ $*} no longer holds its index in $bytes bytes" >&2
        return 1
    fi
}

echo "==> kernel probe: the committed instrument runs, answers and layout pinned (--quick)"
probe_answers 0xe91c44c6402ba667 869475

echo "==> kernel probe: the popularity head held in place, so samples are cut at m (--quick)"
probe_answers 0xa52ee454dbe87a21 746527 --drift-per-day 0

echo "==> rustdoc: every intra-doc link resolves, and none leads to a private item"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --workspace --offline

echo "==> workspace checker: line rules, lock order, atomic orderings, reactor blocking, test-only pub"
cargo run -q -p xtask -- analyze

# A test or bench binary left over from an earlier step or run still holds
# a core while the benchmark measures (EXPERIMENTS.md X3 ran a whole session
# beside one of ours). Ours are killed; anybody else's above the benchmark's
# noisy-host share is named, since its timings will carry the NOISY HOST stamp.
quiesce_host() {
    local pid exe share cap before
    for pid in $(cd /proc && ls -d [0-9]*); do
        exe=$(readlink "/proc/$pid/exe" 2>/dev/null) || continue
        case "$exe" in
            "$PWD"/target/* | "$PWD"/benchmark/target/*)
                echo "    reaping straggler $pid: $exe"
                kill -KILL "$pid" 2>/dev/null || true
                ;;
        esac
    done
    # "<pid> <utime + stime>" of every process; the command name may hold
    # spaces, so it is cut out first.
    cpu_ticks() {
        sed -sE 's/^([0-9]+) \(.*\) /\1 /' /proc/[0-9]*/stat 2>/dev/null | awk '{ print $1, $13 + $14 }'
    }
    share=$(sed -n 's/^const NOISY_BUSY_SHARE: f64 = \(.*\);/\1/p' benchmark/src/report.rs)
    cap=$(($(getconf CLK_TCK) * $(nproc)))
    before=$(cpu_ticks)
    sleep 1
    { echo "$before"; echo "--"; cpu_ticks; } | awk -v cap="$cap" -v share="$share" '
        $1 == "--" { after = 1; next }
        !after { ticks[$1] = $2; next }
        ($1 in ticks) && ($2 - ticks[$1]) / cap > share { print $1 }
    ' | while read -r pid; do
        echo "    NOISY: pid $pid ($(tr '\0' ' ' <"/proc/$pid/cmdline" 2>/dev/null)) holds more than $share of the machine"
    done
}

echo "==> quiesce: reap our own stragglers, name foreign load"
quiesce_host

# Building the benchmark rewrites its committed Cargo.lock (cargo prunes
# entries the workspace no longer uses); put the committed bytes back on exit,
# pass or fail, so the check leaves the tree as it found it.
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT

echo "==> benchmark (BENCHMARK.json): every workload on the tiny dataset, answers checked"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo "==> benchmark: the generator's self-tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> loom models: serving (drain handshake, prediction cache, stats counters)"
cargo test -q -p serenade-serving --features loom

echo "==> loom models: kvstore (TtlStore expiry race)"
cargo test -q -p serenade-kvstore --features loom

echo "==> loom models: telemetry (sharded histogram record/snapshot, trace ring)"
cargo test -q -p serenade-telemetry --features loom

echo "==> mutation kill: weakened admission/drain handshake"
cargo test -q -p serenade-serving --features "loom mutation-weak-admission" --test loom_models

echo "==> mutation kill: prediction cache generation check dropped"
cargo test -q -p serenade-serving --features "loom mutation-skip-generation-check" --test loom_models

echo "==> non-test line counts (the LOC delta CHANGES.md reports)"
scripts/loc.sh

echo "All checks passed."
