#!/usr/bin/env bash
# Non-test line counts, the one way every PR computes ROADMAP's "report the
# LOC delta": for each `src/**/*.rs`, the lines before the first
# `#[cfg(test` / `#[cfg(all(test` attribute. `code` leaves out blank and
# comment-only lines, so deleting prose does not read as deleting code.
#
#   scripts/loc.sh [checkout]     # default: this repository
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Prints "<lines> <code>" for the non-test part of the given files.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\((all\()?test/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        !/^[[:space:]]*(\/\/.*)?$/ { code++ }
        END { printf "%d %d\n", lines, code }
    ' "$@"
}

row() { printf '%-44s %7d %7d\n' "$1" "$2" "$3"; }

printf '%-44s %7s %7s\n' "non-test lines" "lines" "code"
for crate in crates/*/; do
    mapfile -t files < <(find "$crate/src" -name '*.rs' | sort)
    read -r lines code < <(count "${files[@]}")
    row "${crate%/}" "$lines" "$code"
done
echo
while read -r file; do
    read -r lines code < <(count "$file")
    row "$file" "$lines" "$code"
done < <(find crates/serving/src -name '*.rs' | sort)
