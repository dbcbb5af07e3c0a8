#!/usr/bin/env bash
# Non-test line counts, the one way every PR computes ROADMAP's "report the
# LOC delta": for each `src/**/*.rs`, every line outside the items that a
# `#[cfg(test` / `#[cfg(all(test` attribute introduces — a braced item is
# skipped to its closing brace, a braceless one (`mod tests;`, a field) is
# its own line — so a test item above product code hides nothing after it.
# `code` leaves out blank and comment-only lines, so deleting prose does not
# read as deleting code. Braces are counted after string and char literals
# and `//` comments are blanked out. One row more counts the `pub` fields
# of the `*Config` structs in the product crates (core, dataset, index,
# kvstore, serving, telemetry): the options a deployment can set, so a PR
# reports its option delta beside its LOC delta. Beside it, the entries of
# the checker's allowlist (`crates/xtask/analyze_allow.txt`), in total and by
# rule: the findings the tree waives, so a PR reports its waiver delta too.
#
#   scripts/loc.sh [checkout]     # default: this repository
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Prints "<lines> <code>" for the non-test part of the given files.
count() {
    awk '
        # The line with its string, raw string and char literals and its `//`
        # comment blanked. A raw string may span lines (`in_raw`).
        function blank(text) {
            if (in_raw) {
                if (!sub(/^([^"]|"[^#])*"#/, "", text)) return ""
                in_raw = 0
            }
            gsub(/r#"([^"]|"[^#])*"#/, "\"\"", text)
            if (sub(/r#".*/, "", text)) in_raw = 1
            gsub(/"([^"\\]|\\.)*"/, "\"\"", text)
            gsub(/\047([^\047\\]|\\.)\047/, "\047 \047", text)
            sub(/\/\/.*/, "", text)
            return text
        }
        function braces(text) { return gsub(/\{/, "{", text) - gsub(/\}/, "}", text) }
        FNR == 1 { depth = 0; pending = 0; in_raw = 0 }
        # Inside a test item: skip to its closing brace.
        depth > 0 { depth += braces(blank($0)); next }
        /^[[:space:]]*#\[cfg\((all\()?test/ { pending = 1; sub(/^[[:space:]]*#\[[^]]*\]/, "") }
        # The attributed item: a field or variant is one line ending in `,`;
        # any other item runs to its `{` or `;`. A `}` first closes the
        # enclosing item, which is not test code.
        pending {
            text = blank($0)
            if (text ~ /^[[:space:]]*(#\[.*)?$/) next
            if (text ~ /\{/) { pending = 0; depth = braces(text); next }
            if (text ~ /;/ || (pending == 1 && text ~ /,[[:space:]]*$/)) { pending = 0; next }
            if (text !~ /\}/) { pending = 2; next }
            pending = 0
        }
        { lines++ }
        !/^[[:space:]]*(\/\/.*)?$/ { code++ }
        END { printf "%d %d\n", lines, code }
    ' "$@"
}

row() { printf '%-44s %7d %7d\n' "$1" "$2" "$3"; }

# Prints the number of `pub` fields of the `*Config` structs in the given
# files: the options a deployment can set, counted as lines are.
config_fields() {
    awk '
        /^[[:space:]]*pub struct [A-Za-z0-9_]*Config[[:space:]]*\{/ { inside = 1; next }
        inside && /^[[:space:]]*\}/ { inside = 0; next }
        inside && /^[[:space:]]*pub [a-z0-9_]+:/ { fields++ }
        END { print fields + 0 }
    ' "$@"
}

printf '%-44s %7s %7s\n' "non-test lines" "lines" "code"
for crate in crates/*/; do
    mapfile -t files < <(find "$crate/src" -name '*.rs' | sort)
    read -r lines code < <(count "${files[@]}")
    row "${crate%/}" "$lines" "$code"
done
mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
read -r lines code < <(count "${files[@]}")
row "crates/ total" "$lines" "$code"
mapfile -t files < <(find crates/{core,dataset,index,kvstore,serving,telemetry}/src -name '*.rs' | sort)
printf '%-44s %7d\n' "config fields (pub, *Config, product crates)" "$(config_fields "${files[@]}")"
allowlist=crates/xtask/analyze_allow.txt
printf '%-44s %7d\n' "allowlist entries (analyze_allow.txt)" "$(grep -c '^[a-z-]* :: ' "$allowlist")"
grep -o '^[a-z-]* :: ' "$allowlist" | sort | uniq -c | while read -r n rule _; do
    printf '%-44s %7d\n' "  $rule" "$n"
done
echo
while read -r file; do
    read -r lines code < <(count "$file")
    row "$file" "$lines" "$code"
done < <(find crates/serving/src -name '*.rs' | sort)

# The vendored dependencies (ROADMAP item 13 counts them beside the crates).
echo
for shim in shims/*/; do
    mapfile -t files < <(find "$shim" -name '*.rs' | sort)
    read -r lines code < <(count "${files[@]}")
    row "${shim%/}" "$lines" "$code"
done
mapfile -t files < <(find shims -name '*.rs' | sort)
read -r lines code < <(count "${files[@]}")
row "shims/ total" "$lines" "$code"
