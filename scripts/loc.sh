#!/bin/sh
# Non-test Rust lines per crate: every line of every `*.rs` under a
# crate's `src/`, except the items marked `#[cfg(test)]` — a whole
# `mod tests`, or one test-only `fn`, `use` or `impl` — each skipped from
# its attribute to the brace that closes it (or to the `;` that ends a
# braceless item). Braces inside string and char literals and `//`
# comments do not count. Blank lines and comments count: the number is
# for comparing one commit with the next, not for billing. Print-only, no
# threshold.
#
# usage: scripts/loc.sh [repo root, default: the checkout this script is in]
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -exec awk '
        # The line without literals and comments, for brace counting.
        function code(s) {
            gsub(/\\\\/, "", s)
            gsub(/\\"/, "", s)
            gsub(/"[^"]*"/, "", s)
            gsub(/'\''\\?.'\''/, "", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        FNR == 1 { skip = 0 }
        !skip && /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            s = code($0)
            opens = gsub(/\{/, "", s)
            depth += opens - gsub(/\}/, "", s)
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && s ~ /;[ \t]*$/)) skip = 0
            next
        }
        { n++ }
        END { print n + 0 }
    ' {} +
}

total=0
for src in src crates/*/src crates/shims/*/src benchmark/src; do
    [ -d "$src" ] || continue
    n=$(count "$src")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$src"
done
printf '%7d  total\n' "$total"
