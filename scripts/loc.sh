#!/bin/sh
# Non-test Rust lines per crate: for every `*.rs` under a crate's `src/`,
# the lines above the file's first `#[cfg(test)]` (the whole file when it
# has none). Blank lines and comments count: the number is for comparing
# one commit with the next, not for billing. Print-only, no threshold.
#
# usage: scripts/loc.sh [repo root, default: the checkout this script is in]
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
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
