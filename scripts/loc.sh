#!/bin/sh
# Non-test Rust lines per crate: every line of every `*.rs` under a
# crate's `src/`, except the items marked `#[cfg(test)]` — a whole
# `mod tests`, or one test-only `fn`, `use` or `impl` — each skipped from
# its attribute to the brace that closes it (or to the `;` that ends a
# braceless item). Braces inside string and char literals and `//`
# comments do not count. A file that is the body of a
# `#[cfg(test)] mod x;` is skipped whole. Blank lines and comments count:
# the number is for comparing one commit with the next, not for billing.
# Print-only, no threshold.
#
# usage: scripts/loc.sh [repo root, default: the checkout this script is in]
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    files=$(find "$1" -name '*.rs' | sort)
    # Two passes over the files: the first collects the files that are
    # the bodies of `#[cfg(test)] mod x;` declarations, the second counts
    # every other file.
    # shellcheck disable=SC2086 # one path per word
    awk '
        # The line without literals and comments, for brace counting.
        function code(s) {
            gsub(/\\\\/, "", s)
            gsub(/\\"/, "", s)
            gsub(/"[^"]*"/, "", s)
            gsub(/'\''\\?.'\''/, "", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        # Where `mod name;` in FILENAME keeps its body.
        function mod_files(name,    dir, stem) {
            dir = FILENAME
            sub(/\/[^\/]*$/, "", dir)
            stem = FILENAME
            sub(/^.*\//, "", stem)
            sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
            test_file[dir "/" name ".rs"] = 1
            test_file[dir "/" name "/mod.rs"] = 1
        }
        pass == 1 && FNR == 1 { armed = 0 }
        pass == 1 {
            line = $0
            if (line ~ /^[ \t]*#\[cfg\(test\)\]/) {
                sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", line)
                armed = 1
            }
            if (armed && line ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z0-9_]+[ \t]*;/) {
                sub(/^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+/, "", line)
                sub(/[ \t]*;.*$/, "", line)
                mod_files(line)
            }
            if (line !~ /^[ \t]*$/) armed = 0
            next
        }
        FNR == 1 { skip = 0; whole = (FILENAME in test_file) }
        whole { next }
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
    ' pass=1 $files pass=2 $files
}

total=0
for src in src crates/*/src crates/shims/*/src benchmark/src; do
    [ -d "$src" ] || continue
    n=$(count "$src")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$src"
done
printf '%7d  total\n' "$total"
