#!/bin/sh
# Unused dependency edges: for every package of the workspace, each entry
# of its `[dependencies]` and `[dev-dependencies]` tables must be named in
# one of that package's own `*.rs` sources — as a path (`name::…`, with
# `-` read as `_`), by `use name as …;` or by `extern crate name`.
# Comments count: an intra-doc link resolves through the dependency it
# names. A package's sources are every `*.rs` under its directory; the
# root package's are `src/`, `tests/` and `examples/` (its directory
# holds the other packages too). Prints one line per unused entry and
# exits non-zero if there is any.
#
# usage: scripts/deps.sh [repo root, default: the checkout this script is in]
set -eu
cd "${1:-$(dirname "$0")/..}"

# The names declared in one manifest's dependency tables, one per line:
# `name = …` / `name.workspace = …` lines inside `[dependencies]`,
# `[dev-dependencies]` or a `[target.….dependencies]` table, and the
# `[dependencies.name]` table form (not `[workspace.dependencies]`, which
# only names versions for the packages to pick from).
declared() {
    awk '
        /^[ \t]*\[/ {
            table = $0
            sub(/^[ \t]*\[[ \t]*/, "", table)
            sub(/[ \t]*\].*$/, "", table)
            if (table ~ /^workspace\./) table = ""
            inside = (table ~ /(^|\.)(dev-)?dependencies$/)
            if (table ~ /(^|\.)(dev-)?dependencies\.[A-Za-z0-9_-]+$/) {
                sub(/^.*dependencies\./, "", table)
                print table
            }
            next
        }
        inside && /^[ \t]*[A-Za-z0-9_-]+[ \t]*[.=]/ {
            name = $0
            sub(/^[ \t]*/, "", name)
            sub(/[ \t]*[.=].*$/, "", name)
            print name
        }
    ' "$1"
}

status=0
for manifest in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml; do
    [ -f "$manifest" ] || continue
    dir=$(dirname "$manifest")
    if [ "$dir" = . ]; then
        sources="src tests examples"
    else
        sources=$dir
    fi
    for dep in $(declared "$manifest"); do
        name=$(printf '%s' "$dep" | tr - _)
        # shellcheck disable=SC2086 # one directory per word
        if ! grep -rqsE --include='*.rs' \
            "(^|[^A-Za-z0-9_:])$name::|(use|extern crate)[[:space:]]+$name([[:space:]]+as[[:space:]]|[[:space:]]*;)" $sources; then
            printf '%s: %s is named in no source of the package\n' "$manifest" "$dep"
            status=1
        fi
    done
done
exit $status
