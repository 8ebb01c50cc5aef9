#!/usr/bin/env bash
# Non-test source size of the workspace, per crate.
#
# Counts the non-blank lines of every `.rs` file under each crate's
# `src/` (and the umbrella package's `src/`), stopping at the file's
# first line that starts with `#[cfg(test)]`: unit-test modules sit at
# the bottom of their files, so what is counted is the program itself.
# Integration tests (`tests/`), examples and benches are not counted.
#
#   scripts/loc.sh           # this checkout
#   scripts/loc.sh DIR       # another checkout, e.g. a parent commit's
#
# Prints `<lines> <crate>` per crate, then `<lines> total`.
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && NF > 0 { n++ }
        END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in src crates/*/src; do
    [[ -d "$dir" ]] || continue
    if [[ "$dir" == src ]]; then
        name=split-mmwave
    else
        name="$(basename "$(dirname "$dir")")"
    fi
    n="$(count "$dir")"
    total=$((total + n))
    printf '%6d %s\n' "$n" "$name"
done
printf '%6d total\n' "$total"
