#!/usr/bin/env sh
# loc: per-crate `.rs` line counts, the table ROADMAP item 3 asks every
# shrink PR to report in CHANGES.md. Three columns per row:
#
#   total     every tracked `.rs` file under the row's directory
#   src       the ones under its `src/`
#   non-test  `src/` lines up to each file's last `#[cfg(test)]` line
#             (a file without one counts whole)
#
# Rows: each crate under crates/, the facade package at the root (src/,
# tests/, examples/), shims/, benchmark/, and the workspace total.
# Usage: scripts/loc.sh [checkout-dir]   (default: the current repo)
set -eu
cd "${1:-$(dirname "$0")/..}"

count() { # count <total|nontest> <pathspec>...
    mode=$1
    shift
    git ls-files -- "$@" | grep '\.rs$' | {
        sum=0
        while IFS= read -r f; do
            if [ "$mode" = nontest ]; then
                n=$(awk '/#\[cfg\(test\)\]/ { last = NR } END { print (last ? last : NR) }' "$f")
            else
                n=$(awk 'END { print NR }' "$f")
            fi
            sum=$((sum + n))
        done
        echo "$sum"
    }
}

row() { # row <label> <dir> — `.` is the facade package at the root
    label=$1
    dir=$2
    if [ "$dir" = . ]; then
        total=$(count total src tests examples)
        dir=""
    else
        total=$(count total "$dir")
        dir="$dir/"
    fi
    printf '%-20s %8s %8s %10s\n' "$label" "$total" \
        "$(count total "${dir}src")" "$(count nontest "${dir}src")"
}

printf '%-20s %8s %8s %10s\n' crate total src/ non-test
for d in crates/*/; do
    row "$(basename "$d")" "${d%/}"
done
row "railgun (root)" .
row shims shims
row benchmark benchmark
printf '%-20s %8s %8s %10s\n' workspace "$(count total .)" "" ""
