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
# Usage: scripts/loc.sh [--check budget-file] [checkout-dir]
#        (default checkout: the current repo)
#
# With --check, also compare each crate's non-test count with the budget
# file (lines of `<crate> <max non-test lines>`, `#` comments) and the
# workspace total with its `workspace <max lines>` line, and exit non-zero
# if one exceeds its budget or has none: the line budget ROADMAP item 3
# asks for. A PR that shrinks a crate or the workspace lowers its line.
set -eu
budget=""
if [ "${1:-}" = "--check" ]; then
    budget=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
    shift 2
fi
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
crates=$(for d in crates/*/; do
    row "$(basename "$d")" "${d%/}"
done)
printf '%s\n' "$crates"
row "railgun (root)" .
row shims shims
row benchmark benchmark
workspace=$(count total .)
printf '%-20s %8s %8s %10s\n' workspace "$workspace" "" ""

if [ -n "$budget" ]; then
    # The workspace total rides along as a row whose checked column is it.
    printf '%s\nworkspace - - %s\n' "$crates" "$workspace" | awk -v file="$budget" '
        BEGIN { while ((getline line < file) > 0) { split(line, f, " "); if (f[1] !~ /^#/) max[f[1]] = f[2] } }
        !($1 in max) { printf "loc: %s has no line in %s\n", $1, file; bad = 1; next }
        $4 + 0 > max[$1] + 0 { printf "loc: %s grew: %d lines, budget %d\n", $1, $4, max[$1]; bad = 1 }
        END { exit bad }'
fi
