#!/usr/bin/env bash
# mad-bench driver.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's `command` takes):
#       builds the package, runs it, and leaves the result object as the
#       last line of standard output.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       the whole suite: every workload untraced, then every workload
#       traced; every metric printed by name with its unit. Exits non-zero
#       if any run reports incorrect replies or failed requests.
#
# Everything is read and written inside the checkout: build output under
# $CARGO_TARGET_DIR (default benchmark/target), data and traces under
# benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from; pin it to the checkout root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/mad-bench"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

mkdir -p "$root/benchmark/out"
status=0
for trace in 0 1; do
    for workload in hot_saturate hot_paced cold_window wide_plan; do
        "$bin" --workload "$workload" --trace "$trace" "$@" \
            | tee "$root/benchmark/out/last-$workload-$trace.txt"
        if ! tail -n 1 "$root/benchmark/out/last-$workload-$trace.txt" \
            | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'; then
            echo "mad-bench: $workload (trace $trace) reported wrong replies or failed requests" >&2
            status=1
        fi
    done
done
exit $status
