#!/usr/bin/env bash
# Wiring and correctness of the benchmark, not performance: the unit tests,
# then every workload in --quick mode (one rep, inputs / 8), untraced and
# traced. Exits non-zero when any gate fails.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --offline --manifest-path "$manifest"
for workload in replay_timessd replay_regular query_battery ransom_recover nvme_qd16; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path "$manifest" -- \
            --workload "$workload" --quick --trace "$trace" | grep -E '^(workload|gate|spans)'
    done
done
