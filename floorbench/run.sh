#!/usr/bin/env bash
# Builds the benchmark, then runs it pinned to one CPU with the arguments
# given (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`).
#
# Pinning keeps the run within one CPU. On a shared 2-vCPU host, a run that
# uses both CPUs drains the host's CPU allowance within a minute or two and is
# then throttled (CPU steal of 20-30%), which makes every later figure 2-10x
# worse. Pinned runs see no steal. Without `taskset` the run is not pinned.
#
# The build goes to $CARGO_TARGET_DIR, by default `.bench_build` at the root
# of the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path floorbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/floorbench"
if command -v taskset >/dev/null; then
    exec taskset -c 0 "$bin" "$@"
fi
exec "$bin" "$@"
