#!/usr/bin/env bash
# The repo's benchmark, one command:
#   perf/run.sh [--workload W] [--seed N] [--seconds 10] [--trace 0|1] [--selfcheck]
# Builds the benchmark and the shard worker, measures code defaults (every
# TQSIM_* variable is removed from the environment), and hands the
# arguments to tqsim-perf. See perf/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both builds; the driver names it, else perf/target.
mkdir -p "${CARGO_TARGET_DIR:=perf/target}"
CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
cargo build --release --offline --quiet -p tqsim-shard --bin tqsim-shard-worker >&2

for var in $(compgen -v TQSIM_ || true); do
    unset "$var"
done
export TQSIM_SHARD_WORKER_BIN="$CARGO_TARGET_DIR/release/tqsim-shard-worker"

exec "$CARGO_TARGET_DIR/release/tqsim-perf" "$@"
