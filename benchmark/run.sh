#!/usr/bin/env bash
# The repo benchmark's one command. Builds what it needs, then hands every
# argument to the end-to-end harness (benchmark/e2e):
#
#   benchmark/run.sh [--seed N] [--repeats R] [--layers] [--quick] [--aa]
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (PR driver)
#
# Everything is built into $CARGO_TARGET_DIR (default: target/, next to the
# root workspace's own artifacts); inputs and outputs live in benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
mkdir -p benchmark/out
build_start=$(date +%s%N)

# The programs under test: the shipped binaries, release profile, untouched.
cargo build --release --offline --quiet -p mfc-cli -p mfc-sched -p mfc-trace >&2
# The harness itself (standalone package; links no repo crate).
cargo build --release --offline --quiet --manifest-path benchmark/e2e/Cargo.toml >&2
# The per-layer probe links crates/* and may stop compiling when they are
# refactored; the end-to-end metrics must survive that, so a failure here
# only removes the probe binary and keeps the compiler's words for the report.
if ! cargo build --release --offline --quiet --manifest-path benchmark/layers/Cargo.toml \
        2> benchmark/out/layers_build.log; then
    rm -f "$CARGO_TARGET_DIR/release/mfc-bench-layers"
    echo "warning: benchmark/layers did not build; per-layer metrics unavailable" >&2
fi

build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
MFC_BENCH_BUILD_S=$(printf '%d.%03d' $((build_ms / 1000)) $((build_ms % 1000)))
MFC_BENCH_BIN_DIR="$CARGO_TARGET_DIR/release"
export MFC_BENCH_BUILD_S MFC_BENCH_BIN_DIR
exec "$MFC_BENCH_BIN_DIR/mfc-bench-e2e" "$@"
