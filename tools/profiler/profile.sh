#!/bin/sh
# Profile one perfbench workload with the SIGPROF sampler.
#
#   tools/profiler/profile.sh WORKLOAD SEED SECONDS [OUT] [symbolize.py options]
#
# Builds perfbench with frame pointers into its own target directory
# ($PROF_TARGET_DIR, default .prof_build at the repository root), preloads
# sampler.so into one run, writes OUT.samples, OUT.samples.maps and the
# run's JSON line to OUT.json (OUT defaults to prof-WORKLOAD-SEED), and
# prints the shares of the samples under `run_counted`.
set -eu
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
TARGET=${PROF_TARGET_DIR:-$ROOT/.prof_build}
WORKLOAD=$1
SEED=$2
SECONDS_=$3
OUT=${4:-prof-$WORKLOAD-$SEED}
[ $# -ge 4 ] && shift 4 || shift $#
mkdir -p "$TARGET"
gcc -O2 -shared -fPIC -o "$TARGET/sampler.so" "$ROOT/tools/profiler/sampler.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$TARGET" \
    cargo build --release --offline --quiet --manifest-path "$ROOT/perfbench/Cargo.toml"
PROF_OUT="$OUT.samples" LD_PRELOAD="$TARGET/sampler.so" \
    "$TARGET/release/perfbench" --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_" --trace 0 > "$OUT.json"
python3 "$ROOT/tools/profiler/symbolize.py" "$TARGET/release/perfbench" "$OUT.samples" \
    --under run_counted "$@"
