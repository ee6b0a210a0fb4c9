#!/usr/bin/env bash
# Out-of-order core (docs/OOO_CORE.md): record a single-app fig9 sweep
# with the per-op core records enabled and replay it against the audit
# invariants (issue-order density, in-order retirement, replay
# discipline).
set -euo pipefail
BUILD_DIR="${BUILD_DIR:-build}"
cd "$BUILD_DIR"
./bench/bench_fig9_numa --core=ooo --app=Tree --reps=1 \
  --trace=fig9_ooo.bin --trace-mask=audit+core > /dev/null
./bench/bench_inspect --audit fig9_ooo.bin
