#!/usr/bin/env bash
# Nightly figures: the three paper figures (figure-tables.sh) plus
# fig9's Predict+Validate variant (--validate), so the nightly golden
# gate guards the +VP rankings too.
set -euo pipefail
export BUILD_DIR="${BUILD_DIR:-build}"
"$(dirname "$0")/figure-tables.sh"
cd "$BUILD_DIR"
./bench/bench_fig9_numa --threads="$(nproc)" --validate \
  > figure-tables/fig9_validate.txt
