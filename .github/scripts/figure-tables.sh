#!/usr/bin/env bash
# Figure tables (deterministic output — both compilers and any thread
# count produce identical tables). PR tier generates the three paper
# figures and requires each to equal its golden byte for byte; the
# nightly tier regenerates them at full fidelity plus the fig9
# Predict+Validate variant and diffs rankings against goldens/.
# A change that moves a table refreshes its golden in the same change
# (the command is in tools/golden_check.py's docstring) and says why.
set -euo pipefail
GOLDENS="$(pwd)/goldens"
BUILD_DIR="${BUILD_DIR:-build}"
cd "$BUILD_DIR"
mkdir -p figure-tables
./bench/bench_fig9_numa --threads="$(nproc)" > figure-tables/fig9.txt
./bench/bench_fig10_amm_fmm --threads="$(nproc)" > figure-tables/fig10.txt
./bench/bench_fig11_cmp --threads="$(nproc)" > figure-tables/fig11.txt
for fig in fig9 fig10 fig11; do
  cmp "figure-tables/${fig}.txt" "$GOLDENS/${fig}.txt"
done
