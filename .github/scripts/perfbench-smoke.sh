#!/usr/bin/env bash
# End-to-end benchmark smoke (perfbench/README.md): build the
# benchmark's own tree and run its tests (oracle fault injection,
# metric names vs BENCHMARK.json), then one short squash-mesh64 run
# whose JSON must report correct with no failed point checks.
set -euo pipefail
BUILD=.bench_build/perfbench
cmake -S perfbench -B "$BUILD"
cmake --build "$BUILD" -j "$(nproc)"
(cd "$BUILD" && ctest --output-on-failure --no-tests=error)
python3 perfbench/run.py --workload squash-mesh64 --seconds 1 \
  | tee "$BUILD/smoke.txt"
tail -n 1 "$BUILD/smoke.txt" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench smoke: correct=%r failed=%r"
             % (r.get("correct"), r.get("failed")))
'
