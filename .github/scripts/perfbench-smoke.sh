#!/usr/bin/env bash
# End-to-end benchmark smoke (perfbench/README.md): build the
# benchmark's own tree and run its tests (oracle fault injection,
# metric names vs BENCHMARK.json), then one short squash-mesh64 run
# (in-order core) and one ooo-cmp8 run (OoO core) at seed 0. Each JSON
# must report correct with no failed point checks, and each sim_digest
# line must show the workload's documented seed-0 digest for all three
# passes and end in "equal", so a change that moves either core's
# simulated output fails here.
set -euo pipefail
BUILD=.bench_build/perfbench
cmake -S perfbench -B "$BUILD"
cmake --build "$BUILD" -j "$(nproc)"
(cd "$BUILD" && ctest --output-on-failure --no-tests=error)

smoke() {
  local workload=$1 seconds=$2 digest=$3
  python3 perfbench/run.py --workload "$workload" --seconds "$seconds" \
    | tee "$BUILD/smoke-$workload.txt"
  python3 - "$BUILD/smoke-$workload.txt" "$workload" "$digest" <<'EOF'
import json, re, sys
path, workload, want = sys.argv[1:]
lines = open(path).read().splitlines()
r = json.loads(lines[-1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench smoke %s: correct=%r failed=%r"
             % (workload, r.get("correct"), r.get("failed")))
digest = [l.strip() for l in lines if l.strip().startswith("sim_digest ")]
if (len(digest) != 1 or not digest[0].endswith(": equal")
        or re.findall(r"\b[0-9a-f]{16}\b", digest[0]) != [want] * 3):
    sys.exit("perfbench smoke %s: want sim_digest %s in every pass, "
             "got %r" % (workload, want, digest))
EOF
}

smoke squash-mesh64 1 9a5169e90fc8e194
smoke ooo-cmp8 0 7280b799747e293e
