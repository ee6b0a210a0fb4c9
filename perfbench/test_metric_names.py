#!/usr/bin/env python3
"""Check that tlsim_perfbench reports exactly the metrics BENCHMARK.json
declares, with the same units: end_to_end for the untraced pass and
per_layer for the traced one.

usage: test_metric_names.py PATH/TO/tlsim_perfbench
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    listed = subprocess.run([sys.argv[1], "--list-metrics"], check=True,
                            stdout=subprocess.PIPE, text=True).stdout
    reported = {"0": [], "1": []}
    for line in listed.splitlines():
        name, unit, traced = line.split()
        reported[traced].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for traced, key in (("0", "end_to_end"), ("1", "per_layer")):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if sorted(declared) != sorted(reported[traced]):
            ok = False
            print("%s: BENCHMARK.json has %s, the benchmark reports %s" % (
                key, sorted(set(declared) - set(reported[traced])),
                sorted(set(reported[traced]) - set(declared))))
    print("metric names match BENCHMARK.json" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
