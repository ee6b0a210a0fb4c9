#!/usr/bin/env python3
"""Run one workload of the tlsim benchmark (BENCHMARK.json).

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the repository root. Builds the simulator sources (src/) and
the benchmark driver into .bench_build/perfbench with CMake, runs
tlsim_perfbench and passes its report through. The last line of stdout
is the JSON result, and its metric names are checked against
BENCHMARK.json. Build output goes to stderr. With --trace 1 the traced
pass's spans are written to .bench_build/perfbench-spans/.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "perfbench-spans")
BINARY = os.path.join(BUILD, "tlsim_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under make included) and wait for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("%s did not finish in %d s" % (os.path.basename(cmd[0]),
                                                 timeout))
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources in %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "tlsim_perfbench"]):
        try:
            code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                          stderr=sys.stderr)
        except OSError as err:
            fail("build step %s failed: %s" % (cmd[:2], err))
        if code != 0:
            fail("build step %s exited with %d" % (cmd[:2], code))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS, "%s-seed%d.json" % (args.workload, args.seed))]
    # Thread and partition counts come from the benchmark, not the caller.
    env = {k: v for k, v in os.environ.items()
           if k not in ("TLSIM_THREADS", "TLSIM_PARTITIONS")}
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
                    env=env)
    if code != 0:
        sys.stderr.write(out)
        fail("tlsim_perfbench exited with %d" % code)
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("last line of tlsim_perfbench's output is not JSON")
    names = sorted(result.get("metrics", {}))
    if names != sorted(expected_metrics(args.trace)):
        fail("reported metrics %s do not match BENCHMARK.json" % names)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
