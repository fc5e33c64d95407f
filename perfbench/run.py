#!/usr/bin/env python3
"""Build and run the TIX service benchmark.

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout of the repository. The first call
builds perfbench/tixbench.exe with dune into .bench_build/; every call
then runs it on the named workload. The program's standard output is
passed through: a line with the run's context, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

--self-check runs every workload (scatter too, which BENCHMARK.json
leaves out) briefly on a tiny corpus, traced and untraced, and checks
that each prints every metric BENCHMARK.json names, with its unit, and
that every answer check passes.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "tixbench.exe")
WORKLOADS = ["read-mix", "hot-repeat", "ingest-read", "scatter"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out.decode("utf-8", "replace")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("not a TIX checkout: %s is missing under %s" % (needed, ROOT))
    # the shared dune cache lives outside the checkout; build without it
    os.environ["DUNE_CACHE"] = "disabled"
    code, out = run_group(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/tixbench.exe"],
        BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0 or not os.path.exists(EXE):
        die("build failed")


def run(workload, seed, seconds, trace, tiny=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", os.path.join(ROOT, WORK_DIR, workload)]
    if tiny:
        cmd.append("--tiny")
    code, out = run_group(cmd, RUN_TIMEOUT_S)
    if code != 0:
        die("%s exited with %d" % (workload, code))
    return out


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        die("BENCHMARK.json names unknown workloads %s" % unknown)
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, 1, 2, trace, tiny=True)
            result = json.loads(out.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = "%s --trace %d" % (workload, trace)
            if got != want:
                problems.append("%s: metrics %s, expected %s" % (where, sorted(got), sorted(want)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed" %
                                (where, result["failed"], result["attempted"]))
            print("%-28s correct=%s attempted=%d metrics=%d" %
                  (where, result["correct"], result["attempted"], len(got)))
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_check:
        sys.exit(self_check())
    if args.workload is None:
        die("--workload is required")
    sys.stdout.write(run(args.workload, args.seed, args.seconds, args.trace))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
