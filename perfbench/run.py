#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The first form builds
perfbench/bench.exe with dune, runs one workload and relays its output:
the last line of standard output is the result object.  --self-check
runs every workload of BENCHMARK.json on tiny inputs, untraced and
traced, and asserts that the emitted metric names and units are
exactly the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", BENCH, "bench.exe")
OUT = os.path.join(HERE, "out")
# a run is killed after this long; the driver allows 180 s
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"{BENCH}: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"no {need} in {ROOT}: run from a checkout of the repository")
    # the shared dune cache lives outside the checkout; keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", f"./{BENCH}/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("dune not found on PATH")
    if r.returncode != 0:
        die("build failed")


def profile_env():
    """Machine profile the executable records with every result."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return dict(os.environ, PERFBENCH_NPROC=str(nproc),
                PERFBENCH_COMMIT=commit)


def run(args):
    """Run the executable; returns (exit code, stdout)."""
    try:
        r = subprocess.run([EXE, "--out", OUT] + args, cwd=ROOT,
                           env=profile_env(), stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"timed out after {RUN_TIMEOUT_S} s")
    return r.returncode, r.stdout


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run(["--workload", w["name"], "--seed", "7",
                             "--seconds", "0.2", "--trace", str(trace),
                             "--small"])
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            else:
                res = json.loads(out.strip().splitlines()[-1])
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(res)}")
                if not res.get("correct") or res.get("failed") != 0:
                    problems.append(f"failed {res.get('failed')} of "
                                    f"{res.get('attempted')}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                for k in sorted(set(want[trace]) | set(got)):
                    if want[trace].get(k) != got.get(k):
                        problems.append(f"{k}: declared unit "
                                        f"{want[trace].get(k)}, emitted "
                                        f"{got.get(k)}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:<14} trace={trace}  {status}")
            bad += bool(problems)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    if a.self_check:
        sys.exit(self_check())
    if not a.workload:
        die("--workload is required")
    code, out = run(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
