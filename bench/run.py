"""The hypspeed benchmark.

    python3 bench/run.py --workload tables|suites|certify|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a child interpreter
of its own (`worker.py`) against the checkout's `src/`, one closed-loop
client at a time; every op is checked against an independent mpmath oracle
(`oracle.py`) outside the timed region.  Op times are reported on the scale
of the reference kernel in `refclock.py`, which keeps them comparable on a
machine whose speed drifts.  `setup_s` is the median wall time of fresh
interpreters that import hypspeed and build the workload, half of them
started before the run and half after it.

Prints one line per metric, then, as the last line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  With
`--workload all` the workloads run one after another and metric names are
prefixed by the workload.  Exits 1 when any op failed its checks, 2 when the
checkout holds no hypspeed sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

#: fresh interpreters timed for setup_s, half before and half after the run
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_times(workload: str, seed: int, runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    hypspeed and built the workload, after an untimed one that lets the
    first run in a checkout write its bytecode cache.  The child reports
    when it finished on the system-wide monotonic clock, which is exact;
    timing its exit from here would add the polling of a waited-for child."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(runs + 1):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times[1:]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload's child; with trace 0, time set-ups before and
    after it, so that their median spans the run."""
    setups = [] if trace else _setup_times(workload, seed, SETUP_RUNS // 2)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: worker exited with status {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        setups += _setup_times(workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
        res["metrics"]["setup_s"] = statistics.median(setups)
    return res


def report(workload: str, res: dict, trace: int) -> None:
    print(f"# workload {workload}: {res['attempted']} ops, {res['failed']} failed")
    for name, unit, _better in (metrics.per_layer() if trace else metrics.END_TO_END):
        print(f"{workload:8s} {name:48s} {res['metrics'][name]:.6g} {unit}")
    if not trace:
        name, unit, _ = metrics.FAIL_RATIO
        print(f"{workload:8s} {name:48s} {res['failed'] / res['attempted']:.6g} {unit}")
    for msg in res["messages"]:
        print(f"{workload}: FAILED {msg}", file=sys.stderr)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hypspeed", "__init__.py")):
        print(f"no hypspeed sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)

    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict((n, u) for n, u, _ in metrics.per_layer() + list(metrics.END_TO_END))
    correct, attempted, failed, out = True, 0, 0, {}
    for workload in names:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        report(workload, res, args.trace)
        correct &= res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        out.update({prefix + name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
