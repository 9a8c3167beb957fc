"""Run the benchmark over several seeds and record the baseline.

    python3 bench/record.py --seeds 10 --seconds 20 [--workloads tables,suites]
                            [--traced] [--write bench/baseline.json]

Runs `run.py` once per (workload, seed), prints each end-to-end metric's
median and the distance between its first and third quartile as a share of
the median, and with --traced adds one traced run per workload (seed 1) for
the per-layer numbers.  --write stores everything with the environment and
the predicted layer-to-end-to-end mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: which end-to-end metric each layer metric is expected to move, on which
#: workload, written down before any optimisation is measured
LAYER_MAP = [
    {"layer_metrics": ["mapchain.RiemannMapChain.forward_lp.self_us",
                       "semigroups.orbit_halfplane.self_us",
                       "domains.to_halfplane.calls", "speeds.sample_speeds.self_us"],
     "moves": {"tables": ["ops_per_s", "op_p50_ms"]}, "unchanged": ["certify"],
     "why": "targets of the batched log-polar pipeline and of chain caching; "
            "to_halfplane runs 513 times per table because the chain is rebuilt per point"},
    {"layer_metrics": ["cli.parse_args.self_us", "cli.run.self_us"],
     "moves": {"tables": ["op_p50_ms"]},
     "why": "fixed per-invocation cost that caps any pipeline-only speed-up (Amdahl)"},
    {"layer_metrics": ["hyperbolic.k_half.self_us", "hyperbolic.omega.self_us",
                       "hyperbolic.project_to_radius.self_us", "hyperbolic.cayley.self_us",
                       "hyperbolic.path_length.self_us"],
     "moves": {"suites": ["ops_per_s", "op_p90_ms"]},
     "why": "scalar metric calls in lemma_halfplane, pythagoras and contraction; "
            "k_half also touches tables lightly"},
    {"layer_metrics": ["speeds.sample_speeds.calls", "verify.run_suite.self_us"],
     "moves": {"suites": ["ops_per_s"]}, "unchanged": ["tables"],
     "why": "a memoised shared speed table for the suites"},
    {"layer_metrics": ["domains.delta.self_us", "domains.quasihyp_lower.self_us",
                       "domains.quasihyp_lower.evals_per_call",
                       "comb.build_comb.self_us", "comb.verify_comb.self_us"],
     "moves": {"certify": ["ops_per_s", "op_p50_ms"]},
     "why": "adaptive quadrature and comb certification, incl. interval certification"},
    {"layer_metrics": ["domains.domain_from_json.self_us"],
     "moves": {"tables": ["op_p50_ms"]},
     "why": "input validation must stay cheap"},
    {"layer_metrics": ["module-level imports"],
     "moves": {"tables": ["setup_s"], "suites": ["setup_s"], "certify": ["setup_s"]},
     "why": "e.g. a top-level import of mpmath"},
]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not res["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return res


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def environment() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write")
    args = ap.parse_args()

    out = {"environment": environment(), "seconds": args.seconds, "workloads": {},
           "layer_map": LAYER_MAP}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        e2e = {name: summary([r["metrics"][name]["value"] for r in runs])
               for name, _unit, _better in metrics.END_TO_END}
        for name, s in e2e.items():
            print(f"{workload:8s} {name:12s} median {s['median']:10.5g}  "
                  f"spread {100 * s['spread']:5.2f}%  "
                  + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        entry = {"seeds": list(seeds), "end_to_end": e2e}
        if args.traced:
            traced = run(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
