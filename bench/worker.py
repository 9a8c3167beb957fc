"""One workload in its own process: the timed closed loop, or the traced run.

Started by `run.py` with PYTHONPATH pointing at the checkout's `src/`;
prints one JSON object as its last line of output.  With --setup-only it
stops after the imports and the workload's one-time construction and
prints the time on the monotonic clock, from which `run.py` takes `setup_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import hypspeed  # noqa: E402

if not os.path.abspath(hypspeed.__file__).startswith(SRC + os.sep):
    sys.exit(f"hypspeed imported from {hypspeed.__file__}, not from {SRC}")

import refclock  # noqa: E402
import workloads  # noqa: E402

#: untimed ops run before measuring, so first-call costs are not counted
WARMUP_OPS = 2
#: stop adding traced rounds past this many spans, to bound memory
SPAN_CAP = 1_000_000


def _run_op(wl, op):
    """Time one op; returns (seconds, output, error message or None)."""
    t0 = perf_counter()
    try:
        out, error = wl.run(op), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{op!r}: {type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, error


def timed(wl, seconds: float) -> dict:
    """Closed loop, one client: whole rounds until the next round would
    overrun `seconds`.

    Each op time is put on the reference scale of `refclock`.  The latency
    percentiles pool every op.  ops_per_s is the median over rounds of the
    round's ops over its busy time: each round holds the same mix of ops,
    so rounds are comparable, and a minority of disturbed rounds does not
    move the median."""
    for op in wl.round()[:WARMUP_OPS]:
        wl.run(op)
    clock = refclock.RefClock()
    latencies, rates, errors = [], [], {}
    start = perf_counter()
    while True:
        busy = 0.0
        ops = wl.round()
        for op in ops:
            clock.before(wl.kind(op))
            dt, out, error = _run_op(wl, op)
            latencies.append(clock.scaled(wl.kind(op), dt))
            busy += latencies[-1]
            idx = len(latencies) - 1
            found = [error] if error else wl.check(idx, op, out)
            if found:
                errors[idx] = found
        rates.append(len(ops) / busy)
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / len(rates)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for idx, found in wl.oracle_failures().items():
        errors.setdefault(idx, []).extend(found)
    return {
        "attempted": len(latencies),
        "errors": errors,
        "metrics": {
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced(wl, seconds: float, span_path: str) -> dict:
    """Each round runs untraced, then again with wrappers installed; the
    traced outputs must equal the untraced ones."""
    from tracing import Tracer

    tracer = Tracer()
    for op in wl.round()[:WARMUP_OPS]:
        wl.run(op)
    untraced_total, traced_times, errors, n = 0.0, [], {}, 0
    start = perf_counter()
    rounds = 0
    while True:
        ops = wl.round()
        outs = []
        for k, op in enumerate(ops):
            dt, out, error = _run_op(wl, op)
            untraced_total += dt
            outs.append(out)
            found = [error] if error else wl.check(n + k, op, out)
            if found:
                errors[n + k] = found
        with tracer.installed():
            for k, op in enumerate(ops):
                tracer.op_id = n + k
                dt, out, error = _run_op(wl, op)
                traced_times.append(dt)
                if error or out != outs[k]:
                    errors.setdefault(n + k, []).append(
                        error or f"{op!r}: traced output differs from the untraced one")
        n += len(ops)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / rounds) > seconds or len(tracer) > SPAN_CAP:
            break
    for idx, found in wl.oracle_failures().items():
        errors.setdefault(idx, []).extend(found)
    tracer.save(span_path)
    return {"attempted": n, "errors": errors,
            "metrics": tracer.metrics(traced_times, untraced_total)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(time.monotonic())
        return
    if args.trace:
        span_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.npz")
        res = traced(wl, args.seconds, span_path)
    else:
        res = timed(wl, args.seconds)
    errors = res.pop("errors")
    res["failed"] = len(errors)
    res["messages"] = [m for idx in sorted(errors)[:10] for m in errors[idx][:2]]
    print(json.dumps(res))


if __name__ == "__main__":
    main()
