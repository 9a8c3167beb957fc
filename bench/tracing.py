"""Outside-in tracing: spans recorded by wrappers installed around hypspeed's
public functions, from the benchmark's own files.

A wrapper replaces every `hypspeed.*` module-global binding of a function,
so calls through `from .hyperbolic import k_half` are caught as well as
calls through `hypspeed.hyperbolic.k_half`; the `RiemannMapChain` methods
are wrapped on the class.  Spans (function, start, end, parent, op id) are
kept in flat arrays in memory and written out when the run ends.  A span's
self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

import metrics


class Tracer:
    def __init__(self):
        self.names = metrics.traced_functions()
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.suite_of: dict[int, str] = {}   # run_suite span index -> suite
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __len__(self) -> int:
        return len(self.fid)

    def _wrap(self, fid: int, fn, is_run_suite: bool):
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op, self.start, self.end
        stack, suite_of = self._stack, self.suite_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            if is_run_suite:
                suite_of[i] = args[0] if args else kwargs["name"]
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        originals = {}   # id(function) -> wrapper; the functions stay alive
        try:
            for fid, qual in enumerate(self.names):
                layer, _, fn_name = qual.partition(".")
                mod = importlib.import_module(f"hypspeed.{layer}")
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(fid, orig, False))
                    self._restore.append((cls, meth, orig))
                else:
                    orig = getattr(mod, fn_name)
                    originals[id(orig)] = self._wrap(fid, orig, qual == "verify.run_suite")
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "hypspeed" and not mod_name.startswith("hypspeed."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if id(val) in originals:
                        setattr(mod, attr, originals[id(val)])
                        self._restore.append((mod, attr, val))
            yield self
        finally:
            while self._restore:
                obj, attr, val = self._restore.pop()
                setattr(obj, attr, val)

    def metrics(self, op_times: list[float], untraced_total: float) -> dict[str, float]:
        """Per-layer metrics per traced op: calls, self time, layer self
        shares of the traced op time, per-suite time, the quadrature's delta
        evaluations per call, and the tracing overhead."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        self_sum = np.bincount(fid, weights=self_time, minlength=k)
        n_ops, op_total = len(op_times), sum(op_times)

        out: dict[str, float] = {}
        for i, qual in enumerate(self.names):
            out[f"{qual}.calls"] = float(calls[i]) / n_ops
            out[f"{qual}.self_us"] = float(self_sum[i]) / n_ops * 1e6
        for layer in metrics.LAYERS:
            ids = [i for i, q in enumerate(self.names) if q.split(".")[0] == layer]
            out[f"{layer}.self_share"] = float(self_sum[ids].sum()) / op_total
        for suite in metrics.SUITE_NAMES:
            spans = [i for i, s in self.suite_of.items() if s == suite]
            out[f"verify.{suite}.ms"] = float(dur[spans].mean()) * 1e3 if spans else 0.0
        quad, delta = (self.names.index(q) for q in ("domains.quasihyp_lower", "domains.delta"))
        in_quad = (fid == delta) & nested
        in_quad[in_quad] = fid[parent[in_quad]] == quad
        quads = np.unique(parent[in_quad]).size
        out["domains.quasihyp_lower.evals_per_call"] = float(in_quad.sum()) / quads if quads else 0.0
        out["trace.overhead_ratio"] = op_total / untraced_total
        return out

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
