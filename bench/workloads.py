"""The three benchmark workloads: seeded op generators, the timed calls into
hypspeed, and the per-op correctness checks.

Each workload hands out ops in *rounds*.  A round is a fixed, balanced mix
(every domain, every time range, every suite, every gauge and step-count
stratum once) in a seeded shuffled order, so two seeds differ in order and
continuous parameters but not in the mix, and whole rounds can be compared.
`kind` groups ops of similar cost, for `refclock`.

Checks are split in two.  `check` runs after each op, outside the timed
region, and is cheap: exit codes, determinism of repeated inputs, the split
inequality on every table row.  `oracle_failures` runs once after the timed
loop and compares against the mpmath oracles in `oracle.py`; it is kept out
of the loop so that neither its time nor its memory counts against the
workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from hypspeed import cli, comb, domains, verify

LOG2 = math.log(2.0)

# ---------------------------------------------------------------------------
# tables: one `hypspeed speeds` invocation per op

#: the five verify.BUILTIN_DOMAINS, then shifted, asymmetric and wider ones
TABLE_DOMAINS = (
    {"type": "strip", "r": math.pi / 2},
    {"type": "halfplane", "p": [0.0, 0.0]},
    {"type": "sector", "p": [0.0, 0.0], "alpha": math.pi / 4, "beta": math.pi / 4},
    {"type": "sector", "p": [0.0, 0.0], "alpha": math.pi, "beta": 0.0},
    {"type": "koebe", "p": [0.0, 0.0]},
    {"type": "sector", "p": [1.0, -2.0], "alpha": 0.7, "beta": 1.9},
    {"type": "sector", "p": [0.0, 0.5], "alpha": math.pi, "beta": math.pi},
    {"type": "koebe", "p": [2.0, 1.0]},
    {"type": "strip", "r": 3.0},
    {"type": "halfplane", "p": [-1.0, 2.0]},
)
TABLE_T_MAX = ("1e8", "1e12")
TABLE_POINTS = 512
#: table rows per op re-evaluated by the mpmath oracle
ORACLE_ROWS = 4
CSV_HEADER = "t,v,v_o,v_T,log_rho,theta"


def split_errors(rows: list[tuple[float, ...]]) -> list[str]:
    """v_o + v_T - log(2)/2 <= v <= v_o + v_T on every row, speeds >= 0."""
    errors = []
    for i, (_t, v, v_o, v_t, _l, _th) in enumerate(rows):
        tol = 1e-9 * max(1.0, abs(v))
        if not (v_o + v_t - 0.5 * LOG2 - tol <= v <= v_o + v_t + tol
                and min(v, v_o, v_t) >= -tol):
            errors.append(f"row {i}: split violated (v={v!r}, v_o={v_o!r}, v_T={v_t!r})")
    return errors


def parse_table(text: str) -> list[tuple[float, ...]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


class Tables:
    """`hypspeed speeds --domain D --t-max T --points 512`, in process, with
    stdout captured in memory.  Each round runs all 20 (domain, t_max)
    pairs once."""

    name = "tables"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed + 1)
        self.argvs = [["speeds", "--domain", json.dumps(dom), "--t-max", t_max,
                       "--points", str(TABLE_POINTS)]
                      for dom in TABLE_DOMAINS for t_max in TABLE_T_MAX]
        self.first: dict[int, str] = {}        # argv index -> first CSV
        self.rows: dict[int, list] = {}        # argv index -> parsed rows
        self.pending: dict[tuple, list] = {}   # (argv index, row) -> op indices

    def round(self) -> list[int]:
        ops = list(range(len(self.argvs)))
        self.rng.shuffle(ops)
        return ops

    def kind(self, op: int):
        return op

    def run(self, op: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                cli.main(self.argvs[op])
                code = 0
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, idx: int, op: int, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"{self.argvs[op]}: exit status {code}"]
        if op in self.first:
            if text != self.first[op]:
                return [f"{self.argvs[op]}: CSV bytes differ from an earlier identical run"]
        else:
            rows = parse_table(text)
            if len(rows) != TABLE_POINTS:
                return [f"{self.argvs[op]}: {len(rows)} rows"]
            errors = split_errors(rows)
            if errors:
                return errors[:3]
            self.first[op], self.rows[op] = text, rows
        for i in self.check_rng.sample(range(TABLE_POINTS), ORACLE_ROWS):
            self.pending.setdefault((op, i), []).append(idx)
        return []

    def oracle_failures(self) -> dict[int, list[str]]:
        import oracle

        failures: dict[int, list[str]] = {}
        for (op, i), idxs in self.pending.items():
            dom = TABLE_DOMAINS[op // len(TABLE_T_MAX)]
            t_max = float(TABLE_T_MAX[op % len(TABLE_T_MAX)])
            errors = oracle.check_table_row(dom, t_max, TABLE_POINTS, i, self.rows[op][i])
            for idx in idxs if errors else ():
                failures.setdefault(idx, []).extend(errors)
        return failures


# ---------------------------------------------------------------------------
# suites: one verify.run_suite per op

#: samples each suite reports at its default n, from the suite definitions
#: (e.g. lemma_halfplane draws 6 per n = 10_000; split covers 5 x 512 rows)
EXPECTED_SAMPLES = {
    "lemma_halfplane": 60_000, "pythagoras": 10_000, "contraction": 10_000,
    "chains": 256, "split": 2560, "julia_tangent": 2560, "surrogates": 2560,
    "lower_bounds": 2560, "betsakos": 2048, "sector_asymptotics": 8,
    "basepoint": 1280, "conjugation": 240, "semigroup_model": 40,
    "nontangential": 2048, "comb": 10,
}


class Suites:
    """`verify.run_suite(name, seed=s)` at the default n with a fresh seed per
    op; each round runs all 15 suites once."""

    name = "suites"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.names = sorted(EXPECTED_SAMPLES)
        self.reports: list[tuple[int, str, int, dict]] = []

    def round(self) -> list[tuple[str, int]]:
        names = list(self.names)
        self.rng.shuffle(names)
        return [(name, self.rng.randrange(2 ** 31)) for name in names]

    def kind(self, op):
        return op[0]

    def run(self, op):
        name, seed = op
        return verify.run_suite(name, seed=seed)

    def check(self, idx: int, op, out) -> list[str]:
        self.reports.append((idx, op[0], op[1], out.to_dict()))
        return []

    def oracle_failures(self) -> dict[int, list[str]]:
        import oracle

        failures = {}
        for idx, name, seed, report in self.reports:
            errors = oracle.check_suite_report(report, name, seed, EXPECTED_SAMPLES[name])
            if errors:
                failures[idx] = errors
        return failures


# ---------------------------------------------------------------------------
# certify: quasi-hyperbolic quadrature and comb certification

CERTIFY_DOMAINS = {
    "koebe": domains.Koebe(0j),
    "sector_sym": domains.Sector(0j, math.pi / 4, math.pi / 4),
    "slit_half": domains.Sector(0.5j, math.pi, math.pi),
    "halfplane": domains.HalfPlaneRight(-1 + 0j),
}
GAUGES = {"log1p": "log1p", "sqrt": "sqrt", "pow:0.5": ("pow", 0.5), "pow:0.3": ("pow", 0.3)}
#: strata of log(t1/t0) and of comb steps; one op per (domain or gauge, stratum)
LOG_RATIO_STRATA = ((1.0, 5.25), (5.25, 9.5), (9.5, 13.75), (13.75, 18.0))
STEP_STRATA = ((2, 5), (6, 9), (10, 13), (14, 16))


class Certify:
    """`domains.quasihyp_lower(dom, t0, t1)` with t0 in [0.6, 2] and
    log(t1/t0) in [1, 18], or `comb.build_comb(g, "linear", steps)` followed
    by `comb.verify_comb`.  A round holds 16 of each."""

    name = "certify"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.quads: list[tuple[int, str, float, float, float]] = []
        self.combs: dict[tuple[str, int], tuple] = {}   # first output per input
        self.comb_ops: dict[tuple[str, int], list[int]] = {}

    def round(self) -> list[tuple]:
        ops = []
        for dom in CERTIFY_DOMAINS:
            for lo, hi in LOG_RATIO_STRATA:
                t0 = self.rng.uniform(0.6, 2.0)
                ops.append(("quad", dom, t0, t0 * math.exp(self.rng.uniform(lo, hi))))
        for g in GAUGES:
            for lo, hi in STEP_STRATA:
                ops.append(("comb", g, self.rng.randint(lo, hi)))
        self.rng.shuffle(ops)
        return ops

    def kind(self, op):
        return op[:2]

    def run(self, op):
        if op[0] == "quad":
            return domains.quasihyp_lower(CERTIFY_DOMAINS[op[1]], op[2], op[3])
        cc = comb.build_comb(GAUGES[op[1]], "linear", op[2])
        return cc, comb.verify_comb(cc)

    def check(self, idx: int, op, out) -> list[str]:
        if op[0] == "quad":
            if not (math.isfinite(out) and out > 0.0):
                return [f"{op}: {out!r} is not a positive bound"]
            self.quads.append((idx, op[1], op[2], op[3], out))
            return []
        key = op[1:]
        self.comb_ops.setdefault(key, []).append(idx)
        if key in self.combs:
            if out != self.combs[key]:
                return [f"{op}: output differs from an earlier identical run"]
            return []
        cc, rows = out
        errors = []
        if [r["j"] for r in rows] != list(range(1, op[2] + 1)):
            errors.append(f"{op}: ratio table has steps {[r['j'] for r in rows]}")
        if not all(c < 1.0 for c in cc.constraint):
            errors.append(f"{op}: a growth constraint is not below 1")
        if not all(y > x for x, y in zip(cc.b[:-1], cc.b[1:])):
            errors.append(f"{op}: tooth heights do not increase")
        self.combs[key] = out
        return errors

    def oracle_failures(self) -> dict[int, list[str]]:
        import oracle

        failures: dict[int, list[str]] = {}
        for idx, dom, t0, t1, got in self.quads:
            error = oracle.check_quadrature(dom, t0, t1, got)
            if error:
                failures[idx] = [error]
        certifier = oracle.CombOracle()
        for key, (cc, rows) in self.combs.items():
            errors = certifier.check(key[0], cc.a, cc.b, rows)
            for idx in self.comb_ops[key] if errors else ():
                failures.setdefault(idx, []).extend(errors)
        return failures


WORKLOADS = {w.name: w for w in (Tables, Suites, Certify)}
