"""Independent arbitrary-precision oracles for the benchmark's outputs.

Nothing here imports hypspeed.  Every expected value is re-derived with
mpmath from the plain closed-form maps and boundary distances, so agreement
is evidence about the program and not about the program agreeing with
itself.  All comparisons use a relative tolerance of 1e-9 * max(1, |x|).
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf

REL_TOL = 1e-9

mp.dps = 30


def mismatch(name: str, got: float, want, tol: float = REL_TOL) -> str | None:
    """An error message when `got` is farther than tol*max(1, |want|) from want."""
    err = abs(mpf(got) - want)
    if err <= tol * max(1, abs(want)):
        return None
    return f"{name}: got {got!r}, oracle {mpmath.nstr(want, 17)} (error {mpmath.nstr(err, 3)})"


# ---------------------------------------------------------------------------
# speed tables


def k_half(a: mpc, b: mpc) -> mpf:
    """Hyperbolic distance of the right half plane.

    m = |a - b| / |a + conj b| and the exact complement
    1 - m^2 = 4 Re a Re b / |a + conj b|^2, so that v = log(1+m) - log(1-m^2)/2
    keeps its digits as m -> 1, where atanh(m) would not.
    """
    s = abs(a + mpmath.conj(b))
    m = abs(a - b) / s
    return mpmath.log1p(m) - mpmath.log(4 * a.real * b.real / (s * s)) / 2


def halfplane_image(dom: dict, t) -> mpc:
    """W = F(h(0) + it): the orbit of the base point at time t, carried onto
    the right half plane by the domain's closed-form Riemann map."""
    t = mpf(t)
    kind = dom["type"]
    if kind == "halfplane":
        p = mpc(*dom["p"])
        return (p + 1 + 1j * t) - p
    if kind == "strip":
        r = mpf(dom["r"])
        w = r / 2 + 1j * t
        return -1j * mpmath.exp(-1j * mpmath.pi * (w - r) / r)
    if kind == "sector":
        p, a, b = mpc(*dom["p"]), mpf(dom["alpha"]), mpf(dom["beta"])
        w = p + 1j * mpmath.expj((b - a) / 2) + 1j * t
        rot = -1j * mpmath.expj(-(b - a) / 2)
        return mpmath.power(rot * (w - p), mpmath.pi / (a + b))
    if kind == "koebe":
        p = mpc(*dom["p"])
        w = p + 1j + 1j * t
        return mpmath.sqrt(-1j * (w - p))
    raise ValueError(f"no closed form for domain type {kind!r}")


def check_table_row(dom: dict, t_max: float, points: int, index: int,
                    row: tuple[float, ...]) -> list[str]:
    """Compare one `t,v,v_o,v_T,log_rho,theta` row against the closed forms.

    The grid is geometric from t_min = 1, so t itself is checked too; the
    speeds are evaluated at the printed t.
    """
    t, v, v_o, v_t, log_rho, theta = row
    w = halfplane_image(dom, t)
    r = abs(w)
    want = {
        "t": mpf(t_max) ** (mpf(index) / (points - 1)),
        "v": k_half(w, mpc(1)),
        "v_o": abs(mpmath.log(r)) / 2,
        "v_T": k_half(w, mpc(r)),
        "log_rho": mpmath.log(r),
        "theta": mpmath.arg(w),
    }
    got = {"t": t, "v": v, "v_o": v_o, "v_T": v_t, "log_rho": log_rho, "theta": theta}
    errors = (mismatch(f"row {index} {k}", got[k], want[k]) for k in want)
    return [e for e in errors if e]


# ---------------------------------------------------------------------------
# quasi-hyperbolic quadrature along the imaginary axis

#: (1/4) * integral of dr / delta(ir) over [t0, t1], for the four certify
#: domains, from their exact boundary distances along the axis
QUADRATURE = {
    # the slit {Re = 0, Im <= 0}: delta(ir) = r
    "koebe": lambda t0, t1: mpmath.log(t1 / t0) / 4,
    # boundary rays at angles pi/4 and 3pi/4: delta(ir) = r sin(pi/4)
    "sector_sym": lambda t0, t1: mpmath.log(t1 / t0) / (4 * mpmath.sin(mpmath.pi / 4)),
    # Sector(0.5j, pi, pi) is the slit below 0.5i: delta(ir) = r - 1/2
    "slit_half": lambda t0, t1: mpmath.log((t1 - mpf(1) / 2) / (t0 - mpf(1) / 2)) / 4,
    # {Re w > -1}: delta(ir) = 1
    "halfplane": lambda t0, t1: (t1 - t0) / 4,
}


def check_quadrature(dom_name: str, t0: float, t1: float, got: float) -> str | None:
    want = QUADRATURE[dom_name](mpf(t0), mpf(t1))
    return mismatch(f"quasihyp_lower({dom_name}, {t0!r}, {t1!r})", got, want)


# ---------------------------------------------------------------------------
# comb constructions

GAUGES = {
    "log1p": mpmath.log1p,
    "sqrt": mpmath.sqrt,
    "pow:0.5": lambda t: mpmath.power(t, mpf(0.5)),
    "pow:0.3": lambda t: mpmath.power(t, mpf(0.3)),
}


def _axis_delta(a: list, b: list, r: mpf) -> mpf:
    """Distance from ir to the slits {+-a_k + iy : y <= b_k}."""
    return min(a_k if r <= b_k else mpmath.hypot(a_k, r - b_k) for a_k, b_k in zip(a, b))


def _kinks(a: list, b: list, lo: mpf, hi: mpf) -> list:
    """Every height in (lo, hi) where the nearest slit, or its flat/slanted
    regime, can change: slit tops and all pairwise crossovers.  A superset
    is harmless; it only subdivides the quadrature further."""
    pts = {lo, hi}
    n = len(a)
    for i in range(n):
        pts.add(b[i])
        for k in range(n):
            if a[k] > a[i]:
                pts.add(b[i] + mpmath.sqrt(a[k] ** 2 - a[i] ** 2))
            if b[k] != b[i]:
                pts.add(((a[k] ** 2 - a[i] ** 2) / (b[k] - b[i]) + b[i] + b[k]) / 2)
    return sorted(p for p in pts if lo <= p <= hi)


class CombOracle:
    """(1/4) * integral of dr / delta(ir) from t_start to each b_{j+1}.

    On [0, b_{j+1}] the teeth beyond j+1 are never nearest (they are wider
    and taller), so the value for step j depends on the first j+1 teeth only
    and is shared by every construction with the same prefix.  Memoised per
    prefix: one Gauss-Legendre pass per slit interval.
    """

    def __init__(self, t_start: float = 1e-6):
        self.t_start = mpf(t_start)
        self._cum: dict[tuple, mpf] = {}

    def bound(self, a: tuple, b: tuple, j: int) -> mpf:
        """The bound for step j (1-based) of the construction with teeth (a, b)."""
        key = (a[: j + 1], b[: j + 1])
        if key not in self._cum:
            am, bm = [mpf(x) for x in key[0]], [mpf(x) for x in key[1]]
            lo = self.t_start if j == 1 else bm[j - 1]
            prev = 0 if j == 1 else self.bound(a, b, j - 1) * 4
            piece = mpmath.quad(lambda r: 1 / _axis_delta(am, bm, r),
                                _kinks(am, bm, lo, bm[j]), method="gauss-legendre")
            self._cum[key] = (prev + piece) / 4
        return self._cum[key]

    def check(self, gauge_name: str, a: tuple, b: tuple, rows: list[dict]) -> list[str]:
        g = GAUGES[gauge_name]
        errors = []
        for row in rows:
            j = row["j"]
            bound = self.bound(a, b, j)
            gb = g(mpf(b[j]))
            errors += [e for e in (
                mismatch(f"comb {gauge_name} step {j} bound", row["bound"], bound),
                mismatch(f"comb {gauge_name} step {j} gauge", row["gauge"], gb),
                mismatch(f"comb {gauge_name} step {j} ratio", row["ratio"], bound / gb),
            ) if e]
            if bound / gb < mpf(j) / 4:
                errors.append(f"comb {gauge_name} step {j}: oracle ratio below {j}/4")
        return errors


# ---------------------------------------------------------------------------
# verification suites


def check_suite_report(report: dict, name: str, seed: int, expected_samples: int) -> list[str]:
    """A suite passes with zero violations, its own name and seed, and the
    sample count its definition fixes."""
    errors = []
    if report["suite"] != name or report["seed"] != seed:
        errors.append(f"{name}: report is for {report['suite']!r} seed {report['seed']}")
    if report["violations"] != 0:
        errors.append(f"{name} seed {seed}: {report['violations']} violations "
                      f"(worst margin {report['worst_margin']!r})")
    if report["samples"] != expected_samples:
        errors.append(f"{name} seed {seed}: {report['samples']} samples, "
                      f"expected {expected_samples}")
    return errors
