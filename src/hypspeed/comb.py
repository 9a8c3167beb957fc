"""Comb domains whose total speed beats a prescribed sublinear gauge.

Given g with g(t) -> inf and g(t)/t -> 0, slits at +-a_j are cut off at
heights b_j chosen so that the quasi-hyperbolic lower bound along the orbit
axis reaches at least (j/4) g(b_{j+1}) at time b_{j+1}.  The key geometric
quantity is x_j, the height where the tooth j+1 wall becomes the nearest
boundary piece: |i x_j - (a_j + i b_j)| = a_{j+1}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

from .domains import Comb, _abscissa_squares, _axis_integrals

_PROBE_GRID = [10.0 ** k for k in range(3, 13)]
_MARGIN = 0.999
#: the tooth search's certified bracket: half-width r 2^-46 around the
#: crossing r, where the constraint must clear the margin by 2^-48
_BRACKET = 2.0 ** -46
_CLEARANCE = 2.0 ** -48
_SECANT_STEPS = 8
_SECANT_TOL = 2.0 ** -40
_T_START = 1e-6


def gauge(spec) -> tuple[str, Callable[[float], float]]:
    """Resolve a gauge spec to (name, callable).

    Accepts 'log1p', 'sqrt', 'pow:<p>' or ('pow', p) with p < 1, or any
    callable.
    """
    if callable(spec):
        return getattr(spec, "__name__", "custom"), spec
    if spec == "log1p":
        return "log1p", math.log1p
    if spec == "sqrt":
        return "sqrt", math.sqrt
    if isinstance(spec, str) and spec.startswith("pow:"):
        spec = ("pow", spec.split(":", 1)[1])
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "pow":
        p = float(spec[1])
        if not 0.0 < p < 1.0:
            raise ValueError("pow gauge needs an exponent in (0, 1)")
        return f"pow:{p:g}", lambda t: t ** p
    raise ValueError(f"unknown gauge spec {spec!r}")


def check_sublinear(g: Callable[[float], float]) -> None:
    """Reject gauges that are not positive and increasing, with g(t)/t
    strictly decreasing, over each decade of the probe grid."""
    for T in _PROBE_GRID:
        lo, hi = g(T / 10.0), g(T)
        if not (hi > lo > 0.0):
            raise ValueError("gauge must be positive and increasing on the probe grid")
        if not hi / T < lo / (T / 10.0):
            raise ValueError(f"gauge is not sublinear on the probe grid (t = {T:g})")


def resolve_abscissae(a_spec, count: int) -> list[float]:
    """First `count` tooth abscissae from 'linear', 'geom:<ratio>', the text
    'a,b,c' or a list or tuple of numbers; each must be finite, so a ratio
    whose powers overflow is refused."""
    if a_spec == "linear":
        return [float(j) for j in range(1, count + 1)]
    if isinstance(a_spec, str) and a_spec.startswith("geom:"):
        ratio = float(a_spec.split(":", 1)[1])
        if ratio <= 1.0:
            raise ValueError("geometric abscissae need ratio > 1")
        try:
            a = [ratio ** j for j in range(count)]
        except OverflowError:
            a = [math.inf]
    else:
        if isinstance(a_spec, str):
            a_spec = [float(x) for x in a_spec.split(",")]
        if not (isinstance(a_spec, (list, tuple)) and all(isinstance(x, Real) for x in a_spec)):
            raise ValueError(f"unknown abscissa spec {a_spec!r}")
        if len(a_spec) < count:
            raise ValueError(f"need {count} abscissae, got {len(a_spec)}")
        a = [float(x) for x in a_spec[:count]]
    if not all(map(math.isfinite, a)):
        raise ValueError("abscissae must be finite")
    return a


@dataclass(frozen=True)
class CombConstruction:
    """The certified construction: teeth (a_j, b_j), plateau onsets x_j, the
    per-step constraint values (j a_{j+1} g(b_{j+1}) + x_j)/b_{j+1}, and the
    gauge g the construction was built for."""

    gauge_name: str
    a: tuple[float, ...]
    b: tuple[float, ...]
    x: tuple[float, ...]
    constraint: tuple[float, ...]
    extent: float
    g: Callable[[float], float] = field(compare=False, repr=False)

    @property
    def steps(self) -> int:
        return len(self.x)

    def domain(self) -> Comb:
        return Comb(tuple(zip(self.a, self.b)))


def _bracket(g, c: float, xj: float, hi: float, q_hi: float) -> tuple[float, float] | None:
    """(below, above) such that the constraint q(t) = (c g(t) + x_j) / t,
    evaluated in floating point, exceeds the margin at every double t <
    below and stays under it at every double t > above; None when that
    cannot be shown.

    For a concave g with g(0) = 0, c t g'(t) <= c g(t), so q'(t) <= -x_j /
    t^2: q strictly decreases.  Secant steps on the convex f(t) = margin t -
    c g(t) - x_j find its root r, starting from the doubling's end hi and
    from hi q(hi) / margin, which lies in (r, hi] at no cost.  q is then
    evaluated at r (1 -+ 2^-46) and must clear the margin by a relative
    2^-48 at both.  That is far more than the about 2.5 ulp by which the
    float q can differ from the exact one when g is within 1 ulp (libm's
    log1p and pow) or exact (sqrt), so by monotonicity every double beyond
    those two points is decided the same way."""
    t0, f0 = hi, (_MARGIN - q_hi) * hi
    t1 = hi * q_hi / _MARGIN
    f1 = _MARGIN * t1 - c * g(t1) - xj
    for _ in range(_SECANT_STEPS):
        if f1 == f0:
            break
        step = f1 * (t1 - t0) / (f1 - f0)
        t0, t1, f0 = t1, t1 - step, f1
        if not 0.0 < t1 < math.inf:
            return None
        if abs(step) <= _SECANT_TOL * t1:
            break  # the next error is about this step times the last: far inside the bracket
        f1 = _MARGIN * t1 - c * g(t1) - xj
    below, above = t1 * (1.0 - _BRACKET), t1 * (1.0 + _BRACKET)
    if ((c * g(below) + xj) / below > _MARGIN * (1.0 + _CLEARANCE)
            and (c * g(above) + xj) / above < _MARGIN * (1.0 - _CLEARANCE)):
        return below, above
    return None


def _tooth_height(g, c: float, xj: float, builtin: bool) -> tuple[float, float]:
    """The height b_{j+1} and its constraint q(b_{j+1}), q(t) = (c g(t) +
    x_j) / t: doubling from 2 x_j to a height with q <= margin, then up to
    60 bisections of [x_j, hi] that stop at a fixed point.  A built-in
    gauge's midpoint above its `_bracket` passes and one below it fails by
    comparison alone; only the midpoints inside, or every one when there
    is no bracket, evaluate g, and every test, so every bit of the result,
    is that of the plain loop.  A midpoint decided by comparison is never
    lo or hi, since `below` fails and `above` passes, so only a tested one
    can reach the fixed point."""
    hi = 2.0 * xj
    for _ in range(512):
        q_hi = (c * g(hi) + xj) / hi
        if q_hi <= _MARGIN:
            break
        hi *= 2.0
    else:
        raise ValueError("gauge grows too fast for the doubling search")
    below, above = builtin and _bracket(g, c, xj, hi, q_hi) or (-math.inf, math.inf)
    lo = xj
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid > above:
            hi, q_hi = mid, None  # passed without a value
        elif mid < below:
            lo = mid
        else:
            q = (c * g(mid) + xj) / mid
            if q <= _MARGIN:
                if mid == hi:
                    break  # a fixed point: every later iteration repeats this one
                hi, q_hi = mid, q
            elif mid == lo:
                break
            else:
                lo = mid
    return hi, (c * g(hi) + xj) / hi if q_hi is None else q_hi


def build_comb(g_spec, a_spec="linear", steps: int = 10) -> CombConstruction:
    """Construct a comb certifying `steps` ratio milestones.

    Materialises steps + 1 teeth: b_1 = 1 and each b_{j+1} is the smallest
    height (doubling search, then up to 60 bisections that stop at a fixed
    point; margin 0.999) satisfying the strict growth constraint, which
    forces b_{j+1} - x_j >= j a_{j+1} g(b_{j+1}).

    For the built-in gauges log1p, sqrt and pow:p, chosen by the spec and
    never by a callable's name, g is sublinear by definition, so only
    callable gauges take `check_sublinear`'s probe.  Each
    built-in g is also concave with g(0) = 0, so the constraint strictly
    decreases in the height.  A bracket of relative width 2^-45 around its
    crossing is then certified with a margin of 2^-48 (`_bracket`; it
    assumes libm's log1p and pow within 1 ulp, sqrt being exact), and the
    bisection calls g only for the midpoints inside it, for the same bits.
    Callable gauges, and any step whose bracket fails its check, bisect on
    g alone.
    """
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(f"the step count must be an integer, got {steps!r}") from None
    if steps < 1:
        raise ValueError("need at least one construction step")
    name, g = gauge(g_spec)
    # the spec, not a callable's name, marks the built-in gauges log1p,
    # sqrt and pow:p, each sublinear, concave and with g(0) = 0
    builtin = not callable(g_spec)
    if not builtin:
        check_sublinear(g)
    a = resolve_abscissae(a_spec, steps + 1)
    if any(y <= x for x, y in zip(a[:-1], a[1:])):
        raise ValueError("abscissae must strictly increase")
    squares = _abscissa_squares(a)
    b = [1.0]
    xs, cons = [], []
    for j in range(1, steps + 1):
        xj = b[-1] + math.sqrt(squares[j] - squares[j - 1])
        hi, q_hi = _tooth_height(g, j * a[j], xj, builtin)
        xs.append(xj)
        cons.append(q_hi)
        b.append(hi)
    return CombConstruction(name, tuple(a), tuple(b), tuple(xs), tuple(cons), b[-1], g)


def verify_comb(cc: CombConstruction) -> list[dict]:
    """Ratio table quasihyp_lower(0+, b_{j+1}) / g(b_{j+1}) for each step j.

    The integral starts at `_T_START` = 1e-6 rather than 0 (the first plateau
    makes the omitted piece smaller than 1e-6 / (4 a_1)).  Raises if any
    ratio drops below j/4 - 1e-9; the construction guarantees it cannot.
    """
    g = cc.g
    bounds = _axis_integrals(cc.domain(), _T_START, cc.b[1:])
    rows = []
    for j, (bj1, bound) in enumerate(zip(cc.b[1:], bounds), start=1):
        gj = g(bj1)
        ratio = bound / gj
        if ratio < j / 4.0 - 1e-9:
            raise AssertionError(f"comb ratio {ratio:g} fell below {j}/4 at step {j}")
        rows.append({
            "j": j,
            "b": bj1,
            "x": cc.x[j - 1],
            "bound": bound,
            "gauge": gj,
            "ratio": ratio,
            "plateau_piece": (bj1 - cc.x[j - 1]) / (4.0 * cc.a[j]),
        })
    return rows
