"""Total, orthogonal and tangential speeds of semigroup orbits.

With tau the Denjoy-Wolff point and rho_t e^{i theta_t} the half-plane image
of the orbit, the three speeds are exactly

    v(t)   = k_H(1, rho_t e^{i theta_t})
    v_o(t) = k_H(1, rho_t)             = |log rho_t| / 2
    v_T(t) = k_H(rho_t e^{i theta_t}, rho_t)

The whole pipeline runs in (log rho, theta) coordinates, so nothing here
overflows before t ~ 1e12 even for hyperbolic semigroups whose rho_t grows
like exp(lambda t).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .domains import DomainSpec, OmegaSign, contains, delta_pm
from .hyperbolic import (ORIGIN, DiscPoint, DomainError, HalfPlanePoint,
                         k_half, tangential_distance)
from .mapchain import LOG2, LogPolar
from .semigroups import KoenigsSemigroup, orbit_halfplane

_BASE = HalfPlanePoint(0.0, 0.0, 1.0)


def _fields_equal(self, other):
    """Field-wise equality by np.array_equal, for a record whose fields may
    be arrays: the dataclass default compares tuples of arrays, which raises
    for arrays of more than one element."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(map(np.array_equal, vars(self).values(), vars(other).values()))


@dataclass(frozen=True)
class SpeedSample:
    """Exact speeds and half-plane coordinates at one orbit time, as floats,
    or along a time grid, as read-only float64 columns: a table, whose rows
    come by index or iteration and whose slices and masks are tables."""

    t: float
    v: float
    v_o: float
    v_T: float
    log_rho: float
    theta: float

    def __post_init__(self):
        for name, col in list(vars(self).items()):
            col = np.array(col, dtype=float)  # a copy the caller cannot write
            col.flags.writeable = False
            object.__setattr__(self, name, col if col.ndim else float(col))
        if np.ndim(self.t) > 1 or {np.shape(c) for c in vars(self).values()} != {np.shape(self.t)}:
            raise ValueError("a speed table needs six columns of one length")
        v, v_o, v_T = self.v, self.v_o, self.v_T
        # 2 to 4 ulp of the speed: cosh 2v = cosh 2v_o cosh 2v_T, so once
        # v_o and v_T are both large the lower split is attained to rounding
        slack = np.maximum(1.0, v) * 2.0 ** -51
        if np.any(np.stack([v, v_o, v_T]) < -slack):
            raise ValueError("speeds must be nonnegative")
        if not np.all((v_o + v_T - 0.5 * LOG2 - slack <= v) & (v <= v_o + v_T + slack)):
            raise ValueError("sample violates the orthogonal/tangential split")

    __eq__ = _fields_equal

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> SpeedSample:
        return SpeedSample(*(col[i] for col in vars(self).values()))


def speeds_from_halfplane(hp: LogPolar) -> tuple[float, float, float]:
    """(v, v_o, v_T) of a half-plane point relative to the base point 1."""
    v = k_half(_BASE, hp)
    v_o = 0.5 * abs(hp.log_rho)
    v_t = tangential_distance(hp.theta, hp.cos)
    return v, v_o, v_t


def sample_speeds(sg: KoenigsSemigroup, grid, z: DiscPoint = ORIGIN) -> SpeedSample:
    """The exact speed table along a nonnegative, sorted time grid (any
    iterable of reals); a NaN time is neither, so it is rejected."""
    ts = np.fromiter(grid, dtype=float)
    if not ((ts >= 0.0).all() and (ts[1:] >= ts[:-1]).all()):
        raise ValueError("grid must be nonnegative and sorted")
    rows = []
    for t in ts.tolist():  # one scalar orbit pass per Python float time, the bits the CSV pins
        hp = orbit_halfplane(sg, z, t)
        rows.append((t, *speeds_from_halfplane(hp), hp.log_rho, hp.theta))
    cells = np.fromiter(chain.from_iterable(rows), dtype=float, count=6 * ts.size)
    return SpeedSample(*cells.reshape(ts.size, 6).T)


def default_grid(t_min: float = 1.0, t_max: float = 1e8, points: int = 512) -> list[float]:
    """Geometric time grid; with t_min == 0 the first point is pinned at 0."""
    try:
        points = operator.index(points)
    except TypeError:
        raise ValueError(f"the point count must be an integer, got {points!r}") from None
    if not (points >= 2 and 0 <= t_min < t_max < math.inf):
        raise ValueError("need points >= 2 and 0 <= t_min < t_max < inf")
    if t_min == 0.0:
        return [0.0] + np.geomspace(t_max * 1e-9, t_max, points - 1).tolist()
    return np.geomspace(t_min, t_max, points).tolist()


# ---------------------------------------------------------------------------
# Euclidean surrogates


@dataclass(frozen=True)
class SurrogateSpeeds:
    """Euclidean stand-ins for the three speeds with their deviations.

    s_total = -0.5 log(1 - |eta|), s_orth = -0.5 log|tau - eta|, and
    s_tang = s_total - s_orth (an algebraic identity of the three logs).
    Deviation bounds only apply from the first time Re(conj(tau) eta) >= 0,
    equivalently log rho >= 0; earlier samples carry pre_threshold=True.
    For an array of times every field but ``t`` is an array; for one time
    they are float64 scalars and ``pre_threshold`` a bool.
    """

    t: float
    s_total: float
    s_orth: float
    s_tang: float
    dev_total: float
    dev_orth: float
    dev_tang: float
    pre_threshold: bool

    __eq__ = _fields_equal


def _log1p_abs_eta(L, c):
    """log(1 + |eta|) for eta = (w-1)/(w+1), |eta|^2 = (cosh L - c)/(cosh L + c)."""
    with np.errstate(over="ignore", invalid="ignore"):  # at |L| > 30, not kept
        sh = np.sinh(0.5 * L)
        num = sh * sh + 0.5 * (1.0 - c)
        den = sh * sh + 0.5 * (1.0 + c)
        near = np.log1p(np.sqrt(num / den))
    return np.where(np.abs(L) > 30.0, LOG2, near)


def surrogate_speeds(sg: KoenigsSemigroup, t: float, z: DiscPoint = ORIGIN) -> SurrogateSpeeds:
    """Euclidean surrogate triple at one orbit time, with deviations from the
    exact speeds.

    Everything runs off the log-polar pipeline: with w = rho e^{i theta},
    |tau - eta| = 2/|w+1| and 1 - |eta| = 4 Re(w) / (|w+1|^2 (1+|eta|)), and
    for every L = log rho, with e = exp(-|L|),
    log|w+1| = max(L, 0) + log1p((2 cos theta + e) e)/2, which never
    overflows.  The (log rho)/2 piece common to the speeds and the
    surrogates is kept symbolic so the reported deviations never suffer
    large-term cancellation even when log rho is of order 1e8.  One time is
    a 0-d pass with float64 fields; an array of times is one array pass.
    """
    hp = orbit_halfplane(sg, z, t)
    v, v_o, v_t = speeds_from_halfplane(hp)
    L, c = hp.log_rho, hp.cos
    half_l = 0.5 * L
    e = np.exp(-np.abs(L))
    corr = np.maximum(-L, 0.0) + 0.5 * np.log1p((2.0 * c + e) * e)  # log|w+1| - L
    # s_total - L/2 and s_orth - L/2, both O(1) from the threshold on:
    y_total = -0.5 * (math.log(4.0) + np.log(c) - 2.0 * corr - _log1p_abs_eta(L, c))
    y_orth = 0.5 * (corr - LOG2)
    s_total, s_orth = half_l + y_total, half_l + y_orth
    return SurrogateSpeeds(
        t=t,
        s_total=s_total,
        s_orth=s_orth,
        s_tang=s_total - s_orth,
        dev_total=(v - half_l) - y_total,
        dev_orth=(v_o - half_l) - y_orth,
        dev_tang=v_t - (y_total - y_orth),
        pre_threshold=L < 0.0,
    )


# ---------------------------------------------------------------------------
# asymptotic coefficient fits


_FIT_MIN_SAMPLES = 20


@dataclass(frozen=True)
class AsymptoticFit:
    basis: str
    coefficient: float
    sup_residual: float
    window: tuple[float, float]


def fit_asymptotic(table: SpeedSample, series: str, basis: str, window) -> AsymptoticFit:
    """Least-squares slope of a speed series against log t or t on a window.

    sup_residual reports max |series - coefficient * basis| over the window,
    i.e. the size of the additive constant the paper-style bounds allow.
    """
    if basis not in ("log_t", "t"):
        raise ValueError("basis must be 'log_t' or 't'")
    if series not in ("v", "v_o", "v_T"):
        raise ValueError("series must be one of 'v', 'v_o', 'v_T'")
    if np.shape(window) != (2,) or not all(isinstance(x, Real) for x in window):
        raise ValueError(f"window must be two numbers, got {window!r}")
    lo, hi = float(window[0]), float(window[1])
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    inside = table[(lo <= table.t) & (table.t <= hi)]
    if len(inside) < _FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {_FIT_MIN_SAMPLES} samples in the window, "
                         f"got {len(inside)}")
    xs = np.log(inside.t) if basis == "log_t" else inside.t
    ys = getattr(inside, series)
    slope, _intercept = np.polyfit(xs, ys, 1)
    sup = float(np.max(np.abs(ys - slope * xs)))
    return AsymptoticFit(basis, float(slope), sup, (lo, hi))


# ---------------------------------------------------------------------------
# non-tangentiality criterion


def nontangential_ratio(sg: KoenigsSemigroup, p, t: float) -> float:
    """min{t, delta_{Omega^-}(p+it)} / min{t, delta_{Omega^+}(p+it)}.

    Boundedness of max(ratio, 1/ratio) over a grid is the geometric side of
    the non-tangential convergence criterion; the dynamic side is a bounded
    tangential speed.  An array of times gives an array of ratios.
    """
    if not np.all((np.asarray(t) > 0) & np.isfinite(t)):
        raise ValueError("the criterion compares positive finite times")
    dom: DomainSpec = sg.image_domain
    p = complex(p)
    if not contains(dom, p):
        raise DomainError("the reference point must lie in the image domain")
    q = p + 1j * t
    d_minus = delta_pm(dom, OmegaSign("minus", p), q)
    d_plus = delta_pm(dom, OmegaSign("plus", p), q)
    # min(t, d) as Python takes it: d only where d < t
    return np.where(d_minus < t, d_minus, t) / np.where(d_plus < t, d_plus, t)
