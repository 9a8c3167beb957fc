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
from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, OmegaSign, contains, delta_pm
from .hyperbolic import (ORIGIN, DiscPoint, DomainError, HalfPlanePoint,
                         k_half, tangential_distance)
from .mapchain import LOG2, LogPolar, _cabs, _cartesian, _cdiv
from .semigroups import KoenigsSemigroup, orbit_halfplane

_BASE = HalfPlanePoint(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SpeedSample:
    """One orbit time with its exact speeds and half-plane coordinates."""

    t: float
    v: float
    v_o: float
    v_T: float
    log_rho: float
    theta: float

    def __post_init__(self):
        slack = 1e-6  # loose construction sanity; suites assert at 1e-9
        if min(self.v, self.v_o, self.v_T) < -slack:
            raise ValueError("speeds must be nonnegative")
        if not (self.v_o + self.v_T - 0.5 * LOG2 - slack <= self.v <= self.v_o + self.v_T + slack):
            raise ValueError("sample violates the orthogonal/tangential split")


def speeds_from_halfplane(hp: LogPolar) -> tuple[float, float, float]:
    """(v, v_o, v_T) of a half-plane point relative to the base point 1."""
    v = k_half(_BASE, hp)
    v_o = 0.5 * abs(hp.log_rho)
    v_t = tangential_distance(hp.theta, hp.cos)
    return v, v_o, v_t


def sample_speeds(sg: KoenigsSemigroup, grid, z: DiscPoint = ORIGIN) -> list[SpeedSample]:
    """Exact speed samples along a nonnegative, sorted time grid."""
    ts = [float(t) for t in grid]
    if any(t < 0 for t in ts) or any(b < a for a, b in zip(ts[:-1], ts[1:])):
        raise ValueError("grid must be nonnegative and sorted")
    out = []
    for t in ts:
        hp = orbit_halfplane(sg, z, t)
        v, v_o, v_t = speeds_from_halfplane(hp)
        out.append(SpeedSample(t, v, v_o, v_t, hp.log_rho, hp.theta))
    return out


def default_grid(t_min: float = 1.0, t_max: float = 1e8, points: int = 512) -> list[float]:
    """Geometric time grid; with t_min == 0 the first point is pinned at 0."""
    if not (points >= 2 and 0 <= t_min < t_max < math.inf):
        raise ValueError("need points >= 2 and 0 <= t_min < t_max < inf")
    if t_min == 0.0:
        inner = np.geomspace(t_max * 1e-9, t_max, points - 1)
        return [0.0] + [float(t) for t in inner]
    return [float(t) for t in np.geomspace(t_min, t_max, points)]


# ---------------------------------------------------------------------------
# Euclidean surrogates


@dataclass(frozen=True)
class SurrogateSpeeds:
    """Euclidean stand-ins for the three speeds with their deviations.

    s_total = -0.5 log(1 - |eta|), s_orth = -0.5 log|tau - eta|, and
    s_tang = s_total - s_orth (an algebraic identity of the three logs).
    Deviation bounds only apply from the first time Re(conj(tau) eta) >= 0,
    equivalently log rho >= 0; earlier samples carry pre_threshold=True.
    For an array of times every field but ``t`` is an array.
    """

    t: float
    s_total: float
    s_orth: float
    s_tang: float
    dev_total: float
    dev_orth: float
    dev_tang: float
    pre_threshold: bool


def _log1p_abs_eta(hp: LogPolar) -> float:
    """log(1 + |eta|) for eta = (w-1)/(w+1), |eta|^2 = (cosh L - c)/(cosh L + c)."""
    L, c = hp.log_rho, hp.cos
    if abs(L) > 30.0:
        return LOG2  # |eta| = 1 to far below double resolution
    sh = math.sinh(0.5 * L)
    num = sh * sh + 0.5 * (1.0 - c)
    den = sh * sh + 0.5 * (1.0 + c)
    return math.log1p(math.sqrt(num / den))


def _log1p_abs_eta_array(hp: LogPolar) -> np.ndarray:
    L, c = hp.log_rho, hp.cos
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
    log|w+1| = log rho + corr with corr = log1p((2 cos theta + 1/rho)/rho).
    The (log rho)/2 piece common to the speeds and the surrogates is kept
    symbolic so the reported deviations never suffer large-term cancellation
    even when log rho is of order 1e8.  An array of times is one array pass.
    """
    hp = orbit_halfplane(sg, z, t)
    v, v_o, v_t = speeds_from_halfplane(hp)
    if isinstance(hp.log_rho, np.ndarray):
        return _surrogate_speeds_array(t, hp, v, v_o, v_t)
    L, c = hp.log_rho, hp.cos
    half_l = 0.5 * L
    if L >= 0.0:
        e = math.exp(-L)
        corr = 0.5 * math.log1p((2.0 * c + e) * e)  # log|w+1| - L
        # s_total - L/2 and s_orth - L/2, both O(1):
        y_total = -0.5 * (math.log(4.0) + math.log(c) - 2.0 * corr - _log1p_abs_eta(hp))
        y_orth = corr - 0.5 * LOG2
        s_total, s_orth = half_l + y_total, half_l + y_orth
        dev_total = (v - half_l) - y_total
        dev_orth = (v_o - half_l) - y_orth
        dev_tang = v_t - (y_total - y_orth)
    else:
        w = hp.to_complex()
        eta = (w - 1.0) / (w + 1.0)
        s_total = -0.5 * math.log(1.0 - abs(eta))
        s_orth = -0.5 * math.log(abs(1.0 - eta))
        dev_total, dev_orth = v - s_total, v_o - s_orth
        dev_tang = v_t - (s_total - s_orth)
    return SurrogateSpeeds(
        t=t,
        s_total=s_total,
        s_orth=s_orth,
        s_tang=s_total - s_orth,
        dev_total=dev_total,
        dev_orth=dev_orth,
        dev_tang=dev_tang,
        pre_threshold=L < 0.0,
    )


def _surrogate_speeds_array(t, hp: LogPolar, v, v_o, v_t) -> SurrogateSpeeds:
    """surrogate_speeds on a batch: both branches on every point, each
    result taken from the branch the scalar code would choose."""
    L, c = hp.log_rho, hp.cos
    half_l = 0.5 * L
    pre = L < 0.0
    with np.errstate(all="ignore"):  # each branch is kept on its own points only
        e = np.exp(-L)
        corr = 0.5 * np.log1p((2.0 * c + e) * e)
        y_total = -0.5 * (math.log(4.0) + np.log(c) - 2.0 * corr - _log1p_abs_eta_array(hp))
        y_orth = corr - 0.5 * LOG2
        w = _cartesian(hp)
        eta = _cdiv(w - 1.0, w + 1.0)
        pre_total = -0.5 * np.log(1.0 - _cabs(eta))
        pre_orth = -0.5 * np.log(_cabs(1.0 - eta))
        s_total = np.where(pre, pre_total, half_l + y_total)
        s_orth = np.where(pre, pre_orth, half_l + y_orth)
        dev_total = np.where(pre, v - pre_total, (v - half_l) - y_total)
        dev_orth = np.where(pre, v_o - pre_orth, (v_o - half_l) - y_orth)
        dev_tang = np.where(pre, v_t - (pre_total - pre_orth), v_t - (y_total - y_orth))
    return SurrogateSpeeds(
        t=t,
        s_total=s_total,
        s_orth=s_orth,
        s_tang=s_total - s_orth,
        dev_total=dev_total,
        dev_orth=dev_orth,
        dev_tang=dev_tang,
        pre_threshold=pre,
    )


def surrogate_threshold(sg: KoenigsSemigroup, grid, z: DiscPoint = ORIGIN) -> float | None:
    """Smallest grid time from which log rho stays >= 0 onward, from one
    orbit pass over the sorted grid."""
    ts = np.sort(np.asarray(grid, dtype=float))
    below = np.flatnonzero(orbit_halfplane(sg, z, ts).log_rho < 0.0)
    start = below[-1] + 1 if below.size else 0
    return float(ts[start]) if start < ts.size else None


# ---------------------------------------------------------------------------
# asymptotic coefficient fits


@dataclass(frozen=True)
class AsymptoticFit:
    basis: str
    coefficient: float
    sup_residual: float
    window: tuple[float, float]


def fit_asymptotic(samples, series: str, basis: str, window) -> AsymptoticFit:
    """Least-squares slope of a speed series against log t or t on a window.

    sup_residual reports max |series - coefficient * basis| over the window,
    i.e. the size of the additive constant the paper-style bounds allow.
    """
    if basis not in ("log_t", "t"):
        raise ValueError("basis must be 'log_t' or 't'")
    if series not in ("v", "v_o", "v_T"):
        raise ValueError("series must be one of 'v', 'v_o', 'v_T'")
    lo, hi = float(window[0]), float(window[1])
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    ts, ys = [], []
    for s in samples:
        if lo <= s.t <= hi:
            ts.append(s.t)
            ys.append(getattr(s, series))
    if len(ts) < 20:
        raise ValueError(f"need at least 20 samples in the window, got {len(ts)}")
    xs = np.log(ts) if basis == "log_t" else np.asarray(ts)
    ys = np.asarray(ys)
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
    batch = isinstance(t, np.ndarray)
    if (t <= 0).any() if batch else t <= 0:
        raise ValueError("the criterion compares positive times")
    dom: DomainSpec = sg.image_domain
    p = complex(p)
    if not contains(dom, p):
        raise DomainError("the reference point must lie in the image domain")
    q = p + 1j * t
    d_minus = delta_pm(dom, OmegaSign("minus", p), q)
    d_plus = delta_pm(dom, OmegaSign("plus", p), q)
    if batch:  # min(t, d) as Python takes it: d only where d < t
        return np.where(d_minus < t, d_minus, t) / np.where(d_plus < t, d_plus, t)
    num = t if math.isinf(d_minus) else min(t, d_minus)
    den = t if math.isinf(d_plus) else min(t, d_plus)
    return num / den
