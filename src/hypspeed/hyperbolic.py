"""Hyperbolic metric, distances, projections and automorphisms in D and H.

The unit disc D carries omega(z, w) = arctanh |(z-w)/(1 - conj(z) w)| and the
right half plane H carries the isometric distance k_half.  Half-plane points
are stored as (log rho, theta) so that orbits with rho far beyond double
range remain exact; all distance formulas below are written against that
representation and stay accurate in every regime (nearly radial pairs, huge
modulus ratios, angles within 1e-12 of +-pi/2).

The metric operations also take a batch: a ``LogPolar`` whose fields are
numpy arrays, a ``DiscPoint`` or ``RadialGeodesic`` whose value is an array
of plain (unguarded) points, or a polyline given as an array.  A batch runs
through array kernels that take the same branches element by element as
the scalar code, whose results they match to a few ulp; a single point
always takes the scalar code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .mapchain import (HALF_PI, LOG2, LogPolar, _cabs, _cdiv, _cmul, _complex,
                       _from_complex_array)

# Above this |log rho_1 - log rho_0| the cosh-based formula overflows and the
# distance equals |dlog|/2 plus an angle correction to below double precision.
_RADIAL_CROSSOVER = 30.0


class DomainError(ValueError):
    """A point lies outside the space an operation requires."""


def in_halfplane(p: LogPolar) -> LogPolar:
    """Return p once it is checked to be a right half-plane point: a finite
    log-modulus and |theta| <= pi/2, for every point of a batch.  Chain
    results pass through here when they enter the half-plane layer."""
    if isinstance(p.log_rho, np.ndarray):
        if not np.all(np.isfinite(p.log_rho)):
            raise DomainError("log_rho must be finite")
        if not np.all(np.abs(p.theta) <= HALF_PI):
            raise DomainError("theta must lie in (-pi/2, pi/2)")
        return p
    if not math.isfinite(p.log_rho):
        raise DomainError("log_rho must be finite")
    if not abs(p.theta) <= HALF_PI:
        raise DomainError("theta must lie in (-pi/2, pi/2)")
    return p


def _batch_in_halfplane(log_rho, theta, cos_theta) -> LogPolar:
    """in_halfplane for a batch, with its fields broadcast to one shape."""
    fields = [log_rho, theta] if cos_theta is None else [log_rho, theta, cos_theta]
    log_rho, theta, *cos = np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in fields))
    return in_halfplane(LogPolar(log_rho, theta, cos[0] if cos else None))


def HalfPlanePoint(log_rho: float, theta: float, cos_theta: float | None = None) -> LogPolar:
    """The right half-plane point rho * exp(i*theta), rho = exp(log_rho).

    cos_theta optionally carries cos(theta) at full relative accuracy; it is
    what keeps tangential quantities exact when theta hugs +-pi/2.  Arrays
    in place of the floats make a batch of points.
    """
    if isinstance(log_rho, np.ndarray) or isinstance(theta, np.ndarray):
        return _batch_in_halfplane(log_rho, theta, cos_theta)
    return in_halfplane(LogPolar(log_rho, theta, cos_theta))


def _halfplane_from_complex(w: complex) -> LogPolar:
    """The half-plane point w, keeping w itself as its cartesian value."""
    if isinstance(w, np.ndarray):
        w = w.astype(complex, copy=False)
        if not np.all(w.real > 0):
            raise DomainError("a batch point is not in the right half plane")
        return _from_complex_array(w)
    w = complex(w)
    if w.real <= 0:
        raise DomainError(f"{w} is not in the right half plane")
    return LogPolar.from_complex(w)


HalfPlanePoint.from_complex = _halfplane_from_complex


@dataclass(frozen=True)
class DiscPoint:
    """A point of the unit disc.

    For orbit points so close to the boundary that 1 - |value| underflows,
    ``halfplane`` stores the exact Cayley image; distance computations route
    through it and never touch the rounded ``value``.  An array ``value``
    is a batch of plain points, none of which may need the guard.
    """

    value: complex
    halfplane: LogPolar | None = field(default=None, compare=False)

    def __post_init__(self):
        if isinstance(self.value, np.ndarray):
            self._check_batch()
            return
        object.__setattr__(self, "value", complex(self.value))
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise DomainError("disc point must have finite components")
        if self.halfplane is None:
            if abs(self.value) >= 1.0:
                raise DomainError(f"|{self.value}| >= 1 is not in the unit disc")
        elif abs(self.value) > 1.0 + 1e-12:
            raise DomainError("guarded disc point strays past the boundary")

    def _check_batch(self) -> None:
        value = self.value.astype(complex, copy=False)
        object.__setattr__(self, "value", value)
        if self.halfplane is not None:
            raise DomainError("a batch of disc points cannot carry a half-plane witness")
        if not np.all(np.isfinite(value)):
            raise DomainError("disc point must have finite components")
        if not np.all(_cabs(value) < 1.0):
            raise DomainError("a batch point is not in the unit disc")

    @property
    def guarded(self) -> bool:
        return self.halfplane is not None


ORIGIN = DiscPoint(0j)


@dataclass(frozen=True)
class RadialGeodesic:
    """The geodesic r -> r*tau of D, r in (-1, 1), with |tau| = 1.  An array
    tau is a batch of geodesics, one per sample."""

    tau: complex

    def __post_init__(self):
        if isinstance(self.tau, np.ndarray):
            t = self.tau.astype(complex, copy=False)
            r = _cabs(t)
            if not np.all(np.abs(r - 1.0) <= 1e-9):
                raise DomainError("geodesic direction must be unimodular")
            object.__setattr__(self, "tau", _complex(t.real / r, t.imag / r))
            return
        t = complex(self.tau)
        if abs(abs(t) - 1.0) > 1e-9:
            raise DomainError("geodesic direction must be unimodular")
        object.__setattr__(self, "tau", t / abs(t))


def _as_disc(z) -> DiscPoint:
    return z if isinstance(z, DiscPoint) else DiscPoint(z)


# ---------------------------------------------------------------------------
# distances


def _k_lp(l1: float, t1: float, c1: float, l2: float, t2: float, c2: float) -> float:
    """k_H between rho_i e^{i theta_i} given (log rho_i, theta_i, cos theta_i).

    Uses m^2 = [sinh^2(d/2) + sin^2((t1-t2)/2)] / [sinh^2(d/2) + cos^2((t1+t2)/2)]
    with the exact complement 1 - m^2 = cos t1 cos t2 / denominator, so both
    m -> 0 and m -> 1 are handled without cancellation.
    """
    if t1 == 0.0 and t2 == 0.0:
        return 0.5 * abs(l2 - l1)
    if t1 + t2 < 0.0:  # conjugating both points preserves the distance
        t1, t2 = -t1, -t2
    d = abs(l2 - l1)

    # gap of each angle to +pi/2; the cosine cache is the sharper witness
    # only near +-pi/2, where theta itself saturates
    def gap(t, c):
        if c < 0.5:
            return math.asin(c) if t >= 0.0 else math.pi - math.asin(c)
        return HALF_PI - t

    g1, g2 = gap(t1, min(c1, 1.0)), gap(t2, min(c2, 1.0))
    cos_sum_half = math.sin(0.5 * (g1 + g2))  # == cos((t1+t2)/2)
    if d > _RADIAL_CROSSOVER:
        e = math.exp(-d)
        cos_sum = 2.0 * cos_sum_half * cos_sum_half - 1.0
        corr = math.log1p((2.0 * cos_sum + e) * e)
        return LOG2 - 0.5 * math.log(2.0 * c1 * c2) + 0.5 * (d - LOG2 + corr)
    sh = math.sinh(0.5 * d)
    sin_diff_half = math.sin(0.5 * (t1 - t2))
    num = sh * sh + sin_diff_half * sin_diff_half
    den = sh * sh + cos_sum_half * cos_sum_half
    m2 = num / den
    if m2 < 0.81:
        return math.atanh(math.sqrt(m2))
    one_minus_m2 = c1 * c2 / den
    m = math.sqrt(max(1.0 - one_minus_m2, m2 if m2 < 1.0 else 0.0))
    return math.log1p(m) - 0.5 * math.log(one_minus_m2)


def _gap_array(t, c):
    with np.errstate(invalid="ignore"):
        a = np.arcsin(c)
    return np.where(c < 0.5, np.where(t >= 0.0, a, np.pi - a), HALF_PI - t)


def _k_lp_array(l1, t1, c1, l2, t2, c2):
    """_k_lp on arrays: every branch is evaluated on every pair and each
    result is taken from the branch the scalar kernel would choose."""
    radial = (t1 == 0.0) & (t2 == 0.0)
    flip = t1 + t2 < 0.0
    t1, t2 = np.where(flip, -t1, t1), np.where(flip, -t2, t2)
    d = np.abs(l2 - l1)
    g1 = _gap_array(t1, np.minimum(c1, 1.0))
    g2 = _gap_array(t2, np.minimum(c2, 1.0))
    cos_sum_half = np.sin(0.5 * (g1 + g2))
    with np.errstate(all="ignore"):  # the untaken branches may overflow
        e = np.exp(-d)
        cos_sum = 2.0 * cos_sum_half * cos_sum_half - 1.0
        corr = np.log1p((2.0 * cos_sum + e) * e)
        far = LOG2 - 0.5 * np.log(2.0 * c1 * c2) + 0.5 * (d - LOG2 + corr)
        sh = np.sinh(0.5 * d)
        sin_diff_half = np.sin(0.5 * (t1 - t2))
        num = sh * sh + sin_diff_half * sin_diff_half
        den = sh * sh + cos_sum_half * cos_sum_half
        m2 = num / den
        near = np.arctanh(np.sqrt(m2))
        one_minus_m2 = c1 * c2 / den
        m = np.sqrt(np.maximum(1.0 - one_minus_m2, np.where(m2 < 1.0, m2, 0.0)))
        complement = np.log1p(m) - 0.5 * np.log(one_minus_m2)
    out = np.where(d > _RADIAL_CROSSOVER, far, np.where(m2 < 0.81, near, complement))
    return np.where(radial, 0.5 * d, out)


def k_half(w1: LogPolar, w2: LogPolar) -> float:
    """Hyperbolic distance in the right half plane (an array for a batch)."""
    if isinstance(w1.log_rho, np.ndarray) or isinstance(w2.log_rho, np.ndarray):
        return _k_lp_array(w1.log_rho, w1.theta, w1.cos, w2.log_rho, w2.theta, w2.cos)
    return _k_lp(w1.log_rho, w1.theta, w1.cos, w2.log_rho, w2.theta, w2.cos)


def omega(z, w) -> float:
    """Hyperbolic distance in the unit disc (an array for a batch)."""
    z, w = _as_disc(z), _as_disc(w)
    if z.guarded or w.guarded:
        return k_half(cayley(z), cayley(w))
    if isinstance(z.value, np.ndarray) or isinstance(w.value, np.ndarray):
        return _omega_array(z.value, w.value)
    if z.value == w.value:
        return 0.0
    den = 1.0 - z.value.conjugate() * w.value
    m = abs((z.value - w.value) / den)
    if m >= 1.0:
        return math.inf
    if m < 0.9:
        return math.atanh(m)
    # near the boundary use 1 - m^2 = (1-|z|^2)(1-|w|^2)/|1-conj(z) w|^2,
    # which avoids the 1 - m cancellation; (1-a)(1+a) keeps 1-a exact
    az, aw = abs(z.value), abs(w.value)
    one_minus_m2 = ((1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw)
                    / abs(den) ** 2)
    return math.log1p(m) - 0.5 * math.log(one_minus_m2)


def _omega_array(zv, wv):
    den = 1.0 - _cmul(np.conj(zv), wv)
    m = _cabs(_cdiv(zv - wv, den))
    az, aw = _cabs(zv), _cabs(wv)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.arctanh(m)
        one_minus_m2 = (1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw) / _cabs(den) ** 2
        far = np.log1p(m) - 0.5 * np.log(one_minus_m2)
    return np.where(m >= 1.0, np.inf, np.where(m < 0.9, near, far))


def kappa(space: str, point: complex, vector: complex) -> float:
    """Density of the hyperbolic metric: |v|/(1-|z|^2) in D, |v|/(2 Re w) in H."""
    point, vector = complex(point), complex(vector)
    if space == "disc":
        a2 = abs(point) ** 2
        if a2 >= 1.0:
            raise DomainError("kappa needs an interior disc point")
        return abs(vector) / (1.0 - a2)
    if space == "halfplane":
        if point.real <= 0.0:
            raise DomainError("kappa needs an interior half-plane point")
        return abs(vector) / (2.0 * point.real)
    raise ValueError(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# Cayley transform


def cayley(z) -> LogPolar:
    """z -> (1+z)/(1-z), an isometry from (D, omega) onto (H, k_half)."""
    z = _as_disc(z)
    if z.halfplane is not None:
        return z.halfplane
    if isinstance(z.value, np.ndarray):
        return HalfPlanePoint.from_complex(_cdiv(1.0 + z.value, 1.0 - z.value))
    w = (1.0 + z.value) / (1.0 - z.value)
    return HalfPlanePoint.from_complex(w)


def cayley_inv(w: LogPolar) -> DiscPoint:
    """Inverse Cayley transform; guards points whose 1-|z| underflows."""
    if w.log_rho <= _RADIAL_CROSSOVER:
        u = w.to_complex()
        z = (u - 1.0) / (u + 1.0)
        if abs(z) < 1.0:
            return DiscPoint(z)
        return DiscPoint(z / abs(z) * (1.0 - 1e-16), halfplane=w)
    eps = 2.0 * math.exp(-w.log_rho)
    s = math.sin(w.theta)
    value = complex(1.0 - eps * w.cos, eps * s)
    return DiscPoint(value, halfplane=w)


# ---------------------------------------------------------------------------
# projections onto radial geodesics


def tangential_distance(theta: float, cos_theta: float | None = None) -> float:
    """k_H(rho e^{i theta}, rho) = k_H(1, e^{i|theta|}), evaluated through the
    identity atanh(tan(|theta|/2)) = 0.5*log((1 + |sin theta|)/cos theta).

    Where cos theta is so small (below ~1e-308) that the quotient overflows,
    the logarithm is split as 0.5*(log1p|sin theta| - log cos theta)."""
    if isinstance(theta, np.ndarray):
        return _tangential_distance_array(theta, cos_theta)
    if theta == 0.0:
        return 0.0
    c = cos_theta if cos_theta is not None else math.cos(theta)
    s = abs(math.sin(theta))
    q = (1.0 + s) / c
    if q == math.inf:
        return 0.5 * (math.log1p(s) - math.log(c))
    return max(0.0, 0.5 * math.log(q))


def _tangential_distance_array(theta, cos_theta):
    c = np.cos(theta) if cos_theta is None else cos_theta
    s = np.abs(np.sin(theta))
    with np.errstate(over="ignore", divide="ignore"):
        q = (1.0 + s) / c
        half_log = np.where(np.isinf(q), 0.5 * (np.log1p(s) - np.log(c)), 0.5 * np.log(q))
    return np.where(theta == 0.0, 0.0, np.maximum(0.0, half_log))


def project_to_radius(z, geo: RadialGeodesic) -> DiscPoint:
    """Hyperbolic projection of z onto the radial geodesic (-1, 1)*tau.

    Closed form: rotate tau to 1, move to H by the Cayley transform where the
    projection onto (0, +inf) is the modulus, and pull back.
    """
    z = _as_disc(z)
    hp = cayley(_rotated(z, geo))
    tanh = np.tanh if isinstance(hp.log_rho, np.ndarray) else math.tanh
    return DiscPoint(tanh(0.5 * hp.log_rho) * geo.tau)


def dist_to_radius(z, geo: RadialGeodesic) -> float:
    """Hyperbolic distance from z to the radial geodesic (-1, 1)*tau."""
    z = _as_disc(z)
    hp = cayley(_rotated(z, geo))
    return tangential_distance(hp.theta, hp.cos)


def _rotated(z: DiscPoint, geo: RadialGeodesic) -> DiscPoint:
    """conj(tau) * z, with the half-plane witness transported through the
    conjugated Moebius map when z is boundary-guarded."""
    tau_bar = geo.tau.conjugate()
    if isinstance(tau_bar, np.ndarray) or isinstance(z.value, np.ndarray):
        if z.guarded:
            raise DomainError("a batch of geodesics takes plain disc points only")
        return DiscPoint(_cmul(tau_bar, z.value))
    if z.halfplane is None:
        return DiscPoint(tau_bar * z.value)
    hp = z.halfplane
    if tau_bar == 1.0:
        return z
    # C(tau_bar * C^{-1}(w)) = N/D with N = (1+tb) - tb*e, D = (1-tb) + tb*e
    # and e = 2/(w+1) = 2u/(1+u), u = 1/w.  Since |tb| = 1 the cross terms
    # collapse to Re(N conj(D)) = 2 Re(e) - |e|^2 exactly, which keeps the
    # boundary distance resolvable however tiny e is.
    u = cmath.exp(complex(-hp.log_rho, -hp.theta))
    e = 2.0 * u / (1.0 + u)
    num = (1.0 + tau_bar) - tau_bar * e
    den = (1.0 - tau_bar) + tau_bar * e
    re_cross = 2.0 * e.real - (e.real * e.real + e.imag * e.imag)
    value = tau_bar * z.value
    if abs(value) >= 1.0:
        value *= (1.0 - 1e-16) / abs(value)
    if re_cross <= 0.0 or abs(den) == 0.0:
        return DiscPoint(value)  # fell across the Cayley pole: plain is fine
    theta = cmath.phase(num) - cmath.phase(den)
    theta = min(max(theta, -HALF_PI), HALF_PI)
    witness = HalfPlanePoint(
        math.log(abs(num)) - math.log(abs(den)),
        theta,
        re_cross / (abs(num) * abs(den)),
    )
    return DiscPoint(value, halfplane=witness)


# ---------------------------------------------------------------------------
# hyperbolic length of polylines (oracle quadrature)

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def path_length(space: str, polyline, subdivisions: int = 64) -> float:
    """Hyperbolic length of a polyline by composite 16-point Gauss-Legendre.

    Serves as the integral oracle: the length of a finely discretised
    geodesic must reproduce the closed-form distance.  All segments x
    subdivisions x nodes are evaluated as one array.
    """
    pts = np.asarray(polyline, dtype=complex).ravel()
    if pts.size < 2:
        raise ValueError("polyline needs at least two vertices")
    if space not in ("disc", "halfplane"):
        raise ValueError(f"unknown space {space!r}")
    inside = np.abs(pts) ** 2 < 1.0 if space == "disc" else pts.real > 0.0
    if not np.all(inside):
        raise DomainError(f"polyline has a vertex outside the {space}")
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    a = pts[:-1, None, None]
    step = (pts[1:, None, None] - a) / subdivisions
    ks = np.arange(subdivisions)[None, :, None]
    mids = a + ks * step + (0.5 + 0.5 * GL_NODES) * step  # segment x piece x node
    if space == "disc":
        dens = 1.0 / (1.0 - np.abs(mids) ** 2)
    else:
        if np.any(mids.real <= 0):
            raise DomainError("path leaves the half plane")
        dens = 1.0 / (2.0 * mids.real)
    return float(np.sum(np.abs(step[:, :, 0]) * 0.5 * (dens @ GL_WEIGHTS)))


# ---------------------------------------------------------------------------
# disc automorphisms


@dataclass(frozen=True)
class DiscAutomorphism:
    """M(z) = exp(i*phase) * (a - z)/(1 - conj(a) z), an automorphism of D."""

    a: complex
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        if abs(self.a) >= 1.0:
            raise DomainError("automorphism parameter must lie in the disc")

    def apply(self, z) -> DiscPoint:
        z = _as_disc(z)
        if z.guarded:
            raise DomainError("automorphisms act on representable disc points only")
        v = (self.a - z.value) / (1.0 - self.a.conjugate() * z.value)
        w = cmath.exp(1j * self.phase) * v
        if abs(w) >= 1.0:
            w *= (1.0 - 1e-16) / abs(w)
        return DiscPoint(w)

    def apply_boundary(self, sigma: complex) -> complex:
        """Continuous boundary extension; |sigma| = 1 maps to modulus 1."""
        w = cmath.exp(1j * self.phase) * (self.a - sigma) / (1.0 - self.a.conjugate() * sigma)
        return w / abs(w)

    def inverse(self) -> "DiscAutomorphism":
        return DiscAutomorphism(cmath.exp(1j * self.phase) * self.a, -self.phase)

    def compose(self, other: "DiscAutomorphism") -> "DiscAutomorphism":
        """self after other, again in canonical (a, phase) form."""
        b = other.inverse().apply(DiscPoint(self.a)).value
        n0 = self.apply(other.apply(ORIGIN)).value
        if abs(b) > 1e-9:
            phase = cmath.phase(n0 / b)
        else:
            probe = self.apply(other.apply(DiscPoint(0.5))).value
            phase = cmath.phase(-probe / 0.5)
        return DiscAutomorphism(b, phase)
