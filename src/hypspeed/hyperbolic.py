"""Hyperbolic metric, distances, projections and automorphisms in D and H.

The unit disc D carries omega(z, w) = arctanh |(z-w)/(1 - conj(z) w)| and the
right half plane H carries the isometric distance k_half.  Half-plane points
are stored as (log rho, theta) so that orbits with rho far beyond double
range remain exact; all distance formulas below are written against that
representation and stay accurate in every regime (nearly radial pairs, huge
modulus ratios, angles within 1e-12 of +-pi/2).  One rule, ``in_halfplane``,
decides whether such a point is valid, whether ``HalfPlanePoint`` builds it
from its fields or ``cayley`` or a chain maps it there.  Every point
``cayley_inv`` returns carries its Cayley image as a half-plane witness,
which the distances and projections read in place of the rounded disc
value.

The metric operations, the Cayley pair and ``DiscAutomorphism.apply`` also
take a batch: a ``LogPolar`` whose fields are numpy arrays, a ``DiscPoint``
(with or without a batch witness) or ``RadialGeodesic`` whose value is an
array, or a polyline given as an array.  A plain disc point keeps the exact
1 - |z|^2 its validity check computes, which ``omega`` and ``cayley`` read,
and a batch's value is a read-only copy.  Each operation has one body for a
point and a batch, and gives a point as Python floats and complex numbers,
except the point kernels of the per-time loop of ``sample_speeds``, which
run plain ``math``: ``_k_lp`` (one point of ``k_half``) and the point
branches of ``in_halfplane`` and ``tangential_distance``.  Their array code
matches them to a few ulp.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .mapchain import (HALF_PI, LogPolar, _cabs, _cdiv, _cmul, _complex,
                       _from_complex_array)

# Above this log rho, 1 - |z| ~ 2 e^{-log rho} cos theta of the disc point is
# below ~2e-13, and cayley_inv's disc value is 1 - 2 e^{-log rho - i theta}.
_RADIAL_CROSSOVER = 30.0

# Above this |log rho_1 - log rho_2| k_half takes the log form, before sinh(d/2) overflows.
_LOG_FORM = 1400.0

# Above this |log rho| dist_to_radius continues sinh(log rho) by e^{|log rho| - 700}, before it overflows.
_SINH_MAX = 700.0


class DomainError(ValueError):
    """A point lies outside the space an operation requires."""


_COS_RULE = ("cos_theta must be positive and at most 1 up to rounding: a cosine of 0 "
             "puts the point on the imaginary axis to double precision")


def in_halfplane(p: LogPolar) -> LogPolar:
    """Return p once it is checked to be a right half-plane point: a finite
    log-modulus, |theta| <= pi/2 and a cached cosine, if any, in
    (0, 1 + 1e-12], for every point of a batch.  This is the one rule for a
    half-plane point, whether ``HalfPlanePoint`` builds it or a map
    (``cayley``, a chain) produces it.  A cosine of 0 is a point on the
    imaginary axis, or one whose Re w / |w| underflows; no distance to it is
    finite in double precision.  NaN fails every test."""
    if isinstance(p.log_rho, np.ndarray):
        if not np.all(np.isfinite(p.log_rho)):
            raise DomainError("log_rho must be finite")
        if not np.all(np.abs(p.theta) <= HALF_PI):
            raise DomainError("theta must lie in (-pi/2, pi/2)")
        c = p.cos_theta  # min and max cost less than one mask; an empty batch passes
        if c is not None and c.size and not (c.min() > 0.0 and c.max() <= 1.0 + 1e-12):
            raise DomainError(_COS_RULE)
        return p
    # one point in plain math: sample_speeds' per-time loop runs it
    if not math.isfinite(p.log_rho):
        raise DomainError("log_rho must be finite")
    if not abs(p.theta) <= HALF_PI:
        raise DomainError("theta must lie in (-pi/2, pi/2)")
    if p.cos_theta is not None and not 0.0 < p.cos_theta <= 1.0 + 1e-12:
        raise DomainError(_COS_RULE)
    return p


def HalfPlanePoint(log_rho: float, theta: float, cos_theta: float | None = None) -> LogPolar:
    """The right half-plane point rho * exp(i*theta), rho = exp(log_rho),
    checked by ``in_halfplane``.

    cos_theta optionally carries cos(theta) at full relative accuracy; it is
    what keeps tangential quantities exact when theta hugs +-pi/2.  An array
    in place of any field makes a batch of points, with the fields broadcast
    to one shape.
    """
    fields = (log_rho, theta) if cos_theta is None else (log_rho, theta, cos_theta)
    if not all(isinstance(f, (float, np.ndarray, numbers.Real)) for f in fields):
        raise DomainError(f"each field must be a real number or an ndarray, got {fields!r}")
    if any(isinstance(f, np.ndarray) for f in fields):
        log_rho, theta, *cos = np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in fields))
        cos_theta = cos[0] if cos else None
    return in_halfplane(LogPolar(log_rho, theta, cos_theta))


def _split(x):
    """x as hi + lo, exactly, each half of at most 26 significant bits, so
    that a product of two halves is exact (Veltkamp)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _square(x):
    """x*x as the unevaluated sum p + e, exactly (Dekker's two-product)."""
    hi, lo = _split(x)
    p = x * x
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def _one_minus_abs2(z):
    """1 - |z|^2 rounded once, for a complex number or array, from exact
    two-products and a two-sum (Knuth).  z is inside the disc iff it is > 0;
    a part not finite or too large to split gives NaN, which is not."""
    px, ex = _square(z.real)
    py, ey = _square(z.imag)
    s = px + py
    b = s - px
    es = (px - (s - b)) + (py - b)  # s + es = px + py exactly
    return (1.0 - s) - (es + (ex + ey))


@dataclass(frozen=True)
class DiscPoint:
    """A point of the unit disc.

    ``halfplane`` optionally stores the exact Cayley image, a batch of them
    for an array ``value``, as every orbit point does; distances route
    through it and never touch the rounded ``value``.  So one point equals
    another only with the same value and the same witness; a batch
    compares by value alone.

    A plain point, one without a witness, keeps the exact 1 - |z|^2 (rounded
    once) that its validity check computes, outside ==, hash and repr, and
    ``omega`` and ``cayley`` read it.  A batch's ``value`` is a read-only
    copy of the array given, so that kept value cannot go stale.
    """

    value: complex
    halfplane: LogPolar | None = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if isinstance(self.value, np.ndarray) or isinstance(other.value, np.ndarray):
            return np.array_equal(self.value, other.value)
        return (self.value, self.halfplane) == (other.value, other.halfplane)

    def __post_init__(self):
        batch = isinstance(self.value, np.ndarray)
        if batch:
            value = np.array(self.value, dtype=complex)  # a copy the caller cannot write
            value.flags.writeable = False
        else:
            value = complex(self.value)
        object.__setattr__(self, "value", value)
        if self.halfplane is None:  # a NaN or infinite part fails either test
            object.__setattr__(self, "_rest", _one_minus_abs2(value))  # omega and cayley read it
            inside = self._rest > 0.0
        elif batch and np.shape(self.halfplane.log_rho) != value.shape:
            raise DomainError("a batch witness must have the shape of its disc points")
        else:
            inside = abs(value) <= 1.0 + 1e-12
        if not (inside.all() if batch else inside):
            raise DomainError("a disc point must be finite and inside the unit disc"
                              if self.halfplane is None else
                              "a guarded disc point strays past the boundary")

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
        batch = isinstance(self.tau, np.ndarray)
        t = self.tau.astype(complex, copy=False) if batch else complex(self.tau)
        r = _cabs(t)
        if not np.all(np.abs(r - 1.0) <= 1e-9):  # NaN fails too
            raise DomainError("geodesic direction must be unimodular")
        tau = _complex(t.real / r, t.imag / r)
        object.__setattr__(self, "tau", tau if batch else complex(tau))


def _as_disc(z) -> DiscPoint:
    return z if isinstance(z, DiscPoint) else DiscPoint(z)


# ---------------------------------------------------------------------------
# distances


# one point in plain math: sample_speeds' per-time loop runs it
def _k_lp(l1: float, t1: float, c1: float | None, l2: float, t2: float, c2: float | None) -> float:
    """k_H between rho_i e^{i theta_i} given (log rho_i, theta_i) and the cached
    cos theta_i or None, from sinh k = |w1 - w2| / (2 sqrt(Re w1 Re w2)), i.e.
    sinh k = hypot(sinh(d/2), sin(dtheta/2)) / (sqrt(c1) sqrt(c2)) with
    d = |log rho_2 - log rho_1|: two positive terms, never squared."""
    d = abs(l2 - l1)
    if t1 == 0.0 and t2 == 0.0:
        return 0.5 * d
    if (c1 is not None and c2 is not None and c1 < 0.5 and c2 < 0.5
            and (t1 > 0.0) == (t2 > 0.0)):
        # both angles hug the same side of the axis, where they round to
        # +-pi/2: only the cached gaps g = asin(c) resolve their difference,
        # and sin(g1 - g2) = (c1 - c2)(c1 + c2) / (c1 cos g2 + c2 cos g1)
        # keeps the digits that asin(c1) - asin(c2) cancels when c1 ~ c2
        cos_g1, cos_g2 = math.sqrt(1.0 - c1 * c1), math.sqrt(1.0 - c2 * c2)
        dt = math.asin((c1 - c2) * ((c1 + c2) / (c1 * cos_g2 + c2 * cos_g1)))
    else:
        dt = t1 - t2
    c1 = math.cos(t1) if c1 is None else c1
    c2 = math.cos(t2) if c2 is None else c2
    if d <= _LOG_FORM:
        h = math.hypot(math.sinh(0.5 * d), math.sin(0.5 * dt))
        q = h / math.sqrt(c1) / math.sqrt(c2)
        if q < math.inf:
            return math.asinh(q)
    # sinh(d/2) or the quotient overflows; asinh q = log 2q to double precision
    log_2h = 0.5 * d if d > _LOG_FORM else math.log(2.0 * h)
    return log_2h - 0.5 * (math.log(c1) + math.log(c2))


def _k_lp_array(l1, t1, c1, l2, t2, c2):
    """_k_lp on arrays: each element takes the branch the scalar kernel takes."""
    d = np.abs(l2 - l1)
    gaps = (c1 is not None and c2 is not None
            and (c1 < 0.5) & (c2 < 0.5) & ((t1 > 0.0) == (t2 > 0.0)))
    c1 = np.cos(t1) if c1 is None else c1
    c2 = np.cos(t2) if c2 is None else c2
    dt = t1 - t2
    if np.any(gaps):
        with np.errstate(all="ignore"):  # the pairs outside the gap branch
            cos_g1, cos_g2 = np.sqrt(1.0 - c1 * c1), np.sqrt(1.0 - c2 * c2)
            sin_dg = (c1 - c2) * ((c1 + c2) / (c1 * cos_g2 + c2 * cos_g1))
            dt = np.where(gaps, np.arcsin(sin_dg), dt)
    with np.errstate(divide="ignore", over="ignore"):  # as in the scalar log form
        h = np.hypot(np.sinh(0.5 * d), np.sin(0.5 * dt))
        q = h / np.sqrt(c1) / np.sqrt(c2)
        k = np.arcsinh(q)
        log_form = (d > _LOG_FORM) | np.isinf(q)
        if log_form.any():
            log_2h = np.where(d > _LOG_FORM, 0.5 * d, np.log(2.0 * h))
            k = np.where(log_form, log_2h - 0.5 * (np.log(c1) + np.log(c2)), k)
    return np.where((t1 == 0.0) & (t2 == 0.0), 0.5 * d, k)


def k_half(w1: LogPolar, w2: LogPolar) -> float:
    """Hyperbolic distance in the right half plane (an array for a batch)."""
    kernel = (_k_lp_array if isinstance(w1.log_rho, np.ndarray)
              or isinstance(w2.log_rho, np.ndarray) else _k_lp)
    return kernel(w1.log_rho, w1.theta, w1.cos_theta, w2.log_rho, w2.theta, w2.cos_theta)


def omega(z, w) -> float:
    """Hyperbolic distance in the unit disc (an array for a batch), from
    sinh omega = |z - w| / sqrt((1 - |z|^2)(1 - |w|^2)), or by k_half where
    a point carries a half-plane witness."""
    z, w = _as_disc(z), _as_disc(w)
    if z.guarded or w.guarded:
        return k_half(cayley(z), cayley(w))
    rest = z._rest * w._rest
    d = np.arcsinh(abs(z.value - w.value) / np.sqrt(rest))
    return float(d) if np.ndim(d) == 0 else d


def kappa(space: str, point: complex, vector: complex) -> float:
    """Density of the hyperbolic metric: |v|/(1-|z|^2) in D, |v|/(2 Re w) in H."""
    point, vector = complex(point), complex(vector)
    for name, value in (("point", point), ("vector", vector)):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise DomainError(f"kappa needs a finite {name}, got {value}")
    if space == "disc":
        rest = _one_minus_abs2(point)
        if not rest > 0.0:
            raise DomainError("kappa needs an interior disc point")
        return abs(vector) / rest
    if space == "halfplane":
        if point.real <= 0.0:
            raise DomainError("kappa needs an interior half-plane point")
        return abs(vector) / (2.0 * point.real)
    raise ValueError(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# Cayley transform


def cayley(z) -> LogPolar:
    """z -> (1+z)/(1-z), an isometry from (D, omega) onto (H, k_half).  A
    plain point's image is built from parts that do not cancel,
    Re w = (1 - |z|^2) / m with 1 - |z|^2 rounded once and Im w = 2 Im z / m,
    m = |1 - z|^2, so that cos theta keeps its relative precision however
    close z lies to the circle."""
    z = _as_disc(z)
    if z.halfplane is not None:
        return z.halfplane
    v = z.value
    d = 1.0 - v
    m = d.real * d.real + d.imag * d.imag
    w = _complex(z._rest / m, 2.0 * v.imag / m)
    if isinstance(v, np.ndarray):
        return in_halfplane(_from_complex_array(w))
    return in_halfplane(LogPolar.from_complex(complex(w)))


def cayley_inv(w: LogPolar) -> DiscPoint:
    """Inverse Cayley transform, a point or a batch, carrying w as its
    half-plane witness.  The disc value is (u - 1)/(u + 1), pulled just
    inside the circle where it rounds onto it, up to log rho = 30."""
    u = replace(w, log_rho=np.minimum(w.log_rho, _RADIAL_CROSSOVER)).to_complex()
    with np.errstate(all="ignore"):  # each point keeps one form; the other may overflow
        near = _cdiv(u - 1.0, u + 1.0)
        r = _cabs(near)
        eps = 2.0 * np.exp(-w.log_rho)
        z = np.where(w.log_rho <= _RADIAL_CROSSOVER,
                     np.where(r < 1.0, near, near / r * (1.0 - 1e-16)),
                     _complex(1.0 - eps * w.cos, eps * np.sin(w.theta)))
    return DiscPoint(z if isinstance(w.log_rho, np.ndarray) else complex(z), halfplane=w)


# ---------------------------------------------------------------------------
# projections onto radial geodesics


def tangential_distance(theta: float, cos_theta: float | None = None) -> float:
    """k_H(rho e^{i theta}, rho) = asinh(|sin(theta/2)| / sqrt(cos theta)), the
    distance formula of k_half at d = 0; finite for every positive cosine."""
    if isinstance(theta, np.ndarray):
        c = np.cos(theta) if cos_theta is None else cos_theta
        return np.arcsinh(np.abs(np.sin(0.5 * theta)) / np.sqrt(c))
    # one point in plain math: sample_speeds' per-time loop runs it
    c = math.cos(theta) if cos_theta is None else cos_theta
    return math.asinh(abs(math.sin(0.5 * theta)) / math.sqrt(c))


def dist_to_radius(z, geo: RadialGeodesic) -> float:
    """Hyperbolic distance from z to the radial geodesic (-1, 1)*tau.

    The geodesic's Cayley image is the circle through 1 that meets iR at
    right angles at C(tau) and C(-tau), so for cayley(z) = rho e^{i theta}
    and tau = x + iy the distance is asinh(q) / 2 with
    q = |y sinh(log rho) - x sin theta| / cos theta; at tau = +-1 it is the
    tangential distance asinh(|tan theta|) / 2.  Where q overflows it is
    log(2q) / 2, with log|y sinh(log rho)| = |log rho| - log 2 + log|y|."""
    hp = cayley(_as_disc(z))
    lr, s, c = hp.log_rho, np.sin(hp.theta), hp.cos
    x, y = np.real(geo.tau), np.imag(geo.tau)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ysh = y * np.sinh(np.clip(lr, -_SINH_MAX, _SINH_MAX))
        huge = (np.abs(lr) > _SINH_MAX) & (y != 0.0)
        if np.any(huge):  # sinh L = sinh(700) e^{|L| - 700} sign L, inf past double range
            ysh = np.where(huge, ysh * np.exp(np.abs(lr) - _SINH_MAX), ysh)
        num = np.abs(ysh - x * s)
        q = num / c
        d = 0.5 * np.arcsinh(q)
        if np.any(np.isinf(q)):  # x sin theta is negligible where y sinh L is inf
            log_num = np.where(np.isinf(num), np.abs(lr) + np.log(np.abs(0.5 * y)), np.log(num))
            d = np.where(np.isinf(q), 0.5 * (math.log(2.0) + log_num - np.log(c)), d)
    return float(d) if np.ndim(d) == 0 else d


def project_to_radius(z, geo: RadialGeodesic) -> DiscPoint:
    """Hyperbolic projection of z onto the radial geodesic (-1, 1)*tau.

    The foot is tanh(L'/2) * tau, L' = log|M(w)| for w = cayley(z) and M =
    C o (conj(tau) *) o C^{-1}, which takes the geodesic onto (0, +inf) where
    the projection keeps the modulus.  For w = e^{L + i theta}, tau = x + iy,
    s = sin theta sech L and c = cos theta sech L (so nothing overflows),
    tanh(L'/2) = (x tanh L + y s) / (1 + hypot(c, y tanh L - x s)).  On the
    real diameter, where L' = L, every foot carries the half-plane witness
    (L, 0, 1), a point as a batch; a foot that rounds onto the circle off
    that diameter is a DomainError."""
    hp = cayley(_as_disc(z))
    lr, x, y = hp.log_rho, np.real(geo.tau), np.imag(geo.tau)
    with np.errstate(over="ignore"):  # sech L = 0 past cosh's range
        t, sech = np.tanh(lr), 1.0 / np.cosh(lr)
    s, c = np.sin(hp.theta) * sech, hp.cos * sech
    perp = y * t - x * s  # squares that underflow are negligible against 1
    r = (x * t + y * s) / (1.0 + np.sqrt(c * c + perp * perp))
    if np.all(y == 0.0):
        lr = np.broadcast_to(lr, r.shape) if np.ndim(r) else lr
        return DiscPoint(r * geo.tau, halfplane=HalfPlanePoint(lr, 0.0, 1.0))
    if np.any(np.abs(r) >= 1.0):
        raise DomainError("the projection rounds onto the unit circle, where only a foot "
                          "on the real diameter keeps a half-plane witness")
    return DiscPoint(r * geo.tau)


# ---------------------------------------------------------------------------
# hyperbolic length of polylines (oracle quadrature)

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PATH_PIECES = 64


def path_length(space: str, polyline) -> float:
    """Hyperbolic length of a polyline by composite 16-point Gauss-Legendre
    on 64 equal pieces per segment.

    Serves as the integral oracle: the length of a finely discretised
    geodesic must reproduce the closed-form distance.  All segments x
    pieces x nodes are evaluated as one array.
    """
    pts = np.asarray(polyline, dtype=complex).ravel()
    if pts.size < 2:
        raise ValueError("polyline needs at least two vertices")
    if space not in ("disc", "halfplane"):
        raise ValueError(f"unknown space {space!r}")
    inside = _one_minus_abs2(pts) > 0.0 if space == "disc" else pts.real > 0.0
    if not np.all(inside):
        raise DomainError(f"polyline has a vertex outside the {space}")
    a = pts[:-1, None, None]
    step = (pts[1:, None, None] - a) / _PATH_PIECES
    ks = np.arange(_PATH_PIECES)[None, :, None]
    nodes = 0.5 + 0.5 * GL_NODES
    if space == "disc":
        mids = a + ks * step + nodes * step  # segment x piece x node
        dens = 1.0 / (1.0 - np.abs(mids) ** 2)
    else:
        # the real parts alone, the same doubles as those of the complex nodes
        x = a.real + ks * step.real + nodes * step.real
        if np.any(x <= 0):
            raise DomainError("path leaves the half plane")
        dens = 1.0 / (2.0 * x)
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
        if not (math.isfinite(self.a.real) and math.isfinite(self.a.imag)):
            raise DomainError(f"automorphism parameter a must be finite, got {self.a}")
        if not math.isfinite(self.phase):
            raise DomainError(f"automorphism phase must be finite, got {self.phase}")
        if abs(self.a) >= 1.0:
            raise DomainError("automorphism parameter must lie in the disc")

    def apply(self, z) -> DiscPoint:
        """M(z) for a disc point, or for each point of a batch DiscPoint."""
        z = _as_disc(z)
        if z.guarded:
            raise DomainError("automorphisms act on plain disc points only: pass "
                              "DiscPoint(z.value) where that value is faithful")
        v = _cdiv(self.a - z.value, 1.0 - _cmul(self.a.conjugate(), z.value))
        w = _cmul(cmath.exp(1j * self.phase), v)
        r = _cabs(w)
        with np.errstate(divide="ignore", invalid="ignore"):  # r = 0, not kept
            w = np.where(r >= 1.0, w * ((1.0 - 1e-16) / r), w)
        return DiscPoint(w if isinstance(z.value, np.ndarray) else complex(w))

    def apply_boundary(self, sigma: complex) -> complex:
        """Continuous boundary extension; |sigma| = 1 maps to modulus 1."""
        sigma = complex(sigma)
        if not abs(abs(sigma) - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"boundary point sigma must be unimodular, got {sigma}")
        w = cmath.exp(1j * self.phase) * (self.a - sigma) / (1.0 - self.a.conjugate() * sigma)
        return w / abs(w)

    def inverse(self) -> "DiscAutomorphism":
        return DiscAutomorphism(cmath.exp(1j * self.phase) * self.a, -self.phase)
