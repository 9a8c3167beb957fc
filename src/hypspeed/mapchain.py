"""Log-polar points and the closed-form maps of the model domains onto H.

``LogPolar`` is the package's one point type: a nonzero complex number
``rho * exp(i*theta)`` carried as ``(log rho, theta)``, with an optional
full-precision ``cos theta`` and an optional exact cartesian value.  The
half-plane layer (``hyperbolic``) reads orbit points in the right half plane
as the same values once they pass its validity check.

``RiemannMapChain`` is the map F of one model domain onto the right half
plane, written in closed form at the point u = w - p relative to the
domain's apex p.  That is what makes orbits tractable at huge times and any
offset: a strip's exponential turns a bounded coordinate into a possibly
enormous ``log rho`` without materialising the overflowing complex number,
and an orbit point h(z) + it is handed over as h(z) - p + it, so the digits
of p never enter it.

Each operation here has one body for a point and a batch, except the
point kernels of the per-time loop of ``sample_speeds``, which run plain
``math``: the point branch of ``forward_lp`` and ``LogPolar.from_complex``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

HALF_PI = 0.5 * math.pi
LOG2 = math.log(2.0)

# Complex doubles stay finite below exp(709); to_complex refuses more than this.
_LOG_WIDE = 700.0


# Complex arithmetic on arrays in CPython's operation order (numpy's own
# complex product, quotient and modulus round differently), so a batch
# differs from the scalar code only where numpy's transcendental functions do.


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cabs(a):
    return np.hypot(a.real, a.imag)


def _cmul(a, b) -> np.ndarray:
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b) -> np.ndarray:
    b = np.asarray(b)  # a Python complex divisor would raise on a zero part
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):  # the other case's ratio may overflow or divide by 0
        ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    return _complex(np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
                    np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom)


@dataclass(frozen=True, init=False)
class LogPolar:
    """A nonzero complex number rho*exp(i*theta) stored as (log rho, theta).

    ``cos_theta`` is an optional high-accuracy value of cos(theta).  When a
    point is created from exact cartesian data the cosine is known to full
    relative precision even for angles within 1e-12 of +-pi/2, which the
    stored ``theta`` alone cannot resolve.  ``cart`` keeps the originating
    cartesian value, so that a point converted back to a complex value is
    not degraded by a round trip through polar form.  log_rho == -inf encodes zero.

    The fields may also be numpy arrays of one shape: such a value is a
    batch of points, which the maps here and the metric operations of
    ``hyperbolic`` accept in place of a single point.  A batch's ``cart`` is
    None or the exact cartesian value of every point.
    """

    log_rho: float
    theta: float
    cos_theta: float | None = field(default=None, compare=False)
    cart: complex | None = field(default=None, compare=False)

    def __init__(self, log_rho, theta, cos_theta=None, cart=None):
        # one dict update, not four object.__setattr__: one point per table time
        self.__dict__.update(log_rho=log_rho, theta=theta, cos_theta=cos_theta, cart=cart)

    @staticmethod
    def from_complex(w: complex) -> "LogPolar":
        # one point in plain math: sample_speeds' per-time loop runs it
        w = complex(w)
        if w == 0:
            return LogPolar(float("-inf"), 0.0, 1.0, 0j)
        r = abs(w)
        return LogPolar(math.log(r), cmath.phase(w), w.real / r, w)

    def to_complex(self):
        """The complex value of the point, or of each point of a batch; a
        batch fails as a whole when one of its points would overflow."""
        if self.cart is not None:
            return self.cart
        if np.any(self.log_rho > _LOG_WIDE):
            raise OverflowError(
                f"log-polar value with log_rho={np.max(self.log_rho):g} "
                "does not fit in a complex double"
            )
        r = np.exp(self.log_rho)
        w = _complex(r * np.cos(self.theta), r * np.sin(self.theta))
        return w if isinstance(self.log_rho, np.ndarray) else complex(w)

    @property
    def cos(self) -> float:
        """cos theta: the kept cosine, which every orbit point carries, else
        numpy's of the angle."""
        return np.cos(self.theta) if self.cos_theta is None else self.cos_theta


def _from_complex_array(w: np.ndarray) -> LogPolar:
    """LogPolar.from_complex on each element of a complex array."""
    r = _cabs(w)
    theta = np.arctan2(w.imag, w.real)
    zero = r == 0.0
    if not zero.any():
        return LogPolar(np.log(r), theta, w.real / r, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r, cos = np.log(r), w.real / r
    return LogPolar(log_r, np.where(zero, 0.0, theta), np.where(zero, 1.0, cos), w)


@dataclass(frozen=True)
class RiemannMapChain:
    """F: a model domain onto the right half plane, in closed form at the
    apex-relative point u = w - p, sending h(0) to 1 and the upward end to
    infinity.

    A strip {0 < Re u < r} (p = 0) goes by -i exp(-i k (u - r)), k = pi/r:
    log rho = k Im u and theta = k (r - Re u) - pi/2.  Every other domain is
    a sector about p (a half plane of opening pi, a Koebe domain of opening
    2 pi about its slit) and goes by (rot u)^gamma, where rot turns the
    bisector onto (0, inf) and gamma = pi / opening: log rho = gamma log|u|
    and theta = gamma arg(rot u).  The gap pi/2 - |theta| is gamma times the
    angle from u to the nearer boundary ray, taken from u's cross and dot
    products with the ray; an axial ray makes both exact.  The cosine is
    cos theta or sin(gap), from the smaller of |theta| and the gap: the two
    are equally sensitive (tan|theta| = cot gap), and the smaller angle
    carries the smaller rounding error, so the cosine keeps its relative
    precision where an orbit runs along a ray.  At gamma = 1 the image
    keeps rot u as its exact cartesian value.  A strip's cosine is the sine
    of the angle k Re u or k (r - Re u) to its nearer edge, for the same
    reason.

    Every method takes u (``inverse`` returns it) and a point or an array.
    ``forward_lp`` runs one point through ``math`` and an array through
    numpy; the inverse and ``log_abs_derivative`` have one numpy body each,
    which takes one point as a 0-d array.
    """

    p: complex               # the apex; 0 for a strip
    base: complex            # h(0) - p, which F sends to 1
    gamma: float = 1.0
    rot: complex = 1 + 0j
    ray_lo: complex = -1j    # unit directions of the boundary rays below
    ray_hi: complex = 1j     # and above the bisector
    width: float = 0.0       # a strip's r; 0 for a sector
    k: float = 0.0           # a strip's pi/r

    def forward_lp(self, u) -> LogPolar:
        """F(p + u) for a number or a complex array u."""
        if isinstance(u, np.ndarray):
            return self._strip_array(u) if self.width else self._sector_array(u)
        # one point in plain math: sample_speeds' per-time loop runs it
        if self.width:
            a = self.k * (self.width - u.real)
            gap = self.k * u.real if 2.0 * u.real <= self.width else a
            return LogPolar(self.k * u.imag, a - HALF_PI, math.sin(gap))
        g, v = self.gamma, self.rot * u
        if g == 1.0:
            return LogPolar.from_complex(v)
        e = self.ray_hi if v.imag >= 0.0 else self.ray_lo
        gap = math.atan2(abs(e.real * u.imag - e.imag * u.real), e.real * u.real + e.imag * u.imag)
        theta, gap = g * math.atan2(v.imag, v.real) + 0.0, g * gap  # -0.0 prints as 0
        cos = math.cos(theta) if abs(theta) <= gap else math.sin(gap)
        return LogPolar(g * math.log(abs(u)), theta, cos)

    def _strip_array(self, u: np.ndarray) -> LogPolar:
        a = self.k * (self.width - u.real)
        gap = np.where(2.0 * u.real <= self.width, self.k * u.real, a)
        with np.errstate(over="ignore"):  # an infinite log rho, as for one point
            return LogPolar(self.k * u.imag, a - HALF_PI, np.sin(gap))

    def _sector_array(self, u: np.ndarray) -> LogPolar:
        g, v = self.gamma, _cmul(self.rot, u)
        if g == 1.0:
            return _from_complex_array(v)
        hi = v.imag >= 0.0
        ex = np.where(hi, self.ray_hi.real, self.ray_lo.real)
        ey = np.where(hi, self.ray_hi.imag, self.ray_lo.imag)
        gap = g * np.arctan2(np.abs(ex * u.imag - ey * u.real), ex * u.real + ey * u.imag)
        theta = g * np.arctan2(v.imag, v.real)
        with np.errstate(divide="ignore"):  # log rho = -inf at the apex
            log_rho = g * np.log(_cabs(u))
        return LogPolar(log_rho, theta, np.where(np.abs(theta) <= gap, np.cos(theta), np.sin(gap)))

    def forward(self, u):
        """F(p + u) as a complex value; beyond e^700 a value without an
        exact cartesian form raises OverflowError."""
        return self.forward_lp(u).to_complex()

    def inverse(self, w):
        """F^-1(w) - p for a half-plane point or batch (a LogPolar), or a
        complex value or array; a value beyond e^700 raises OverflowError."""
        if not isinstance(w, LogPolar):
            w = _from_complex_array(np.asarray(w, dtype=complex))
        log_rho, theta = np.asarray(w.log_rho, dtype=float), np.asarray(w.theta, dtype=float)
        if self.width:
            u = _complex(self.width - (theta + HALF_PI) / self.k, log_rho / self.k)
        elif self.gamma == 1.0 and w.cart is not None:  # the exact value an image keeps
            u = _cmul(self.rot.conjugate(), w.cart)
        else:
            v = LogPolar(log_rho / self.gamma, theta / self.gamma).to_complex()
            u = _cmul(self.rot.conjugate(), v)
        return complex(u) if u.ndim == 0 else u

    def log_abs_derivative(self, u):
        """log |F'(p + u)| (never over/underflows), a float for one point and
        an array for a complex array."""
        u = np.asarray(u, dtype=complex)
        if self.width:
            d = math.log(self.k) + self.k * u.imag
        elif self.gamma == 1.0:  # the identity, also at the apex
            d = np.zeros(u.shape)
        else:
            with np.errstate(divide="ignore"):  # +inf at the apex
                d = math.log(self.gamma) + (self.gamma - 1.0) * np.log(_cabs(u))
        return float(d) if d.ndim == 0 else d
