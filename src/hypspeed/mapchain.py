"""Log-polar points and invertible chains of primitive conformal maps.

``LogPolar`` is the package's one point type: a nonzero complex number
``rho * exp(i*theta)`` carried as ``(log rho, theta)``, with an optional
full-precision ``cos theta`` and an optional exact cartesian value.  Chain
links map it to itself, and the half-plane layer (``hyperbolic``) reads
orbit points in the right half plane as the same values once they pass its
validity check.

Every primitive here acts simply on that representation.  That is what
makes orbits at huge times tractable: a sector power map multiplies
``log rho`` by its exponent and an exponential map turns a bounded strip
coordinate into a possibly enormous ``log rho`` without ever materialising
the overflowing complex number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi
LOG2 = math.log(2.0)

# Complex doubles stay finite below exp(709); switch representations before.
_LOG_WIDE = 700.0


class BranchError(ValueError):
    """A power link was evaluated (or built) outside its recorded sector."""


def wrap_angle(a: float) -> float:
    """Reduce an angle to the principal range (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class LogPolar:
    """A nonzero complex number rho*exp(i*theta) stored as (log rho, theta).

    ``cos_theta`` is an optional high-accuracy value of cos(theta).  When a
    point is created from exact cartesian data the cosine is known to full
    relative precision even for angles within 1e-12 of +-pi/2, which the
    stored ``theta`` alone cannot resolve.  ``cart`` keeps the originating
    cartesian value so that chains of moderate-size links never degrade it
    by round-tripping through polar form.  log_rho == -inf encodes zero.

    The fields may also be numpy arrays of one shape: such a value is a
    batch of points, which the metric operations of ``hyperbolic`` accept
    in place of a single point.  Chain links act on single points only.
    """

    log_rho: float
    theta: float
    cos_theta: float | None = field(default=None, compare=False)
    cart: complex | None = field(default=None, compare=False)

    @staticmethod
    def from_complex(w: complex) -> "LogPolar":
        w = complex(w)
        if w == 0:
            return LogPolar(float("-inf"), 0.0, 1.0, 0j)
        r = abs(w)
        return LogPolar(math.log(r), cmath.phase(w), w.real / r, w)

    def to_complex(self) -> complex:
        if self.cart is not None:
            return self.cart
        if self.log_rho == float("-inf"):
            return 0j
        if self.log_rho > _LOG_WIDE:
            raise OverflowError(
                f"log-polar value with log_rho={self.log_rho:g} does not fit in a complex double"
            )
        return cmath.rect(math.exp(self.log_rho), self.theta)

    @property
    def cos(self) -> float:
        if self.cos_theta is not None:
            return self.cos_theta
        if isinstance(self.theta, np.ndarray):
            return np.cos(self.theta)
        return math.cos(self.theta)

    @property
    def is_zero(self) -> bool:
        return self.log_rho == float("-inf")


def _coerce(w) -> LogPolar:
    return w if isinstance(w, LogPolar) else LogPolar.from_complex(w)


@dataclass(frozen=True)
class Affine:
    """w -> a*w + b."""

    a: complex
    b: complex

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("affine link requires a != 0")

    def fwd(self, p: LogPolar) -> LogPolar:
        if p.is_zero:
            return LogPolar.from_complex(self.b)
        if p.log_rho <= _LOG_WIDE:
            return LogPolar.from_complex(self.a * p.to_complex() + self.b)
        # |w| too large for a double: a*w + b = a*w*(1 + b/(a*w)), u underflows
        # harmlessly to 0 when it is below double resolution.
        u = (self.b / self.a) * cmath.exp(complex(-p.log_rho, -p.theta))
        corr = 1.0 + u
        ang = wrap_angle(p.theta + cmath.phase(self.a) + cmath.phase(corr))
        # carry the cosine through the turn phi: theta may have rounded to
        # +-pi/2, where cos(theta + phi) cannot be recovered from the angle
        turn = self.a / abs(self.a) * (corr / abs(corr))
        cos_ang = p.cos * turn.real - math.sin(p.theta) * turn.imag
        return LogPolar(p.log_rho + math.log(abs(self.a)) + math.log(abs(corr)), ang, cos_ang)

    def inverse_link(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)

    def log_abs_deriv(self, p: LogPolar) -> float:
        return math.log(abs(self.a))


@dataclass(frozen=True)
class Power:
    """w -> w**gamma, principal branch, restricted to a recorded input sector."""

    gamma: float
    angle_lo: float
    angle_hi: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("power link requires gamma > 0")
        if not (-math.pi <= self.angle_lo < self.angle_hi <= math.pi):
            raise BranchError("power link input sector must sit inside (-pi, pi]")
        tol = 1e-12
        if self.gamma * self.angle_lo < -math.pi - tol or self.gamma * self.angle_hi > math.pi + tol:
            raise BranchError(
                "power link would leave the principal branch: "
                f"gamma={self.gamma:g} on [{self.angle_lo:g}, {self.angle_hi:g}]"
            )

    def fwd(self, p: LogPolar) -> LogPolar:
        if p.is_zero:
            return p
        slack = 1e-9
        if not (self.angle_lo - slack <= p.theta <= self.angle_hi + slack):
            raise BranchError(
                f"power link input angle {p.theta:g} outside [{self.angle_lo:g}, {self.angle_hi:g}]"
            )
        if self.gamma == 1.0:
            return p
        return LogPolar(self.gamma * p.log_rho, self.gamma * p.theta)

    def inverse_link(self) -> "Power":
        return Power(1.0 / self.gamma, self.gamma * self.angle_lo, self.gamma * self.angle_hi)

    def log_abs_deriv(self, p: LogPolar) -> float:
        return math.log(self.gamma) + (self.gamma - 1.0) * p.log_rho


@dataclass(frozen=True)
class ExpScale:
    """w -> -i * exp(c*w).  Output handed over in log-polar form."""

    c: complex

    def fwd(self, p: LogPolar) -> LogPolar:
        cw = self.c * p.to_complex()
        # cos(Im(cw) - pi/2) == sin(Im(cw)): full precision near the sector rim.
        return LogPolar(cw.real, wrap_angle(cw.imag - HALF_PI), math.sin(cw.imag))

    def inverse_link(self) -> "ExpLog":
        return ExpLog(self.c)

    def log_abs_deriv(self, p: LogPolar) -> float:
        cw = self.c * p.to_complex()
        return math.log(abs(self.c)) + cw.real


@dataclass(frozen=True)
class ExpLog:
    """w -> Log(i*w)/c, the principal inverse of ExpScale(c)."""

    c: complex

    def fwd(self, p: LogPolar) -> LogPolar:
        if p.is_zero:
            raise ValueError("log link is singular at 0")
        z = complex(p.log_rho, wrap_angle(p.theta + HALF_PI)) / self.c
        return LogPolar.from_complex(z)

    def inverse_link(self) -> "ExpScale":
        return ExpScale(self.c)

    def log_abs_deriv(self, p: LogPolar) -> float:
        return -math.log(abs(self.c)) - p.log_rho


Link = Affine | Power | ExpScale | ExpLog


@dataclass(frozen=True)
class RiemannMapChain:
    """An ordered, link-by-link invertible composition of primitive maps."""

    links: tuple[Link, ...]

    def __init__(self, links):
        object.__setattr__(self, "links", tuple(links))

    def forward_lp(self, w) -> LogPolar:
        p = _coerce(w)
        for link in self.links:
            p = link.fwd(p)
        return p

    def forward(self, w) -> complex:
        return self.forward_lp(w).to_complex()

    def inverse_links(self) -> tuple[Link, ...]:
        return tuple(link.inverse_link() for link in reversed(self.links))

    def inverse_lp(self, w) -> LogPolar:
        p = _coerce(w)
        for link in self.inverse_links():
            p = link.fwd(p)
        return p

    def inverse(self, w) -> complex:
        return self.inverse_lp(w).to_complex()

    def log_abs_derivative(self, w) -> float:
        """log |F'(w)| accumulated link by link (never over/underflows)."""
        p = _coerce(w)
        total = 0.0
        for link in self.links:
            total += link.log_abs_deriv(p)
            p = link.fwd(p)
        return total

    def then(self, *links: Link) -> "RiemannMapChain":
        return RiemannMapChain(self.links + tuple(links))
