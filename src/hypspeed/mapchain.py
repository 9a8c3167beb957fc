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

Links and chains also act on a batch: a ``LogPolar`` whose fields are numpy
arrays, or a complex array handed to a chain.  A chain dispatches once per
call, to the links' scalar ``fwd`` for a single point or to their
``fwd_array`` for a batch, which takes each element through the branch the
scalar code would take.
"""

from __future__ import annotations

import cmath
import functools
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
    with np.errstate(divide="ignore", invalid="ignore"):  # the other case's ratio
        ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    return _complex(np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
                    np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom)


def wrap_angle(a: float) -> float:
    """Reduce an angle to the principal range (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def _wrap_angle_array(a: np.ndarray) -> np.ndarray:
    a = np.fmod(a, TWO_PI)
    return np.where(a <= -math.pi, a + TWO_PI, np.where(a > math.pi, a - TWO_PI, a))


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
    batch of points, which chain links and the metric operations of
    ``hyperbolic`` accept in place of a single point.  A batch's ``cart`` is
    None or a complex array whose NaN entries mark the points that have no
    exact cartesian value.
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
        """The complex value of one point; a chain's ``forward`` and
        ``inverse`` also convert a batch."""
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


def _cartesian(p: LogPolar) -> np.ndarray:
    """to_complex on a batch without its overflow check: the exact cartesian
    value where a point has one, else rect(exp(log_rho), theta), which
    overflows beyond _LOG_WIDE."""
    lost = None if p.cart is None else np.isnan(p.cart.real)
    if lost is not None and not lost.any():
        return p.cart
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.exp(p.log_rho)
        rect = _complex(r * np.cos(p.theta), r * np.sin(p.theta))
    return rect if lost is None else np.where(lost, rect, p.cart)


def _to_complex(p: LogPolar):
    """p.to_complex() for a point or a batch; a batch fails as a whole when
    one of its points would overflow."""
    if not isinstance(p.log_rho, np.ndarray):
        return p.to_complex()
    lost = p.log_rho > _LOG_WIDE
    if p.cart is not None:
        lost &= np.isnan(p.cart.real)
    if lost.any():
        raise OverflowError(
            f"log-polar value with log_rho={p.log_rho[lost].max():g} "
            "does not fit in a complex double"
        )
    return _cartesian(p)


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

    def fwd_array(self, p: LogPolar) -> LogPolar:
        wide = p.log_rho > _LOG_WIDE
        with np.errstate(all="ignore"):  # each branch is kept on its own points only
            narrow = _from_complex_array(_cmul(self.a, _cartesian(p)) + self.b)
            if not wide.any():
                return narrow
            e = np.exp(-p.log_rho)
            u = _cmul(self.b / self.a, _complex(e * np.cos(-p.theta), e * np.sin(-p.theta)))
            corr = 1.0 + u
            ang = _wrap_angle_array(p.theta + cmath.phase(self.a)
                                    + np.arctan2(corr.imag, corr.real))
            r_corr = _cabs(corr)
            turn = _cmul(self.a / abs(self.a), _complex(corr.real / r_corr, corr.imag / r_corr))
            cos_ang = p.cos * turn.real - np.sin(p.theta) * turn.imag
            log_rho = p.log_rho + math.log(abs(self.a)) + np.log(r_corr)
        return LogPolar(np.where(wide, log_rho, narrow.log_rho),
                        np.where(wide, ang, narrow.theta),
                        np.where(wide, cos_ang, narrow.cos_theta),
                        np.where(wide, complex(math.nan, math.nan), narrow.cart))

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

    def fwd_array(self, p: LogPolar) -> LogPolar:
        """One element outside the sector fails the whole batch."""
        slack = 1e-9
        inside = (self.angle_lo - slack <= p.theta) & (p.theta <= self.angle_hi + slack)
        outside = ~(inside | p.is_zero)
        if outside.any():
            raise BranchError(
                f"power link input angle {p.theta[outside][0]:g} outside "
                f"[{self.angle_lo:g}, {self.angle_hi:g}]"
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

    def fwd_array(self, p: LogPolar) -> LogPolar:
        cw = _cmul(self.c, _to_complex(p))
        return LogPolar(cw.real, _wrap_angle_array(cw.imag - HALF_PI), np.sin(cw.imag))

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

    def fwd_array(self, p: LogPolar) -> LogPolar:
        if p.is_zero.any():
            raise ValueError("log link is singular at 0")
        z = _cdiv(_complex(p.log_rho, _wrap_angle_array(p.theta + HALF_PI)), self.c)
        return _from_complex_array(z)

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
        """F(w) for a point, a complex array or a batch LogPolar."""
        return _apply(self.links, w)

    def forward(self, w) -> complex:
        return _to_complex(self.forward_lp(w))

    def inverse_links(self) -> tuple[Link, ...]:
        return self._inverse_links

    @functools.cached_property
    def _inverse_links(self) -> tuple[Link, ...]:
        # built on first use, once per chain; not a field, so outside eq/repr
        return tuple(link.inverse_link() for link in reversed(self.links))

    def inverse_lp(self, w) -> LogPolar:
        return _apply(self._inverse_links, w)

    def inverse(self, w) -> complex:
        return _to_complex(self.inverse_lp(w))

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


def _apply(links: tuple[Link, ...], w) -> LogPolar:
    if isinstance(w, (complex, float, int)):  # one point, as sample_speeds passes
        p = LogPolar.from_complex(w)
    else:
        p = w if isinstance(w, LogPolar) else _from_complex_array(np.asarray(w, dtype=complex))
        if isinstance(p.log_rho, np.ndarray):
            for link in links:
                p = link.fwd_array(p)
            return p
    for link in links:
        p = link.fwd(p)
    return p
