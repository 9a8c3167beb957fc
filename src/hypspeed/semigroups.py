"""Koenigs models: semigroups built from the image domain of their model map.

A semigroup here is the family phi_t = h^{-1}(h(.) + it) where h maps the
unit disc onto a chosen starlike-at-infinity domain.  The model map is
h = F^{-1} o C, with C the Cayley transform of ``hyperbolic`` and F the
domain's map onto the half plane, so h(0) = p + base is the point F sends
to 1.  Every map sends the upward end to infinity of H, so the
Denjoy-Wolff point is C^{-1}(inf) = 1.  Orbits are evaluated at
h(z) - p + it relative to the domain's apex p, so no offset changes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import (Comb, DomainSpec, HalfPlaneRight, Koebe, Sector, Strip,
                      UnsupportedDomainOperation, to_halfplane)
from .hyperbolic import (ORIGIN, DiscPoint, DomainError, cayley, cayley_inv,
                         in_halfplane, k_half)
from .mapchain import LogPolar, RiemannMapChain


@dataclass(frozen=True)
class Hyperbolic:
    spectral_value: float


@dataclass(frozen=True)
class ParabolicPositiveStep:
    pass


@dataclass(frozen=True)
class ParabolicZeroStep:
    pass


Classification = Hyperbolic | ParabolicPositiveStep | ParabolicZeroStep


def classify(domain: DomainSpec) -> Classification:
    """Type of the semigroup whose Koenigs image is the given domain.

    The union of downward translates of the image determines the model base:
    a strip gives a hyperbolic semigroup with spectral value pi/r, a half
    plane gives positive hyperbolic step, the whole plane gives zero step.
    """
    if isinstance(domain, Strip):
        return Hyperbolic(math.pi / domain.r)
    if isinstance(domain, Comb):
        return ParabolicZeroStep()
    if isinstance(domain, (HalfPlaneRight, Sector, Koebe)):
        # sweeping p + iV(alpha, beta) downward fills the plane iff the open
        # sector contains the vertical direction, i.e. alpha and beta both > 0,
        # as for a Koebe domain (pi, pi); with one of them zero, as for a half
        # plane (pi, 0), the sweep fills a half plane.
        if domain.alpha > 0.0 and domain.beta > 0.0:
            return ParabolicZeroStep()
        return ParabolicPositiveStep()
    raise DomainError(f"unknown domain {domain!r}")


@dataclass(frozen=True)
class KoenigsSemigroup:
    """A non-elliptic semigroup presented through its holomorphic model."""

    image_domain: DomainSpec


def koenigs_semigroup(domain: DomainSpec) -> KoenigsSemigroup:
    """Build the semigroup with Koenigs image the given domain."""
    classify(domain)  # rejects objects that are not domains
    if not isinstance(domain, Comb):
        to_halfplane(domain)  # built once here and kept on the domain
    return KoenigsSemigroup(domain)


def _model_offset(fmap: RiemannMapChain, z: DiscPoint):
    """h(z) - p: the map's exact base for z = 0, else F^{-1}(C(z)) - p."""
    # for a batch the comparison is an array, never True: the map inverts it
    if (z.value == 0) is True and not z.guarded:
        return fmap.base
    return fmap.inverse(cayley(z))


def model_point(sg: KoenigsSemigroup, z: DiscPoint = ORIGIN) -> complex:
    """h(z) = F^{-1}(C(z)): the absolute model image of a disc point (which
    rounds at a far apex p), or an array of them for a batch z.  A guarded
    z enters through its exact half-plane witness."""
    fmap = to_halfplane(sg.image_domain)  # a comb has none
    return fmap.p + _model_offset(fmap, z)


def orbit_halfplane(sg: KoenigsSemigroup, z: DiscPoint, t: float) -> LogPolar:
    """The half-plane representation C(phi_t(z)) = F(h(z) + it), exact in
    log-polar form for t as large as 1e12, evaluated at h(z) - p + it so
    that no digit of the apex p enters.  An array of times, or a batch z
    whose shape broadcasts against it, gives a batch LogPolar from one pass
    through the map.  A point whose log rho overflows (a strip past its
    time range) is a DomainError naming the first such time."""
    negative = t < 0  # a bool for one time, an array for an array of times
    if negative is True or (negative is not False and negative.any()):
        raise ValueError("orbit times must be nonnegative")
    fmap = to_halfplane(sg.image_domain)  # a comb has none
    p = fmap.forward_lp(_model_offset(fmap, z) + 1j * t)
    try:
        return in_halfplane(p)
    except DomainError as exc:
        over = np.asarray(p.log_rho) == math.inf
        if not over.any():
            raise
        first = float(np.broadcast_to(t, over.shape)[over][0])
        raise DomainError(f"orbit time t={first!r} is past the supported time range: "
                          "the half-plane log rho overflows a double") from exc


def orbit(sg: KoenigsSemigroup, z: DiscPoint, t: float) -> DiscPoint:
    """phi_t(z) = h^{-1}(h(z) + it), a point or a batch, carrying its exact
    half-plane point as witness, however close to the circle it lies."""
    return cayley_inv(orbit_halfplane(sg, z, t))


def denjoy_wolff(sg: KoenigsSemigroup) -> complex:
    """The common orbit limit on the unit circle.

    Fixed by the normalisation: every map sends the upward end of the
    image domain to infinity of H, and the inverse Cayley transform sends
    infinity to 1.
    """
    if isinstance(sg.image_domain, Comb):
        raise UnsupportedDomainOperation("comb image domains are not orbit-evaluable")
    return 1 + 0j


def hyperbolic_step_gap(sg: KoenigsSemigroup, t: float, z: DiscPoint = ORIGIN) -> float:
    """omega(phi_t(z), phi_{t+1}(z)), computed entirely in the half plane
    (an array for an array of times)."""
    return k_half(orbit_halfplane(sg, z, t), orbit_halfplane(sg, z, t + 1.0))
