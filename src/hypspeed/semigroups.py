"""Koenigs models: semigroups built from the image domain of their model map.

A semigroup here is the family phi_t = h^{-1}(h(.) + it) where h maps the
unit disc onto a chosen starlike-at-infinity domain.  The model map is
h = F^{-1} o C, with C the Cayley transform of ``hyperbolic`` and F the
domain's chain onto the half plane, so h(0) is always the domain's
canonical base point.  Every chain sends the upward end to infinity of H,
so the Denjoy-Wolff point is C^{-1}(inf) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import (Comb, DomainSpec, HalfPlaneRight, Koebe, Sector, Strip,
                      UnsupportedDomainOperation, canonical_base_point,
                      to_halfplane)
from .hyperbolic import (ORIGIN, DiscPoint, DomainError, cayley, cayley_inv,
                         in_halfplane)
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
    if isinstance(domain, HalfPlaneRight):
        return ParabolicPositiveStep()
    if isinstance(domain, (Koebe, Comb)):
        return ParabolicZeroStep()
    if isinstance(domain, Sector):
        # sweeping p + iV(alpha, beta) downward fills the plane iff the open
        # sector contains the vertical direction, i.e. alpha and beta both > 0;
        # with exactly one of them zero the sweep fills a half plane.
        if domain.alpha > 0.0 and domain.beta > 0.0:
            return ParabolicZeroStep()
        return ParabolicPositiveStep()
    raise DomainError(f"unknown domain {domain!r}")


@dataclass(frozen=True)
class KoenigsSemigroup:
    """A non-elliptic semigroup presented through its holomorphic model."""

    image_domain: DomainSpec
    chain: RiemannMapChain | None  # F^{-1}: half plane -> image domain (None for combs)
    base_model_point: complex | None


def koenigs_semigroup(domain: DomainSpec) -> KoenigsSemigroup:
    """Build the semigroup with Koenigs image the given domain."""
    classify(domain)  # rejects objects that are not domains
    if isinstance(domain, Comb):
        return KoenigsSemigroup(domain, None, None)
    chain = RiemannMapChain(to_halfplane(domain).inverse_links())
    return KoenigsSemigroup(domain, chain, canonical_base_point(domain))


def model_point(sg: KoenigsSemigroup, z: DiscPoint = ORIGIN) -> complex:
    """h(z) = F^{-1}(C(z)): the model image of a disc point, or an array of
    them for a batch z.  A guarded z enters through its exact half-plane
    witness."""
    if sg.chain is None:
        raise UnsupportedDomainOperation("comb image domains carry no closed-form model map")
    # for a batch the comparison is an array, never True: the chain maps it
    if (z.value == 0) is True and not z.guarded:
        return sg.base_model_point
    return sg.chain.forward(cayley(z))


def orbit_halfplane(sg: KoenigsSemigroup, z: DiscPoint, t: float) -> LogPolar:
    """The half-plane representation C(phi_t(z)) = F(h(z) + it), exact in
    log-polar form for t as large as 1e12.  An array of times, or a batch z
    whose shape broadcasts against it, gives a batch LogPolar from one pass
    through the chain."""
    negative = t < 0  # a bool for one time, an array for an array of times
    if negative is True or (negative is not False and negative.any()):
        raise ValueError("orbit times must be nonnegative")
    hz = model_point(sg, z)
    return in_halfplane(to_halfplane(sg.image_domain).forward_lp(hz + 1j * t))


def orbit(sg: KoenigsSemigroup, z: DiscPoint, t: float) -> DiscPoint:
    """phi_t(z) = h^{-1}(h(z) + it); boundary-hugging results come back in
    guarded form carrying their exact half-plane witness."""
    return cayley_inv(orbit_halfplane(sg, z, t))


def denjoy_wolff(sg: KoenigsSemigroup) -> complex:
    """The common orbit limit on the unit circle.

    Fixed by the normalisation: every chain sends the upward end of the
    image domain to infinity of H, and the inverse Cayley transform sends
    infinity to 1.
    """
    if sg.chain is None:
        raise UnsupportedDomainOperation("comb image domains are not orbit-evaluable")
    return 1 + 0j


def hyperbolic_step_gap(sg: KoenigsSemigroup, t: float, z: DiscPoint = ORIGIN) -> float:
    """omega(phi_t(z), phi_{t+1}(z)), computed entirely in the half plane
    (an array for an array of times)."""
    from .hyperbolic import k_half

    return k_half(orbit_halfplane(sg, z, t), orbit_halfplane(sg, z, t + 1.0))
