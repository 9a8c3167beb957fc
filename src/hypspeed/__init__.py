"""Speeds of orbits of non-elliptic semigroups of the unit disc.

Exact hyperbolic geometry in the disc and right half plane, closed-form
Koenigs models over canonical starlike-at-infinity domains, total/orthogonal/
tangential orbit speeds, the comb construction beating any sublinear gauge,
and seeded verification suites for every inequality of the theory.
"""

from .comb import CombConstruction, build_comb, gauge, verify_comb
from .domains import (Comb, DomainError, DomainSpec, HalfPlaneRight, Koebe,
                      OmegaSign, Sector, Strip, UnsupportedDomainOperation,
                      contains, delta, delta_pm, domain_from_json, domain_to_json,
                      k_domain, quasihyp_lower, to_halfplane)
from .hyperbolic import (ORIGIN, DiscAutomorphism, DiscPoint, HalfPlanePoint,
                         RadialGeodesic, cayley, cayley_inv, dist_to_radius,
                         k_half, kappa, omega, path_length, project_to_radius)
from .semigroups import (Hyperbolic, KoenigsSemigroup, ParabolicPositiveStep,
                         ParabolicZeroStep, classify, denjoy_wolff,
                         koenigs_semigroup, orbit, orbit_halfplane)
from .speeds import (AsymptoticFit, SpeedSample, SurrogateSpeeds, default_grid,
                     fit_asymptotic, nontangential_ratio, sample_speeds,
                     surrogate_speeds)
from .verify import SuiteReport, coverage_check, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit", "Comb", "CombConstruction", "DiscAutomorphism",
    "DiscPoint", "DomainError", "DomainSpec", "HalfPlanePoint",
    "HalfPlaneRight", "Hyperbolic", "Koebe", "KoenigsSemigroup", "ORIGIN",
    "OmegaSign", "ParabolicPositiveStep", "ParabolicZeroStep",
    "RadialGeodesic", "Sector", "SpeedSample", "Strip",
    "SuiteReport", "SurrogateSpeeds", "UnsupportedDomainOperation",
    "build_comb", "cayley", "cayley_inv", "classify",
    "contains", "coverage_check", "default_grid", "delta", "delta_pm",
    "denjoy_wolff", "dist_to_radius", "domain_from_json", "domain_to_json",
    "fit_asymptotic", "gauge", "k_domain", "k_half", "kappa",
    "koenigs_semigroup", "nontangential_ratio", "omega", "orbit",
    "orbit_halfplane", "path_length", "project_to_radius", "quasihyp_lower",
    "run_all", "run_suite", "sample_speeds", "surrogate_speeds",
    "to_halfplane", "verify_comb",
]
