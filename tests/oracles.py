"""Independent slow oracles used only by the tests.

These deliberately avoid the closed forms they are checking: golden-section
search for hyperbolic projections, brute-force discretised boundaries for
Euclidean distances (also to the complements of the enlarged domains
Omega^+-), and 50-digit cartesian evaluations of the half-plane
distance and of the Euclidean surrogates.
"""

import math

import mpmath
import numpy as np

from hypspeed import (Comb, DiscPoint, HalfPlaneRight, Koebe, RadialGeodesic,
                      Sector, Strip, contains, omega)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_minimize(f, lo: float, hi: float, iters: int = 200) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def project_by_golden(z: DiscPoint, geo: RadialGeodesic) -> DiscPoint:
    r = golden_minimize(lambda r: omega(DiscPoint(r * geo.tau), z),
                        -1.0 + 1e-12, 1.0 - 1e-12)
    return DiscPoint(r * geo.tau)


def brute_force_distance(p: complex, boundary_points) -> float:
    return min(abs(p - q) for q in boundary_points)


def slit_points(x: float, top: float, depth: float = 50.0, density: int = 4000):
    """Dense discretisation of the vertical slit {x + iy : top - depth <= y <= top}."""
    return [complex(x, top - depth * k / density) for k in range(density + 1)]


def comb_boundary_points(teeth, depth: float = 50.0, density: int = 4000):
    """Dense discretisation of the comb slits down to Im = top - depth."""
    pts = []
    for a, b in teeth:
        pts += slit_points(a, b, depth, density) + slit_points(-a, b, depth, density)
    return pts


def sector_boundary_points(apex: complex, ang_lo: float, ang_hi: float,
                           reach: float = 400.0, density: int = 8000):
    pts = [apex]
    for ang in (ang_lo, ang_hi):
        d = complex(math.cos(ang), math.sin(ang))
        for k in range(1, density + 1):
            pts.append(apex + d * (reach * k / density) ** 1.5)
    return pts


def brute_delta_pm(domain, sign, qs, window: float = 40.0, step: float = 2.5e-3):
    """delta_pm at each point of the array qs from the set definition, for
    queries within about `window` of the origin: the distance to a dense
    sample of the boundary of complement(Omega) cut to {Re <= Re ref} (side
    "plus") or {Re >= Re ref} ("minus"), +inf when that set is empty.  The
    sample holds the boundary pieces of Omega on the kept side and the points
    Re ref + iy that `contains` rejects; it lies inside the set, so the
    result never undershoots, and it overshoots by at most half a spacing."""
    c, plus = sign.ref.real, sign.side == "plus"
    line = int(2 * window / step)
    if isinstance(domain, HalfPlaneRight):
        pts = slit_points(domain.p.real, window, 2 * window, line)
    elif isinstance(domain, Strip):
        pts = (slit_points(0.0, window, 2 * window, line)
               + slit_points(domain.r, window, 2 * window, line))
    elif isinstance(domain, Sector):
        reach = 2.0 * window ** (2.0 / 3.0)  # rays out to 2^1.5 * window
        pts = sector_boundary_points(domain.p, domain.ray_lo, domain.ray_hi, reach,
                                     int(1.5 * reach * window ** (1.0 / 3.0) / step))
    elif isinstance(domain, Koebe):
        pts = slit_points(domain.p.real, domain.p.imag, 2 * window, line)
    elif isinstance(domain, Comb):
        pts = comb_boundary_points(domain.teeth, 2 * window, line)
    else:
        raise ValueError(f"no boundary sampler for {domain!r}")
    pts = np.array(pts)
    pts = pts[pts.real <= c] if plus else pts[pts.real >= c]
    cut = c + 1j * np.linspace(-window, window, line + 1)
    pts = np.concatenate([pts, cut[~contains(domain, cut)]])
    if not pts.size:
        return np.full(qs.shape, math.inf)
    return np.array([math.sqrt(np.min((q.real - pts.real) ** 2 + (q.imag - pts.imag) ** 2))
                     for q in qs])


def mp_point(log_rho, theta, cos_theta=None):
    """rho e^{i theta} at the working precision; a given cosine fixes the
    point where theta has rounded to +-pi/2, the sign of theta its side."""
    if cos_theta is None:
        return mpmath.exp(log_rho) * mpmath.expj(theta)
    c = mpmath.mpf(cos_theta)
    s = mpmath.sqrt(1 - c * c)
    return mpmath.exp(log_rho) * mpmath.mpc(c, s if theta >= 0 else -s)


def mp_k_half(l1, t1, l2, t2, c1=None, c2=None, dps=50):
    """k_H from cartesian points at dps digits, through 1 - m^2 =
    4 Re w1 Re w2 / |w1 + conj w2|^2, which never cancels."""
    with mpmath.workdps(dps):
        w1, w2 = mp_point(l1, t1, c1), mp_point(l2, t2, c2)
        s = abs(w1 + mpmath.conj(w2))
        m = abs(w1 - w2) / s
        one_minus_m2 = 4 * w1.real * w2.real / s ** 2
        return mpmath.log1p(m) - mpmath.log(one_minus_m2) / 2


def mp_surrogates(log_rho, theta, cos_theta):
    """(s_total, s_orth, s_tang) at the half-plane point w from their
    definitions at 50 digits: eta = (w-1)/(w+1), s_total = -log(1-|eta|)/2,
    s_orth = -log|1-eta|/2 (the Denjoy-Wolff point is 1).  1 - |eta| is
    (1 - |eta|^2)/(1 + |eta|) with 1 - |eta|^2 = 4 Re w/|w+1|^2, and
    1 - eta = 2/(w+1): neither cancels, however close eta is to the circle."""
    with mpmath.workdps(50):
        w = mp_point(log_rho, theta, cos_theta)
        eta = (w - 1) / (w + 1)
        s_total = -mpmath.log(4 * w.real / abs(w + 1) ** 2 / (1 + abs(eta))) / 2
        s_orth = -mpmath.log(abs(2 / (w + 1))) / 2
        return s_total, s_orth, s_total - s_orth
