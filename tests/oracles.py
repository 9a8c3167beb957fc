"""Independent slow oracles used only by the tests.

These deliberately avoid the closed forms they are checking: golden-section
search for hyperbolic projections, brute-force discretised boundaries for
Euclidean distances (also to the complements of the enlarged domains
Omega^+-), 50-digit cartesian evaluations of the half-plane
distance and of the Euclidean surrogates, the disc distance and density
from their definitions at 60 digits, the distance to a radial geodesic
and the foot on it from the stored disc point turned onto the real
diameter (at as many digits as the point's distance to the circle needs),
a 50-digit quadrature of the quasi-hyperbolic density along the
imaginary axis and the 50-digit distance from a point to the boundary rays
it reads, the domain maps and orbit speeds from their plain
complex formulas in coordinates relative to the domain's apex, the inverse
Cayley transform and the disc automorphisms from theirs, and domain
membership from the set definitions with 50-digit arguments.
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


def sector_boundary_points(sector, reach: float = 400.0, density: int = 8000):
    """Dense discretisation of the sector's rays at pi/2 - alpha and
    pi/2 + beta from its apex, out to reach^1.5."""
    pts = [sector.p]
    for ang in (math.pi / 2 - sector.alpha, math.pi / 2 + sector.beta):
        d = complex(math.cos(ang), math.sin(ang))
        for k in range(1, density + 1):
            pts.append(sector.p + d * (reach * k / density) ** 1.5)
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
        pts = sector_boundary_points(domain, reach,
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


def mp_omega(z, w, dps=60):
    """omega(z, w) = atanh(|z - w| / |1 - conj(z) w|) of the stored disc
    values at dps digits, from the definition that the program no longer
    evaluates."""
    with mpmath.workdps(dps):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return mpmath.atanh(abs(z - w) / abs(1 - mpmath.conj(z) * w))


def mp_kappa(z, v, dps=60):
    """The disc density |v| / (1 - |z|^2) at dps digits."""
    with mpmath.workdps(dps):
        return abs(mpmath.mpc(v)) / (1 - abs(mpmath.mpc(z)) ** 2)


def mp_moebius(a, phase, z, dps=50):
    """The disc automorphism e^{i phase} (a - z) / (1 - conj(a) z) at z, at
    dps digits."""
    with mpmath.workdps(dps):
        a, z = mpmath.mpc(a), mpmath.mpc(z)
        return mpmath.expj(phase) * (a - z) / (1 - mpmath.conj(a) * z)


def mp_disc(w, dps=50):
    """The inverse Cayley transform (w - 1) / (w + 1) of the half-plane
    point w, at dps digits."""
    with mpmath.workdps(dps):
        w = mpmath.mpc(w)
        return (w - 1) / (w + 1)


def _mp_half_angle(a):
    """A sector half-angle at the working precision, with the doubles pi/2
    and pi taken as the exact axes they stand for, as the program takes
    them; any other double is exact as it is."""
    if a == math.pi / 2:
        return mpmath.pi / 2
    return +mpmath.pi if a == math.pi else mpmath.mpf(a)


def mp_contains(domain, w, dps=50):
    """(inside, gap) for each point of the complex array w: membership in
    the open domain from its set definition, and the angle by which a
    sector point clears the nearer boundary ray (+inf where the decision
    is an exact comparison).  Strips, half planes, Koebe domains and combs
    are bounded by lines and slits, decided by exact comparisons of the
    coordinates; a sector point by the argument of u = w - p at dps digits,
    which must lie strictly between pi/2 - alpha and pi/2 + beta (each
    half-angle by _mp_half_angle) modulo 2 pi.  A gap near 1e-16 is a
    point within rounding of a ray, where double precision may decide
    either way.  A point with an infinite or NaN part is in no domain."""
    w = np.asarray(w, dtype=complex)
    inside, gap = np.zeros(w.shape, dtype=bool), np.full(w.shape, math.inf)
    for i, x in np.ndenumerate(w):
        x = complex(x)
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            continue
        if isinstance(domain, HalfPlaneRight):
            inside[i] = x.real > domain.p.real
        elif isinstance(domain, Strip):
            inside[i] = 0.0 < x.real < domain.r
        elif isinstance(domain, Koebe):
            inside[i] = not (x.real == domain.p.real and x.imag <= domain.p.imag)
        elif isinstance(domain, Comb):
            inside[i] = not any(abs(x.real) == a and x.imag <= b for a, b in domain.teeth)
        elif isinstance(domain, Sector):
            with mpmath.workdps(dps):
                u = mpmath.mpc(x) - mpmath.mpc(domain.p)
                if u == 0:
                    continue
                alpha = _mp_half_angle(domain.alpha)
                opening = alpha + _mp_half_angle(domain.beta)
                rel = (mpmath.arg(u) - (mpmath.pi / 2 - alpha)) % (2 * mpmath.pi)
                inside[i] = 0 < rel < opening
                gap[i] = float(min(rel, abs(opening - rel), 2 * mpmath.pi - rel))
        else:
            raise ValueError(f"no membership test for {domain!r}")
    return inside, gap


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


def mp_radial(z, tau):
    """(distance from z to the radial geodesic (-1, 1)*tau, log|C(conj(tau) z)|)
    from the point as stored: zeta = z.value for a plain point, C^{-1}(w) of
    the witness w for a guarded one.  zeta is turned by conj(tau)/|tau| onto
    the real diameter, where the distance is the tangential distance
    asinh(|Im w'| / Re w') / 2 of w' = C(conj(tau) zeta) and the foot's
    half-plane image is |w'|.  Re w' = (1 - |zeta|^2) / |1 - conj(tau) zeta|^2
    cancels about -2 log10(1 - |zeta|) digits, so the working precision grows
    with log rho and -log cos theta of the witness."""
    w = z.halfplane
    dps = 50 if w is None else 50 + math.ceil(2 * (abs(w.log_rho) - math.log(w.cos)) / math.log(10))
    with mpmath.workdps(dps):
        if w is None:
            zeta = mpmath.mpc(z.value)
        else:
            u = mp_point(w.log_rho, w.theta, w.cos)
            zeta = (u - 1) / (u + 1)
        t = mpmath.mpc(tau)
        zeta = mpmath.conj(t) / abs(t) * zeta
        den = abs(1 - zeta) ** 2
        re_w = (1 - abs(zeta) ** 2) / den
        im_w = 2 * zeta.imag / den
        return (mpmath.asinh(abs(im_w) / re_w) / 2,
                mpmath.log(abs((1 + zeta) / (1 - zeta))))


def _mp_rays(domain):
    """The boundary of a domain as closed rays (px, py, ex, ey): apex p, unit
    direction e, at the working precision.  A slit {x + iy : y <= top} is
    the ray down from x + i top, a whole line (a half plane's edge, either
    wall of a strip) two opposite rays from one of its points.  A comb's
    slit at -a mirrors the one at a in the imaginary axis, which sees both
    at one distance, so only the slit at a is kept."""
    mpf = mpmath.mpf
    if isinstance(domain, HalfPlaneRight):
        x = mpf(domain.p.real)
        return [(x, mpf(0), mpf(0), mpf(-1)), (x, mpf(0), mpf(0), mpf(1))]
    if isinstance(domain, Koebe):
        return [(mpf(domain.p.real), mpf(domain.p.imag), mpf(0), mpf(-1))]
    if isinstance(domain, Strip):
        return [(mpf(x), mpf(0), mpf(0), mpf(e)) for x in (0, domain.r) for e in (-1, 1)]
    if isinstance(domain, Sector):
        angles = (mpmath.pi / 2 - _mp_half_angle(domain.alpha),
                  mpmath.pi / 2 + _mp_half_angle(domain.beta))
        return [(mpf(domain.p.real), mpf(domain.p.imag), mpmath.cos(a), mpmath.sin(a))
                for a in angles]
    if isinstance(domain, Comb):
        return [(mpf(a), mpf(b), mpf(0), mpf(-1)) for a, b in domain.teeth]
    raise ValueError(f"no boundary rays for {domain!r}")


def _mp_ray_distance(ray, r, x=0):
    """Distance from x + ir to the ray: to the apex while the projection of
    x + ir - p on e is negative, to the ray's line (a cross product) after."""
    px, py, ex, ey = ray
    vx, vy = x - px, r - py
    if vx * ex + vy * ey <= 0:
        return mpmath.hypot(vx, vy)
    return abs(vx * ey - vy * ex)


def mp_delta(domain, w, dps=50):
    """The distance from the point w to the nearest ray of _mp_rays at dps
    digits, which is delta(w) except left of a comb's axis, where the
    mirror slits that _mp_rays drops are nearer."""
    with mpmath.workdps(dps):
        w = mpmath.mpc(w)
        return min(_mp_ray_distance(ray, w.imag, w.real) for ray in _mp_rays(domain))


def mp_quasihyp(domain, t0, t1, dps=50, scan=64):
    """(1/4) * integral of dr / delta(ir) over [t0, t1], 0 < t0 <= t1, from
    the distances to the boundary rays at dps digits; sequences of bounds
    give a list, one value per range, from one quadrature over the union of
    the ranges cut at every bound.

    The integrand is smooth between kinks, which are found without the
    program's formulas: where the foot of the perpendicular leaves a ray
    (the zero of a linear function of r), and where two rays' distances
    cross, bracketed by sign changes on a geometric scan and bisected to
    full precision; two rays whose distances agree to half the digits all
    along the scan (the mirror rays of a symmetric sector) have no crossing.
    The quadrature runs in u = log r, where 1/delta stays smooth and O(1)
    over any ratio t1/t0, in steps of at most 4."""
    one = not isinstance(t0, (list, tuple, np.ndarray))
    with mpmath.workdps(dps):
        los = [mpmath.mpf(t) for t in ([t0] if one else t0)]
        his = [mpmath.mpf(t) for t in ([t1] if one else t1)]
        if not all(0 < lo <= hi for lo, hi in zip(los, his)):
            raise ValueError("need 0 < t0 <= t1")
        lo, hi = min(los), max(his)
        rays = _mp_rays(domain)

        def delta(r):
            return min(_mp_ray_distance(ray, r) for ray in rays)

        grid = [lo * (hi / lo) ** (mpmath.mpf(k) / scan) for k in range(scan + 1)]
        kinks = {py - px * ex / ey for px, py, ex, ey in rays if ey != 0}
        noise = mpmath.mpf(10) ** (-dps // 2)
        for i, ray_i in enumerate(rays):
            for ray_j in rays[i + 1:]:
                def gap(r):
                    return _mp_ray_distance(ray_i, r) - _mp_ray_distance(ray_j, r)
                gaps = [gap(r) for r in grid]
                if all(abs(g) <= noise * r for g, r in zip(gaps, grid)):
                    continue
                for a, b, ga, gb in zip(grid[:-1], grid[1:], gaps[:-1], gaps[1:]):
                    if ga * gb >= 0:
                        continue
                    for _ in range(4 * dps):
                        m = (a + b) / 2
                        if (gap(m) < 0) == (ga < 0):
                            a = m
                        else:
                            b = m
                    kinks.add((a + b) / 2)
        span = mpmath.log(hi / lo)
        steps = int(mpmath.ceil(span / 4)) or 1
        us = {mpmath.log(lo) + span * k / steps for k in range(steps + 1)}
        us |= {mpmath.log(x) for x in kinks if lo < x < hi}
        us |= {mpmath.log(x) for x in los + his}
        us = sorted(us)
        upto, total = {us[0]: mpmath.mpf(0)}, mpmath.mpf(0)
        for a, b in zip(us[:-1], us[1:]):
            total += mpmath.quad(lambda u: mpmath.exp(u) / delta(mpmath.exp(u)), [a, b],
                                 method="gauss-legendre")
            upto[b] = total
        out = [(upto[mpmath.log(h)] - upto[mpmath.log(l)]) / 4 for l, h in zip(los, his)]
        return out[0] if one else out


def _mp_map_constants(domain):
    """(gamma, rot) of a sector-type map (rot u)^gamma at the working
    precision: a half plane is the sector of opening pi about its normal,
    a Koebe domain the sector of opening 2 pi about its slit."""
    if isinstance(domain, HalfPlaneRight):
        return mpmath.mpf(1), mpmath.mpf(1)
    if isinstance(domain, Koebe):
        return mpmath.mpf(1) / 2, -1j
    alpha, beta = _mp_half_angle(domain.alpha), _mp_half_angle(domain.beta)
    return mpmath.pi / (alpha + beta), -1j * mpmath.expj(-(beta - alpha) / 2)


def _dps(u):
    """Digits for F at the apex-relative point u: 50, plus those that a
    rotation constant rounded to the working precision loses against |u|."""
    return 50 + 2 * max(0, int(mpmath.log10(abs(mpmath.mpc(u)) + 1)))


def mp_halfplane(domain, u, dps=None):
    """F(p + u) from the plain complex formula at the apex-relative point u:
    u itself on a half plane, -i exp(-i pi (u - r)/r) on a strip, the
    principal (rot u)^gamma on a sector or a Koebe domain."""
    with mpmath.workdps(dps or _dps(u)):
        u = mpmath.mpc(u)
        if isinstance(domain, Strip):
            r = mpmath.mpf(domain.r)
            return -1j * mpmath.exp(-1j * mpmath.pi * (u - r) / r)
        gamma, rot = _mp_map_constants(domain)
        return mpmath.power(rot * u, gamma)


def mp_preimage(domain, w, dps=50):
    """F^-1(w) - p at the half-plane point w, from the same formulas."""
    with mpmath.workdps(dps):
        w = mpmath.mpc(w)
        if isinstance(domain, Strip):
            r = mpmath.mpf(domain.r)
            return r + 1j * r * mpmath.log(1j * w) / mpmath.pi
        gamma, rot = _mp_map_constants(domain)
        return mpmath.power(w, 1 / gamma) / rot


def mp_log_abs_derivative(domain, u, dps=None):
    """log |F'(p + u)| by numerical differentiation of mp_halfplane."""
    with mpmath.workdps(dps or _dps(u)):
        d = mpmath.diff(lambda x: mp_halfplane(domain, x, mpmath.mp.dps), mpmath.mpc(u))
        return mpmath.log(abs(d))


def mp_lp(w, dps=50):
    """(log rho, theta, cos theta) of the half-plane point w."""
    with mpmath.workdps(dps):
        return mpmath.log(abs(w)), mpmath.arg(w), w.real / abs(w)


def mp_orbit(domain, z, t):
    """F(h(z) - p + it) at 50 digits and more, with h(z) - p the preimage
    of the Cayley image of the disc value z.value."""
    with mpmath.workdps(60):
        zz = mpmath.mpc(z.value)
        u = mp_preimage(domain, (1 + zz) / (1 - zz), dps=60)
    return mp_halfplane(domain, u + 1j * mpmath.mpf(t))


def mp_k(w1, w2):
    """k_H between the half-plane points w1 and w2 at the working precision,
    from sinh k = |w1 - w2| / (2 sqrt(Re w1 Re w2)), which never cancels."""
    return mpmath.asinh(abs(w1 - w2) / (2 * mpmath.sqrt(w1.real * w2.real)))


def mp_speeds(w, dps=50):
    """(v, v_o, v_T) of the half-plane point w relative to the base point 1:
    k_H(1, w), k_H(1, |w|) and k_H(w, |w|), by mp_k."""
    with mpmath.workdps(dps):
        rho = abs(w)
        return mp_k(mpmath.mpc(1), w), abs(mpmath.log(rho)) / 2, mp_k(w, mpmath.mpc(rho))


def speed_table_errors(domain, rows):
    """The errors |x - x*| / max(1, |x*|) of rows (t, v, v_o, v_T, log rho,
    theta) of a speed table of the orbit from the origin, one row of errors
    in v, v_o, v_T, log rho and theta per table row, against
    mp_speeds(mp_orbit(...)) and mp_lp at the row's time."""
    errors = []
    for t, *cells in np.asarray(rows, dtype=float):
        w = mp_orbit(domain, DiscPoint(0j), t)
        want = [float(x) for x in (*mp_speeds(w), *mp_lp(w)[:2])]
        errors.append([abs(x - y) / max(1.0, abs(y)) for x, y in zip(cells, want)])
    return np.array(errors).reshape(-1, 5)
