"""Named, seeded, tolerance-controlled property suites.

Every displayed inequality of the theory is re-derived here from the public
operations on deterministic pseudo-random samples.  Margins are signed
slacks: an inequality A >= B contributes A - B, an equality contributes
-|A - B|, and a sample passes when its margin is >= -tol.  A report with
zero violations is the pass condition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import comb as CB
from . import domains as D
from . import hyperbolic as H
from . import semigroups as SG
from . import speeds as SP
from .mapchain import HALF_PI, LOG2

#: the five worked image domains: hyperbolic, positive step (x2), zero step (x2)
BUILTIN_DOMAINS = {
    "strip": D.Strip(math.pi / 2.0),
    "halfplane": D.HalfPlaneRight(0j),
    "sector_sym": D.Sector(0j, math.pi / 4.0, math.pi / 4.0),
    "sector_flat": D.Sector(0j, math.pi, 0.0),
    "koebe": D.Koebe(0j),
}

#: smallest n at which every seed 0-999 draws a pythagoras sample with
#: gap <= 0.05; below it the attainability margin is not appended
PYTHAGORAS_ATTAIN_MIN_N = 88

FIT_WINDOW = (1e6, 1e8)
GRID = (1.0, 1e8, 512)
EMPIRICAL_SLACK = 10.0  # natural-log head room for "bounded below" claims


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    samples: int
    violations: int
    worst_margin: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _grid(points: int | None = None) -> list[float]:
    lo, hi, n = GRID
    return SP.default_grid(lo, hi, points or n)


def _rand_disc(rng, max_dist: float = 12.0) -> H.DiscPoint:
    d = rng.uniform(0.0, max_dist)
    phi = rng.uniform(-math.pi, math.pi)
    return H.DiscPoint(math.tanh(0.5 * d) * complex(math.cos(phi), math.sin(phi)))


# The batched suites draw each iteration's randoms as one row of a block
# u = rng.random((n, k)).  The generator computes rng.uniform(low, high) as
# low + (high - low) * rng.random(), so _uniform maps a block column to the
# same values the scalar calls of one iteration after another would draw.


def _uniform(u, low: float, high: float):
    return low + (high - low) * u


def _unit(phi):
    return np.cos(phi) + 1j * np.sin(phi)


def _rand_disc_batch(u, max_dist: float) -> H.DiscPoint:
    """_rand_disc from two draws per sample (columns of u)."""
    d = _uniform(u[:, 0], 0.0, max_dist)
    return H.DiscPoint(np.tanh(0.5 * d) * _unit(_uniform(u[:, 1], -math.pi, math.pi)))


def _rand_theta(u) -> np.ndarray:
    """Half-plane angles from three draws per sample (columns of u): half
    hug the boundary (uniform in tangential distance), half cover the bulk
    uniformly, and the third draw picks the sign."""
    hug = 2.0 * np.arctan(np.exp(2.0 * _uniform(u[:, 1], 0.0, 12.0))) - HALF_PI
    bulk = _uniform(u[:, 1], -1.0, 1.0) * (HALF_PI - 1e-6)
    theta = np.where(u[:, 0] < 0.5, hug, bulk)
    return np.where(u[:, 2] < 0.5, theta, -theta)


def _eq(a: float, b: float) -> float:
    return -abs(a - b)


def _flat(margins) -> np.ndarray:
    """One margin array from a list of margin arrays and numbers."""
    return np.concatenate([np.ravel(m) for m in margins])


# ---------------------------------------------------------------------------
# hyperbolic-metric suites


def _suite_lemma_halfplane(n, rng, tol):
    hp, k = H.HalfPlanePoint, H.k_half
    u = rng.random((n, 8))
    l0, l1 = np.sort(_uniform(u[:, 0:2], -20.0, 20.0), axis=1).T
    beta, b0 = _rand_theta(u[:, 2:5]), _rand_theta(u[:, 5:8])
    w_lo, w_hi = hp(l0, 0.0, 1.0), hp(l1, 0.0, 1.0)
    radial = k(w_lo, w_hi)
    tilt = 0.5 * np.log(1.0 / np.cos(beta))
    margins = [
        # (1) radial distance in closed form
        _eq(radial, 0.5 * (l1 - l0)),
        # (2) tilting the far point costs at least -log(cos)/2
        k(w_lo, hp(l1, beta)) - radial - tilt,
        # (5) equal-modulus pairs are closest among tilted pairs
        k(hp(l0, b0), hp(l1, beta)) - radial,
        # (6) pure rotation is cheap
        tilt + 0.5 * LOG2 - k(w_lo, hp(l0, beta)),
    ]

    # (3) rho -> k(rho e^{ia}, rho0 e^{ib}) dips exactly at rho = rho0
    u = rng.random((n, 16))
    l0 = _uniform(u[:, 0], -8.0, 8.0)
    a, b = _rand_theta(u[:, 1:4]), _rand_theta(u[:, 4:7])
    step_lo, step_hi = np.sort(_uniform(u[:, 7:9], 0.1, 6.0), axis=1).T
    t0, t1 = _rand_theta(u[:, 9:12]), _rand_theta(u[:, 12:15])
    shift = _uniform(u[:, 15], -15.0, 15.0)
    anchor = hp(l0, b)
    k_min = k(hp(l0, a), anchor)
    for sign in (1.0, -1.0):
        near = k(hp(l0 + sign * step_lo, a), anchor)
        far = k(hp(l0 + sign * step_hi, a), anchor)
        margins += [near - k_min, far - near]
    # (4) scale invariance, evenness, monotonicity in the angle
    margins.append(_eq(k(hp(l0 + shift, t0), hp(l0 + shift, t1)),
                       k(hp(0.0, t0), hp(0.0, t1))))
    one = hp(0.0, 0.0, 1.0)
    th = np.abs(t1)
    margins.append(_eq(k(one, hp(0.0, th)), k(one, hp(0.0, -th))))
    ta, tb = np.sort(np.abs([t0, t1]), axis=0)
    margins.append(k(one, hp(0.0, tb)) - k(one, hp(0.0, ta)))

    # (1) again, against the quadrature oracle, and the Cayley isometry
    u = rng.random((8, 3))
    for beta, l0, dl in zip(_uniform(u[:, 0], -1.2, 1.2), _uniform(u[:, 1], -1.0, 0.0),
                            _uniform(u[:, 2], 0.2, 1.5)):
        l1 = l0 + dl
        ray = np.exp(np.linspace(l0, l1, 48)) * complex(math.cos(beta), math.sin(beta))
        length = H.path_length("halfplane", ray, subdivisions=64)
        margins.append(1e-5 - abs(length - (l1 - l0) / (2.0 * math.cos(beta))))
    # pairwise distances up to ~7: the depth at which the disc-side formula
    # still resolves 1e-10 in double precision
    u = rng.random((max(64, n // 64), 8))
    z1, z2 = _rand_disc_batch(u[:, 0:2], 3.5), _rand_disc_batch(u[:, 2:4], 3.5)
    margins.append(_eq(k(H.cayley(z1), H.cayley(z2)), H.omega(z1, z2)))
    for log_rho, theta in zip(_uniform(u[:, 4], -8.0, 8.0), _rand_theta(u[:, 5:8])):
        w = hp(float(log_rho), float(theta))
        back = H.cayley(H.cayley_inv(w))
        margins.append(_eq(back.log_rho, w.log_rho))
        margins.append(_eq(back.theta, w.theta))
    # metric density spot values
    margins.append(_eq(H.kappa("disc", 0j, 1.0), 1.0))
    margins.append(_eq(H.kappa("disc", 0.5 + 0j, 1.0), 4.0 / 3.0))
    margins.append(_eq(H.kappa("halfplane", 1.0 + 0j, 1.0), 0.5))
    return 6 * n, _flat(margins)


def _suite_pythagoras(n, rng, tol):
    u = rng.random((n, 4))
    tau = _unit(_uniform(u[:, 0], -math.pi, math.pi))
    geo = H.RadialGeodesic(tau)
    x0 = H.DiscPoint(np.tanh(_uniform(u[:, 1], -1.5, 1.5)) * tau)
    # depth 8 keeps the disc representation itself accurate past 1e-9
    z = _rand_disc_batch(u[:, 2:4], 8.0)
    total = H.omega(x0, z)
    via = H.omega(x0, H.project_to_radius(z, geo)) + H.dist_to_radius(z, geo)
    gap = via - total
    margins = [
        gap,                         # upper: omega <= sum
        total - (via - 0.5 * LOG2),  # lower: sum - log2/2 <= omega
    ]
    if n >= PYTHAGORAS_ATTAIN_MIN_N:
        margins.append(0.05 - gap.min())  # the upper one is attained to within 0.05
    return n, _flat(margins)


def _suite_contraction(n, rng, tol):
    u = rng.random((n, 5))
    geo = H.RadialGeodesic(_unit(_uniform(u[:, 0], -math.pi, math.pi)))
    z, w = _rand_disc_batch(u[:, 1:3], 8.0), _rand_disc_batch(u[:, 3:5], 8.0)
    lhs = H.omega(H.project_to_radius(z, geo), H.project_to_radius(w, geo))
    return n, H.omega(z, w) - lhs


# ---------------------------------------------------------------------------
# domain/chain suites


def _rand_domain_point(rng, dom) -> complex:
    if isinstance(dom, D.HalfPlaneRight):
        return dom.p + complex(math.exp(rng.uniform(-3, 6)), rng.uniform(-50, 50))
    if isinstance(dom, D.Strip):
        return complex(rng.uniform(0.02, 0.98) * dom.r, rng.uniform(-50, 50))
    if isinstance(dom, D.Sector):
        ang = rng.uniform(0.02, 0.98) * (dom.alpha + dom.beta) + dom.ray_lo
        return dom.p + math.exp(rng.uniform(-3, 6)) * complex(math.cos(ang), math.sin(ang))
    if isinstance(dom, D.Koebe):
        ang = rng.uniform(0.02, 1.98) * math.pi - HALF_PI
        return dom.p + math.exp(rng.uniform(-3, 6)) * complex(math.cos(ang), math.sin(ang))
    raise ValueError("no sampler for this domain")


def _suite_chains(n, rng, tol):
    margins = []
    extra = [D.Sector(1 - 2j, 0.7, 1.9), D.Sector(0.5j, math.pi, math.pi), D.Koebe(2 + 1j)]
    domains = list(BUILTIN_DOMAINS.values()) + extra
    per = max(8, n // len(domains))
    for dom in domains:
        rebuilt = D.build_domain(D.domain_to_json(dom))
        margins.append(0.0 if rebuilt == dom else -1.0)
        chain = D.to_halfplane(dom)
        base = D.canonical_base_point(dom)
        margins.append(_eq(abs(chain.forward(base) - 1.0), 0.0))
        for _ in range(per):
            w = _rand_domain_point(rng, dom)
            # membership and upward closedness
            margins.append(0.0 if D.contains(dom, w) else -1.0)
            margins.append(0.0 if D.contains(dom, w + 1j * rng.uniform(0, 100.0)) else -1.0)
            # round trip through the chain
            back = chain.inverse(chain.forward(w))
            margins.append(1e-10 - abs(back - w) / (1.0 + abs(w)))
            # |F'| against a central difference
            h = 1e-6 * (1.0 + abs(w))
            if D.contains(dom, w + h) and D.contains(dom, w - h):
                fd = abs(chain.forward(w + h) - chain.forward(w - h)) / (2.0 * h)
                ld = math.exp(chain.log_abs_derivative(w))
                if fd > 0:
                    margins.append(1e-4 - abs(fd - ld) / max(fd, ld))
            # conformal invariance: the domain distance equals the disc
            # distance of the model preimages; moderate points, where the
            # disc-side formula resolves well past 1e-9
            def _moderate_preimage():
                rho, th = math.e ** rng.uniform(-3, 3), rng.uniform(-1.2, 1.2)
                return chain.inverse(rho * complex(math.cos(th), math.sin(th)))

            u1, u2 = _moderate_preimage(), _moderate_preimage()
            kd = D.k_domain(dom, u1, u2)
            z1 = H.cayley_inv(chain.forward_lp(u1))
            z2 = H.cayley_inv(chain.forward_lp(u2))
            margins.append(1e-9 - abs(kd - H.omega(z1, z2)))
            # deltas: monotone under enlarging the domain
            dv = D.delta(dom, w)
            margins.append(dv - 0.0)
            ref = base
            for side in ("plus", "minus"):
                margins.append(D.delta_pm(dom, D.OmegaSign(side, ref), w) - dv)
    # the quasi-hyperbolic integral lower-bounds the distance when the axis
    # is a geodesic (symmetric domains)
    for dom in (BUILTIN_DOMAINS["koebe"], BUILTIN_DOMAINS["sector_sym"]):
        for _ in range(16):
            t0 = math.exp(rng.uniform(-2, 2))
            t1 = t0 * math.exp(rng.uniform(0.1, 6.0))
            q = D.quasihyp_lower(dom, t0, t1)
            margins.append(D.k_domain(dom, 1j * t0, 1j * t1) - q)
    # analytic spot value: Koebe delta along the axis integrates to log/4
    q = D.quasihyp_lower(BUILTIN_DOMAINS["koebe"], 1.0, math.e ** 4)
    margins.append(_eq(q, 1.0))
    return len(domains) * per, margins


# ---------------------------------------------------------------------------
# speed suites


@functools.lru_cache(maxsize=1)
def _built_samples(n: int) -> tuple[tuple[str, SG.KoenigsSemigroup, tuple], ...]:
    """(name, semigroup, samples) for each of BUILTIN_DOMAINS on the grid of
    a suite of size n: the one table that split, julia_tangent, lower_bounds,
    betsakos, sector_asymptotics and nontangential read.

    Built on first use and kept for the most recent n.  It holds only
    tuples and frozen values, so no suite can change what another reads.
    """
    grid = _grid(n if n >= 2 else None)
    table = []
    for name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        table.append((name, sg, tuple(SP.sample_speeds(sg, grid))))
    return tuple(table)


def _suite_split(n, rng, tol):
    margins = []
    total = 0
    for _name, _sg, samples in _built_samples(n):
        for s in samples:
            margins.append(s.v_o + s.v_T - s.v)                 # v <= v_o + v_T
            margins.append(s.v - (s.v_o + s.v_T - 0.5 * LOG2))  # lower half
            total += 1
    return total, margins


def _suite_julia_tangent(n, rng, tol):
    margins = []
    total = 0
    for _name, _sg, samples in _built_samples(n):
        for s in samples:
            margins.append(s.v_o + 4.0 * LOG2 - s.v_T)
            total += 1
    return total, margins


def _suite_surrogates(n, rng, tol):
    margins = []
    total = 0
    grid = np.array(_grid(n if n >= 2 else None))
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        t0 = SP.surrogate_threshold(sg, grid)
        if t0 is None:
            continue
        sur = SP.surrogate_speeds(sg, grid[grid >= t0])
        margins += [
            0.5 * LOG2 - np.abs(sur.dev_total),
            0.5 * LOG2 - np.abs(sur.dev_orth),
            1.5 * LOG2 - np.abs(sur.dev_tang),
            _eq(sur.s_tang, sur.s_total - sur.s_orth),
        ]
        total += sur.s_total.size
    return total, _flat(margins)


def _class_expression(cls, t: float) -> float:
    if isinstance(cls, SG.Hyperbolic):
        return 0.5 * cls.spectral_value * t
    if isinstance(cls, SG.ParabolicPositiveStep):
        return math.log(t)
    return 0.25 * math.log(t)


def _suite_lower_bounds(n, rng, tol):
    margins = []
    total = 0
    for _name, sg, samples in _built_samples(n):
        cls = SG.classify(sg.image_domain)
        worst = min(s.v - _class_expression(cls, s.t) for s in samples)
        margins.append(worst + EMPIRICAL_SLACK)
        total += len(samples)
    return total, margins


def _suite_betsakos(n, rng, tol):
    margins = []
    total = 0
    for _name, sg, samples in _built_samples(n):
        cls = SG.classify(sg.image_domain)
        if isinstance(cls, SG.Hyperbolic):
            continue
        margins.append(min(s.v_o - 0.25 * math.log(s.t) for s in samples) + EMPIRICAL_SLACK)
        if isinstance(cls, SG.ParabolicPositiveStep):
            margins.append(min(s.v_o - 0.5 * math.log(s.t) for s in samples) + EMPIRICAL_SLACK)
        dom = sg.image_domain
        if isinstance(dom, D.Sector):
            alpha_max = max(dom.alpha, dom.beta)  # iV(a,b) fits in the symmetric iV(m,m)
            coef = math.pi / (4.0 * alpha_max)
            margins.append(min(s.v_o - coef * math.log(s.t) for s in samples) + EMPIRICAL_SLACK)
        total += len(samples)
    return total, margins


#: (domain, series, basis, target, allowed deviation) per the sharp constants
FIT_TARGETS = [
    ("koebe", "v", "log_t", 0.25, 0.02),
    ("sector_sym", "v_o", "log_t", 1.00, 0.02),
    ("sector_flat", "v", "log_t", 1.00, 0.03),
    ("sector_flat", "v_o", "log_t", 0.50, 0.03),
    ("sector_flat", "v_T", "log_t", 0.50, 0.03),
    ("strip", "v", "t", 1.00, 0.01),
]


def _suite_sector_asymptotics(n, rng, tol):
    margins = []
    built = {name: samples for name, _sg, samples in _built_samples(n)}
    for name, series, basis, target, allowed in FIT_TARGETS:
        fit = SP.fit_asymptotic(built[name], series, basis, FIT_WINDOW)
        margins.append(allowed - abs(fit.coefficient - target))
    lo, hi = FIT_WINDOW
    koebe = [s for s in built["koebe"] if lo <= s.t <= hi]
    margins.append(3.0 - max(s.v_T for s in koebe))
    hp = [s for s in built["halfplane"] if lo <= s.t <= hi]
    margins.append(2.0 - max(abs(s.v - math.log(s.t)) for s in hp))
    return len(FIT_TARGETS) + 2, margins


def _suite_basepoint(n, rng, tol):
    margins = []
    total = 0
    grid = np.array(SP.default_grid(1.0, 1e5, 64))
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        tau = SG.denjoy_wolff(sg)
        margins.append(_eq(abs(tau), 1.0))
        starts = [_rand_disc(rng, 3.0) for _ in range(max(2, n // 16))]
        dist = np.array([[H.omega(H.ORIGIN, z2)] for z2 in starts])
        # one orbit pass: row 0 from the origin, one row per drawn start
        z = H.DiscPoint(np.array([[0j]] + [[z2.value] for z2 in starts]))
        _v, v_o, v_t = SP.speeds_from_halfplane(SG.orbit_halfplane(sg, z, grid))
        margins.append(dist - np.abs(v_o[0] - v_o[1:]))
        margins.append(2.0 * dist - np.abs(v_t[0] - v_t[1:]))
        total += len(starts) * grid.size
    return total, _flat(margins)


def _curve_speeds(eta: H.DiscPoint, tau: complex):
    zeta = H.DiscPoint(tau.conjugate() * eta.value)
    return SP.speeds_from_halfplane(H.cayley(zeta))


def _suite_conjugation(n, rng, tol):
    margins = []
    total = 0
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        cls = SG.classify(dom)
        # keep conjugated orbit points representable in the disc
        t_max = 22.0 / cls.spectral_value if isinstance(cls, SG.Hyperbolic) else 1e4
        grid = SP.default_grid(0.5, t_max, 24)
        base = SP.sample_speeds(sg, grid)
        for _ in range(max(2, n // 16)):
            a = _rand_disc(rng, 1.5).value
            m = H.DiscAutomorphism(a, rng.uniform(-math.pi, math.pi))
            m_inv = m.inverse()
            z_start = m.apply(H.ORIGIN)
            tau_conj = m_inv.apply_boundary(1.0 + 0j)
            bound = 4.0 * H.omega(H.ORIGIN, z_start) + 4.0
            for s in base:
                eta = m_inv.apply(SG.orbit(sg, z_start, s.t))
                cv, cvo, cvt = _curve_speeds(eta, tau_conj)
                margins.append(bound - abs(s.v - cv))
                margins.append(bound - abs(s.v_o - cvo))
                margins.append(bound - abs(s.v_T - cvt))
                total += 1
    return total, margins


def _suite_semigroup_model(n, rng, tol):
    margins = []
    total = 0
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        tau = SG.denjoy_wolff(sg)
        cls = SG.classify(dom)
        if isinstance(dom, D.Strip):
            margins.append(_eq(cls.spectral_value, math.pi / dom.r))
        per = max(4, n // 8)
        for _ in range(per):
            z = _rand_disc(rng, 2.5)
            s, t = rng.uniform(0.0, 3.0, size=2)
            two_step = SG.orbit(sg, SG.orbit(sg, z, s), t)
            one_step = SG.orbit(sg, z, s + t)
            margins.append(1e-9 - abs(two_step.value - one_step.value))
            hold = SG.orbit(sg, z, rng.uniform(0.0, 1e3))
            if not hold.guarded:
                margins.append(1.0 - abs(hold.value))
            # Schwarz-Pick: the semigroup contracts omega
            z2 = _rand_disc(rng, 2.5)
            tt = rng.uniform(0.0, 1e4)
            moved = H.k_half(SG.orbit_halfplane(sg, z, tt), SG.orbit_halfplane(sg, z2, tt))
            margins.append(H.omega(z, z2) - moved)
            total += 1
        # orbits converge to the Denjoy-Wolff point
        gaps = [abs(SG.orbit(sg, H.ORIGIN, t).value - tau) for t in (1e4, 1e6)]
        margins.append(5e-3 - gaps[-1])
        margins.append(gaps[0] - gaps[-1])
        # hyperbolic-step dichotomy on a dyadic grid reaching 1e8
        gaps = SG.hyperbolic_step_gap(sg, 2.0 ** np.arange(28))
        if isinstance(cls, SG.ParabolicPositiveStep):
            margins.append(gaps[8:].min() - 0.01)
        elif isinstance(cls, SG.ParabolicZeroStep):
            margins.append(0.01 - gaps[-1])
    return total, margins


def _suite_nontangential(n, rng, tol):
    margins = []
    grid = np.array(_grid(n if n >= 2 else None))
    built = {name: (sg, samples) for name, sg, samples in _built_samples(n)}
    bounded = {"sector_sym", "koebe"}
    for name in ("sector_sym", "koebe", "sector_flat", "halfplane"):
        sg, samples = built[name]
        p = SG.model_point(sg)
        ratios = SP.nontangential_ratio(sg, p, grid)
        worst_ratio = np.maximum(ratios, 1.0 / ratios).max()
        sup_vt = max(s.v_T for s in samples)
        if name in bounded:
            margins.append(10.0 - worst_ratio)  # geometric side bounded
            margins.append(3.0 - sup_vt)        # dynamic side bounded
        else:
            margins.append(ratios[-1] / 1e6 - 1.0)  # ratio at t = 1e8 exceeds 1e6
            margins.append(sup_vt - 5.0)            # tangential speed escapes
    return 4 * len(grid), margins


def _suite_comb(n, rng, tol):
    margins = []
    steps = max(2, min(10, n))
    cc = CB.build_comb("log1p", "linear", steps=steps)
    for c in cc.constraint:
        margins.append(1.0 - c)  # the strict proof constraint, with margin
    rows = CB.verify_comb(cc)
    _, g = CB.gauge("log1p")
    for row in rows:
        j = row["j"]
        margins.append(row["ratio"] - (j / 4.0 - 1e-9))
        # the plateau piece alone already clears j*g/4
        margins.append(row["plateau_piece"] - j * g(row["b"]) / 4.0)
    if steps >= 10:  # linear growth of the ratio table at desk scale
        margins.append(rows[-1]["ratio"] / rows[0]["ratio"] - 5.0)
    # delta plateau: distance to the comb complement equals a_{j+1} on [x_j, b_{j+1}]
    dom = cc.domain()
    for j in range(1, cc.steps + 1):
        lo, hi = cc.x[j - 1], cc.b[j]
        for frac in rng.uniform(0.0, 1.0, size=4):
            r = lo + frac * (hi - lo)
            margins.append(_eq(D.delta(dom, 1j * r), cc.a[j]))
    # degenerate single-step construction still certifies 1/4
    tiny = CB.verify_comb(CB.build_comb("log1p", "linear", steps=1))
    margins.append(tiny[0]["ratio"] - 0.25)
    # a linear gauge must be rejected
    try:
        CB.build_comb(lambda t: t, "linear", steps=2)
        margins.append(-1.0)
    except ValueError:
        margins.append(0.0)
    return cc.steps, margins


# ---------------------------------------------------------------------------
# harness

SUITES = {
    "lemma_halfplane": (_suite_lemma_halfplane, 10_000),
    "pythagoras": (_suite_pythagoras, 10_000),
    "contraction": (_suite_contraction, 10_000),
    "chains": (_suite_chains, 256),
    "split": (_suite_split, 512),
    "julia_tangent": (_suite_julia_tangent, 512),
    "surrogates": (_suite_surrogates, 512),
    "lower_bounds": (_suite_lower_bounds, 512),
    "betsakos": (_suite_betsakos, 512),
    "sector_asymptotics": (_suite_sector_asymptotics, 512),
    "basepoint": (_suite_basepoint, 64),
    "conjugation": (_suite_conjugation, 32),
    "semigroup_model": (_suite_semigroup_model, 64),
    "nontangential": (_suite_nontangential, 512),
    "comb": (_suite_comb, 10),
}


def run_suite(name: str, n: int | None = None, seed: int = 42, tol: float = 1e-9) -> SuiteReport:
    """Run one named suite; deterministic given (name, n, seed, tol)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if n is not None and n < 0:
        raise ValueError(f"the sample count must be nonnegative, got {n}")
    fn, default_n = SUITES[name]
    rng = np.random.default_rng(seed)
    samples, margins = fn(n or default_n, rng, tol)
    margins = np.asarray(margins, dtype=float)  # a list of numbers or one array
    violations = int(np.count_nonzero(~(margins >= -tol)))  # NaN counts
    worst = float(margins.min()) if margins.size else math.inf
    return SuiteReport(name, samples, violations, worst, seed)


def run_all(seed: int = 42, tol: float = 1e-9, n: int | None = None) -> dict[str, SuiteReport]:
    return {name: run_suite(name, n=n, seed=seed, tol=tol) for name in SUITES}


#: public operations each suite is expected to exercise directly
PUBLIC_OPS = {
    H: ["omega", "k_half", "kappa", "cayley", "cayley_inv",
        "project_to_radius", "dist_to_radius", "path_length"],
    D: ["build_domain", "contains", "to_halfplane", "delta", "delta_pm",
        "k_domain", "quasihyp_lower"],
    SG: ["classify", "koenigs_semigroup", "orbit", "denjoy_wolff"],
    SP: ["sample_speeds", "surrogate_speeds", "fit_asymptotic", "nontangential_ratio"],
    CB: ["build_comb", "verify_comb"],
}


def coverage_check(seed: int = 42) -> set[str]:
    """Replay small versions of every suite with counting wrappers around the
    public operations; returns the set of operations never invoked."""
    counters: dict[str, int] = {}
    originals = []
    _built_samples.cache_clear()  # a memoised table would skip the wrappers
    try:
        for mod, names in PUBLIC_OPS.items():
            for nm in names:
                fn = getattr(mod, nm)
                key = f"{mod.__name__.rsplit('.', 1)[-1]}.{nm}"
                counters[key] = 0

                def wrapped(*args, __fn=fn, __key=key, **kwargs):
                    counters[__key] += 1
                    return __fn(*args, **kwargs)

                functools.update_wrapper(wrapped, fn)
                originals.append((mod, nm, fn))
                setattr(mod, nm, wrapped)
        small = {"lemma_halfplane": 128, "pythagoras": 128, "contraction": 128,
                 "chains": 32, "basepoint": 16, "conjugation": 16,
                 "semigroup_model": 16, "comb": 3, "sector_asymptotics": 160}
        for name in SUITES:
            run_suite(name, n=small.get(name, 64), seed=seed)
    finally:
        for mod, nm, fn in originals:
            setattr(mod, nm, fn)
    return {key for key, count in counters.items() if count == 0}
