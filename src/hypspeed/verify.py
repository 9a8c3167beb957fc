"""Named, seeded, tolerance-controlled property suites.

Every displayed inequality of the theory is re-derived here from the public
operations on deterministic pseudo-random samples.  Margins are signed
slacks: an inequality A >= B contributes A - B, an equality contributes
-|A - B|, and a sample passes when its margin is >= -tol.  A report with
zero violations is the pass condition.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import asdict, dataclass
from numbers import Real

import numpy as np

from . import comb as CB
from . import domains as D
from . import hyperbolic as H
from . import semigroups as SG
from . import speeds as SP
from .mapchain import HALF_PI, LOG2, LogPolar, _cmul, _complex

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
GRID = (1.0, 1e8)  # the time range of the speed-table suites
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


class _TooFewSamples(ValueError):
    """A sample count below the least that a suite runs with; `run_suite`
    adds the suite's name."""

    def __init__(self, least: int, n: int, why: str):
        super().__init__(f"needs --samples {least} or more, got {n}: {why}")


def _grid(n: int) -> list[float]:
    """The time grid of a speed-table suite of size n."""
    if n < 2:
        raise _TooFewSamples(2, n, "its speed tables take a grid of that many times")
    return SP.default_grid(*GRID, n)


# The batched suites draw each iteration's randoms as one row of a block
# u = rng.random((n, k)).  The generator computes rng.uniform(low, high) as
# low + (high - low) * rng.random(), so _uniform maps a block column to the
# same values the scalar calls of one iteration after another would draw.


def _uniform(u, low: float, high: float):
    return low + (high - low) * u


def _unit(phi):
    return _complex(np.cos(phi), np.sin(phi))


def _rand_disc(u, max_dist: float) -> H.DiscPoint:
    """Disc points from two draws per sample (columns of u): a hyperbolic
    distance from the origin, uniform in [0, max_dist), then an angle."""
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


def _rows(p: LogPolar) -> list[LogPolar]:
    """The rows of a batch of points stacked along its first axis."""
    fields = (p.log_rho, p.theta, p.cos_theta, p.cart)
    return [LogPolar(*(f if f is None else f[i] for f in fields)) for i in range(len(p.log_rho))]


def _ordered(a, b):
    """The smaller and the larger of each pair, elementwise."""
    return np.minimum(a, b), np.maximum(a, b)


def _eq(a: float, b: float) -> float:
    return -abs(a - b)


def _flat(margins) -> np.ndarray:
    """One margin array from a list of margin arrays and numbers."""
    return np.concatenate([np.ravel(m) for m in margins])


# ---------------------------------------------------------------------------
# hyperbolic-metric suites


def _suite_lemma_halfplane(n, rng):
    hp, k = H.HalfPlanePoint, H.k_half
    u = rng.random((n, 8))
    l0, l1 = _ordered(*_uniform(u[:, 0:2], -20.0, 20.0).T)
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
    step_lo, step_hi = _ordered(*_uniform(u[:, 7:9], 0.1, 6.0).T)
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
    a0, a1 = np.abs(t0), np.abs(t1)
    k0, k1 = k(one, hp(0.0, a0)), k(one, hp(0.0, a1))
    margins.append(_eq(k1, k(one, hp(0.0, -a1))))
    margins.append(np.where(a0 <= a1, k1 - k0, k0 - k1))  # the larger angle minus the smaller

    # (1) again, against the quadrature oracle, and the Cayley isometry
    u = rng.random((8, 3))
    for beta, l0, dl in zip(_uniform(u[:, 0], -1.2, 1.2), _uniform(u[:, 1], -1.0, 0.0),
                            _uniform(u[:, 2], 0.2, 1.5)):
        l1 = l0 + dl
        ray = np.exp(np.linspace(l0, l1, 48)) * complex(math.cos(beta), math.sin(beta))
        length = H.path_length("halfplane", ray)
        margins.append(1e-5 - abs(length - (l1 - l0) / (2.0 * math.cos(beta))))
    # pairwise distances up to ~7: the depth at which the disc-side formula
    # still resolves 1e-10 in double precision
    u = rng.random((max(64, n // 64), 8))
    z1, z2 = _rand_disc(u[:, 0:2], 3.5), _rand_disc(u[:, 2:4], 3.5)
    margins.append(_eq(k(H.cayley(z1), H.cayley(z2)), H.omega(z1, z2)))
    w = hp(_uniform(u[:, 4], -8.0, 8.0), _rand_theta(u[:, 5:8]))
    back = H.cayley(H.DiscPoint(H.cayley_inv(w).value))  # the disc value, not the witness
    margins += [_eq(back.log_rho, w.log_rho), _eq(back.theta, w.theta)]
    # metric density spot values
    margins.append(_eq(H.kappa("disc", 0j, 1.0), 1.0))
    margins.append(_eq(H.kappa("disc", 0.5 + 0j, 1.0), 4.0 / 3.0))
    margins.append(_eq(H.kappa("halfplane", 1.0 + 0j, 1.0), 0.5))
    return 6 * n, _flat(margins)


def _suite_pythagoras(n, rng):
    u = rng.random((n, 4))
    tau = _unit(_uniform(u[:, 0], -math.pi, math.pi))
    geo = H.RadialGeodesic(tau)
    x0 = H.DiscPoint(np.tanh(_uniform(u[:, 1], -1.5, 1.5)) * tau)
    # depth 8 keeps the disc representation itself accurate past 1e-9
    z = _rand_disc(u[:, 2:4], 8.0)
    total = H.omega(x0, z)  # the plain z: a guarded one would route through k_half
    zw = H.DiscPoint(z.value, halfplane=H.cayley(z))  # one Cayley image for both
    via = H.omega(x0, H.project_to_radius(zw, geo)) + H.dist_to_radius(zw, geo)
    gap = via - total
    margins = [
        gap,                         # upper: omega <= sum
        total - (via - 0.5 * LOG2),  # lower: sum - log2/2 <= omega
    ]
    if n >= PYTHAGORAS_ATTAIN_MIN_N:
        margins.append(0.05 - gap.min())  # the upper one is attained to within 0.05
    return n, _flat(margins)


def _suite_contraction(n, rng):
    u = rng.random((n, 5))
    geo = H.RadialGeodesic(_unit(_uniform(u[:, 0], -math.pi, math.pi)))
    z, w = _rand_disc(u[:, 1:3], 8.0), _rand_disc(u[:, 3:5], 8.0)
    lhs = H.omega(H.project_to_radius(z, geo), H.project_to_radius(w, geo))
    return n, H.omega(z, w) - lhs


# ---------------------------------------------------------------------------
# domain/chain suites


def _rand_domain_points(u, dom) -> np.ndarray:
    """Interior points of dom from two draws per sample (columns of u)."""
    if isinstance(dom, D.HalfPlaneRight):
        return dom.p + (np.exp(_uniform(u[:, 0], -3, 6)) + 1j * _uniform(u[:, 1], -50, 50))
    if isinstance(dom, D.Strip):
        return _uniform(u[:, 0], 0.02, 0.98) * dom.r + 1j * _uniform(u[:, 1], -50, 50)
    if isinstance(dom, D.Sector):
        ang = _uniform(u[:, 0], 0.02, 0.98) * (dom.alpha + dom.beta) + (HALF_PI - dom.alpha)
    elif isinstance(dom, D.Koebe):
        ang = _uniform(u[:, 0], 0.02, 1.98) * math.pi - HALF_PI
    else:
        raise ValueError("no sampler for this domain")
    return dom.p + np.exp(_uniform(u[:, 1], -3, 6)) * _unit(ang)


def _suite_chains(n, rng):
    margins = []
    extra = [D.Sector(1 - 2j, 0.7, 1.9), D.Sector(0.5j, math.pi, math.pi), D.Koebe(2 + 1j)]
    domains = list(BUILTIN_DOMAINS.values()) + extra
    per = max(8, n // len(domains))
    for dom in domains:
        rebuilt = D.domain_from_json(D.domain_to_json(dom))
        margins.append(0.0 if rebuilt == dom else -1.0)
        chain = D.to_halfplane(dom)
        p = chain.p  # the chain takes points relative to its apex
        base = p + chain.base
        # per sample: 2 draws for the point, the upward shift, 2 x 2 for
        # the preimages, as the scalar calls of one sample drew them
        u = rng.random((per, 7))
        ws = _rand_domain_points(u[:, 0:2], dom)
        # F sends h(0) to 1: one pass maps h(0) with the drawn points
        fw = chain.forward(np.append(ws, base) - p)
        margins.append(_eq(abs(fw[-1] - 1.0), 0.0))
        # membership and upward closedness
        margins.append(np.where(D.contains(dom, ws), 0.0, -1.0))
        up = ws + 1j * _uniform(u[:, 2], 0.0, 100.0)
        margins.append(np.where(D.contains(dom, up), 0.0, -1.0))
        # round trip through the chain
        back = p + chain.inverse(fw[:-1])
        margins.append(1e-10 - np.abs(back - ws) / (1.0 + np.abs(ws)))
        # |F'| against a central difference, where both probes are inside
        h = 1e-6 * (1.0 + np.abs(ws))
        inside = D.contains(dom, ws + h) & D.contains(dom, ws - h)
        w, h = ws[inside], h[inside]
        fd = np.abs(chain.forward(w + h - p) - chain.forward(w - h - p)) / (2.0 * h)
        ld = np.exp(chain.log_abs_derivative(w - p))
        pos = fd > 0
        margins.append(1e-4 - np.abs(fd - ld)[pos] / np.maximum(fd, ld)[pos])
        # conformal invariance: the domain distance equals the disc
        # distance of the model preimages; moderate points, where the
        # disc-side formula resolves well past 1e-9
        u1, u2 = (p + chain.inverse(np.e ** _uniform(u[:, c], -3, 3)
                                    * _unit(_uniform(u[:, c + 1], -1.2, 1.2))) for c in (3, 5))
        kd = D.k_domain(dom, u1, u2)
        z1 = H.DiscPoint(H.cayley_inv(chain.forward_lp(u1 - p)).value)
        z2 = H.DiscPoint(H.cayley_inv(chain.forward_lp(u2 - p)).value)
        margins.append(1e-9 - np.abs(kd - H.omega(z1, z2)))
        # deltas at the drawn points: monotone under enlarging the domain
        dv = D.delta(dom, ws)
        margins.append(dv - 0.0)
        for side in ("plus", "minus"):
            margins.append(D.delta_pm(dom, D.OmegaSign(side, base), ws) - dv)
    # the quasi-hyperbolic integral lower-bounds the distance when the axis
    # is a geodesic (symmetric domains)
    for dom in (BUILTIN_DOMAINS["koebe"], BUILTIN_DOMAINS["sector_sym"]):
        t0s, t1s = np.empty(16), np.empty(16)
        for i in range(16):  # the scalar draws, in the order of one loop
            t0s[i] = math.exp(rng.uniform(-2, 2))
            t1s[i] = t0s[i] * math.exp(rng.uniform(0.1, 6.0))
        q = np.array([D.quasihyp_lower(dom, t0, t1) for t0, t1 in zip(t0s, t1s)])
        margins.append(D.k_domain(dom, 1j * t0s, 1j * t1s) - q)
    # analytic spot value: Koebe delta along the axis integrates to log/4
    q = D.quasihyp_lower(BUILTIN_DOMAINS["koebe"], 1.0, math.e ** 4)
    margins.append(_eq(q, 1.0))
    return len(domains) * per, _flat(margins)


# ---------------------------------------------------------------------------
# speed suites


@functools.lru_cache(maxsize=1)
def _built_samples(n: int) -> tuple[tuple[str, SG.KoenigsSemigroup, SP.SpeedSample], ...]:
    """(name, semigroup, speed table) for each of BUILTIN_DOMAINS on the grid
    of a suite of size n: the tables that split, julia_tangent, lower_bounds,
    betsakos, sector_asymptotics and nontangential read.

    Built on first use and kept for the most recent n.  It holds only
    tuples and frozen values, so no suite can change what another reads.
    """
    grid = _grid(n)
    sgs = {name: SG.koenigs_semigroup(dom) for name, dom in BUILTIN_DOMAINS.items()}
    return tuple((name, sg, SP.sample_speeds(sg, grid)) for name, sg in sgs.items())


def _suite_split(n, rng):
    tables = [s for *_, s in _built_samples(n)]
    margins = [np.column_stack([s.v_o + s.v_T - s.v,                  # v <= v_o + v_T
                                s.v - (s.v_o + s.v_T - 0.5 * LOG2)])  # lower half
               for s in tables]
    return sum(map(len, tables)), _flat(margins)


def _suite_julia_tangent(n, rng):
    tables = [s for *_, s in _built_samples(n)]
    return sum(map(len, tables)), _flat([s.v_o + 4.0 * LOG2 - s.v_T for s in tables])


def _suite_surrogates(n, rng):
    margins = []
    total = 0
    grid = np.array(_grid(n))
    for _name, dom in BUILTIN_DOMAINS.items():
        sur = SP.surrogate_speeds(SG.koenigs_semigroup(dom), grid)
        if sur.pre_threshold[-1]:
            continue
        # the times from which log rho stays >= 0 onward
        below = np.flatnonzero(sur.pre_threshold)
        tail = slice(below[-1] + 1 if below.size else 0, None)
        margins += [
            0.5 * LOG2 - np.abs(sur.dev_total[tail]),
            0.5 * LOG2 - np.abs(sur.dev_orth[tail]),
            1.5 * LOG2 - np.abs(sur.dev_tang[tail]),
            _eq(sur.s_tang[tail], sur.s_total[tail] - sur.s_orth[tail]),
        ]
        total += grid[tail].size
    return total, _flat(margins)


def _class_expression(cls, t: np.ndarray) -> np.ndarray:
    if isinstance(cls, SG.Hyperbolic):
        return 0.5 * cls.spectral_value * t
    if isinstance(cls, SG.ParabolicPositiveStep):
        return np.log(t)
    return 0.25 * np.log(t)


def _suite_lower_bounds(n, rng):
    built = _built_samples(n)
    margins = [(s.v - _class_expression(SG.classify(sg.image_domain), s.t)).min()
               + EMPIRICAL_SLACK for _name, sg, s in built]
    return sum(len(s) for *_, s in built), margins


def _suite_betsakos(n, rng):
    margins = []
    total = 0
    for _name, sg, s in _built_samples(n):
        cls = SG.classify(sg.image_domain)
        if isinstance(cls, SG.Hyperbolic):
            continue
        coefs = [0.25]
        if isinstance(cls, SG.ParabolicPositiveStep):
            coefs.append(0.5)
        dom = sg.image_domain
        if isinstance(dom, D.Sector):  # iV(a,b) fits in the symmetric iV(m,m)
            coefs.append(math.pi / (4.0 * max(dom.alpha, dom.beta)))
        margins += [(s.v_o - c * np.log(s.t)).min() + EMPIRICAL_SLACK for c in coefs]
        total += len(s)
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


def _fit_window_times(n: int) -> int:
    """How many times of the grid of a suite of size n lie in FIT_WINDOW."""
    t = np.array(_grid(n))
    return np.count_nonzero((FIT_WINDOW[0] <= t) & (t <= FIT_WINDOW[1]))


def _suite_sector_asymptotics(n, rng):
    if n < 2 or _fit_window_times(n) < SP._FIT_MIN_SAMPLES:
        least = next(m for m in itertools.count(max(n, 2))
                     if _fit_window_times(m) >= SP._FIT_MIN_SAMPLES)
        raise _TooFewSamples(least, n, "its fits take {} grid times in [{:g}, {:g}]".format(
            SP._FIT_MIN_SAMPLES, *FIT_WINDOW))
    margins = []
    built = {name: table for name, _sg, table in _built_samples(n)}
    for name, series, basis, target, allowed in FIT_TARGETS:
        fit = SP.fit_asymptotic(built[name], series, basis, FIT_WINDOW)
        margins.append(allowed - abs(fit.coefficient - target))
    lo, hi = FIT_WINDOW
    koebe, hp = built["koebe"], built["halfplane"]
    margins.append(3.0 - koebe.v_T[(lo <= koebe.t) & (koebe.t <= hi)].max())
    inside = (lo <= hp.t) & (hp.t <= hi)
    margins.append(2.0 - np.abs(hp.v - np.log(hp.t))[inside].max())
    return len(FIT_TARGETS) + 2, margins


def _suite_basepoint(n, rng):
    margins = []
    total = 0
    grid = np.array(SP.default_grid(1.0, 1e5, 64))
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        tau = SG.denjoy_wolff(sg)
        margins.append(_eq(abs(tau), 1.0))
        starts = _rand_disc(rng.random((max(2, n // 16), 2)), 3.0).value
        dist = H.omega(H.ORIGIN, H.DiscPoint(starts))[:, None]
        # one orbit pass: row 0 from the origin, one row per drawn start
        z = H.DiscPoint(np.concatenate([[0j], starts])[:, None])
        _v, v_o, v_t = SP.speeds_from_halfplane(SG.orbit_halfplane(sg, z, grid))
        margins.append(dist - np.abs(v_o[0] - v_o[1:]))
        margins.append(2.0 * dist - np.abs(v_t[0] - v_t[1:]))
        total += starts.size * grid.size
    return total, _flat(margins)


def _curve_speeds(eta: H.DiscPoint, tau):
    zeta = H.DiscPoint(_cmul(tau.conjugate(), eta.value))
    return SP.speeds_from_halfplane(H.cayley(zeta))


def _suite_conjugation(n, rng):
    margins = []
    total = 0
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        cls = SG.classify(dom)
        # keep conjugated orbit points representable in the disc
        t_max = 22.0 / cls.spectral_value if isinstance(cls, SG.Hyperbolic) else 1e4
        grid = np.array(SP.default_grid(0.5, t_max, 24))
        v, v_o, v_t = SP.speeds_from_halfplane(SG.orbit_halfplane(sg, H.ORIGIN, grid))
        # per automorphism M: its parameter a (two draws), then its phase
        u = rng.random((max(2, n // 16), 3))
        ms = [H.DiscAutomorphism(a, float(phase)) for a, phase in
              zip(_rand_disc(u[:, 0:2], 1.5).value, _uniform(u[:, 2], -math.pi, math.pi))]
        starts = np.array([m.apply(H.ORIGIN).value for m in ms])
        # one orbit pass from every start point; the grid keeps 1 - |z|
        # above about 1e-10, where the value is faithful
        orbits = SG.orbit(sg, H.DiscPoint(starts[:, None]), grid).value
        m_invs = [m.inverse() for m in ms]
        eta = np.array([m_inv.apply(H.DiscPoint(row)).value for m_inv, row in zip(m_invs, orbits)])
        tau_conj = np.array([[m_inv.apply_boundary(1.0 + 0j)] for m_inv in m_invs])
        cv, cvo, cvt = _curve_speeds(H.DiscPoint(eta), tau_conj)
        bound = 4.0 * H.omega(H.ORIGIN, H.DiscPoint(starts))[:, None] + 4.0
        margins += [bound - np.abs(v - cv), bound - np.abs(v_o - cvo), bound - np.abs(v_t - cvt)]
        total += orbits.size
    return total, _flat(margins)


def _suite_semigroup_model(n, rng):
    margins = []
    total = 0
    for _name, dom in BUILTIN_DOMAINS.items():
        sg = SG.koenigs_semigroup(dom)
        tau = SG.denjoy_wolff(sg)
        cls = SG.classify(dom)
        if isinstance(dom, D.Strip):
            margins.append(_eq(cls.spectral_value, math.pi / dom.r))
        # per sample: a start z (two draws), times s and t, a holding time,
        # a second start z2 (two draws) and a contraction time
        per = max(4, n // 8)
        u = rng.random((per, 8))
        z, z2 = _rand_disc(u[:, 0:2], 2.5), _rand_disc(u[:, 5:7], 2.5)
        s, t = _uniform(u[:, 2], 0.0, 3.0), _uniform(u[:, 3], 0.0, 3.0)
        hold, tt = _uniform(u[:, 4], 0.0, 1e3), _uniform(u[:, 7], 0.0, 1e4)
        # one orbit pass for every start and time the samples ask for
        starts = H.DiscPoint(np.stack([z.value] * 4 + [z2.value]))
        after_s, after_st, held, moved, moved2 = _rows(
            SG.orbit_halfplane(sg, starts, np.stack([s, s + t, hold, tt, tt])))
        two_step = SG.orbit(sg, H.cayley_inv(after_s), t)
        margins.append(1e-9 - np.abs(two_step.value - H.cayley_inv(after_st).value))
        margins.append(1.0 - np.abs(H.cayley_inv(held).value))
        # Schwarz-Pick: the semigroup contracts omega
        margins.append(H.omega(z, z2) - H.k_half(moved, moved2))
        total += per
        # orbits converge to the Denjoy-Wolff point
        gaps = np.abs(SG.orbit(sg, H.ORIGIN, np.array([1e4, 1e6])).value - tau)
        margins.append(5e-3 - gaps[-1])
        margins.append(gaps[0] - gaps[-1])
        # hyperbolic-step dichotomy on a dyadic grid reaching 1e8
        gaps = SG.hyperbolic_step_gap(sg, 2.0 ** np.arange(28))
        if isinstance(cls, SG.ParabolicPositiveStep):
            margins.append(gaps[8:].min() - 0.01)
        elif isinstance(cls, SG.ParabolicZeroStep):
            margins.append(0.01 - gaps[-1])
    return total, _flat(margins)


def _suite_nontangential(n, rng):
    margins = []
    built = {name: (sg, table) for name, sg, table in _built_samples(n)}
    bounded = {"sector_sym", "koebe"}
    for name in ("sector_sym", "koebe", "sector_flat", "halfplane"):
        sg, table = built[name]
        p = SG.model_point(sg)
        ratios = SP.nontangential_ratio(sg, p, table.t)
        worst_ratio = np.maximum(ratios, 1.0 / ratios).max()
        sup_vt = table.v_T.max()
        if name in bounded:
            margins.append(10.0 - worst_ratio)  # geometric side bounded
            margins.append(3.0 - sup_vt)        # dynamic side bounded
        else:
            margins.append(ratios[-1] / 1e6 - 1.0)  # ratio at t = 1e8 exceeds 1e6
            margins.append(sup_vt - 5.0)            # tangential speed escapes
    return 4 * len(table), margins  # four tables on one grid


def _suite_comb(n, rng):
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
    rs = [cc.x[j - 1] + rng.uniform(0.0, 1.0, size=4) * (cc.b[j] - cc.x[j - 1])
          for j in range(1, cc.steps + 1)]
    plateau = np.repeat(cc.a[1:cc.steps + 1], 4)
    margins.append(_eq(D.delta(cc.domain(), 1j * np.concatenate(rs)), plateau))
    # degenerate single-step construction still certifies 1/4
    tiny = CB.verify_comb(CB.build_comb("log1p", "linear", steps=1))
    margins.append(tiny[0]["ratio"] - 0.25)
    # a linear gauge must be rejected
    try:
        CB.build_comb(lambda t: t, "linear", steps=2)
        margins.append(-1.0)
    except ValueError:
        margins.append(0.0)
    return cc.steps, _flat(margins)


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
    if not (isinstance(tol, Real) and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"the tolerance must be finite and >= 0, got {tol!r}")
    if not (isinstance(name, str) and name in SUITES):
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    try:  # Python ints: a report echoes its seed, and numpy would take a list or None
        seed, n = operator.index(seed), n if n is None else operator.index(n)
    except TypeError:
        raise ValueError(f"the seed and the sample count must be integers, got {seed!r} and {n!r}") from None
    if n is not None and n < 1:
        raise ValueError(f"the sample count must be positive, got {n}")
    fn, default_n = SUITES[name]
    rng = np.random.default_rng(seed)
    try:
        samples, margins = fn(default_n if n is None else n, rng)
    except _TooFewSamples as exc:
        raise ValueError(f"suite {name} {exc}") from None
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
    D: ["domain_from_json", "contains", "to_halfplane", "delta", "delta_pm",
        "k_domain", "quasihyp_lower"],
    SG: ["classify", "koenigs_semigroup", "orbit", "denjoy_wolff"],
    SP: ["sample_speeds", "surrogate_speeds", "fit_asymptotic", "nontangential_ratio"],
    CB: ["build_comb", "verify_comb"],
}


def coverage_check(seed: int = 42) -> set[str]:
    """Replay small versions of every suite under a profile hook that records
    the code of every Python call, so a public operation counts however its
    caller imported it; returns the set of operations never invoked."""
    ops = {getattr(mod, nm).__code__: f"{mod.__name__.rsplit('.', 1)[-1]}.{nm}"
           for mod, names in PUBLIC_OPS.items() for nm in names}
    called = set()
    _built_samples.cache_clear()  # a memoised table would skip the calls
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, _arg: event == "call" and called.add(frame.f_code))
    try:
        small = {"lemma_halfplane": 128, "pythagoras": 128, "contraction": 128,
                 "chains": 32, "basepoint": 16, "conjugation": 16,
                 "semigroup_model": 16, "comb": 3, "sector_asymptotics": 160}
        for name in SUITES:
            run_suite(name, n=small.get(name, 64), seed=seed)
    finally:
        sys.setprofile(previous)
    return {key for code, key in ops.items() if code not in called}
