"""Batches through the public metric, chain, orbit and speed operations.

Each array kernel is checked against the scalar code it mirrors, branch by
branch, and the array k_half against an independent 50-digit oracle.
numpy's exp, sinh, atanh, log1p, tanh, log and atan2 may differ from the
math module in the last bit, so scalar and batch agree to a few ulp, not
bit for bit.
"""

import math

import mpmath
import numpy as np
import pytest

from hypspeed import (Comb, DiscPoint, HalfPlanePoint, HalfPlaneRight, Koebe,
                      OmegaSign, RadialGeodesic, Sector, Strip, cayley,
                      contains, delta_pm, dist_to_radius, k_half,
                      koenigs_semigroup, nontangential_ratio, omega,
                      orbit_halfplane, path_length, project_to_radius,
                      surrogate_speeds, surrogate_threshold, to_halfplane)
from hypspeed.domains import UnsupportedDomainOperation, canonical_base_point
from hypspeed.hyperbolic import (GL_NODES, GL_WEIGHTS, ORIGIN, DomainError,
                                 tangential_distance)
from hypspeed.mapchain import (HALF_PI, Affine, BranchError, ExpLog, ExpScale,
                               LogPolar, Power, RiemannMapChain,
                               _from_complex_array)
from hypspeed.semigroups import hyperbolic_step_gap, model_point

N = 300
ULPS = 8
#: k_half takes the atanh branch exactly where m < 0.9, i.e. k < atanh(0.9)
K_ATANH = math.atanh(0.9)


def ulps_apart(batch, scalar):
    batch, scalar = np.asarray(batch), np.asarray(scalar)
    return np.max(np.abs(batch - scalar) / np.spacing(np.abs(scalar)))


def signs(rng):
    return np.where(rng.random(N) < 0.5, 1.0, -1.0)


def pairs(case, rng):
    """(l1, t1, c1, l2, t2, c2) for N pairs in one branch of _k_lp; c is the
    cached cosine, or None to leave it to the point."""
    u = lambda lo, hi: rng.uniform(lo, hi, N)  # noqa: E731
    zero = np.zeros(N)
    if case == "radial":
        return u(-20, 20), zero, None, u(-20, 20), zero, None
    if case == "far":  # |d log rho| > 30
        return u(-5, 5), u(-1.5, 1.5), None, u(35.1, 60), u(-1.5, 1.5), None
    if case == "atanh":
        return u(-0.3, 0.3), u(-0.3, 0.3), None, u(-0.3, 0.3), u(-0.3, 0.3), None
    if case == "complement":  # opposite sides of the axis, near the boundary
        return u(-3, 3), u(1.3, 1.55), None, u(-3, 3), u(-1.55, -1.3), None
    if case == "cached_cosine":  # theta rounds to +-pi/2; only the cosine knows
        g1, g2 = 10 ** u(-16, -12), 10 ** u(-16, -12)
        return (u(-3, 3), signs(rng) * HALF_PI, np.sin(g1),
                u(-3, 3), signs(rng) * HALF_PI, np.sin(g2))
    if case == "flip":  # t1 + t2 < 0: both points are conjugated
        return u(-3, 3), u(-1.5, 0.2), None, u(-3, 3), u(-1.5, -0.3), None
    raise ValueError(case)


def scalar_k(l1, t1, c1, l2, t2, c2):
    def point(l, t, c, i):
        return HalfPlanePoint(float(l[i]), float(t[i]), None if c is None else float(c[i]))
    return np.array([k_half(point(l1, t1, c1, i), point(l2, t2, c2, i)) for i in range(N)])


class TestKHalfBranches:
    @pytest.mark.parametrize("case", ["radial", "far", "atanh", "complement",
                                      "cached_cosine", "flip"])
    def test_batch_matches_scalar(self, case):
        l1, t1, c1, l2, t2, c2 = args = pairs(case, np.random.default_rng(5))
        batch = k_half(HalfPlanePoint(l1, t1, c1), HalfPlanePoint(l2, t2, c2))
        scalar = scalar_k(*args)
        assert ulps_apart(batch, scalar) <= ULPS
        d = np.abs(l2 - l1)
        if case == "radial":
            assert np.array_equal(batch, 0.5 * d)
        elif case == "far":
            assert np.all(d > 30)
        elif case == "atanh":
            assert np.all(scalar < K_ATANH)
        elif case == "complement":
            assert np.all((scalar > K_ATANH) & (d <= 30))
        elif case == "cached_cosine":
            assert np.all(np.abs(np.abs(t1) - HALF_PI) <= 1e-12)
        else:
            assert np.all(t1 + t2 < 0)

    def test_broadcasts_a_single_point(self):
        rng = np.random.default_rng(6)
        one = HalfPlanePoint(0.0, 0.0, 1.0)
        theta = rng.uniform(-1.5, 1.5, N)
        batch = k_half(one, HalfPlanePoint(0.0, theta))
        scalar = [k_half(one, HalfPlanePoint(0.0, float(t))) for t in theta]
        assert batch.shape == (N,)
        assert ulps_apart(batch, scalar) <= ULPS

    def test_batch_is_validated(self):
        with pytest.raises(DomainError):
            HalfPlanePoint(np.zeros(3), np.array([0.0, 2.0, 0.0]))
        with pytest.raises(DomainError):
            HalfPlanePoint(np.array([0.0, np.inf]), 0.0)


def k_half_50_digits(l1, t1, l2, t2):
    """k_H from cartesian points at 50 digits, through 1 - m^2 =
    4 Re w1 Re w2 / |w1 + conj w2|^2, which never cancels."""
    with mpmath.workdps(50):
        w1 = mpmath.exp(l1) * mpmath.expj(t1)
        w2 = mpmath.exp(l2) * mpmath.expj(t2)
        s = abs(w1 + mpmath.conj(w2))
        m = abs(w1 - w2) / s
        one_minus_m2 = 4 * w1.real * w2.real / s ** 2
        return mpmath.log1p(m) - mpmath.log(one_minus_m2) / 2


class TestKHalfOracle:
    def test_boundary_hugging_draws(self):
        # angles within 10^-12 .. 1 of +-pi/2 and modulus ratios up to e^40;
        # the second half are neighbours of their first point (offsets of
        # the order of the gap to the boundary), so every branch is reached
        rng = np.random.default_rng(11)
        n = 500
        side, gap = np.where(rng.random(n) < 0.5, 1.0, -1.0), 10 ** rng.uniform(-12, 0, n)
        l1 = rng.uniform(-20, 20, n)
        t1 = side * (HALF_PI - gap)
        far_side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        far_t = far_side * (HALF_PI - 10 ** rng.uniform(-12, 0, n))
        near_t = side * (HALF_PI - gap * rng.uniform(0.5, 1.5, n))
        l2 = np.concatenate([rng.uniform(-20, 20, n), l1 + gap * rng.uniform(-1, 1, n)])
        l1, t1, t2 = np.tile(l1, 2), np.tile(t1, 2), np.concatenate([far_t, near_t])
        got = k_half(HalfPlanePoint(l1, t1), HalfPlanePoint(l2, t2))
        want = np.array([float(k_half_50_digits(*map(float, a))) for a in zip(l1, t1, l2, t2)])
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert np.any(np.abs(l2 - l1) > 30) and np.any(want < K_ATANH)


def disc_batch(rng, max_dist, n=N):
    r = np.tanh(0.5 * rng.uniform(0.0, max_dist, n))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


class TestDiscBatches:
    @pytest.mark.parametrize("depth", [1.0, 8.0], ids=["near", "deep"])
    def test_omega(self, depth):
        rng = np.random.default_rng(12)
        z, w = disc_batch(rng, depth), disc_batch(rng, depth)
        w[:10] = z[:10]  # coincident points are at distance 0
        batch = omega(DiscPoint(z), DiscPoint(w))
        scalar = [omega(complex(a), complex(b)) for a, b in zip(z, w)]
        assert np.all(batch[:10] == 0.0)
        assert ulps_apart(batch[10:], scalar[10:]) <= ULPS

    def test_cayley(self):
        z = disc_batch(np.random.default_rng(13), 8.0)
        batch = cayley(DiscPoint(z))
        for i, a in enumerate(z):
            w = cayley(complex(a))
            assert ulps_apart(batch.log_rho[i], w.log_rho) <= ULPS
            assert ulps_apart(batch.theta[i], w.theta) <= ULPS
            assert ulps_apart(batch.cos[i], w.cos) <= ULPS

    def test_projection_per_sample_geodesic(self):
        rng = np.random.default_rng(14)
        z = disc_batch(rng, 8.0)
        tau = np.exp(1j * rng.uniform(-math.pi, math.pi, N))
        geo = RadialGeodesic(tau)
        proj = project_to_radius(z, geo).value
        dist = dist_to_radius(z, geo)
        for i in range(N):
            g = RadialGeodesic(complex(tau[i]))
            want = project_to_radius(complex(z[i]), g).value
            assert abs(proj[i] - want) <= ULPS * np.spacing(abs(want))
            assert ulps_apart(dist[i], dist_to_radius(complex(z[i]), g)) <= ULPS

    def test_batch_is_validated(self):
        with pytest.raises(DomainError):
            DiscPoint(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            RadialGeodesic(np.array([1.0, 0.5]))
        guarded = DiscPoint(1.0 + 0j, halfplane=HalfPlanePoint(40.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            project_to_radius(guarded, RadialGeodesic(np.array([1.0, 1j])))


class TestTangentialBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(15)
        theta = np.concatenate([rng.uniform(-1.5, 1.5, N), [0.0, HALF_PI, -HALF_PI,
                                                            HALF_PI, -HALF_PI]])
        cos = np.cos(theta)
        # cached cosines within 1e-12 of the boundary, and below 1e-308,
        # where (1 + sin)/cos overflows
        cos[-4:] = [1e-13, 1e-15, 1e-309, 5e-324]
        batch = tangential_distance(theta, cos)
        scalar = [tangential_distance(float(t), float(c)) for t, c in zip(theta, cos)]
        assert ulps_apart(batch, scalar) <= ULPS
        assert batch[N] == 0.0 and np.all(np.isfinite(batch))
        assert batch[-1] == pytest.approx(0.5 * (math.log(2.0) - math.log(5e-324)), rel=1e-15)

    def test_overflow_branch_is_continuous(self):
        # just above and below the largest cosine at which the quotient overflows
        c = 2.0 / 1.7976931348623157e308
        near = [tangential_distance(HALF_PI, c * f) for f in (1.0001, 0.9999)]
        assert near[1] - near[0] == pytest.approx(-0.5 * math.log(0.9999 / 1.0001), rel=1e-6)


def path_length_loop(space, polyline, subdivisions):
    """Segment by segment and piece by piece: the summation order the array
    form replaced."""
    pts = [complex(p) for p in polyline]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        step = (b - a) / subdivisions
        for k in range(subdivisions):
            mids = a + k * step + (0.5 + 0.5 * GL_NODES) * step
            if space == "disc":
                dens = 1.0 / (1.0 - np.abs(mids) ** 2)
            else:
                dens = 1.0 / (2.0 * np.real(mids))
            total += abs(step) * 0.5 * float(np.dot(GL_WEIGHTS, dens))
    return total


class TestPathLengthBatch:
    @pytest.mark.parametrize("space,polyline", [
        ("halfplane", np.exp(np.linspace(-1.0, 0.5, 48)) * np.exp(0.9j)),
        ("halfplane", [1 + 0j, 2 + 3j, 0.5 + 1j, 0.5 + 1j]),
        ("disc", [0j, 0.5 + 0.2j, -0.3 + 0.8j]),
    ], ids=["ray", "zigzag", "disc"])
    def test_matches_loop(self, space, polyline):
        got = path_length(space, polyline, subdivisions=16)
        assert got == pytest.approx(path_length_loop(space, polyline, 16), rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            path_length("disc", [0j, 1.0])
        with pytest.raises(ValueError):
            path_length("sphere", [0j, 0.5])
        with pytest.raises(ValueError):
            path_length("disc", [0j])
        with pytest.raises(ValueError):
            path_length("disc", [0j, 0.5], subdivisions=0)


# ---------------------------------------------------------------------------
# chain links, orbits and the speed functions on arrays of times

#: the ten domains of the benchmark's `tables` workload
TABLE_DOMAINS = {
    "strip": Strip(math.pi / 2),
    "halfplane": HalfPlaneRight(0j),
    "sector_sym": Sector(0j, math.pi / 4, math.pi / 4),
    "sector_flat": Sector(0j, math.pi, 0.0),
    "koebe": Koebe(0j),
    "sector_skew": Sector(1 - 2j, 0.7, 1.9),
    "slit": Sector(0.5j, math.pi, math.pi),
    "koebe_shift": Koebe(2 + 1j),
    "strip_wide": Strip(3.0),
    "halfplane_shift": HalfPlaneRight(-1 + 2j),
}
NOT_STRIPS = [name for name, dom in TABLE_DOMAINS.items() if not isinstance(dom, Strip)]
#: times from 0 to 1e12; |w| within a factor e of e^700, where Affine links
#: switch to their wide branch (strips overflow there, as their scalar
#: code does); and around 1e300
TIMES = {
    "to_1e12": np.concatenate([[0.0], np.geomspace(1e-3, 1e12, 120)]),
    "e700": np.exp(np.linspace(699.0, 701.0, 41)),
    "1e300": np.geomspace(1e299, 1e301, 9),
}
CASES = ([(name, span) for name in TABLE_DOMAINS for span in ("to_1e12", "1e300")]
         + [(name, "e700") for name in NOT_STRIPS])
START = DiscPoint(0.3 - 0.4j)


def scaled_ulps(batch, scalar, scale):
    """|batch - scalar| in ulps of `scale`: of the largest term a value is
    formed from, where it is a difference of larger terms."""
    batch, scalar = np.asarray(batch, dtype=float), np.asarray(scalar, dtype=float)
    return np.max(np.abs(batch - scalar) / np.spacing(np.abs(scale)))


def assert_points_match(batch, scalars):
    for name in ("log_rho", "theta", "cos"):
        want = np.array([getattr(p, name) for p in scalars])
        got = np.broadcast_to(getattr(batch, name), want.shape)
        assert ulps_apart(got, want) <= ULPS, name


class TestChainBatches:
    @pytest.mark.parametrize("name,span", CASES)
    def test_forward_chain(self, name, span):
        dom = TABLE_DOMAINS[name]
        chain = to_halfplane(dom)
        w = model_point(koenigs_semigroup(dom), START) + 1j * TIMES[span]
        assert_points_match(chain.forward_lp(w), [chain.forward_lp(complex(x)) for x in w])
        if span == "e700":  # both Affine branches in one batch
            assert np.any(np.abs(w) > math.exp(700)) and np.any(np.abs(w) < math.exp(700))

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_inverse_chain(self, name):
        # F^-1 from half-plane points up to log rho = 750: Power, ExpLog and
        # the narrow and wide Affine branches of the inverse links
        rng = np.random.default_rng(21)
        log_rho = np.concatenate([rng.uniform(-5.0, 30.0, 60), rng.uniform(650.0, 750.0, 60)])
        if isinstance(TABLE_DOMAINS[name], Strip):
            log_rho = log_rho[:60]
        hp = HalfPlanePoint(log_rho, rng.uniform(-1.5, 1.5, log_rho.size))
        chain = koenigs_semigroup(TABLE_DOMAINS[name]).chain
        scalars = [chain.forward_lp(HalfPlanePoint(float(l), float(t)))
                   for l, t in zip(hp.log_rho, hp.theta)]
        assert_points_match(chain.forward_lp(hp), scalars)

    def test_every_link_type(self):
        rng = np.random.default_rng(22)
        w = rng.uniform(0.1, 3.0, N) * np.exp(1j * rng.uniform(-1.4, 1.4, N))
        for link in (Affine(2.0 - 1j, 0.5), Affine(1.0, -3.0j), Power(0.7, -1.5, 1.5),
                     Power(1.0, -1.5, 1.5), ExpScale(-1j * math.pi / 1.3), ExpLog(0.5 - 2j)):
            batch = link.fwd_array(_from_complex_array(w))
            assert_points_match(batch, [link.fwd(LogPolar.from_complex(complex(x))) for x in w])

    def test_affine_mixed_branches_keep_exact_cartesian_values(self):
        link = Affine(1j, 2.0)
        p = LogPolar(np.array([1.0, 705.0]), np.array([0.3, 0.3]))
        q = link.fwd_array(p)
        assert q.cart[0] == link.fwd(LogPolar(1.0, 0.3)).cart
        assert np.isnan(q.cart[1])
        with pytest.raises(OverflowError):
            RiemannMapChain([link]).forward(p)

    def test_one_point_outside_a_power_sector_fails_the_batch(self):
        chain = to_halfplane(TABLE_DOMAINS["sector_sym"])
        w = np.array([1j, 2j, -1.0 - 1j])
        with pytest.raises(BranchError):
            chain.forward_lp(-1.0 - 1j)
        with pytest.raises(BranchError):
            chain.forward_lp(w)
        assert chain.forward_lp(w[:2]).log_rho.shape == (2,)

    def test_log_link_rejects_a_zero_in_the_batch(self):
        with pytest.raises(ValueError):
            ExpLog(1.0).fwd_array(_from_complex_array(np.array([1.0 + 0j, 0j])))

    def test_strip_beyond_the_wide_switch_overflows_as_the_scalar_does(self):
        sg = koenigs_semigroup(TABLE_DOMAINS["strip"])
        with pytest.raises(OverflowError):
            orbit_halfplane(sg, ORIGIN, math.exp(701.0))
        with pytest.raises(OverflowError):
            orbit_halfplane(sg, ORIGIN, TIMES["e700"])


class TestOrbitBatches:
    @pytest.mark.parametrize("name,span", CASES)
    def test_orbit_halfplane(self, name, span):
        sg, ts = koenigs_semigroup(TABLE_DOMAINS[name]), TIMES[span]
        for z in (ORIGIN, START):
            batch = orbit_halfplane(sg, z, ts)
            assert_points_match(batch, [orbit_halfplane(sg, z, float(t)) for t in ts])

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_start_points_broadcast_against_times(self, name):
        sg, ts = koenigs_semigroup(TABLE_DOMAINS[name]), TIMES["to_1e12"]
        starts = [ORIGIN, START, DiscPoint(-0.7 + 0.1j)]
        batch = orbit_halfplane(sg, DiscPoint(np.array([[z.value] for z in starts])), ts)
        assert batch.log_rho.shape == (3, ts.size)
        for i, z in enumerate(starts):
            row = LogPolar(batch.log_rho[i], batch.theta[i], batch.cos[i])
            assert_points_match(row, [orbit_halfplane(sg, z, float(t)) for t in ts])

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_hyperbolic_step_gap(self, name):
        # beyond 2^53, t + 1 == t and the gap compares a point with itself
        sg, ts = koenigs_semigroup(TABLE_DOMAINS[name]), TIMES["to_1e12"]
        for z in (ORIGIN, START):
            want = np.array([hyperbolic_step_gap(sg, float(t), z) for t in ts])
            got = hyperbolic_step_gap(sg, ts, z)
            assert scaled_ulps(got, want, np.maximum(np.abs(want), 1.0)) <= ULPS

    def test_errors(self):
        sg = koenigs_semigroup(TABLE_DOMAINS["koebe"])
        for fn in (lambda t: orbit_halfplane(sg, ORIGIN, t),
                   lambda t: hyperbolic_step_gap(sg, t),
                   lambda t: surrogate_speeds(sg, t),
                   lambda t: nontangential_ratio(sg, 1j, t)):
            with pytest.raises(ValueError):
                fn(np.array([1.0, -1.0, 2.0]))
        comb = koenigs_semigroup(Comb([(1.0, 1.0), (2.0, 6.86)]))
        with pytest.raises(UnsupportedDomainOperation):
            orbit_halfplane(comb, ORIGIN, np.array([1.0, 2.0]))


SURROGATE_FIELDS = ("s_total", "s_orth", "s_tang", "dev_total", "dev_orth", "dev_tang")


def surrogate_scale(s, field):
    """The largest term a surrogate field is formed from: s_tang and the
    total and tangential deviations are differences involving s_total or the
    speeds; the orthogonal deviation keeps log(rho)/2 symbolic."""
    return {"s_tang": max(abs(s.s_total), abs(s.s_orth)),
            "dev_total": s.s_total + s.dev_total,     # v
            "dev_tang": s.s_tang + s.dev_tang,        # v_T
            }.get(field, getattr(s, field))


class TestSurrogateBatches:
    @pytest.mark.parametrize("name,span", CASES)
    def test_surrogate_speeds(self, name, span):
        sg, ts = koenigs_semigroup(TABLE_DOMAINS[name]), TIMES[span]
        for z in (ORIGIN, START):
            batch = surrogate_speeds(sg, ts, z)
            scalars = [surrogate_speeds(sg, float(t), z) for t in ts]
            for field in SURROGATE_FIELDS:
                want = np.array([getattr(s, field) for s in scalars])
                scale = np.maximum(1.0, np.abs([surrogate_scale(s, field) for s in scalars]))
                assert scaled_ulps(getattr(batch, field), want, scale) <= ULPS, field
            assert np.array_equal(batch.pre_threshold, [s.pre_threshold for s in scalars])
            assert batch.t is ts

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_surrogate_threshold_matches_the_backward_scan(self, name):
        sg = koenigs_semigroup(TABLE_DOMAINS[name])
        # from -0.8j, log rho dips below 0 and back up on most of these
        # domains: the threshold is where the last run of log rho >= 0 starts
        for z in (ORIGIN, DiscPoint(-0.6 - 0.3j), DiscPoint(-0.8j)):
            grid = [0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0, 50.0]
            t0 = None
            for t in reversed(grid):
                if orbit_halfplane(sg, z, t).log_rho < 0.0:
                    break
                t0 = t
            assert surrogate_threshold(sg, grid[::-1], z) == t0
        assert surrogate_threshold(sg, []) is None


# ---------------------------------------------------------------------------
# membership, Omega^+- distances and the non-tangential ratio on arrays

COMB = Comb([(1.0, 1.0), (2.0, 6.86), (3.5, 9.0)])
EVERY_TYPE = {**TABLE_DOMAINS, "comb": COMB}


def probe_points(dom, rng, n=400):
    """Random points around the domain's base point, plus points on its
    boundary, where membership is decided by equality tests."""
    centre = 1j if isinstance(dom, Comb) else canonical_base_point(dom)
    w = centre + rng.normal(0.0, 4.0, n) + 1j * rng.normal(0.0, 6.0, n)
    edges = {HalfPlaneRight: lambda: dom.p + 1j * rng.normal(0, 3, 8),
             Strip: lambda: np.array([0.0, dom.r]) + 1j * rng.normal(0, 3, 2),
             Sector: lambda: dom.p + np.array([0.0, 2.0 * np.exp(1j * dom.ray_lo),
                                               3.0 * np.exp(1j * dom.ray_hi)]),
             Koebe: lambda: dom.p - 1j * np.array([0.0, 1.0, 5.0]),
             Comb: lambda: np.array([1.0, -1.0 + 0.5j, 2.0 + 6.86j, -3.5 - 2j])}
    return np.concatenate([w, np.ravel(edges[type(dom)]())])


@pytest.mark.parametrize("name", list(EVERY_TYPE))
def test_contains(name):
    dom = EVERY_TYPE[name]
    w = probe_points(dom, np.random.default_rng(23))
    want = np.array([contains(dom, complex(x)) for x in w])
    assert np.array_equal(contains(dom, w), want)
    assert want.any() and not want.all()


@pytest.mark.parametrize("name", list(EVERY_TYPE))
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_delta_pm(name, side):
    dom = EVERY_TYPE[name]
    ref = 1j if isinstance(dom, Comb) else canonical_base_point(dom)
    sign = OmegaSign(side, ref)
    w = probe_points(dom, np.random.default_rng(24))
    inside = np.array([contains(dom, complex(x)) or (x.real > ref.real if side == "plus"
                                                     else x.real < ref.real) for x in w])
    q = w[inside]
    want = np.array([delta_pm(dom, sign, complex(x)) for x in q])
    got = delta_pm(dom, sign, q)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    if finite.any():
        assert ulps_apart(got[finite], want[finite]) <= ULPS
    with pytest.raises(DomainError):
        delta_pm(dom, sign, w[~inside][:3] if (~inside).any() else np.array([complex(math.nan)]))


@pytest.mark.parametrize("name", list(EVERY_TYPE))
def test_nontangential_ratio(name):
    dom = EVERY_TYPE[name]
    sg = koenigs_semigroup(dom)
    p = 1j if isinstance(dom, Comb) else canonical_base_point(dom) + 0.1
    ts = np.geomspace(1e-3, 1e8, 150)
    want = np.array([nontangential_ratio(sg, p, float(t)) for t in ts])
    assert ulps_apart(nontangential_ratio(sg, p, ts), want) <= ULPS
