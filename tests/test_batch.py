"""Batches through the public metric, chain, orbit and speed operations.

Every operation has one numpy body for a point and a batch.  Each is
checked, branch by branch, against an independent 50-digit oracle: the
map, the orbit, k_half, the tangential distance and the surrogates;
delta_pm and the non-tangential ratio against a brute-force sample of the
boundary.  numpy may round a 0-d array an ulp apart from the same point in
a batch, so a point and a batch agree to a few ulp, not bit for bit.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from hypspeed import (Comb, DiscAutomorphism, DiscPoint, HalfPlanePoint,
                      HalfPlaneRight, Koebe, OmegaSign, RadialGeodesic, Sector,
                      Strip, build_comb, cayley, cayley_inv, classify, contains,
                      default_grid, delta, delta_pm, denjoy_wolff,
                      dist_to_radius, domain_from_json, fit_asymptotic,
                      k_domain, k_half, kappa, koenigs_semigroup,
                      nontangential_ratio, omega, orbit, orbit_halfplane,
                      path_length, project_to_radius, quasihyp_lower,
                      sample_speeds, surrogate_speeds, to_halfplane,
                      verify_comb)
from hypspeed.domains import UnsupportedDomainOperation
from hypspeed.hyperbolic import (GL_NODES, GL_WEIGHTS, ORIGIN, DomainError,
                                 tangential_distance)
from hypspeed.mapchain import HALF_PI, LogPolar
from hypspeed.semigroups import hyperbolic_step_gap, model_point
from hypspeed.speeds import speeds_from_halfplane
from hypspeed.verify import PUBLIC_OPS, _rand_domain_points

from oracles import (brute_delta_pm, mp_contains, mp_disc, mp_halfplane, mp_k, mp_k_half,
                     mp_lp, mp_moebius, mp_omega, mp_orbit, mp_point, mp_preimage,
                     mp_radial, mp_speeds, mp_surrogates)

N = 300
ULPS = 8
#: k = atanh(0.9), where m = tanh k = 0.9: the "close" pairs lie below it,
#: the "opposite_sides" pairs above
K_ATANH = math.atanh(0.9)


def ulps_apart(batch, scalar):
    batch, scalar = np.asarray(batch), np.asarray(scalar)
    return np.max(np.abs(batch - scalar) / np.spacing(np.abs(scalar)))


def signs(rng):
    return np.where(rng.random(N) < 0.5, 1.0, -1.0)


def pairs(case, rng):
    """(l1, t1, c1, l2, t2, c2) for N pairs of one kind; c is the cached
    cosine, or None to leave it to the point."""
    u = lambda lo, hi: rng.uniform(lo, hi, N)  # noqa: E731
    zero = np.zeros(N)
    if case == "radial":
        return u(-20, 20), zero, None, u(-20, 20), zero, None
    if case == "wide_ratio":  # |d log rho| > 30
        return u(-5, 5), u(-1.5, 1.5), None, u(35.1, 60), u(-1.5, 1.5), None
    if case == "close":
        return u(-0.3, 0.3), u(-0.3, 0.3), None, u(-0.3, 0.3), u(-0.3, 0.3), None
    if case == "opposite_sides":  # near the boundary
        return u(-3, 3), u(1.3, 1.55), None, u(-3, 3), u(-1.55, -1.3), None
    if case == "cached_cosine":  # theta rounds to +-pi/2; only the cosine knows,
        # through the gaps asin(c) where both points are on one side
        g1, g2 = 10 ** u(-16, -12), 10 ** u(-16, -12)
        return (u(-3, 3), signs(rng) * HALF_PI, np.sin(g1),
                u(-3, 3), signs(rng) * HALF_PI, np.sin(g2))
    if case == "lower_half":  # t1 + t2 < 0
        return u(-3, 3), u(-1.5, 0.2), None, u(-3, 3), u(-1.5, -0.3), None
    raise ValueError(case)


def scalar_k(l1, t1, c1, l2, t2, c2):
    def point(l, t, c, i):
        return HalfPlanePoint(float(l[i]), float(t[i]), None if c is None else float(c[i]))
    return np.array([k_half(point(l1, t1, c1, i), point(l2, t2, c2, i))
                     for i in range(len(l1))])


class TestKHalfBranches:
    @pytest.mark.parametrize("case", ["radial", "wide_ratio", "close", "opposite_sides",
                                      "cached_cosine", "lower_half"])
    def test_batch_matches_scalar(self, case):
        # the scalar reference is the 50-digit distance of each pair
        l1, t1, c1, l2, t2, c2 = args = pairs(case, np.random.default_rng(5))
        batch = k_half(HalfPlanePoint(l1, t1, c1), HalfPlanePoint(l2, t2, c2))
        want = oracle_k(*args)
        assert ulps_apart(batch, want) <= ULPS
        d = np.abs(l2 - l1)
        if case == "radial":
            assert np.array_equal(batch, 0.5 * d)
        elif case == "wide_ratio":
            assert np.all(d > 30)
        elif case == "close":
            assert np.all(want < K_ATANH)
        elif case == "opposite_sides":
            assert np.all((want > K_ATANH) & (d <= 30))
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

    @pytest.mark.parametrize("fields", [(0.0, 0.5, [0.5, 0.6]), ([0.0, 1.0], 0.5),
                                        ("0", 0.5), (0.0, 0.5j), (0.0, None)])
    def test_a_field_that_is_no_real_number_or_array_is_refused(self, fields):
        with pytest.raises(DomainError, match="real number or an ndarray"):
            HalfPlanePoint(*fields)

    @pytest.mark.parametrize("cos", [[0.5, 0.6], [0.5]])
    def test_an_array_cosine_alone_makes_a_batch(self, cos):
        # float log rho and theta with an array cosine broadcast to its shape
        one = HalfPlanePoint(0.0, 0.0, 1.0)
        batch = HalfPlanePoint(0.0, 0.5, np.array(cos))
        assert batch.log_rho.shape == batch.theta.shape == batch.cos_theta.shape == (len(cos),)
        scalar = [k_half(one, HalfPlanePoint(0.0, 0.5, c)) for c in cos]
        assert ulps_apart(k_half(one, batch), scalar) <= ULPS

    @pytest.mark.parametrize("cos", [math.nan, math.inf, 2.0, 1.0 + 1e-11, -0.3, 0.0, -0.0])
    def test_cached_cosine_is_validated(self, cos):
        with pytest.raises(DomainError, match="cos_theta"):
            HalfPlanePoint(0.0, 0.5, cos)
        with pytest.raises(DomainError, match="cos_theta"):
            HalfPlanePoint(np.zeros(3), 0.5, np.array([0.5, cos, 0.5]))

    def test_cached_cosine_edges_are_accepted(self):
        # the smallest subnormal cosine, and a cosine rounded just past 1
        for cos in (5e-324, 1.0 + 1e-13):
            assert HalfPlanePoint(0.0, 0.0, cos).cos == cos
            assert HalfPlanePoint(np.zeros(2), 0.0, np.full(2, cos)).cos[1] == cos


def oracle_k(l1, t1, c1, l2, t2, c2):
    """mp_k_half at 50 digits for each pair; c is None or an array of cached
    cosines, where NaN leaves a point to its angle."""
    def cos(c, i):
        return None if c is None or np.isnan(c[i]) else float(c[i])
    return np.array([float(mp_k_half(float(l1[i]), float(t1[i]), float(l2[i]), float(t2[i]),
                                     cos(c1, i), cos(c2, i)))
                     for i in range(len(l1))])


def regime(case, rng, n=150):
    """(l1, t1, c1, l2, t2, c2) for n pairs of a regime of the k_half formula.
    A point that hugs the boundary has theta = +-acos(c) and its cosine c
    cached; the oracle then reads the point from c and the side."""
    u = lambda lo, hi: rng.uniform(lo, hi, n)  # noqa: E731
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    l1 = u(-5, 5)
    if case == "ratio_29_33":  # |d log rho| in [29, 33]
        return l1, u(-1.5, 1.5), None, l1 + side * u(29, 33), u(-1.5, 1.5), None
    if case == "ratio_to_1e6":
        d = np.concatenate([10 ** u(0, 6)[: n // 3], u(1380, 1440)[: n // 3],
                            10 ** u(3.15, 6)[: n - 2 * (n // 3)]])
        return l1, u(-1.5, 1.5), None, l1 + side * d, u(-1.5, 1.5), None
    if case == "tiny_cosines":  # down to 5e-324, on either side
        c1 = np.concatenate([10 ** u(-323, -3)[: n - 10], np.full(10, 5e-324)])
        c2 = rng.permutation(c1)
        side2 = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        d = np.where(rng.random(n) < 0.5, 10 ** u(-15, 1.5), 10 ** u(1.5, 4))
        return (l1, side * np.arccos(c1), c1,
                l1 + side2 * d, side2 * np.arccos(c2), c2)
    if case == "uncached_neighbours":  # cos theta < 0.5 known from theta alone
        t1, step = side * u(1.05, 1.5), 10 ** u(-15, -3)
        return l1, t1, None, l1 + step * u(-1, 1), t1 + step * u(-1, 1), None
    c1 = 10 ** u(-300, math.log10(0.49))
    c2 = np.minimum(c1 * u(0.5, 1.5), 0.49)
    step = np.where(rng.random(n) < 0.5, c1 * u(-1, 1), 10 ** u(-15, 2))
    if case == "same_side":  # the gaps asin(c), neighbours among them
        return l1, side * np.arccos(c1), c1, l1 + step, side * np.arccos(c2), c2
    if case == "opposite_sides":
        return l1, side * np.arccos(c1), c1, l1 + step, -side * np.arccos(c2), c2
    raise ValueError(case)


class TestKHalfRegimes:
    @pytest.mark.parametrize("case", ["ratio_29_33", "ratio_to_1e6", "tiny_cosines",
                                      "uncached_neighbours", "same_side", "opposite_sides"])
    def test_against_50_digits(self, case):
        l1, t1, c1, l2, t2, c2 = args = regime(case, np.random.default_rng(31))
        want = oracle_k(*args)
        batch = k_half(HalfPlanePoint(l1, t1, c1), HalfPlanePoint(l2, t2, c2))
        for got in (batch, scalar_k(*args)):
            assert np.max(np.abs(got - want) / want) <= 1e-15
        d = np.abs(l2 - l1)
        if case == "ratio_to_1e6":
            assert np.any(d > 1400) and np.any(d < 1400) and np.max(d) > 1e5
        elif case == "tiny_cosines":
            assert np.min(c1) == 5e-324
            assert np.any(c1 * c2 < np.finfo(float).smallest_normal)


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
        want = np.array([float(mp_k_half(*map(float, a))) for a in zip(l1, t1, l2, t2)])
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert np.any(np.abs(l2 - l1) > 30) and np.any(want < K_ATANH)

    @pytest.mark.parametrize("p,q", [
        ((0.0, HALF_PI, 1e-100), (0.0, HALF_PI, 2e-100)),      # atanh(1/3)
        ((300.0, HALF_PI, 1e-200), (300.0, HALF_PI, 1e-200)),  # one point twice
        ((300.0, HALF_PI, 1e-200), (300.0, HALF_PI, 3e-200)),
        ((5.0, -HALF_PI, 1e-250), (5.0 + 1e-250, -HALF_PI, 2e-250)),
        ((0.0, HALF_PI, 1e-200), (1e-200, HALF_PI, 1e-200)),
    ], ids=["third", "same", "ratio_3", "below", "radial_step"])
    def test_pairs_only_their_cosines_resolve(self, p, q):
        # both angles round to +-pi/2 and the cosines are tiny: the angular
        # term comes from the cosines, and no square leaves the double range
        want = float(mp_k_half(p[0], p[1], q[0], q[1], p[2], q[2], dps=250))
        got = k_half(HalfPlanePoint(*p), HalfPlanePoint(*q))
        batch = k_half(HalfPlanePoint(*map(np.array, p)), HalfPlanePoint(*q))
        for value in (got, float(batch)):
            assert value == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("q_log_rho, q_side", [(0.0, -1.0), (40.0, 1.0)],
                             ids=["complement", "far"])
    def test_cosine_products_below_the_normal_range(self, q_log_rho, q_side):
        # c1 * c2 leaves the double range although both points are fine:
        # opposite sides of the axis (1 - m^2 = c1 c2 / den) and moduli e^40
        # apart (log 2 c1 c2); 1e-200 against 1e-200 gives 461.21 and 480.52
        cs = np.concatenate([[1e-200], np.geomspace(1e-150, 1e-300, 7)])
        c1, c2 = (x.ravel() for x in np.meshgrid(cs, cs))
        p = HalfPlanePoint(np.zeros(c1.size), HALF_PI, c1)
        q = HalfPlanePoint(np.full(c2.size, q_log_rho), q_side * HALF_PI, c2)
        want = np.array([float(mp_k_half(0.0, HALF_PI, q_log_rho, q_side * HALF_PI, a, b,
                                         dps=300)) for a, b in zip(c1, c2)])
        got = [k_half(HalfPlanePoint(0.0, HALF_PI, float(a)),
                      HalfPlanePoint(q_log_rho, q_side * HALF_PI, float(b)))
               for a, b in zip(c1, c2)]
        for value in (np.array(got), k_half(p, q)):
            assert np.max(np.abs(value - want) / want) <= 1e-12


def disc_batch(rng, max_dist, n=N):
    r = np.tanh(0.5 * rng.uniform(0.0, max_dist, n))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


class TestDiscBatches:
    @pytest.mark.parametrize("depth", [1.0, 8.0], ids=["near", "deep"])
    def test_omega(self, depth):
        # a point and a batch run one body, so both answer to the definition
        rng = np.random.default_rng(12)
        z, w = disc_batch(rng, depth), disc_batch(rng, depth)
        w[:10] = z[:10]  # coincident points are at distance 0
        batch = omega(DiscPoint(z), DiscPoint(w))
        scalar = np.array([omega(complex(a), complex(b)) for a, b in zip(z, w)])
        want = np.array([float(mp_omega(a, b)) for a, b in zip(z, w)])
        for got in (batch, scalar):
            assert np.all(got[:10] == 0.0)
            assert np.all(np.abs(got[10:] - want[10:]) <= 1e-15 * want[10:])

    @pytest.mark.parametrize("op", ["cayley", "omega", "automorphism"])
    def test_divisor_with_a_subnormal_part(self, op):
        # the divisor 1 - 2e-310j: the ratio of its parts that the complex
        # quotient discards overflows, silently (warnings are errors here)
        z, m = 2e-310j, DiscAutomorphism(0.5, 0.0)
        if op == "cayley":
            got = [cayley(DiscPoint(np.array([z]))).theta, cayley(z).theta]
            want = float(mpmath.arg((1 + mpmath.mpc(z)) / (1 - mpmath.mpc(z))))
        elif op == "omega":
            got = [omega(DiscPoint(np.array([0.5])), DiscPoint(np.array([z]))), omega(0.5, z)]
            want = float(mp_omega(0.5, z))
        else:
            got = [m.apply(DiscPoint(np.array([z]))).value, m.apply(z).value]
            want = complex(mp_moebius(m.a, m.phase, z))
        for value in got:
            assert np.allclose(value, want, rtol=1e-15, atol=1e-320)
        assert np.allclose(got[0], got[1], rtol=1e-15, atol=1e-320)

    def test_cayley(self):
        # each point alone against the batch, and theta and cos theta of
        # both against (1 + z)/(1 - z) at 50 digits; log rho = log|w| loses
        # relative precision where |w| nears 1, so it has no oracle check
        z = disc_batch(np.random.default_rng(13), 8.0)
        batch = cayley(DiscPoint(z))
        for i, a in enumerate(z):
            w = cayley(complex(a))
            assert type(w.log_rho) is float and type(w.cos) is float
            assert ulps_apart(batch.log_rho[i], w.log_rho) <= ULPS
            assert ulps_apart(batch.theta[i], w.theta) <= ULPS
            assert ulps_apart(batch.cos[i], w.cos) <= ULPS
            with mpmath.workdps(50):
                _log_rho, theta, cos = (float(x) for x in mp_lp((1 + mpmath.mpc(a))
                                                                / (1 - mpmath.mpc(a))))
            for p in (w, LogPolar(batch.log_rho[i], batch.theta[i], batch.cos[i])):
                assert ulps_apart(p.theta, theta) <= ULPS
                assert ulps_apart(p.cos, cos) <= ULPS

    def test_projection_per_sample_geodesic(self):
        # each geodesic alone against the batch; near the geodesic the
        # distance and the foot of a plain point lose relative precision,
        # so these draws have no oracle check (the guarded point's have)
        rng = np.random.default_rng(14)
        z = disc_batch(rng, 8.0)
        tau = np.exp(1j * rng.uniform(-math.pi, math.pi, N))
        geo = RadialGeodesic(tau)
        proj = project_to_radius(z, geo).value
        dist = dist_to_radius(z, geo)
        for i in range(N):
            g = RadialGeodesic(complex(tau[i]))
            assert type(g.tau) is complex
            want = project_to_radius(complex(z[i]), g).value
            assert abs(proj[i] - want) <= ULPS * np.spacing(abs(want))
            assert ulps_apart(dist[i], dist_to_radius(complex(z[i]), g)) <= ULPS

    def test_batch_is_validated(self):
        with pytest.raises(DomainError):
            DiscPoint(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            RadialGeodesic(np.array([1.0, 0.5]))
        # a witness of another shape than its points, a batch's or a point's
        for value, log_rho in ((np.array([0.5, 0.1]), np.zeros(3)), (0.5, np.zeros(2))):
            with pytest.raises(DomainError, match="witness must have the shape"):
                DiscPoint(value, halfplane=HalfPlanePoint(log_rho, 0.0))
        # a foot that rounds onto the circle off the real diameter has no witness
        guarded = DiscPoint(1.0 + 0j, halfplane=HalfPlanePoint(40.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="rounds onto the unit circle"):
            project_to_radius(guarded, RadialGeodesic(np.array([1.0, 1j])))

    def test_guarded_point_on_a_batch_of_geodesics(self):
        # a batch of geodesics and each one alone, bit for bit, and both
        # against mp_radial
        z = cayley_inv(HalfPlanePoint(80.0, 1.2))
        tau = np.exp(1j * np.random.default_rng(16).uniform(-math.pi, math.pi, N))
        proj = project_to_radius(z, RadialGeodesic(tau)).value
        dist = dist_to_radius(z, RadialGeodesic(tau))
        for i in range(N):
            g = RadialGeodesic(complex(tau[i]))
            assert type(g.tau) is complex
            assert proj[i] == project_to_radius(z, g).value
            assert dist[i] == dist_to_radius(z, g)
            want_d, want_lp = mp_radial(z, tau[i])
            want = complex(mpmath.tanh(want_lp / 2) * mpmath.mpc(g.tau))
            for foot, d in ((proj[i], dist[i]), (project_to_radius(z, g).value,
                                                  dist_to_radius(z, g))):
                assert abs(foot - want) <= ULPS * np.spacing(abs(want))
                assert ulps_apart(d, float(want_d)) <= ULPS


class TestTangentialBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(15)
        theta = np.concatenate([rng.uniform(-1.5, 1.5, N), [0.0, HALF_PI, -HALF_PI,
                                                            HALF_PI, -HALF_PI]])
        cos = np.cos(theta)
        # cached cosines within 1e-12 of the boundary, and below 1e-308,
        # where 2/cos leaves the double range; each with the angle it is the
        # cosine of, which is +-HALF_PI itself below 1e-16.  The scalar
        # reference is the 50-digit distance, which reads those four points
        # from their cosines and the others from their angles.
        cos[-4:] = [1e-13, 1e-15, 1e-309, 5e-324]
        theta[-4:] = np.sign(theta[-4:]) * np.arccos(cos[-4:])
        batch = tangential_distance(theta, cos)
        want = [float(mp_k_half(0.0, t, 0.0, 0.0, c if i > N else None))
                for i, (t, c) in enumerate(zip(theta, cos))]
        assert ulps_apart(batch, want) <= ULPS
        assert batch[N] == 0.0 and np.all(np.isfinite(batch))
        assert batch[-1] == pytest.approx(0.5 * (math.log(2.0) - math.log(5e-324)), rel=1e-15)

    def test_against_50_digits(self):
        # angles across (-pi/2, pi/2), and cached cosines of boundary-hugging
        # points down to 5e-324 with theta = +-acos(c)
        rng = np.random.default_rng(16)
        cos = np.concatenate([10 ** rng.uniform(-323, -1, 100), [5e-324]])
        theta = np.concatenate([rng.uniform(-1.5, 1.5, 100), signs(rng)[:101] * np.arccos(cos)])
        cached = np.concatenate([np.full(100, np.nan), cos])
        want = np.array([float(mp_k_half(0.0, t, 0.0, 0.0, None if np.isnan(c) else c))
                         for t, c in zip(theta, cached)])
        batch = np.concatenate([tangential_distance(theta[:100]),
                                tangential_distance(theta[100:], cos)])
        scalar = [tangential_distance(float(t), None if np.isnan(c) else float(c))
                  for t, c in zip(theta, cached)]
        for got in (batch, np.array(scalar)):
            assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_overflow_branch_is_continuous(self):
        # just above and below the cosine 2/DBL_MAX, where 2/cos leaves the
        # double range
        c = 2.0 / 1.7976931348623157e308
        near = [tangential_distance(HALF_PI, c * f) for f in (1.0001, 0.9999)]
        assert near[1] - near[0] == pytest.approx(-0.5 * math.log(0.9999 / 1.0001), rel=1e-6)


def path_length_loop(space, polyline):
    """Segment by segment and piece by piece, 64 pieces to a segment: the
    summation order the array form replaced."""
    pts = [complex(p) for p in polyline]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        step = (b - a) / 64
        for k in range(64):
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
        got = path_length(space, polyline)
        assert got == pytest.approx(path_length_loop(space, polyline), rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            path_length("disc", [0j, 1.0])
        with pytest.raises(ValueError):
            path_length("sphere", [0j, 0.5])
        with pytest.raises(ValueError):
            path_length("disc", [0j])


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
#: times from 0 to 1e12; |w| within a factor e of e^700, beyond which a
#: log-polar point without an exact cartesian value has no complex value; and
#: around 1e300
TIMES = {
    "to_1e12": np.concatenate([[0.0], np.geomspace(1e-3, 1e12, 120)]),
    "e700": np.exp(np.linspace(699.0, 701.0, 41)),
    "1e300": np.geomspace(1e299, 1e301, 9),
}
CASES = [(name, span) for name in TABLE_DOMAINS for span in ("to_1e12", "1e300", "e700")]
START = DiscPoint(0.3 - 0.4j)


def scaled_ulps(batch, scalar, scale):
    """|batch - scalar| in ulps of `scale`: of the largest term a value is
    formed from, where it is a difference of larger terms."""
    batch, scalar = np.asarray(batch, dtype=float), np.asarray(scalar, dtype=float)
    return np.max(np.abs(batch - scalar) / np.spacing(np.abs(scale)))


def assert_points_match(batch, ws, floor=0.0):
    """log rho, theta and the cosine of a batch against the 50-digit
    half-plane points ws, each within ULPS: log rho and theta in ulps of
    max(floor, |x|), the cosine in its own."""
    want = np.array([[float(x) for x in mp_lp(w)] for w in ws]).T
    for name, col, least in zip(("log_rho", "theta", "cos"), want, (floor, floor, 0.0)):
        got = np.broadcast_to(getattr(batch, name), col.shape)
        assert scaled_ulps(got, col, np.maximum(least, np.abs(col))) <= ULPS, name


class TestChainBatches:
    @pytest.mark.parametrize("name,span", CASES)
    def test_forward_chain(self, name, span):
        dom = TABLE_DOMAINS[name]
        chain = to_halfplane(dom)
        u = model_point(koenigs_semigroup(dom), START) - chain.p + 1j * TIMES[span]
        assert_points_match(chain.forward_lp(u), [mp_halfplane(dom, mpmath.mpc(x)) for x in u])
        if span == "e700":  # points on both sides of e^700 in one batch
            assert np.any(np.abs(u) > math.exp(700)) and np.any(np.abs(u) < math.exp(700))

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_inverse_chain(self, name):
        # F^-1 from half-plane points up to log rho = 750.  A sector-type
        # preimage has log |u| = log rho / gamma and needs a complex double,
        # which exists up to e^700; a strip's is linear in log rho and theta.
        dom = TABLE_DOMAINS[name]
        rng = np.random.default_rng(21)
        log_rho = np.concatenate([rng.uniform(-5.0, 30.0, 60), rng.uniform(650.0, 750.0, 60)])
        theta = rng.uniform(-1.5, 1.5, log_rho.size)
        chain = to_halfplane(dom)
        fits = log_rho <= (math.inf if isinstance(dom, Strip) else 700.0 * chain.gamma)
        assert fits.all() == (name in ("strip", "sector_sym", "sector_skew", "strip_wide"))
        batch = chain.inverse(HalfPlanePoint(log_rho[fits], theta[fits]))
        points = [chain.inverse(HalfPlanePoint(float(l), float(t)))
                  for l, t in zip(log_rho[fits], theta[fits])]
        for l, t, *got in zip(log_rho[fits], theta[fits], batch, points):
            want = complex(mp_preimage(dom, mpmath.exp(l) * mpmath.expj(t)))
            assert all(abs(x - want) <= 1e-13 * abs(want) for x in got)
        msg = "log-polar value with log_rho=.* does not fit in a complex double"
        for l, t in zip(log_rho[~fits], theta[~fits]):
            with pytest.raises(OverflowError, match=msg):
                chain.inverse(HalfPlanePoint(float(l), float(t)))
        if not fits.all():  # one such point fails the whole batch
            with pytest.raises(OverflowError, match=msg):
                chain.inverse(HalfPlanePoint(log_rho, theta))

    @pytest.mark.parametrize("name", ["strip", "strip_wide"])
    def test_strip_beyond_the_wide_switch_keeps_its_cartesian_value(self, name):
        # h(0) + it - r is a finite double, which the exponential link needs:
        # the orbit runs up the axis, v = v_o = pi t/(2r) and v_T = 0
        dom = TABLE_DOMAINS[name]
        sg, ts = koenigs_semigroup(dom), np.array([math.exp(701.0), 1e304, 1e306])
        batch = speeds_from_halfplane(orbit_halfplane(sg, ORIGIN, ts))
        for i, t in enumerate(ts):
            one = speeds_from_halfplane(orbit_halfplane(sg, ORIGIN, float(t)))
            for v, v_o, v_t in (one, [x[i] for x in batch]):
                assert v == pytest.approx(math.pi * t / (2.0 * dom.r), rel=1e-15)
                assert v_o == v and v_t == 0.0


class TestOrbitBatches:
    @pytest.mark.parametrize("name,span", CASES)
    def test_orbit_halfplane(self, name, span):
        # the oracle starts from the disc value, the orbit from the rounded
        # model point: log rho and theta near 0 compare in ulps of 1
        dom = TABLE_DOMAINS[name]
        sg, ts = koenigs_semigroup(dom), TIMES[span]
        for z in (ORIGIN, START):
            batch = orbit_halfplane(sg, z, ts)
            assert_points_match(batch, [mp_orbit(dom, z, t) for t in ts], floor=1.0)

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_start_points_broadcast_against_times(self, name):
        sg, ts = koenigs_semigroup(TABLE_DOMAINS[name]), TIMES["to_1e12"]
        starts = [ORIGIN, START, DiscPoint(-0.7 + 0.1j)]
        batch = orbit_halfplane(sg, DiscPoint(np.array([[z.value] for z in starts])), ts)
        assert batch.log_rho.shape == (3, ts.size)
        for i, z in enumerate(starts):
            row = orbit_halfplane(sg, z, ts)
            for field in ("log_rho", "theta", "cos"):
                assert ulps_apart(getattr(batch, field)[i], getattr(row, field)) <= ULPS, field

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_hyperbolic_step_gap(self, name):
        # k_half of the orbit points at t and t + 1 against their 50-digit
        # distance, which reads a point from its cosine below 0.5 and from
        # its angle above.  Beyond 2^53, t + 1 == t and the gap compares a
        # point with itself, whose cosine is below 1e-154 on the half planes
        # and flat sectors
        sg = koenigs_semigroup(TABLE_DOMAINS[name])
        for z, span in [(z, span) for z in (ORIGIN, START) for span in ("to_1e12", "1e300")]:
            ts = TIMES[span]
            a, b = orbit_halfplane(sg, z, ts), orbit_halfplane(sg, z, ts + 1.0)
            want = oracle_k(a.log_rho, a.theta, np.where(a.cos < 0.5, a.cos, np.nan),
                            b.log_rho, b.theta, np.where(b.cos < 0.5, b.cos, np.nan))
            got = hyperbolic_step_gap(sg, ts, z)
            assert scaled_ulps(got, want, np.maximum(np.abs(want), 1.0)) <= ULPS
            if span == "1e300":
                assert np.all(want == 0.0) and np.all(got == 0.0)

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

    def test_a_nan_time_is_refused_as_a_time(self):
        # the message names the input, not the non-finite log rho it makes
        sg = koenigs_semigroup(TABLE_DOMAINS["koebe"])
        for fn in (lambda t: orbit_halfplane(sg, ORIGIN, t),
                   lambda t: hyperbolic_step_gap(sg, t),
                   lambda t: surrogate_speeds(sg, t)):
            for t in (math.nan, [1.0, math.nan]):
                with pytest.raises(ValueError, match="orbit times must be nonnegative"):
                    fn(t)


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


def assert_surrogates_match_oracle(sur, hp):
    """The surrogates of the half-plane points hp against their 50-digit
    definitions, to 1e-12 relative (absolute below 1); s_tang >= 0."""
    fields = (np.ravel(f) for f in (hp.log_rho, hp.theta, hp.cos))
    want = np.array([[float(x) for x in mp_surrogates(*map(float, a))] for a in zip(*fields)])
    for name, col in zip(("s_total", "s_orth", "s_tang"), want.T):
        err = np.abs(np.ravel(getattr(sur, name)) - col)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(col))), (name, err.max())
    assert np.all(sur.s_tang >= -1e-12)


class TestSurrogateOracle:
    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_tables_domains(self, name):
        sg, ts = koenigs_semigroup(TABLE_DOMAINS[name]), np.geomspace(1.0, 1e12, 128)
        assert_surrogates_match_oracle(surrogate_speeds(sg, ts), orbit_halfplane(sg, ORIGIN, ts))

    def test_below_the_threshold_hugging_the_boundary(self):
        # half-plane points with log rho in [-30, 0] and angles within
        # 1e-12 .. 1 of +-pi/2, as disc start points of the half plane's
        # orbits at t = 0, where 1 - |eta| is down to about 1e-14
        rng = np.random.default_rng(31)
        n = 1000
        log_rho = rng.uniform(-30.0, 0.0, n)
        lowest_gap = np.maximum(-12.0, -14.0 - log_rho / math.log(10.0))
        gap = 10.0 ** rng.uniform(lowest_gap, 0.0)
        w = np.exp(log_rho) * np.exp(1j * np.where(rng.random(n) < 0.5, 1.0, -1.0) * (HALF_PI - gap))
        z = (w - 1.0) / (w + 1.0)
        z = DiscPoint(z[np.hypot(z.real, z.imag) < 1.0])
        sg = koenigs_semigroup(HalfPlaneRight(0j))
        hp = orbit_halfplane(sg, z, 0.0)
        sur = surrogate_speeds(sg, 0.0, z)
        assert z.value.size > 0.9 * n and np.all(sur.pre_threshold)
        assert np.min(hp.cos) < 1e-11 and np.min(hp.log_rho) < -29.0
        assert_surrogates_match_oracle(sur, hp)

    def test_one_time_gives_python_floats(self):
        sg = koenigs_semigroup(TABLE_DOMAINS["koebe"])
        # the orbit lies on the axis: the tangential surrogate vanishes
        s = surrogate_speeds(sg, 3.0)
        assert s.s_tang == 0.0 and s.pre_threshold is False
        for name in SURROGATE_FIELDS:
            assert type(getattr(s, name)) is float


# ---------------------------------------------------------------------------
# membership, Omega^+- distances and the non-tangential ratio on arrays

COMB = Comb([(1.0, 1.0), (2.0, 6.86), (3.5, 9.0)])
EVERY_TYPE = {**TABLE_DOMAINS, "comb": COMB}


def probe_points(dom, rng, n=400):
    """Random points around the domain's base point, plus points on its
    boundary, where membership is decided by equality tests."""
    centre = 1j if isinstance(dom, Comb) else model_point(koenigs_semigroup(dom))
    w = centre + rng.normal(0.0, 4.0, n) + 1j * rng.normal(0.0, 6.0, n)
    edges = {HalfPlaneRight: lambda: dom.p + 1j * rng.normal(0, 3, 8),
             Strip: lambda: np.array([0.0, dom.r]) + 1j * rng.normal(0, 3, 2),
             Sector: lambda: dom.p + np.array([0.0, 2.0 * np.exp(1j * (math.pi / 2 - dom.alpha)),
                                               3.0 * np.exp(1j * (math.pi / 2 + dom.beta))]),
             Koebe: lambda: dom.p - 1j * np.array([0.0, 1.0, 5.0]),
             Comb: lambda: np.array([1.0, -1.0 + 0.5j, 2.0 + 6.86j, -3.5 - 2j])}
    return np.concatenate([w, np.ravel(edges[type(dom)]())])


@pytest.mark.parametrize("name", list(EVERY_TYPE))
def test_contains(name):
    # a batch and each point alone against the set definition; a sector's
    # edge probes lie within rounding of a ray, where only the point and
    # the batch must agree
    dom = EVERY_TYPE[name]
    w = probe_points(dom, np.random.default_rng(23))
    want, gap = mp_contains(dom, w)
    batch, points = contains(dom, w), [contains(dom, complex(x)) for x in w]
    assert all(type(x) is bool for x in points)
    decided = gap > 1e-14
    assert np.count_nonzero(~decided) == (2 if isinstance(dom, Sector) else 0)
    for got in (batch, np.array(points)):
        assert np.array_equal(got[decided], want[decided])
    assert np.array_equal(batch, points)
    assert want.any() and not want.all()


@pytest.mark.parametrize("name", list(EVERY_TYPE))
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_delta_pm(name, side):
    dom = EVERY_TYPE[name]
    ref = 1j if isinstance(dom, Comb) else model_point(koenigs_semigroup(dom))
    sign = OmegaSign(side, ref)
    w = probe_points(dom, np.random.default_rng(24))
    inside = np.array([contains(dom, complex(x)) or (x.real > ref.real if side == "plus"
                                                     else x.real < ref.real) for x in w])
    q = w[inside]
    if isinstance(dom, Comb):  # the points past the extent are refused
        past = (q.imag > dom.extent) | (np.abs(q.real) > dom.max_abscissa)
        assert past.any() and np.count_nonzero(~past) > 100
        with pytest.raises(DomainError):
            delta_pm(dom, sign, q)
        q = q[~past]
    got = delta_pm(dom, sign, q)
    want = brute_delta_pm(dom, sign, q)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    # the brute-force sample lies in the set, so it never undershoots
    assert np.all(got[finite] <= want[finite] + 1e-12)
    assert np.allclose(got[finite], want[finite], rtol=0.0, atol=2e-3)
    assert [delta_pm(dom, sign, complex(x)) for x in q[:8]] == list(got[:8])
    with pytest.raises(DomainError):
        delta_pm(dom, sign, w[~inside][:3] if (~inside).any() else np.array([complex(math.nan)]))


@pytest.mark.parametrize("name", list(EVERY_TYPE))
def test_nontangential_ratio(name):
    dom = EVERY_TYPE[name]
    sg = koenigs_semigroup(dom)
    p = 1j if isinstance(dom, Comb) else model_point(koenigs_semigroup(dom)) + 0.1
    ts = np.geomspace(1e-3, 1e8, 150)
    if isinstance(dom, Comb):  # p + it within the extent, Im <= 9
        ts = ts[ts <= 8.0]
    ratios = nontangential_ratio(sg, p, ts)
    want = np.array([nontangential_ratio(sg, p, float(t)) for t in ts])
    assert ulps_apart(ratios, want) <= ULPS
    # min{t, delta_-(p + it)} / min{t, delta_+(p + it)} from the brute-force
    # distances, at the heights their boundary sample covers
    near = ts <= 30.0
    d_minus, d_plus = (brute_delta_pm(dom, OmegaSign(side, p), p + 1j * ts[near])
                       for side in ("minus", "plus"))
    by_hand = np.minimum(ts[near], d_minus) / np.minimum(ts[near], d_plus)
    assert np.allclose(ratios[near], by_hand, rtol=0.0, atol=2e-3)


def test_nontangential_ratio_past_the_comb_extent():
    # p + it above the highest materialised tooth, where omitted teeth could
    # be nearer: refused, one time or an array, and not a ratio of distances
    # to the materialised teeth only
    sg = koenigs_semigroup(COMB)
    for t in (8.5, 1e8, np.array([1.0, 8.0, 9.0])):
        with pytest.raises(DomainError, match="materialised comb extent"):
            nontangential_ratio(sg, 1j, t)


# ---------------------------------------------------------------------------
# the batch forms the chains and conjugation suites run on

#: the eight domains of the chains suite: the five built-in domains and its
#: three extras, the first eight of the tables domains
CHAIN_DOMAINS = list(TABLE_DOMAINS)[:8]


def chain_draws(dom, seed):
    """Interior points drawn as the chains suite draws them, and the model
    preimages of moderate half-plane points, both in absolute coordinates."""
    u = np.random.default_rng(seed).random((N, 4))
    moderate = np.exp(u[:, 2] * 6.0 - 3.0) * np.exp(1j * (u[:, 3] * 2.4 - 1.2))
    chain = to_halfplane(dom)
    return _rand_domain_points(u[:, :2], dom), chain.p + chain.inverse(moderate)


def assert_complex_match(batch, scalars):
    want = np.array(scalars)
    assert np.max(np.abs(batch - want) / np.spacing(np.abs(want))) <= ULPS


class TestChainSuiteBatches:
    @pytest.mark.parametrize("name", CHAIN_DOMAINS)
    def test_log_abs_derivative(self, name):
        chain = to_halfplane(TABLE_DOMAINS[name])
        ws, pre = chain_draws(TABLE_DOMAINS[name], 41)
        for u in (ws - chain.p, pre - chain.p):
            want = [chain.log_abs_derivative(complex(x)) for x in u]
            assert ulps_apart(chain.log_abs_derivative(u), want) <= ULPS

    @pytest.mark.parametrize("name", CHAIN_DOMAINS)
    def test_map_to_halfplane_and_k_domain(self, name):
        dom = TABLE_DOMAINS[name]
        chain = to_halfplane(dom)
        ws, pre = chain_draws(dom, 42)
        # one body for a point and a batch: every map carries its cosine, so
        # the cosine compares in its own ulps, also near pi/2 where
        # cos(theta) of a rounded angle would not
        batch = chain.forward_lp(ws - chain.p)
        points = [chain.forward_lp(complex(w - chain.p)) for w in ws]
        for field in ("log_rho", "theta", "cos"):
            want = [getattr(p, field) for p in points]
            assert ulps_apart(getattr(batch, field), want) <= ULPS, field
        # k_domain, a batch and each pair alone, against the 50-digit map
        with mpmath.workdps(50):
            want = [float(mp_k(mp_halfplane(dom, mpmath.mpc(a) - mpmath.mpc(chain.p)),
                               mp_halfplane(dom, mpmath.mpc(b) - mpmath.mpc(chain.p))))
                    for a, b in zip(ws, pre)]
        batch = k_domain(dom, ws, pre)
        points = [k_domain(dom, complex(a), complex(b)) for a, b in zip(ws, pre)]
        assert all(type(k) is float for k in points)
        assert ulps_apart(batch, points) <= ULPS
        for got in (batch, points):
            assert ulps_apart(got, want) <= ULPS

    @pytest.mark.parametrize("name", CHAIN_DOMAINS)
    def test_cayley_inv(self, name):
        # chain images, which keep their exact cartesian values where the
        # map has one, and points given by (log rho, theta) alone, on both
        # sides of the switch to the far-field value at log rho = 30, against
        # (w - 1)/(w + 1) at 50 digits; each carries its witness
        dom = TABLE_DOMAINS[name]
        chain = to_halfplane(dom)
        _ws, pre = chain_draws(dom, 43)
        rng = np.random.default_rng(44)
        polar = HalfPlanePoint(rng.uniform(-20.0, 60.0, N), rng.uniform(-1.5, 1.5, N))
        for hp in (chain.forward_lp(pre - chain.p), polar):
            cart = [None] * N if hp.cart is None else [complex(w) for w in hp.cart]
            scalars = [LogPolar(float(l), float(t), float(c), w)
                       for l, t, c, w in zip(hp.log_rho, hp.theta, hp.cos, cart)]
            want = [complex(mp_disc(mp_point(p.log_rho, p.theta) if p.cart is None else p.cart))
                    for p in scalars]
            batch = cayley_inv(hp)
            points = [cayley_inv(p) for p in scalars]
            assert all(type(z.value) is complex for z in points)
            assert_complex_match(batch.value, [z.value for z in points])
            assert_complex_match(batch.value, want)
            assert_complex_match(np.array([z.value for z in points]), want)
            assert batch.halfplane is hp and all(z.halfplane is p for z, p in zip(points, scalars))

    @pytest.mark.parametrize("name", CHAIN_DOMAINS)
    def test_automorphism_apply(self, name):
        # model preimages in the disc, and the orbit points conjugation moves
        dom = TABLE_DOMAINS[name]
        _ws, pre = chain_draws(dom, 45)
        sg, chain = koenigs_semigroup(dom), to_halfplane(dom)
        rng = np.random.default_rng(46)
        for _ in range(4):
            a = math.tanh(rng.uniform(0.0, 0.75)) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            m = DiscAutomorphism(complex(a), rng.uniform(-math.pi, math.pi))
            for z in (cayley_inv(chain.forward_lp(pre - chain.p)),
                      orbit(sg, m.apply(ORIGIN), np.geomspace(0.5, 10.0, 24))):
                with pytest.raises(DomainError, match=r"DiscPoint\(z\.value\)"):
                    m.apply(z)
                want = [complex(mp_moebius(m.a, m.phase, x)) for x in z.value]
                points = [m.apply(complex(x)).value for x in z.value]
                assert all(type(w) is complex for w in points)
                assert_complex_match(m.apply(DiscPoint(z.value)).value, points)
                assert_complex_match(m.apply(DiscPoint(z.value)).value, want)
                assert_complex_match(np.array(points), want)

    @pytest.mark.parametrize("name", list(TABLE_DOMAINS))
    def test_a_batch_orbit_to_1e20_matches_the_oracle(self, name):
        # orbit points whose 1 - |z| underflows, beside plain ones, in one
        # batch: each carries its witness, so the disc API gives the speeds
        dom = TABLE_DOMAINS[name]
        sg = koenigs_semigroup(dom)
        ts = np.array([1.0, 1e4, 1e8, 1e12, 1e20])
        z = orbit(sg, ORIGIN, ts)
        geo = RadialGeodesic(1.0)
        got = [omega(ORIGIN, z), omega(ORIGIN, project_to_radius(z, geo)), dist_to_radius(z, geo)]
        want = np.array([[float(x) for x in mp_speeds(mp_orbit(dom, ORIGIN, t))] for t in ts])
        for i, name in enumerate(("v", "v_o", "v_T")):
            err = np.abs(got[i] - want[:, i])
            assert np.all(err <= 1e-13 * np.maximum(1.0, want[:, i])), (name, err.max())
        # log rho = 0 and theta = pi/2: 1 - |z| is below double resolution
        w = HalfPlanePoint(np.zeros(2), np.array([0.0, HALF_PI]), np.array([1.0, 1e-300]))
        assert cayley_inv(w).halfplane is w

    @pytest.mark.parametrize("name", CHAIN_DOMAINS)
    def test_one_outside_point_fails_k_domain(self, name):
        dom = TABLE_DOMAINS[name]
        ws, pre = chain_draws(dom, 47)
        outside = probe_points(dom, np.random.default_rng(48))
        outside = outside[~contains(dom, outside)][:1]
        with pytest.raises(DomainError):
            k_domain(dom, np.concatenate([ws[:3], outside]), pre[:4])
        with pytest.raises(DomainError):
            k_domain(dom, pre[:4], np.concatenate([outside, ws[:3]]))


# ---------------------------------------------------------------------------
# the one point rule: a point comes back as Python scalars, a list is a batch

SKEW = TABLE_DOMAINS["sector_skew"]
SKEW_SG, SKEW_MAP = koenigs_semigroup(SKEW), to_halfplane(SKEW)
DISC, INSIDE, TIMES_2 = [0.3 - 0.4j, -0.2 + 0.5j], [0.5 + 3j, 1 + 5j], [3.0, 40.0]
SKEW_TABLE = sample_speeds(SKEW_SG, default_grid(1.0, 1e8, 64))
OFF_AXIS, DIAMETER = RadialGeodesic(1j), RadialGeodesic(1.0)
APEX_RELATIVE = [w - SKEW_MAP.p for w in INSIDE]


def row(call, point, pair):
    """call at one point, and call itself for a two-element list and its array."""
    return lambda: call(point), call, pair


#: for every public operation, and the orbit, map and model entry points: a
#: call at one point or time, and the call and list for a batch; an
#: operation with no point or time argument has no batch
ONE_POINT_ROWS = {
    "omega": row(lambda z: omega(z, 0.1j), DISC[0], DISC),
    "k_half": row(lambda z: k_half(cayley(z), cayley(0.1j)), DISC[0], DISC),
    "kappa": row(lambda z: kappa("disc", z, 1.0), DISC[0], DISC),
    "cayley": row(cayley, DISC[0], DISC),
    "cayley_inv": row(lambda z: cayley_inv(cayley(z)), DISC[0], DISC),
    "project_to_radius": row(lambda z: project_to_radius(z, DIAMETER), DISC[0], DISC),
    "dist_to_radius": row(lambda z: dist_to_radius(z, OFF_AXIS), DISC[0], DISC),
    "path_length": row(lambda zs: path_length("disc", zs), DISC, DISC),
    "domain_from_json": (lambda: domain_from_json(
        {"type": "sector", "p": [1, -2], "alpha": 0.7, "beta": 1.9}), None, None),
    "contains": row(lambda w: contains(SKEW, w), INSIDE[0], INSIDE),
    "to_halfplane": (lambda: to_halfplane(Sector(3 + 1j, 0.2, 0.4)), None, None),
    "delta": row(lambda w: delta(SKEW, w), INSIDE[0], INSIDE),
    "delta_pm": row(lambda w: delta_pm(SKEW, OmegaSign("plus", 1 + 5j), w), INSIDE[0], INSIDE),
    "k_domain": row(lambda w: k_domain(SKEW, w, 1 + 5j), INSIDE[0], INSIDE),
    "quasihyp_lower": (lambda: quasihyp_lower(Koebe(0j), 1.0, 100.0), None, None),
    "classify": (lambda: classify(Strip(math.pi / 2)), None, None),
    "koenigs_semigroup": (lambda: koenigs_semigroup(SKEW), None, None),
    "orbit": row(lambda t: orbit(SKEW_SG, ORIGIN, t), TIMES_2[0], TIMES_2),
    "denjoy_wolff": (lambda: denjoy_wolff(SKEW_SG), None, None),
    "sample_speeds": (lambda: sample_speeds(SKEW_SG, TIMES_2)[0],
                      lambda ts: sample_speeds(SKEW_SG, ts), TIMES_2),
    "surrogate_speeds": row(lambda t: surrogate_speeds(SKEW_SG, t), TIMES_2[0], TIMES_2),
    "fit_asymptotic": row(lambda w: fit_asymptotic(SKEW_TABLE, "v", "log_t", w),
                          [1e2, 1e8], [1e2, 1e8]),
    "nontangential_ratio": row(lambda t: nontangential_ratio(SKEW_SG, 1 + 5j, t),
                               TIMES_2[0], TIMES_2),
    "build_comb": (lambda: build_comb("sqrt", steps=3), None, None),
    "verify_comb": (lambda: verify_comb(build_comb("sqrt", steps=3)), None, None),
    "orbit_halfplane": row(lambda t: orbit_halfplane(SKEW_SG, ORIGIN, t), TIMES_2[0], TIMES_2),
    "hyperbolic_step_gap": row(lambda t: hyperbolic_step_gap(SKEW_SG, t), TIMES_2[0], TIMES_2),
    "model_point": row(lambda z: model_point(SKEW_SG, z), DISC[0], DISC),
    "forward": row(SKEW_MAP.forward, APEX_RELATIVE[0], APEX_RELATIVE),
    "inverse": row(SKEW_MAP.inverse, 2 - 1j, [2 - 1j, 0.5 + 3j]),
    "log_abs_derivative": row(SKEW_MAP.log_abs_derivative, APEX_RELATIVE[0], APEX_RELATIVE),
}


def python_scalars(x) -> bool:
    """Whether x is a Python scalar, or a record, tuple, list or dict of them."""
    if dataclasses.is_dataclass(x):
        return all(python_scalars(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return all(map(python_scalars, x))
    if isinstance(x, dict):
        return all(map(python_scalars, x.values()))
    return x is None or callable(x) or type(x) in (bool, int, float, complex, str)


def same(a, b) -> bool:
    """Field by field np.array_equal, through records."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return np.array_equal(a, b)


def test_every_public_operation_has_a_one_point_row():
    public = {name for names in PUBLIC_OPS.values() for name in names}
    assert public <= set(ONE_POINT_ROWS)


@pytest.mark.parametrize("op", list(ONE_POINT_ROWS))
def test_one_point_rule(op):
    # one point or time gives Python floats, complex numbers or a bool, also
    # in the fields of a LogPolar, a DiscPoint or a record; a list gives
    # what its array gives
    one, call, pair = ONE_POINT_ROWS[op]
    assert python_scalars(one())
    if call is not None:
        assert same(call(pair), call(np.array(pair)))
