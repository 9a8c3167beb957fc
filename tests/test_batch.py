"""Batches through the public metric operations.

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

from hypspeed import (DiscPoint, HalfPlanePoint, RadialGeodesic, cayley,
                      dist_to_radius, k_half, omega, path_length,
                      project_to_radius)
from hypspeed.hyperbolic import (GL_NODES, GL_WEIGHTS, DomainError,
                                 tangential_distance)
from hypspeed.mapchain import HALF_PI

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
