import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypspeed import (ORIGIN, DiscAutomorphism, DiscPoint, HalfPlanePoint,
                      HalfPlaneRight, RadialGeodesic, cayley, cayley_inv,
                      default_grid, dist_to_radius, k_half, kappa, koenigs_semigroup,
                      omega, path_length, project_to_radius, sample_speeds)
from hypspeed.hyperbolic import DomainError, in_halfplane, tangential_distance
from hypspeed.mapchain import LogPolar, _from_complex_array

from oracles import (mp_kappa, mp_lp, mp_omega, mp_orbit, mp_radial, mp_speeds,
                     project_by_golden)

LOG2 = math.log(2.0)


def hp(log_rho, theta):
    return HalfPlanePoint(log_rho, theta)


def disc_points(max_abs=0.95):
    return st.complex_numbers(max_magnitude=max_abs, allow_infinity=False, allow_nan=False)


class TestOmega:
    def test_coincident(self):
        assert omega(DiscPoint(0), DiscPoint(0)) == 0.0

    def test_closed_form_half_radius(self):
        assert omega(DiscPoint(0), DiscPoint(0.5)) == pytest.approx(0.5 * math.log(3), abs=1e-14)

    def test_symmetry(self):
        a, b = DiscPoint(0.5), DiscPoint(0)
        assert omega(a, b) == pytest.approx(omega(b, a), abs=1e-14)

    @given(disc_points(), disc_points())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_nonnegative(self, z, w):
        d = omega(DiscPoint(z), DiscPoint(w))
        assert d >= 0.0
        assert d == pytest.approx(omega(DiscPoint(w), DiscPoint(z)), abs=1e-11)

    def test_deep_points_stay_accurate(self):
        # 12 units out: the near-boundary branch must match the exact distance
        # of the represented radius (1 - r is exact by Sterbenz for r > 1/2)
        r = math.tanh(12.0)
        exact = 0.5 * (math.log1p(r) - math.log(1.0 - r))
        assert omega(DiscPoint(0), DiscPoint(r)) == pytest.approx(exact, abs=1e-12)

    def test_opposite_points_where_m_rounds_to_1(self):
        # m = |z - w| / |1 - conj(z) w| rounds to 1 for these interior pairs;
        # the exact complement 1 - m^2 still gives the distance, which was inf
        r = 1.0 - 2.0 ** -40
        pairs = [(1.0 - 2.0 ** -50, -(1.0 - 2.0 ** -50)),
                 (complex(0.6 * r, 0.8 * r), -complex(0.6 * r, 0.8 * r))]
        want = [35.35050620855721, 28.4190344029573]
        for (z, w), d in zip(pairs, want):
            assert abs(d - float(mp_omega(z, w))) <= 1e-15 * d
            assert abs(omega(DiscPoint(z), DiscPoint(w)) - d) <= 1e-15 * d
        z, w = (DiscPoint(np.array(x, dtype=complex)) for x in zip(*pairs))
        assert np.all(np.abs(omega(z, w) - want) <= 1e-15 * np.array(want))

    def test_no_infinite_distance_near_the_boundary(self):
        # 3,000 seeded pairs with 1 - |z| log-uniform in [1e-15, 0.8], as a
        # batch and one by one, against the definition at 60 digits; the
        # three-branch formula was up to 1.3e-3 relative off here
        rng = np.random.default_rng(17)

        def draw(n):
            gap = 10.0 ** rng.uniform(-15.0, math.log10(0.8), n)
            return (1.0 - gap) * np.exp(2j * math.pi * rng.random(n))

        z, w = draw(3000), draw(3000)
        inside = (np.abs(z) < 1.0) & (np.abs(w) < 1.0)
        z, w = z[inside], w[inside]
        assert z.size > 2900
        want = np.array([float(mp_omega(a, b)) for a, b in zip(z.tolist(), w.tolist())])
        batch = omega(DiscPoint(z), DiscPoint(w))
        points = np.array([omega(DiscPoint(a), DiscPoint(b)) for a, b in zip(z.tolist(), w.tolist())])
        for got in (batch, points):
            assert np.all(np.abs(got - want) <= 1e-15 * want)


class TestKHalf:
    def test_equal_points(self):
        assert k_half(hp(0.0, 0.0), hp(0.0, 0.0)) == 0.0

    def test_radial_log(self):
        assert k_half(hp(0.0, 0.0), hp(2.0, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_one_plus_i(self):
        w = in_halfplane(LogPolar.from_complex(1 + 1j))
        expected = math.log((1 + math.sqrt(5)) / 2)
        assert k_half(hp(0.0, 0.0), w) == pytest.approx(expected, abs=1e-14)

    def test_extreme_ratio_matches_stable_branch(self):
        # crossover at |dlog| = 30: both branches agree to double precision,
        # so stepping 2e-6 across it moves the distance by exactly 1e-6
        lo, hi = hp(0.0, 0.3), hp(29.999999, 0.2)
        lo2, hi2 = hp(0.0, 0.3), hp(30.000001, 0.2)
        step = k_half(lo2, hi2) - k_half(lo, hi)
        assert step == pytest.approx(1e-6, abs=1e-12)

    def test_huge_ratio_finite(self):
        d = k_half(hp(0.0, 0.0), hp(2.0e8, 0.0))
        assert d == 1.0e8

    @given(st.floats(-20, 20), st.floats(-1.4, 1.4), st.floats(-20, 20), st.floats(-1.4, 1.4))
    @settings(max_examples=300, deadline=None)
    def test_triangle_via_one(self, l1, t1, l2, t2):
        a, b, one = hp(l1, t1), hp(l2, t2), hp(0.0, 0.0)
        assert k_half(a, b) <= k_half(a, one) + k_half(one, b) + 1e-9


class TestKappa:
    def test_disc_center(self):
        assert kappa("disc", 0j, 1.0) == 1.0

    def test_disc_half(self):
        assert kappa("disc", 0.5, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_halfplane(self):
        assert kappa("halfplane", 1.0, 1.0) == 0.5

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            kappa("disc", 1.0, 1.0)
        with pytest.raises(DomainError):
            kappa("halfplane", 0.0, 1.0)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, 2.5, -2.0])
    def test_near_the_boundary(self, phi):
        # 1 - |z| = 1e-10, where 1 - |z|^2 from the rounded |z|^2 was 5e-11
        # relative off
        z = (1.0 - 1e-10) * cmath.exp(1j * phi)
        want = float(mp_kappa(z, 0.7 - 0.2j))
        assert abs(kappa("disc", z, 0.7 - 0.2j) - want) <= 1e-15 * want

    def test_vector_homogeneous(self):
        assert kappa("disc", 0.3j, 2.5) == pytest.approx(2.5 * kappa("disc", 0.3j, 1.0), abs=1e-15)

    @pytest.mark.parametrize("space", ["disc", "halfplane"])
    def test_nan_point_rejected(self, space):
        # a NaN point passes both interior comparisons, which are False
        with pytest.raises(DomainError, match="point"):
            kappa(space, math.nan, 1.0)


class TestCayley:
    def test_center_to_one(self):
        w = cayley(DiscPoint(0))
        assert (w.log_rho, w.theta) == (0.0, 0.0)

    def test_i_fixed_in_the_limit(self):
        # boundary extension: (1+i)/(1-i) = i, approached along the radius
        for r in (0.9, 0.999, 0.999999):
            w = cayley(DiscPoint(r * 1j)).to_complex()
            assert abs(w - 1j) < 3 * (1 - r)

    def test_round_trip(self):
        z = DiscPoint(0.3 + 0.2j)
        assert abs(cayley_inv(cayley(z)).value - z.value) < 1e-12

    @given(disc_points(0.99))
    @settings(max_examples=300, deadline=None)
    def test_isometry(self, z):
        z1, z2 = DiscPoint(z), DiscPoint(-0.1 + 0.2j)
        assert abs(k_half(cayley(z1), cayley(z2)) - omega(z1, z2)) < 1e-10

    def test_guarded_round_trip(self):
        w = hp(200.0, 0.4)
        z = cayley_inv(w)
        assert z.guarded
        back = cayley(z)
        assert back.log_rho == w.log_rho and back.theta == w.theta

    def test_point_near_the_circle_keeps_its_cosine(self):
        # 1 - |z| = 2.6e-11: (1 + z)/(1 - z) cancels ten digits of cos
        # theta (1.1e-6 off), and the speeds of the orbit from z follow it
        # (4.5e-8 off); the parts of w that do not cancel keep both
        z = DiscPoint(-0.3209750621806556 - 0.9470876461053706j)
        w = cayley(z)
        with mpmath.workdps(60):
            zz = mpmath.mpc(z.value)
            want = [float(x) for x in mp_lp((1 + zz) / (1 - zz), dps=60)]
        assert type(w.log_rho) is float and type(w.cos) is float
        assert abs(w.cos - want[2]) <= 1e-15 * want[2]
        assert abs(w.theta - want[1]) <= 1e-15 * abs(want[1])
        assert abs(w.log_rho - want[0]) <= 1e-15 * max(1.0, abs(want[0]))
        dom = HalfPlaneRight(0j)
        grid = default_grid(0.0, 1e12, 64)
        table = sample_speeds(koenigs_semigroup(dom), grid, z)
        for t, *got in zip(grid, table.v, table.v_o, table.v_T):
            for value, exact in zip(got, mp_speeds(mp_orbit(dom, z, t))):
                assert abs(value - float(exact)) <= 1e-15 * float(exact), t


class TestProjection:
    def test_fixed_on_geodesic(self):
        geo = RadialGeodesic(cmath.exp(0.7j))
        z = DiscPoint(0.4 * geo.tau)
        assert abs(project_to_radius(z, geo).value - z.value) < 1e-15

    def test_halfplane_projection_is_modulus(self):
        # project the disc preimage of 2 e^{i pi/4}; its image must be 2
        geo = RadialGeodesic(1.0)
        z = cayley_inv(in_halfplane(LogPolar.from_complex(2 * cmath.exp(0.25j * math.pi))))
        w = cayley(project_to_radius(z, geo))
        assert w.log_rho == pytest.approx(math.log(2), abs=1e-12)
        assert w.theta == pytest.approx(0.0, abs=1e-12)

    def test_matches_golden_section(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            phi = rng.uniform(-math.pi, math.pi)
            geo = RadialGeodesic(cmath.exp(1j * phi))
            d = rng.uniform(0, 8.0)
            z = DiscPoint(math.tanh(0.5 * d) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            closed = project_to_radius(z, geo)
            oracle = project_by_golden(z, geo)
            assert abs(closed.value - oracle.value) < 1e-6

    def test_projection_is_argmin(self):
        geo = RadialGeodesic(1.0)
        z = DiscPoint(0.3 + 0.3j)
        best = omega(project_to_radius(z, geo), z)
        for r in np.linspace(-0.95, 0.95, 81):
            assert best <= omega(DiscPoint(r), z) + 1e-12


class TestDistToRadius:
    def test_zero_on_radius(self):
        geo = RadialGeodesic(1.0)
        assert dist_to_radius(DiscPoint(0.7), geo) == 0.0

    def test_guarded_point_rotated_geodesic(self):
        # boundary-guarded points keep full depth resolution even when the
        # geodesic direction differs from their limit point
        geo = RadialGeodesic(cmath.exp(1j))
        d40 = dist_to_radius(cayley_inv(HalfPlanePoint(40.0, 0.7)), geo)
        d80 = dist_to_radius(cayley_inv(HalfPlanePoint(80.0, 0.7)), geo)
        assert d80 - d40 == pytest.approx(20.0, abs=1e-9)

    def test_scale_invariance(self):
        geo = RadialGeodesic(1.0)
        z1 = cayley_inv(in_halfplane(LogPolar.from_complex(2 * cmath.exp(1j * math.pi / 3))))
        z2 = cayley_inv(in_halfplane(LogPolar.from_complex(5 * cmath.exp(1j * math.pi / 3))))
        assert dist_to_radius(z1, geo) == pytest.approx(dist_to_radius(z2, geo), abs=1e-12)

    def test_equals_distance_to_projection(self):
        rng = np.random.default_rng(3)
        geo = RadialGeodesic(cmath.exp(0.4j))
        for _ in range(50):
            z = DiscPoint(math.tanh(rng.uniform(0, 3)) * cmath.exp(1j * rng.uniform(-3, 3)))
            via = omega(z, project_to_radius(z, geo))
            assert dist_to_radius(z, geo) == pytest.approx(via, abs=1e-11)

    def test_rotation_cost_bound(self):
        # cost of a pure rotation through beta stays below the split constant
        rng = np.random.default_rng(11)
        geo = RadialGeodesic(1.0)
        for _ in range(1000):
            beta = rng.uniform(-1.5, 1.5)
            z = cayley_inv(HalfPlanePoint(rng.uniform(-5, 5), beta))
            bound = 0.5 * math.log(1.0 / math.cos(beta)) + 0.5 * LOG2
            assert dist_to_radius(z, geo) <= bound + 1e-9


RADIAL_LOG_RHO = (-5.0, 0.3, 3.0, 31.0, 40.0, 80.0, 200.0, 700.0)
RADIAL_COS = (0.9, 0.3, 1e-3, 1e-12, 1e-40, 1e-100, 1e-300)
RADIAL_TAU = (1.0, -1.0, 1j, -1j, cmath.exp(1j), cmath.exp(-2.5j), cmath.exp(3.1j))


class TestRadialOracle:
    """dist_to_radius and project_to_radius on points from deep inside the
    disc to within e^{-700} * 1e-300 of its boundary, against mp_radial."""

    @pytest.mark.parametrize("tau", RADIAL_TAU, ids=["1", "-1", "i", "-i", "e^i", "e^-2.5i", "e^3.1i"])
    def test_matches_mp_oracle(self, tau):
        geo = RadialGeodesic(tau)
        for lr in RADIAL_LOG_RHO:
            for c in RADIAL_COS:
                # a boundary-hugging orbit point stores theta rounded to pi/2
                theta = math.pi / 2 if c < 1e-8 else math.acos(c)
                z = cayley_inv(HalfPlanePoint(lr, theta, c))
                want_d, want_lp = mp_radial(z, geo.tau)
                d, foot = dist_to_radius(z, geo), project_to_radius(z, geo)
                assert abs(d - want_d) <= 1e-14 * want_d, (lr, c)
                if foot.guarded:
                    want = geo.tau.real * want_lp
                    assert abs(foot.halfplane.log_rho - want) <= 1e-14 * abs(want), (lr, c)
                else:
                    want = mpmath.tanh(want_lp / 2) * mpmath.mpc(geo.tau)
                    assert abs(foot.value - want) <= 1e-14, (lr, c)

    @pytest.mark.parametrize("lr, c, tau", [(1e-14, 1e-9, 1j), (1e-14, 1e-12, 1j),
                                            (-1e-14, 1e-15, -1j)])
    def test_foot_near_the_end_of_its_geodesic(self, lr, c, tau):
        # next to the diameter through i, near its end: only the cached
        # cosine tells the foot's distance to the circle
        geo, z = RadialGeodesic(tau), cayley_inv(HalfPlanePoint(lr, math.pi / 2, c))
        want_d, want_lp = mp_radial(z, geo.tau)
        assert abs(dist_to_radius(z, geo) - want_d) <= 1e-14 * want_d
        want = mpmath.tanh(want_lp / 2) * mpmath.mpc(geo.tau)
        assert abs(project_to_radius(z, geo).value - want) <= 1e-14

    @pytest.mark.parametrize("lr, c, tau", [(701.0, 0.3, complex(1.0, 1e-300)),
                                            (-750.0, 0.9, complex(-1.0, 1e-300))])
    def test_nearly_real_geodesic_far_out(self, lr, c, tau):
        # y sinh(log rho) is O(1e4) here, so x sin theta still counts and
        # asinh q is not yet log 2q; the foot is within 1e-300 of the circle
        geo, z = RadialGeodesic(tau), cayley_inv(HalfPlanePoint(lr, math.acos(c), c))
        want_d, _ = mp_radial(z, geo.tau)
        assert abs(dist_to_radius(z, geo) - want_d) <= 1e-14 * want_d
        with pytest.raises(DomainError, match="rounds onto the unit circle"):
            project_to_radius(z, geo)

    def test_both_ends_of_the_real_diameter_agree(self):
        # tau = 1 and tau = -1 name the same geodesic
        for lr in RADIAL_LOG_RHO:
            for c in RADIAL_COS:
                z = cayley_inv(HalfPlanePoint(lr, math.pi / 2 if c < 1e-8 else math.acos(c), c))
                plus, minus = RadialGeodesic(1.0), RadialGeodesic(-1.0)
                assert dist_to_radius(z, plus) == dist_to_radius(z, minus)
                assert project_to_radius(z, plus).value == project_to_radius(z, minus).value

    def test_guarded_foot_on_the_real_diameter(self):
        z = cayley_inv(HalfPlanePoint(80.0, 0.3))
        for tau in (1.0, -1.0):
            foot = project_to_radius(z, RadialGeodesic(tau))
            assert foot.guarded and foot.value == 1.0
            assert foot.halfplane.log_rho == 80.0 and foot.halfplane.theta == 0.0
            assert omega(ORIGIN, foot) == 40.0

    def test_foot_on_the_circle_off_the_real_diameter_raises(self):
        # z rounds to i, and so does its foot on the diameter through i
        z = cayley_inv(HalfPlanePoint(0.0, math.pi / 2, 1e-300))
        assert z.guarded
        with pytest.raises(DomainError, match="rounds onto the unit circle"):
            project_to_radius(z, RadialGeodesic(1j))
        assert dist_to_radius(z, RadialGeodesic(1.0)) == pytest.approx(
            0.5 * (LOG2 + 300 * math.log(10.0)), rel=1e-15)

    def test_single_point_types(self):
        z, geo = DiscPoint(0.3 + 0.4j), RadialGeodesic(cmath.exp(0.7j))
        assert type(dist_to_radius(z, geo)) is float
        foot = project_to_radius(z, geo)
        assert type(foot.value) is complex and not foot.guarded


class TestPathLength:
    def test_constant_path(self):
        assert path_length("halfplane", [1 + 0j, 1 + 0j]) == 0.0

    def test_radial_segment(self):
        assert path_length("halfplane", [1.0, math.e]) == pytest.approx(
            0.5, abs=1e-6)

    def test_tilted_ray_doubles(self):
        d = cmath.exp(1j * math.pi / 3)
        got = path_length("halfplane", [d, math.e * d])
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_disc_diameter(self):
        # geodesic through 0: length of [0, r] equals omega(0, r)
        got = path_length("disc", [0j, 0.5 + 0j])
        assert got == pytest.approx(omega(DiscPoint(0), DiscPoint(0.5)), abs=1e-9)

    def test_pieces_are_fixed(self):
        # a piece count of 2.5 made 3 pieces of width 0.2 and ran past the
        # segment's end: 0.6931 = atanh(0.6) for omega(0, 0.5) = 0.5493
        with pytest.raises(TypeError):
            path_length("disc", [0j, 0.5], 2.5)

    def test_boundary_vertex_rejected(self):
        with pytest.raises(DomainError):
            path_length("halfplane", [1.0, -1.0])


class TestTangential:
    def test_zero_at_axis(self):
        assert tangential_distance(0.0) == 0.0

    def test_matches_k_half(self):
        for theta in (0.3, -0.9, 1.3):
            direct = tangential_distance(theta)
            via = k_half(hp(0.0, 0.0), hp(0.0, theta))
            assert direct == pytest.approx(via, abs=1e-12)


class TestAutomorphism:
    def test_inverse(self):
        m = DiscAutomorphism(0.3 + 0.2j, 0.8)
        z = DiscPoint(0.1 - 0.4j)
        assert abs(m.inverse().apply(m.apply(z)).value - z.value) < 1e-12

    @given(disc_points(0.9), disc_points(0.9))
    @settings(max_examples=200, deadline=None)
    def test_preserves_omega(self, z, w):
        m = DiscAutomorphism(0.35 - 0.1j, 2.1)
        lhs = omega(m.apply(DiscPoint(z)), m.apply(DiscPoint(w)))
        assert lhs == pytest.approx(omega(DiscPoint(z), DiscPoint(w)), abs=1e-10)

    def test_boundary_extension_unimodular(self):
        m = DiscAutomorphism(0.6, 0.5)
        assert abs(abs(m.apply_boundary(1j)) - 1.0) < 1e-14

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 1.0 + 1e-4j])
    def test_boundary_point_off_the_circle_rejected(self, sigma):
        m = DiscAutomorphism(0.3 + 0.2j, 0.8)
        with pytest.raises(DomainError, match="sigma"):
            m.apply_boundary(sigma)

    @pytest.mark.parametrize("sigma", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                       math.nan])
    def test_non_finite_boundary_point_rejected(self, sigma):
        m = DiscAutomorphism(0.3 + 0.2j, 0.8)
        with pytest.raises(DomainError, match="sigma"):
            m.apply_boundary(sigma)

    def test_boundary_point_within_tolerance_accepted(self):
        m = DiscAutomorphism(0.3 + 0.2j, 0.8)
        assert abs(abs(m.apply_boundary(1.0 + 1e-10)) - 1.0) < 1e-14

    def test_nan_parameter_rejected(self):
        with pytest.raises(DomainError, match="parameter a"):
            DiscAutomorphism(math.nan, 0.3)

    def test_nan_phase_rejected(self):
        with pytest.raises(DomainError, match="phase"):
            DiscAutomorphism(0.3, math.nan)


class TestValidation:
    def test_disc_point_outside(self):
        with pytest.raises(DomainError):
            DiscPoint(1.0 + 0j)

    def test_halfplane_angle(self):
        with pytest.raises(DomainError):
            HalfPlanePoint(0.0, 2.0)

    def test_from_complex_with_underflowing_cosine(self):
        # Re w > 0, but Re w / |w| underflows to a cosine of 0, for which no
        # distance is finite in double precision
        w = complex(1e-320, 1e10)
        with pytest.raises(DomainError, match="cos_theta must be positive"):
            in_halfplane(LogPolar.from_complex(w))
        with pytest.raises(DomainError, match="cos_theta must be positive"):
            in_halfplane(_from_complex_array(np.array([2.0 + 0j, w])))

    def test_geodesic_direction(self):
        with pytest.raises(DomainError):
            RadialGeodesic(0.5)

    def test_nan_geodesic_direction(self):
        with pytest.raises(DomainError, match="geodesic direction"):
            RadialGeodesic(complex(math.nan, 0.0))


class TestKeptOneMinusAbs2:
    """A plain disc point keeps the exact 1 - |z|^2 of its validity check,
    which omega and cayley read."""

    @staticmethod
    def near_circle(n, seed):
        # 1 - |z| log-uniform in [1e-12, 1), at a uniform angle
        rng = np.random.default_rng(seed)
        gap = 10.0 ** rng.uniform(-12.0, 0.0, n)
        return (1.0 - gap) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))

    @staticmethod
    def exact(z):
        with mpmath.workdps(60):
            return 1 - abs(mpmath.mpc(complex(z))) ** 2

    def test_kept_value_is_exact_for_a_batch(self):
        zs = self.near_circle(400, 7)
        kept = DiscPoint(zs)._rest
        for z, got in zip(zs, kept):
            want = self.exact(z)
            assert abs(got - want) <= 2.0 ** -52 * want, z

    def test_kept_value_is_exact_for_a_point(self):
        for z in self.near_circle(100, 8):
            got, want = DiscPoint(complex(z))._rest, self.exact(z)
            assert type(got) is float
            assert abs(got - want) <= 2.0 ** -52 * want, z

    def test_kept_value_is_outside_eq_hash_and_repr(self):
        a, b = DiscPoint(0.5 + 0.25j), DiscPoint(0.5 + 0.25j)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "DiscPoint(value=(0.5+0.25j), halfplane=None)"

    def test_batch_value_is_read_only(self):
        z = DiscPoint(np.array([0.1 + 0.2j, -0.3j]))
        with pytest.raises(ValueError, match="read-only"):
            z.value[0] = 0.5

    def test_writes_to_the_callers_array_do_not_reach_the_point(self):
        zs = np.array([0.1 + 0.2j, -0.3j, 0.9 - 0.4j])
        z = DiscPoint(zs)
        value, dist, w = z.value.copy(), omega(ORIGIN, z), cayley(z)
        zs[:] = 0.999
        assert np.array_equal(z.value, value)
        assert np.array_equal(omega(ORIGIN, z), dist)
        again = cayley(z)
        for name in ("log_rho", "theta", "cos_theta"):
            assert np.array_equal(getattr(again, name), getattr(w, name)), name

    def test_single_point_types(self):
        z, w = DiscPoint(0.3 - 0.4j), DiscPoint(0.1j)
        assert type(omega(z, w)) is float and type(omega(ORIGIN, 0.5)) is float
        image = cayley(z)
        assert all(type(x) is float for x in (image.log_rho, image.theta, image.cos_theta))
        assert type(image.cart) is complex


class TestDiscPointEquality:
    @pytest.mark.parametrize("a, b, equal", [
        ([0.1, 0.2], [0.1, 0.2], True),
        ([0.1, 0.2], [0.1, 0.3], False),  # raised "truth value ... is ambiguous"
        ([0.1, 0.2], [0.1, 0.2, 0.3], False),
        ([[0.1, 0.2]], [0.1, 0.2], False),
    ], ids=["equal", "differing", "longer", "other_shape"])
    def test_batches_compare_by_value(self, a, b, equal):
        p, q = DiscPoint(np.array(a)), DiscPoint(np.array(b))
        assert (p == q) is equal and (p != q) is not equal

    def test_batch_against_one_point(self):
        assert DiscPoint(np.array([0.1, 0.2])) != DiscPoint(0.1)
        assert DiscPoint(0.1) != DiscPoint(np.array([0.1, 0.2]))
