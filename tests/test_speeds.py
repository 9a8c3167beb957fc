import math
import re
import warnings

import numpy as np
import pytest

from hypspeed import (Comb, DiscPoint, HalfPlaneRight, Koebe, ORIGIN, RadialGeodesic,
                      Sector, SpeedSample, Strip, UnsupportedDomainOperation,
                      default_grid, dist_to_radius, domain_from_json, fit_asymptotic,
                      koenigs_semigroup, nontangential_ratio, omega, orbit,
                      project_to_radius, sample_speeds, surrogate_speeds)
from hypspeed.hyperbolic import DomainError
from hypspeed.semigroups import model_point, orbit_halfplane

from oracles import mp_orbit, mp_speeds, speed_table_errors

LOG2 = math.log(2.0)

#: the domains of the benchmark's `tables` workload
TABLE_DOMAINS = (
    {"type": "strip", "r": math.pi / 2},
    {"type": "halfplane", "p": [0.0, 0.0]},
    {"type": "sector", "p": [0.0, 0.0], "alpha": math.pi / 4, "beta": math.pi / 4},
    {"type": "sector", "p": [0.0, 0.0], "alpha": math.pi, "beta": 0.0},
    {"type": "koebe", "p": [0.0, 0.0]},
    {"type": "sector", "p": [1.0, -2.0], "alpha": 0.7, "beta": 1.9},
    {"type": "sector", "p": [0.0, 0.5], "alpha": math.pi, "beta": math.pi},
    {"type": "koebe", "p": [2.0, 1.0]},
    {"type": "strip", "r": 3.0},
    {"type": "halfplane", "p": [-1.0, 2.0]},
)


def log_cosh(x: float) -> float:
    """log cosh x for x >= 0 without cancellation: log1p(2 sinh^2(x/2)),
    and x - log 2 + log1p(e^-2x) where sinh^2 would overflow."""
    if x > 20.0:
        return x - LOG2 + math.log1p(math.exp(-2.0 * x))
    return math.log1p(2.0 * math.sinh(0.5 * x) ** 2)


@pytest.fixture(scope="module")
def koebe_sg():
    return koenigs_semigroup(Koebe(0j))


class TestSampleSpeeds:
    def test_time_zero_all_zero(self, koebe_sg):
        s = sample_speeds(koebe_sg, [0.0])[0]
        assert max(abs(s.v), abs(s.v_o), abs(s.v_T)) < 1e-12

    def test_koebe_quarter_log_envelope(self, koebe_sg):
        grid = default_grid(1e3, 1e8, 200)
        sup = max(abs(s.v - 0.25 * math.log(s.t)) for s in sample_speeds(koebe_sg, grid))
        assert sup < 2.0

    def test_symmetric_sector_tangential_bounded(self):
        sg = koenigs_semigroup(Sector(0j, math.pi / 4, math.pi / 4))
        grid = default_grid(1.0, 1e8, 200)
        assert max(s.v_T for s in sample_speeds(sg, grid)) < 1e-9

    def test_split_inequality_everywhere(self):
        for dom in (Strip(math.pi / 2), HalfPlaneRight(0j), Koebe(0j)):
            sg = koenigs_semigroup(dom)
            for s in sample_speeds(sg, default_grid(1.0, 1e8, 100)):
                assert s.v_o + s.v_T - 0.5 * LOG2 - 1e-9 <= s.v <= s.v_o + s.v_T + 1e-9

    @pytest.mark.parametrize("t_max", [1e8, 1e12], ids=["1e8", "1e12"])
    @pytest.mark.parametrize("domain", TABLE_DOMAINS,
                             ids=[f"{d['type']}{i}" for i, d in enumerate(TABLE_DOMAINS)])
    def test_pythagorean_identity(self, domain, t_max):
        # cosh 2v = cosh 2v_o cosh 2v_T exactly, the relation behind the
        # split inequality, on every row of a 512-point `hypspeed speeds` table
        sg = koenigs_semigroup(domain_from_json(domain))
        for s in sample_speeds(sg, default_grid(1.0, t_max, 512)):
            lhs = log_cosh(2.0 * s.v)
            rhs = log_cosh(2.0 * s.v_o) + log_cosh(2.0 * s.v_T)
            assert abs(lhs - rhs) <= 1e-15 * lhs, s

    def test_grid_validation(self):
        sg = koenigs_semigroup(Koebe(0j))
        with pytest.raises(ValueError):
            sample_speeds(sg, [2.0, 1.0])
        with pytest.raises(ValueError):
            sample_speeds(sg, [-1.0])
        for grid in ([1.0, math.nan, 2.0], [math.nan]):  # neither nonnegative nor sorted
            with pytest.raises(ValueError, match="grid"):
                sample_speeds(sg, grid)

    @pytest.mark.parametrize("grid", [[], [0.0], [0.0, 1e-300, 1.0], [1e300], [1.0, math.inf]],
                             ids=["empty", "zero", "tiny", "1e300", "inf"])
    def test_edge_grids(self, grid):
        # one array pass, with every warning an error: a finite grid gives
        # the 50-digit table, and an infinite time is the DomainError that
        # names it, on every domain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in TABLE_DOMAINS:
                dom = domain_from_json(spec)
                sg = koenigs_semigroup(dom)
                if math.inf in grid:
                    with pytest.raises(DomainError, match=re.escape("orbit time t=inf is past")):
                        sample_speeds(sg, grid)
                    continue
                table = sample_speeds(sg, grid)
                rows = np.column_stack([table.t, table.v, table.v_o, table.v_T,
                                        table.log_rho, table.theta])
                assert rows.shape == (len(grid), 6)
                assert speed_table_errors(dom, rows).max(initial=0.0) <= 4e-16, spec

    def test_comb_unsupported(self):
        sg = koenigs_semigroup(Comb([(1, 1)]))
        with pytest.raises(UnsupportedDomainOperation):
            sample_speeds(sg, [1.0])

    def test_orthogonal_speed_diverges(self):
        # gain 10 needs t_max ~ exp(10 / leading coefficient); the slowest
        # class (v_o ~ log(t)/4) needs the largest horizon
        cases = [(Strip(math.pi / 2), 1e2), (HalfPlaneRight(0j), 1e10),
                 (Sector(0j, math.pi / 4, math.pi / 4), 1e5),
                 (Sector(0j, math.pi, 0.0), 1e10), (Koebe(0j), 1e18)]
        for dom, t_max in cases:
            sg = koenigs_semigroup(dom)
            ss = sample_speeds(sg, [1.0, t_max])
            assert ss[-1].v_o > ss[0].v_o + 10.0

    @pytest.mark.parametrize("dom", [HalfPlaneRight(0j), Sector(0j, math.pi, 0.0)],
                             ids=lambda d: type(d).__name__)
    def test_beyond_double_range(self, dom):
        # past |w| = e^700 the affine links work in log-polar form; the speed
        # keeps the closed forms k_H(1, 1 + it) = asinh(t/2) and, with
        # cos(theta) = 1/|1 + it|, v_T = log(|1 + it| + t)/2 = log(2t)/2
        s = sample_speeds(koenigs_semigroup(dom), [1e307])[0]
        assert s.v == pytest.approx(math.asinh(0.5e307), rel=1e-12)
        assert s.v_T == pytest.approx(0.5 * math.log(2e307), rel=1e-12)

    @pytest.mark.parametrize("t", [1e308, 1.7e308])
    @pytest.mark.parametrize("dom", [HalfPlaneRight(0j), Sector(0j, math.pi, 0.0)],
                             ids=lambda d: type(d).__name__)
    def test_near_largest_double(self, dom, t):
        # cos(theta) = 1/|1 + it| < 1e-308, where (1 + sin)/cos overflows
        s = sample_speeds(koenigs_semigroup(dom), [t])[0]
        assert math.isfinite(s.v_T)
        assert s.v_T == pytest.approx(0.5 * (LOG2 + math.log(t)), rel=1e-12)

    def test_strip_past_its_time_range_names_the_first_time(self):
        # log rho = pi t / r = 2t is a finite double below t = 9e307
        sg = koenigs_semigroup(Strip(math.pi / 2))
        msg = re.escape("orbit time t=1e+308 is past the supported time range: "
                        "the half-plane log rho overflows a double")
        with pytest.raises(DomainError, match=msg):
            orbit_halfplane(sg, ORIGIN, np.array([1.0, 8e307, 1e308, 1.5e308]))
        with pytest.raises(DomainError, match=msg):
            sample_speeds(sg, [1.0, 8e307, 1e308, 1.5e308])
        starts = DiscPoint(np.array([[0.0], [0.2 + 0.1j]]))
        with pytest.raises(DomainError, match=msg):
            orbit_halfplane(sg, starts, np.array([1.0, 1e308, 1.5e308]))
        assert sample_speeds(sg, [8e307])[0].v_o == pytest.approx(8e307, rel=1e-15)

    def test_sample_invariant_enforced(self):
        # v = 10 > v_o + v_T = 2 breaks the split, in a table of three rows
        # and on its own; so does a negative speed
        cols = np.array([[1.0, 2.0, 3.0], [0.5, 10.0, 0.5], [0.5, 1.0, 0.5],
                         [0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="split"):
            SpeedSample(*cols)
        with pytest.raises(ValueError, match="split"):
            SpeedSample(*cols[:, 1])
        cols[3, 2] = -1.0
        cols[1, 1] = 2.0
        with pytest.raises(ValueError, match="nonnegative"):
            SpeedSample(*cols)
        with pytest.raises(ValueError, match="nonnegative"):
            SpeedSample(*cols[:, 2])
        with pytest.raises(ValueError, match="one length"):
            SpeedSample(*cols[:5], cols[5, :2])

    def test_split_slack_scales_with_the_speed(self):
        # off the axis of a strip v_T stays at 8.76 while v grows like t, so
        # the lower split is attained to rounding: an 80-digit oracle gives
        # a margin of 3e-16, and the doubles fall one ulp of v short at
        # v ~ 2e10, 3.8e-6, which a fixed slack of 1e-6 refused
        z = DiscPoint(-0.5744160903910795 - 0.8185634211670368j)
        table = sample_speeds(koenigs_semigroup(Strip(1.5)), default_grid(1, 1e12, 64), z)
        assert table.v[-1] > 1e12
        # near v = 1 the slack is a few ulp of 1, so 1e-9 too much breaks it
        with pytest.raises(ValueError, match="split"):
            SpeedSample(1.0, 1.0 + 1e-9, 0.5, 0.5, 1.0, 0.0)

    def test_table_is_rows(self, koebe_sg):
        # a table of read-only columns; indexing, iteration and length give
        # the rows of one-time tables, and tables compare by their columns
        grid = default_grid(1.0, 1e4, 16)
        table = sample_speeds(koebe_sg, grid)
        assert len(table) == 16 and table.v.dtype == np.float64
        with pytest.raises(ValueError):
            table.v[0] = 1.0
        rows = list(table)
        assert rows[3] == table[3] == table[-13]
        assert isinstance(table[3].v, float)
        for t, row in zip(grid, rows):
            (one,) = sample_speeds(koebe_sg, [t])
            assert row == one
        assert table == sample_speeds(koebe_sg, grid)
        assert table != sample_speeds(koebe_sg, default_grid(1.0, 1e5, 16))
        assert table != rows[0]
        assert len(sample_speeds(koebe_sg, [])) == 0


class TestSurrogates:
    def test_identity_exact(self, koebe_sg):
        for t in (0.5, 3.0, 1e5):
            s = surrogate_speeds(koebe_sg, t)
            assert s.s_tang == s.s_total - s.s_orth

    def test_bounds_on_koebe(self, koebe_sg):
        for t in default_grid(1.0, 1e6, 80):
            s = surrogate_speeds(koebe_sg, t)
            assert not s.pre_threshold
            assert abs(s.dev_total) <= 0.5 * LOG2 + 1e-9
            assert abs(s.dev_orth) <= 0.5 * LOG2 + 1e-9
            assert abs(s.dev_tang) <= 1.5 * LOG2 + 1e-9

    def test_flat_sector_tangential_growth(self):
        # one-sided sector: s_tang grows like log(t)/2 with bounded offset
        sg = koenigs_semigroup(Sector(0j, math.pi, 0.0))
        vals = [(t, surrogate_speeds(sg, t).s_tang) for t in default_grid(10.0, 1e8, 40)]
        assert vals[-1][1] > vals[0][1] + 5
        assert max(abs(s - 0.5 * math.log(t)) for t, s in vals) < 2.0

    def test_equality_compares_fields(self, koebe_sg):
        # array fields along a grid, float fields and a bool at one time
        ts = np.array(default_grid(1.0, 1e4, 16))
        table = surrogate_speeds(koebe_sg, ts)
        assert table == surrogate_speeds(koebe_sg, ts)
        assert table != surrogate_speeds(koebe_sg, 2.0 * ts)
        one = surrogate_speeds(koebe_sg, 3.0)
        assert one == surrogate_speeds(koebe_sg, 3.0)
        assert one != surrogate_speeds(koebe_sg, 4.0)
        assert one != table and table != sample_speeds(koebe_sg, ts)


class TestFit:
    def _synthetic(self, coef, basis):
        ts = np.array(default_grid(1e2, 1e8, 200))
        xs = coef * (np.log(ts) if basis == "log_t" else ts)
        zeros = np.zeros_like(ts)
        return SpeedSample(ts, xs, xs, zeros, 2 * xs, zeros)

    def test_exact_recovery(self):
        fit = fit_asymptotic(self._synthetic(0.25, "log_t"), "v", "log_t", (1e3, 1e8))
        assert fit.coefficient == pytest.approx(0.25, abs=1e-9)
        assert fit.sup_residual < 1e-9

    def test_linear_basis(self):
        fit = fit_asymptotic(self._synthetic(0.5, "t"), "v", "t", (1e3, 1e8))
        assert fit.coefficient == pytest.approx(0.5, abs=1e-9)

    def test_koebe_quarter(self, koebe_sg):
        samples = sample_speeds(koebe_sg, default_grid(1.0, 1e8, 512))
        fit = fit_asymptotic(samples, "v", "log_t", (1e4, 1e8))
        assert fit.coefficient == pytest.approx(0.25, abs=0.02)

    def test_window_too_small(self, koebe_sg):
        samples = sample_speeds(koebe_sg, default_grid(1.0, 1e8, 30))
        with pytest.raises(ValueError):
            fit_asymptotic(samples, "v", "log_t", (9e7, 1e8))

    @pytest.mark.parametrize("window", [(1e6,), None, (1e6, 1e7, 1e8), ("1", "1e2"), 1e6],
                             ids=["one", "none", "three", "text", "scalar"])
    def test_window_is_two_numbers(self, window):
        # (1e6, 1e7, 1e8) fitted on [1e6, 1e7]; (1e6,) and None raised
        # IndexError and TypeError
        with pytest.raises(ValueError, match="window must be two numbers"):
            fit_asymptotic(self._synthetic(0.25, "log_t"), "v", "log_t", window)

    def test_bad_series(self, koebe_sg):
        samples = sample_speeds(koebe_sg, default_grid(1.0, 1e2, 25))
        with pytest.raises(ValueError):
            fit_asymptotic(samples, "w", "log_t", (1.0, 1e2))


class TestNontangentialRatio:
    def test_symmetric_sector_ratio_one(self):
        sg = koenigs_semigroup(Sector(0j, 0.6, 0.6))
        p = model_point(sg)
        for t in (0.5, 10.0, 1e6):
            assert nontangential_ratio(sg, p, t) == pytest.approx(1.0, abs=1e-12)

    def test_halfplane_ratio_grows_like_t(self):
        sg = koenigs_semigroup(HalfPlaneRight(0j))
        for t in (2.0, 1e4):
            assert nontangential_ratio(sg, 1.0 + 0j, t) == pytest.approx(t, rel=1e-12)

    def test_koebe_ratio_one(self):
        sg = koenigs_semigroup(Koebe(0j))
        assert nontangential_ratio(sg, 1j, 7.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([1.0, math.nan])],
                             ids=["nan", "inf", "array_nan"])
    def test_time_not_finite(self, t):
        # a NaN time went on to "(nan+nanj) is not in Omega^-"
        with pytest.raises(ValueError, match="positive finite times"):
            nontangential_ratio(koenigs_semigroup(Koebe(0j)), 1j, t)

    def test_reference_outside(self):
        sg = koenigs_semigroup(Koebe(0j))
        with pytest.raises(Exception):
            nontangential_ratio(sg, -1j, 1.0)

    def test_a_list_of_times_gives_an_array(self):
        sg = koenigs_semigroup(Koebe(0j))
        got = nontangential_ratio(sg, 1j, [1.0, 2.0])
        assert np.array_equal(got, nontangential_ratio(sg, 1j, np.array([1.0, 2.0])))


class TestGrid:
    def test_geometric(self):
        g = default_grid(1.0, 100.0, 3)
        assert g == pytest.approx([1.0, 10.0, 100.0])

    def test_zero_start(self):
        g = default_grid(0.0, 100.0, 5)
        assert g[0] == 0.0 and len(g) == 5

    @pytest.mark.parametrize("t_min, t_max, points", [(1.0, 1e8, 512), (1e-3, 7.5, 33),
                                                      (2.0, 1e12, 2)])
    def test_python_floats_of_geomspace(self, t_min, t_max, points):
        g = default_grid(t_min, t_max, points)
        assert all(type(t) is float for t in g)
        assert np.array(g).tobytes() == np.geomspace(t_min, t_max, points).tobytes()

    @pytest.mark.parametrize("t_max, points", [(1e8, 512), (100.0, 5), (3.0, 2)])
    def test_zero_start_python_floats_of_geomspace(self, t_max, points):
        g = default_grid(0.0, t_max, points)
        assert all(type(t) is float for t in g)
        inner = np.geomspace(t_max * 1e-9, t_max, points - 1)
        assert np.array(g).tobytes() == np.concatenate([[0.0], inner]).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            default_grid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            default_grid(1.0, 2.0, 1)
        for t_max in (math.inf, math.nan):
            with pytest.raises(ValueError):
                default_grid(1.0, t_max, 10)

    @pytest.mark.parametrize("t_min", ["1", None])
    def test_times_must_be_real_numbers(self, t_min):
        with pytest.raises(ValueError, match="must be real numbers"):
            default_grid(t_min, 10.0, 4)

    @pytest.mark.parametrize("points", [2.5, "3", None])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(ValueError, match="point count must be an integer"):
            default_grid(1.0, 2.0, points)
        assert default_grid(1.0, 100.0, np.int64(3)) == default_grid(1.0, 100.0, 3)


class TestStartingPoint:
    def test_speeds_stable_under_start(self):
        from hypspeed import omega

        sg = koenigs_semigroup(Koebe(0j))
        z2 = DiscPoint(0.4 - 0.3j)
        d = omega(ORIGIN, z2)
        a = sample_speeds(sg, default_grid(1.0, 1e6, 40))
        b = sample_speeds(sg, default_grid(1.0, 1e6, 40), z=z2)
        for s1, s2 in zip(a, b):
            assert abs(s1.v_o - s2.v_o) <= d + 1e-9
            assert abs(s1.v_T - s2.v_T) <= 2 * d + 1e-9


class TestRadialDefinitions:
    """The total, tangential and orthogonal speeds are the distance from the
    origin to the orbit point, from that point to the real diameter and from
    the origin to its foot there; the public disc API must give the table's
    values, and v the 50-digit one."""

    def test_orbit_points_on_the_real_diameter(self):
        guarded = 0
        for spec in TABLE_DOMAINS:
            dom = domain_from_json(spec)
            sg = koenigs_semigroup(dom)
            for t in (1.0, 1e4, 1e8, 1e12, 1e20):
                z, (sample,) = orbit(sg, ORIGIN, t), sample_speeds(sg, [t])
                v = float(mp_speeds(mp_orbit(dom, ORIGIN, t))[0])
                assert abs(omega(ORIGIN, z) - v) <= 1e-13 * max(1.0, v), (spec, t)
                dists = [dist_to_radius(z, RadialGeodesic(tau)) for tau in (1.0, -1.0)]
                assert abs(dists[0] - dists[1]) <= 1e-14 * max(dists), (spec, t)
                if z.guarded:
                    guarded += 1
                    for d in dists:
                        assert abs(d - sample.v_T) <= 1e-14 * sample.v_T, (spec, t)
                for tau in (1.0, -1.0):
                    foot = project_to_radius(z, RadialGeodesic(tau))
                    if foot.guarded:
                        assert abs(omega(ORIGIN, foot) - sample.v_o) <= 1e-14 * sample.v_o
        assert guarded == 50
