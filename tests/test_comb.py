import math

import numpy as np
import pytest

from hypspeed import build_comb, delta, gauge, quasihyp_lower, verify_comb
from hypspeed.comb import check_sublinear, resolve_abscissae
from hypspeed.domains import DomainError, _comb_axis_breakpoints, _comb_piece_integral

from oracles import brute_force_distance, comb_boundary_points


class TestGauge:
    def test_named(self):
        name, g = gauge("log1p")
        assert name == "log1p" and g(math.e - 1) == pytest.approx(1.0)

    def test_pow(self):
        for spec in (("pow", 0.5), "pow:0.5"):
            name, g = gauge(spec)
            assert name == "pow:0.5" and g(4.0) == pytest.approx(2.0)

    def test_pow_requires_sublinear_exponent(self):
        with pytest.raises(ValueError):
            gauge(("pow", 1.5))

    def test_table(self):
        _, g = gauge([(0.0, 0.0), (10.0, 5.0)])
        assert g(4.0) == pytest.approx(2.0)
        assert g(20.0) == pytest.approx(10.0)  # extrapolated

    def test_callable_passthrough(self):
        _, g = gauge(math.log1p)
        assert g(1.0) == math.log(2.0)

    def test_linear_rejected_by_probe(self):
        with pytest.raises(ValueError):
            check_sublinear(lambda t: t)

    def test_log_accepted(self):
        check_sublinear(math.log1p)
        check_sublinear(math.sqrt)


class TestAbscissae:
    def test_linear(self):
        assert resolve_abscissae("linear", 4) == [1.0, 2.0, 3.0, 4.0]

    def test_geometric(self):
        assert resolve_abscissae(("geometric", 2.0), 3) == [1.0, 2.0, 4.0]

    def test_explicit_short(self):
        with pytest.raises(ValueError):
            resolve_abscissae([1.0, 2.0], 3)


class TestBuild:
    def test_first_crossover_closed_form(self):
        cc = build_comb("log1p", "linear", steps=2)
        assert cc.b[0] == 1.0
        assert cc.x[0] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)

    def test_constraints_strict(self):
        cc = build_comb("log1p", "linear", steps=10)
        assert all(c < 1.0 for c in cc.constraint)
        assert all(b2 > x > b1 for b1, x, b2 in zip(cc.b[:-1], cc.x, cc.b[1:]))

    def test_distance_equation(self):
        cc = build_comb("log1p", "linear", steps=4)
        for j in range(1, 5):
            lhs = abs(1j * cc.x[j - 1] - complex(cc.a[j - 1], cc.b[j - 1]))
            assert lhs == pytest.approx(cc.a[j], rel=1e-12)

    def test_linear_gauge_rejected(self):
        with pytest.raises(ValueError):
            build_comb(lambda t: t, "linear", steps=2)

    def test_geometric_abscissae(self):
        cc = build_comb("sqrt", ("geometric", 2.0), steps=3)
        rows = verify_comb(cc)
        assert all(r["ratio"] >= r["j"] / 4.0 - 1e-9 for r in rows)


class TestVerify:
    def test_ratio_milestones(self):
        cc = build_comb("log1p", "linear", steps=10)
        rows = verify_comb(cc)
        for r in rows:
            assert r["ratio"] >= r["j"] / 4.0 - 1e-9

    def test_restricted_integral_already_clears(self):
        cc = build_comb("log1p", "linear", steps=6)
        _, g = gauge("log1p")
        for r in verify_comb(cc):
            assert r["plateau_piece"] >= r["j"] * g(r["b"]) / 4.0 - 1e-12

    @pytest.mark.parametrize("spec", [
        [(10.0 ** k, math.log1p(10.0 ** k)) for k in range(14)],
        lambda t: math.log1p(t),
    ], ids=["table", "lambda"])
    def test_unnamed_gauge(self, spec):
        # the construction keeps its gauge, so gauges without a name verify
        rows = verify_comb(build_comb(spec, "linear", steps=3))
        assert all(r["ratio"] >= r["j"] / 4.0 - 1e-9 for r in rows)

    def test_single_step(self):
        rows = verify_comb(build_comb("log1p", "linear", steps=1))
        assert len(rows) == 1 and rows[0]["ratio"] >= 0.25

    def test_plateau_delta_exact(self):
        cc = build_comb("log1p", "linear", steps=5)
        dom = cc.domain()
        for j in range(1, 6):
            for r in np.linspace(cc.x[j - 1], cc.b[j], 7):
                assert delta(dom, 1j * r) == pytest.approx(cc.a[j], abs=1e-12)

    def test_plateau_delta_vs_brute_force(self):
        cc = build_comb("log1p", "linear", steps=3)
        dom = cc.domain()
        pts = comb_boundary_points(dom.teeth, depth=cc.extent + 5, density=20_000)
        for r in np.linspace(0.3, cc.extent * 0.98, 11):
            assert delta(dom, 1j * r) == pytest.approx(
                brute_force_distance(1j * r, pts), abs=1e-2)

    def test_bound_monotone_in_time(self):
        cc = build_comb("log1p", "linear", steps=4)
        dom = cc.domain()
        vals = [quasihyp_lower(dom, 1e-6, t) for t in np.linspace(1.0, cc.extent, 8)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


def _comb_bound_per_step(dom, t0, t1):
    """The comb integral from scratch over [t0, t1], as computed before the
    ratio table came from one pass."""
    pts = _comb_axis_breakpoints(dom, t0, t1)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += _comb_piece_integral(dom, lo, hi)
    return 0.25 * total


class TestOnePass:
    @pytest.mark.parametrize("spec", ["log1p", "sqrt", "pow:0.5", "pow:0.3"])
    def test_rows_equal_per_step_bounds(self, spec):
        for steps in range(1, 17):
            cc = build_comb(spec, "linear", steps)
            dom = cc.domain()
            bounds = [r["bound"] for r in verify_comb(cc)]
            assert bounds == [quasihyp_lower(dom, 1e-6, b) for b in cc.b[1:]]
            assert bounds == [_comb_bound_per_step(dom, 1e-6, b) for b in cc.b[1:]]

    def test_geometric_rows_equal_per_step_bounds(self):
        cc = build_comb("sqrt", ("geometric", 2.0), 8)
        dom = cc.domain()
        bounds = [r["bound"] for r in verify_comb(cc)]
        assert bounds == [quasihyp_lower(dom, 1e-6, b) for b in cc.b[1:]]
        assert bounds == [_comb_bound_per_step(dom, 1e-6, b) for b in cc.b[1:]]

    def test_start_above_first_height(self):
        cc = build_comb("log1p", "linear", 3)
        with pytest.raises(ValueError, match="need t0 <= t1"):
            verify_comb(cc, t_start=cc.b[1] * 1.5)

    def test_beyond_extent(self):
        dom = build_comb("log1p", "linear", 3).domain()
        with pytest.raises(DomainError, match="exceeds the materialised comb extent"):
            quasihyp_lower(dom, 1e-6, dom.extent * 1.01)
