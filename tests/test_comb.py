import functools
import hashlib
import math
import re

import numpy as np
import pytest

from hypspeed import build_comb, comb, delta, gauge, quasihyp_lower, verify_comb
from hypspeed.comb import check_sublinear, resolve_abscissae
from hypspeed.cli import main
from hypspeed.domains import (Comb, DomainError, HalfPlaneRight, Koebe, Sector, _axis_distance,
                              _axis_integrals, _axis_pieces, _axis_runs, _piece_integral)

from oracles import brute_force_distance, comb_boundary_points, mp_quasihyp


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

    def test_pow_exponent_must_be_a_number(self):
        with pytest.raises(ValueError, match="numeric exponent"):
            gauge(("pow", None))

    def test_table(self):
        # a table of (t, value) pairs is no gauge: a callable gives any
        # gauge a table gave, and a repeated time divided by zero
        with pytest.raises(ValueError, match="unknown gauge spec"):
            gauge([(0.0, 0.0), (10.0, 5.0)])

    def test_callable_passthrough(self):
        _, g = gauge(math.log1p)
        assert g(1.0) == math.log(2.0)

    def test_builtin_gauges_skip_the_probe(self, monkeypatch):
        # log1p, sqrt and pow:p are sublinear by definition; the probe
        # refused pow:p from p = 0.7 on, which gauge() and the CLI accept
        probed = []
        monkeypatch.setattr(comb, "check_sublinear", probed.append)
        for spec in ("log1p", "sqrt", "pow:0.5", ("pow", 0.95)):
            build_comb(spec, "linear", 2)
        assert probed == []
        build_comb(math.sqrt, "linear", 2)
        build_comb(lambda t: math.sqrt(t), "linear", 2)
        assert len(probed) == 2

    @pytest.mark.parametrize("spec, steps", [
        ("pow:0.7", 10), ("pow:0.8", 16), ("pow:0.95", 8),
        # callables take the probe, which asks only that g(t)/t fall over
        # each decade; halving it refused every exponent from 0.7
        pytest.param(lambda t: t ** 0.8, 16, id="t^0.8-16"),
        pytest.param(lambda t: t ** 0.95, 8, id="t^0.95-8")])
    def test_steep_pow_gauges_certify(self, spec, steps):
        rows = verify_comb(build_comb(spec, "linear", steps))
        assert len(rows) == steps
        assert min(r["ratio"] - r["j"] / 4.0 for r in rows) >= 2e-4

    @pytest.mark.parametrize("g", [lambda t: t + 1.0, lambda t: 0.3 * t + math.log1p(t)],
                             ids=["t+1", "0.3t+log1p"])
    def test_probe_passes_but_doubling_refuses_near_linear(self, g):
        check_sublinear(g)
        with pytest.raises(ValueError, match="too fast"):
            build_comb(g, "linear", 3)

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
        assert resolve_abscissae("geom:2", 3) == [1.0, 2.0, 4.0]

    def test_text_list(self):
        assert resolve_abscissae("1,2.5,3", 3) == [1.0, 2.5, 3.0]

    @pytest.mark.parametrize("text", ["1,,2", "geom:", "linear,2"])
    def test_text_not_a_number(self, text):
        with pytest.raises(ValueError, match="could not convert string to float"):
            resolve_abscissae(text, 2)

    @pytest.mark.parametrize("spec", [("geometric", 2.0), [1.0, None]], ids=["geometric_tuple", "none"])
    def test_unknown(self, spec):
        with pytest.raises(ValueError, match="unknown abscissa spec"):
            resolve_abscissae(spec, 2)

    def test_explicit_short(self):
        with pytest.raises(ValueError):
            resolve_abscissae([1.0, 2.0], 3)

    @pytest.mark.parametrize("spec, count", [
        ("geom:nan", 3), ([1.0, math.nan, 3.0], 3), ([1.0, math.inf], 2),
        ("geom:inf", 3), ("geom:1e300", 3), ("geom:2", 1101),
    ], ids=["geom_nan", "list_nan", "list_inf", "geom_inf", "geom_1e300", "geom_2_past_1023"])
    def test_non_finite(self, spec, count):
        # each went on to a wrong diagnosis: the doubling search, an
        # OverflowError from the power, or "must strictly increase"
        with pytest.raises(ValueError, match="finite"):
            resolve_abscissae(spec, count)

    def test_last_finite_power(self):
        assert resolve_abscissae("geom:2", 1024)[-1] == 2.0 ** 1023


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

    @pytest.mark.parametrize("steps", [2.5, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match="step count must be an integer"):
            build_comb("log1p", "linear", steps)

    def test_text_abscissae(self):
        # the library reads the CLI's --abscissae text
        assert build_comb("sqrt", "geom:2", 3) == build_comb("sqrt", [1.0, 2.0, 4.0, 8.0], 3)
        assert build_comb("sqrt", "1,2.5,3", 2).a == (1.0, 2.5, 3.0)

    def test_linear_gauge_rejected(self):
        with pytest.raises(ValueError):
            build_comb(lambda t: t, "linear", steps=2)

    def test_geometric_abscissae(self):
        cc = build_comb("sqrt", "geom:2", steps=3)
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

    @pytest.mark.parametrize("spec", [lambda t: math.log1p(t)], ids=["lambda"])
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


#: The pass sums one exact integral per run of the nearest slit, the O(k^2)
#: references below one per interval between pairwise crossings, so the two
#: sums round apart: by up to 1.3e-15 relative on test_random_combs and
#: 5.3e-16 on the constructions.  On the 20 widest gaps with t0 > 0,
#: mp_quasihyp puts the runs within 4.2e-16 and the references within
#: 1.05e-15, so the gap is the references' own rounding; 4e-15 leaves three
#: times the widest.
_RUNS_RTOL = 4e-15


def _close(got, want):
    return len(got) == len(want) and all(
        abs(g - w) <= _RUNS_RTOL * abs(w) for g, w in zip(got, want))


def _comb_bound_per_step(dom, t0, t1):
    """The comb integral from scratch over [t0, t1], written for teeth
    alone: the tooth tops and pairwise crossovers as breakpoints, and on
    each piece the exact integral for the tooth nearest at its midpoint."""
    teeth = dom.teeth
    pts = {t0, t1} | {b for _, b in teeth if t0 < b < t1}
    for ai, bi in teeth:
        for aj, bj in teeth:
            if aj > ai and t0 < bi + math.sqrt(aj * aj - ai * ai) < t1:
                pts.add(bi + math.sqrt(aj * aj - ai * ai))
            if bj != bi:
                r = 0.5 * ((aj * aj - ai * ai) / (bj - bi) + bi + bj)
                if r > max(bi, bj) and t0 < r < t1:
                    pts.add(r)
    pts, total = sorted(pts), 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        a, b = min(teeth, key=lambda t: t[0] if mid <= t[1] else math.hypot(t[0], mid - t[1]))
        total += (hi - lo) / a if hi <= b else math.asinh((hi - b) / a) - math.asinh((lo - b) / a)
    return 0.25 * total


class TestOnePass:
    @pytest.mark.parametrize("spec", ["log1p", "sqrt", "pow:0.5", "pow:0.3"])
    def test_rows_equal_per_step_bounds(self, spec):
        for steps in range(1, 17):
            cc = build_comb(spec, "linear", steps)
            dom = cc.domain()
            bounds = [r["bound"] for r in verify_comb(cc)]
            assert bounds == [quasihyp_lower(dom, 1e-6, b) for b in cc.b[1:]]
            assert _close(bounds, [_comb_bound_per_step(dom, 1e-6, b) for b in cc.b[1:]])

    def test_geometric_rows_equal_per_step_bounds(self):
        cc = build_comb("sqrt", "geom:2", 8)
        dom = cc.domain()
        bounds = [r["bound"] for r in verify_comb(cc)]
        assert bounds == [quasihyp_lower(dom, 1e-6, b) for b in cc.b[1:]]
        assert _close(bounds, [_comb_bound_per_step(dom, 1e-6, b) for b in cc.b[1:]])

    def test_no_start_parameter(self):
        # t_start = -50 counted axis length below the orbit's start: ratios
        # 6.59, 4.54 and 4.28 where the construction's are 0.531, 0.891, 1.479
        cc = build_comb("log1p", "linear", 3)
        with pytest.raises(TypeError):
            verify_comb(cc, t_start=-50.0)

    def test_beyond_extent(self):
        dom = build_comb("log1p", "linear", 3).domain()
        with pytest.raises(DomainError, match="exceeds the materialised comb extent"):
            quasihyp_lower(dom, 1e-6, dom.extent * 1.01)


def _min_axis_integrals(domain, t0, heights):
    """The axis pass with nothing pruned: every pairwise crossing of the
    pieces as a breakpoint, and on each interval the nearest piece by min
    over all of them, ties to the first."""
    pieces, t1 = _axis_pieces(domain), heights[-1]
    pts = {t0, t1}
    for _, _, _, _, C, D in pieces:
        if D != 0.0 and t0 < -C / D < t1:
            pts.add(-C / D)
    if isinstance(domain, Sector):
        (_, _, A1, B1, _, _), (_, _, A2, B2, _, _) = pieces
        if B1 + B2 != 0.0 and t0 < -(A1 + A2) / (B1 + B2) < t1:
            pts.add(-(A1 + A2) / (B1 + B2))
    else:
        for ai, bi, *_ in pieces:
            for aj, bj, *_ in pieces:
                if aj > ai and t0 < bi + math.sqrt(aj * aj - ai * ai) < t1:
                    pts.add(bi + math.sqrt(aj * aj - ai * ai))
                if bj != bi:
                    r = 0.5 * ((aj * aj - ai * ai) / (bj - bi) + bi + bj)
                    if r > max(bi, bj) and t0 < r < t1:
                        pts.add(r)
    pts, total, upto = sorted(pts), 0.0, {t0: 0.0}
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        total += _piece_integral(min(pieces, key=lambda p: _axis_distance(p, mid)), lo, hi, mid)
        upto[hi] = total
    return [0.25 * upto[h] for h in heights]


def _full_bisection(g_spec, a_spec, steps):
    """(b, x, constraint) of build_comb with all 60 bisections run."""
    _, g = gauge(g_spec)
    a = resolve_abscissae(a_spec, steps + 1)
    b, xs, cons = [1.0], [], []
    for j in range(1, steps + 1):
        xj = b[-1] + math.sqrt(a[j] * a[j] - a[j - 1] * a[j - 1])
        c = j * a[j]  # the constraint at bb is (c * g(bb) + xj) / bb
        lo, hi = xj, 2.0 * xj
        while not (c * g(hi) + xj) / hi <= 0.999:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (c * g(mid) + xj) / mid <= 0.999:
                hi = mid
            else:
                lo = mid
        xs.append(xj)
        cons.append((c * g(hi) + xj) / hi)
        b.append(hi)
    return tuple(b), tuple(xs), tuple(cons)


def _assert_same_as_references(g_spec, a_spec, steps):
    cc = build_comb(g_spec, a_spec, steps)
    assert (cc.b, cc.x, cc.constraint) == _full_bisection(g_spec, a_spec, steps)
    bounds = _axis_integrals(cc.domain(), 1e-6, cc.b[1:])
    assert _close(bounds, _min_axis_integrals(cc.domain(), 1e-6, cc.b[1:]))
    return cc, bounds


_ABSCISSAE = ("geom:1.3", "geom:2", "geom:3", "linear")


class TestSweepExact:
    """The bisection stopped at its fixed point gives the same bits as all
    60 bisections; the sweep over runs of the nearest slit gives the sums
    of min over all pieces to rounding, and the same bits off the combs."""

    @pytest.mark.parametrize("abscissae", _ABSCISSAE)
    @pytest.mark.parametrize("spec", ["log1p", "sqrt", "pow:0.5", "pow:0.3"])
    def test_constructions(self, spec, abscissae):
        for steps in range(1, 17):
            cc, bounds = _assert_same_as_references(spec, abscissae, steps)
            assert [r["bound"] for r in verify_comb(cc)] == bounds

    def test_constructions_cover_the_pinned_digests(self):
        assert {(g, a) for g, a, _ in COMB_DIGESTS} <= {
            (g, a) for g in ("log1p", "sqrt", "pow:0.5", "pow:0.3") for a in _ABSCISSAE}
        assert {steps for _, _, steps in COMB_DIGESTS} <= set(range(1, 17))

    def test_random_combs(self):
        rng = np.random.default_rng(16)
        for _ in range(3000):
            k = int(rng.integers(1, 18))
            if rng.random() < 0.5:  # small integers make equal distances likely
                a = np.sort(rng.choice(np.arange(1, 40), k, replace=False))
                b = np.sort(rng.choice(np.arange(-20, 60), k, replace=False))
            else:
                a = np.sort(rng.uniform(0.01, 50.0, k))
                b = np.sort(rng.uniform(-5.0, 200.0, k))
            if len(set(a)) < k or len(set(b)) < k:
                continue
            dom = Comb(zip(a.tolist(), b.tolist()))
            t0 = float(rng.uniform(min(0.0, b[0]) - 5.0, dom.extent))
            t1 = float(rng.uniform(t0, dom.extent))
            heights = sorted({float(x) for x in b if t0 < x < t1} | {t1})
            assert _close(_axis_integrals(dom, t0, heights), _min_axis_integrals(dom, t0, heights))

    @pytest.mark.parametrize("dom", [Koebe(0j), Koebe(2 + 1j), HalfPlaneRight(-1 + 0j),
                                     Sector(0j, math.pi / 4, math.pi / 4),
                                     Sector(0.5j, math.pi, math.pi)], ids=repr)
    def test_segments(self, dom):
        rng = np.random.default_rng(400)
        for _ in range(400):
            t0 = abs(dom.p) + math.exp(rng.uniform(-3.0, 5.0))
            t1 = t0 * math.exp(rng.uniform(0.0, 18.0))
            assert quasihyp_lower(dom, t0, t1) == _min_axis_integrals(dom, t0, [t1])[0]

    def test_gauge_not_positive_at_the_first_onset(self):
        # g(x_1) <= 0 satisfies the constraint at lo = x_1, which no
        # bisection tests, so the last halving moves hi down onto it
        cc, _ = _assert_same_as_references(lambda t: math.log1p(t) - 2.0, [1.0, 1.5, 3.0, 4.5], 3)
        assert cc.b[1] == cc.x[0]


class TestToothSearch:
    """The concave built-in gauges bisect inside a certified bracket and
    give the bits of all 60 bisections; other gauges run the plain loop."""

    @staticmethod
    def _spy_brackets(monkeypatch):
        results, bracket = [], comb._bracket

        def spy(*args):
            results.append(bracket(*args))
            return results[-1]

        monkeypatch.setattr(comb, "_bracket", spy)
        return results

    def test_random_abscissae_match_full_bisection(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            a = np.cumsum(np.exp(rng.uniform(-4.0, 2.0, 17))).tolist()
            p = float(rng.uniform(0.01, 0.69))
            for spec in ("log1p", "sqrt", "pow:0.5", "pow:0.3", ("pow", p)):
                cc = build_comb(spec, a, 16)
                assert (cc.b, cc.x, cc.constraint) == _full_bisection(spec, a, 16), (spec, a)

    def test_every_linear_step_is_decided(self, monkeypatch):
        # 4 gauges x 16 step counts: every step certifies its bracket, and
        # g is called about 18 times a step where the plain loop takes 56;
        # the one loop decides by comparison every midpoint outside the
        # bracket, also after the first one inside, and no probe runs
        brackets = self._spy_brackets(monkeypatch)
        calls = [0]

        def counted(spec):
            name, g = gauge(spec)

            def g_counted(t):
                calls[0] += 1
                return g(t)

            return name, g_counted

        monkeypatch.setattr(comb, "gauge", counted)
        steps = 0
        for spec in ("log1p", "sqrt", "pow:0.5", "pow:0.3"):
            for n in range(1, 17):
                build_comb(spec, "linear", n)
                steps += n
        assert len(brackets) == steps == 544
        assert None not in brackets
        assert calls[0] <= 18.2 * steps

    @pytest.mark.parametrize("spec", [math.sqrt], ids=["sqrt_callable"])
    def test_other_gauges_take_the_plain_loop(self, spec, monkeypatch):
        # a callable named sqrt is not the built-in sqrt: the spec decides
        assert gauge(spec)[0] == "sqrt"
        brackets = self._spy_brackets(monkeypatch)
        cc = build_comb(spec, "linear", 8)
        assert brackets == []
        assert (cc.b, cc.x, cc.constraint) == _full_bisection(spec, "linear", 8)


def _runs(dom, t0, t1):
    return _axis_runs(dom, _axis_pieces(dom), t0, t1)


def _dropped_lines(teeth, t1):
    """Slits with tops up to t1 whose line a^2 + b^2 - 2br is nowhere
    strictly below both of a lower and a higher slit's: a hull must drop
    each of them, by a pop or by passing it with its front."""
    lines = [(a * a, b) for a, b in teeth if b <= t1]

    def cross(i, j):
        return 0.5 * ((j[0] - i[0]) / (j[1] - i[1]) + i[1] + j[1])

    return sum(any(cross(i, k) <= cross(i, j) for i in lines[:n] for k in lines[n + 1:])
               for n, j in enumerate(lines))


class TestRuns:
    """Each run's piece is the nearest one on all of the run, with no
    tolerance."""

    def test_sqrt_comb_has_33_runs(self):
        # one run below the first top, then per gap the slit below up to
        # the onset x_j and the slit above from there
        cc = build_comb("sqrt", "linear", 16)
        assert len(_runs(cc.domain(), 1e-6, cc.b[-1])) == 33

    def test_run_piece_is_nearest(self):
        # constructed combs never pop a hull line; teeth whose tops come in
        # close clusters do
        rng = np.random.default_rng(19)
        dropped = 0
        for _ in range(600):
            k = int(rng.integers(2, 14))
            if rng.random() < 0.5:  # small integers make equal distances likely
                a = np.sort(rng.choice(np.arange(1, 40), k, replace=False)).astype(float)
                b = np.sort(rng.choice(np.arange(0, 3 * k), k, replace=False)) / 4.0
            else:
                a = np.sort(rng.uniform(0.05, 40.0, k))
                gaps = np.where(rng.random(k) < 0.6, rng.uniform(0.0, 0.05, k),
                                rng.uniform(1.0, 30.0, k))
                b = np.cumsum(gaps) - 5.0
            if len(set(a)) < k or len(set(b)) < k:
                continue
            dom = Comb(zip(a.tolist(), b.tolist()))
            pieces = _axis_pieces(dom)
            t0 = float(rng.uniform(min(0.0, b[0]) - 2.0, dom.extent))
            t1 = float(rng.uniform(t0, dom.extent))
            runs = _runs(dom, t0, t1)
            assert [lo for lo, _, _ in runs] + [t1] == [t0] + [hi for _, hi, _ in runs]
            assert all(lo < hi for lo, hi, _ in runs)
            assert {x for x in b.tolist() if t0 < x < t1} <= {hi for _, hi, _ in runs}
            for lo, hi, piece in runs:
                for q in (lo + 0.25 * (hi - lo), 0.5 * (lo + hi), lo + 0.75 * (hi - lo)):
                    assert _axis_distance(piece, q) == min(_axis_distance(p, q) for p in pieces)
            dropped += _dropped_lines(dom.teeth, t1)
        assert dropped >= 500


class TestHugeAbscissae:
    """Slit abscissae whose square overflows a double are refused by name,
    on the quadrature path and the construction path alike; just below,
    the sweep still matches 50 digits."""

    MESSAGE = "slit abscissa 1e+200 is too large: its square overflows a double"

    def test_quadrature(self):
        # the sweep on inf squares gave 0.375 against 0.48773 from mp_quasihyp
        with pytest.raises(DomainError, match=re.escape(self.MESSAGE)):
            quasihyp_lower(Comb([(1e200, 1.0), (2e200, 3e200)]), 0.5, 3e200)
        dom = Comb([(1e153, 1.0), (1.2e154, 3e153)])
        assert _close([quasihyp_lower(dom, 0.5, 3e153)], [mp_quasihyp(dom, 0.5, 3e153)])

    def test_construction(self, capsys):
        # the doubling search used to give up with "gauge grows too fast"
        with pytest.raises(DomainError, match=re.escape(self.MESSAGE)):
            build_comb("log1p", [1e200, 2e200, 3e200], steps=2)
        with pytest.raises(SystemExit) as exc:
            main(["comb", "--abscissae", "1e200,2e200,3e200", "--steps", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"


#: sha256 of the construction JSON and of the ratio CSV of `hypspeed comb`:
#: any change to a bound, a tooth height or the order of a sum shows here
COMB_DIGESTS = {
    ("log1p", "linear", 10): (
        "1a4d8f021af40b5a8e95653f70fb5d4b4102076f4a9e4dc111ee0f06a0e04aec",
        "05b48173e693d698bcb3a83c934c8759dc1c15a3ef399d08ee0d52a0a3c17312"),
    ("log1p", "geom:2", 16): (
        "38a6d959aec51e54d7f6eecf046caec34264b5418546234748f94d9452890d5f",
        "e2ed8aedb2a3eaced4eb3f919d46c7c6fdf5300a50cd0b94e3392fa8f0d07a7a"),
    ("sqrt", "linear", 10): (
        "675c22fb66c96257485f8b6d965672adf8559a50c3e9a33928022fbe30761dd1",
        "382733b8968834c8296de082d7be98941ecec7ed9614493519ecfde9466ef83b"),
    ("sqrt", "geom:2", 16): (
        "97c93df22d2a47f2751296a1139b85d19ee26700721c078e1a0d4e91c5a4ee45",
        "825bf1fe3e05821ea6031eaac1309fd614374162ffd1f7c1ae8198227f4b1dac"),
    ("pow:0.5", "linear", 10): (
        "a2fcf01443722141e862340e64a0b37f0eca1e70479606bc2bb564adf244de93",
        "382733b8968834c8296de082d7be98941ecec7ed9614493519ecfde9466ef83b"),
    ("pow:0.5", "geom:2", 16): (
        "fa9f5176adef6a1148a82395eeb6986db6347da34ea5e1f6c44bd2904122f95f",
        "825bf1fe3e05821ea6031eaac1309fd614374162ffd1f7c1ae8198227f4b1dac"),
    ("pow:0.3", "linear", 10): (
        "a9e9fcfeaca16b5f2ded5773d8e63f10576b07080a9c24606d28a7326aedcbc4",
        "5eebf029fa8a62999cbfc1898527839e1381d9f11d77d66d8ffd5ec21cc4f5d5"),
    ("pow:0.3", "geom:2", 16): (
        "1703de05b7b3ab7f7a016c35f786b430dbec81dbafc41996752770f475435bb0",
        "564c283d6d4f9dd0d3978fdea9ffd654aef4b9e35e9643dcabaa3db268deb16f"),
}


@pytest.mark.parametrize("gauge_spec, abscissae, steps", sorted(COMB_DIGESTS))
def test_comb_output_bytes_pinned(gauge_spec, abscissae, steps, tmp_path):
    cjson, ccsv = tmp_path / "comb.json", tmp_path / "ratios.csv"
    with pytest.raises(SystemExit) as exc:
        main(["comb", "--gauge", gauge_spec, "--abscissae", abscissae, "--steps", str(steps),
              "-o", str(cjson), "--ratios", str(ccsv)])
    assert exc.value.code == 0
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (cjson, ccsv))
    assert digests == COMB_DIGESTS[gauge_spec, abscissae, steps]


@functools.cache
def _pinned_bounds_vs_oracle(teeth, heights):
    # 30 digits leave 16 to spare against 1e-14
    return mp_quasihyp(Comb(teeth), [1e-6] * len(heights), list(heights), dps=30)


@pytest.mark.parametrize("gauge_spec, abscissae, steps", sorted(COMB_DIGESTS))
def test_pinned_comb_bounds_match_oracle(gauge_spec, abscissae, steps):
    # sqrt and pow:0.5 build the same teeth, which the cache shares
    cc = build_comb(gauge_spec, abscissae, steps)
    want = _pinned_bounds_vs_oracle(cc.domain().teeth, cc.b[1:])
    for row, w in zip(verify_comb(cc), want):
        assert abs(row["bound"] - w) <= 1e-14 * w
