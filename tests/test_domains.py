import cmath
import dataclasses
import functools
import math
import random
import warnings

import numpy as np
import pytest

from hypspeed import (Comb, DiscPoint, HalfPlaneRight, Koebe, OmegaSign, Sector,
                      Strip, UnsupportedDomainOperation, contains,
                      default_grid, delta, delta_pm, domain_from_json,
                      domain_to_json, domains, k_domain, koenigs_semigroup,
                      quasihyp_lower, sample_speeds, to_halfplane)
from hypspeed.comb import build_comb
from hypspeed.domains import DomainError
from hypspeed.semigroups import model_point

from oracles import (brute_delta_pm, brute_force_distance, comb_boundary_points, mp_contains,
                     mp_delta, mp_quasihyp, sector_boundary_points)

#: the teeth (1, 1), (2, 8.61) and (3, 55.7), and a point on the line of
#: the second slit, above its tip
BUILT_COMB = build_comb("sqrt", steps=2).domain()
ON_SLIT_LINE = complex(BUILT_COMB.teeth[1][0], BUILT_COMB.teeth[1][1] + 1.0)


class TestBuild:
    def test_valid_sector(self):
        assert domain_from_json({"type": "sector", "p": [0, 0], "alpha": math.pi / 4,
                                 "beta": math.pi / 4}) == Sector(0j, math.pi / 4, math.pi / 4)

    def test_sector_zero_opening(self):
        with pytest.raises(DomainError):
            Sector(0j, 0.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(5e-324, 0.0), (1e-310, 1e-310), (0.0, 1.7e-308)])
    def test_sector_too_narrow(self, alpha, beta):
        # pi/(alpha+beta) overflows, so the map's power has no finite exponent
        with pytest.raises(DomainError, match=r"pi/\(alpha\+beta\) overflows"):
            Sector(0j, alpha, beta)
        with pytest.raises(DomainError, match="overflows"):
            domain_from_json({"type": "sector", "p": [0, 0], "alpha": alpha, "beta": beta})

    def test_comb_monotonicity(self):
        with pytest.raises(DomainError):
            Comb([(2.0, 1.0), (1.0, 2.0)])
        with pytest.raises(DomainError):
            Comb([(1.0, 2.0), (2.0, 1.0)])

    def test_strip_width(self):
        with pytest.raises(DomainError):
            Strip(0.0)

    @pytest.mark.parametrize("r", [5e-324, 1e-310, 1.7e-308])
    def test_strip_too_thin(self, r):
        # pi/r overflows, so the chain's exponential link has no finite scale
        with pytest.raises(DomainError, match=f"strip width {r!r}"):
            Strip(r)

    def test_json_round_trip(self):
        for dom in (HalfPlaneRight(1 - 2j), Strip(0.7), Sector(1j, 0.3, 2.0),
                    Koebe(2 + 0.5j), Comb([(1, 1), (2, 5)])):
            assert domain_from_json(domain_to_json(dom)) == dom

    @pytest.mark.parametrize("spec", [
        {"type": "halfplane", "p": [math.nan, 0]},
        {"type": "halfplane", "p": [0, math.inf]},
        {"type": "sector", "p": [-math.inf, 0], "alpha": 0.5, "beta": 0.5},
        {"type": "koebe", "p": [0, math.nan]},
        {"type": "comb", "teeth": [[math.nan, 1]]},
        {"type": "comb", "teeth": [[1, 1], [2, math.inf]]},
    ], ids=lambda spec: spec["type"])
    def test_non_finite(self, spec):
        with pytest.raises(DomainError):
            domain_from_json(spec)

    @pytest.mark.parametrize("dom,w", [
        (HalfPlaneRight(complex(1e308, 1e308)), 1.5e308 + 0j),
        (Koebe(complex(1e300, -1e300)), 1j),
        (HalfPlaneRight(1e16), 2e16 + 1j),
        (HalfPlaneRight(-2.0 ** 52), 1j),
        (Sector(2.0 ** 52 * 1j, 1.0, 1.0), 2.0 ** 53 * 1j),
    ])
    def test_far_offset_speeds_match_the_origin(self, dom, w):
        # orbits run at h(z) - p + it, so from any apex, 2**52 and beyond
        # included, they give the speeds of the same domain at p = 0 bit for bit
        grid = default_grid(1.0, 1e12, 16)
        far, near = koenigs_semigroup(dom), koenigs_semigroup(dataclasses.replace(dom, p=0j))
        for z in (DiscPoint(0j), DiscPoint(0.3 - 0.4j)):
            assert sample_speeds(far, grid, z) == sample_speeds(near, grid, z)
        assert contains(dom, w) and delta(dom, w) > 0.0

    def test_far_offset_domain_keeps_its_quadrature(self):
        assert quasihyp_lower(HalfPlaneRight(-2.0 ** 52), 1.0, 2.0) == 0.25 / 2.0 ** 52

    def test_offset_below_2_52_keeps_its_base_point(self):
        p = complex(2.0 ** 52 - 1.0, -(2.0 ** 52 - 1.0))
        assert model_point(koenigs_semigroup(HalfPlaneRight(p))) == p + 1.0
        assert model_point(koenigs_semigroup(Koebe(p))) == p + 1j

    def test_malformed(self):
        with pytest.raises(DomainError):
            domain_from_json({"type": "sector", "p": [0, 0]})
        with pytest.raises(DomainError):
            domain_from_json({"type": "nope"})
        for spec in (None, [], "halfplane", 3, Strip(1.0)):  # not a JSON object
            with pytest.raises(DomainError, match="malformed domain spec"):
                domain_from_json(spec)


def _assert_hugging_points_decided(dom, up):
    """Points at angles down to 1e-320 from the axial ray of the sector dom
    that runs upwards (up = 1) or downwards (up = -1), and on it: a point
    and a batch decide alike, and as the set definition does at 400
    digits."""
    rng = np.random.default_rng(25)
    y = up * 10.0 ** rng.uniform(-3.0, 12.0, 300)
    x = rng.choice([-1.0, 1.0], 300) * y * 10.0 ** rng.uniform(-330.0, -1.0, 300)
    w = dom.p + np.concatenate([x + 1j * y, 1j * y[:20]])
    want, _ = mp_contains(dom, w, dps=400)
    batch = contains(dom, w)
    assert np.array_equal(batch, [contains(dom, complex(v)) for v in w])
    assert np.array_equal(batch, want)
    assert want.any() and not want.all()


class TestMembership:
    def test_halfplane(self):
        assert contains(HalfPlaneRight(0), 1.0) and not contains(HalfPlaneRight(0), -1.0)

    def test_koebe_slit(self):
        k = Koebe(0)
        assert not contains(k, -1j) and contains(k, 1j) and contains(k, -1.0 + 0j)

    def test_sector_wraps_past_cut(self):
        # alpha = beta = pi is the plane minus the downward slit
        s = Sector(0j, math.pi, math.pi)
        assert contains(s, -1.0 + 0j) and not contains(s, -1j) and contains(s, 1j)

    def test_comb(self):
        c = Comb([(1.0, 1.0), (2.0, 3.0)])
        assert not contains(c, 1.0 - 5j)
        assert contains(c, 1.0 + 5j)
        assert contains(c, 0.5 - 5j)

    # each sector's ray at alpha = 0 or beta = 0 is the upward one, which
    # the oracle holds exactly
    @pytest.mark.parametrize("dom", [Sector(0j, math.pi, 0.0), Sector(-1 + 0j, math.pi / 2, 0.0),
                                     Sector(0j, 0.0, 1.2), Sector(2 + 1j, 0.0, math.pi)], ids=repr)
    def test_points_hugging_an_axial_ray(self, dom):
        _assert_hugging_points_decided(dom, 1.0)

    # the ray at the double alpha = pi or beta = pi is the downward one,
    # which the oracle also holds exactly
    @pytest.mark.parametrize("dom", [Sector(0j, math.pi, 0.0), Sector(2 + 1j, 0.0, math.pi),
                                     Sector(0.5j, math.pi, math.pi)], ids=repr)
    def test_points_hugging_a_downward_axial_ray(self, dom):
        _assert_hugging_points_decided(dom, -1.0)

    @pytest.mark.parametrize("dom, e", [(Sector(0j, math.pi / 4, math.pi / 4), 1 + 1j),
                                        (Sector(0j, math.pi / 4, math.pi / 4), -1 + 1j),
                                        (Sector(0j, 3 * math.pi / 4, 0.5), 1 - 1j)], ids=str)
    def test_point_on_a_diagonal_ray_is_outside(self, dom, e):
        # the double alpha or beta puts these points on or just past the
        # ray; one rounded a last bit inwards took them as inside
        w = e * 10.0 ** np.linspace(-6.0, 12.0, 50)
        assert not mp_contains(dom, w)[0].any()
        assert not contains(dom, e) and not contains(dom, w).any()
        with pytest.raises(DomainError):
            delta(dom, e)
        with pytest.raises(DomainError):
            k_domain(dom, e, dom.p + 1j)

    @pytest.mark.parametrize("dom, inside, outside", [
        (Sector(0j, 5e-16, 1.0), 2 + 1e16j, 6 + 1e16j),
        (Sector(0j, 1.0, 5e-16), -2 + 1e16j, -6 + 1e16j),
        (Sector(0j, math.nextafter(math.pi, 0.0), 0.0), 8 - 1e16j, 2 - 1e16j),
    ], ids=["alpha", "beta", "below_pi"])
    def test_tiny_tilt_is_kept(self, dom, inside, outside):
        # the ray is 5e-16 (5.7e-16) off its axis, so 5 (5.7) away from it
        # at height 1e16, with the inside point between the two
        assert list(mp_contains(dom, [inside, outside])[0]) == [True, False]
        assert contains(dom, inside) and not contains(dom, outside)
        want = mp_delta(dom, inside)
        assert abs(delta(dom, inside) - want) <= 1e-15 * want

    @pytest.mark.parametrize("dom, w", [
        (HalfPlaneRight(0), complex(1, math.nan)), (HalfPlaneRight(0), complex(math.inf, 0)),
        (Strip(1), complex(0.5, math.nan)), (Strip(1), complex(0.5, math.inf)),
        (Koebe(0), complex(math.nan, 1)), (Comb([(1, 1), (2, 5)]), complex(math.nan, 0.5)),
        (Sector(0j, math.pi / 4, math.pi / 4), complex(0, math.inf)),
        (HalfPlaneRight(0), complex(1, math.inf)), (Koebe(0), complex(math.inf, 1)),
        (Sector(0j, math.pi, 0.0), complex(1, -math.inf))], ids=str)
    def test_non_finite_points_are_outside(self, dom, w):
        # each was inside, and delta gave NaN, inf or 0.5 with a warning; an
        # axial ray's zero part times an infinite part warned in a batch
        batch = np.array([w, 0.5 + 2j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not contains(dom, w) and not mp_contains(dom, [w])[0].any()
            assert list(contains(dom, batch)) == [False, True]
            for q in (w, batch):
                with pytest.raises(DomainError, match="is not in the domain"):
                    delta(dom, q)
            with pytest.raises(DomainError, match="is not in Omega"):
                delta_pm(dom, OmegaSign("plus", 0.5 + 2j), w)

    @pytest.mark.parametrize("dom", [Sector(0j, 0.3, 1.1), Sector(0j, math.pi, 0.0),
                                     Sector(1 + 1j, 2.5, 2.0), HalfPlaneRight(0), Strip(1.0),
                                     Koebe(0), Comb([(1, 1), (2, 3)])], ids=repr)
    def test_point_path_calls_no_numpy(self, dom, monkeypatch):
        # a numpy call on one point costs more than the whole decision
        class NoNumpy:
            ndarray = np.ndarray

            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} called for one point")

        want = [contains(dom, w) for w in (1 + 1j, -1 + 0.5j, 3j, 0.5 - 2j)]
        monkeypatch.setattr(domains, "np", NoNumpy())
        assert [contains(dom, w) for w in (1 + 1j, -1 + 0.5j, 3j, 0.5 - 2j)] == want
        assert all(type(x) is bool for x in want)

    def test_starlike(self):
        rng = np.random.default_rng(5)
        for dom in (HalfPlaneRight(0), Strip(2.0), Sector(0j, 0.3, 1.1), Koebe(1j),
                    Comb([(1, 1), (2, 3)])):
            for _ in range(50):
                w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                if contains(dom, w):
                    assert contains(dom, w + 1j * rng.uniform(0, 10))


class TestChains:
    def test_koebe_forward_sqrt(self):
        ch = to_halfplane(Koebe(0))
        assert abs(ch.forward(4j) - 2.0) < 1e-12  # the apex is 0, so u = w

    def test_sector_base_to_one(self):
        for dom in (Sector(0j, 0.4, 0.4), Sector(1 - 1j, 0.2, 1.9), Sector(0j, math.pi, 0.0)):
            ch = to_halfplane(dom)
            assert abs(ch.forward(model_point(koenigs_semigroup(dom)) - ch.p) - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0j, -1 + 0j, 2 + 1j, -1 + 2j])
    def test_halfplane_and_koebe_are_sectors(self, p):
        # one map for the sectors (pi, 0) and (pi, pi) and the domains that
        # declare those angles
        assert to_halfplane(HalfPlaneRight(p)) == to_halfplane(Sector(p, math.pi, 0.0))
        assert to_halfplane(Koebe(p)) == to_halfplane(Sector(p, math.pi, math.pi))

    def test_map_constants_keep_their_bits(self):
        # base = i e^{i turn} and rot = -i e^{-i turn} as cmath rounds
        # them, bit for bit and signed zeros included, except at the axial
        # turns 0 and +-pi/2, where they are exact with positive zeros; a
        # 1e-15 snap used to zero the near-axial ones too
        def bits(w):
            return w.real.hex(), w.imag.hex()

        def axial(w):
            return complex(w.real if abs(w.real) > 0.5 else 0.0,
                           w.imag if abs(w.imag) > 0.5 else 0.0)

        rng = random.Random(27)
        halves = [0.0, math.pi / 2, math.pi, math.pi / 4]
        doms = [HalfPlaneRight(), Koebe()]
        while len(doms) < 3000:
            alpha = rng.choice(halves + [rng.uniform(0.0, math.pi)] * 3)
            beta = rng.choice([rng.choice(halves), rng.uniform(0.0, math.pi),
                               alpha + rng.uniform(-4e-15, 4e-15)])
            if 0.0 <= beta <= math.pi and alpha + beta > 0.0:
                doms.append(Sector(0j, alpha, beta))
        for dom in doms:
            turn = 0.5 * (dom.beta - dom.alpha)
            want = 1j * cmath.exp(1j * turn), -1j * cmath.exp(-1j * turn)
            if turn in (0.0, math.pi / 2, -math.pi / 2):
                want = tuple(axial(w) for w in want)
            fmap = to_halfplane(dom)
            assert (bits(fmap.base), bits(fmap.rot)) == tuple(map(bits, want)), dom

    def test_strip_base_to_one(self):
        assert abs(to_halfplane(Strip(2.0)).forward(1.0) - 1.0) < 1e-12

    def test_comb_has_no_chain(self):
        comb = Comb([(1, 1)])
        for _ in range(2):  # a failed build leaves nothing behind
            with pytest.raises(UnsupportedDomainOperation):
                to_halfplane(comb)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        cases = [(HalfPlaneRight(0.5j), lambda: complex(rng.uniform(0.1, 5), rng.uniform(-5, 5))),
                 (Strip(1.3), lambda: complex(rng.uniform(0.1, 1.2), rng.uniform(-20, 20))),
                 (Sector(0j, 0.9, 0.4),
                  lambda: cmath.rect(rng.uniform(0.1, 10),
                                     math.pi / 2 - 0.9 + rng.uniform(0.05, 1.2))),
                 (Koebe(0j), lambda: cmath.rect(rng.uniform(0.1, 10),
                                                rng.uniform(-math.pi / 2 + 0.05,
                                                            3 * math.pi / 2 - 0.05)))]
        for dom, draw in cases:
            ch = to_halfplane(dom)
            for _ in range(1000):
                w = draw()
                back = ch.p + ch.inverse(ch.forward(w - ch.p))
                assert abs(back - w) <= 1e-10 * (1 + abs(w))


CHAIN_ONCE_DOMAINS = [HalfPlaneRight(-1 + 2j), Strip(3.0), Sector(1 - 2j, 0.7, 1.9), Koebe(2 + 1j)]


class TestChainOnce:
    @pytest.mark.parametrize("dom", CHAIN_ONCE_DOMAINS, ids=lambda d: type(d).__name__)
    def test_same_chain_object(self, dom):
        assert to_halfplane(dom) is to_halfplane(dom)
        # an equal domain object builds its own, equal chain
        assert to_halfplane(domain_from_json(domain_to_json(dom))) == to_halfplane(dom)

    @pytest.mark.parametrize("dom", CHAIN_ONCE_DOMAINS, ids=lambda d: type(d).__name__)
    def test_table_builds_the_map_once(self, dom, monkeypatch):
        # a 512-point speed table builds the domain's map once
        dom = domain_from_json(domain_to_json(dom))  # a fresh object
        built = []
        build = domains._build_map
        monkeypatch.setattr(domains, "_build_map", lambda d: built.append(d) or build(d))
        assert len(sample_speeds(koenigs_semigroup(dom), default_grid(points=512))) == 512
        assert built == [dom]

    @pytest.mark.parametrize("dom", CHAIN_ONCE_DOMAINS, ids=lambda d: type(d).__name__)
    def test_chain_outside_equality_hash_and_repr(self, dom):
        fresh, built = (domain_from_json(domain_to_json(dom)) for _ in range(2))
        to_halfplane(built)
        assert fresh == built and hash(fresh) == hash(built)
        assert repr(fresh) == repr(built) and domain_to_json(fresh) == domain_to_json(built)
        assert {fresh: 1}[built] == 1


class TestDelta:
    def test_halfplane(self):
        assert delta(HalfPlaneRight(0), 1.0) == 1.0

    def test_strip(self):
        assert delta(Strip(2.0), 0.5 + 7j) == 0.5

    def test_koebe_tip(self):
        assert delta(Koebe(0), 3j) == 3.0
        assert delta(Koebe(0), -2.0 + 0j) == 2.0

    def test_outside_raises(self):
        with pytest.raises(DomainError):
            delta(HalfPlaneRight(0), -1.0)

    def test_sector_against_brute_force(self):
        dom = Sector(0.5 - 0.5j, 0.7, 1.9)
        pts = sector_boundary_points(dom)
        rng = np.random.default_rng(8)
        for _ in range(60):
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 6))
            if contains(dom, w):
                assert delta(dom, w) == pytest.approx(
                    brute_force_distance(w, pts), abs=2e-3)

    @pytest.mark.parametrize("dom, sign, w", [
        (Sector(0j, math.pi, 0.0), None, 1e-3 + 1e6j),
        (Sector(0j, 0.0, 1.2), None, -1 + 1e8j),
        (Sector(-1 + 0j, math.pi / 2, 0.0), None, 0.5 + 1e7j),
        # the complement of this sector lies left of Re = 1, so Omega^+ has
        # the sector's own distance
        (Sector(0j, math.pi, 0.0), OmegaSign("plus", 1), 1 + 1e8j),
        # the downward ray at the double alpha = pi, which the oracle took
        # 1.2e-16 off its axis, 1.2e-8 from these points
        (Sector(0j, math.pi, 0.0), None, 1e-3 - 1e8j),
        (Sector(0j, math.pi, 0.0), OmegaSign("plus", 1), 1e-3 - 1e8j),
        (Sector(0j, math.pi, math.pi), None, -1e-3 - 1e8j),
        (Sector(2 + 1j, 0.0, math.pi), None, 1.5 - 1e12j),
        (HalfPlaneRight(-1 + 2j), None, 1e-3 + 1e8j),
        (HalfPlaneRight(-1 + 2j), OmegaSign("plus", 1), 1e-3 - 1e8j),
        (Koebe(2 + 1j), None, 2.001 - 1e8j),
        (Koebe(2 + 1j), None, 2.5 + 3j),
        # references on the slit's line, above its tip
        (Koebe(2 + 1j), OmegaSign("plus", 2 + 2j), 1.999 - 1e8j),
        (Koebe(2 + 1j), OmegaSign("minus", 2 + 2j), 2.5 + 3j),
        (Strip(3.0), None, 2.999 + 1e8j),
        (Strip(3.0), OmegaSign("minus", 1.5), 2.999 - 1e8j),
        (BUILT_COMB, None, 2.001 - 1e3j),
        (BUILT_COMB, None, 2.25 + 9.1j),
        (BUILT_COMB, OmegaSign("minus", ON_SLIT_LINE), 2.25 + 9.1j),
        (BUILT_COMB, OmegaSign("minus", ON_SLIT_LINE), 2.001 - 1e3j),
    ], ids=["flat", "alpha0", "quarter", "flat_plus", "flat_down", "flat_down_plus",
            "slit", "beta_pi", "halfplane", "halfplane_plus", "koebe", "koebe_tip",
            "koebe_plus_on_line", "koebe_minus_on_line", "strip", "strip_minus", "comb",
            "comb_tip", "comb_minus_on_line", "comb_minus_on_line_below"])
    def test_axial_ray_matches_oracle(self, dom, sign, w):
        # the nearest ray is an axial one; the upward ray taken as
        # exp(i pi/2), with its cosine 6.1e-17, was Im w * 6.1e-17 off.  A
        # reference on a vertical ray's line takes the crossing at its apex
        got = delta(dom, w) if sign is None else delta_pm(dom, sign, w)
        want = mp_delta(dom, w)
        assert abs(got - want) <= 1e-15 * want

    def test_comb_plateau(self):
        c = Comb([(1.0, 1.0), (2.0, 6.0)])
        x1 = 1.0 + math.sqrt(3.0)
        for r in np.linspace(x1, 6.0, 9):
            assert delta(c, 1j * r) == pytest.approx(2.0, abs=1e-12)
        # below the crossover the first tooth tip is nearer
        assert delta(c, 1j * 2.0) == pytest.approx(math.hypot(1.0, 1.0), abs=1e-12)

    def test_comb_against_brute_force(self):
        c = Comb([(1.0, 1.0), (2.0, 6.0), (3.5, 9.0)])
        pts = comb_boundary_points(c.teeth)
        rng = np.random.default_rng(9)
        for _ in range(60):
            w = complex(rng.uniform(-3.4, 3.4), rng.uniform(-4, 8.5))
            if contains(c, w):
                assert delta(c, w) == pytest.approx(brute_force_distance(w, pts), abs=1e-2)

    def test_comb_extent_guard(self):
        c = Comb([(1.0, 1.0), (2.0, 6.0)])
        with pytest.raises(DomainError):
            delta(c, 1j * 100.0)
        # Omega^+- takes the same guard: omitted teeth lie farther out and
        # higher up, so past the extent they could be nearer
        for side in ("plus", "minus"):
            for w in (1j * 100.0, 2.5 + 1j, np.array([1j, 1j * 6.5])):
                with pytest.raises(DomainError, match="materialised comb extent"):
                    delta_pm(c, OmegaSign(side, 1j), w)


class TestDeltaPm:
    def test_halfplane_minus_is_plane(self):
        dom = HalfPlaneRight(0)
        assert delta_pm(dom, OmegaSign("minus", 1.0), 1 + 5j) == math.inf

    def test_halfplane_plus(self):
        dom = HalfPlaneRight(0)
        assert delta_pm(dom, OmegaSign("plus", 1.0), 1 + 7j) == 1.0

    def test_koebe_symmetric(self):
        dom = Koebe(0)
        for t in (0.5, 2.0, 9.0):
            d_plus = delta_pm(dom, OmegaSign("plus", 1j), 1j * t)
            d_minus = delta_pm(dom, OmegaSign("minus", 1j), 1j * t)
            assert d_plus == d_minus == pytest.approx(t, abs=1e-12)

    def test_monotone_vs_delta(self):
        rng = np.random.default_rng(12)
        doms = [HalfPlaneRight(0), Strip(2.0), Sector(0j, 0.8, 0.8), Koebe(0),
                Sector(0j, math.pi, math.pi), Comb([(1, 1), (2, 4)])]
        for dom in doms:
            ref = 1j * 0.5 if isinstance(dom, (Koebe,)) else None
            if ref is None:
                ref = {HalfPlaneRight: 1.0 + 0j, Strip: 1.0 + 0j}.get(type(dom), 1j)
            if not contains(dom, ref):
                ref = model_point(koenigs_semigroup(dom)) if not isinstance(dom, Comb) else 0j
            for _ in range(40):
                w = complex(rng.uniform(-4, 4), rng.uniform(-3, 5))
                if not contains(dom, w):
                    continue
                if isinstance(dom, Comb) and (abs(w.real) > dom.max_abscissa
                                              or w.imag > dom.extent):
                    continue
                dv = delta(dom, w)
                for side in ("plus", "minus"):
                    assert delta_pm(dom, OmegaSign(side, ref), w) >= dv - 1e-12

    def test_sector_flat_sides(self):
        # iV(pi, 0) is the right half plane; ref at the base point 1
        dom = Sector(0j, math.pi, 0.0)
        assert delta_pm(dom, OmegaSign("minus", 1.0 + 0j), 1 + 9j) == math.inf
        assert delta_pm(dom, OmegaSign("plus", 1.0 + 0j), 1 + 9j) == pytest.approx(1.0, abs=1e-12)

    def test_outside_enlarged_domain(self):
        with pytest.raises(DomainError):
            delta_pm(HalfPlaneRight(0), OmegaSign("plus", 1.0), -5.0 + 0j)

    @pytest.mark.parametrize("dom, ref", [
        (HalfPlaneRight(-1 + 2j), 1 + 0j), (Koebe(2 + 1j), 0.5 + 0j),
        (Koebe(2 + 1j), 2 + 2j), (Strip(3.0), 1.5 + 0j), (BUILT_COMB, 1j),
        (BUILT_COMB, ON_SLIT_LINE), (BUILT_COMB, -1 + 2j),
    ], ids=["halfplane", "koebe", "koebe_on_line", "strip", "comb", "comb_on_line",
            "comb_on_mirror_line"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_matches_brute_force(self, dom, ref, side):
        # every domain takes the one path over its boundary rays; a
        # reference on a slit's line, above its tip, takes the crossing at
        # the tip
        rng = np.random.default_rng(29)
        w = ref + rng.normal(0.0, 3.0, 150) + 1j * rng.normal(0.0, 4.0, 150)
        kept = (w.real > ref.real) if side == "plus" else (w.real < ref.real)
        q, sign = w[contains(dom, w) | kept], OmegaSign(side, ref)
        if isinstance(dom, Comb):  # the points past the extent are refused
            past = (q.imag > dom.extent) | (np.abs(q.real) > dom.max_abscissa)
            assert past.any() and np.count_nonzero(~past) > 50
            for w_past in q[past][:5]:
                with pytest.raises(DomainError):
                    delta_pm(dom, sign, w_past)
            q = q[~past]
        got, want = delta_pm(dom, sign, q), brute_delta_pm(dom, sign, q)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        # the brute-force sample lies in the set, so it never undershoots
        assert np.all(got[finite] <= want[finite] + 1e-12)
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=2e-3)


class TestKDomain:
    def test_same_point(self):
        assert k_domain(Strip(1.0), 0.5, 0.5) == 0.0

    def test_koebe_quarter_log(self):
        assert k_domain(Koebe(0), 1j, math.e ** 4 * 1j) == pytest.approx(1.0, abs=1e-12)

    def test_strip_vertical(self):
        r = 0.9
        assert k_domain(Strip(r), r / 2, r / 2 + 3j) == pytest.approx(
            math.pi * 3 / (2 * r), abs=1e-10)

    def test_comb_unsupported(self):
        with pytest.raises(UnsupportedDomainOperation):
            k_domain(Comb([(1, 1)]), 0j, 1j)

    def test_outside(self):
        with pytest.raises(DomainError):
            k_domain(Koebe(0), -1j, 1j)


QUAD_DOMAINS = [Koebe(0j), Sector(0j, math.pi / 4, math.pi / 4),
                Sector(0.5j, math.pi, math.pi), HalfPlaneRight(-1 + 0j),
                Koebe(2 + 1j), Sector(1 - 2j, 0.7, 1.9)]


class TestQuasihyp:
    def test_empty_segment(self):
        assert quasihyp_lower(Koebe(0), 2.0, 2.0) == 0.0

    def test_koebe_quarter_log(self):
        T = 31.7
        assert quasihyp_lower(Koebe(0), 1.0, T) == pytest.approx(0.25 * math.log(T), rel=1e-9)

    def test_halfplane_constant_density(self):
        # delta(ir) = 1 throughout, so the bound is just length/4
        assert quasihyp_lower(HalfPlaneRight(-1.0), 0.0, 4.0) == pytest.approx(1.0, rel=1e-9)

    def test_comb_plateau_piece(self):
        c = Comb([(1.0, 1.0), (2.0, 6.0)])
        x1 = 1.0 + math.sqrt(3.0)
        got = quasihyp_lower(c, x1, 6.0)
        assert got == pytest.approx((6.0 - x1) / (4.0 * 2.0), rel=1e-12)

    def test_comb_exact_vs_quadrature(self):
        # the exact piecewise integral must agree with brute-force quadrature
        c = Comb([(1.0, 1.0), (2.0, 6.0), (3.5, 9.0)])
        lo, hi = 0.25, 8.75
        rs = np.linspace(lo, hi, 200_001)
        vals = 1.0 / delta(c, 1j * rs)
        riemann = 0.25 * float(np.trapezoid(vals, rs))
        assert quasihyp_lower(c, lo, hi) == pytest.approx(riemann, rel=1e-7)

    def test_segment_outside(self):
        with pytest.raises(DomainError, match="segment exits the domain"):
            quasihyp_lower(Strip(1.0), 0.0, 1.0)  # imaginary axis is the wall
        with pytest.raises(DomainError, match="segment exits the domain"):
            quasihyp_lower(HalfPlaneRight(1 + 0j), 0.5, 2.0)

    @pytest.mark.parametrize("t0, t1", [(1.0, math.nan), (math.nan, 2.0), (1.0, math.inf)])
    def test_non_finite_bounds(self, t0, t1):
        with pytest.raises(ValueError, match="must be finite"):
            quasihyp_lower(Koebe(0), t0, t1)

    @pytest.mark.parametrize("t1", [1e16, 1e20, 1e300])
    def test_large_ratio_matches_oracle(self, t1):
        # delta(ir) = r: the exact value is log(t1)/4 at every finite ratio
        got = quasihyp_lower(Koebe(0), 1.0, t1)
        assert got == 0.25 * math.log(t1)
        assert abs(got - mp_quasihyp(Koebe(0), 1.0, t1)) <= 1e-14 * got

    def test_kink_inside_range_matches_oracle(self):
        # the slit top r = 1 sits inside the range, where delta(ir) turns from
        # 2 into hypot(2, r - 1)
        dom, t0, t1 = Koebe(2 + 1j), 0.9338366330236152, 24.565411983856325
        got = quasihyp_lower(dom, t0, t1)
        assert abs(got - mp_quasihyp(dom, t0, t1)) <= 1e-14 * got

    @pytest.mark.parametrize("dom, starts, ends", [
        # the bisector of this convex sector meets the axis at r = 1, where
        # the nearest ray switches with both distances perpendicular
        (Sector(-1 + 0j, math.pi / 2 + 0.3, 0.3), (0.05, 0.95), (1.05, 60.0)),
        # above both of their tops the first two slits' distances cross at
        # r = 51, below the third slit's |x| = 100
        (Comb([(1.0, 1.0), (10.0, 2.0), (100.0, 200.0)]), (0.1, 45.0), (55.0, 199.0)),
    ], ids=["sector_bisector", "comb_slit_tops"])
    def test_crossing_inside_range_matches_oracle(self, dom, starts, ends):
        rng = random.Random(12)
        t0s = [rng.uniform(*starts) for _ in range(24)]
        t1s = [rng.uniform(*ends) for _ in range(24)]
        for t0, t1, want in zip(t0s, t1s, mp_quasihyp(dom, t0s, t1s)):
            got = quasihyp_lower(dom, t0, t1)
            assert abs(got - want) <= 1e-14 * got, (t0, t1)

    @pytest.mark.parametrize("dom, t0, t1", [
        (Koebe(1e10 - 1e10j), 1.0, 2.0),
        (Koebe(1e100 - 1e100j), 1.0, 2.0),
        (Koebe(1e5 - 1e5j), 1.0, 1.5),
        (Koebe(1e-160 + 0j), 1.0, 2.0),
        (Koebe(1 + 0j), 1e155, 1e160),
        (Koebe(1 + 0j), 1e300, 1.7e308),
        (Koebe(3 - 2j), 0.5, 40.0),
        (Sector(1e8 - 1e8j, math.pi, math.pi), 1.0, 3.0),
        (Sector(1e8 - 1e8j, 3.0, 3.1), 1.0, 3.0),
        (Sector(2e3 - 1e4j, 3.0, 3.1), 1.0, 30.0),
        (Koebe(1e-300 + 0j), 1.0, 1e10),
    ], ids=repr)
    def test_far_apex_matches_oracle(self, dom, t0, t1):
        # asinh((r - b)/a) differs little between the ends of a segment far
        # from the apex, where the plain difference of the two cancels; next
        # to the axis (r - b)/a overflows, and asinh is log 2|r - b| - log a
        got = quasihyp_lower(dom, t0, t1)
        assert abs(got - mp_quasihyp(dom, t0, t1)) <= 1e-14 * got

    @pytest.mark.parametrize("dom", [Sector(-1 + 0j, math.pi, 0.0),
                                     Sector(-1 + 0j, math.pi / 2, 0.0)], ids=repr)
    def test_axial_ray_matches_oracle(self, dom):
        # the upward ray at beta = 0 is nearest from r = 1 on, where a ray
        # tilted by cos(pi/2) = 6.1e-17 moved these bounds by up to 3.6e-10
        rng = random.Random(25)
        t0s = [rng.uniform(0.6, 2.0) for _ in range(30)]
        t1s = [t0 * math.exp(rng.uniform(1.0, 18.0)) for t0 in t0s]
        for t0, t1, want in zip(t0s, t1s, mp_quasihyp(dom, t0s, t1s)):
            got = quasihyp_lower(dom, t0, t1)
            assert abs(got - want) <= 2.2e-16 * want, (t0, t1)

    def test_halfplane_apex_inside_range_matches_oracle(self):
        # delta(ir) = 1 throughout, but the sector path ends a run at the
        # apex height 2, so the sum has one rounding more than (t1 - t0)/4
        dom, rng = HalfPlaneRight(-1 + 2j), random.Random(29)
        t0s = [0.15491352999859107] + [rng.uniform(0.05, 1.95) for _ in range(29)]
        t1s = [2.2153531059461278] + [rng.uniform(2.05, 60.0) for _ in range(29)]
        for t0, t1, want in zip(t0s, t1s, mp_quasihyp(dom, t0s, t1s)):
            got = quasihyp_lower(dom, t0, t1)
            assert abs(got - want) <= 4.4e-16 * want, (t0, t1)

    def test_ratio_1e15_converges(self):
        assert quasihyp_lower(Koebe(0), 1.0, 1e15) == pytest.approx(
            0.25 * math.log(1e15), rel=1e-12)

    @staticmethod
    def _seeded_ranges():
        rng = random.Random(20191)
        for i in range(360):
            t0 = rng.uniform(0.6, 2.0)
            yield QUAD_DOMAINS[i % len(QUAD_DOMAINS)], t0, t0 * math.exp(rng.uniform(0.1, 18.0))

    @staticmethod
    @functools.cache
    def _seeded_oracle() -> dict:
        """mp_quasihyp on every seeded range, one quadrature per domain."""
        ranges = list(TestQuasihyp._seeded_ranges())
        want = {}
        for dom in QUAD_DOMAINS:
            mine = [(t0, t1) for d, t0, t1 in ranges if d is dom]
            vals = mp_quasihyp(dom, [t0 for t0, _ in mine], [t1 for _, t1 in mine])
            want.update(((dom, t0, t1), v) for (t0, t1), v in zip(mine, vals))
        return want

    def test_matches_mp_oracle(self):
        want = self._seeded_oracle()
        for dom, t0, t1 in self._seeded_ranges():
            got = quasihyp_lower(dom, t0, t1)
            assert abs(got - want[dom, t0, t1]) <= 1e-14 * got, (dom, t0, t1)

    def test_bound_errors(self):
        dom = Koebe(0)
        with pytest.raises(ValueError, match="must be finite"):
            quasihyp_lower(dom, 1.0, math.nan)
        with pytest.raises(ValueError, match="need t0 <= t1"):
            quasihyp_lower(dom, 3.0, 2.5)
        with pytest.raises(DomainError, match="segment exits the domain"):
            quasihyp_lower(Koebe(5j), 1.0, 8.0)

    @pytest.mark.parametrize("dom, t, match", [
        (Strip(1.0), 0.0, "segment exits the domain"),
        (Koebe(0), -1.0, "segment exits the domain"),
        (Comb([(1.0, 1.0), (2.0, 6.0)]), 9.0, "exceeds the materialised comb extent"),
    ], ids=["strip_wall", "koebe_slit", "comb_beyond_extent"])
    def test_zero_length_segment_is_checked(self, dom, t, match):
        with pytest.raises(DomainError, match=match):
            quasihyp_lower(dom, t, t)

    def test_lower_bounds_distance_on_symmetric_domains(self):
        for dom in (Koebe(0), Sector(0j, 0.6, 0.6)):
            for t0, t1 in ((0.5, 3.0), (1.0, 50.0), (2.0, 2000.0)):
                assert quasihyp_lower(dom, t0, t1) <= k_domain(dom, 1j * t0, 1j * t1) + 1e-9
