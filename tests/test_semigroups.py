import math

import numpy as np
import pytest

from hypspeed import (Comb, DiscPoint, HalfPlaneRight, Hyperbolic, Koebe,
                      ORIGIN, ParabolicPositiveStep, ParabolicZeroStep,
                      Sector, Strip, UnsupportedDomainOperation, classify,
                      denjoy_wolff, k_half, koenigs_semigroup, omega, orbit,
                      orbit_halfplane)
from hypspeed.semigroups import hyperbolic_step_gap, model_point

DOMAINS = [Strip(math.pi / 2), HalfPlaneRight(0j), Sector(0j, math.pi / 4, math.pi / 4),
           Sector(0j, math.pi, 0.0), Koebe(0j)]


class TestClassify:
    def test_strip_spectral_value(self):
        assert classify(Strip(math.pi / 2)) == Hyperbolic(2.0)
        assert classify(Strip(math.pi / 2)).spectral_value == 2.0  # exact

    def test_koebe_zero_step(self):
        assert classify(Koebe(0)) == ParabolicZeroStep()
        assert classify(Comb([(1, 1)])) == ParabolicZeroStep()

    def test_halfplane_positive_step(self):
        assert classify(HalfPlaneRight(0)) == ParabolicPositiveStep()

    def test_sector_one_sided_is_positive_step(self):
        assert classify(Sector(0j, math.pi, 0.0)) == ParabolicPositiveStep()
        assert classify(Sector(0j, 0.0, 1.2)) == ParabolicPositiveStep()

    def test_sector_two_sided_is_zero_step(self):
        assert classify(Sector(0j, 0.3, 0.3)) == ParabolicZeroStep()


class TestOrbit:
    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__ + "*")
    def test_time_zero_identity(self, dom):
        sg = koenigs_semigroup(dom)
        for z in (ORIGIN, DiscPoint(0.3 - 0.2j)):
            assert abs(orbit(sg, z, 0.0).value - z.value) < 1e-11

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__ + "*")
    def test_semigroup_law(self, dom):
        sg = koenigs_semigroup(dom)
        rng = np.random.default_rng(4)
        for _ in range(25):
            z = DiscPoint(0.6 * np.exp(1j * rng.uniform(-np.pi, np.pi)) * rng.uniform(0, 1))
            s, t = rng.uniform(0, 3, size=2)
            a = orbit(sg, orbit(sg, z, s), t)
            b = orbit(sg, z, s + t)
            assert abs(a.value - b.value) < 1e-9

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__ + "*")
    def test_forward_invariance(self, dom):
        sg = koenigs_semigroup(dom)
        for t in (0.1, 1.0, 10.0, 100.0):
            p = orbit(sg, DiscPoint(0.2 + 0.1j), t)
            assert p.guarded or abs(p.value) < 1.0

    def test_halfplane_orbit_keeps_cartesian_value(self):
        # phi_1(0) = C^{-1}(1 + i) = (1 + 2i)/5, exact when the chain's
        # cartesian value reaches the inverse Cayley transform unrounded
        sg = koenigs_semigroup(HalfPlaneRight(0j))
        assert orbit(sg, ORIGIN, 1.0).value == 0.2 + 0.4j

    def test_negative_time(self):
        sg = koenigs_semigroup(Koebe(0))
        with pytest.raises(ValueError):
            orbit(sg, ORIGIN, -1.0)

    def test_comb_unsupported(self):
        sg = koenigs_semigroup(Comb([(1, 1)]))
        assert sg.chain is None
        with pytest.raises(UnsupportedDomainOperation):
            orbit(sg, ORIGIN, 1.0)

    def test_koebe_orbit_converges_to_denjoy_wolff(self):
        sg = koenigs_semigroup(Koebe(0))
        tau = denjoy_wolff(sg)
        gaps = [abs(orbit(sg, ORIGIN, t).value - tau) for t in (1e2, 1e4, 1e6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-3

    def test_schwarz_pick(self):
        rng = np.random.default_rng(6)
        for dom in DOMAINS:
            sg = koenigs_semigroup(dom)
            for _ in range(20):
                z1 = DiscPoint(rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                z2 = DiscPoint(rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                t = rng.uniform(0, 1e4)
                moved = k_half(orbit_halfplane(sg, z1, t), orbit_halfplane(sg, z2, t))
                assert moved <= omega(z1, z2) + 1e-9


class TestDenjoyWolff:
    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__ + "*")
    def test_unimodular(self, dom):
        tau = denjoy_wolff(koenigs_semigroup(dom))
        assert abs(abs(tau) - 1.0) < 1e-12
        assert tau == 1 + 0j

    def test_halfplane_cayley_chain(self):
        # image domain H via the pure Cayley chain: tau = C^{-1}(infinity) = 1
        sg = koenigs_semigroup(HalfPlaneRight(0j))
        assert abs(denjoy_wolff(sg) - 1.0) < 1e-12

    def test_strip_orbit_limit(self):
        sg = koenigs_semigroup(Strip(1.1))
        tau = denjoy_wolff(sg)
        assert abs(orbit(sg, ORIGIN, 1e6).value - tau) < 1e-6


class TestHyperbolicStep:
    def test_positive_step_stays_separated(self):
        for dom in (HalfPlaneRight(0j), Sector(0j, math.pi, 0.0)):
            sg = koenigs_semigroup(dom)
            gaps = [hyperbolic_step_gap(sg, float(2 ** k)) for k in range(4, 27)]
            assert min(gaps) > 0.01

    def test_zero_step_collapses(self):
        for dom in (Koebe(0j), Sector(0j, math.pi / 4, math.pi / 4)):
            sg = koenigs_semigroup(dom)
            assert hyperbolic_step_gap(sg, 1e8) < 1e-4

    def test_halfplane_gap_constant(self):
        # k(1+it, 1+i(t+1)) = atanh(1/|2 - i|) for every t; at large t the
        # log-difference of nearby orbit points resolves to ~1e-7 in double
        sg = koenigs_semigroup(HalfPlaneRight(0j))
        expected = math.atanh(1.0 / abs(2 - 1j))
        assert hyperbolic_step_gap(sg, 1.0) == pytest.approx(expected, abs=1e-12)
        for t in (1e4, 1e8):
            assert hyperbolic_step_gap(sg, t) == pytest.approx(expected, abs=1e-6)


class TestModelPoint:
    def test_base(self):
        sg = koenigs_semigroup(Sector(0j, math.pi / 4, math.pi / 4))
        assert model_point(sg) == 1j

    def test_interior(self):
        sg = koenigs_semigroup(Strip(2.0))
        hz = model_point(sg, DiscPoint(0.3))
        assert 0 < hz.real < 2.0
