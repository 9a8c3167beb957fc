import cmath
import math

import pytest

from hypspeed import Koebe, to_halfplane
from hypspeed.mapchain import (Affine, BranchError, ExpLog, ExpScale,
                               LogPolar, Power, RiemannMapChain, wrap_angle)


def lp(w):
    return LogPolar.from_complex(w)


def test_wrap_angle():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(0.3) == 0.3


def test_logpolar_round_trip():
    w = 3.2 - 1.7j
    assert abs(lp(w).to_complex() - w) < 1e-15
    assert lp(0j).is_zero


def test_logpolar_keeps_cartesian_exact():
    # converting back must not pollute an exactly-imaginary value
    p = lp(1e8j)
    assert p.to_complex() == 1e8j
    assert p.cos_theta == 0.0


def test_affine_maps_zero_to_its_offset():
    assert Affine(1.0, 1j).fwd(lp(0j)).to_complex() == 1j
    # Koebe(-i)'s chain shifts by +i before the square root, so 0 goes to 1
    assert to_halfplane(Koebe(-1j)).forward(0j) == 1


def test_affine_huge_input():
    # a log-polar point beyond e^700 has no complex value for the link to map
    link = Affine(2.0, 5.0)
    with pytest.raises(OverflowError, match="log_rho=800 does not fit in a complex double"):
        link.fwd(LogPolar(800.0, 0.3))
    with pytest.raises(OverflowError, match=r"a\*w \+ b does not fit in a complex double"):
        link.fwd(lp(1e308))  # 2e308 is beyond the largest double
    assert link.fwd(lp(1e300j)).cart == 5.0 + 2e300j


def test_power_branch_validation():
    with pytest.raises(BranchError):
        Power(3.0, -math.pi, math.pi)  # image would wrap past the cut
    link = Power(2.0, -0.5, 0.5)
    with pytest.raises(BranchError):
        link.fwd(lp(cmath.exp(1.2j)))  # angle outside the recorded sector


def test_power_log_polar_exact():
    link = Power(0.5, -math.pi, math.pi)
    q = link.fwd(LogPolar(400.0, 0.6))
    assert (q.log_rho, q.theta) == (200.0, 0.3)


def test_exp_scale_against_direct():
    c = -1j * math.pi / 2.0
    link = ExpScale(c)
    w = 0.7 + 0.4j
    got = link.fwd(lp(w)).to_complex()
    assert abs(got - (-1j * cmath.exp(c * w))) < 1e-12


def test_exp_log_inverts_exp_scale():
    c = -1j * math.pi / 1.3
    fwd, inv = ExpScale(c), ExpLog(c)
    w = 0.9 + 2.0j
    assert abs(inv.fwd(fwd.fwd(lp(w))).to_complex() - w) < 1e-12
    assert isinstance(fwd.inverse_link(), ExpLog)


@pytest.mark.parametrize("links,w", [
    ((Affine(2.0 - 1j, 0.5), Affine(0.25j, -3.0)), 1.1 + 0.4j),
    ((Affine(1.0, -2.0), Power(0.5, -math.pi, math.pi)), 5.0 + 3.0j),
    ((Affine(1.0, -1.5), ExpScale(-1j * math.pi / 1.5)), 0.7 + 11.0j),
])
def test_chain_round_trip(links, w):
    chain = RiemannMapChain(links)
    assert abs(chain.inverse(chain.forward(w)) - w) < 1e-10 * (1 + abs(w))


def test_chain_derivative_matches_finite_difference():
    chain = RiemannMapChain((Affine(1.0, -2.0), Power(0.5, -math.pi, math.pi)))
    w = 5.0 + 3.0j
    h = 1e-7
    fd = abs(chain.forward(w + h) - chain.forward(w - h)) / (2 * h)
    assert math.exp(chain.log_abs_derivative(w)) == pytest.approx(fd, rel=1e-6)


def test_chain_derivative_huge_values_stay_in_log():
    # exp chain at Im w = 1e6: |F'| overflows a double but its log is exact
    chain = RiemannMapChain((Affine(1.0, -1.5), ExpScale(-1j * math.pi / 1.5)))
    logd = chain.log_abs_derivative(0.7 + 1e6j)
    assert logd == pytest.approx(math.log(math.pi / 1.5) + math.pi * 1e6 / 1.5, rel=1e-12)


def test_forward_lp_no_overflow():
    chain = RiemannMapChain((Affine(1.0, -1.5), ExpScale(-1j * math.pi / 1.5)))
    p = chain.forward_lp(0.7 + 1e8j)
    assert p.log_rho == pytest.approx(math.pi * 1e8 / 1.5, rel=1e-12)
    with pytest.raises(OverflowError):
        p.to_complex()
