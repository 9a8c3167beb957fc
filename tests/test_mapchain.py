import cmath
import math

import numpy as np
import pytest

from hypspeed import DiscPoint, Koebe, Sector, Strip, koenigs_semigroup, to_halfplane
from hypspeed.domains import canonical_base_point
from hypspeed.mapchain import (Affine, BranchError, ExpLog, ExpScale,
                               LogPolar, Power, RiemannMapChain,
                               _from_complex_array, _to_complex, wrap_angle)
from hypspeed.semigroups import model_point
from hypspeed.verify import _rand_domain_points

from test_batch import TABLE_DOMAINS


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
    assert Affine(1.0, 1j).fwd(0j) == 1j
    # a zero result is 0j, as LogPolar.from_complex keeps it
    out = Affine(1.0, complex(-0.0, -0.0)).fwd(complex(-0.0, -0.0))
    assert out == 0 and (math.copysign(1.0, out.real), math.copysign(1.0, out.imag)) == (1.0, 1.0)
    # Koebe(-i)'s chain shifts by +i before the square root, so 0 goes to 1
    assert to_halfplane(Koebe(-1j)).forward(0j) == 1


def test_affine_huge_input():
    # a log-polar point beyond e^700 has no complex value for the link to map
    link = Affine(2.0, 5.0)
    with pytest.raises(OverflowError, match="log_rho=800 does not fit in a complex double"):
        RiemannMapChain([link]).forward_lp(LogPolar(800.0, 0.3))
    with pytest.raises(OverflowError, match=r"a\*w \+ b does not fit in a complex double"):
        link.fwd(1e308 + 0j)  # 2e308 is beyond the largest double
    assert link.fwd(1e300j) == 5.0 + 2e300j


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
    q = link.fwd(w)
    assert (q.log_rho, q.theta, q.cos_theta) == ((c * w).real, (c * w).imag - math.pi / 2,
                                                  math.sin((c * w).imag))
    assert abs(q.to_complex() - (-1j * cmath.exp(c * w))) < 1e-12


def test_exp_log_inverts_exp_scale():
    c = -1j * math.pi / 1.3
    fwd, inv = ExpScale(c), ExpLog(c)
    w = 0.9 + 2.0j
    assert abs(inv.fwd(fwd.fwd(w)) - w) < 1e-12
    p = LogPolar(0.4, 0.3)
    assert inv.fwd(p) == complex(0.4, 0.3 + math.pi / 2) / c
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


def test_identity_power_derivative_at_the_origin():
    # Sector(0, pi, 0) is the right half plane, mapped by a power link with
    # gamma = 1, whose (gamma - 1) log rho was 0 * -inf = nan at w = 0
    chain = to_halfplane(Sector(0j, math.pi, 0.0))
    assert any(isinstance(link, Power) and link.gamma == 1.0 for link in chain.links)
    assert chain.log_abs_derivative(0j) == 0.0
    got = chain.log_abs_derivative(np.array([0j, 1.0 + 0j, 2.0 + 3.0j]))
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_forward_lp_no_overflow():
    chain = RiemannMapChain((Affine(1.0, -1.5), ExpScale(-1j * math.pi / 1.5)))
    p = chain.forward_lp(0.7 + 1e8j)
    assert p.log_rho == pytest.approx(math.pi * 1e8 / 1.5, rel=1e-12)
    with pytest.raises(OverflowError):
        p.to_complex()


# ---------------------------------------------------------------------------
# the hand-off between links against a reference that converts after every
# link: a chain hands a complex value straight to the next cartesian link,
# which must see the value it would read back from LogPolar.from_complex


def _ref_polar(v, batch):
    if isinstance(v, LogPolar):
        return v
    return _from_complex_array(np.asarray(v, dtype=complex)) if batch else LogPolar.from_complex(v)


def reference_apply(links, w):
    """(F(w) in log-polar form, log |F'(w)|), the links run one by one with
    every result in log-polar form before the next link reads it."""
    batch = isinstance(w.log_rho if isinstance(w, LogPolar) else w, np.ndarray)
    p = _ref_polar(w, batch)
    total = np.zeros(np.shape(p.log_rho)) if batch else 0.0
    for link in links:
        x = p if link.reads_polar else _to_complex(p)
        total = total + link.log_abs_deriv(x)
        p = _ref_polar(link.fwd_array(x) if batch else link.fwd(x), batch)
    return p, total


def assert_bits_equal(got, want):
    if want is None:
        assert got is None
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def assert_chain_matches_reference(chain, w):
    """forward_lp, forward and log_abs_derivative at w, and inverse_lp and
    inverse at F(w), bit for bit against the reference."""
    want, want_deriv = reference_apply(chain.links, w)
    got = chain.forward_lp(w)
    for name in ("log_rho", "theta", "cos_theta", "cart"):
        assert_bits_equal(getattr(got, name), getattr(want, name))
    assert_bits_equal(got.cos, want.cos)
    assert_bits_equal(chain.log_abs_derivative(w), want_deriv)
    try:
        want_value = _to_complex(want)
    except OverflowError:
        with pytest.raises(OverflowError):
            chain.forward(w)
    else:
        assert_bits_equal(chain.forward(w), want_value)
    back, _ = reference_apply(chain.inverse_links(), got)
    got_back = chain.inverse_lp(got)
    for name in ("log_rho", "theta", "cos_theta", "cart"):
        assert_bits_equal(getattr(got_back, name), getattr(back, name))
    assert_bits_equal(chain.inverse(got), _to_complex(back))


def _points(chain, ws):
    """The points of ws where the reference evaluates F and then F^-1
    without an error, one by one and as one batch."""
    ok = []
    for w in ws:
        try:
            p, _ = reference_apply(chain.links, complex(w))
            _to_complex(reference_apply(chain.inverse_links(), p)[0])
        except (OverflowError, BranchError, ValueError):
            continue
        ok.append(complex(w))
    return ok, np.array(ok, dtype=complex)


#: chains beside the domains' own: the three link pairs above, ExpLog
#: leading, which maps -i to a zero, and two chains whose signed-zero
#: constants pass the sign of a zero on to the exponential link's log rho:
#: they see a zero that is not 0j, from the chain's input or a link's result
EXTRA_CHAINS = [
    RiemannMapChain((Affine(2.0 - 1j, 0.5), Affine(0.25j, -3.0))),
    RiemannMapChain((Affine(1.0, -2.0), Power(0.5, -math.pi, math.pi))),
    RiemannMapChain((Affine(1.0, -1.5), ExpScale(-1j * math.pi / 1.5))),
    RiemannMapChain((ExpLog(-1j * math.pi / 1.5), Affine(1.0, 1.5))),
    RiemannMapChain((ExpLog(-1.0), ExpScale(complex(1.0, -0.0)))),
    RiemannMapChain((Affine(1.0, complex(-0.0, 1.0)), ExpScale(1.0))),
]


@pytest.mark.parametrize("name", list(TABLE_DOMAINS))
def test_domain_chains_match_reference(name):
    # the ten tables domains, among them the chains suite's five built-in
    # domains and its three extras: orbit points to t = 1e12 and through
    # e^700, the chains suite's draws, 0j and the signed zeros
    dom = TABLE_DOMAINS[name]
    chain = to_halfplane(dom)
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e12, 40), np.exp(np.linspace(699.0, 701.0, 9))])
    hz = model_point(koenigs_semigroup(dom), DiscPoint(0.3 - 0.4j))
    draws = _rand_domain_points(np.random.default_rng(5).random((40, 2)), dom)
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    ws = np.concatenate([hz + 1j * ts, draws, zeros, [canonical_base_point(dom)]])
    scalars, batch = _points(chain, ws)
    assert len(scalars) >= 80
    for w in scalars:
        assert_chain_matches_reference(chain, w)
    with np.errstate(invalid="ignore"):  # log |F'(0)| through Power(1.0) is 0 * -inf
        assert_chain_matches_reference(chain, batch)


@pytest.mark.parametrize("chain", EXTRA_CHAINS, ids=["affine_affine", "affine_power",
                                                     "affine_exp", "log_affine",
                                                     "log_exp_signed_zero",
                                                     "affine_exp_signed_zero"])
def test_extra_chains_match_reference(chain):
    rng = np.random.default_rng(6)
    ws = rng.uniform(0.1, 5.0, 60) * np.exp(1j * rng.uniform(-1.5, 1.5, 60))
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    scalars, batch = _points(chain, np.concatenate([ws, [-1j], zeros]))
    assert len(scalars) >= 60
    for w in scalars:
        assert_chain_matches_reference(chain, w)
    assert_chain_matches_reference(chain, batch)


@pytest.mark.parametrize("r", [math.pi / 2, 3.0])
def test_strip_beyond_e700_matches_reference(r):
    # the exponential link reads the exact complex value h(0) + it - r
    # handed over from the Affine link, past |w| = e^700; back, the
    # logarithm link hands its complex value to the Affine link
    chain = to_halfplane(Strip(r))
    ws = 0.5 * r + 1j * np.array([math.exp(701.0), 1e304, 1e306, 5e307])
    for w in ws:
        assert_chain_matches_reference(chain, complex(w))
    assert_chain_matches_reference(chain, ws)


def test_cartless_point_beyond_e700_still_overflows():
    # a Koebe inverse chain multiplies log rho by 2 on the way to its Affine
    # links, which need the point's complex value
    chain = to_halfplane(Koebe(0j))
    msg = "log-polar value with log_rho=.* does not fit in a complex double"
    for w in (LogPolar(360.0, 0.2), LogPolar(np.array([1.0, 360.0]), np.array([0.2, 0.2]))):
        with pytest.raises(OverflowError, match=msg):
            chain.inverse(w)
        with pytest.raises(OverflowError, match=msg):
            reference_apply(chain.inverse_links(), w)
