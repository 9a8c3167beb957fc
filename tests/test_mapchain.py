"""The closed-form domain maps and the orbits through them against the
50-digit formulas of `oracles`, in coordinates relative to the apex."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from hypspeed import (ORIGIN, DiscPoint, HalfPlanePoint, HalfPlaneRight, Koebe, Sector,
                      Strip, koenigs_semigroup, orbit_halfplane,
                      sample_speeds, to_halfplane)
from hypspeed.mapchain import LogPolar
from hypspeed.semigroups import model_point
from hypspeed.verify import _rand_domain_points

from oracles import (mp_halfplane, mp_log_abs_derivative, mp_lp, mp_orbit,
                     mp_preimage, mp_speeds)
from test_batch import TABLE_DOMAINS

#: orbit times: 0, then 0.001 to 1e12, and three far beyond
TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 1e12, 16), [1e15, 1e300, 1e307]])
#: the far offsets: a sector at 1e10 and 3e15, sector-type maps with their
#: apex at -4.5e15 + 4.5e15i, one with a vertical ray that its orbits run
#: along, and apexes at 1e16 and +-1e300, where p + 1 no longer resolves
#: unit steps
FAR = {
    "sector_1e10": Sector(1e10 + 0j, 0.3, 1.0),
    "sector_3e15": Sector(3e15 + 0j, 0.3, 1.0),
    "sector_far": Sector(-4.5e15 + 4.5e15j, 0.3, 1.0),
    "sector_ray_far": Sector(-4.5e15 + 4.5e15j, 0.0, 1.2),
    "sector_flat_far": Sector(-4.5e15 + 4.5e15j, 0.0, math.pi),
    "koebe_far": Koebe(-4.5e15 + 4.5e15j),
    "halfplane_far": HalfPlaneRight(-4.5e15 + 4.5e15j),
    "halfplane_1e16": HalfPlaneRight(1e16 + 0j),
    "sector_1e300": Sector(1e300 - 1e300j, 0.7, 1.9),
    "koebe_1e300": Koebe(-1e300 + 1e300j),
}


def lp(w):
    return LogPolar.from_complex(w)


def starts(seed, n=4):
    """The origin and n seeded disc points with |z| <= tanh(1.5)."""
    rng = np.random.default_rng(seed)
    z = math.tanh(1.5) * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
    return [DiscPoint(0j)] + [DiscPoint(complex(x)) for x in z]


def close(got, want, rel=1e-13):
    """|got - want| <= rel * max(1, |want|), elementwise."""
    want = np.array([float(x) for x in np.ravel(want)])
    got = np.ravel(np.asarray(got, dtype=float))
    err = np.abs(got - want)
    return np.all(err <= rel * np.maximum(1.0, np.abs(want))), float(err.max())


def assert_lp_matches(got, ws):
    """got (a point or a batch) against the 50-digit half-plane points ws:
    log rho and theta to 1e-13 absolute (relative above 1), the cosine to
    1e-13 relative, however close it is to 0."""
    want = [mp_lp(w) for w in ws]
    for i, name in enumerate(("log_rho", "theta")):
        ok, err = close(getattr(got, name), [x[i] for x in want])
        assert ok, (name, err)
    c_got = np.ravel(np.asarray(got.cos, dtype=float))
    c_want = np.array([float(x[2]) for x in want])
    assert np.all(np.abs(c_got - c_want) <= 1e-13 * c_want), "cos"


def assert_orbit_matches(dom, z, ts):
    """orbit_halfplane and sample_speeds at each time, one time and a whole
    array, against F(h(z) - p + it) and its speeds at 50 digits."""
    sg = koenigs_semigroup(dom)
    ws = [mp_orbit(dom, z, t) for t in ts]
    batch = orbit_halfplane(sg, z, np.asarray(ts))
    assert_lp_matches(batch, ws)
    points = [orbit_halfplane(sg, z, float(t)) for t in ts]
    for p, w in zip(points, ws):
        assert_lp_matches(p, [w])
    if z.value == 0:
        rows = sample_speeds(sg, ts)
        want = [mp_speeds(w) for w in ws]
        for i, name in enumerate(("v", "v_o", "v_T")):
            ok, err = close([getattr(s, name) for s in rows], [x[i] for x in want])
            assert ok, (name, err)


def test_logpolar_round_trip():
    w = 3.2 - 1.7j
    assert abs(lp(w).to_complex() - w) < 1e-15
    assert lp(0j).log_rho == -math.inf


def test_logpolar_keeps_cartesian_exact():
    # converting back must not pollute an exactly-imaginary value
    p = lp(1e8j)
    assert p.to_complex() == 1e8j
    assert p.cos_theta == 0.0


def test_logpolar_value_semantics():
    # its own __init__ keeps the frozen dataclass's behaviour
    p = LogPolar(1.5, -0.25, 0.75, 2 + 1j)
    assert (p.log_rho, p.theta, p.cos_theta, p.cart) == (1.5, -0.25, 0.75, 2 + 1j)
    assert LogPolar(1.5, -0.25) == p and hash(LogPolar(1.5, -0.25)) == hash(p)
    assert LogPolar(1.5, 0.25, 0.75, 2 + 1j) != p
    assert repr(p) == "LogPolar(log_rho=1.5, theta=-0.25, cos_theta=0.75, cart=(2+1j))"
    assert LogPolar(theta=-0.25, log_rho=1.5) == p
    q = dataclasses.replace(p, theta=0.5)
    assert (q.log_rho, q.theta, q.cos_theta, q.cart) == (1.5, 0.5, 0.75, 2 + 1j)
    for name in ("log_rho", "cos_theta", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0.0)


@pytest.mark.parametrize("name", list(TABLE_DOMAINS))
def test_domain_chains_match_reference(name):
    # the ten tables domains, among them the chains suite's five built-in
    # domains and its three extras: F at orbit points from five start
    # points to t = 1e307 and at the chains suite's draws, F^-1 at
    # half-plane points, and log |F'| at the draws, each one point at a time
    # and as one batch, all at points u = w - p relative to the apex p
    dom = TABLE_DOMAINS[name]
    chain = to_halfplane(dom)
    sg = koenigs_semigroup(dom)
    draws = _rand_domain_points(np.random.default_rng(5).random((24, 2)), dom) - chain.p
    us = np.concatenate([model_point(sg, z) - chain.p + 1j * TIMES[:-3] for z in starts(3)]
                        + [draws])
    want = [mp_halfplane(dom, mpmath.mpc(u)) for u in us]
    assert_lp_matches(chain.forward_lp(us), want)
    for u, x in zip(us, want):
        assert_lp_matches(chain.forward_lp(complex(u)), [x])
    for z in starts(4):
        assert_orbit_matches(dom, z, TIMES)
    # F^-1 at half-plane points up to log rho = 40
    rng = np.random.default_rng(6)
    hp = HalfPlanePoint(rng.uniform(-5.0, 40.0, 40), rng.uniform(-1.5, 1.5, 40))
    pre = [mp_preimage(dom, mpmath.exp(l) * mpmath.expj(t)) for l, t in zip(hp.log_rho, hp.theta)]
    back = chain.inverse(hp)
    got = [chain.inverse(HalfPlanePoint(float(l), float(t))) for l, t in zip(hp.log_rho, hp.theta)]
    for u, b, g in zip(pre, back, got):
        want = complex(u)
        tol = 1e-13 * max(1.0, abs(want))
        assert abs(b - want) <= tol and abs(g - want) <= tol
    # log |F'| at the draws
    deriv = [mp_log_abs_derivative(dom, mpmath.mpc(u)) for u in draws]
    ok, err = close(chain.log_abs_derivative(draws), deriv)
    assert ok, err
    ok, err = close([chain.log_abs_derivative(complex(u)) for u in draws], deriv)
    assert ok, err


@pytest.mark.parametrize("name", list(FAR))
def test_far_offsets_match_reference(name):
    # the orbit from h(z) - p + it keeps no digit of p: the speeds do not
    # depend on where the domain sits
    dom = FAR[name]
    for z in starts(7, 2):
        assert_orbit_matches(dom, z, TIMES)


@pytest.mark.parametrize("p", [1e10, 3e15])
def test_translated_sector_starts_at_zero_speed(p):
    # v(0) = 0 exactly at the base point; it was 4.7e-7 at p = 1e10 and
    # 0.19 at p = 3e15 while the orbit ran in absolute coordinates
    s = sample_speeds(koenigs_semigroup(Sector(complex(p), 0.3, 1.0)), [0.0])[0]
    assert abs(s.v) <= 1e-15 and abs(s.v_o) <= 1e-15 and abs(s.v_T) <= 1e-15


def test_axial_ray_keeps_the_cosine():
    # the orbit of Sector(0, 0, 1.2) runs up its vertical ray; its cosine
    # comes from the gap to that ray, not from the rounded angle, whose
    # cosine gave v_T = 13.966667467 at t = 1e12
    s = sample_speeds(koenigs_semigroup(Sector(0j, 0.0, 1.2)), [1e12])[0]
    assert abs(s.v_T - 13.966661253008606) <= 1e-13


@pytest.mark.parametrize("dom", [
    Sector(0j, 1.0, 1.0 + 1.5e-15), Sector(0j, math.pi - 1e-15, 1e-16),
    Sector(0j, 1e-16, math.pi - 1e-15), Sector(2 - 1j, 2.0, 2.0 - 1.2e-15),
    Sector(0j, 0.3, 0.3 + 1e-15), Sector(0j, 1.5, 1.5 - 1.9e-15)], ids=repr)
def test_near_axial_map_keeps_its_tilt(dom):
    # the bisector turns by less than 1e-15, which a snap of the map
    # constants to the axis dropped: theta was up to 2.6e-15 off
    ts = np.geomspace(1e-3, 1e8, 32)
    want = np.array([float(mp_lp(mp_orbit(dom, ORIGIN, t))[1]) for t in ts])
    got = orbit_halfplane(koenigs_semigroup(dom), ORIGIN, ts).theta
    assert np.abs(got - want).max() <= 5e-16


@pytest.mark.parametrize("edge", ["left", "right"])
def test_strip_cosine_near_an_edge(edge):
    # cos theta is the sine of the angle to the nearer edge; from
    # sin(k (r - Re u)) alone it was 6.9e-15, 5.0e-13 and 4.6e-11 relative
    # off at Re u = 1e-2, 1e-4 and 1e-8 from the left edge
    dom = Strip(math.pi / 2)
    chain = to_halfplane(dom)
    xs = np.array([1e-2, 1e-4, 1e-8])
    us = (xs if edge == "left" else dom.r - xs) + 1j
    want = [mp_halfplane(dom, complex(u), dps=60) for u in us]
    cos = [float(mpmath.re(w) / abs(w)) for w in want]
    batch = chain.forward_lp(us).cos
    for u, c, b in zip(us, cos, batch):
        assert abs(chain.forward_lp(complex(u)).cos - c) <= 2.0 ** -52 * c, u
        assert abs(b - c) <= 2.0 ** -52 * c, u


def test_chain_derivative_matches_finite_difference():
    chain = to_halfplane(Koebe(2.0 + 0j))
    u = 3.0 + 3.0j  # w = 5 + 3i, relative to the apex 2
    h = 1e-7
    fd = abs(chain.forward(u + h) - chain.forward(u - h)) / (2 * h)
    assert math.exp(chain.log_abs_derivative(u)) == pytest.approx(fd, rel=1e-6)


def test_chain_derivative_huge_values_stay_in_log():
    # a strip at Im w = 1e6: |F'| overflows a double but its log is exact
    logd = to_halfplane(Strip(1.5)).log_abs_derivative(0.7 + 1e6j)
    assert logd == pytest.approx(math.log(math.pi / 1.5) + math.pi * 1e6 / 1.5, rel=1e-12)


def test_identity_power_derivative_at_the_origin():
    # Sector(0, pi, 0) is the right half plane, a map of exponent 1, whose
    # (gamma - 1) log rho was 0 * -inf = nan at w = 0
    chain = to_halfplane(Sector(0j, math.pi, 0.0))
    assert chain.gamma == 1.0
    assert chain.log_abs_derivative(0j) == 0.0
    got = chain.log_abs_derivative(np.array([0j, 1.0 + 0j, 2.0 + 3.0j]))
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_forward_lp_no_overflow():
    p = to_halfplane(Strip(1.5)).forward_lp(0.7 + 1e8j)
    assert p.log_rho == pytest.approx(math.pi * 1e8 / 1.5, rel=1e-12)
    with pytest.raises(OverflowError):
        p.to_complex()


@pytest.mark.parametrize("r", [math.pi / 2, 3.0])
def test_strip_beyond_e700_matches_reference(r):
    # the exponential reads h(0) + it itself, past |w| = e^700; back, the
    # logarithm gives the strip point from log rho and theta alone
    dom = Strip(r)
    chain = to_halfplane(dom)
    ws = 0.5 * r + 1j * np.array([math.exp(701.0), 1e304, 1e306, 5e307])
    want = [mp_halfplane(dom, mpmath.mpc(w), dps=60) for w in ws]
    assert_lp_matches(chain.forward_lp(ws), want)
    for w, x in zip(ws, want):
        hp = chain.forward_lp(complex(w))
        assert_lp_matches(hp, [x])
        assert chain.inverse(hp) == pytest.approx(complex(w), rel=1e-15)


def test_cartless_point_beyond_e700_still_overflows():
    # a Koebe preimage doubles log rho, past what a complex double holds
    chain = to_halfplane(Koebe(0j))
    msg = "log-polar value with log_rho=.* does not fit in a complex double"
    for w in (LogPolar(360.0, 0.2), LogPolar(np.array([1.0, 360.0]), np.array([0.2, 0.2]))):
        with pytest.raises(OverflowError, match=msg):
            chain.inverse(w)
