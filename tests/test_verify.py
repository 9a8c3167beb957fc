import json
import math
import sys

import numpy as np
import pytest

from hypspeed import cli, coverage_check, run_suite
from hypspeed.verify import PUBLIC_OPS, PYTHAGORAS_ATTAIN_MIN_N, SUITES

#: (samples, worst margin, sum of squared finite margins) of the batched
#: suites at n = 500, recorded from the suites that drew one scalar at a
#: time or ran one orbit time at a time.  The sum of squares depends on
#: every draw; a block draw that consumed the generator in another order
#: would move it far beyond 1e-12.  Re-recorded since: the surrogates
#: entries, when s_orth lost a spurious corr/2 term, and the semigroup_model
#: worst margin at seed 42, when k_half took the angle difference of two
#: boundary-hugging points from their cosines (a 1.6e-12 error of the worst
#: sample's distance), and the nontangential entries, when sector_flat's
#: upward ray became exactly vertical: its ratio margin at t = 1e8 went from
#: 99.0000006123234 to the exact 99, as delta_pm at 1 + 1e8 i became 1.
PINNED_STREAM = {
    ("chains", 7): (496, -1.887379141862766e-15, 2220594.986885732),
    ("chains", 42): (496, -1.887379141862766e-15, 2838401.0544877),
    ("conjugation", 7): (3720, 4.008373992163906, 310838.60239360685),
    ("conjugation", 42): (3720, 4.020439159472162, 321791.5783351329),
    ("lemma_halfplane", 7): (3000, -1.2212453270876722e-13, 60940.205952573284),
    ("lemma_halfplane", 42): (3000, -1.5232259897857148e-13, 60895.44420654815),
    ("pythagoras", 7): (500, 1.884331372359327e-05, 46.54112008916459),
    ("pythagoras", 42): (500, 5.1029712560435314e-05, 46.58250936294954),
    ("contraction", 7): (500, 0.0008905717331348373, 4993.297074985075),
    ("contraction", 42): (500, 0.00013365815092947209, 4912.890655378441),
    ("surrogates", 7): (2500, -2.7200464103316335e-15, 2119.872885337459),
    ("surrogates", 42): (2500, -2.7200464103316335e-15, 2119.872885337459),
    ("basepoint", 7): (9920, -0.0, 25655.88384867626),
    ("basepoint", 42): (9920, -0.0, 23594.710531514535),
    ("nontangential", 7): (2000, 3.0, 19823.53092971881),
    ("nontangential", 42): (2000, 3.0, 19823.53092971881),
    ("semigroup_model", 7): (310, -1.1554868173391242e-11, 166.54886632099902),
    ("semigroup_model", 42): (310, -1.1246559239452836e-11, 116.55204623930078),
    # the suites on the shared speed table, recorded while it was a list of
    # rows; they draw nothing, so both seeds give the same margins
    ("split", 7): (2500, 0.0, 296.07688709622323),
    ("split", 42): (2500, 0.0, 296.07688709622323),
    ("julia_tangent", 7): (2500, 2.426015131959808, 1.4050712657505965e+17),
    ("julia_tangent", 42): (2500, 2.426015131959808, 1.4050712657505965e+17),
    ("lower_bounds", 7): (2500, 10.0, 514.3433966751171),
    ("lower_bounds", 42): (2500, 10.0, 514.3433966751171),
    ("betsakos", 7): (2000, 10.0, 824.8306895236259),
    ("betsakos", 42): (2000, 10.0, 824.8306895236259),
    ("sector_asymptotics", 7): (8, 0.009999999999999778, 13.00359999188926),
    ("sector_asymptotics", 42): (8, 0.009999999999999778, 13.00359999188926),
}
#: margins that are +inf by construction: chains compares delta_pm with
#: delta, and Omega^+- is the whole plane on the unbounded side of a domain
NON_FINITE = {"chains": 124}
#: (absolute on the worst margin, relative on the sum of squares), where
#: not 1e-12 for both: conjugation's orbit points come within about 1e-8
#: of the unit circle, where one ulp of the disc point moves a speed by
#: about 1e-8, so a batch that rounds in another order moves its margins
STREAM_TOL = {"conjugation": (1e-7, 1e-9)}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name)
    assert report.violations == 0, f"{name}: worst margin {report.worst_margin}"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")
    with pytest.raises(ValueError, match="unknown suite"):  # was "unhashable type: 'list'"
        run_suite(["x"])


def test_negative_sample_count():
    for n in (-3, 0):  # 0 is not a request for the default count
        with pytest.raises(ValueError, match="must be positive"):
            run_suite("contraction", n=n)


@pytest.mark.parametrize("seed", [None, [], [1, 2], 3.0, "3"])
def test_seed_must_be_an_integer(seed):
    # None would draw OS entropy and a list seed numpy's entropy pool; neither
    # report could be replayed from its "seed"
    with pytest.raises(ValueError, match="seed"):
        run_suite("contraction", n=10, seed=seed)


def test_integer_seed_is_reported_as_a_python_int():
    report = run_suite("contraction", n=10, seed=np.int64(3))
    assert type(report.seed) is int
    assert json.loads(json.dumps(report.to_dict()))["seed"] == 3
    assert report == run_suite("contraction", n=10, seed=3)


@pytest.mark.parametrize("n", [100.0, "100", [100]])
def test_sample_count_must_be_an_integer(n):
    with pytest.raises(ValueError, match="sample count"):
        run_suite("contraction", n=n)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, "1e-9", None])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tolerance"):
        run_suite("contraction", n=10, tol=tol)
    assert run_suite("contraction", n=10, tol=0.0).samples == 10


def test_deterministic():
    a = run_suite("pythagoras", n=500, seed=7)
    b = run_suite("pythagoras", n=500, seed=7)
    assert a == b
    c = run_suite("pythagoras", n=500, seed=8)
    assert c.worst_margin != a.worst_margin


def test_report_serialises():
    report = run_suite("contraction", n=100)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["suite"] == "contraction"
    assert set(payload) == {"suite", "samples", "violations", "worst_margin", "seed"}


def test_every_public_operation_is_exercised():
    assert coverage_check() == set()


def test_coverage_reports_an_operation_no_suite_calls(monkeypatch):
    # the console script parses its arguments, the suites never do
    monkeypatch.setitem(PUBLIC_OPS, cli, ["parse_args"])

    def outer(frame, event, arg):  # a profiler already running comes back
        pass

    sys.setprofile(outer)
    try:
        assert coverage_check() == {"cli.parse_args"}
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("name,seed", sorted(PINNED_STREAM))
def test_draw_stream_pinned(name, seed):
    samples, worst, sum_sq = PINNED_STREAM[name, seed]
    worst_tol, sum_tol = STREAM_TOL.get(name, (1e-12, 1e-12))
    report = run_suite(name, n=500, seed=seed)
    assert (report.samples, report.violations) == (samples, 0)
    assert abs(report.worst_margin - worst) <= worst_tol
    fn, _ = SUITES[name]
    _, margins = fn(500, np.random.default_rng(seed))
    margins = np.asarray(margins, dtype=float)
    finite = np.isfinite(margins)
    assert np.count_nonzero(~finite) == NON_FINITE.get(name, 0)
    assert math.fsum(np.square(margins[finite])) == pytest.approx(sum_sq, rel=sum_tol)


def test_pythagoras_attainability_needs_enough_samples():
    # n = 20 at seed 1 draws no pair with gap <= 0.05; no inequality fails
    assert run_suite("pythagoras", n=20, seed=1).violations == 0
    fn, default_n = SUITES["pythagoras"]
    for n in (PYTHAGORAS_ATTAIN_MIN_N - 1, PYTHAGORAS_ATTAIN_MIN_N, default_n):
        _, margins = fn(n, np.random.default_rng(1))
        attained = n >= PYTHAGORAS_ATTAIN_MIN_N
        assert margins.size == 2 * n + attained  # upper and lower at every n
    _, margins = fn(default_n, np.random.default_rng(42))
    gap = margins[:default_n]
    assert margins[-1] == 0.05 - gap.min()


def test_sector_asymptotics_names_the_least_sample_count():
    # a grid of 64 times puts 16 in FIT_WINDOW, one of 77 the 20 a fit takes
    with pytest.raises(ValueError, match="suite sector_asymptotics needs --samples 77 "
                                         "or more, got 64: its fits take 20 grid times"):
        run_suite("sector_asymptotics", n=64)
    with pytest.raises(ValueError, match="suite sector_asymptotics needs --samples 77 "
                                         "or more, got 1: its fits take 20 grid times"):
        run_suite("sector_asymptotics", n=1)
    assert run_suite("sector_asymptotics", n=77).violations == 0


@pytest.mark.parametrize("name", ["split", "julia_tangent", "surrogates", "lower_bounds",
                                  "betsakos", "nontangential"])
def test_grid_suites_need_two_samples(name):
    # n = 1 ran the default 512-point grid and reported 5 x 512 samples
    with pytest.raises(ValueError, match=f"suite {name} needs --samples 2 or more, got 1: "
                                         "its speed tables take a grid"):
        run_suite(name, n=1)
    assert run_suite(name, n=2).violations == 0


def test_margin_arrays_count_nan_as_violation(monkeypatch):
    def probe(n, rng):
        return 3, np.array([0.0, np.nan, 1.0])

    monkeypatch.setitem(SUITES, "nan_probe", (probe, 3))
    report = run_suite("nan_probe")
    assert report.violations == 1
