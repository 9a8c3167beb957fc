import json
import math

import numpy as np
import pytest

from hypspeed import coverage_check, run_suite
from hypspeed.verify import SUITES

#: (samples, worst margin, sum of squared margins) of the batched suites at
#: n = 500, recorded from the suites that drew one scalar at a time.  The
#: sum of squares depends on every draw; a block draw that consumed the
#: generator in another order would move it far beyond 1e-12.
PINNED_STREAM = {
    ("lemma_halfplane", 7): (3000, -1.2212453270876722e-13, 60940.205952573284),
    ("lemma_halfplane", 42): (3000, -1.5232259897857148e-13, 60895.44420654815),
    ("pythagoras", 7): (500, 1.884331372359327e-05, 46.54112008916459),
    ("pythagoras", 42): (500, 5.1029712560435314e-05, 46.58250936294954),
    ("contraction", 7): (500, 0.0008905717331348373, 4993.297074985075),
    ("contraction", 42): (500, 0.00013365815092947209, 4912.890655378441),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name)
    assert report.violations == 0, f"{name}: worst margin {report.worst_margin}"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_negative_sample_count():
    with pytest.raises(ValueError, match="nonnegative"):
        run_suite("contraction", n=-3)


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


@pytest.mark.parametrize("name,seed", sorted(PINNED_STREAM))
def test_draw_stream_pinned(name, seed):
    samples, worst, sum_sq = PINNED_STREAM[name, seed]
    report = run_suite(name, n=500, seed=seed)
    assert (report.samples, report.violations) == (samples, 0)
    assert abs(report.worst_margin - worst) <= 1e-12
    fn, _ = SUITES[name]
    _, margins = fn(500, np.random.default_rng(seed), 1e-9)
    assert math.fsum(np.square(margins)) == pytest.approx(sum_sq, rel=1e-12)


def test_margin_arrays_count_nan_as_violation(monkeypatch):
    def probe(n, rng, tol):
        return 3, np.array([0.0, np.nan, 1.0])

    monkeypatch.setitem(SUITES, "nan_probe", (probe, 3))
    report = run_suite("nan_probe")
    assert report.violations == 1
