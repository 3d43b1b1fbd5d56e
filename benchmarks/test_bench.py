"""Self-tests of the harness (not part of the package's test suite):

    python3 -m pytest benchmarks/test_bench.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Span, self_time_by_name, self_times, tail  # noqa: E402


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "job-1")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),      # overlaps a
        _span(3, "a.inner", 2.0, 3.0, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert self_time_by_name(spans)["root"] == pytest.approx(4.0)


def test_tail_has_exactly_ten_samples_beyond_it():
    values = [float(v) for v in range(100, 0, -1)]
    value, level = tail(values)
    assert sum(v > value for v in values) == 10
    assert value == 90.0 and level == pytest.approx(90.0)
    value, level = tail(range(1000))
    assert value == 989 and level == pytest.approx(99.0)
    value, level = tail(range(21))
    assert value == 10 and level == pytest.approx(100 * 11 / 21)


def test_tail_below_the_median_falls_back_to_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail(range(20)) == (19, 100.0)


@pytest.fixture(scope="module")
def workloads():
    pytest.importorskip("nahmpole")
    import workloads as W
    return W


def test_tampered_reference_hash_is_a_failed_job(workloads):
    W = workloads
    code, out, _ = W.call_cli(["expand", "--background", "builtin:flat",
                               "--order", "2"])
    assert code == 0
    good = W._expand_job("flat", 2, W.sha256(out))
    assert W.run_job(good).status == "ok"
    tampered = W._expand_job("flat", 2, "0" * 64)
    outcome = W.run_job(tampered)
    assert outcome.status == "wrong"
    assert "sha256" in outcome.reason


def test_raising_job_is_counted_not_fatal(workloads):
    W = workloads

    def boom():
        raise ValueError("Theta must lie in V0")

    outcome = W.run_job(W.Job("boom", boom, lambda result: (None, "")))
    assert outcome.status == "error"
    assert "Theta" in outcome.reason
