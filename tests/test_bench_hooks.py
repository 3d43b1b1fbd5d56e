"""The benchmark's tracer still sees the engine's public calls.

``benchmarks/workloads.py`` reads per-layer metrics (such as
``series.quadratic_source_ms.k12`` and ``series.residual_at.calls``) off the
spans its tracer records by patching these functions on their modules.  A
refactor that routes around them would zero those metrics silently.  The
flow workload reads its end states through the ``FlowState`` form views.
"""

from pathlib import Path

import numpy as np
import pytest

from nahmpole import series
from nahmpole.geometry import load_background
from nahmpole.oracle import integrate_flow
from nahmpole.scalars import FloatField

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    return workloads


def test_tracer_sees_sources_and_residuals(workloads, field):
    bg = load_background("builtin:berger-s3?squash=2", field)
    with workloads.new_tracer() as tracer:
        table = series.expand(bg, N=8)
        assert series.check_residuals(table) == []
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    sources = by_name["series.quadratic_source"]
    assert len(sources) == 30
    assert all(set(span.attrs) == {"k", "p"} for span in sources)
    assert len(by_name["series.residual_at"]) == 54


def test_tracer_sees_float_sources_and_residuals(workloads):
    # the float solve step and the float residual go through the same module
    # globals as the rational ones, so the per-layer metrics of the
    # expand-float workload come from the same spans
    bg = load_background("builtin:berger-s3?squash=2", FloatField(64))
    with workloads.new_tracer() as tracer:
        table = series.expand(bg, N=8)
        assert series.check_residuals(table) == []
    sources = [span for span in tracer.spans if span.name == "series.quadratic_source"]
    assert len(sources) == 30
    assert all(set(span.attrs) == {"k", "p"} for span in sources)
    assert sum(span.name == "series.residual_at" for span in tracer.spans) == 54


def test_flow_workload_reads_the_state_api(workloads):
    # the flow workload's start, end state and deviation go through the
    # FlowState form views; they must agree with the rows
    bg, init, ref = workloads.flow_start("s3")
    traj = integrate_flow(bg, init, workloads.FLOW_Y1, tol=workloads.FLOW_TOL)
    assert traj[-1].y == ref.y == workloads.FLOW_Y1
    assert workloads.state_deviation(traj[-1], ref) == np.abs(traj[-1].v - ref.v).max()
