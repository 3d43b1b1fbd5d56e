"""The benchmark's tracer still sees the engine's public calls.

``benchmarks/workloads.py`` reads per-layer metrics (such as
``series.quadratic_source_ms.k12`` and ``series.residual_at.calls``) off the
spans its tracer records by patching these functions on their modules.  A
refactor that routes around them would zero those metrics silently.
"""

from pathlib import Path

import pytest

from nahmpole import series
from nahmpole.geometry import load_background

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
