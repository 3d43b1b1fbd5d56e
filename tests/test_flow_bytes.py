"""Byte pins of the flow integrator's output.

``flow_sha256.json`` holds the sha256 of the ``trajectory_csv`` of seven
integrations -- series-started and closed-form-started, adaptive and
fixed-step, forward and backward -- and of the stdout of ``ode-compare s3``,
with that run's one stderr line verbatim.  A change to the packed state, the
stage buffers or the step controller that moves a single bit of a trajectory
fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nahmpole import cli
from nahmpole.oracle import (closed_solution, integrate_flow, matched_free_data,
                             profile_state, state_from_series, trajectory_csv)
from nahmpole.series import expand

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "flow_sha256.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _series_start(name, y0=0.01, N=6):
    bg = closed_solution(name).background
    return bg, state_from_series(expand(bg, matched_free_data(name, bg.field), N), y0, N)


def _profile_start(name, y0=1.0):
    sol = closed_solution(name)
    return sol.background, profile_state(sol, y0)


#: name -> (start, y_target, integrate_flow keywords)
TRAJECTORIES = {
    "s3 series N=6 0.01->1.0 tol=1e-12": (lambda: _series_start("s3"), 1.0,
                                          {"tol": 1e-12}),
    "hyperbolic series N=6 0.01->1.0 tol=1e-12": (lambda: _series_start("hyperbolic"),
                                                  1.0, {"tol": 1e-12}),
    "s3 series N=6 0.01->1.0 fixed_step=0.01": (lambda: _series_start("s3"), 1.0,
                                                {"fixed_step": 0.01}),
    **{f"{name} profile 1.0->0.2 tol=1e-10": (lambda name=name: _profile_start(name),
                                              0.2, {"tol": 1e-10})
       for name in ("s3", "hyperbolic", "flat")},
}


def trajectory_text(name):
    start, y_target, kwargs = TRAJECTORIES[name]
    bg, init = start()
    return trajectory_csv(integrate_flow(bg, init, y_target, **kwargs))


@pytest.mark.parametrize("name", list(TRAJECTORIES))
def test_trajectory_csv_bytes(name):
    assert _sha256(trajectory_text(name)) == REFERENCE["trajectory_csv"][name]


def test_ode_compare_s3_bytes(capsys):
    assert cli.main(["ode-compare", "s3"]) == 0
    out, err = capsys.readouterr()
    want = REFERENCE["ode-compare s3"]
    assert (_sha256(out), err) == (want["stdout"], want["stderr"])
