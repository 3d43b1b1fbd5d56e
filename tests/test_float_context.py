"""Float mode computes under its field's decimal context alone.

Float elements are plain ``Decimal`` values, which round to the thread's
current context, so every float computation must enter its field's context.
These tests make the thread's own context hostile -- 3 digits, with
``Inexact`` and ``Rounded`` trapped -- and run float mode end to end: an
operation outside the field's context raises or changes the digits.

``float_sha256.json`` holds the sha256 of the stdout and stderr of each
float ``expand --format json`` run at N = 12 (64 and 128 bits, with and
without the seed-0 free data of ``to_json_sha256.json``), and of the float
global report of ``berger-s3?squash=2``, as the ``BigFloat`` engine wrote
them; its residual check found no nonzero residual.
"""

import decimal
import hashlib
import json
from pathlib import Path

import pytest

from nahmpole import cli
from nahmpole.geometry import load_background
from nahmpole.oracle import (closed_solution, global_report, integrate_flow,
                             profile_state, trajectory_csv)
from nahmpole.scalars import FloatField
from nahmpole.series import check_residuals, expand

from conftest import SEED0_FREE_DATA

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "float_sha256.json").read_text())

BACKGROUNDS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2",
               "berger-s3?squash=5", "h2xr")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def hostile():
    """Set the thread's context to 3 digits with ``Inexact`` and ``Rounded``
    trapped for the test, and restore it after."""
    saved = decimal.getcontext()
    decimal.setcontext(decimal.Context(
        prec=3, traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                       decimal.DivisionByZero, decimal.Overflow]))
    try:
        yield
    finally:
        decimal.setcontext(saved)


def test_float_expand_bytes_under_hostile_context(hostile, capsys, tmp_path):
    free_path = tmp_path / "free.json"
    free_path.write_text(json.dumps(SEED0_FREE_DATA))
    for free in (False, True):
        for bg in BACKGROUNDS:
            for bits in (64, 128):
                argv = ["expand", "--background", f"builtin:{bg}", "--order", "12",
                        "--scalar", "float", "--prec", str(bits), "--format", "json"]
                if free:
                    argv += ["--free-data", str(free_path)]
                code = cli.main(argv)
                out, err = capsys.readouterr()
                name = f"{bg} {bits}" + (" free-data" if free else "")
                want = REFERENCE["expand"][name]
                assert (code, _sha256(out), _sha256(err)) == (
                    want["exit"], want["stdout"], want["stderr"]), name


def test_float_check_and_global_report_under_hostile_context(hostile):
    want = REFERENCE["berger-s3?squash=2 128 N=12"]
    series = expand(load_background("builtin:berger-s3?squash=2", FloatField(128)), N=12)
    assert check_residuals(series) == want["check_residuals"]
    report = global_report(series)
    assert report.a21_vanishes
    assert _sha256(report.to_json()) == want["global_report"]


def test_float_flow_bytes_under_hostile_context(hostile):
    # the integrator's operator is built over the background's own field; on
    # these frames every entry is exact at 64 bits, so the float64 operator,
    # and with it the trajectory, is the rational background's
    def trajectory(sol):
        return trajectory_csv(integrate_flow(sol.background, profile_state(sol, 0.2),
                                             1.0, tol=1e-10))

    for name in ("s3", "hyperbolic", "flat"):
        want = trajectory(closed_solution(name))
        for bits in (64, 128):
            assert trajectory(closed_solution(name, FloatField(bits))) == want, (name, bits)
