"""Byte identity of float ``nahmpole expand --format csv`` and ``--format
pretty``, and the float residual check.

``float_format_sha256.json`` records, for each background below at N = 12
and 64 and 128 bits, the exit code and the sha256 of the stdout and stderr
of ``expand --scalar float --format csv`` and ``--format pretty``, and the
list ``check_residuals(expand(bg, N=12))`` returns.  They were taken from
the float engine that entered the field's context once per kernel call,
before its kernels rounded through the context's own methods; both printers
and the residual check read the float zero test, so a change in where float
arithmetic rounds shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nahmpole import cli
from nahmpole.geometry import load_background
from nahmpole.scalars import FloatField
from nahmpole.series import check_residuals, expand

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "float_format_sha256.json").read_text())

BACKGROUNDS = ("flat", "round-s3", "hyperbolic-h3", "h2xr", "berger-s3?squash=2",
               "berger-s3?squash=5", "berger-s3?squash=3/7")
BITS = (64, 128)
EXPAND_CASES = [f"{fmt} {bg} {bits}" for fmt in ("csv", "pretty")
                for bg in BACKGROUNDS for bits in BITS]
RESIDUAL_CASES = [f"{bg} {bits}" for bg in BACKGROUNDS for bits in BITS]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", EXPAND_CASES)
def test_float_expand_format_sha256(name, capsys):
    fmt, bg, bits = name.split()
    code = cli.main(["expand", "--background", f"builtin:{bg}", "--order", "12",
                     "--scalar", "float", "--prec", bits, "--format", fmt])
    out, err = capsys.readouterr()
    want = REFERENCE["expand"][name]
    assert (code, _sha256(out), _sha256(err)) == (
        want["exit"], want["stdout"], want["stderr"])


@pytest.mark.parametrize("name", RESIDUAL_CASES)
def test_float_check_residuals(name):
    bg, bits = name.split()
    series = expand(load_background(f"builtin:{bg}", FloatField(int(bits))), N=12)
    assert [list(r) for r in check_residuals(series)] == REFERENCE["check_residuals"][name]


def test_every_case_is_pinned():
    assert sorted(REFERENCE["expand"]) == sorted(EXPAND_CASES)
    assert sorted(REFERENCE["check_residuals"]) == sorted(RESIDUAL_CASES)
