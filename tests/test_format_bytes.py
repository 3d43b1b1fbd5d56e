"""Byte identity of ``nahmpole expand --format csv`` and ``--format pretty``.

``format_sha256.json`` records the sha256 of the stdout of each case below,
taken from the printers whose ``RationalField.format`` built a ``Fraction``
from every entry before printing it; a cheaper ``format`` must print the
same bytes.  The cases are the catalog at N = 8 in rational mode, round-s3
at N = 12 with the matched free datum ``c_minus = -2/3 e``, and squashed
Berger at N = 12 in float mode at 64 and 128 bits.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nahmpole import cli

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "format_sha256.json").read_text())["sha256"]

BUILTINS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2", "h2xr")
MATCHED_S3 = {"c_minus": [["-2/3", "0", "0"],
                          ["0", "-2/3", "0"],
                          ["0", "0", "-2/3"]]}


def _cases():
    """``name -> (expand arguments, free data or None)``."""
    cases = {}
    for fmt in ("csv", "pretty"):
        for bg in BUILTINS:
            cases[f"{fmt} {bg} N=8"] = (
                ["--background", f"builtin:{bg}", "--order", "8", "--format", fmt], None)
        cases[f"{fmt} round-s3 N=12 matched"] = (
            ["--background", "builtin:round-s3", "--order", "12", "--format", fmt],
            MATCHED_S3)
    for bits in (64, 128):
        cases[f"csv berger-s3?squash=2 N=12 float{bits}"] = (
            ["--background", "builtin:berger-s3?squash=2", "--order", "12",
             "--format", "csv", "--scalar", "float", "--prec", str(bits)], None)
    return cases


CASES = _cases()


def expand_stdout(name, tmp_path, capsys):
    argv, free = CASES[name]
    if free is not None:
        path = tmp_path / "free.json"
        path.write_text(json.dumps(free))
        argv = argv + ["--free-data", str(path)]
    assert cli.main(["expand", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_expand_stdout_sha256(name, tmp_path, capsys):
    out = expand_stdout(name, tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[name]


def test_every_case_is_pinned():
    assert sorted(REFERENCE) == sorted(CASES)
