"""Byte identity of the ``nahmpole verify`` reports.

``verify_sha256.json`` records the sha256 of the stdout of each of the five
suites, taken before the projectors and the identities suite ran on integer
numerators; a faster suite must print the same checks in the same order.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nahmpole import cli

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "verify_sha256.json").read_text())["sha256"]


@pytest.mark.parametrize("suite", sorted(REFERENCE))
def test_verify_report_sha256(suite, capsys):
    assert cli.main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[suite]


def test_every_suite_is_pinned():
    assert sorted(REFERENCE) == sorted(cli._SUITES)
