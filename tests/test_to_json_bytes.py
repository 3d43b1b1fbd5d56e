"""Byte identity of the canonical rational series JSON.

``to_json_sha256.json`` records the sha256 of :func:`to_json` for the
catalog at N = 8, 12 and 16, and for the seeded free data (stored in the
same file) on ``round-s3`` and ``berger-s3?squash=2`` at N = 12.  The hashes
were taken from the engine that built its projectors by Lagrange
interpolation in ``L`` and walked every log depth up to 2k+1; any faster
solve path must reproduce these bytes exactly.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from nahmpole.algebra import GForm
from nahmpole.geometry import load_background
from nahmpole.scalars import RationalField
from nahmpole.series import FreeData, expand, to_json

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "to_json_sha256.json").read_text())

BUILTINS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2", "h2xr")
CASES = ([(bg, n, False) for bg in BUILTINS for n in (8, 12, 16)]
         + [(bg, 12, True) for bg in ("round-s3", "berger-s3?squash=2")])


def case_name(bg, order, free):
    return f"{bg} N={order}" + (" free-data" if free else "")


def free_data(field, doc):
    return FreeData(field=field, **{
        key: GForm.one_form(field, [[Fraction(v) for v in row] for row in rows])
        for key, rows in doc.items()})


def series_json(bg, order, free):
    field = RationalField()
    data = free_data(field, REFERENCE["free_data"]) if free else None
    background = load_background(f"builtin:{bg}", field)
    return to_json(expand(background, data, order))


@pytest.mark.parametrize("bg,order,free", CASES,
                         ids=[case_name(*case) for case in CASES])
def test_to_json_sha256(bg, order, free):
    digest = hashlib.sha256(series_json(bg, order, free).encode()).hexdigest()
    assert digest == REFERENCE["sha256"][case_name(bg, order, free)]
