"""Byte identity of the canonical float series JSON at N = 24.

The N = 12 float pins never reach log depth p = 12, where the store's
zero test makes most of its decisions; these do.  ``float_n24_sha256.json``
holds the sha256 of ``to_json`` of the zero-free-data expansion at N = 24,
64 and 128 bits, on ``berger-s3`` at squash 2, 1e-6 (where float mode keeps
few digits, so a changed rounding order shows) and 665857/470832 (a
convergent of sqrt(2): long decimals in every structure constant), and on
``h2xr``.  The hashes were taken from the engine that summed each float
right-hand side through ``FormSum``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nahmpole.geometry import load_background
from nahmpole.scalars import FloatField
from nahmpole.series import expand, to_json

SHA256 = json.loads((Path(__file__).resolve().parent / "float_n24_sha256.json").read_text())


@pytest.mark.parametrize("case", sorted(SHA256))
def test_float_to_json_sha256_n24(case):
    bg, bits = case.rsplit(" ", 1)
    series = expand(load_background(f"builtin:{bg}", FloatField(int(bits))), N=24)
    assert hashlib.sha256(to_json(series).encode()).hexdigest() == SHA256[case]
