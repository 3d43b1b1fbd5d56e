"""Byte identity of the canonical rational series JSON at N = 16 with free
data: the seed-0 free data of the benchmark (the same data the N = 12 pins
of ``test_to_json_bytes.py`` use) on ``round-s3`` and ``berger-s3?squash=2``.
At N = 16 every free constant reaches the high orders, where the quadratic
sources take the most pairs.  The hashes were taken from the engine whose
bilinear kernels multiplied every entry pair and whose sources summed one
form per ordered pair.
"""

import hashlib

import pytest

from nahmpole.geometry import load_background
from nahmpole.scalars import RationalField
from nahmpole.series import expand, to_json

from conftest import SEED0_FREE_DATA, free_data_from_doc

SHA256 = {
    "round-s3": "e7dfe8fda45afa3f985d1e6ea0250d7ab394ac2bf0b5001a4dc7b92eb99e5ba3",
    "berger-s3?squash=2":
        "e18366b17a4c973f40bb35b3e29b87ad80b85b5652eedda2ce6d79dce317418f",
}


@pytest.mark.parametrize("bg", list(SHA256))
def test_to_json_sha256_n16_free_data(bg):
    field = RationalField()
    series = expand(load_background(f"builtin:{bg}", field),
                    free_data_from_doc(field, SEED0_FREE_DATA), 16)
    assert hashlib.sha256(to_json(series).encode()).hexdigest() == SHA256[bg]
