"""Byte identity of the canonical rational series JSON at high order: the
five builtins at N = 24 and N = 32 with zero free data, and the seed-0 free
data of the benchmark (as in ``test_to_json_n16.py``) on ``round-s3`` and
``berger-s3?squash=2`` at N = 24.  At these orders the log ladder of the
non-Einstein models is deep and the quadratic sources take many pairs per
cell, so any solve path must reproduce the same bytes.  The hashes were
taken from the engine that summed each right-hand side through ``FormSum``.
"""

import hashlib

import pytest

from nahmpole.geometry import load_background
from nahmpole.scalars import RationalField
from nahmpole.series import expand, to_json

from conftest import SEED0_FREE_DATA, free_data_from_doc

SHA256 = {
    ("flat", 24): "22f9e42944693d95431b46cdb849dcbce50c1f8b3bedec71e8f68d0be13b974e",
    ("flat", 32): "dbb4b02bce941906f80f459234741c3263a8e2674a16da7e4c0ce7ff5b9814dd",
    ("round-s3", 24): "d4180d34758c10de6abdbdbbdd17310455257ce86b66785414c7641351fdb45d",
    ("round-s3", 32): "89a35713c27121a697a3d9b05b5959036473e8ac9ced12693d42fbca444e8e04",
    ("hyperbolic-h3", 24):
        "e895d50fec8d71d365d39b85e1ed1c7ed9310b78b8a32bed2621d7b070e3ae5b",
    ("hyperbolic-h3", 32):
        "1cddd6f0e5ad2238ff365650db1836d6afae09e1eef2d7d8c28293af519a5f1f",
    ("berger-s3?squash=2", 24):
        "2879a47c8fb583c85283f428465bbc319c04373f741e53b9a998060fbbfc2218",
    ("berger-s3?squash=2", 32):
        "30098b68a30a11a0d363b45b084235bcda301ac1d64ab208d75374257d97319e",
    ("h2xr", 24): "bfc60f6d37a8c8c508438a01c62c807c0fcc30217f644d9ba32b4f0d1d9c8659",
    ("h2xr", 32): "5be42d28a6e33b636d516da6fd04117e47c6b54ee3ed7c006b34e86f8bd2e765",
}

FREE_DATA_SHA256 = {
    "round-s3": "2d62ede44e08947fc90c0dace4fbed2e36f6d1d85c09d075f9dfe16075a32d29",
    "berger-s3?squash=2":
        "5ecd1cb44e5f728ad7b394010b1213d43f96312bdc4b5087cd3a41fe8dd16d50",
}


def digest(bg, free, order):
    field = RationalField()
    data = free_data_from_doc(field, SEED0_FREE_DATA) if free else None
    series = expand(load_background(f"builtin:{bg}", field), data, order)
    return hashlib.sha256(to_json(series).encode()).hexdigest()


@pytest.mark.parametrize("bg,order", list(SHA256), ids=[f"{bg} N={n}" for bg, n in SHA256])
def test_to_json_sha256_high_order(bg, order):
    assert digest(bg, False, order) == SHA256[bg, order]


@pytest.mark.parametrize("bg", list(FREE_DATA_SHA256))
def test_to_json_sha256_n24_free_data(bg):
    assert digest(bg, True, 24) == FREE_DATA_SHA256[bg]
