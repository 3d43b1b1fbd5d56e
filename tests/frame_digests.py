"""Digests of the catalog frames and the flow's columns: ``python3 tests/frame_digests.py [SRC]``.

Prints as sorted JSON the sha256 of the ``repr`` of

* each builtin frame's name, ``c``, ``conn``, ``W`` and ``*F`` entries, volume,
  ``_frame``, ``_scale`` and ``background_to_json``, over 17 name/parameter
  pairs, in rational, 64-bit and 128-bit float scalars (51 rows);
* the message of each of seven refusals of ``builtin`` and its URI parser;
* the ``M0`` columns and the integrator's ``(c, G)`` bytes of flat, round-s3,
  hyperbolic-h3, h2xr and berger-s3 at squash 2, 5 and 3/7, in each of the
  three fields (21 rows), and the ``[M1 | Qp]`` columns.

``SRC`` is the directory that ``nahmpole`` is imported from, by default this
checkout's ``src``.  To check that a change moves none of these values, run it
on both trees and compare, as with ``tests/output_digests.py``.  It is not a
test module, so pytest does not collect it, and it writes no bytecode.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
SRC = sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from nahmpole import geometry, oracle  # noqa: E402
from nahmpole.scalars import FloatField, RationalField  # noqa: E402

PAIRS = [("flat", None), ("h2xr", None)] + [
    (name, p) for name, ps in (
        ("round-s3", (None, 1, 2, Fraction(1, 3), Fraction(5, 7))),
        ("hyperbolic-h3", (None, 3, Fraction(1, 2), Fraction(7, 5))),
        ("berger-s3", (None, 2, 5, Fraction(3, 7), Fraction(1, 10), 10)))
    for p in ps]
FLOW = [("flat", None), ("round-s3", None), ("hyperbolic-h3", None), ("h2xr", None),
        ("berger-s3", 2), ("berger-s3", 5), ("berger-s3", Fraction(3, 7))]
REFUSALS = [("nope", None), ("flat", 2), ("round-s3", -1), ("berger-s3", 0),
            ("round-s3", Fraction(1, 10 ** 200)), ("berger-s3", Fraction(1, 10 ** 400))]
FIELDS = {"rational": RationalField, "f64": lambda: FloatField(64),
          "f128": lambda: FloatField(128)}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def main():
    out = {}
    for fname, make in FIELDS.items():
        for name, p in PAIRS:
            bg = geometry.builtin(name, p, field=make())
            out[f"frame {name} {p} {fname}"] = _digest((
                bg.name, bg.c, bg.conn, bg.W.entries(), bg.starF.entries(), bg.volume,
                bg._frame, bg._scale, geometry.background_to_json(bg)))
        for name, p in FLOW:
            bg = geometry.builtin(name, p, field=make())
            c, G = oracle._flow_operator(bg)
            out[f"columns {name} {p} {fname}"] = _digest((
                [bg._columns[u] for u in range(21)], c.tobytes(), G.tobytes()))
    for args in REFUSALS + [("uri", "builtin:flat?scale=2")]:
        try:
            if args[0] == "uri":
                geometry.load_background(args[1])
            else:
                geometry.builtin(*args)
            message = "accepted"
        except ValueError as exc:
            message = str(exc)
        out[f"refusal {args}"] = _digest(message)
    out["M1 | Qp"] = _digest(geometry._M1_QP)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
