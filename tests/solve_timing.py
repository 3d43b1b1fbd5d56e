"""Time the solve step, whole and by layer, in one process.

Prints the minimum wall time of ``series.expand`` (on a background loaded
once) over rational scalars on berger-s3?squash=2 and h2xr at N=12 and
N=24, and on berger-s3?squash=2 with the seed-0 free data of the byte pins
(``tests/to_json_sha256.json``) at N=12, and over 64- and 128-bit float
scalars on berger-s3?squash=2 and h2xr at N=12; of the three frame operators
``geometry.star_d_omega``, ``d_omega`` and ``d_omega_star``, in microseconds
per call, over every stored form of each N=12 table that the operator takes
(a and b, phi_y, a and b); and of ``series.quadratic_source`` over the cells
``expand`` visits, in the order it visits them (recorded once by wrapping
the module global, which is what ``advance_order`` calls); and of
``series.seed_leading`` with no free data on each of the five builtins, over
rational scalars and at 64 and 128 bits, in microseconds per call, on a
background loaded once.  The sources of order k read no entry that the step at
order k stores, so each cell is timed on the finished table.  Run it on two
commits to compare them::

    PYTHONPATH=src python3 tests/solve_timing.py [REPEATS]

It is not a test module (no ``test_`` prefix), so pytest does not collect
it; it uses the standard library and the package only.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from nahmpole import geometry, series
from nahmpole.algebra import GForm
from nahmpole.scalars import FloatField, RationalField

FREE_DATA = json.loads((Path(__file__).resolve().parent
                        / "to_json_sha256.json").read_text())["free_data"]
#: (background, order, with the seed-0 free data)
JOBS = (("berger-s3?squash=2", 12, False), ("berger-s3?squash=2", 24, False),
        ("h2xr", 12, False), ("h2xr", 24, False), ("berger-s3?squash=2", 12, True))
#: (background, bits) of the float jobs, at N=12 with no free data
FLOAT_JOBS = tuple((name, bits) for bits in (64, 128) for name in ("berger-s3?squash=2", "h2xr"))
BUILTINS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2", "h2xr")


def best(run, repeats):
    """The minimum over ``repeats`` calls of ``run()``, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def free_data(field):
    return series.FreeData(field=field, **{
        key: GForm.one_form(field, [[Fraction(v) for v in row] for row in rows])
        for key, rows in FREE_DATA.items()})


def visited_cells(bg, free, order):
    """The table ``expand`` returns and the ``(k, p)`` of each
    ``quadratic_source`` call it made, in order."""
    cells, source = [], series.quadratic_source

    def record(s, k, p):
        cells.append((k, p))
        return source(s, k, p)

    series.quadratic_source = record
    try:
        table = series.expand(bg, free, order)
    finally:
        series.quadratic_source = source
    return table, cells


def main(repeats=20):
    print(f"{'job':<44}{'expand ms':>11}{'cells':>7}{'sources ms':>12}")
    tables = {}
    runs = [(RationalField(), name, order, free, "") for name, order, free in JOBS] + [
        (FloatField(bits), name, 12, False, f" float{bits}") for name, bits in FLOAT_JOBS]
    for field, name, order, free, label in runs:
        bg = geometry.load_background(f"builtin:{name}", field)
        data = free_data(field) if free else None
        table, cells = visited_cells(bg, data, order)
        label += " free data" if free else ""
        if order == 12:
            tables[name + label] = table
        whole = best(lambda: series.expand(bg, data, order), repeats)
        sources = best(lambda: [series.quadratic_source(table, k, p) for k, p in cells],
                       repeats)
        job = f"{name} N={order}{label}"
        print(f"{job:<44}{1e3 * whole:>11.3f}{len(cells):>7}{1e3 * sources:>12.3f}")
    print(f"{'frame operators on stored N=12 forms':<44}{'star_d_omega':>13}"
          f"{'d_omega':>9}{'d_omega_star':>13}  us/call")
    for job, table in tables.items():
        bg = table.background
        stored = [table.at(k, p) for k, p in table.addresses()]
        ones = [x for c in stored for x in (c.a, c.b) if not x.is_zero()]
        zeros = [c.phi_y for c in stored if not c.phi_y.is_zero()]
        row = []
        for op, forms in ((geometry.star_d_omega, ones), (geometry.d_omega, zeros),
                          (geometry.d_omega_star, ones)):
            if not forms:  # no stored form of that degree
                row.append("-")
                continue
            us = 1e6 * best(lambda: [op(bg, x) for x in forms], repeats) / len(forms)
            row.append(f"{us:.2f}")
        print(f"{job:<44}{row[0]:>13}{row[1]:>9}{row[2]:>13}")
    print(f"{'seed_leading, no free data (us)':<44}{'exact':>10}{'64 bit':>11}{'128 bit':>11}")
    for name in BUILTINS:
        row = []
        for field in (RationalField(), FloatField(64), FloatField(128)):
            bg = geometry.load_background(f"builtin:{name}", field)
            row.append(1e6 * best(lambda: series.seed_leading(bg), repeats))
        print(f"{'series.seed_leading ' + name:<44}{row[0]:>10.1f}{row[1]:>11.1f}{row[2]:>11.1f}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
