"""Time the exact residual check in one process.

Prints the minimum wall time of ``series.check_residuals`` on the five stored
rational N=12 tables (``benchmarks/refs/tables``), each timed on a table
fresh from ``series.from_json`` (no form read yet) and on one table reused
across the repeats, and of the five ``verify`` suites run through
``cli.main``.  Run it on two commits to compare them::

    PYTHONPATH=src python3 tests/residual_timing.py [REPEATS]

It is not a test module (no ``test_`` prefix), so pytest does not collect
it; it uses the standard library and the package only.
"""

import contextlib
import io
import re
import sys
import time
from pathlib import Path

from nahmpole import cli, series
from nahmpole.geometry import load_background
from nahmpole.scalars import RationalField

TABLES = Path(__file__).resolve().parents[1] / "benchmarks" / "refs" / "tables"
BUILTINS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2", "h2xr")
SUITES = ("identities", "einstein-catalog", "s3", "hyperbolic", "flat")


def best(run, repeats, setup=lambda: None):
    """The minimum over ``repeats`` calls of ``run(setup())``, in ms;
    ``setup`` is not timed."""
    times = []
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main(repeats=30):
    field = RationalField()
    print(f"{'job':<44}{'fresh ms':>10}{'reused ms':>11}")
    for name in BUILTINS:
        text = (TABLES / (re.sub(r"[^A-Za-z0-9]+", "-", name) + ".json")).read_text()
        bg = load_background(f"builtin:{name}", field)
        load = lambda: series.from_json(text, background=bg)  # noqa: E731
        if series.check_residuals(load()):
            raise SystemExit(f"{name}: nonzero residuals")
        fresh = best(series.check_residuals, repeats, load)
        table = load()
        reused = best(series.check_residuals, repeats, lambda: table)
        print(f"{'check_residuals ' + name + ' N=12':<44}{fresh:>10.3f}{reused:>11.3f}")
    for suite in SUITES:
        def run(_, suite=suite):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["verify", suite]) != 0:
                    raise SystemExit(f"verify {suite} failed")
        print(f"{'verify ' + suite:<44}{best(run, repeats):>10.3f}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
