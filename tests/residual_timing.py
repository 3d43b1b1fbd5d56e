"""Time the exact residual check and the flow operator's first use in one process.

Prints the minimum wall time of ``series.check_residuals`` on the five stored
rational N=12 tables (``benchmarks/refs/tables``), each timed on a table
fresh from ``series.from_json`` attached to a freshly built background
(whose first check builds what it keeps per background), on a fresh table on
one background (no form read yet) and on one table reused across the
repeats; of the five ``verify`` suites run through ``cli.main``; and of the
first and the second ``oracle.integrate_flow`` from y = 0.2 to 0.5 on a freshly
built ``oracle.closed_solution`` background (the first builds the flow operator); of
``oracle.taylor_profile`` for the three closed-form solutions at N = 6 and 12;
and of one ``algebra.gamma_op`` call on the stored berger-s3?squash=2 ``a`` at
(12, 0) and one ``algebra.e_bracket`` call on that ``Gamma(a)`` (the mean of 100;
the stored tables hold no ``phi_y``); and of the float ``check_residuals`` at 64
and 128 bits on N=12 tables expanded in float mode on the five builtins and
berger-s3 at squash 5, 3/7 and 1e-6, each timed on a table fresh from
``series.from_json`` on a background whose first check built its columns; and
of ``geometry.builtin`` on each catalog entry, exact and at 64 bits, building
the frame, and of compiling all 21 ``_Columns`` of the flow's frame part on a
background freshly built by ``geometry.builtin`` (not timed), exact and at 64
bits; and of a ``geometry.builtin`` request that finds its frame alive.
A frame is built fresh by emptying ``geometry``'s table of live catalog frames
first (:func:`built_anew`), since ``builtin`` returns the frame another holder keeps
alive.
Run it on two commits to compare them::

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

from nahmpole import algebra, cli, geometry, oracle, series
from nahmpole.geometry import load_background
from nahmpole.scalars import FloatField, RationalField

TABLES = Path(__file__).resolve().parents[1] / "benchmarks" / "refs" / "tables"
BUILTINS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2", "h2xr")
SUITES = ("identities", "einstein-catalog", "s3", "hyperbolic", "flat")
FLOWS = ("s3", "hyperbolic")
FLOAT_BACKGROUNDS = BUILTINS + tuple(f"berger-s3?squash={q}" for q in ("5", "3/7", "1e-6"))


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


def built_anew(request, *args):
    """``request(*args)`` with the table of live catalog frames emptied first, so
    that it builds its frame as when no holder keeps one alive."""
    geometry._LIVE.clear()
    return request(*args)


def first_and_second_flow(name, repeats):
    """The minimum ms of the first and of the second ``integrate_flow`` on a
    background freshly built by ``closed_solution``."""
    firsts, seconds = [], []
    for _ in range(repeats):
        sol = built_anew(oracle.closed_solution, name)
        init = oracle.profile_state(sol, 0.2)
        for times in (firsts, seconds):
            start = time.perf_counter()
            oracle.integrate_flow(sol.background, init, 0.5, tol=1e-10)
            times.append(time.perf_counter() - start)
    return 1e3 * min(firsts), 1e3 * min(seconds)


def compile_columns(bg):
    """Compile every column of ``bg``'s frame part ``M0``, one per slot."""
    for u in range(21):
        bg._columns[u]


def main(repeats=30):
    field = RationalField()
    print(f"{'job':<44}{'new bg ms':>10}{'fresh ms':>10}{'reused ms':>11}")
    for name in BUILTINS:
        text = (TABLES / (re.sub(r"[^A-Za-z0-9]+", "-", name) + ".json")).read_text()
        bg = load_background(f"builtin:{name}", field)
        load = lambda: series.from_json(text, background=bg)  # noqa: E731
        if series.check_residuals(load()):
            raise SystemExit(f"{name}: nonzero residuals")
        new_bg = best(series.check_residuals, repeats, lambda: series.from_json(
            text, background=built_anew(load_background, f"builtin:{name}", field)))
        fresh = best(series.check_residuals, repeats, load)
        table = load()
        reused = best(series.check_residuals, repeats, lambda: table)
        print(f"{'check_residuals ' + name + ' N=12':<44}{new_bg:>10.3f}{fresh:>10.3f}"
              f"{reused:>11.3f}")
    for suite in SUITES:
        def run(_, suite=suite):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["verify", suite]) != 0:
                    raise SystemExit(f"verify {suite} failed")
        print(f"{'verify ' + suite:<44}{best(run, repeats):>10.3f}")
    for name in FLOWS + ("flat",):
        sol = oracle.closed_solution(name)
        times = [best(lambda _: oracle.taylor_profile(sol, N), repeats) for N in (6, 12)]
        print(f"{'taylor_profile ' + name + ' N=6 | N=12':<44}{times[0]:>10.3f}{times[1]:>10.3f}")
    text = (TABLES / "berger-s3-squash-2.json").read_text()
    table = series.from_json(text, background=load_background("builtin:berger-s3?squash=2", field))
    a = table._a[(12, 0)]
    for op, x in ((algebra.gamma_op, a), (algebra.e_bracket, algebra.gamma_op(a))):
        def calls(_, op=op, x=x):
            for _ in range(100):
                op(x)
        print(f"{op.__name__ + ' on a stored N=12 form (us)':<44}{10 * best(calls, repeats):>10.3f}")
    print(f"{'float check_residuals N=12':<44}{'64 bit ms':>10}{'128 bit ms':>11}")
    for name in FLOAT_BACKGROUNDS:
        times = []
        for bits in (64, 128):
            bg = load_background(f"builtin:{name}", FloatField(bits))
            text = series.to_json(series.expand(bg, N=12))
            load = lambda: series.from_json(text, background=bg)  # noqa: E731
            if series.check_residuals(load()):
                raise SystemExit(f"{name} at {bits} bits: nonzero residuals")
            times.append(best(series.check_residuals, repeats, load))
        print(f"{'check_residuals ' + name:<44}{times[0]:>10.3f}{times[1]:>11.3f}")
    print(f"{'catalog frame (us)':<44}{'exact':>10}{'64 bit':>11}")
    for entry in BUILTINS:
        name, _, query = entry.partition("?")
        param = query.partition("=")[2] or None
        fields = (field, FloatField(64))
        times = [1e3 * best(lambda _, f=f: geometry.builtin(name, param, f), repeats,
                            geometry._LIVE.clear) for f in fields]
        print(f"{'geometry.builtin ' + entry:<44}{times[0]:>10.1f}{times[1]:>11.1f}")
        times = [1e3 * best(compile_columns, repeats,
                            lambda f=f: built_anew(geometry.builtin, name, param, f))
                 for f in fields]
        print(f"{'21 _Columns on a fresh ' + entry:<44}{times[0]:>10.1f}{times[1]:>11.1f}")
    held = [geometry.builtin("berger-s3", 2, f) for f in fields]  # noqa: F841, kept alive
    times = [1e3 * best(lambda _, f=f: geometry.builtin("berger-s3", 2, f), repeats)
             for f in fields]
    print(f"{'geometry.builtin berger-s3?squash=2, live':<44}{times[0]:>10.1f}{times[1]:>11.1f}")
    print(f"{'flow y = 0.2 to 0.5':<44}{'first ms':>10}{'second ms':>11}")
    for name in FLOWS:
        first, second = first_and_second_flow(name, repeats)
        print(f"{'integrate_flow ' + name:<44}{first:>10.3f}{second:>11.3f}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
