"""Time the flow integrator per accepted step, its right-hand side and its set-up.

Prints, in microseconds:

* per accepted step of ``oracle.integrate_flow``, on the three integrations of
  the flow benchmark (the N=6 series states of s3 and hyperbolic at y = 0.01
  driven to 1 at tol 1e-12, and the s3 one at the fixed step 0.01) and on the
  one ``ode-compare s3`` makes with its defaults (the same s3 state driven to
  y = 0.1 at tol 1e-10): the minimum over the repeats of the whole call, divided
  by its accepted steps, so each figure includes one set-up of the call; each
  runs on a background freshly built by ``oracle.closed_solution``;
* per call of the right-hand side that ``oracle._flow_rhs`` builds, as the
  integrator calls it (``rhs(y, rhs.v, out)``) and without ``out``, on a state
  of its own (``rhs(y, v)``, as ``solve_ivp`` calls it);
* per build of that right-hand side, ``oracle._flow_rhs(bg)``, on a background
  whose frame columns are already read (the build each ``integrate_flow`` call
  makes);
* per state of ``oracle._unpack_states``, on the packed rows of the s3
  adaptive trajectory above (each call on a fresh copy of the rows, included);
* per call of ``oracle.convergence_table`` on the ``ode-compare s3`` defaults
  (N = 2, 4, 6 over 12 points of 0.01..0.1, the series passed in, as the CLI
  does) and on a small-y grid (N = 2, 12 over 12 points of 1e-8..1e-3);
* per call of the exact ``oracle.flow_rhs`` on the operands of the
  ``oracle.flow_rhs_exact_us`` probe of ``benchmarks/layers.py`` (berger
  squash=2, y = 1/100, dense forms as wide as the N=12 table's largest
  coefficient), and of the float one on the same operands rounded once, over a
  ``FloatField(128)`` background and as native floats over the rational one;
  and per call of ``oracle.flow_residual`` on the closed forms.

Run it on two commits to compare them::

    PYTHONPATH=src python3 tests/flow_timing.py [REPEATS]

It is not a test module (no ``test_`` prefix), so pytest does not collect
it; it uses the standard library, the package and the probe's operand
generator in ``benchmarks/layers.py``.
"""

import random
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from nahmpole import geometry, oracle
from nahmpole.algebra import GForm
from nahmpole.geometry import load_background
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import expand, from_json

#: (label, solution, y0, y1, integrate_flow keywords); each starts from the N=6
#: series state of the solution's matched free data at y0
INTEGRATIONS = (
    ("s3 adaptive 0.01 -> 1, tol 1e-12", "s3", 0.01, 1.0, {"tol": 1e-12}),
    ("hyperbolic adaptive 0.01 -> 1, tol 1e-12", "hyperbolic", 0.01, 1.0, {"tol": 1e-12}),
    ("s3 fixed step 0.01, 0.01 -> 1", "s3", 0.01, 1.0, {"fixed_step": 0.01}),
    ("ode-compare s3: 0.01 -> 0.1, tol 1e-10", "s3", 0.01, 0.1, {"tol": 1e-10}),
)
ORDER = 6
#: right-hand side calls per timed run
CALLS = 2000


def best(run, repeats):
    """The minimum over ``repeats`` calls of ``run()``, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def series_start(name, y0):
    """The solution's background, freshly built by ``closed_solution`` (the table
    of live catalog frames emptied first, since ``geometry.builtin`` returns the
    frame another holder keeps alive), and the N=6 series state at ``y0``."""
    geometry._LIVE.clear()
    sol = oracle.closed_solution(name)
    bg = sol.background
    table = expand(bg, oracle.matched_free_data(name, bg.field), ORDER)
    return bg, oracle.state_from_series(table, y0, ORDER)


def probe_operands():
    """``(bg, x, y, phi)`` as the layers probe builds them for ``flow_rhs``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import layers

    rat = RationalField()
    bg = load_background(f"builtin:{layers.BERGER}", rat)
    table = from_json(layers.W.table_path(layers.BERGER).read_text(), background=bg)
    num_bits, den_bits = (max(bits) for bits in zip(
        *(layers._bits(v) for v in table.get_a(12, 0).entries() if v)))
    return (bg, *layers._random_forms(random.Random(layers.PROBE_SEED), rat, num_bits,
                                      den_bits))


def main(repeats=20):
    print(f"{'integrate_flow':<44}{'steps':>7}{'us/step':>10}")
    for label, name, y0, y1, kwargs in INTEGRATIONS:
        bg, init = series_start(name, y0)
        steps = len(oracle.integrate_flow(bg, init, y1, **kwargs)) - 1
        call = best(lambda: oracle.integrate_flow(bg, init, y1, **kwargs), repeats)
        print(f"{label:<44}{steps:>7}{1e6 * call / steps:>10.2f}")

    bg, init = series_start("s3", 0.01)
    rhs = oracle._flow_rhs(bg)
    v, y = init.v, float(init.y)
    out = rhs(y, v)

    def with_out():
        rhs.v[:] = v
        for _ in range(CALLS):
            rhs(y, rhs.v, out)

    def without_out():
        for _ in range(CALLS):
            rhs(y, v)
    print(f"{'rhs':<44}{'':>7}{'us/call':>10}")
    for label, run in (("rhs(y, rhs.v, out), the integrator's call", with_out),
                       ("rhs(y, v), a new array", without_out)):
        print(f"{label:<44}{'':>7}{1e6 * best(run, repeats) / CALLS:>10.3f}")
    build = best(lambda: oracle._flow_rhs(bg), repeats)
    print(f"{'_flow_rhs(bg), per build':<44}{'':>7}{1e6 * build:>10.2f}")

    bg, init = series_start("s3", 0.01)
    traj = oracle.integrate_flow(bg, init, 1.0, tol=1e-12)
    ys, V = [st.y for st in traj], np.array([oracle._pack_state(bg, st) for st in traj])
    W = np.ravel(bg.W.to_floats())
    unpack = best(lambda: oracle._unpack_states(W, ys, V.copy()), repeats)
    print(f"{'_unpack_states, per state':<44}{len(ys):>7}{1e6 * unpack / len(ys):>10.3f}")

    sol = oracle.closed_solution("s3")
    for label, orders, lo, hi in (("convergence_table ode-compare s3 defaults", (2, 4, 6),
                                   0.01, 0.1),
                                  ("convergence_table N=2,12 y 1e-8..1e-3", (2, 12),
                                   1e-8, 1e-3)):
        table = expand(sol.background, oracle.matched_free_data("s3"), max(orders))
        call = partial(oracle.convergence_table, sol, orders, lo, hi, series=table)
        print(f"{label:<44}{'':>7}{1e6 * best(call, repeats):>10.2f}")

    bg, *forms = probe_operands()
    f128 = load_background(f"builtin:{bg.name}", FloatField(128))
    calls = [("flow_rhs exact, layers probe operands",
              partial(oracle.flow_rhs, bg, Fraction(1, 100), *forms))]
    for label, at, num in (("FloatField(128)", f128, f128.field.from_fraction),
                           ("native floats", bg, float)):
        calls.append((f"flow_rhs {label}, probe operands", partial(
            oracle.flow_rhs, at, num(Fraction(1, 100)),
            *(GForm.from_entries(at.field, [num(v) for v in f.entries()]) for f in forms))))
    for name, at in (("s3", 0.5), ("hyperbolic", 0.5), ("flat", Fraction(1, 3))):
        calls.append((f"flow_residual {name} y={at}",
                      partial(oracle.flow_residual, oracle.closed_solution(name), at)))
    for label, call in calls:
        call()  # the columns are built on first read
        print(f"{label:<44}{'':>7}{1e6 * best(call, repeats):>10.2f}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
