"""The four workloads: their jobs, set-up, warm-up and correctness checks.

Every job goes through the public API or ``nahmpole.cli.main``.  Functions
are looked up on their module at call time (``series.check_residuals``, not
a name bound here), so the tracer in ``tracing.py`` sees every call.

A job's ``run`` is timed; its ``check`` runs off the clock.  ``run`` raising,
or a nonzero exit code, makes the job an *error*; ``check`` returning a
reason makes it *wrong*.  Both count as failed jobs, and neither stops the
run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import nahmpole
from nahmpole import cli, geometry, oracle, series
from nahmpole.algebra import EigenPart, GForm, project
from nahmpole.scalars import RationalField

import calibration
from tracing import Tracer

BUILTINS = ("flat", "round-s3", "hyperbolic-h3", "berger-s3?squash=2", "h2xr")
EINSTEIN = {"flat": True, "round-s3": True, "hyperbolic-h3": True,
            "berger-s3?squash=2": False, "h2xr": False}
EXACT_ORDERS = (8, 12)
FREE_DATA_BACKGROUNDS = ("round-s3", "berger-s3?squash=2")
FLOAT_BACKGROUNDS = ("round-s3", "hyperbolic-h3", "berger-s3?squash=2",
                     "berger-s3?squash=5", "h2xr")
FLOAT_PRECISIONS = (64, 128)
#: Relative agreement of float tables with the rational ones: per entry,
#: |float - exact| <= rtol * max(|exact|, 1).
FLOAT_RTOL = {64: 1e-15, 128: 1e-30}
VERIFY_SUITES = ("identities", "einstein-catalog", "s3", "hyperbolic", "flat")
FLOW_Y0, FLOW_Y1, FLOW_ORDER, FLOW_TOL = 0.01, 1.0, 6, 1e-12
FIXED_STEP = 0.01
FIXED_STEPS = 99
#: Accuracy gates are this many times the deviation measured at the
#: baseline, and never tighter than ``GATE_FLOOR``.
GATE_FACTOR, GATE_FLOOR = 10.0, 1e-14
DEFAULT_SEED = 0

REFS_DIR = Path(__file__).resolve().parent / "refs"


class JobError(Exception):
    """A job ended without usable output (raised or exited nonzero)."""


@dataclass
class Job:
    name: str
    run: object
    check: object


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str          # "ok", "error" or "wrong"
    reason: str = ""
    digest: str = ""


@dataclass
class Prepared:
    jobs: list
    #: One discarded call through the same code path, run before timing.
    warmup: object


@dataclass(frozen=True)
class Workload:
    name: str
    #: Whole cycles in a 10-second run, set at the baseline so that a run
    #: times 10-20 s of jobs on a 2-core Xeon.  A count rather than a clock,
    #: so the sample count, and with it the level of ``job_s.tail``, is the
    #: same on every commit.
    cycles_per_10s: int
    prepare: object

    def cycles(self, seconds: float) -> int:
        return max(1, round(self.cycles_per_10s * seconds / 10))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs() -> dict:
    with open(REFS_DIR / "references.json") as fh:
        return json.load(fh)


def table_path(bg: str) -> Path:
    return REFS_DIR / "tables" / (re.sub(r"[^A-Za-z0-9]+", "-", bg) + ".json")


def expand_name(bg: str, order: int) -> str:
    return f"expand {bg} N={order}"


def free_name(bg: str, order: int) -> str:
    return f"expand {bg} N={order} free-data"


def call_cli(argv):
    """Run ``cli.main`` with captured streams; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _need_exit_zero(result):
    code, _out, err = result
    if code != 0:
        last = err.strip().splitlines()[-1:] or [""]
        raise JobError(f"exit code {code}: {last[0]}")


def run_job(job: Job) -> Outcome:
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a failed job is counted, never fatal
        return Outcome(job.name, time.perf_counter() - start, "error",
                       f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        reason, digest = job.check(result)
    except JobError as exc:
        return Outcome(job.name, seconds, "error", str(exc))
    except Exception as exc:
        return Outcome(job.name, seconds, "wrong",
                       f"check raised {type(exc).__name__}: {exc}")
    return Outcome(job.name, seconds, "wrong" if reason else "ok",
                   reason or "", digest)


def new_tracer() -> Tracer:
    """A tracer over the public calls that make up the span tree:
    cli.main > load_background, expand > seed_leading, advance_order(k) >
    quadratic_source(k, p); to_json; check_residuals > residual_at(K, p);
    state_from_series, integrate_flow, convergence_table."""
    return Tracer((nahmpole, cli, geometry, oracle, series), {
        "cli.main": (cli.main, None),
        "geometry.load_background": (geometry.load_background, None),
        "series.expand": (series.expand, None),
        "series.seed_leading": (series.seed_leading, None),
        "series.advance_order": (series.advance_order,
                                 lambda s, k: {"k": k}),
        "series.quadratic_source": (series.quadratic_source,
                                    lambda s, k, p: {"k": k, "p": p}),
        "series.to_json": (series.to_json, None),
        "series.check_residuals": (series.check_residuals, None),
        "series.residual_at": (series.residual_at,
                               lambda s, K, p: {"K": K, "p": p}),
        "oracle.state_from_series": (oracle.state_from_series, None),
        "oracle.integrate_flow": (oracle.integrate_flow, None),
        "oracle.convergence_table": (oracle.convergence_table, None),
    })


def run_cycle(jobs, tracer=None):
    """Every job once, with the calibration kernel timed before the first
    job and after each one: returns the outcomes and len(jobs) + 1 kernel
    times, job ``i`` lying between kernel times ``i`` and ``i + 1``.  With
    a tracer, each job's spans carry its name."""
    outcomes, kernel = [], [calibration.kernel_seconds()]
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        outcomes.append(run_job(job))
        kernel.append(calibration.kernel_seconds())
    return outcomes, kernel


# ---------------------------------------------------------------------------
# expand-exact
# ---------------------------------------------------------------------------


def free_data_doc(seed: int) -> dict:
    """Free data from the workload seed: small random rationals projected
    onto the V+ / V0 / V- eigenspaces their slots require."""
    rng = random.Random(seed)
    field = RationalField()
    doc = {}
    for key, part in (("c_plus", EigenPart.Plus), ("c_zero", EigenPart.Zero),
                      ("c_minus", EigenPart.Minus)):
        raw = GForm.one_form(field, [
            [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
             for _ in range(3)] for _ in range(3)])
        doc[key] = [[field.format(v) for v in row]
                    for row in project(raw, part).coeffs]
    return doc


def structural_failure(text: str, bg_uri: str):
    """Tolerance-free checks of a rational table: zero residuals, parity,
    and log-free iff Einstein.  Returns a reason or None."""
    bg = geometry.load_background(f"builtin:{bg_uri}", RationalField())
    table = series.from_json(text, background=bg)
    bad = series.check_residuals(table)
    if bad:
        return f"nonzero residuals at {bad[:3]}"
    parity = series.assert_parity(table)
    if parity:
        return f"parity violations {parity[:3]}"
    if series.is_log_free(table) != geometry.is_einstein(bg):
        return "log-free does not match Einstein"
    return None


def _summary_failure(err: str, bg: str):
    want = f"log_free={str(EINSTEIN[bg]).lower()} " \
           f"einstein={str(EINSTEIN[bg]).lower()} parity=ok"
    if want not in err:
        return f"summary line {err.strip()!r}, expected {want!r}"
    return None


def _expand_job(bg, order, expected, free_data=None):
    """A rational ``expand --format json`` job.  Its output must hash to
    ``expected``.  A free-data job off the default seed has no reference
    (``expected`` is None): its first output is checked structurally, off
    the clock, and every later one must repeat its bytes."""
    argv = ["expand", "--background", f"builtin:{bg}", "--order", str(order),
            "--format", "json"]
    if free_data is not None:
        argv += ["--free-data", str(free_data)]
    seen = {}

    def check(result):
        _need_exit_zero(result)
        _code, out, err = result
        digest = sha256(out)
        if expected is not None:
            if digest != expected:
                return (f"output sha256 {digest[:12]} != reference "
                        f"{expected[:12]}"), digest
        elif "digest" not in seen:
            reason = structural_failure(out, bg)
            if reason:
                return reason, digest
            seen["digest"] = digest
        elif digest != seen["digest"]:
            return "output changed between cycles of one run", digest
        return _summary_failure(err, bg), digest

    name = free_name(bg, order) if free_data else expand_name(bg, order)
    return Job(name, lambda: call_cli(argv), check)


def prepare_expand_exact(seed: int, out_dir: Path, refs: dict) -> Prepared:
    jobs = [_expand_job(bg, n, refs["expand"][expand_name(bg, n)])
            for bg in BUILTINS for n in EXACT_ORDERS]
    path = out_dir / f"free-data-{seed}.json"
    path.write_text(json.dumps(free_data_doc(seed)))
    for bg in FREE_DATA_BACKGROUNDS:
        expected = (refs["expand_free"][free_name(bg, 12)]
                    if seed == DEFAULT_SEED else None)
        jobs.append(_expand_job(bg, 12, expected, free_data=path))
    warm = ["expand", "--background", "builtin:round-s3", "--order", "4"]
    return Prepared(jobs, lambda: call_cli(warm))


# ---------------------------------------------------------------------------
# expand-float
# ---------------------------------------------------------------------------


def _entry_values(entry):
    vals = [v for row in entry["a"] for v in row]
    vals += [v for row in entry["b"] for v in row]
    vals += list(entry["phi_y"])
    return vals


def table_values(doc) -> dict:
    """(k, p) -> the 21 scalars of an entry, read exactly as Fractions."""
    return {(e["k"], e["p"]): [Fraction(v) for v in _entry_values(e)]
            for e in doc["entries"]}


def float_failure(text: str, exact: dict, rtol: float):
    """Same address set as the rational table, and every entry within
    ``rtol`` relative (absolute below magnitude 1).  Returns a reason."""
    got = table_values(json.loads(text))
    if set(got) != set(exact):
        extra = sorted(set(got) - set(exact))[:3]
        missing = sorted(set(exact) - set(got))[:3]
        return f"address set differs: extra {extra}, missing {missing}"
    worst = 0.0
    for addr, want in exact.items():
        for g, w in zip(got[addr], want):
            worst = max(worst, float(abs(g - w) / max(abs(w), 1)))
    if not worst <= rtol:
        return f"relative deviation {worst:.3e} above {rtol:.0e}"
    return None


def prepare_expand_float(seed: int, out_dir: Path, refs: dict) -> Prepared:
    exact = {}
    for bg in FLOAT_BACKGROUNDS:
        with open(table_path(bg)) as fh:
            exact[bg] = table_values(json.load(fh))
    jobs = []
    for prec in FLOAT_PRECISIONS:
        for bg in FLOAT_BACKGROUNDS:
            argv = ["expand", "--background", f"builtin:{bg}", "--order", "12",
                    "--format", "json", "--scalar", "float",
                    "--prec", str(prec)]

            def check(result, bg=bg, prec=prec):
                _need_exit_zero(result)
                out = result[1]
                return float_failure(out, exact[bg], FLOAT_RTOL[prec]), sha256(out)

            jobs.append(Job(f"expand {bg} N=12 float{prec}",
                            lambda argv=argv: call_cli(argv), check))
    warm = ["expand", "--background", "builtin:round-s3", "--order", "4",
            "--scalar", "float", "--prec", "128"]
    return Prepared(jobs, lambda: call_cli(warm))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def load_tables(refs: dict) -> dict:
    """The rational N=12 tables of the five builtins, read from the
    references and checked against the expand-exact hashes."""
    field = RationalField()
    tables = {}
    for bg in BUILTINS:
        text = table_path(bg).read_text()
        if sha256(text) != refs["expand"][expand_name(bg, 12)]:
            raise RuntimeError(f"reference table for {bg} does not match "
                               "its expand-exact hash")
        background = geometry.load_background(f"builtin:{bg}", field)
        tables[bg] = series.from_json(text, background=background)
    return tables


def prepare_certify(seed: int, out_dir: Path, refs: dict) -> Prepared:
    tables = load_tables(refs)
    jobs = []
    for bg, table in tables.items():
        def run(table=table):
            return series.check_residuals(table)

        def check(bad):
            return (f"nonzero residuals at {bad[:3]}" if bad else None), ""

        jobs.append(Job(f"check_residuals {bg} N=12", run, check))
    for suite in VERIFY_SUITES:
        def check(result):
            code, out, _err = result
            if code == 3:
                return "verify suite reported failures", sha256(out)
            _need_exit_zero(result)
            last = out.strip().splitlines()[-1]
            done, total = last.split()[0].split("/")
            if done != total:
                return f"summary {last!r}", sha256(out)
            return None, sha256(out)

        jobs.append(Job(f"verify {suite}",
                        lambda suite=suite: call_cli(["verify", suite]), check))
    small = tables["round-s3"]
    return Prepared(jobs, lambda: series.check_residuals(small, through=4))


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def state_deviation(end, ref) -> float:
    dev = 0.0
    for got, want in ((end.A, ref.A), (end.phi, ref.phi),
                      (end.phi_y, ref.phi_y)):
        for g, w in zip(got.entries(), want.entries()):
            dev = max(dev, abs(float(g) - float(w)))
    return dev


def gate(refs: dict, name: str) -> float:
    return max(GATE_FACTOR * refs["flow_deviation"][name], GATE_FLOOR)


def flow_start(name: str):
    """(background, initial series state, closed-form end state)."""
    field = RationalField()
    sol = oracle.closed_solution(name, field)
    free = oracle.matched_free_data(name, field)
    table = series.expand(sol.background, free, FLOW_ORDER)
    init = oracle.state_from_series(table, FLOW_Y0, FLOW_ORDER)
    return sol.background, init, oracle.profile_state(sol, FLOW_Y1)


_ODE_DEV = re.compile(r"max deviation ([0-9.eE+-]+) over")


def prepare_flow(seed: int, out_dir: Path, refs: dict) -> Prepared:
    starts = {name: flow_start(name) for name in ("s3", "hyperbolic")}
    jobs = []
    for name, (bg, init, ref) in starts.items():
        limit = gate(refs, name)

        def check(traj, ref=ref, limit=limit):
            dev = state_deviation(traj[-1], ref)
            return (None if dev <= limit else
                    f"end-state deviation {dev:.3e} above gate {limit:.1e}"), ""

        jobs.append(Job(f"integrate_flow {name} adaptive",
                        lambda bg=bg, init=init: oracle.integrate_flow(
                            bg, init, FLOW_Y1, tol=FLOW_TOL), check))

    bg, init, ref = starts["s3"]
    limit = gate(refs, "s3-fixed")

    def check_fixed(traj):
        if len(traj) - 1 != FIXED_STEPS:
            return f"{len(traj) - 1} steps, expected {FIXED_STEPS}", ""
        dev = state_deviation(traj[-1], ref)
        return (None if dev <= limit else
                f"end-state deviation {dev:.3e} above gate {limit:.1e}"), ""

    jobs.append(Job("integrate_flow s3 fixed-step",
                    lambda: oracle.integrate_flow(bg, init, FLOW_Y1,
                                                  fixed_step=FIXED_STEP),
                    check_fixed))

    ode_ref, ode_gate = refs["ode_compare_s3"], gate(refs, "ode-compare s3")

    def check_ode(result):
        _need_exit_zero(result)
        _code, out, err = result
        digest = sha256(out)
        if digest != ode_ref:
            return f"CSV sha256 {digest[:12]} != reference", digest
        found = _ODE_DEV.search(err)
        if not found or not float(found.group(1)) <= ode_gate:
            return f"integration check {err.strip()!r} misses gate", digest
        return None, digest

    jobs.append(Job("ode-compare s3", lambda: call_cli(["ode-compare", "s3"]),
                    check_ode))
    return Prepared(jobs, lambda: oracle.integrate_flow(
        bg, init, 2 * FLOW_Y0, tol=FLOW_TOL))


WORKLOADS = {w.name: w for w in (
    Workload("expand-exact", 1, prepare_expand_exact),
    Workload("expand-float", 1, prepare_expand_float),
    Workload("certify", 2, prepare_certify),
    Workload("flow", 6, prepare_flow),
)}
