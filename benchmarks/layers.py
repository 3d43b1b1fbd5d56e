"""Per-layer probe: micro-timings on fixed, seeded inputs and traced calls
into each layer, identical for every workload.

Rational kernel inputs are dense random forms whose numerator and
denominator bit sizes are those of the largest order-12 coefficient of the
N=12 Berger table, so kernel timings track the sizes the solver really
multiplies.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from nahmpole import algebra, cli, geometry, oracle, scalars, series
from nahmpole.algebra import EigenPart, GForm

import workloads as W
from tracing import self_times

PROBE_SEED = 20240901
BERGER = "berger-s3?squash=2"
EXPAND_ORDER = 16
CLI_JOB = ["expand", "--background", f"builtin:{BERGER}", "--order", "8",
           "--format", "json"]
CLI_REPEATS = 3


def micro(fn, *args, budget=0.02, repeats=5) -> float:
    """Median seconds per call, over ``repeats`` batches of at least
    ``budget`` seconds each."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        took = time.perf_counter() - start
        if took >= budget:
            break
        loops *= 2 if took <= 0 else max(2, min(100, int(budget / took) + 1))
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        per_call.append((time.perf_counter() - start) / loops)
    return statistics.median(per_call)


def _bits(q: Fraction):
    return q.numerator.bit_length(), q.denominator.bit_length()


def coeff_bits_max(table) -> int:
    return max((max(_bits(v)) for k, p in table.addresses()
                for form in (table.get_a(k, p), table.get_b(k, p),
                             table.get_phi(k, p))
                for v in form.entries()), default=0)


def p_useful(table, order):
    """(depths that stored something, depths the solver visited) over
    ``advance_order`` k = 2..order, which walks p = 2k+1 .. 0."""
    visited = stored = 0
    for k in range(2, order + 1):
        for p in range(2 * k + 2):
            visited += 1
            if not (table.get_b(k, p).is_zero() and table.get_a(k + 1, p).is_zero()
                    and table.get_phi(k + 1, p).is_zero()):
                stored += 1
    return stored, visited


def _random_forms(rng, field, num_bits, den_bits):
    def q():
        num = rng.getrandbits(num_bits) | 1
        den = rng.getrandbits(den_bits) | (1 << (den_bits - 1)) | 1
        return Fraction(num if rng.random() < 0.5 else -num, den)

    one = GForm.one_form(field, [[q() for _ in range(3)] for _ in range(3)])
    two = GForm.one_form(field, [[q() for _ in range(3)] for _ in range(3)])
    zero = GForm.zero_form(field, [q() for _ in range(3)])
    return one, two, zero


def _to_field(form, field):
    conv = [field.from_fraction(v) for v in form.entries()]
    if form.degree == 0:
        return GForm.zero_form(field, conv)
    return GForm.one_form(field, [conv[0:3], conv[3:6], conv[6:9]])


def probe(tracer) -> dict:
    """Every per-layer metric except ``trace.overhead_frac``."""
    m = {}
    rat = scalars.RationalField()
    f128 = scalars.FloatField(128)
    uri = f"builtin:{BERGER}"

    # geometry
    m["geometry.load_background_ms"] = 1e3 * micro(
        geometry.load_background, uri, rat)
    bg = geometry.load_background(uri, rat)
    table12 = series.from_json(W.table_path(BERGER).read_text(), background=bg)
    num_bits, den_bits = (max(bits) for bits in zip(
        *(_bits(v) for v in table12.get_a(12, 0).entries() if v)))
    x, y, phi = _random_forms(random.Random(PROBE_SEED), rat, num_bits, den_bits)
    m["geometry.star_d_omega_us"] = 1e6 * micro(geometry.star_d_omega, bg, x)
    m["geometry.d_omega_star_us"] = 1e6 * micro(geometry.d_omega_star, bg, x)

    # algebra
    theta = algebra.project(x, EigenPart.Zero)
    for name, fn, args in (
            ("star_wedge", algebra.star_wedge, (x, y)),
            ("L_op", algebra.L_op, (x,)),
            ("project", algebra.project, (x, EigenPart.Plus)),
            ("invert_cal_L", algebra.invert_cal_L, (12, x)),
            ("resolve_coupled", algebra.resolve_coupled, (13, theta, phi)),
            ("bracket_0_1", algebra.bracket_0_1, (phi, x)),
            ("star_bracket_star", algebra.star_bracket_star, (x, y))):
        m[f"algebra.{name}_us"] = 1e6 * micro(fn, *args)
    xf, yf = _to_field(x, f128), _to_field(y, f128)
    m["algebra.project_us.f128"] = 1e6 * micro(algebra.project, xf, EigenPart.Plus)
    m["algebra.star_wedge_us.f128"] = 1e6 * micro(algebra.star_wedge, xf, yf)

    # scalars, at 128 bits
    qa, qb = x.coeffs[0][0], y.coeffs[1][2]
    fa, fb = f128.from_fraction(qa), f128.from_fraction(qb)
    m["scalars.bigfloat_mul_us"] = 1e6 * micro(fa.__mul__, fb)
    m["scalars.bigfloat_add_us"] = 1e6 * micro(fa.__add__, fb)
    m["scalars.float_is_zero_us"] = 1e6 * micro(f128.is_zero, fa)
    m["scalars.from_fraction_us"] = 1e6 * micro(f128.from_fraction, qa)

    # series: one traced expansion and one traced residual check
    m["series.seed_leading_ms"] = 1e3 * micro(series.seed_leading, bg, None)
    tracer.job = f"probe expand {BERGER} N={EXPAND_ORDER}"
    first = len(tracer.spans)
    with tracer:
        table16 = series.expand(bg, None, EXPAND_ORDER)
    spans = tracer.spans[first:]
    own = self_times(spans)
    advance = [s for s in spans if s.name == "series.advance_order"]
    for k in (8, 12, 16):
        m[f"series.advance_order_ms.k{k}"] = 1e3 * sum(
            s.duration for s in advance if s.attrs["k"] == k)
    m["series.advance_order.self_s"] = sum(own[s.id] for s in advance)
    m["series.quadratic_source_ms.k12"] = 1e3 * sum(
        s.duration for s in spans
        if s.name == "series.quadratic_source" and s.attrs["k"] == 12)
    m["series.to_json_ms"] = 1e3 * micro(series.to_json, table16, repeats=3)
    stored, visited = p_useful(table16, EXPAND_ORDER)
    m["series.p_useful_ratio"] = stored / visited
    m["series.p_visited"] = visited
    m["series.entries"] = len(table16.addresses())
    m["series.coeff_bits.max"] = coeff_bits_max(table16)

    tracer.job = f"probe check_residuals {BERGER} N=12"
    first = len(tracer.spans)
    with tracer:
        bad = series.check_residuals(table12)
    if bad:
        raise RuntimeError(f"reference table fails its residuals: {bad[:3]}")
    spans = tracer.spans[first:]
    own = self_times(spans)
    resid = [s for s in spans if s.name == "series.residual_at"]
    m["series.residual_at.self_s"] = sum(own[s.id] for s in resid)
    m["series.residual_at.calls"] = len(resid)
    m["series.check_residuals_s"] = sum(
        s.duration for s in spans if s.name == "series.check_residuals")

    # oracle
    s3_bg, init, ref = W.flow_start("s3")
    s3_table = series.expand(s3_bg, oracle.matched_free_data("s3", rat),
                             W.FLOW_ORDER)
    m["oracle.state_from_series_ms"] = 1e3 * micro(
        oracle.state_from_series, s3_table, W.FLOW_Y0, W.FLOW_ORDER)
    m["oracle.flow_rhs_exact_us"] = 1e6 * micro(
        oracle.flow_rhs, bg, Fraction(1, 100), x, y, phi)
    tracer.job = "probe integrate_flow s3"
    first = len(tracer.spans)
    with tracer:
        traj = oracle.integrate_flow(s3_bg, init, W.FLOW_Y1, tol=W.FLOW_TOL)
        fixed = oracle.integrate_flow(s3_bg, init, W.FLOW_Y1,
                                      fixed_step=W.FIXED_STEP)
        oracle.convergence_table(oracle.closed_solution("s3", rat))
    flow_spans = [s for s in tracer.spans[first:]
                  if s.name == "oracle.integrate_flow"]
    conv = [s for s in tracer.spans[first:]
            if s.name == "oracle.convergence_table"]
    steps = len(traj) - 1
    m["oracle.integrate_flow_s"] = flow_spans[0].duration
    m["oracle.accepted_steps"] = steps
    m["oracle.us_per_accepted_step"] = 1e6 * flow_spans[0].duration / steps
    m["oracle.dp_step_us"] = 1e6 * flow_spans[1].duration / (len(fixed) - 1)
    m["oracle.convergence_table_ms"] = 1e3 * conv[0].duration
    m["oracle.max_dev"] = W.state_deviation(traj[-1], ref)

    # cli: cli.main's own time on one expand job, and its output size
    overheads = []
    for i in range(CLI_REPEATS):
        tracer.job = f"probe cli {i}"
        first = len(tracer.spans)
        with tracer:
            code, out, _err = W.call_cli(CLI_JOB)
        if code != 0:
            raise RuntimeError(f"cli probe job exited {code}")
        spans = tracer.spans[first:]
        own = self_times(spans)
        overheads.append(sum(own[s.id] for s in spans if s.name == "cli.main"))
    m["cli.overhead_ms"] = 1e3 * statistics.median(overheads)
    m["cli.output_bytes"] = len(out.encode())
    return m
