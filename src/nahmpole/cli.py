"""Command-line front end.

Four subcommands::

    nahmpole backgrounds                    list the built-in geometries
    nahmpole expand    --background ...     run the expansion engine
    nahmpole verify    SUITE                self-check suites with PASS/FAIL
    nahmpole ode-compare SOLUTION           series-vs-closed-form table

Exit codes: 0 success, 1 usage or bad input, 2 mathematical failure
(unexpected resonance, singular solve, or the integrator's step size
underflowing), 3 verification failure.  Set
``NAHM_COLOR=0`` to force plain output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .algebra import (
    EigenPart, GForm, L_op, ResonantOrder, SingularLambda, _form, cal_L, e_bracket,
    gamma_op, invert_cal_L, project, resolve_coupled, vierbein,
)
from .geometry import (
    _is_array3, builtin, builtin_names, d_omega_star, einstein_undecided,
    is_einstein, load_background, star_d_omega,
)
from .oracle import (
    _Y_EXACT_MAX, StepUnderflow, closed_solution, closed_solution_names,
    convergence_csv, convergence_table, integrate_flow, matched_free_data,
    profile_state, state_from_series, taylor_profile,
)
from .scalars import _MAX_BITS, _MIN_BITS, FloatField, RationalField, context
from .series import (
    FreeData, _printed, assert_parity, check_residuals, expand, is_log_free,
    to_json as series_to_json,
)

__all__ = ["main", "entry"]


# ---------------------------------------------------------------------------
# Small plumbing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _use_color(stream) -> bool:
    if os.environ.get("NAHM_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _status(ok: bool, stream) -> str:
    word = "PASS" if ok else "FAIL"
    if _use_color(stream):
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _emit(text: str, out) -> bool:
    """Write ``text`` to the file ``out``, or to stdout; False, after one
    stderr line, if the file cannot be written."""
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def _make_field(args):
    if args.scalar == "rational":
        return RationalField()
    return FloatField(args.prec)


def _load_free_data(path: str, field) -> FreeData:
    """Read a free-data file: raw 3x3 matrices under keys ``c_plus`` /
    ``c_zero`` / ``c_minus``.  Each matrix is projected onto its declared
    eigenspace; inputs whose projection residual is nonzero (exact mode) or
    above 1e-10 times the matrix's largest entry (float mode) are rejected.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("free-data file must hold a JSON object")
    slots = {"c_plus": EigenPart.Plus, "c_zero": EigenPart.Zero,
             "c_minus": EigenPart.Minus}
    unknown = set(doc) - set(slots)
    if unknown:
        raise ValueError(f"unknown free-data keys: {sorted(unknown)}")
    kwargs = {}
    for key, part in slots.items():
        mat = doc.get(key)
        if mat is None:
            continue
        if not _is_array3(mat, 2):
            raise ValueError(f"{key} must be a 3x3 matrix")
        form = GForm.one_form(
            field, [[field.parse(str(v)) for v in row] for row in mat])
        proj = project(form, part)
        if field.exact:
            if form != proj:
                raise ValueError(
                    f"{key} is not in its declared eigenspace "
                    "(nonzero projection residual)")
        else:  # in the field's scalars: a native float overflows past 1e308
            with context(field):
                worst = max(abs(v) for v in (form - proj).entries())
                largest = max(abs(v) for v in form.entries())
                if worst > field.parse("1e-10") * largest:
                    raise ValueError(f"{key} is off its declared eigenspace by "
                                     f"{float(worst / largest):g} of its largest entry "
                                     "(bound 1e-10)")
        kwargs[key] = proj
    return FreeData(field=field, **kwargs)


# ---------------------------------------------------------------------------
# expand.
# ---------------------------------------------------------------------------


_AXIAL = ((1, 2), (2, 0), (0, 1))  # (i, j) with eps_{kij} = +1 for k = 0,1,2


def _pretty_form(field, form: GForm, indent: str):
    """Render a coefficient form decomposed along e / V0 / V+."""
    lines = []
    if form.degree == 0:
        vec = ", ".join(field.format(v) for v in form.coeffs)
        lines.append(f"{indent}({vec})")
        return lines
    scale = field.scale(form.entries())
    zero = project(form, EigenPart.Zero)
    with context(field):
        e_part = form.trace() / field.from_int(3)
        axial = [(zero.coeffs[i][j] - zero.coeffs[j][i]) / field.from_int(2)
                 for i, j in _AXIAL]
    if not field.is_zero(e_part, scale):
        lines.append(f"{indent}e-part:  {field.format(e_part)} * e")
    if not zero.is_zero(scale):
        vec = ", ".join(field.format(v) for v in axial)
        lines.append(f"{indent}V0-part: axial ({vec})")
    plus = project(form, EigenPart.Plus)
    if not plus.is_zero(scale):
        lines.append(f"{indent}V+-part:")
        for row in plus.coeffs:
            lines.append(f"{indent}  [" +
                         ", ".join(field.format(v) for v in row) + "]")
    if not lines:
        lines.append(f"{indent}0")
    return lines


def _pretty_series(series) -> str:
    field = series.field
    out = [f"# background {series.background_name}, order {series.order}, "
           f"scalars {field.name}"]
    addresses = series.addresses()
    if not addresses:
        out.append("(zero series: every coefficient vanishes)")
    for k, p in addresses:
        head = f"y^{k}" + (f" (log y)^{p}" if p else "")
        out.append(f"{head}:")
        coeff = series.at(k, p)
        for label, form in (("a", coeff.a), ("b", coeff.b),
                            ("phi_y", coeff.phi_y)):
            if not form.is_zero(field.scale(form.entries())):
                out.append(f"  {label}:")
                out.extend(_pretty_form(field, form, "    "))
    return "\n".join(out) + "\n"


def _csv_series(series) -> str:
    field = series.field
    cols = (["k", "p"]
            + [f"a{a}{i}" for a in range(1, 4) for i in range(1, 4)]
            + [f"b{a}{i}" for a in range(1, 4) for i in range(1, 4)]
            + [f"phiy{a}" for a in range(1, 4)])
    lines = [",".join(cols)]
    for k, p in series.addresses():
        forms = series.get_a(k, p), series.get_b(k, p), series.get_phi(k, p)
        lines.append(",".join([str(k), str(p), *(v for f in forms for v in _printed(field, f))]))
    return "\n".join(lines) + "\n"


def _cmd_expand(args) -> int:
    field = _make_field(args)
    try:
        bg = load_background(args.background, field)
    except (OSError, ValueError) as exc:
        print(f"cannot load background: {exc}", file=sys.stderr)
        return 1
    if not field.exact and einstein_undecided(bg):
        print(f"cannot decide at {args.prec} bits whether {bg.name} is Einstein: "
              "(*F)^+ is below the round-off of the terms of *F; raise --prec "
              "or use --scalar rational", file=sys.stderr)
        return 1
    free = None
    if args.free_data:
        try:
            free = _load_free_data(args.free_data, field)
        except (OSError, ValueError) as exc:
            print(f"cannot load free data: {exc}", file=sys.stderr)
            return 1
    series = expand(bg, free, args.order)
    render = {"json": series_to_json, "csv": _csv_series}.get(args.format, _pretty_series)
    try:
        text = render(series)
    except ValueError:  # Python refuses to print an int past its digit limit
        print("cannot print the table: a coefficient has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 1
    if not _emit(text, args.out):
        return 1
    parity = assert_parity(series)
    print(
        f"log_free={str(is_log_free(series)).lower()} "
        f"einstein={str(is_einstein(bg)).lower()} "
        f"parity={'ok' if not parity else f'{len(parity)} violations'}",
        file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify.
# ---------------------------------------------------------------------------


_NUMERATORS, _DENOMINATORS = range(-9, 10), range(1, 8)


def _rand_one_form(rng, field):
    """A degree-1 form over the exact ``field``, its nine entries drawn as
    ``Fraction(rng.randint(-9, 9), rng.randint(1, 7))`` draws them (``choice``
    of a range takes the same ``_randbelow`` stream as ``randint``), made
    from its reading over the lcm of the denominators: no ``Fraction`` built."""
    draws = [(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS)) for _ in range(9)]
    den = math.lcm(*[q for _, q in draws])
    return _form(field, [n * (den // q) for n, q in draws], den)


def _rand_zero_form(rng, field):
    return GForm.zero_form(field, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                   for _ in range(3)])


def _profile_checks(name, order, expect_flat_connection=False):
    """Engine-vs-Taylor comparison for one closed-form solution."""
    field = RationalField()
    sol = closed_solution(name, field)
    bg = sol.background
    free = matched_free_data(name, field)
    series = expand(bg, free, order)
    fa, fphi = taylor_profile(sol, order)
    e, checks = vierbein(field), []
    for k in range(1, order + 1):
        for label, got, form, f in (("a", series.get_a(k, 0), bg.W, fa[k]),
                                    ("b", series.get_b(k, 0), e, fphi[k + 1])):
            checks.append((f"{label}_{k} matches profile", got == form.scale(f),
                           lambda g=got, f=f: f"engine {g!r} vs profile coefficient {f}"))
    checks.append(("series is log-free", is_log_free(series), ""))
    bad = check_residuals(series)
    checks.append(("all coefficient equations hold", not bad, f"{bad!r}"))
    parity = assert_parity(series)
    checks.append(("parity holds", not parity, lambda: f"{parity!r}"))
    if expect_flat_connection:
        stray = [(k, p) for (k, p) in series.addresses()
                 if not series.get_a(k, p).is_zero()]
        checks.append(("connection stays on the background", not stray,
                       f"nonzero a at {stray!r}"))
    return checks


def _suite_s3():
    return _profile_checks("s3", 6)


def _suite_hyperbolic():
    return _profile_checks("hyperbolic", 6, expect_flat_connection=True)


def _suite_flat():
    field = RationalField()
    bg = builtin("flat", field=field)
    series = expand(bg, None, 10)
    return [
        ("zero free data gives the zero series", not series.addresses(),
         f"stored entries {series.addresses()!r}"),
        ("series is log-free", is_log_free(series), ""),
        ("background is Einstein", is_einstein(bg), ""),
    ]


def _suite_identities():
    field = RationalField()
    rng = random.Random(20240901)
    checks, zero, eigen = [], GForm.zero(field, 1), tuple(EigenPart)  # an enum iterates slowly

    ok, detail = True, ""
    for _ in range(25):
        x = _rand_one_form(rng, field)
        parts = {part: project(x, part) for part in eigen}
        if sum(parts.values(), zero) != x:
            ok, detail = False, f"completeness fails on {x!r}"
            break
        for p1 in eigen:
            for p2 in eigen:
                pp = project(parts[p1], p2)
                want = parts[p1] if p1 == p2 else zero
                if pp != want:
                    ok, detail = False, f"idempotence fails at {p1},{p2}"
                    break
    checks.append(("projectors: complete, orthogonal, idempotent", ok, detail))

    ok, detail = True, ""
    for _ in range(10):
        x = _rand_one_form(rng, field)
        for part, lam in ((EigenPart.Minus, 2), (EigenPart.Zero, 1),
                          (EigenPart.Plus, -1)):
            y = project(x, part)
            if L_op(y) != y.scale(lam):
                ok, detail = False, f"L on {part} is not {lam}"
    checks.append(("L eigenvalues (2, 1, -1)", ok, detail))

    ok, detail = True, ""
    for k in (3, 5):
        x = _rand_one_form(rng, field)
        z = invert_cal_L(k, x)
        if cal_L(k, z) != x:
            ok, detail = False, f"(k + L) solve fails at k={k}"
    checks.append(("invert_cal_L round-trip", ok, detail))

    ok, detail = True, ""
    for name in builtin_names():
        bg = builtin(name, field=field)
        for _ in range(5):
            # both identities live on the symmetric sector V- + V+
            x = _rand_one_form(rng, field)
            x = x - project(x, EigenPart.Zero)
            sdw = star_d_omega(bg, x)
            lhs = gamma_op(sdw)
            rhs = d_omega_star(bg, x)
            if lhs != rhs:
                ok, detail = False, f"Gamma/star identity fails on {name}"
            lhs2 = e_bracket(d_omega_star(bg, x))
            rhs2 = project(sdw, EigenPart.Zero).scale(2)
            if lhs2 != rhs2:
                ok, detail = False, f"[e, d*] identity fails on {name}"
    checks.append(("divergence/curl identities (symmetric sector)", ok, detail))

    ok, detail = True, ""
    for lam in (3, 4, -3):
        R = _rand_one_form(rng, field)
        S = _rand_zero_form(rng, field)
        a, phi = resolve_coupled(lam, R, S)
        if (a.scale(lam) - L_op(a) + e_bracket(phi) != R
                or phi.scale(lam) + gamma_op(a) != S):
            ok, detail = False, f"coupled solve fails at lambda={lam}"
    checks.append(("coupled (a, phi_y) solve satisfies its system", ok, detail))

    return checks


_CATALOG = (
    ("flat", True),
    ("round-s3", True),
    ("hyperbolic-h3", True),
    ("berger-s3?squash=2", False),
    ("h2xr", False),
)


def _suite_einstein_catalog():
    field = RationalField()
    checks = []
    for uri, expect in _CATALOG:
        bg = load_background(f"builtin:{uri}", field)
        checks.append((f"{bg.name}: einstein flag is {expect}",
                       is_einstein(bg) == expect, ""))
        series = expand(bg, None, 4)
        checks.append((f"{bg.name}: log-free iff einstein",
                       is_log_free(series) == expect, ""))
        parity = assert_parity(series)
        checks.append((f"{bg.name}: parity", not parity, lambda p=parity: f"{p!r}"))
        bad = check_residuals(series)
        checks.append((f"{bg.name}: coefficient equations", not bad,
                       f"{bad!r}"))
        if not expect:
            got, want = series.get_b(1, 1), project(bg.starF, EigenPart.Plus)
            checks.append((f"{bg.name}: first log entry is P+(*F)", got == want,
                           lambda g=got, w=want: f"got {g!r} want {w!r}"))
    return checks


_SUITES = {
    "s3": _suite_s3,
    "hyperbolic": _suite_hyperbolic,
    "flat": _suite_flat,
    "identities": _suite_identities,
    "einstein-catalog": _suite_einstein_catalog,
}


def _cmd_verify(args) -> int:
    checks = _SUITES[args.suite]()
    failures = 0
    for name, ok, detail in checks:
        line = f"{_status(ok, sys.stdout)} {name}"
        if not ok and detail:  # a callable detail is built only on failure
            line += f"\n     {detail() if callable(detail) else detail}"
        print(line)
        failures += 0 if ok else 1
    total = len(checks)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# ode-compare.
# ---------------------------------------------------------------------------


def _cmd_ode_compare(args) -> int:
    try:
        sol = closed_solution(args.solution)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        orders = tuple(int(tok) for tok in args.order.split(","))
    except ValueError:
        print(f"bad order list: {args.order!r}", file=sys.stderr)
        return 1
    if any(n < 2 for n in orders):
        print("orders must be >= 2", file=sys.stderr)
        return 1
    if not 0 < args.y_min < args.y_max <= _Y_EXACT_MAX:
        print(f"need 0 < --y-min < --y-max <= {_Y_EXACT_MAX}: the table's "
              "rational e^(2y) is exact only up to there", file=sys.stderr)
        return 1
    if args.y_min < sys.float_info.min:
        print(f"need --y-min >= {sys.float_info.min!r}, the smallest normal float64, "
              "so that the flow's pole e/y stays finite", file=sys.stderr)
        return 1
    if not 0 < args.tol < math.inf:
        print("--tol must be a positive number", file=sys.stderr)
        return 1
    n_max = max(orders)
    free = matched_free_data(sol.name, sol.background.field)
    series = expand(sol.background, free, n_max)
    rows = convergence_table(sol, orders, args.y_min, args.y_max,
                             series=series)
    if not _emit(convergence_csv(rows), args.out):
        return 1

    # one integration sanity pass: series state at y_min driven to y_max
    start = state_from_series(series, args.y_min, n_max)
    traj = integrate_flow(sol.background, start, args.y_max, tol=args.tol)
    dev = max(abs(traj[-1].v - profile_state(sol, args.y_max).v))
    print(
        f"ode check: series(N={n_max}) at y={args.y_min} integrated to "
        f"y={args.y_max}: max deviation {dev:.3e} over {len(traj) - 1} steps",
        file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# backgrounds.
# ---------------------------------------------------------------------------


def _cmd_backgrounds(_args) -> int:
    field = RationalField()
    for name in builtin_names():
        bg = builtin(name, field=field)
        flag = "einstein" if is_einstein(bg) else "non-einstein"
        vol = "noncompact" if bg.volume is None else f"volume {bg.volume:g}"
        print(f"builtin:{name:<16} {flag:<13} {vol}")
    print("parametrized: builtin:round-s3?scale=Q  "
          "builtin:hyperbolic-h3?scale=Q  builtin:berger-s3?squash=Q")
    return 0


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="nahmpole",
                     description="Boundary expansions of Nahm-pole flows "
                                 "over homogeneous 3-manifold frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    px = sub.add_parser("expand", help="run the expansion engine",
                        description="Expand over a background and print the "
                                    "coefficient table.")
    px.add_argument("--background", required=True,
                    help="builtin:NAME[?param=Q] URI or a JSON file path")
    px.add_argument("--order", type=int, default=2, metavar="N",
                    help="expansion order, N >= 2 with no upper bound; the cost "
                         "grows steeply with N (default 2)")
    px.add_argument("--free-data", metavar="FILE",
                    help="JSON file of eigenspace matrices")
    px.add_argument("--scalar", choices=("rational", "float"),
                    default="rational", help="scalar mode (default rational)")
    px.add_argument("--prec", type=int, default=128, metavar="BITS",
                    help=f"precision in float mode, {_MIN_BITS} to {_MAX_BITS} "
                         "(default 128)")
    px.add_argument("--format", choices=("json", "csv", "pretty"),
                    default="json", help="output format (default json)")
    px.add_argument("--out", metavar="FILE", help="write output to FILE")
    px.set_defaults(func=_cmd_expand)

    pv = sub.add_parser("verify", help="run a self-check suite",
                        description="Run one named verification suite.")
    pv.add_argument("suite", choices=sorted(_SUITES))
    pv.set_defaults(func=_cmd_verify)

    po = sub.add_parser("ode-compare",
                        help="series-vs-closed-form convergence table",
                        description="Tabulate truncation error of the "
                                    "expansion against a closed-form "
                                    "solution, then cross-check by "
                                    "integrating the flow numerically.")
    po.add_argument("solution",
                    help=f"one of: {', '.join(closed_solution_names())}")
    po.add_argument("--order", default="2,4,6", metavar="N1,N2,...",
                    help="comma-separated truncation orders (default 2,4,6)")
    po.add_argument("--y-min", type=float, default=0.01)
    po.add_argument("--y-max", type=float, default=0.1)
    po.add_argument("--tol", type=float, default=1e-10,
                    help="integrator tolerance (default 1e-10)")
    po.add_argument("--out", metavar="FILE", help="write the CSV to FILE")
    po.set_defaults(func=_cmd_ode_compare)

    pb = sub.add_parser("backgrounds", help="list the built-in geometries")
    pb.set_defaults(func=_cmd_backgrounds)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "expand":
        if args.order < 2:
            print("expansion order must be >= 2", file=sys.stderr)
            return 1
        if args.scalar == "float" and not _MIN_BITS <= args.prec <= _MAX_BITS:
            print(f"float precision must be {_MIN_BITS} to {_MAX_BITS} bits", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except (ResonantOrder, SingularLambda, StepUnderflow,
            ZeroDivisionError) as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
