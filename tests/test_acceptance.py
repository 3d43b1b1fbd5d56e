"""Acceptance gate: the ten deliverable criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for per-criterion pass/fail
lines.  Every exactness claim is exact rational equality (zero tolerance);
the float criteria state their tolerances inline.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from nahmpole.algebra import (
    EigenPart,
    GForm,
    SigmaModule,
    cal_L,
    e_bracket,
    gamma_op,
    invert_cal_L,
    project,
    resolve_coupled,
    vierbein,
    L_op,
)
from nahmpole.geometry import d_omega_star, load_background, star_d_omega
from nahmpole.oracle import (
    closed_solution,
    convergence_table,
    flow_residual,
    global_report,
    matched_free_data,
    taylor_profile,
)
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import (
    FreeData,
    assert_parity,
    check_residuals,
    expand,
    is_log_free,
)

from conftest import CATALOG, rand_one_form

MINUS, ZERO, PLUS = EigenPart.Minus, EigenPart.Zero, EigenPart.Plus

EINSTEIN_URIS = ("builtin:round-s3", "builtin:hyperbolic-h3", "builtin:flat")
LOGGED_URIS = ("builtin:berger-s3?squash=1/2", "builtin:berger-s3?squash=2",
               "builtin:berger-s3?squash=3", "builtin:h2xr")


def _e(field, q):
    return vierbein(field).scale(Fraction(q))


def _random_free(rng, field):
    x = rand_one_form(rng, field)
    y = rand_one_form(rng, field)
    return FreeData(field=field, c_plus=project(x, PLUS),
                    c_zero=project(y, ZERO), c_minus=project(y, MINUS))


def test_c01_s3_exact_reproduction():
    """Criterion 1: round-S3 matched expansion hits the closed-form
    coefficients exactly (zero tolerance), in under 5 seconds."""
    t0 = time.monotonic()
    field = RationalField()
    bg = load_background("builtin:round-s3", field)
    series = expand(bg, matched_free_data("s3", field), N=6)
    # A-profile y^0 coefficient is 1: the connection starts at W itself,
    # so no a-coefficient may sit at k = 0 (none can: k >= 1 by table shape)
    assert all(k >= 1 for k, _ in series.addresses())
    # A: (1, -2/3, 2/9, -4/135) at y^0, y^2, y^4, y^6 -- exact
    assert series.get_a(2, 0) == _e(field, Fraction(-2, 3))
    assert series.get_a(4, 0) == _e(field, Fraction(2, 9))
    assert series.get_a(6, 0) == _e(field, Fraction(-4, 135))
    # Phi: (1, -1/3, -1/45, 58/945) at y^-1, y^1, y^3, y^5 -- exact
    # (the 1/y pole carries coefficient e by the ansatz itself)
    assert series.get_b(1, 0) == _e(field, Fraction(-1, 3))
    assert series.get_b(3, 0) == _e(field, Fraction(-1, 45))
    assert series.get_b(5, 0) == _e(field, Fraction(58, 945))
    # nothing else: log-free, phi_y-free, odd/even slots empty
    assert is_log_free(series)
    for (k, p) in series.addresses():
        assert series.get_phi(k, p).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.2f}s exceeds 5s"
    print(f"[criterion 1] PASS: S3 coefficients exact, {elapsed:.2f}s")


def test_c02_hyperbolic_exact_reproduction():
    """Criterion 2: oracle and engine agree on the hyperbolic coth
    coefficients (1/3, -1/45, 2/945) exactly, with A identically omega."""
    field = RationalField()
    sol = closed_solution("hyperbolic")
    fa, fp = taylor_profile(sol, 6)
    assert fa == [Fraction(1)] + [Fraction(0)] * 6  # A stays on omega
    assert fp[2] == Fraction(1, 3)
    assert fp[4] == Fraction(-1, 45)
    assert fp[6] == Fraction(2, 945)
    bg = load_background("builtin:hyperbolic-h3", field)
    series = expand(bg, matched_free_data("hyperbolic", field), N=6)
    for k in (1, 3, 5):
        assert series.get_b(k, 0) == _e(field, fp[k + 1])
    for (k, p) in series.addresses():
        assert series.get_a(k, p).is_zero()
        assert series.get_phi(k, p).is_zero()
    print("[criterion 2] PASS: hyperbolic coth coefficients exact, A = omega")


def test_c03_flat_identically_zero():
    """Criterion 3: flat model with zero free data is the zero series
    through N = 10, exactly."""
    field = RationalField()
    series = expand(load_background("builtin:flat", field), None, N=10)
    assert list(series.addresses()) == []
    assert is_log_free(series)
    assert check_residuals(series) == []
    print("[criterion 3] PASS: flat series identically zero through N=10")


def test_c04_log_free_iff_einstein():
    """Criterion 4: Einstein catalog members stay log-free through N = 8
    for 10 random free-data samples each; non-Einstein members produce logs
    whose first entry is b_(1,1) = P+(*F), exactly."""
    field = RationalField()
    rng = random.Random(411004)
    for uri in EINSTEIN_URIS:
        bg = load_background(uri, field)
        for _ in range(10):
            series = expand(bg, _random_free(rng, field), N=8)
            assert is_log_free(series), f"{uri} produced a log term"
    for uri in LOGGED_URIS:
        bg = load_background(uri, field)
        series = expand(bg, None, N=4)
        assert not is_log_free(series), f"{uri} should produce log terms"
        want = project(bg.starF, PLUS)
        assert series.get_b(1, 1) == want
        assert series.get_a(1, 1).is_zero()
        assert series.get_phi(1, 1).is_zero()
        first_log = min((k, p) for k, p in series.addresses() if p >= 1)
        assert first_log == (1, 1)
    print("[criterion 4] PASS: log-free iff Einstein; first log = P+(*F) exactly")


def test_c05_parity():
    """Criterion 5: a, phi_y live at even k and b at odd k on every catalog
    run through N = 8 -- no stored entry violates parity."""
    field = RationalField()
    rng = random.Random(550055)
    for uri, _ in CATALOG:
        bg = load_background(uri, field)
        series = expand(bg, _random_free(rng, field), N=8)
        violations = assert_parity(series)
        assert violations == [], f"{uri}: parity violations {violations!r}"
    print("[criterion 5] PASS: parity clean on the catalog through N=8")


def test_c06_zero_residual_master_property():
    """Criterion 6: independently assembled coefficient-equation residuals
    vanish exactly at every stored (k, p) through N = 8."""
    field = RationalField()
    rng = random.Random(660066)
    runs = [(uri, _random_free(rng, field)) for uri, _ in CATALOG]
    runs.append(("builtin:round-s3", matched_free_data("s3", field)))
    for uri, free in runs:
        bg = load_background(uri, field)
        series = expand(bg, free, N=8)
        bad = check_residuals(series)
        assert bad == [], f"{uri}: nonzero residuals at {bad!r}"
    print("[criterion 6] PASS: all coefficient-equation residuals exactly zero")


def test_c07_algebra_suites_exact():
    """Criterion 7: projector algebra, L-eigenvalues for sigma in 1..4,
    divergence/curl identities, invert_cal_L round-trips and the coupled
    solve against a dense oracle -- all exact in rationals."""
    field = RationalField()
    rng = random.Random(770077)

    # projector completeness + idempotence + eigenvalue relations (sigma = 1)
    lam = {MINUS: 2, ZERO: 1, PLUS: -1}
    for _ in range(50):
        x = rand_one_form(rng, field)
        total = GForm.zero(field, 1)
        for part in EigenPart:
            px = project(x, part)
            total = total + px
            assert project(px, part) == px
            assert L_op(px) == px.scale(lam[part])
        assert total == x

    # abstract module spectra for sigma in {1, 2, 3, 4}
    for sigma in (1, 2, 3, 4):
        mod = SigmaModule(sigma)
        dims = mod.part_dims()
        assert dims[MINUS] == 2 * sigma - 1
        assert dims[ZERO] == 2 * sigma + 1
        assert dims[PLUS] == 2 * sigma + 3
        n = mod.dim
        for part in EigenPart:
            P = mod.projectors[part]
            mu = mod.field.from_fraction(part.eigenvalue(sigma))
            for r in range(n):
                for c in range(n):
                    acc = sum((mod.L[r][k] * P[k][c] for k in range(n)),
                              start=mod.field.zero)
                    assert acc == mu * P[r][c]

    # divergence/curl identities on the symmetric sector, whole catalog
    for uri, _ in CATALOG:
        bg = load_background(uri, field)
        for _ in range(5):
            x = rand_one_form(rng, field)
            xs = x - project(x, ZERO)
            curl = star_d_omega(bg, xs)
            div = d_omega_star(bg, xs)
            assert gamma_op(curl) == div
            assert e_bracket(div) == project(curl, ZERO).scale(2)

    # invert_cal_L round-trips off the resonant orders
    for k in range(-5, 9):
        if k in (-2, -1, 1):
            continue
        rhs = rand_one_form(rng, field)
        assert cal_L(k, invert_cal_L(k, rhs)) == rhs

    # coupled solve against its defining equations
    for lam_q in (Fraction(3), Fraction(-7, 2), Fraction(1, 3)):
        theta = project(rand_one_form(rng, field), ZERO)
        xi = GForm.zero_form(
            field, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    for _ in range(3)])
        a, phi = resolve_coupled(lam_q, theta, xi)
        assert a.scale(lam_q - 1) == theta - e_bracket(phi)
        assert phi.scale(lam_q) == xi - gamma_op(a)

    print("[criterion 7] PASS: algebra suites 100% exact")


def test_c08_closed_form_flow_residuals():
    """Criterion 8: closed-form solutions satisfy the flow equations to
    1e-10 at y in {0.5, 1, 2} (convention lock-in)."""
    worst = 0.0
    for name in ("s3", "hyperbolic"):
        sol = closed_solution(name)
        for y in (0.5, 1.0, 2.0):
            for r in flow_residual(sol, y):
                worst = max(worst, float(r))
                assert r <= 1e-10, f"{name} residual {r} at y={y}"
    print(f"[criterion 8] PASS: flow residuals <= 1e-10 (worst {worst:.2e})")


def test_c09_convergence_slopes():
    """Criterion 9: log-log truncation-error slope over y in [0.01, 0.1]
    lands in [N+0.5, N+1.5] for N in {2, 4, 6} on S3, in under 30 s."""
    t0 = time.monotonic()
    rows = convergence_table("s3", orders=(2, 4, 6))
    for row in rows:
        n, slope = row["N"], row["slope"]
        assert n + 0.5 <= slope <= n + 1.5, \
            f"N={n}: slope {slope:.3f} outside [{n + 0.5}, {n + 1.5}]"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 9 runtime {elapsed:.1f}s exceeds 30s"
    slopes = ", ".join(f"N={r['N']}: {r['slope']:.3f}" for r in rows)
    print(f"[criterion 9] PASS: slopes {slopes} in {elapsed:.1f}s")


def test_c10_global_constraint():
    """Criterion 10: the a_(2,1) trace density vanishes exactly on every
    catalog expansion, and the k-density agrees between rational and float
    scalar modes to 1e-10."""
    for uri, _ in CATALOG:
        rat_bg = load_background(uri, RationalField())
        rat = global_report(expand(rat_bg, None, N=2))
        assert rat.a21_trace == Fraction(0)
        assert rat.a21_vanishes is True
        flo_bg = load_background(uri, FloatField(128))
        flo = global_report(expand(flo_bg, None, N=2))
        drift = abs(float(rat.k_density) - float(flo.k_density))
        assert drift <= 1e-10, f"{uri}: k-density drift {drift:.2e}"
    print("[criterion 10] PASS: a21 trace exactly 0; k-density stable to 1e-10")
