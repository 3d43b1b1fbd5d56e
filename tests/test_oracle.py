"""Closed-form profiles, flow residuals, the integrator, global reports."""

import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nahmpole.algebra import GForm, vierbein
from nahmpole.geometry import load_background
from nahmpole.oracle import (
    FlowState,
    StepUnderflow,
    closed_solution,
    closed_solution_names,
    convergence_csv,
    convergence_table,
    flow_residual,
    flow_rhs,
    global_report,
    integrate_flow,
    matched_free_data,
    profile_state,
    state_from_series,
    taylor_profile,
    trajectory_csv,
)
from nahmpole.oracle import (
    _DP_A,
    _DP_B5,
    _DP_C,
    _exp_fraction,
    _flow_operator,
    _flow_rhs,
    _polarize,
    _stacked_rhs,
)
from nahmpole.scalars import RationalField
from nahmpole.series import expand, from_json, to_json

from conftest import CATALOG, rand_one_form, rand_zero_form


def _state_dev(s1: FlowState, s2: FlowState) -> float:
    dA = np.array(s1.A.to_floats()) - np.array(s2.A.to_floats())
    dP = np.array(s1.phi.to_floats()) - np.array(s2.phi.to_floats())
    df = np.array(s1.phi_y.to_floats()) - np.array(s2.phi_y.to_floats())
    return max(np.max(np.abs(dA)), np.max(np.abs(dP)), np.max(np.abs(df)))


# -- independent high-precision implementations of the closed forms ---------

def _mp_profiles(name):
    import mpmath as mp

    if name == "s3":
        def fA(y):
            u = mp.e ** (2 * y)
            return 6 * u / (u * u + 4 * u + 1)

        def yfPhi(y):
            if y == 0:
                return mp.mpf(1)
            u = mp.e ** (2 * y)
            return y * 6 * u * (u + 1) / ((u * u + 4 * u + 1) * (u - 1))
    elif name == "hyperbolic":
        def fA(y):
            return mp.mpf(1)

        def yfPhi(y):
            return y * mp.coth(y) if y != 0 else mp.mpf(1)
    elif name == "flat":
        def fA(y):
            return mp.mpf(1)

        def yfPhi(y):
            return mp.mpf(1)
    else:
        raise AssertionError(name)
    return fA, yfPhi


class TestRegistry:
    def test_names(self):
        assert set(closed_solution_names()) == {"s3", "hyperbolic", "flat"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="s3"):
            closed_solution("nosuch")

    def test_matched_free_data(self, field):
        free = matched_free_data("s3", field)
        assert free.c_minus == vierbein(field).scale(Fraction(-2, 3))
        assert free.c_plus.is_zero()
        for name in ("hyperbolic", "flat"):
            z = matched_free_data(name, field)
            assert z.c_plus.is_zero() and z.c_minus.is_zero() and z.c_zero.is_zero()

    def test_matched_free_data_unknown_name(self):
        with pytest.raises(ValueError, match="s3"):
            matched_free_data("nosuch")

    def test_ode_compare_builds_one_background(self, monkeypatch, capsys):
        # the closed form's background is the only one: the matched free
        # data needs just the field
        from nahmpole import cli, geometry, oracle

        calls = []

        def counting(*args, real=geometry.builtin, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "builtin", counting)
        monkeypatch.setattr(oracle, "builtin", counting)
        assert matched_free_data("s3").c_minus == vierbein(
            RationalField()).scale(Fraction(-2, 3))
        assert calls == []
        assert cli.main(["ode-compare", "s3", "--order", "2"]) == 0
        assert calls == ["round-s3"]


class TestTaylorProfiles:
    def test_s3_frozen(self):
        fa, fp = taylor_profile(closed_solution("s3"), 6)
        assert fa == [Fraction(1), 0, Fraction(-2, 3), 0, Fraction(2, 9), 0,
                      Fraction(-4, 135)]
        assert fp == [Fraction(1), 0, Fraction(-1, 3), 0, Fraction(-1, 45), 0,
                      Fraction(58, 945), 0]

    def test_hyperbolic_frozen(self):
        fa, fp = taylor_profile(closed_solution("hyperbolic"), 6)
        assert fa == [Fraction(1)] + [Fraction(0)] * 6
        assert fp == [Fraction(1), 0, Fraction(1, 3), 0, Fraction(-1, 45), 0,
                      Fraction(2, 945), 0]

    def test_flat_frozen(self):
        fa, fp = taylor_profile(closed_solution("flat"), 10)
        assert fa == [Fraction(1)] + [Fraction(0)] * 10
        assert fp == [Fraction(1)] + [Fraction(0)] * 11

    def test_order_window(self):
        sol = closed_solution("s3")
        with pytest.raises(ValueError):
            taylor_profile(sol, 13)
        with pytest.raises(ValueError):
            taylor_profile(sol, -1)

    @pytest.mark.parametrize("name", ["s3", "hyperbolic", "flat"])
    def test_against_mpmath_derivatives(self, name):
        import mpmath as mp

        sol = closed_solution(name)
        fa, fp = taylor_profile(sol, 6)
        fA, yfPhi = _mp_profiles(name)
        with mp.workdps(60):
            ta = mp.taylor(fA, 0, 6)
            tp = mp.taylor(yfPhi, 0, 7)
        for k in range(7):
            assert abs(float(fa[k]) - float(ta[k])) <= 1e-8
            assert abs(float(fp[k]) - float(tp[k])) <= 1e-8

    @pytest.mark.parametrize("name", ["s3", "hyperbolic"])
    def test_values_and_derivatives_against_mpmath(self, name):
        import mpmath as mp

        sol = closed_solution(name)
        fA, yfPhi = _mp_profiles(name)
        for y in (0.3, 0.7, 1.3):
            with mp.workdps(40):
                want_a = float(fA(mp.mpf(y)))
                want_p = float(yfPhi(mp.mpf(y)) / y)
                want_da = float(mp.diff(fA, mp.mpf(y)))
                want_dp = float(mp.diff(lambda t: yfPhi(t) / t, mp.mpf(y)))
            assert abs(sol.fA.value(y) - want_a) <= 1e-12
            assert abs(sol.fPhi.value(y) - want_p) <= 1e-12
            assert abs(sol.fA.derivative(y) - want_da) <= 1e-8
            assert abs(sol.fPhi.derivative(y) - want_dp) <= 1e-8

    def test_exact_values_match_float_values(self):
        sol = closed_solution("s3")
        for q in (Fraction(1, 3), Fraction(7, 10), Fraction(3, 2)):
            assert abs(float(sol.fA.value_exact(q)) - sol.fA.value(float(q))) <= 1e-13
            assert abs(float(sol.fPhi.value_exact(q)) - sol.fPhi.value(float(q))) <= 1e-13


class TestFlowResidual:
    @pytest.mark.parametrize("name", ["s3", "hyperbolic"])
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_closed_forms_solve_the_flow(self, name, y):
        ra, rb, rphi = flow_residual(closed_solution(name), y)
        assert ra <= 1e-10
        assert rb <= 1e-10
        assert rphi <= 1e-10

    def test_flat_residual_is_exactly_zero(self):
        ra, rb, rphi = flow_residual(closed_solution("flat"), Fraction(1, 3))
        assert isinstance(ra, Fraction) and ra == 0
        assert isinstance(rb, Fraction) and rb == 0
        assert isinstance(rphi, Fraction) and rphi == 0


@pytest.fixture(scope="module", params=CATALOG,
                ids=[uri.split(":")[1] for uri, _ in CATALOG])
def exact_operator(request):
    """A catalog background with its flow operator polarized in rationals."""
    bg = load_background(request.param[0], RationalField())
    return bg, _polarize(bg, Fraction(1))


class TestFlowOperator:
    """The integrator's ``c + M0 v + M1 v/y + Q(v, v)`` is ``flow_rhs``."""

    def test_exact_operator_is_flow_rhs(self, exact_operator):
        bg, (c, M0, M1, Q) = exact_operator
        rng = random.Random(20180)
        for _ in range(3):
            y = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a, b = rand_one_form(rng, bg.field), rand_one_form(rng, bg.field)
            phi_y = rand_zero_form(rng, bg.field)
            v = np.array([*a.entries(), *b.entries(), *phi_y.entries()],
                         dtype=object)
            got = c + M0.dot(v) + M1.dot(v) / y + Q.dot(v).dot(v)
            da, db, dphi = flow_rhs(bg, y, a, b, phi_y)
            assert list(got) == [*da.entries(), *db.entries(), *dphi.entries()]

    def test_stacked_operator_is_dense_operator(self, exact_operator):
        # the integrator's stacked form c + [M0 | M1 | Qp] (v, v/y, v_i v_j)
        # is the dense c + M0 v + M1 v/y + Q(v, v), exactly
        bg, (c, M0, M1, Q) = exact_operator
        rhs = _stacked_rhs(c, M0, M1, Q)
        rng = random.Random(52817)
        for _ in range(3):
            y = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            v = np.array([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(21)], dtype=object)
            want = c + M0.dot(v) + M1.dot(v) / y + Q.dot(v).dot(v)
            assert list(rhs(y, v)) == list(want)

    def test_float_build_is_float_of_exact_build(self, exact_operator):
        bg, exact = exact_operator
        for got, want in zip(_flow_operator(bg), exact):
            assert got.dtype == np.float64
            assert np.array_equal(got, np.vectorize(float, otypes=[float])(want))


class TestIntegrator:
    def test_s3_forward_accuracy(self):
        sol = closed_solution("s3")
        tol = 1e-10
        traj = integrate_flow(sol.background, profile_state(sol, 0.1), 1.0, tol=tol)
        assert traj[0].y == 0.1 and traj[-1].y == 1.0
        assert _state_dev(traj[-1], profile_state(sol, 1.0)) <= 10 * tol

    def test_hyperbolic_forward_accuracy(self):
        sol = closed_solution("hyperbolic")
        traj = integrate_flow(sol.background, profile_state(sol, 0.5), 2.0, tol=1e-10)
        assert _state_dev(traj[-1], profile_state(sol, 2.0)) <= 1e-9

    def test_backward_integration(self):
        sol = closed_solution("s3")
        traj = integrate_flow(sol.background, profile_state(sol, 1.0), 0.2, tol=1e-10)
        assert traj[-1].y == 0.2
        assert _state_dev(traj[-1], profile_state(sol, 0.2)) <= 1e-8

    def test_fixed_step_design_order(self):
        # halving the step should cut the error by about 2^5
        sol = closed_solution("s3")
        ref = profile_state(sol, 1.0)
        errs = []
        for h in (0.02, 0.01, 0.005):
            traj = integrate_flow(sol.background, profile_state(sol, 0.2), 1.0,
                                  fixed_step=h)
            errs.append(_state_dev(traj[-1], ref))
        assert errs[0] > errs[1] > errs[2]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert 4.3 <= p <= 5.7, f"observed order {p}"

    def test_against_scipy(self):
        # an independent integrator driving the same vector field must land
        # on the closed form too
        from scipy.integrate import solve_ivp

        from nahmpole.oracle import _pack_state, _unpack_state

        sol = closed_solution("s3")
        v0 = _pack_state(sol.background, profile_state(sol, 0.2))
        out = solve_ivp(_flow_rhs(sol.background), (0.2, 1.0), v0,
                        rtol=1e-11, atol=1e-12, method="RK45")
        assert out.success
        W = np.ravel(sol.background.W.to_floats())
        final = _unpack_state(W, 1.0, out.y[:, -1])
        assert _state_dev(final, profile_state(sol, 1.0)) <= 1e-8

    def test_series_to_ode_pipeline(self, field):
        # truncated expansion near the boundary, then the ODE to y = 1
        sol = closed_solution("s3")
        bg = load_background("builtin:round-s3", field)
        ser = expand(bg, matched_free_data("s3", field), N=6)
        init = state_from_series(ser, 0.05)
        traj = integrate_flow(sol.background, init, 1.0, tol=1e-10)
        assert _state_dev(traj[-1], profile_state(sol, 1.0)) <= 1e-5

    def test_step_underflow_near_blowup(self):
        sol = closed_solution("s3")
        bg = sol.background
        e = vierbein(bg.field)
        init = FlowState(
            y=1.0,
            A=bg.W.scale(Fraction(1)),
            phi=e.scale(Fraction(1)) - e.scale(Fraction(50)),
            phi_y=GForm.zero(bg.field, 0),
        )
        with pytest.raises(StepUnderflow) as err:
            integrate_flow(bg, init, 3.0, tol=1e-10)
        last = err.value.last_state
        assert isinstance(last, FlowState)
        assert 1.0 <= last.y < 1.2

    def test_flat_zero_state_stays_flat(self):
        sol = closed_solution("flat")
        from nahmpole.oracle import _pack_state

        traj = integrate_flow(sol.background, profile_state(sol, 0.5), 2.0,
                              tol=1e-10)
        for st in traj:
            assert np.all(_pack_state(sol.background, st) == 0.0)

    def test_domain_checks(self):
        sol = closed_solution("flat")
        st = profile_state(sol, 0.5)
        with pytest.raises(ValueError):
            integrate_flow(sol.background, st, -1.0)
        same = integrate_flow(sol.background, st, 0.5)
        assert same == [st]
        # refused before any work: these used to return [init] (inf) or run
        # the whole step budget (nan, a zero or nan step)
        for y_target in (math.inf, math.nan):
            with pytest.raises(ValueError):
                integrate_flow(sol.background, st, y_target)
        with pytest.raises(ValueError):
            integrate_flow(sol.background, replace(st, y=math.nan), 1.0)
        for h in (0.0, -0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                integrate_flow(sol.background, st, 1.0, fixed_step=h)

    def test_fixed_step_equals_plain_seven_stage_steps(self):
        # the integrator reuses the last stage of a step as the first of the
        # next; a reference step that evaluates all seven stages must give
        # the same bits
        from nahmpole.oracle import _pack_state, _unpack_state

        bg = load_background("builtin:round-s3")
        ser = expand(bg, matched_free_data("s3", bg.field), N=6)
        init = state_from_series(ser, 0.01, 6)
        rhs = _flow_rhs(bg)
        A = np.array([[float(x) for x in row] + [0.0] * (7 - len(row))
                      for row in _DP_A])
        C = np.array([float(x) for x in _DP_C])
        B5 = np.array([float(x) for x in _DP_B5])
        W = np.ravel(bg.W.to_floats())

        y, v, want = 0.01, _pack_state(bg, init), []
        while y < 1.0:
            h = min(0.01, 1.0 - y)
            K = np.zeros((7, 21))
            for s in range(7):
                K[s] = rhs(y + C[s] * h, v + h * (A[s, :s] @ K[:s]))
            v = v + h * (B5 @ K)
            y = 1.0 if abs(1.0 - (y + h)) < 1e-15 * 0.99 else y + h
            want.append(_unpack_state(W, y, v))

        got = integrate_flow(bg, init, 1.0, fixed_step=0.01)[1:]
        assert len(got) == len(want) == 99
        for g, w in zip(got, want):
            assert g.y == w.y
            assert np.array_equal(_pack_state(bg, g), _pack_state(bg, w))


class TestTrajectoryCsv:
    def test_shape_and_header(self):
        sol = closed_solution("hyperbolic")
        traj = integrate_flow(sol.background, profile_state(sol, 0.5), 1.0,
                              tol=1e-8)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "y"
        assert len(header) == 22
        assert header[1] == "A11" and header[9] == "A33"
        assert header[10] == "phi11" and header[21] == "phiy3"
        assert len(lines) == len(traj) + 1
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.5


class TestGlobalReport:
    def test_round_sphere(self, field):
        bg = load_background("builtin:round-s3", field)
        ser = expand(bg, matched_free_data("s3", field), N=4)
        rep = global_report(ser)
        assert rep.a21_trace == Fraction(0)
        assert rep.a21_vanishes is True
        assert rep.k_density == Fraction(2)
        assert rep.cs_density == Fraction(2)
        assert abs(rep.volume - 2 * math.pi**2) < 1e-12
        assert abs(rep.k_number - 4 * math.pi**2) < 1e-10

    def test_berger_trace_vanishes_nontrivially(self, field):
        bg = load_background("builtin:berger-s3?squash=2", field)
        ser = expand(bg, N=4)
        rep = global_report(ser)
        assert not ser.get_a(2, 1).is_zero()
        assert rep.a21_trace == Fraction(0)
        assert rep.a21_vanishes is True

    def test_volume_free_background_reports_density(self, field):
        bg = load_background("builtin:hyperbolic-h3", field)
        rep = global_report(expand(bg, N=4))
        assert rep.volume is None
        assert rep.k_number == rep.k_density

    def test_requires_background_and_order(self, field):
        bg = load_background("builtin:round-s3", field)
        ser = expand(bg, N=2)
        detached = from_json(to_json(ser))
        with pytest.raises(ValueError):
            global_report(detached)
        ser.order = 1
        with pytest.raises(ValueError):
            global_report(ser)

    def test_json_shape(self, field):
        bg = load_background("builtin:round-s3", field)
        rep = global_report(expand(bg, matched_free_data("s3", field), N=4))
        doc = json.loads(rep.to_json())
        assert set(doc) == {"a21_trace", "k_density", "k_number",
                            "cs_density", "volume", "a21_vanishes"}
        assert doc["a21_trace"] == "0/1"
        assert doc["k_density"] == "2/1"
        assert doc["a21_vanishes"] is True
        float(doc["k_number"])  # decimal literal


def _exp_reference(x):
    """e^x truncated after x^40/40!, summed term by term."""
    acc = term = Fraction(1)
    for k in range(1, 41):
        term = term * x / k
        acc += term
    return acc


#: sha256 of ``convergence_csv`` per (solution, orders, keyword arguments),
#: taken from the term-by-term implementation the current one replaced.
CONVERGENCE_SHA256 = [
    ("s3", (2, 4, 6), {},
     "f44aa867ef2ab79db6215e0d2b65728a4b4d7051499b91b8b377131281efd82c"),
    ("hyperbolic", (2, 4, 6), {},
     "8540cf5497c5d20f7bd61768cb6bad03517ab66b30f4681dde3104c10263dc2a"),
    ("flat", (2, 4), {},
     "d931d2dc7380ab3cd3df13f8cf4308607d012fb98fc7dbc49013eb1702a8e157"),
    ("s3", (6, 2, 4, 4), {},
     "5cc0524c25654bba89a2541145cdf09e7e04180d5f6c7729ed0ff835aea7855e"),
    ("s3", (2, 4), {"y_lo": 0.003, "y_hi": 0.25, "samples": 7},
     "a7402db6273a3891695383c400f5ac52b40e53e1554fc64d5e6e49a478817f76"),
    ("hyperbolic", (3, 5), {"y_lo": 0.02, "y_hi": 0.3},
     "bbbc51fbe6197a23da30fabdf64f857376126127019b7dc185f5575c99b58f18"),
]


class TestConvergence:
    def test_exp_fraction_is_term_by_term_sum(self):
        grid = [Fraction(float(v)) for v in np.geomspace(0.01, 0.1, 12)]
        points = ([2 * q for q in grid] + [-2 * q for q in grid]
                  + [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11),
                     Fraction(-1, 2), Fraction(0)])
        for x in points:
            assert _exp_fraction(x) == _exp_reference(x), x

    @pytest.mark.parametrize("name,orders,kwargs,digest", CONVERGENCE_SHA256)
    def test_csv_bytes_pinned(self, name, orders, kwargs, digest):
        text = convergence_csv(convergence_table(name, orders, **kwargs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_duplicate_orders_get_equal_rows(self):
        rows = convergence_table("s3", orders=(4, 2, 4), samples=4)
        assert [r["N"] for r in rows] == [4, 2, 4]
        assert rows[0] == rows[2] and rows[0]["errors"] is not rows[2]["errors"]

    def test_s3_slopes(self):
        rows = convergence_table("s3", orders=(2, 4, 6))
        assert [r["N"] for r in rows] == [2, 4, 6]
        for r in rows:
            lo, hi = r["N"] + 0.5, r["N"] + 1.5
            assert lo <= r["slope"] <= hi, (r["N"], r["slope"])
        errs = [r["max_err"] for r in rows]
        assert errs[0] > errs[1] > errs[2] > 0

    def test_hyperbolic_slopes(self):
        rows = convergence_table("hyperbolic", orders=(2, 4))
        for r in rows:
            assert r["N"] + 0.5 <= r["slope"] <= r["N"] + 1.5

    def test_flat_is_exact(self):
        rows = convergence_table("flat", orders=(2, 4))
        for r in rows:
            assert r["max_err"] == 0.0
            assert math.isnan(r["slope"])

    def test_csv_format(self):
        rows = convergence_table("s3", orders=(2,), samples=6)
        text = convergence_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "N,max_err,slope"
        assert len(lines) == 2
        n, err, slope = lines[1].split(",")
        assert int(n) == 2
        assert float(err) > 0

    def test_rejects_float_scalars(self):
        from nahmpole.scalars import FloatField
        with pytest.raises(ValueError):
            convergence_table(closed_solution("s3", FloatField(128)))


class TestStateHelpers:
    def test_profile_state_matches_series_state(self, field):
        sol = closed_solution("s3")
        bg = load_background("builtin:round-s3", field)
        ser = expand(bg, matched_free_data("s3", field), N=6)
        near = _state_dev(state_from_series(ser, 0.05), profile_state(sol, 0.05))
        assert near <= 1e-9
        mid = _state_dev(state_from_series(ser, 0.5), profile_state(sol, 0.5))
        assert mid <= 5e-2
