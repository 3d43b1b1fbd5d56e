"""Closed-form profiles, flow residuals, the integrator, global reports."""

import gc
import hashlib
import json
import math
import random
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nahmpole.algebra import GForm, vierbein
from nahmpole.geometry import _I, _J, _PAIR_4Q, _POLE_COLUMNS, background_to_json, load_background
from nahmpole.oracle import (
    FlowState,
    StepUnderflow,
    closed_solution,
    closed_solution_names,
    convergence_csv,
    convergence_table,
    flow_residual,
    global_report,
    integrate_flow,
    matched_free_data,
    profile_state,
    state_from_series,
    taylor_profile,
    trajectory_csv,
)
from nahmpole.oracle import (
    ExpRational,
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    _exp_fraction,
    _flow_operator,
    _flow_rhs,
    _stacked_rhs,
)
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import PhgSeries, expand, from_json, residual_at, to_json

from conftest import CATALOG, rand_one_form, rand_zero_form
from flow_terms import flow_rhs


def _state_dev(s1: FlowState, s2: FlowState) -> float:
    dA = np.array(s1.A.to_floats()) - np.array(s2.A.to_floats())
    dP = np.array(s1.phi.to_floats()) - np.array(s2.phi.to_floats())
    df = np.array(s1.phi_y.to_floats()) - np.array(s2.phi_y.to_floats())
    return max(np.max(np.abs(dA)), np.max(np.abs(dP)), np.max(np.abs(df)))


def _full_row(W, y, v):
    """The full-variable row of the packed state ``v``, added as the
    integrator adds it: ``W`` to ``a``, ``e/y`` to ``b``, nothing to ``phi_y``."""
    return np.concatenate([v[:9] + W, v[9:18] + np.eye(3).ravel() / y, v[18:]])


def _blowup_start(bg):
    """``A = W``, ``phi = -49 e`` at y = 1: the flow from there blows up."""
    return FlowState(1.0, np.concatenate([np.ravel(bg.W.to_floats()),
                                          np.diag([-49.0] * 3).ravel(), np.zeros(3)]))


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

    def test_frozen_at_n12(self):
        # generated by the Fraction power-series oracle the integer sums replaced
        want = {
            "s3": ("1 0 -2/3 0 2/9 0 -4/135 0 -34/2835 0 44/4725 0 -4316/1403325",
                   "1 0 -1/3 0 -1/45 0 58/945 0 -403/14175 0 206/31185 0 "
                   "107818/638512875 0"),
            "hyperbolic": ("1" + " 0" * 12,
                           "1 0 1/3 0 -1/45 0 2/945 0 -1/4725 0 2/93555 0 "
                           "-1382/638512875 0"),
            "flat": ("1" + " 0" * 12, "1" + " 0" * 13),
        }
        for name, (a, phi) in want.items():
            fa, fp = taylor_profile(closed_solution(name), 12)
            assert fa == [Fraction(v) for v in a.split()]
            assert fp == [Fraction(v) for v in phi.split()]
            assert all(type(v) is Fraction for v in fa + fp)

    @pytest.mark.parametrize("fPhi", [ExpRational([1], [1, -2, 1]), ExpRational([1], [1])],
                             ids=["double-pole", "regular"])
    def test_refuses_a_profile_outside_its_layout(self, fPhi):
        # only the offsets (0, -1) fit: fA regular and fPhi a simple pole
        sol = replace(closed_solution("flat"), fPhi=fPhi)
        with pytest.raises(ValueError, match="layout"):
            taylor_profile(sol, 6)

    def test_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError) as err:
            ExpRational([1], [0]).taylor(2)
        assert str(err.value) == "series division by zero"

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
            assert abs(float(sol.fA.value(q)) - sol.fA.value(float(q))) <= 1e-13
            assert abs(float(sol.fPhi.value(q)) - sol.fPhi.value(float(q))) <= 1e-13


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


@pytest.mark.parametrize("name", ["s3", "hyperbolic", "flat"])
@pytest.mark.parametrize("y", [Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2),
                               Fraction(7, 5)])
def test_closed_forms_solve_the_flow_exactly(name, y):
    # the profiles are rational functions of a rational u, and the flow,
    # autonomous in (A, Phi), holds identically in u: no tolerance
    sol = closed_solution(name)
    residual = flow_residual(sol, y)
    assert residual == (0, 0, 0) and all(type(r) is Fraction for r in residual)
    for profile in (sol.fA, sol.fPhi):
        assert type(profile.value(y)) is Fraction
        assert type(profile.derivative(y)) is Fraction


@pytest.mark.parametrize("y", [360.0, 1e3])
def test_constant_profiles_hold_where_e_2y_overflows(y):
    # a constant quotient reads no u, so e^{2y} past float64 does not enter
    flat, hyperbolic = closed_solution("flat"), closed_solution("hyperbolic")
    assert profile_state(flat, y).v[9:18].tolist() == (np.eye(3).ravel() * (1 / y)).tolist()
    assert flow_residual(flat, y) == (0.0, 0.0, 0.0)
    value, slope = hyperbolic.fA.value(y), hyperbolic.fA.derivative(y)
    assert (type(value), value, type(slope), slope) == (float, 1.0, float, 0.0)


@pytest.mark.parametrize("name", ["s3", "hyperbolic"])
def test_profiles_hold_where_1_is_below_the_ulp_of_e_2y(name):
    # from 2y = 53 ln 2 on, the profiles run in t = e^{-2y}: each value and slope is
    # within 2 ulp of mpmath at 2y/ln 10 + 25 digits, and the residual stays finite
    # where e^{2y} overflows float64
    import mpmath as mp

    sol = closed_solution(name)
    fA, yfPhi = _mp_profiles(name)
    for y in (18.4, 20.0, 30.0, 50.0, 60.0, 100.0, 300.0, 354.0):
        got = [sol.fA.value(y), sol.fPhi.value(y), sol.fA.derivative(y), sol.fPhi.derivative(y)]
        with mp.workdps(int(2 * y / math.log(10)) + 25):
            Y = mp.mpf(y)
            want = [fA(Y), yfPhi(Y) / Y, mp.diff(fA, Y), mp.diff(lambda t: yfPhi(t) / t, Y)]
            for g, w in zip(got, want):
                assert abs(g - w) <= abs(w) * 2 ** -52, (y, g, w)
    for y in (100.0, 300.0, 360.0, 1e3):
        assert all(map(math.isfinite, flow_residual(sol, y))), y


#: The catalog, and a squash whose structure constants 6/7 and 14/3 are no
#: float64 numbers, so that the float operator must round each exact entry once.
OPERATOR_CASES = CATALOG + (("builtin:berger-s3?squash=3/7", False),)


@pytest.fixture(scope="module", params=OPERATOR_CASES,
                ids=[uri.split(":")[1] for uri, _ in OPERATOR_CASES])
def exact_operator(request):
    """A background with its flow operator ``(c, M0, M1, Q)`` in rationals,
    ``Fraction(n, den)`` from the compiled columns and ``4Q`` over 4."""
    bg = load_background(request.param[0], RationalField())
    c = np.array([0] * 9 + list(bg.starF.entries()) + [0] * 3, dtype=object)
    M0, M1, Q = (np.zeros(shape, dtype=object) for shape in ((21, 21), (21, 21), (21,) * 3))
    for M, columns in ((M0, bg._columns), (M1, _POLE_COLUMNS)):
        for u in range(21):
            rows, den = columns[u]
            for o, n in rows:
                M[o, u] = Fraction(n, den)
    for u, row in enumerate(_PAIR_4Q):
        for w, terms in row.items():
            for o, n in terms:
                Q[o, u, w] = Fraction(n, 4)
    return bg, (c, M0, M1, Q)


def _stacked_exact(c, M0, M1, Q):
    """``(c, G)`` of the dense exact operator: ``G = [M0 | M1 | Qp]``, ``Qp`` the
    columns of ``Q`` on the pairs ``geometry._I`` and ``_J``, doubled off the diagonal."""
    I, J = np.array(_I), np.array(_J)
    return c, np.concatenate([M0, M1, Q[:, I, J] * np.where(I == J, 1, 2)], axis=1)


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
        rhs = _stacked_rhs(*_stacked_exact(c, M0, M1, Q))
        rng = random.Random(52817)
        for _ in range(3):
            y = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            v = np.array([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(21)], dtype=object)
            want = c + M0.dot(v) + M1.dot(v) / y + Q.dot(v).dot(v)
            assert list(rhs(y, v)) == list(want)

    def test_float_build_is_float_of_exact_build(self, exact_operator):
        bg, (c, M0, M1, Q) = exact_operator
        # the pairs are the upper-triangle pairs whose column of Q is nonzero, in order
        triu = [(i, j) for i, j in zip(*np.triu_indices(21)) if np.any(Q[:, i, j] != 0)]
        assert list(zip(_I, _J)) == triu
        operator = _flow_operator(bg)
        assert len(operator) == 2
        for got, want in zip(operator, _stacked_exact(c, M0, M1, Q)):
            assert got.dtype == np.float64
            assert np.array_equal(got, np.vectorize(float, otypes=[float])(want))

    @pytest.mark.parametrize("bits", [64, 128])
    def test_float_background_integrates_as_the_rational_one(self, bits):
        # a float background's operator rounds its exact entries once, as the
        # rational background's does, so both integrate to the same bytes
        for uri, _ in OPERATOR_CASES:
            got = _flow_operator(load_background(uri, FloatField(bits)))
            want = _flow_operator(load_background(uri, RationalField()))
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], uri
        for name in ("s3", "hyperbolic"):
            runs = [[(s.y, s.v.tobytes()) for s in integrate_flow(
                sol.background, profile_state(sol, 0.2), 0.5, tol=1e-10)]
                for sol in (closed_solution(name, FloatField(bits)), closed_solution(name))]
            assert len(runs[0]) > 2 and runs[0] == runs[1], name


class TestResidualIsFlowPolynomial:
    """``residual_at`` is the flow's polynomial form at ``y^(K-1) (log y)^p``:
    ``(K - M1) v[K,p] + (p+1) v[K,p+1] - M0 v[K-1,p] - [(K,p) = (1,0)] c
    - sum Q(v1, v2)`` over the ordered address pairs summing to (K-1, p)."""

    def test_random_table(self, exact_operator):
        bg, (c, M0, M1, Q) = exact_operator
        rng = random.Random(18080)
        s = PhgSeries(background=bg, order=4)
        for at in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 2), (4, 1)):
            forms = {"a": rand_one_form(rng, bg.field),
                     "b": rand_one_form(rng, bg.field),
                     "phi_y": rand_zero_form(rng, bg.field)}
            forms = {k: f for k, f in forms.items() if rng.random() < 0.7}
            s._store(*at, list(forms.values()), **forms)

        def v(k, p):
            return np.array([*s.get_a(k, p).entries(), *s.get_b(k, p).entries(),
                             *s.get_phi(k, p).entries()], dtype=object)

        nonzero = list(zip(*np.nonzero(Q)))

        def pair(x, y):
            out = np.array([Fraction(0)] * 21, dtype=object)
            for k, i, j in nonzero:
                out[k] += Q[k, i, j] * x[i] * y[j]
            return out

        for K in range(1, 6):
            for p in range(4):
                want = (K * v(K, p) - M1.dot(v(K, p)) + (p + 1) * v(K, p + 1)
                        - M0.dot(v(K - 1, p)) - (c if (K, p) == (1, 0) else 0))
                for k1 in range(1, K - 1):
                    for p1 in range(p + 1):
                        want = want - pair(v(k1, p1), v(K - 1 - k1, p - p1))
                got = [x for r in residual_at(s, K, p) for x in r.entries()]
                assert got == list(want), (K, p)


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

        from nahmpole.oracle import _pack_state

        sol = closed_solution("s3")
        v0 = _pack_state(sol.background, profile_state(sol, 0.2))
        out = solve_ivp(_flow_rhs(sol.background), (0.2, 1.0), v0,
                        rtol=1e-11, atol=1e-12, method="RK45")
        assert out.success
        want = _pack_state(sol.background, profile_state(sol, 1.0))
        assert np.abs(out.y[:, -1] - want).max() <= 1e-8

    def test_series_to_ode_pipeline(self, field):
        # truncated expansion near the boundary, then the ODE to y = 1
        sol = closed_solution("s3")
        bg = load_background("builtin:round-s3", field)
        ser = expand(bg, matched_free_data("s3", field), N=6)
        init = state_from_series(ser, 0.05)
        traj = integrate_flow(sol.background, init, 1.0, tol=1e-10)
        assert _state_dev(traj[-1], profile_state(sol, 1.0)) <= 1e-5

    def test_step_underflow_near_blowup(self):
        bg = closed_solution("s3").background
        init = _blowup_start(bg)
        with pytest.raises(StepUnderflow) as err:
            integrate_flow(bg, init, 3.0, tol=1e-10)
        last = err.value.last_state
        assert isinstance(last, FlowState)
        assert 1.0 <= last.y < 1.2

    def test_step_below_the_floor_leaves_the_resolvable_regime(self):
        # the blow-up test's start with a budget too loose for the round-off
        # rule: the step shrinks below the absolute floor first
        bg = closed_solution("s3").background
        init = _blowup_start(bg)
        with pytest.raises(StepUnderflow) as err:
            integrate_flow(bg, init, 3.0, tol=1e3)
        last = err.value.last_state
        assert 1.0 <= last.y < 1.2
        assert str(err.value) == (f"step size underflow at y = {last.y!r}; "
                                  "the flow appears to leave the resolvable regime")

    def test_budget_below_roundoff_stops_at_once(self, field):
        # tol / span = 2e-30 is far below eps * ||f||_inf: the first rejected
        # step stops the run, with its own message, before h reaches the floor
        sol = closed_solution("s3")
        ser = expand(sol.background, matched_free_data("s3", field), N=4)
        init = state_from_series(ser, 0.01)
        with pytest.raises(StepUnderflow) as err:
            integrate_flow(sol.background, init, 0.5, tol=1e-30)
        assert str(err.value) == ("step size underflow: the error estimate is "
                                  "below float64 round-off at y = 0.01")
        assert err.value.last_state is init

    def test_far_target_underflows_without_warnings(self, field):
        # the first steps toward y = 1e15 overflow in every stage; the
        # non-finite error estimate rejects them, and numpy stays silent
        sol = closed_solution("s3")
        ser = expand(sol.background, matched_free_data("s3", field), N=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepUnderflow):
                integrate_flow(sol.background, state_from_series(ser, 0.01), 1e15)

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
        # these used to underflow at the start (0, nan), crash on a complex
        # step factor (negative) or accept every step (inf)
        for tol in (0.0, math.nan, -1e-10, math.inf):
            with pytest.raises(ValueError):
                integrate_flow(sol.background, st, 1.0, tol=tol)

    def test_pole_past_float64_is_refused(self):
        # e/y overflows below about 5.6e-309: these used to warn and then
        # underflow the step (integrate_flow) or return an inf row (state_from_series)
        sol = closed_solution("s3")
        st = profile_state(sol, 0.2)
        ser = expand(sol.background, matched_free_data("s3"), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (1e-310, 5e-324):
                with pytest.raises(ValueError, match="e/y overflows"):
                    integrate_flow(sol.background, replace(st, y=y), 0.2)
                with pytest.raises(ValueError, match="e/y overflows"):
                    integrate_flow(sol.background, st, y)
                with pytest.raises(ValueError, match="e/y overflows"):
                    state_from_series(ser, y)
        assert np.isfinite(state_from_series(ser, 1e-308).v).all()

    def test_fixed_step_equals_plain_seven_stage_steps(self):
        # the integrator reuses the last stage of a step as the first of the
        # next; a reference step that evaluates all seven stages must give
        # the same bits
        from nahmpole.oracle import _pack_state

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
            want.append((y, _full_row(W, y, v)))

        got = integrate_flow(bg, init, 1.0, fixed_step=0.01)[1:]
        assert len(got) == len(want) == 99
        for g, (wy, w) in zip(got, want):
            assert g.y == wy
            assert np.array_equal(g.v, w)


def _allocating_reference(bg, init, y1, tol):
    """The adaptive Dormand-Prince loop with a fresh array for every stage
    input, stage and error row, and ``rhs`` called without ``out``; the same
    tableau and step controller as ``integrate_flow`` (no underflow floor).
    Returns the accepted ``y`` and the packed states, unpacked to full rows
    as the integrator does."""
    from nahmpole.oracle import _pack_state

    rhs = _flow_rhs(bg)
    A = [np.array([float(x) for x in row]) for row in _DP_A]
    C = [float(x) for x in _DP_C]
    E = np.array([float(b5 - b4) for b5, b4 in zip(_DP_B5, _DP_B4)])
    W = np.ravel(bg.W.to_floats())
    y, v = float(init.y), _pack_state(bg, init)
    span, direction = abs(y1 - y), 1.0 if y1 > y else -1.0
    h = direction * span / 64.0
    K = np.zeros((7, 21))
    K[0] = rhs(y, v)
    ys, states = [], []
    while (y1 - y) * direction > 1e-15 * span:
        h = direction * min(abs(h), abs(y1 - y))
        for s in range(1, 7):
            u = v + h * (A[s] @ K[:s])
            K[s] = rhs(y + C[s] * h, u)
        err = abs(h) * float(np.abs(E @ K).max())
        budget = tol * abs(h) / span
        if math.isfinite(err) and err <= budget:
            y = y1 if abs(y1 - (y + h)) < 1e-15 * span else y + h
            v = u
            ys.append(y)
            states.append(_full_row(W, y, v))
            K[0] = K[6]
            grow = 0.9 * (budget / err) ** 0.25 if err > 0 else 5.0
            h = h * min(5.0, max(0.2, grow))
        else:
            shrink = 0.9 * (budget / err) ** 0.25 if math.isfinite(err) else 0.2
            h = h * min(0.9, max(0.1, shrink))
    return ys, states


class TestBufferedStages:
    """``integrate_flow`` writes its stages into preallocated buffers; the
    bits are those of a loop that allocates every intermediate."""

    @pytest.mark.parametrize("name,y0,y1,tol", [
        ("s3", 0.01, 1.0, 1e-12),
        ("hyperbolic", 0.01, 1.0, 1e-12),
        ("s3", 1.0, 0.2, 1e-10),
    ])
    def test_adaptive_equals_allocating_reference(self, name, y0, y1, tol):
        sol = closed_solution(name)
        bg = sol.background
        if y0 < y1:
            ser = expand(bg, matched_free_data(name, bg.field), N=6)
            init = state_from_series(ser, y0, 6)
        else:
            init = profile_state(sol, y0)
        want_y, want = _allocating_reference(bg, init, y1, tol)
        got = integrate_flow(bg, init, y1, tol=tol)[1:]
        assert len(got) == len(want) > 50
        for g, wy, w in zip(got, want_y, want):
            assert g.y == wy
            assert np.array_equal(g.v, w)

    def test_steps_make_no_np_dot_call(self, monkeypatch):
        # the products are ndarray.dot method calls, which skip np.dot's
        # __array_function__ dispatcher frame: with np.dot refused, the rows stay
        bg = closed_solution("s3").background
        init = state_from_series(expand(bg, matched_free_data("s3", bg.field), N=6), 0.01, 6)
        runs = ({"tol": 1e-12}, {"fixed_step": 0.01})
        want = [[(s.y, s.v.tobytes()) for s in integrate_flow(bg, init, 1.0, **kw)]
                for kw in runs]

        def refuse(*args, **kwargs):
            raise AssertionError("np.dot called")
        monkeypatch.setattr(np, "dot", refuse)
        got = [[(s.y, s.v.tobytes()) for s in integrate_flow(bg, init, 1.0, **kw)]
               for kw in runs]
        assert got == want and len(want[0]) > 800 and len(want[1]) == 100

    def test_adaptive_run_builds_no_forms(self, monkeypatch):
        # a state is its row: once the operator is built from the term tables
        # (through forms, once per background), the steps and the returned states
        # construct no GForm
        from nahmpole import oracle

        sol = closed_solution("s3")
        init, rhs = profile_state(sol, 0.2), _flow_rhs(sol.background)
        monkeypatch.setattr(oracle, "_flow_rhs", lambda bg: rhs)
        made, construct = [], GForm.__init__

        def counting(form, *args):
            made.append(args)
            construct(form, *args)
        monkeypatch.setattr(GForm, "__init__", counting)
        traj = integrate_flow(sol.background, init, 1.0, tol=1e-10)
        assert len(traj) > 20 and made == []

    def test_operator_is_built_once_per_background(self, monkeypatch):
        # the frame columns are read off the term tables, through forms, on the
        # first run only; the columns the background keeps do not keep it alive
        from nahmpole import geometry

        calls, build = [], geometry._Columns.__missing__
        monkeypatch.setattr(geometry._Columns, "__missing__",
                            lambda *args: calls.append(1) or build(*args))
        sol = closed_solution("s3")
        init = profile_state(sol, 0.2)
        first = integrate_flow(sol.background, init, 0.5, tol=1e-10)
        built = len(calls)
        assert built > 0
        again = integrate_flow(sol.background, init, 0.5, tol=1e-10)
        assert len(calls) == built
        assert [(s.y, s.v.tobytes()) for s in again] == [(s.y, s.v.tobytes()) for s in first]
        kept = weakref.ref(sol.background)
        del sol
        gc.collect()
        assert kept() is None

    def test_rhs_without_out_returns_fresh_arrays(self):
        # solve_ivp keeps the arrays it is given
        rhs = _flow_rhs(closed_solution("s3").background)
        rng = np.random.default_rng(19)
        v1, v2 = rng.normal(size=21), rng.normal(size=21)
        first = rhs(0.3, v1)
        kept = first.copy()
        second = rhs(0.7, v2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        out = np.empty(21)
        assert rhs(0.7, v2, out) is out
        assert np.array_equal(out, second)

    def test_rhs_input_buffer_contract(self, monkeypatch):
        # integrate_flow writes each stage input into rhs.v, the first slots of
        # the operator's stacked vector, so rhs copies nothing in; any other v is
        # copied in and left as it was, and no returned row is that buffer
        from nahmpole import oracle

        sol = closed_solution("s3")
        rhs = _flow_rhs(sol.background)
        v = np.random.default_rng(23).normal(size=21)
        kept = v.tobytes()
        want = rhs(0.3, v)
        assert v.tobytes() == kept
        rhs.v[:] = v
        assert rhs(0.3, rhs.v).tobytes() == want.tobytes()
        out = np.empty(21)
        assert rhs(0.3, rhs.v, out) is out and out.tobytes() == want.tobytes()
        assert rhs.v.tobytes() == kept

        init = profile_state(sol, 0.2)
        start = init.v.tobytes()
        monkeypatch.setattr(oracle, "_flow_rhs", lambda bg: rhs)
        first = integrate_flow(sol.background, init, 1.0, tol=1e-10)
        rows = [(s.y, s.v.tobytes()) for s in first]
        again = integrate_flow(sol.background, init, 1.0, tol=1e-10)
        assert init.v.tobytes() == start
        assert [(s.y, s.v.tobytes()) for s in first] == rows
        assert [(s.y, s.v.tobytes()) for s in again] == rows
        assert not any(np.shares_memory(s.v, rhs.v) for s in first + again)


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

    def test_volume_free_report_prints_null(self, field):
        rep = global_report(expand(load_background("builtin:hyperbolic-h3", field), N=4))
        assert '\n  "volume": null,\n' in rep.to_json()
        assert json.loads(rep.to_json())["volume"] is None

    def test_declared_volume_scales_the_number(self, field, tmp_path):
        # a background file's "p/q" volume multiplies the density exactly
        doc = json.loads(background_to_json(load_background("builtin:round-s3", field)))
        doc["volume"] = "3/2"
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(doc))
        bg = load_background(str(path), field)
        rep = global_report(expand(bg, matched_free_data("s3", field), N=4))
        assert rep.volume == Fraction(3, 2)
        assert rep.k_number == rep.k_density * Fraction(3, 2)
        assert type(rep.k_number) is Fraction
        assert json.loads(rep.to_json())["volume"] == "3/2"

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
    # higher orders, taken from the Fraction-sum implementation the integer
    # one replaced
    ("s3", (2, 4, 6, 8, 10, 12), {},
     "335a28fcd8ae713aab374c4929491216d11cf05e075212d4349632c25b9637af"),
    ("hyperbolic", (2, 4, 6, 8, 10, 12), {"y_hi": 0.5},
     "3692d3de79f7717fb7ad34875a968158a6a75f36a7c1d557a55fb9539fd18ada"),
    ("flat", (2, 4, 6, 8), {"samples": 5},
     "6bcd5bd952bdd2fee0e0ea9b568d64f90cead5b09f80728b2fdd728205ab00ab"),
]


class TestConvergence:
    def test_exp_fraction_is_term_by_term_sum(self):
        grid = [Fraction(float(v)) for v in np.geomspace(0.01, 0.1, 12)]
        points = ([2 * q for q in grid] + [-2 * q for q in grid]
                  + [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11),
                     Fraction(-1, 2), Fraction(0)])
        for x in points:
            assert _exp_fraction(x) == _exp_reference(x), x

    def test_fixed_point_exp_is_within_its_bound(self):
        # |x| <= 1: each term is floored to 2^-(bits+8), the sum to 2^-bits
        points = [Fraction(float(v)) for v in np.geomspace(1e-30, 1, 9)] + [
            Fraction(1, 3), Fraction(-5, 7), Fraction(-1), Fraction(0)]
        for x in points:
            exact = _exp_fraction(x)
            for bits in (1, 53, 181, 1000):
                got = _exp_fraction(x, bits)
                assert abs(got - exact) < Fraction(2, 2 ** bits), (x, bits)
                assert (got * 2 ** bits).denominator == 1

    #: tables no CONVERGENCE_SHA256 row covers; a fixed 256-bit u changes all
    #: but the flat one, a rule scaled by K + 1 instead of K + 3 the y <= 1e-20 ones
    @pytest.mark.parametrize("name,orders,y_lo,y_hi,samples", [
        ("s3", (2, 12), 1e-8, 1e-3, 7),
        ("s3", (2, 4, 6), 1e-30, 1e-20, 3),
        ("hyperbolic", (2, 12), 1e-20, 1e-12, 3),
        ("hyperbolic", (3, 20), 1e-3, 0.5, 12),
        ("s3", (4, 8, 12, 16, 20), 1e-30, 0.5, 25),
        ("flat", (2, 4), 1e-30, 0.5, 5),
    ])
    def test_fixed_point_u_gives_the_exact_u_table(self, name, orders, y_lo, y_hi,
                                                    samples, monkeypatch):
        import nahmpole.oracle as oracle

        got = convergence_table(name, orders, y_lo, y_hi, samples)
        monkeypatch.setattr(oracle, "_exp_fraction", lambda x, bits=None: _exp_fraction(x))
        want = convergence_table(name, orders, y_lo, y_hi, samples)
        assert repr(got) == repr(want)  # float for float, slope for slope

    @pytest.mark.parametrize("name", ["s3", "hyperbolic"])
    def test_value_exact_is_fraction_horner(self, name):
        sol = closed_solution(name)
        for y in (Fraction(1, 100), Fraction(-2, 7), Fraction(1, 4)):
            u = _exp_fraction(2 * y)
            for profile in (sol.fA, sol.fPhi):
                if hasattr(profile, "P"):
                    num = den = Fraction(0)
                    for c in reversed(profile.P):
                        num = num * u + c
                    for c in reversed(profile.Q):
                        den = den * u + c
                    assert profile.value(y) == num / den
                    assert Fraction(*profile.ratio_exact(y, u)) == num / den

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

    @pytest.mark.parametrize("y_hi", [0.6, 20.0, math.nan])
    def test_rejects_y_hi_beyond_the_exact_window(self, y_hi):
        # e^{2y} is a Taylor truncation: 85% off at y = 20
        with pytest.raises(ValueError, match="y_hi"):
            convergence_table("s3", orders=(2,), y_hi=y_hi)

    @pytest.mark.parametrize("kwargs,reason", [
        ({"y_lo": 0.9, "y_hi": 0.1}, "y_lo = 0.9 is off"),
        ({"y_lo": 0}, "y_lo = 0 is off"),
        ({"y_lo": -0.1}, "y_lo = -0.1 is off"),
        ({"y_lo": math.nan}, "y_lo = nan is off"),
        ({"samples": 0}, "samples >= 1"),
        ({"orders": ()}, "at least one order"),
    ])
    def test_rejects_a_bad_grid_before_any_work(self, kwargs, reason, monkeypatch):
        # refused with a one-line reason, before expanding and without a
        # numpy warning: y_lo = 0.9 used to report errors outside the exact
        # window, the others failed inside np.geomspace or max()
        import nahmpole.oracle as oracle

        def no_expand(*args):
            raise AssertionError("expanded before validating")
        monkeypatch.setattr(oracle, "expand", no_expand)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=reason) as err:
                convergence_table("s3", **{"orders": (2,), **kwargs})
        assert "\n" not in str(err.value)

    def test_rejects_a_series_with_log_terms(self):
        bg = closed_solution("s3").background
        s = expand(bg, matched_free_data("s3", bg.field), 2)
        s._b[(3, 1)] = vierbein(bg.field)
        with pytest.raises(ValueError) as err:
            convergence_table("s3", orders=(2,), series=s)
        assert str(err.value) == "the convergence oracle needs a log-free expansion"

    @pytest.mark.parametrize("name,order,reason", [
        ("s3", 2, "stops at N=2, short of N=6"),
        ("hyperbolic", 6, "expanded on 'hyperbolic-h3', not on 'round-s3'"),
    ])
    def test_rejects_a_series_that_cannot_answer(self, name, order, reason, monkeypatch):
        # a series short of max(orders) used to give rows of its own error,
        # labelled with the higher N; another solution's one a wrong table
        import nahmpole.oracle as oracle

        bg = closed_solution(name).background
        series = expand(bg, matched_free_data(name, bg.field), order)

        def no_work(*args):
            raise AssertionError("worked before validating")
        monkeypatch.setattr(oracle, "_exp_fraction", no_work)
        with pytest.raises(ValueError, match=reason) as err:
            convergence_table("s3", orders=(2, 4, 6), series=series)
        assert "\n" not in str(err.value)


class TestStateHelpers:
    def test_profile_state_matches_series_state(self, field):
        sol = closed_solution("s3")
        bg = load_background("builtin:round-s3", field)
        ser = expand(bg, matched_free_data("s3", field), N=6)
        near = _state_dev(state_from_series(ser, 0.05), profile_state(sol, 0.05))
        assert near <= 1e-9
        mid = _state_dev(state_from_series(ser, 0.5), profile_state(sol, 0.5))
        assert mid <= 5e-2
