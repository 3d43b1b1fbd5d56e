"""Ground truth for the expansion engine.

Three independent instruments, none of which share code with the series
recursion:

* **Closed-form solutions** on the round 3-sphere, hyperbolic space and the
  flat model, as scalar profiles multiplying the invariant frame forms:
  ``A = fA(y) W`` and ``Phi = fPhi(y) e`` with ``phi_y = 0``.
* **Exact Taylor oracles** for those profiles, computed by rational power
  series arithmetic on the series of ``e^{2y}`` -- every coefficient a
  Fraction, no engine code involved.
* **A flow integrator**: the three flow equations, stated once in the
  field-generic ``flow_rhs``, as a 21-component ODE system in the subtracted
  variables ``(a, b, phi_y) = (A - W, Phi - e/y, Phi_y)``, integrated by an
  embedded Dormand-Prince 5(4) pair on an operator polarized from it and
  applied as one stacked matrix ``c + [M0 | M1 | Qp] (v, v/y, v_i v_j)``.

The convergence table compares the exact expansion with the closed forms in
rational arithmetic, summing each series part over small denominators and
meeting the closed form's one large denominator once per truncation order.

Convention lock-in: the orientation and the curvature sign of the frame
backgrounds are pinned by requiring the closed-form profiles below to solve
the flow equations to round-off (see ``flow_residual``); every other test in
the package inherits these choices.  Sources that state a profile over a
frame normalized as ``[t_a, t_b] = 2 eps_{abc} t_c`` are converted to the
internal ``eps`` convention when the solution object is built, so the stored
coefficients are already internal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import (
    GForm,
    L_op,
    bracket_0_1,
    e_bracket,
    gamma_op,
    star_bracket_star,
    star_wedge,
    vierbein,
)
from .geometry import (
    FrameBackground,
    builtin,
    d_omega,
    d_omega_star,
    star_d,
    star_d_omega,
)
from .scalars import RationalField
from .series import FreeData, PhgSeries, evaluate as evaluate_series, expand

__all__ = [
    "ProfileSolution",
    "FlowState",
    "GlobalReport",
    "StepUnderflow",
    "closed_solution",
    "closed_solution_names",
    "matched_free_data",
    "taylor_profile",
    "profile_state",
    "state_from_series",
    "flow_rhs",
    "flow_residual",
    "integrate_flow",
    "trajectory_csv",
    "global_report",
    "convergence_table",
    "convergence_csv",
]


# ---------------------------------------------------------------------------
# Exact power series arithmetic (dense Fraction coefficient lists).
# ---------------------------------------------------------------------------


def _ts_mul(x, y, n):
    """Product of two power series through y^n."""
    out = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(x[: n + 1]):
        if xi == 0:
            continue
        for j, yj in enumerate(y[: n + 1 - i]):
            if yj != 0:
                out[i + j] += xi * yj
    return out

def _ts_exp2(n):
    """Series of e^{2y} through y^n."""
    out = [Fraction(0)] * (n + 1)
    c = Fraction(1)
    out[0] = c
    for k in range(1, n + 1):
        c = c * 2 / k
        out[k] = c
    return out


def _exp_fraction(x: Fraction) -> Fraction:
    """e^x truncated after the x^40 term, as an exact Fraction.

    For |x| <= 1/2 the dropped tail is below x^41/41! < 1e-60 -- far under
    anything the convergence table can resolve.  The 41 terms are summed as
    integers over the common denominator 40! d^40 of ``x = n/d``.
    """
    # the k-th numerator n^k d^(40-k) 40!/k! divides exactly out of the last
    n, d = x.numerator, x.denominator
    den = math.factorial(40) * d ** 40
    term = acc = den
    for k in range(1, 41):
        term = term * n // (d * k)
        acc += term
    return Fraction(acc, den)


def _ts_poly(poly, base, n):
    """Polynomial in ``base`` (coefficients ascending), as a series in y."""
    acc = [Fraction(0)] * (n + 1)
    for c in reversed(poly):
        acc = _ts_mul(acc, base, n)
        acc[0] += Fraction(c)
    return acc


def _ts_div(num, den, n):
    """Laurent quotient of power series: returns ``(offset, coeffs)`` with
    value ``sum coeffs[i] y^(offset + i)``, coeffs running through y-order n
    relative to the offset.  The denominator may vanish at y = 0 to finite
    order (that order becomes the pole order of the quotient).
    """
    v = next((i for i, d in enumerate(den) if d != 0), None)
    if v is None:
        raise ZeroDivisionError("series division by zero")
    dt = den[v:] + [Fraction(0)] * v
    q = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(i):
            acc -= q[j] * (dt[i - j] if i - j < len(dt) else Fraction(0))
        q[i] = acc / dt[0]
    return -v, q


# ---------------------------------------------------------------------------
# Scalar profiles.
# ---------------------------------------------------------------------------


class ConstantProfile:
    """A constant profile; exact for exact arguments."""

    def __init__(self, c):
        self.c = Fraction(c)

    def value(self, y):
        return self.c if isinstance(y, Fraction) else float(self.c)

    def value_exact(self, y: Fraction, u=None) -> Fraction:
        return self.c

    def derivative(self, y):
        return Fraction(0) if isinstance(y, Fraction) else 0.0

    def taylor(self, n):
        return 0, [self.c] + [Fraction(0)] * n


class InverseY:
    """The pole profile ``1/y``; exact for exact arguments."""

    def value(self, y):
        return 1 / y

    def value_exact(self, y: Fraction, u=None) -> Fraction:
        return 1 / y

    def derivative(self, y):
        return -1 / (y * y)

    def taylor(self, n):
        return -1, [Fraction(1)] + [Fraction(0)] * n


class ExpRational:
    """``P(u)/Q(u)`` with ``u = e^{2y}``, P and Q polynomials with rational
    coefficients (ascending).  Values and derivatives are analytic
    (``du/dy = 2u``); Taylor coefficients are exact.
    """

    def __init__(self, P, Q):
        self.P = [Fraction(c) for c in P]
        self.Q = [Fraction(c) for c in Q]

    @staticmethod
    def _polyval(poly, u):
        acc = 0.0
        for c in reversed(poly):
            acc = acc * u + float(c)
        return acc

    @staticmethod
    def _polyder(poly):
        return [k * c for k, c in enumerate(poly)][1:] or [Fraction(0)]

    def value(self, y):
        u = math.exp(2.0 * float(y))
        return self._polyval(self.P, u) / self._polyval(self.Q, u)

    def value_exact(self, y: Fraction, u=None) -> Fraction:
        """Value as a Fraction, with e^{2y} itself replaced by its rational
        Taylor truncation (error under 1e-60 for |y| <= 1/4); a caller that
        evaluates several profiles at one ``y`` passes that truncation as
        ``u``."""
        if u is None:
            u = _exp_fraction(2 * Fraction(y))
        num = Fraction(0)
        den = Fraction(0)
        for c in reversed(self.P):
            num = num * u + c
        for c in reversed(self.Q):
            den = den * u + c
        return num / den

    def derivative(self, y):
        u = math.exp(2.0 * float(y))
        p = self._polyval(self.P, u)
        q = self._polyval(self.Q, u)
        dp = self._polyval(self._polyder(self.P), u)
        dq = self._polyval(self._polyder(self.Q), u)
        return 2.0 * u * (dp * q - p * dq) / (q * q)

    def taylor(self, n):
        # compute a few extra orders so a denominator zero at y=0 (pole of
        # the quotient) still leaves n usable coefficients
        guard = max(len(self.Q), 4)
        u = _ts_exp2(n + guard)
        num = _ts_poly(self.P, u, n + guard)
        den = _ts_poly(self.Q, u, n + guard)
        off, q = _ts_div(num, den, n + guard)
        return off, q[: n + 1]


@dataclass(frozen=True)
class ProfileSolution:
    """A closed-form solution ``A = fA(y) W``, ``Phi = fPhi(y) e``, ``Phi_y =
    0`` over an invariant background.

    ``fPhi ~ 1/y`` as ``y -> 0`` (the pole boundary condition); both profiles
    are smooth on (0, inf).
    """

    name: str
    fA: object
    fPhi: object
    background: FrameBackground


def _build_s3(field):
    # fA = 6u / (u^2 + 4u + 1), fPhi = 6u(u+1) / ((u^2+4u+1)(u-1))
    return ProfileSolution(
        name="s3",
        fA=ExpRational([0, 6], [1, 4, 1]),
        fPhi=ExpRational([0, 6, 6], [-1, -3, 3, 1]),
        background=builtin("round-s3", field=field),
    )


def _build_hyperbolic(field):
    # fA = 1 (the connection stays Levi-Civita), fPhi = coth y = (u+1)/(u-1);
    # transcribed over [t_a, t_b] = 2 eps_abc t_c, stored in the eps convention
    return ProfileSolution(
        name="hyperbolic",
        fA=ConstantProfile(1),
        fPhi=ExpRational([1, 1], [-1, 1]),
        background=builtin("hyperbolic-h3", field=field),
    )


def _build_flat(field):
    return ProfileSolution(
        name="flat",
        fA=ConstantProfile(1),
        fPhi=InverseY(),
        background=builtin("flat", field=field),
    )


_SOLUTIONS = {
    "s3": _build_s3,
    "hyperbolic": _build_hyperbolic,
    "flat": _build_flat,
}


def closed_solution_names():
    return list(_SOLUTIONS)


def _solution_builder(name: str):
    try:
        return _SOLUTIONS[name]
    except KeyError:
        raise ValueError(
            f"no closed-form solution registered under {name!r}; "
            f"known: {', '.join(_SOLUTIONS)}"
        ) from None


def closed_solution(name: str, field=None) -> ProfileSolution:
    """Look up a registered closed-form solution by name."""
    return _solution_builder(name)(field)


def matched_free_data(name: str, field=None) -> FreeData:
    """The free data whose expansion reproduces a closed-form solution.

    Only the round sphere needs a nonzero choice: its ``a_2 = -2/3 e`` sits in
    the free V- slot.  The hyperbolic and flat solutions match zero free data.
    ``field`` defaults to rationals, as for the solution's background, which
    is not built here.

    :raises ValueError: for a name with no registered solution.
    """
    _solution_builder(name)
    field = field or RationalField()
    if name == "s3":
        e = vierbein(field)
        return FreeData(field=field, c_minus=e.scale(Fraction(-2, 3)))
    return FreeData.zero(field)


def taylor_profile(sol: ProfileSolution, N: int):
    """Exact rational Taylor coefficients of a solution's profiles.

    :param N: highest y-power, at most 12 (the practical exactness window).
    :return: ``(fA, fPhi)`` where ``fA[k]`` is the y^k coefficient
        (k = 0..N) and ``fPhi[j]`` the y^(j-1) coefficient (so ``fPhi[0]``
        multiplies the 1/y pole).
    :raises ValueError: for N out of range or a profile whose pole order does
        not fit this layout.
    """
    if not 0 <= N <= 12:
        raise ValueError("taylor_profile supports 0 <= N <= 12")
    off_a, ca = sol.fA.taylor(N)
    off_p, cp = sol.fPhi.taylor(N + 1)
    if off_a > 0 or off_p > -1:
        # leading zeros only deepen the offset representation; re-anchor
        ca = [Fraction(0)] * off_a + ca
        cp = [Fraction(0)] * (off_p + 1) + cp
        off_a, off_p = 0, -1
    if off_a < 0 or off_p < -1:
        raise ValueError(
            f"profile of {sol.name!r} falls outside the (fA regular, "
            f"fPhi simple-pole) layout")
    fa = ca[: N + 1] + [Fraction(0)] * max(0, N + 1 - len(ca))
    fp = cp[: N + 2] + [Fraction(0)] * max(0, N + 2 - len(cp))
    return fa, fp


# ---------------------------------------------------------------------------
# Flow states and the exact right-hand side.
# ---------------------------------------------------------------------------


class _Float64Kit:
    """Minimal scalar-field shim over native floats, for flow states and the
    float64 polarization probes: only the members those paths call."""

    zero = 0.0
    one = 1.0

    def from_fraction(self, q):
        return float(q)

    def to_float(self, x):
        return float(x)


_F64 = _Float64Kit()


#: Size of the packed state ``v = (a, b, phi_y)``: 9 + 9 + 3 coefficients.
_NV = 21


def _forms(field, v):
    """The GForms ``(a, b, phi_y)`` of a packed state (entries may be arrays)."""
    return (GForm.from_entries(field, v[0:9]), GForm.from_entries(field, v[9:18]),
            GForm.from_entries(field, v[18:21]))


@dataclass(frozen=True)
class FlowState:
    """One point on a flow trajectory, in the full variables.

    ``A`` and ``phi`` are the complete degree-1 coefficient forms (``phi``
    carries the 1/y pole), ``phi_y`` the degree-0 form; ``y > 0``.
    """

    y: float
    A: GForm
    phi: GForm
    phi_y: GForm


def _float_state(y, A, phi, phi_y) -> FlowState:
    full = np.concatenate([np.ravel(A), np.ravel(phi), phi_y])
    return FlowState(float(y), *_forms(_F64, full.tolist()))


def profile_state(sol: ProfileSolution, y) -> FlowState:
    """Evaluate a closed-form solution into a :class:`FlowState`."""
    y = float(y)
    W = np.array(sol.background.W.to_floats(), dtype=float)
    return _float_state(y, W * sol.fA.value(y), np.eye(3) * sol.fPhi.value(y),
                        np.zeros(3))


def state_from_series(series: PhgSeries, y, N: int = None) -> FlowState:
    """Evaluate a truncated expansion into a :class:`FlowState` (float)."""
    return _float_state(y, *evaluate_series(series, y, N))


def flow_rhs(bg: FrameBackground, y, a: GForm, b: GForm, phi_y: GForm):
    """Right-hand side of the flow equations in subtracted variables.

    With ``A = W + a`` and ``Phi = e/y + b`` the pole terms cancel against
    the quadratic ``Phi ^ Phi`` term and what remains is::

        a'     = (L(a) - [e, phi_y])/y + *d_w b + *[a,b] + [phi_y, b]
        b'     = d_w phi_y + [a, phi_y] + *F_w + *d_w a + 1/2 *[a,a]
                 - L(b)/y - 1/2 *[b,b]
        phi_y' = d_w^* b - Gamma(a)/y - *[a, *b]

    Exact over exact scalars (the flat model's zero state has an exactly zero
    right-hand side in rational arithmetic).
    """
    half = bg.field.from_fraction(Fraction(1, 2))
    da = ((L_op(a) - e_bracket(phi_y)).divide(y)
          + star_d_omega(bg, b) + star_wedge(a, b) + bracket_0_1(phi_y, b))
    db = (d_omega(bg, phi_y) - bracket_0_1(phi_y, a) + bg.starF
          + star_d_omega(bg, a) + star_wedge(a, a).scale(half)
          - L_op(b).divide(y) - star_wedge(b, b).scale(half))
    dphi = (d_omega_star(bg, b) - gamma_op(a).divide(y)
            - star_bracket_star(a, b))
    return da, db, dphi


def _max_abs(form: GForm):
    vals = [abs(v) for v in form.entries()]
    return max(vals) if vals else 0


def flow_residual(sol: ProfileSolution, y):
    """Pointwise residual norms of the three flow equations on a closed form.

    Derivatives are analytic (the profiles are exp/rational), so the only
    noise is float round-off -- or nothing at all: a Fraction ``y`` on a
    profile with exact values (the flat model) gives exact rational residuals.

    :return: ``(ra, rb, rphi)`` max-abs residual norms.
    """
    bg = sol.background
    W = bg.W
    e = vierbein(bg.field)
    fa = sol.fA.value(y)
    fphi = sol.fPhi.value(y)
    one = Fraction(1) if isinstance(y, Fraction) else 1.0
    a = W.scale(fa - one)
    b = e.scale(fphi - one / y)
    phi_y = GForm.zero(bg.field, 0)
    da, db, dphi = flow_rhs(bg, y, a, b, phi_y)
    ra = W.scale(sol.fA.derivative(y)) - da
    rb = e.scale(sol.fPhi.derivative(y) + one / (y * y)) - db
    rphi = -dphi
    return _max_abs(ra), _max_abs(rb), _max_abs(rphi)


# ---------------------------------------------------------------------------
# Numeric integration of the flow.
# ---------------------------------------------------------------------------

def _polarize(bg: FrameBackground, one):
    """``(c, M0, M1, Q)`` with ``flow_rhs(y, v) = c + M0 v + M1 v/y + Q(v, v)``.

    The flow is quadratic in the packed state ``v`` with a linear 1/y part, so
    it is read off ``flow_rhs`` itself at the 274 probes 0, +-e_i (y = 1), e_i
    (y = 1/2) and e_i + e_j (i < j, y = 1), sent through one call as numpy
    arrays of scalars: float64 for ``one = 1.0`` (``bg`` over float scalars),
    Fractions for ``one = Fraction(1)``.  ``Q[k, i, j]`` is symmetric in i, j.
    """
    n = _NV
    eye = np.eye(n, dtype=int)
    iu, ju = np.triu_indices(n, 1)
    v = np.concatenate([np.zeros((1, n), int), eye, -eye, eye,
                        eye[iu] + eye[ju]]).T * one
    y = np.array([one] * (1 + 2 * n) + [one / 2] * n + [one] * len(iu))
    da, db, dphi = flow_rhs(bg, y, *_forms(bg.field, v))
    f = np.array(np.broadcast_arrays(*da.entries(), *db.entries(),
                                     *dphi.entries()))
    c = f[:, 0]
    plus, minus, at_half, pairs = np.split(f[:, 1:], [n, 2 * n, 3 * n], axis=1)
    lin = (plus - minus) / 2                 # (M0 + M1) e_i
    diag = (plus + minus) / 2 - c[:, None]   # Q(e_i, e_i)
    M1 = at_half - plus
    Q = np.zeros((n, n, n), dtype=f.dtype)
    Q[:, iu, ju] = Q[:, ju, iu] = (pairs - c[:, None] - lin[:, iu] - lin[:, ju]
                                   - diag[:, iu] - diag[:, ju]) / 2
    Q[:, np.arange(n), np.arange(n)] = diag
    return c, lin - M1, M1, Q


def _flow_operator(bg: FrameBackground):
    """:func:`_polarize` over a float64 copy of ``bg``: the float operator
    of the integrator, stated by :func:`flow_rhs` alone."""
    return _polarize(replace(
        bg, field=_F64,
        c=tuple(tuple(tuple(map(bg.field.to_float, row)) for row in plane)
                for plane in bg.c),
        W=GForm(_F64, 1, tuple(map(tuple, bg.W.to_floats()))),
        starF=GForm(_F64, 1, tuple(map(tuple, bg.starF.to_floats())))), 1.0)


def _stacked_rhs(c, M0, M1, Q):
    """``rhs(y, v) = c + M0 v + M1 v/y + Q(v, v)`` applied as one stacked
    matrix: ``c + G z`` with ``G = [M0 | M1 | Qp]`` and
    ``z = (v, v/y, v[I] v[J])``.

    ``Qp`` keeps the pair columns ``i <= j`` of the symmetric ``Q`` that are
    nonzero for some component, the off-diagonal ones doubled (126 of the 441
    pairs on the round sphere).  Exact over Fraction arrays; over float64 it
    sums in another order than the dense form, so it agrees to round-off.
    """
    I, J = np.triu_indices(_NV)
    QP = Q[:, I, J] * np.where(I == J, 1, 2)
    keep = np.any(QP != 0, axis=0)
    I, J = I[keep], J[keep]
    G = np.concatenate([M0, M1, QP[:, keep]], axis=1)

    def rhs(y, v):
        return c + G @ np.concatenate((v, v / y, v[I] * v[J]))
    return rhs


def _flow_rhs(bg: FrameBackground):
    """The integrator's right-hand side ``rhs(y, v)`` on packed float64
    states: :func:`_stacked_rhs` of :func:`_flow_operator`."""
    return _stacked_rhs(*_flow_operator(bg))


# Dormand-Prince 5(4) embedded pair.
_DP_C = [Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5),
         Fraction(8, 9), Fraction(1), Fraction(1)]
_DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561),
     Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247),
     Fraction(49, 176), Fraction(-5103, 18656)],
    [Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)],
]
_DP_B5 = _DP_A[6] + [Fraction(0)]
_DP_B4 = [Fraction(5179, 57600), Fraction(0), Fraction(7571, 16695),
          Fraction(393, 640), Fraction(-92097, 339200), Fraction(187, 2100),
          Fraction(1, 40)]

for _row, _c in zip(_DP_A, _DP_C):
    assert sum(_row, Fraction(0)) == _c, "tableau row/node mismatch"
assert sum(_DP_B5) == 1 and sum(_DP_B4) == 1, "tableau weights must sum to 1"

_DP_C_F = np.array([float(x) for x in _DP_C])
_DP_A_F = np.array([[float(x) for x in row] + [0.0] * (7 - len(row))
                    for row in _DP_A])
_DP_ERR_F = np.array([float(b5 - b4) for b5, b4 in zip(_DP_B5, _DP_B4)])
#: Stages 1..6 as ``(s, row of A, node)``; stage 0 is the last of the
#: previous step (first same as last).
_DP_STAGES = [(s, _DP_A_F[s, :s], _DP_C_F[s]) for s in range(1, 7)]


class StepUnderflow(RuntimeError):
    """The adaptive step fell below the resolvable floor (blow-up nearby).

    Carries the last accepted state as ``last_state``.
    """

    def __init__(self, last_state: FlowState):
        self.last_state = last_state
        super().__init__(
            f"step size underflow at y = {last_state.y!r}; "
            "the flow appears to leave the resolvable regime")


def _pack_state(bg, state: FlowState):
    y = float(state.y)
    W = np.array(bg.W.to_floats())
    a = np.array(state.A.to_floats()) - W
    b = np.array(state.phi.to_floats()) - np.eye(3) / y
    f = np.array(state.phi_y.to_floats())
    return np.concatenate([a.ravel(), b.ravel(), f])


def _unpack_states(W, ys, V):
    """Full-variable states from the packed states in the rows of ``V``, in
    one batched pass that overwrites ``V``; ``W`` is the raveled float
    connection form."""
    V[:, 0:9] += W
    V[:, 9:18] += np.eye(3).ravel() / np.array(ys)[:, None]
    return [FlowState(y, *_forms(_F64, row.tolist())) for y, row in zip(ys, V)]


def _unpack_state(W, y, v) -> FlowState:
    """Full-variable state from a packed one (see :func:`_unpack_states`)."""
    return _unpack_states(W, [float(y)], np.array([v], dtype=float))[0]


def integrate_flow(bg: FrameBackground, init: FlowState, y_target, tol=1e-10,
                   fixed_step=None, max_steps=1_000_000):
    """Integrate the flow from ``init.y`` to ``y_target``.

    Adaptive Dormand-Prince 5(4): a step is accepted when the embedded error
    estimate stays within the share of ``tol`` proportional to the step
    length, so the accumulated defect over the whole run is of order ``tol``.
    Works in the subtracted variables (the pole is removed analytically) and
    in either direction.  Each stage applies the polarized flow as one stacked
    matrix (:func:`_stacked_rhs`), and the last stage of an accepted step is
    the first of the next.  The accepted states are kept packed and turned
    into :class:`FlowState` objects in one pass on return.

    :param fixed_step: bypass step control and march with this step size
        (sign is inferred); used to expose the raw order of the method.
    :return: list of :class:`FlowState` at the accepted steps, including the
        initial and final states.
    :raises ValueError: for end points off ``0 < y < inf``, or a fixed step
        that is zero or not finite.
    :raises StepUnderflow: when no acceptable step above the floor exists
        (e.g. integrating into a finite-y blow-up); carries the last good
        state.
    """
    y0 = float(init.y)
    y1 = float(y_target)
    if not (0 < y0 < math.inf and 0 < y1 < math.inf):
        raise ValueError("the flow lives on finite y > 0")
    if fixed_step is not None and not 0 < abs(float(fixed_step)) < math.inf:
        raise ValueError("fixed_step must be a nonzero finite number")
    rhs = _flow_rhs(bg)
    W = np.ravel(bg.W.to_floats())
    v = _pack_state(bg, init)
    # accepted steps: their y and, in the rows of a doubling buffer, their
    # packed states; the FlowStates are built on return
    ys, vs = [], np.empty((64, _NV))
    span = abs(y1 - y0)
    direction = 1.0 if y1 > y0 else -1.0

    K = np.zeros((7, _NV))
    stages = [(s, a, node, K[:s]) for s, a, node in _DP_STAGES]

    y = y0
    h = direction * (span / 64.0 if fixed_step is None else abs(float(fixed_step)))
    floor = 1e-13 * max(1.0, abs(y0), abs(y1))
    K[0] = rhs(y, v)
    for _ in range(max_steps):
        if (y1 - y) * direction <= 1e-15 * span:
            return [init] + _unpack_states(W, ys, vs[:len(ys)])
        h = direction * min(abs(h), abs(y1 - y))
        # first same as last: _DP_B5 = _DP_A[6] + [0] and _DP_C[6] = 1, so the
        # last stage's input u is the step's result and K[6] the next K[0]
        for s, a, node, Ks in stages:
            u = v + h * (a @ Ks)
            K[s] = rhs(y + node * h, u)
        accepted = fixed_step is not None
        if not accepted:
            err = abs(h) * float(np.abs(_DP_ERR_F @ K).max())
            budget = tol * abs(h) / span
            accepted = math.isfinite(err) and err <= budget
        if accepted:
            y = y1 if abs(y1 - (y + h)) < 1e-15 * span else y + h
            v = u
            if len(ys) == len(vs):
                vs = np.concatenate([vs, np.empty_like(vs)])
            vs[len(ys)] = v
            ys.append(y)
            K[0] = K[6]
        if fixed_step is None:
            if accepted:
                grow = 0.9 * (budget / err) ** 0.25 if err > 0 else 5.0
                h = h * min(5.0, max(0.2, grow))
            else:
                shrink = 0.9 * (budget / err) ** 0.25 if math.isfinite(err) else 0.2
                h = h * min(0.9, max(0.1, shrink))
            if abs(h) < floor:
                raise StepUnderflow(_unpack_state(W, ys[-1], vs[len(ys) - 1])
                                    if ys else init)
    raise RuntimeError("step budget exceeded")


def trajectory_csv(traj) -> str:
    """CSV dump of a trajectory: y, 9 A-, 9 phi-, 3 phi_y-coefficients."""
    cols = (["y"]
            + [f"A{a}{i}" for a in range(1, 4) for i in range(1, 4)]
            + [f"phi{a}{i}" for a in range(1, 4) for i in range(1, 4)]
            + [f"phiy{a}" for a in range(1, 4)])
    lines = [",".join(cols)]
    for st in traj:
        row = [repr(float(st.y))]
        row += [repr(v) for r in st.A.to_floats() for v in r]
        row += [repr(v) for r in st.phi.to_floats() for v in r]
        row += [repr(v) for v in st.phi_y.to_floats()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Global integral constraints.
# ---------------------------------------------------------------------------


def _pairing(x: GForm, y: GForm):
    acc = None
    for ra, rb in zip(x.coeffs, y.coeffs):
        for va, vb in zip(ra, rb):
            acc = va * vb if acc is None else acc + va * vb
    return acc


@dataclass(frozen=True)
class GlobalReport:
    """Constant densities of the global integrals of an expansion.

    With ``Tr(t_a t_b) = -1/2 delta_ab`` the density of ``Tr(e ^ * x)`` is
    ``-1/2 tr(x)``, so

    * ``a21_trace`` = -1/2 tr(a_{2,1}) -- must vanish on every valid
      expansion over a closed background (checked, not assumed);
    * ``k_density`` = -tr(a_2), the density of 2 Tr(e ^ * a_2);
    * ``k_number`` = k_density x volume when the volume is known, else the
      density itself;
    * ``cs_density`` = -1/2 <W, *dW> - 1/6 <W, *[W,W]>, the Chern-Simons
      density of the background connection.
    """

    a21_trace: object
    k_density: object
    k_number: object
    cs_density: object
    volume: object
    a21_vanishes: bool

    def to_json(self) -> str:
        def fmt(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            return repr(float(v))

        doc = {
            "a21_trace": fmt(self.a21_trace),
            "k_density": fmt(self.k_density),
            "k_number": fmt(self.k_number),
            "cs_density": fmt(self.cs_density),
            "volume": fmt(self.volume),
            "a21_vanishes": self.a21_vanishes,
        }
        return json.dumps(doc, indent=2) + "\n"


def global_report(series: PhgSeries) -> GlobalReport:
    """Evaluate the global densities of an expansion through order 2."""
    if series.order < 2:
        raise ValueError("global report needs a series through order 2")
    bg = series.background
    if bg is None:
        raise ValueError("series has no background attached")
    field = series.field

    a21 = series.get_a(2, 1)
    a21_trace = a21.trace() * Fraction(-1, 2)
    k_density = -series.get_a(2, 0).trace()
    W = bg.W
    cs_density = (_pairing(W, star_d(bg, W)) * Fraction(-1, 2)
                  + _pairing(W, star_wedge(W, W)) * Fraction(-1, 6))
    if bg.volume is None:
        k_number = k_density
    elif isinstance(bg.volume, Fraction):
        k_number = k_density * bg.volume
    else:
        k_number = field.to_float(k_density) * float(bg.volume)
    return GlobalReport(
        a21_trace=a21_trace,
        k_density=k_density,
        k_number=k_number,
        cs_density=cs_density,
        volume=bg.volume,
        a21_vanishes=field.is_zero(a21_trace, field.scale(a21.entries())),
    )


# ---------------------------------------------------------------------------
# Series-vs-closed-form convergence.
# ---------------------------------------------------------------------------


def convergence_table(sol, orders=(2, 4, 6), y_lo=0.01, y_hi=0.1, samples=12,
                      series=None):
    """Max absolute deviation of the truncated expansion from the closed form.

    For each N the matched expansion is evaluated on a log grid; the
    deviation is taken in the subtracted fields (A - W, Phi - e/y, Phi_y),
    whose first omitted term is O(y^{N+1}), so the fitted log-log slope sits
    near N+1.

    Every deviation is computed in exact rational arithmetic (the only
    approximation is the 1e-60 Taylor truncation of e^{2y}), so the table
    measures truncation error alone -- there is no float noise floor, and the
    smallest entries (~1e-16 at N = 6) remain meaningful.  Per grid point,
    e^{2y} is summed once over one common denominator and shared by both
    profiles; the series part is a running sum over the sorted orders, added
    to the closed form once per N; each error is the float of the exact
    maximum.  ``orders`` may be unsorted or repeat an N.

    :param series: the matched expansion through ``max(orders)``, when the
        caller already has it; expanded here otherwise.
    :return: one row per N:
        ``{"N", "max_err", "slope", "errors": [(y, err), ...]}``.
        The slope of an exactly reproduced solution (flat) is NaN.
    """
    if isinstance(sol, str):
        sol = closed_solution(sol)
    bg = sol.background
    if not bg.field.exact:
        raise ValueError("the convergence oracle needs exact scalars")
    ser = series if series is not None else expand(
        bg, matched_free_data(sol.name, bg.field), max(orders))
    if not all(p == 0 for _, p in ser.addresses()):
        raise ValueError("the convergence oracle needs a log-free expansion")
    W = bg.W
    e = vierbein(bg.field)
    grid = [Fraction(float(v)) for v in np.geomspace(y_lo, y_hi, samples)]
    terms = sorted(((k, [*ser.get_a(k, p).entries(), *ser.get_b(k, p).entries(),
                         *ser.get_phi(k, p).entries()])
                    for k, p in ser.addresses()), key=lambda t: t[0])
    wanted = sorted(set(orders))
    errors = {N: [] for N in wanted}
    for yq in grid:
        u = _exp_fraction(2 * yq)
        closed = [*W.scale(1 - sol.fA.value_exact(yq, u)).entries(),
                  *e.scale(1 / yq - sol.fPhi.value_exact(yq, u)).entries(),
                  0, 0, 0]
        # the series part over small denominators, extended order by order;
        # it meets the closed form's huge denominators once per N
        partial, i = [0] * _NV, 0
        for N in wanted:
            while i < len(terms) and terms[i][0] <= N:
                k, coeffs = terms[i]
                w = yq ** k
                partial = [s + x * w if x else s for s, x in zip(partial, coeffs)]
                i += 1
            # float() is correctly rounded, hence monotone: this is the
            # float of the exact maximum
            errors[N].append((float(yq), max(abs(float(x + s))
                                             for x, s in zip(closed, partial))))
    rows = []
    for N in orders:
        errs = list(errors[N])
        pos = [(y, e_) for y, e_ in errs if e_ > 0.0]
        if len(pos) >= 2:
            ly = np.log([y for y, _ in pos])
            le = np.log([e_ for _, e_ in pos])
            slope = float(np.polyfit(ly, le, 1)[0])
        else:
            slope = float("nan")
        rows.append({
            "N": N,
            "max_err": max(e_ for _, e_ in errs),
            "slope": slope,
            "errors": errs,
        })
    return rows


def convergence_csv(rows) -> str:
    """CSV of a convergence table: one line per truncation order."""
    lines = ["N,max_err,slope"]
    for row in rows:
        lines.append(f"{row['N']},{row['max_err']!r},{row['slope']!r}")
    return "\n".join(lines) + "\n"
