"""Ground truth for the expansion engine.

Three instruments, of which only the flow integrator shares code with the
series recursion:

* **Closed-form solutions** on the round 3-sphere, hyperbolic space and the
  flat model, as scalar profiles multiplying the invariant frame forms:
  ``A = fA(y) W`` and ``Phi = fPhi(y) e`` with ``phi_y = 0``.
* **Exact Taylor oracles** for those profiles: ``P(e^{2y})`` and
  ``Q(e^{2y})`` as integer exponential sums, divided by an integer
  recurrence, one Fraction per coefficient, no engine code involved.
* **A flow integrator**: the three flow equations as a 21-component ODE system in
  ``(a, b, phi_y) = (A - W, Phi - e/y, Phi_y)``, ``c + [M0 | M1 | Qp] (v, v/y, v_i v_j)``
  on one list of the integer columns the series residual reads too: a background's
  ``_columns``, compiled by calling the solver's frame operators, then ``geometry._M1_QP``,
  built at import from ``M1`` and ``4Q`` (compiled from the kernels' ``_TABLES``).  ``flow_rhs``
  reads it sparsely in any field, exact over rationals, and an embedded Dormand-Prince
  5(4) pair as one stacked float64 matrix ``G``, each entry rounded once.  A
  :class:`FlowState` is one float64 row of the full ``(A, phi, phi_y)``.

The convergence table compares the exact expansion with the closed forms in
rational arithmetic (e^{2y} in fixed point), as integer numerators over one common
denominator per grid point, with one correctly rounded division per truncation order.

Convention lock-in: the orientation and the curvature sign of the frame
backgrounds are pinned by requiring the closed-form profiles below to solve
the flow equations, exactly at a ``Fraction`` ``y`` (see ``flow_residual``); every
other test in the package inherits these choices.  Sources that state a profile over a
frame normalized as ``[t_a, t_b] = 2 eps_{abc} t_c`` are converted to the
internal ``eps`` convention when the solution object is built, so the stored
coefficients are already internal.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GForm, star_wedge, vierbein
from .geometry import _BLOCKS, _I, _J, _M1_QP, FrameBackground, _json_scalar, builtin, star_d
from .scalars import RationalField, context
from .series import FreeData, PhgSeries, evaluate as evaluate_series, expand

__all__ = [
    "ProfileSolution", "FlowState", "GlobalReport", "StepUnderflow",
    "closed_solution", "closed_solution_names", "matched_free_data",
    "taylor_profile", "profile_state", "state_from_series", "flow_rhs",
    "flow_residual", "integrate_flow", "trajectory_csv", "global_report",
    "convergence_table", "convergence_csv",
]


# ---------------------------------------------------------------------------
# Exact exponentials.
# ---------------------------------------------------------------------------


def _exp_fraction(x: Fraction, bits: int = None) -> Fraction:
    """e^x truncated after the x^40 term, as a Fraction.

    For 0 <= x <= 1 the dropped tail is below 2e-50 of e^x -- far under
    anything the convergence table can resolve.  The 41 terms are summed as
    integers over the common denominator 40! d^40 of ``x = n/d``; given ``bits``, each
    term is floored to 2^-(bits+8) and the sum read as ``m / 2^bits``, within 2^(1-bits)
    of the exact sum for |x| <= 1 (each floor's error shrinks by |x|/k in the next).
    """
    # exactly, the k-th numerator n^k d^(40-k) 40!/k! divides out of the last
    n, d = x.numerator, x.denominator
    den = math.factorial(40) * d ** 40 if bits is None else 1 << bits + 8
    term = acc = den
    for k in range(1, 41):
        term = term * n // (d * k)
        acc += term
    return Fraction(acc, den) if bits is None else Fraction(acc >> 8, 1 << bits)


# ---------------------------------------------------------------------------
# Scalar profiles.
# ---------------------------------------------------------------------------


class InverseY:
    """The pole profile ``1/y``; exact for exact arguments."""

    def value(self, y):
        return 1 / y

    def ratio_exact(self, y: Fraction, u):
        return y.denominator, y.numerator

    def derivative(self, y):
        return -1 / (y * y)

    def taylor(self, n):
        return -1, [Fraction(1)] + [Fraction(0)] * n


class ExpRational:
    """``P(u)/Q(u)`` with ``u = e^{2y}``, P and Q polynomials with rational
    coefficients (ascending).  Values and derivatives are analytic (``du/dy = 2u``),
    one Horner in the argument's number type: float64 at a float ``y``, exact at a
    ``Fraction`` ``y`` on the u :meth:`ratio_exact` reads (2e-50 relative for
    0 <= y <= 1/2), so ``value(y) == Fraction(*ratio_exact(y, _exp_fraction(2 * y)))``.
    Where 1 falls below the ulp of u (a float ``2y >= 53 ln 2``), the Horner runs in
    ``t = e^{-2y}`` on P and Q reversed to their common degree.  Taylor coefficients
    are exact."""

    def __init__(self, P, Q):
        self.P = [Fraction(c) for c in P]
        self.Q = [Fraction(c) for c in Q]

    def _at(self, y):
        """``(num, s, x, P, Q)``: ``y``'s number type, ``Fraction`` or float, and the
        quotient as ``P(x)/Q(x)`` with ``dx/dy = s x``; x is u, 1 for a constant quotient,
        which does not read u (e^{2y} overflows float64 past y = 354.89), or t."""
        num, m = (Fraction if isinstance(y, Fraction) else float), max(len(self.P), len(self.Q))
        if m == 1:
            return num, 2, num(1), self.P, self.Q
        if num is Fraction:
            return num, 2, _exp_fraction(2 * y), self.P, self.Q
        if 2.0 * float(y) < 53 * math.log(2):
            return num, 2, math.exp(2.0 * float(y)), self.P, self.Q
        return (num, -2, math.exp(-2.0 * float(y)),
                *([0] * (m - len(p)) + p[::-1] for p in (self.P, self.Q)))

    @staticmethod
    def _polyval(poly, u, num):
        acc = num(0)
        for c in reversed(poly):
            acc = acc * u + num(c)
        return acc

    @staticmethod
    def _polyder(poly):
        return [k * c for k, c in enumerate(poly)][1:] or [Fraction(0)]

    def value(self, y):
        num, _, u, P, Q = self._at(y)
        return self._polyval(P, u, num) / self._polyval(Q, u, num)

    def ratio_exact(self, y: Fraction, u):
        """Value as an unnormalized integer pair ``(num, den)`` at ``u``, e^{2y}'s
        rational Taylor truncation (2e-50 relative for 0 <= y <= 1/2), which
        callers evaluating several profiles at one ``y`` sum once."""
        # P and Q homogenized to degree m in u = n/d, over the lcm D of their
        # denominators, are integers
        n, d, m = u.numerator, u.denominator, max(len(self.P), len(self.Q)) - 1

        def homogenized(poly):
            D = math.lcm(*(c.denominator for c in poly))
            return sum(c.numerator * (D // c.denominator) * n**i * d**(m - i)
                       for i, c in enumerate(poly) if c), D
        (p, dp), (q, dq) = homogenized(self.P), homogenized(self.Q)
        return p * dq, q * dp

    def derivative(self, y):
        num, s, u, P, Q = self._at(y)
        p = self._polyval(P, u, num)
        q = self._polyval(Q, u, num)
        dp = self._polyval(self._polyder(P), u, num)
        dq = self._polyval(self._polyder(Q), u, num)
        return s * u * (dp * q - p * dq) / (q * q)

    def taylor(self, n):
        """Laurent coefficients ``(offset, coeffs)``: the value is ``sum
        coeffs[i] y^(offset + i)``, i = 0..n, and ``-offset`` is the order
        to which ``Q(e^{2y})`` vanishes at y = 0 (at most its degree).

        ``P(e^{2y}) = sum_i p_i e^{2iy}``, so with ``D_P`` the lcm of P's
        denominators, ``M! D_P`` times its ``y^k`` coefficient is the integer
        ``A_k = sum_i D_P p_i (2i)^k M!/k!``; likewise ``B_k`` over ``D_Q``.
        With ``b = B_v`` the first nonzero ``B_k``, the i-th coefficient of
        the quotient is ``c_i / b^(i+1)`` (times ``D_Q / D_P``), where
        ``c_i = A_i b^i - sum_(j<i) c_j b^(i-j-1) B_(v+i-j)`` in integers;
        one ``Fraction`` is built per coefficient returned."""
        M = n + len(self.Q)  # the orders v + i <= M the quotient reads

        def scaled(poly):  # M! D [y^k] poly(e^{2y}) for k = 0..M, and D
            D = math.lcm(*(c.denominator for c in poly))
            ints = [(c.numerator * (D // c.denominator), 2 * i) for i, c in enumerate(poly) if c]
            return [sum(p * w**k for p, w in ints) * math.perm(M, M - k)
                    for k in range(M + 1)], D
        (A, dp), (B, dq) = scaled(self.P), scaled(self.Q)
        v = next((k for k, x in enumerate(B) if x), None)
        if v is None:
            raise ZeroDivisionError("series division by zero")
        b, c = B[v], []
        for i in range(n + 1):
            c.append(A[i] * b**i - sum(c[j] * b ** (i - j - 1) * B[v + i - j] for j in range(i)))
        return -v, [Fraction(x * dq, b ** (i + 1) * dp) for i, x in enumerate(c)]


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


#: name -> (fA, fPhi, builtin background, ``c-`` of the matched free data as a
#: multiple of ``e``).  Only the round sphere needs a nonzero ``c-``: its
#: ``a_2 = -2/3 e`` sits in the free V- slot.
_SOLUTIONS = {
    # fA = 6u / (u^2 + 4u + 1), fPhi = 6u(u+1) / ((u^2+4u+1)(u-1))
    "s3": (ExpRational([0, 6], [1, 4, 1]), ExpRational([0, 6, 6], [-1, -3, 3, 1]),
           "round-s3", Fraction(-2, 3)),
    # fA = 1 (the connection stays Levi-Civita), fPhi = coth y = (u+1)/(u-1);
    # transcribed over [t_a, t_b] = 2 eps_abc t_c, stored in the eps convention
    "hyperbolic": (ExpRational([1], [1]), ExpRational([1, 1], [-1, 1]), "hyperbolic-h3", 0),
    "flat": (ExpRational([1], [1]), InverseY(), "flat", 0),
}


def closed_solution_names():
    return list(_SOLUTIONS)


def _registered(name: str):
    """The ``_SOLUTIONS`` row of ``name``; ``ValueError`` for a name not in it."""
    if name not in _SOLUTIONS:
        raise ValueError(f"no closed-form solution registered under {name!r}; "
                         f"known: {', '.join(_SOLUTIONS)}")
    return _SOLUTIONS[name]


def closed_solution(name: str, field=None) -> ProfileSolution:
    """Look up a registered closed-form solution by name, on the background
    :func:`~nahmpole.geometry.builtin` gives: the frame another holder keeps alive."""
    fA, fPhi, background, _ = _registered(name)
    return ProfileSolution(name, fA, fPhi, builtin(background, field=field))


def matched_free_data(name: str, field=None) -> FreeData:
    """The free data whose expansion reproduces a closed-form solution: its
    ``c-`` from ``_SOLUTIONS``, the rest zero.  ``field`` defaults to
    rationals, as for the solution's background, which is not built here.

    :raises ValueError: for a name with no registered solution.
    """
    c_minus, field = _registered(name)[3], field or RationalField()
    return (FreeData(field=field, c_minus=vierbein(field).scale(c_minus)) if c_minus
            else FreeData.zero(field))


def taylor_profile(sol: ProfileSolution, N: int):
    """Exact rational Taylor coefficients of a solution's profiles.

    :param N: highest y-power, at most 12 (the practical exactness window).
    :return: ``(fA, fPhi)`` where ``fA[k]`` is the y^k coefficient
        (k = 0..N) and ``fPhi[j]`` the y^(j-1) coefficient (so ``fPhi[0]``
        multiplies the 1/y pole).
    :raises ValueError: for N out of range or a profile whose Laurent
        offsets are not exactly ``(0, -1)``: an fA with a pole, or an fPhi
        that is regular or has a pole of higher order.
    """
    if not 0 <= N <= 12:
        raise ValueError("taylor_profile supports 0 <= N <= 12")
    (off_a, fa), (off_p, fp) = sol.fA.taylor(N), sol.fPhi.taylor(N + 1)
    if (off_a, off_p) != (0, -1):
        raise ValueError(f"profile of {sol.name!r} falls outside the (fA regular, "
                         "fPhi simple-pole) layout")
    return fa, fp


# ---------------------------------------------------------------------------
# Flow states and the exact right-hand side.
# ---------------------------------------------------------------------------


#: Size of the packed state ``v = (a, b, phi_y)``: 9 + 9 + 3 coefficients.
_NV = 21
#: The largest y where the table's rational e^{2y} is exact to 2e-50 relative.
_Y_EXACT_MAX = 0.5
#: The raveled vierbein ``e``: the pole of ``Phi`` is ``e/y``.
_E = np.eye(3).ravel()
_IJ = np.array(_I), np.array(_J)  # the pairs of ``4Q`` as :func:`_stacked_rhs`'s indices
#: Per slot u, ``(w, column)`` of each pair ``(u, w)`` of ``4Q`` in ``_M1_QP``, in its order.
_PAIRS_OF = [[(w, c) for i, w, c in zip(_I, _J, _M1_QP[_NV:]) if i == u] for u in range(_NV)]
_VIEWS = RationalField()  # the field of FlowState's views: exact forms of float64 entries


@dataclass(frozen=True, eq=False)
class FlowState:
    """One point on a flow trajectory: ``y > 0`` and the read-only float64
    row ``v`` of the full variables ``(A, phi, phi_y)``, 9 + 9 + 3 entries
    (``phi`` carries the 1/y pole).  Any other row is copied into one.

    ``A``, ``phi`` (degree 1) and ``phi_y`` (degree 0) are exact
    :class:`GForm` views of the blocks of ``v``, built when read, whose
    entries are the row's float64 values as they are; that of a block with
    an inf or a NaN, which no exact form holds (a fixed-step integration into
    a blow-up), raises ``ValueError`` naming it.  States compare by identity.
    """

    y: float
    v: np.ndarray

    def __post_init__(self):
        if not (type(self.v) is np.ndarray and self.v.dtype == float
                and not self.v.flags.writeable):
            object.__setattr__(self, "v", np.array(self.v, dtype=float))
            self.v.flags.writeable = False

    def _view(self, r):
        try:
            return GForm.from_entries(_VIEWS, self.v[r].tolist())
        except (OverflowError, ValueError):  # as_integer_ratio of an inf or a NaN
            bad = next(x for x in self.v[r].tolist() if not math.isfinite(x))
            raise ValueError(f"flow state at y = {self.y!r} has the non-finite "
                             f"entry {bad!r}") from None

    A, phi, phi_y = (property(lambda self, r=r: self._view(r)) for r in _BLOCKS)


def profile_state(sol: ProfileSolution, y) -> FlowState:
    """Evaluate a closed-form solution into a :class:`FlowState`."""
    y = float(y)
    W = np.ravel(sol.background.W.to_floats())
    return FlowState(y, np.concatenate([W * sol.fA.value(y), _E * sol.fPhi.value(y),
                                        np.zeros(3)]))


def _pole_finite(y: float) -> float:
    """``y``, or ``ValueError`` when its pole ``e/y`` overflows float64."""
    if y and math.isinf(1 / y):
        raise ValueError(f"the pole e/y overflows float64 at y = {y!r}")
    return y


def state_from_series(series: PhgSeries, y, N: int = None) -> FlowState:
    """Evaluate a truncated expansion into a :class:`FlowState` (float); a ``y``
    whose pole ``e/y`` overflows float64 raises ``ValueError``."""
    A, phi, phi_y = evaluate_series(series, _pole_finite(float(y)), N)
    return FlowState(float(y), np.concatenate([np.ravel(A), np.ravel(phi), phi_y]))


def _rhs(bg: FrameBackground, y, v):
    """``c + [M0 | M1 | Qp] z`` on the 21 scalars ``v``, ``z = (v, v/y, v[I] v[J])``, from
    ``*F_w`` into one list, under the field's context: the columns :func:`_flow_operator`
    makes dense, read sparsely in their order, each nonzero ``z[k]`` over its column's
    denominator: only those of the nonzero slots of ``v`` and of their pairs are visited."""
    out = [bg.field.zero] * 9 + list(bg.starF.entries()) + [bg.field.zero] * 3
    nonzero = [u for u in range(_NV) if v[u]]
    with context(bg.field):
        z = [(bg._columns[u], v[u]) for u in nonzero] + [(_M1_QP[u], v[u] / y) for u in nonzero]
        z += [(column, v[u] * v[w]) for u in nonzero for w, column in _PAIRS_OF[u] if v[w]]
        for (rows, den), x in z:
            if x:
                x /= den
                for o, n in rows:
                    out[o] += n * x
    return out


def flow_rhs(bg: FrameBackground, y, a: GForm, b: GForm, phi_y: GForm):
    """Right-hand side of the flow equations in ``A = W + a``, ``Phi = e/y + b``
    (the poles cancel in ``Phi ^ Phi``): :func:`_rhs` on the entries, as three
    forms; exact over exact scalars."""
    out = _rhs(bg, y, [*a.entries(), *b.entries(), *phi_y.entries()])
    return tuple(GForm.from_entries(bg.field, out[r.start:r.stop]) for r in _BLOCKS)


def flow_residual(sol: ProfileSolution, y):
    """Max-abs residuals ``(ra, rb, rphi)`` of the three flow equations on a closed
    form at ``y``, by :func:`_rhs` on its 21 scalars, with analytic derivatives: float
    round-off at a float ``y``; exactly ``(0, 0, 0)`` at a ``Fraction`` ``y``: the flow is
    autonomous in ``(A, Phi)``, so it holds identically in the rational u of the profiles,
    :meth:`ExpRational.ratio_exact`'s (2e-50 of e^{2y} relative for 0 <= y <= 1/2)."""
    bg, one = sol.background, (Fraction(1) if isinstance(y, Fraction) else 1.0)
    W, e, zeros = bg.W.entries(), vierbein(bg.field).entries(), [0 * one] * 3
    fa, fphi = sol.fA.value(y) - one, sol.fPhi.value(y) - one / y
    da, db = sol.fA.derivative(y), sol.fPhi.derivative(y) + one / (y * y)
    got = _rhs(bg, y, [w * fa for w in W] + [i * fphi for i in e] + zeros)
    r = [lhs - g for lhs, g in zip([w * da for w in W] + [i * db for i in e] + zeros, got)]
    return tuple(max(map(abs, r[rows.start:rows.stop])) for rows in _BLOCKS)


# ---------------------------------------------------------------------------
# Numeric integration of the flow.
# ---------------------------------------------------------------------------

def _flow_operator(bg: FrameBackground):
    """The integrator's ``(c, G)`` in float64, ``rhs(y, v) = c + G (v, v/y, v[I] v[J])``:
    ``*F_w`` in the ``b`` slots of ``c``, and ``G = [M0 | M1 | Qp]``, the background's
    frame columns and ``geometry._M1_QP``, which :func:`_rhs` reads sparsely, made
    dense.  Each entry ``n / den`` is rounded once."""
    columns = [bg._columns[u] for u in range(_NV)] + _M1_QP
    c, G = np.zeros(_NV), np.zeros((_NV, len(columns)))
    c[_BLOCKS[1]] = bg.starF.entries()
    for k, (rows, den) in enumerate(columns):
        for o, n in rows:
            G[o, k] = n / den
    return c, G


def _stacked_rhs(c, G):
    """``rhs(y, v) = c + G z`` with ``G = [M0 | M1 | Qp]`` and ``z = (v, v/y, v[I] v[J])``,
    the pairs ``(I, J)`` of ``geometry._I`` and ``_J``: ``c + M0 v + M1 v/y + Q(v, v)`` as one
    stacked matrix.  Exact over Fraction arrays; over float64 it sums in another order
    than the dense form, so it agrees to round-off.
    ``z`` is made once, in ``G``'s dtype, and filled in place, so ``rhs`` is not
    reentrant; a ``v`` that is ``rhs.v``, its first slots, is not copied (any other
    is, and left unchanged).  ``y`` enters ``v/y`` from a 0-d buffer of ``G``'s dtype
    (object over Fractions, so ``y`` stays exact).  ``G.dot`` is ``np.dot``'s ``dgemv``
    without its Python dispatcher frame.  ``rhs(y, v, out)`` writes into ``out``, else
    returns a new array.
    """
    I, J = _IJ
    z, yb = np.empty(G.shape[1], dtype=G.dtype), np.empty((), dtype=G.dtype)
    zv, zy, zp = z[:_NV], z[_NV:2 * _NV], z[2 * _NV:]
    dot, divide, multiply, add = G.dot, np.divide, np.multiply, np.add

    def rhs(y, v, out=None):
        if v is not zv:
            zv[:] = v
        yb[()] = y
        divide(zv, yb, zy)
        multiply(zv[I], zv[J], zp)
        return add(c, dot(z, out), out)
    rhs.v = zv
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


#: The most steps, accepted or rejected, one run may take.
_MAX_STEPS = 1_000_000


class StepUnderflow(RuntimeError):
    """The adaptive step fell below the resolvable floor (blow-up nearby), or
    the error budget fell below float64 round-off (``roundoff``).

    Carries the last accepted state as ``last_state``.
    """

    def __init__(self, last_state: FlowState, roundoff: bool = False):
        self.last_state = last_state
        super().__init__(
            "step size underflow: the error estimate is below float64 round-off "
            f"at y = {last_state.y!r}" if roundoff else
            f"step size underflow at y = {last_state.y!r}; "
            "the flow appears to leave the resolvable regime")


def _pack_state(bg, state: FlowState):
    """The packed state ``(a, b, phi_y)``: the row less ``(W, e/y, 0)``."""
    W = np.ravel(bg.W.to_floats())
    return state.v - np.concatenate([W, _E / float(state.y), np.zeros(3)])


def _unpack_states(W, ys, V):
    """States of the packed rows of ``V``: one batched pass adds ``W`` (raveled)
    and ``e/y`` in place and leaves ``V`` read-only: rows :class:`FlowState` keeps
    uncopied.  The ``phi_y`` block gets no addend, so a ``-0.0`` there stays ``-0.0``."""
    V[:, 0:9] += W
    V[:, 9:18] += _E / np.array(ys)[:, None]
    V.flags.writeable = False
    return [FlowState(y, row) for y, row in zip(ys, V)]


def integrate_flow(bg: FrameBackground, init: FlowState, y_target, tol=1e-10,
                   fixed_step=None):
    """Integrate the flow from ``init.y`` to ``y_target``.

    Adaptive Dormand-Prince 5(4): a step is accepted when the embedded error
    estimate stays within the share of ``tol`` proportional to the step
    length, so the accumulated defect over the whole run is of order ``tol``.
    Works in the subtracted variables (the pole is removed analytically) and
    in either direction.  Each stage writes its input straight into ``rhs.v``,
    the state slots of the stacked operator (:func:`_stacked_rhs`, filled from
    the term tables' compiled rows), and its slope into a row of a stage
    buffer; the last stage of an accepted step is the first of the next.  The
    stage and error sums are bound ``ndarray.dot`` calls, ``np.dot``'s ``dgemv``
    without its Python dispatcher frame, and ``h`` enters them from a 0-d buffer.
    An accepted state is written once, into its row of a doubling buffer; on
    return ``W`` and ``e/y`` are added to those rows in one batched pass, and each
    row becomes the ``v`` of a :class:`FlowState`.

    :param fixed_step: bypass step control and march with this step size
        (sign is inferred); used to expose the raw order of the method.
    :return: list of :class:`FlowState` at the accepted steps, including the
        initial and final states.
    :raises ValueError: for end points off ``0 < y < inf`` or where ``e/y`` overflows,
        a ``tol`` off ``0 < tol < inf``, or a fixed step that is zero or not finite.
    :raises StepUnderflow: when no acceptable step above the floor exists
        (e.g. integrating into a finite-y blow-up), or when a step is rejected
        while the error budget per unit length, ``tol / span``, is below ``eps
        * ||f||_inf``, the float64 round-off of the error sum, which no step
        size can then meet but by chance; carries the last good state.
    :raises RuntimeError: after :data:`_MAX_STEPS` steps short of ``y_target``.
    """
    y0, y1 = _pole_finite(float(init.y)), _pole_finite(float(y_target))
    if not (0 < y0 < math.inf and 0 < y1 < math.inf):
        raise ValueError("the flow lives on finite y > 0")
    if not 0 < float(tol) < math.inf:
        raise ValueError("tol must be a positive finite number")
    if fixed_step is not None and not 0 < abs(float(fixed_step)) < math.inf:
        raise ValueError("fixed_step must be a nonzero finite number")
    rhs = _flow_rhs(bg)
    W = np.ravel(bg.W.to_floats())
    v = _pack_state(bg, init)
    # accepted steps: their y and, in the rows of a doubling buffer, their
    # packed states, which become the returned rows
    ys, vs = [], np.empty((64, _NV))
    span = abs(y1 - y0)
    direction = 1.0 if y1 > y0 else -1.0

    K = np.zeros((7, _NV))
    stages = [(a.dot, node, K[:s], K[s]) for s, a, node in _DP_STAGES]
    u, du, err_row = rhs.v, np.empty(_NV), np.empty(_NV)
    multiply, add, err_dot, hb = np.multiply, np.add, _DP_ERR_F.dot, np.empty(())

    y = y0
    h = direction * (span / 64.0 if fixed_step is None else abs(float(fixed_step)))
    floor = 1e-13 * max(1.0, abs(y0), abs(y1))
    rhs(y, v, K[0])
    # an overflow in a stage makes err non-finite, which rejects the step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            if (y1 - y) * direction <= 1e-15 * span:
                return [init] + _unpack_states(W, ys, vs[:len(ys)])
            hb[()] = h = direction * min(abs(h), abs(y1 - y))
            # first same as last: _DP_B5 = _DP_A[6] + [0] and _DP_C[6] = 1, so the
            # last stage's input u is the step's result and K[6] the next K[0]
            for a_dot, node, Ks, Kout in stages:
                multiply(hb, a_dot(Ks, du), du)
                rhs(y + node * h, add(v, du, u), Kout)
            accepted = fixed_step is not None
            if not accepted:
                np.abs(err_dot(K, err_row), err_row)
                err = abs(h) * float(np.maximum.reduce(err_row))
                budget = tol * abs(h) / span
                accepted = math.isfinite(err) and err <= budget
            if accepted:
                y = y1 if abs(y1 - (y + h)) < 1e-15 * span else y + h
                if len(ys) == len(vs):
                    vs = np.concatenate([vs, np.empty_like(vs)])
                v = vs[len(ys)]
                v[:] = u
                ys.append(y)
                K[0] = K[6]
            if fixed_step is None:
                if accepted:
                    grow = 0.9 * (budget / err) ** 0.25 if err > 0 else 5.0
                    h = h * min(5.0, max(0.2, grow))
                else:
                    shrink = 0.9 * (budget / err) ** 0.25 if math.isfinite(err) else 0.2
                    h = h * min(0.9, max(0.1, shrink))
                roundoff = not accepted and tol / span < (
                    sys.float_info.epsilon * float(np.abs(K[0]).max()))
                if roundoff or abs(h) < floor:
                    raise StepUnderflow(_unpack_states(W, ys[-1:], vs[len(ys) - 1:len(ys)])[0]
                                        if ys else init, roundoff)
    raise RuntimeError("step budget exceeded")


def trajectory_csv(traj) -> str:
    """CSV dump of a trajectory: y, 9 A-, 9 phi-, 3 phi_y-coefficients."""
    cols = (["y"]
            + [f"A{a}{i}" for a in range(1, 4) for i in range(1, 4)]
            + [f"phi{a}{i}" for a in range(1, 4) for i in range(1, 4)]
            + [f"phiy{a}" for a in range(1, 4)])
    lines = [",".join(cols)] + [",".join(map(repr, [float(st.y), *st.v.tolist()]))
                                for st in traj]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Global integral constraints.
# ---------------------------------------------------------------------------


def _pairing(x: GForm, y: GForm):
    terms = [va * vb for va, vb in zip(x.entries(), y.entries())]
    return sum(terms[1:], terms[0])  # from the first term: 0 + Decimal('-0') is +0


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
        doc = {name: _json_scalar(getattr(self, name)) for name in
               ("a21_trace", "k_density", "k_number", "cs_density", "volume")}
        doc["a21_vanishes"] = self.a21_vanishes
        return json.dumps(doc, indent=2) + "\n"


def global_report(series: PhgSeries) -> GlobalReport:
    """Evaluate the global densities of an expansion through order 2."""
    if series.order < 2:
        raise ValueError("global report needs a series through order 2")
    bg = series.background
    if bg is None:
        raise ValueError("series has no background attached")
    field = series.field

    a21, W = series.get_a(2, 1), bg.W
    minus_half, minus_sixth = (field.from_fraction(Fraction(-1, q)) for q in (2, 6))
    with context(field):
        a21_trace = a21.trace() * minus_half
        k_density = -series.get_a(2, 0).trace()
        cs_density = (_pairing(W, star_d(bg, W)) * minus_half
                      + _pairing(W, star_wedge(W, W)) * minus_sixth)
        if bg.volume is None:
            k_number = k_density
        elif isinstance(bg.volume, Fraction):
            k_number = k_density * field.from_fraction(bg.volume)
        else:
            k_number = float(k_density) * float(bg.volume)
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

    Every deviation is computed in rational arithmetic, so the table measures
    truncation error alone -- there is no float noise floor, and the smallest
    entries (~1e-16 at N = 6) remain meaningful.  Two approximations enter, both in
    e^{2y}: its Taylor truncation, below 2e-50 for y <= 1/2, and its fixed-point sum
    (:func:`_exp_fraction`), whose error the ``bits`` rule keeps 2^-181 below the
    deviation scale y^(K+1) of the top order K.  At
    each grid point ``y = n/d``, e^{2y} is summed once and each profile is
    one unnormalized ``ratio_exact`` pair; the deviations are integer
    numerators over one common denominator, the series terms added order by
    order, and each error is one correctly rounded ``int / int`` of the
    largest numerator.  ``orders`` may be unsorted or repeat an N.

    :param series: the matched expansion through ``max(orders)``, when the
        caller already has it; expanded here otherwise.
    :return: one row per N:
        ``{"N", "max_err", "slope", "errors": [(y, err), ...]}``.
        The slope of an exactly reproduced solution (flat) is NaN.
    :raises ValueError: before any work, for float scalars, ``y_lo`` or
        ``y_hi`` off ``0 < y <= 1/2``, ``samples < 1``, empty ``orders``, or
        a ``series`` short of ``max(orders)`` or on another background.
    """
    if isinstance(sol, str):
        sol = closed_solution(sol)
    bg = sol.background
    if not bg.field.exact:
        raise ValueError("the convergence oracle needs exact scalars")
    for name, y in (("y_lo", y_lo), ("y_hi", y_hi)):
        if not 0 < y <= _Y_EXACT_MAX:
            raise ValueError(f"{name} = {y} is off 0 < y <= {_Y_EXACT_MAX}: the grid "
                             "is logarithmic and the rational e^(2y) exact up to there")
    if samples < 1 or len(orders) == 0:
        raise ValueError("the table needs samples >= 1 and at least one order")
    if series is not None and series.order < max(orders):
        raise ValueError(f"the series stops at N={series.order}, short of "
                         f"N={max(orders)}")
    if series is not None and series.background_name != bg.name:
        raise ValueError(f"the series was expanded on {series.background_name!r}, "
                         f"not on {bg.name!r}")
    ser = series if series is not None else expand(
        bg, matched_free_data(sol.name, bg.field), max(orders))
    if not all(p == 0 for _, p in ser.addresses()):
        raise ValueError("the convergence oracle needs a log-free expansion")
    W, e = bg.W.entries(), vierbein(bg.field).entries()
    grid = [Fraction(float(v)) for v in np.geomspace(y_lo, y_hi, samples)]
    terms = sorted(((k, [*ser.get_a(k, p).entries(), *ser.get_b(k, p).entries(),
                         *ser.get_phi(k, p).entries()])
                    for k, p in ser.addresses()), key=lambda t: t[0])
    L = math.lcm(*(x.denominator for x in [*W, *e, *(x for _, cs in terms for x in cs)]))
    W, e = ([x.numerator * (L // x.denominator) for x in xs] for xs in (W, e))
    terms = [(k, [x.numerator * (L // x.denominator) for x in cs]) for k, cs in terms]
    wanted = sorted(set(orders))
    K = wanted[-1]
    errors = {N: [] for N in wanted}
    for yq in grid:
        # bits keeps u's error, grown ~1/y^2 by the pole of P/Q at u = 1, 2^-181 below y^(K+1)
        n, d = yq.numerator, yq.denominator
        u = _exp_fraction(2 * yq, 181 + (K + 3) * (d.bit_length() - n.bit_length() + 1))
        (pA, qA), (pP, qP) = sol.fA.ratio_exact(yq, u), sol.fPhi.ratio_exact(yq, u)
        # over den = L d^K qA n qP: W (1 - pA/qA), e (d/n - pP/qP), then each
        # series term x (n/d)^k, added order by order
        q, dK = qA * n * qP, d ** K
        den = abs(L * dK * q)
        cA, cP = (qA - pA) * n * qP * dK, (d * qP - n * pP) * qA * dK
        partial, i = [w * cA for w in W] + [x * cP for x in e] + [0] * 3, 0
        for N in wanted:
            while i < len(terms) and terms[i][0] <= N:
                k, coeffs = terms[i]
                w = n ** k * d ** (K - k) * q
                partial = [s + x * w if x else s for s, x in zip(partial, coeffs)]
                i += 1
            # int / int rounds correctly, hence monotonically: the float of the max
            errors[N].append((float(yq), max(map(abs, partial)) / den))
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
        rows.append({"N": N, "max_err": max(e_ for _, e_ in errs), "slope": slope,
                     "errors": errs})
    return rows


def convergence_csv(rows) -> str:
    """CSV of a convergence table: one line per truncation order."""
    lines = ["N,max_err,slope"]
    for row in rows:
        lines.append(f"{row['N']},{row['max_err']!r},{row['slope']!r}")
    return "\n".join(lines) + "\n"
