"""Locally homogeneous 3-manifold backgrounds in an orthonormal frame.

A background is specified by frame structure constants ``c^k_ij`` (meaning
``de_k = -1/2 c^k_ij e_i ^ e_j``), from which everything else is computed
exactly: the Levi-Civita frame coefficients by the Koszul formula, their su(2)
connection form ``W``, the dual curvature ``*F_omega`` and its eigenspace
split, and the Einstein test ``(*F_omega)^+ = 0``.

Only frame-constant data is admitted, so every differential operator in the
package reduces to finite-dimensional exact linear algebra.  The linear maps
of the flow, ``*d_omega``, ``d_omega`` and ``d_omega^*``, are the bilinear
kernels of :mod:`nahmpole.algebra` with ``W`` as one argument, plus a term
in ``c``, summed in integers over exact scalars (:func:`_frame_terms`); a
float background takes the scalar formulas of :mod:`nahmpole._float`.

The flow equations are stated once, as data beside those operators: the
term tables ``POLE_TERMS``, ``FRAME_TERMS`` and ``PAIR_TERMS``, compiled
once, in integers, to the rows that ``series.residual_at``,
``oracle.flow_rhs`` and the flow integrator read.

Curvature sign under the package conventions: constant-curvature models come
out as ``*F_omega = C e`` with ``C = -s^2`` for the round 3-sphere of scale
``s`` (structure constants ``2 s eps``) and ``C = +s^2`` for hyperbolic space.
The sign is locked by the closed-form flow solutions: the round-sphere
solution's linear coefficient ``b_1 = (1/3)(*F_omega)^- = -(1/3) e`` only
reproduces the known profile with this orientation, and the residual test in
:mod:`nahmpole.oracle` pins it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction

from . import _float
from ._float import connection_form, einstein_undecided, levi_civita, torsion_residual
from .algebra import (
    _EPS, _TABLES, EigenPart, GForm, L_op, _exactly, _form, _integer_sum, _kernel_sum, _ratios,
    _read, bracket_0_1, e_bracket, gamma_op, project, star_bracket_star, star_wedge,
)
from .scalars import FloatField, RationalField

__all__ = [
    "FrameBackground", "levi_civita", "torsion_residual", "connection_form",
    "star_d", "is_einstein", "einstein_undecided", "d_omega", "star_d_omega",
    "d_omega_star", "POLE_TERMS", "FRAME_TERMS", "PAIR_TERMS", "builtin",
    "builtin_names", "load_background", "background_to_json",
]


def _star_d_ints(frame, xs):
    """The numerators of ``*(dx)`` over ``dx D``, ``x = xs / dx``, by the cyclic terms."""
    out = [0] * 9
    for i, m, w in frame[0]:
        for a in range(3):
            out[3 * a + m] -= w * xs[3 * a + i]
    return out


def star_d(bg, x: GForm) -> GForm:
    """``*(d x)`` of a frame-constant degree-1 form on a background (no
    connection term; compare :func:`star_d_omega`): over exact scalars, on the
    background's integer frame (:func:`_exact_frame`) and the reading of ``x``,
    ``(*dx)[a][m] = -sum_i x[a][i] c^i_jk`` over the cyclic ``(j, k, m)`` with
    one gcd; over floats ``_float._star_d`` of the background's terms."""
    if x.degree != 1:
        raise ValueError("star_d needs a degree-1 form")
    if not bg.field.exact:
        return GForm.from_entries(bg.field, _float._star_d(bg.field, bg._frame, x))
    xs, dx = _read(x)
    return _form(bg.field, _star_d_ints(bg._frame, xs), dx * bg._frame[2])


def _exact_frame(field, c):
    """``(conn, W, *F, frame, None)`` of exact ``c`` on one integer reading ``n / D``, with
    the scalar route's refusals: ``W`` over ``4D`` and ``*F = *dW + 1/2 *[W, W]^`` are
    readings; ``frame`` is ``star_d``'s cyclic terms ``(i, m, n^i_jk)``,
    ``d_omega_star``'s traces ``(i, sum_k n^k_ik)`` and ``D``; no zero-test scale."""
    flat, D = _ratios([v for plane in c for row in plane for v in row])
    r = range(3)
    n = [[flat[9 * k + 3 * i:9 * k + 3 * i + 3] for i in r] for k in r]  # D c^k_ij
    for k, i, j in itertools.product(r, repeat=3):
        if n[k][i][j] + n[k][j][i]:
            raise ValueError(f"structure constants not antisymmetric at c^{k}_{{{i}{j}}}")
    g = [[[n[k][i][j] - n[i][j][k] + n[j][k][i] for j in r] for i in r] for k in r]  # 2D G^k_ij
    if [g[k][i][j] - g[k][j][i] for k in r for i in r for j in r] != [
            2 * v for plane in n for row in plane for v in row]:
        raise AssertionError("Koszul output has torsion")
    conn = tuple([tuple([tuple([Fraction(v, 2 * D) if v else field.zero for v in row])
                         for row in plane]) for plane in g])
    # W[c][i] = -1/2 eps_ckj G^k_ij, over the cyclic (c, k, j)
    W = _form(field, [g[j][i][k] - g[k][i][j] for _, k, j, _ in _EPS[:3] for i in r], 4 * D)
    frame = (tuple((i, m, n[i][j][k]) for j, k, m, _ in _EPS[:3] for i in r if n[i][j][k]),
             tuple((i, t) for i in r if (t := sum(n[k][i][k] for k in r))), D)
    ws, dw = W._ints  # 1/2 *[W, W]^ as *[W, W]^ over 2 dw dw
    starF = _integer_sum(field, 9, [(1, _star_d_ints(frame, ws), dw * D, None, None, 1),
                                    (1, ws, 2 * dw, star_wedge, ws, dw)])
    return conn, W, starF, frame, None


@dataclass(frozen=True, eq=False)
class FrameBackground:
    """A locally homogeneous background: structure constants and what they
    determine.

    :ivar name: identifying label (used in serialized series headers).
    :ivar c: structure constants ``c[k][i][j]``, antisymmetric in (i, j).
    :ivar conn: Levi-Civita coefficients ``G[k][i][j]``.
    :ivar W: su(2) connection form (degree-1 GForm).
    :ivar starF: dual curvature ``*F_omega`` (degree-1 GForm, zero V0 part).
    :ivar volume: total volume for global integrals -- exact Fraction when a
        background file declares one, a float for the compact builtins (their
        volumes carry pi^2), None for noncompact models.
    """

    name: str
    field: object
    c: tuple
    conn: tuple
    W: GForm
    starF: GForm
    volume: object = None
    _frame: tuple = None  # the frame tables: integers (exact), the *d terms (float)
    _scale: object = None  # the scale of zero tests on *F: none (exact), W's (float)

    def __post_init__(self):  # the columns of M0, built on first read
        object.__setattr__(self, "_columns", _Columns(FRAME_TERMS, self))

    @staticmethod
    def from_structure_constants(name, c_rows, field=None, volume=None):
        """The background of ``c_rows`` over ``field`` (rational by default):
        derived on one integer reading of ``c`` over exact scalars, which
        keep a ``Fraction`` entry as it is (:func:`_exact_frame`), by the
        scalar formulas over floats (``_float.frame``), whose background keeps
        the terms of ``*d``, with their +-1/2 converted once, as its frame,
        and the scale of its zero tests on ``*F``.  Raises ``ValueError``
        unless ``c`` is antisymmetric with no antisymmetric Ricci part.
        Nothing is kept across calls."""
        field = field or RationalField()
        c = tuple([tuple([tuple([field.from_fraction(v) if isinstance(v, (int, Fraction))
                                 else v for v in row]) for row in plane]) for plane in c_rows])
        conn, W, starF, frame, scale = (_exact_frame if field.exact else _float.frame)(field, c)
        if not project(starF, EigenPart.Zero).is_zero(scale):
            raise ValueError(
                "curvature has an antisymmetric Ricci part; the structure "
                "constants do not define a homogeneous Riemannian geometry"
            )
        return FrameBackground(name=name, field=field, c=c, conn=conn, W=W, starF=starF,
                               volume=volume, _frame=frame, _scale=scale)

    def is_einstein(self) -> bool:
        return is_einstein(self)

    def __repr__(self):
        return f"FrameBackground({self.name!r})"


def is_einstein(bg: FrameBackground) -> bool:
    """True iff ``(*F_omega)^+`` is zero by the field's rule: exactly over
    exact scalars, against the scale of the terms of ``*F`` over floats.
    ``series.seed_leading`` stores the obstruction ``b_{1,1}`` by this verdict."""
    return project(bg.starF, EigenPart.Plus).is_zero(bg._scale)


def _frame_terms(bg: FrameBackground, op, x: GForm):
    """The frame operator ``op`` on ``x`` over exact scalars as the read terms
    of :func:`~nahmpole.algebra._integer_sum`: the frame's own terms on the
    reading ``xs / dx`` over ``dx D``, and ``op``'s kernel in ``W``."""
    (xs, dx), (ws, dw) = x._ints or _read(x), bg.W._ints or _read(bg.W)
    cyclic, traces, D = bg._frame
    if op is d_omega:  # -[x, W]
        return [(-1, xs, dx, bracket_0_1, ws, dw)]
    if op is star_d_omega:  # *(dx) + *[W, x]^
        own, kernel = cyclic and _star_d_ints(bg._frame, xs), (1, ws, dw, star_wedge, xs, dx)
    else:  # the traces on x, less *[W, *x]
        own = traces and [sum(t * xs[3 * a + i] for i, t in traces) for a in range(3)]
        kernel = (-1, ws, dw, star_bracket_star, xs, dx)
    return [(1, own, dx * D, None, None, 1), kernel] if own else [kernel]


def d_omega(bg: FrameBackground, x: GForm) -> GForm:
    """Exterior covariant derivative ``[W, x]`` of a frame-constant 0-form
    (the ``d`` part vanishes on invariant functions); on a 1-form, whose
    2-form is only consumed through its Hodge dual, use :func:`star_d_omega`."""
    if x.degree != 0:
        raise ValueError("d_omega needs a degree-0 form")
    return _kernel_sum(bg.field, 9, [(-1, x, bracket_0_1, bg.W)])


def star_d_omega(bg: FrameBackground, x: GForm) -> GForm:
    """``* d_omega x`` for a degree-1 form: ``*(dx) + *[W, x]^``, one integer
    sum over exact scalars (:func:`_frame_terms`), over floats
    ``_float.star_d_omega``."""
    if x.degree != 1:
        raise ValueError("star_d_omega needs a degree-1 form")
    if not bg.field.exact:
        return _float.star_d_omega(bg, x)
    return _integer_sum(bg.field, 9, _frame_terms(bg, star_d_omega, x))


def d_omega_star(bg: FrameBackground, x: GForm) -> GForm:
    """Codifferential ``d_omega^* x = -*d_omega(*x)`` of a degree-1 form.

    For frame-constant coefficients this is the trace term
    ``sum_i x[a][i] sum_k c^k_ik``, nonzero exactly on the non-unimodular
    models, minus ``*[W, *x]``: the background's integer traces over exact
    scalars (:func:`_frame_terms`), over floats ``_float.d_omega_star``.
    """
    if x.degree != 1:
        raise ValueError("d_omega_star needs a degree-1 form")
    if not bg.field.exact:
        return _float.d_omega_star(bg, x)
    return _integer_sum(bg.field, 3, _frame_terms(bg, d_omega_star, x))


# ---------------------------------------------------------------------------
# The flow equations.
# ---------------------------------------------------------------------------
# With A = W + a and Phi = e/y + b, the flow of the packed state
# v = (a, b, phi_y) is  v' = M1 v / y + *F_w + M0 v + Q(v, v),  with *F_w in
# the b equation only.  Each row is (equation, operator, components read,
# coefficient); equations and components count (a, b, phi_y) as 0, 1, 2.

#: The pole part ``M1``: ``coefficient * op(x)`` over ``y``.
POLE_TERMS = (
    (0, L_op, 0, 1),                   # a'     = L(a)/y
    (0, e_bracket, 2, -1),             #          - [e, phi_y]/y
    (1, L_op, 1, -1),                  # b'     = -L(b)/y
    (2, gamma_op, 0, -1),              # phi_y' = -Gamma(a)/y
)

#: The frame part ``M0``: ``coefficient * op(bg, x)``.
FRAME_TERMS = (
    (0, star_d_omega, 1, 1),           # *d_w b
    (1, d_omega, 2, 1),                # d_w phi_y
    (1, star_d_omega, 0, 1),           # *d_w a
    (2, d_omega_star, 1, 1),           # d_w^* b
)

#: The pair part: ``Q(v, v)`` sums ``coefficient * op(x, y)``, ``x`` and
#: ``y`` read from ``v``; over a series, from each ordered pair of addresses.
PAIR_TERMS = (
    (0, star_wedge, (0, 1), 1),        # *[a, b]
    (0, bracket_0_1, (2, 1), 1),       # [phi_y, b]
    (1, bracket_0_1, (2, 0), -1),      # [a, phi_y]
    (1, star_wedge, (0, 0), Fraction(1, 2)),    # 1/2 *[a, a]
    (1, star_wedge, (1, 1), Fraction(-1, 2)),   # -1/2 *[b, b]
    (2, star_bracket_star, (0, 1), -1),         # -*[a, *b]
)

#: The slots of ``a``, ``b`` and ``phi_y`` in the 21 of ``v``, the one layout every table reads.
_BLOCKS = (range(0, 9), range(9, 18), range(18, 21))
_RATIONAL = RationalField()  # the pole columns' field, made once: each makes two Fractions


class _Columns(dict):
    """The columns of ``M1`` (``POLE_TERMS``) or of a background's ``M0`` (``FRAME_TERMS``),
    built on first read: ``self[u]`` is ``([(out slot, n), ...], den)``, the rows on the
    unit form at slot ``u`` read exactly.  The background is held weakly."""

    def __init__(self, terms, bg=None):
        self.terms, self.bg = terms, bg and weakref.ref(bg)

    def __missing__(self, u):
        bg = self.bg and self.bg()
        field = bg.field if bg else _RATIONAL
        j = next(j for j, block in enumerate(_BLOCKS) if u in block)
        x = GForm.from_entries(field, [field.one if n == u else field.zero for n in _BLOCKS[j]])
        # each nonzero entry of each image as (n, d), on the image's exact reading
        images = [(_BLOCKS[i][o], c, n, d)
                  for i, op, k, c in self.terms if k == j
                  for ns, d in [_exactly(op(bg, x) if bg else op(x))]
                  for o, n in enumerate(ns) if n]
        den = math.lcm(*(d for *_, d in images))
        self[u] = column = [(o, c * n * (den // d)) for o, c, n, d in images], den
        return column


def _compile_pairs():
    """``4Q``, four times the symmetrized pair rows, in ints (each coefficient is a
    multiple of 1/2) from ``PAIR_TERMS`` and the kernels' tables: ``table[u][w]``
    lists ``(out slot, n)``, so that ``Q(x, y) + Q(y, x) = 1/2 sum x[u] y[w] n``."""
    table = [{} for _ in range(21)]
    for i, op, (j1, j2), c in PAIR_TERMS:
        for x, row in enumerate(_TABLES[op]):
            for y, o, s in row:
                u, w, o = _BLOCKS[j1][x], _BLOCKS[j2][y], _BLOCKS[i][o]
                for u, w in ((u, w), (w, u)):
                    out = table[u].setdefault(w, {})
                    out[o] = out.get(o, 0) + int(2 * c) * s
    return [{w: [(o, n) for o, n in out.items() if n] for w, out in row.items()}
            for row in table]


#: The columns of ``M1``; a background keeps its own ``M0`` columns.
_POLE_COLUMNS = _Columns(POLE_TERMS)
_PAIR_4Q = _compile_pairs()
#: The flow's ``[M1 | Qp]`` for ``oracle``: the pairs ``u <= w`` that ``4Q`` reads (126 of 231),
#: and the pole columns, then one column per pair, ``n / 4`` on the diagonal, ``2n / 4`` off it.
_I, _J = zip(*[(u, w) for u, row in enumerate(_PAIR_4Q) for w in sorted(row) if w >= u])
_M1_QP = [_POLE_COLUMNS[u] for u in range(21)] + [
    ([(o, n if u == w else 2 * n) for o, n in _PAIR_4Q[u][w]], 4) for u, w in zip(_I, _J)]


# ---------------------------------------------------------------------------
# Builtin catalog.
# ---------------------------------------------------------------------------

_TWO_PI_SQ = 2.0 * math.pi**2
_FLOAT_MAX = Fraction(sys.float_info.max)
#: The catalog frames some holder keeps alive, by (name, parameter, field type,
#: bits): :func:`builtin` returns the live one.  Held weakly, so none is kept.
_LIVE = weakref.WeakValueDictionary()

#: name -> (parameter name or None, docstring, the entries ``{(k, i, j): c^k_ij}`` of a
#: parameter, one key per antisymmetric pair, and its volume over ``2 pi^2`` or None)
_BUILTINS = {
    "flat": (None, "flat R^3 / T^3 local model (zero structure constants)", lambda _: {}, None),
    "round-s3": ("scale", "round 3-sphere, c^k_ij = 2 s eps_kij (radius 1/s)",
                 lambda s: {(k, i, j): 2 * s for k, i, j, sgn in _EPS if sgn > 0},
                 lambda s: s ** -3),
    "hyperbolic-h3": ("scale", "hyperbolic space H^3 at curvature scale s",
                      lambda s: {(0, 0, 2): -s, (1, 1, 2): -s}, None),
    "berger-s3": ("squash", "Berger sphere: Hopf fiber rescaled by t (t=1 is round)",
                  lambda t: {(0, 1, 2): 2 * t, (1, 2, 0): 2 / t, (2, 0, 1): 2 / t}, lambda t: t),
    "h2xr": (None, "product H^2 x R local model (not Einstein)",
             lambda _: {(0, 0, 1): Fraction(-1)}, None),
}


def builtin_names():
    return list(_BUILTINS)


def _volume(pname, ratio: Fraction) -> float:
    """``2 pi^2 ratio`` as a float (inf past the float range); a ValueError
    names ``pname`` when that is not a normal positive float."""
    volume = _TWO_PI_SQ * float(min(ratio, _FLOAT_MAX))
    if not sys.float_info.min <= volume < math.inf:
        raise ValueError(f"{pname} out of range: the volume is not a normal "
                         "positive float")
    return volume


def builtin(name: str, param=None, field=None) -> FrameBackground:
    """Construct a catalog background, or return the one another holder keeps
    alive for the same name, parameter and field kind (rational, or float of the
    same ``bits``; any other field builds afresh), with the tables it derived.
    Frames are immutable, so it gives a fresh frame's values; its ``field`` may
    be an equal instance other than ``field``.

    :param name: one of ``flat``, ``round-s3``, ``hyperbolic-h3``,
        ``berger-s3``, ``h2xr``.
    :param param: the scale/squash parameter where the model takes one
        (rational; must be positive).  Defaults to 1, which names the same
        frame as none.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin background {name!r}")
    field = field or RationalField()
    pname, _, entries, ratio = _BUILTINS[name]
    if param is None:
        param = Fraction(1)
    else:
        param = Fraction(param)
        if pname is None:
            raise ValueError(f"builtin {name!r} takes no parameter")
    if param <= 0:
        raise ValueError(f"{pname or 'parameter'} must be positive, got {param}")
    kind = type(field)
    key = kind in (RationalField, FloatField) and (name, param, kind, getattr(field, "bits", 0))
    if key and (bg := _LIVE.get(key)) is not None:
        return bg

    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (k, i, j), v in entries(param).items():
        c[k][i][j], c[k][j][i] = v, -v
    label = name if pname is None or param == 1 else f"{name}?{pname}={param}"
    bg = FrameBackground.from_structure_constants(
        label, c, field=field, volume=ratio and _volume(pname, ratio(param)))
    return _LIVE.setdefault(key, bg) if key else bg


def _parse_builtin_uri(uri: str, field) -> FrameBackground:
    body = uri[len("builtin:"):]
    name, _, query = body.partition("?")
    param = None
    if query:
        key, _, value = query.partition("=")
        expected = _BUILTINS.get(name, (None, ""))[0]
        if expected is None or key != expected:
            raise ValueError(f"builtin {name!r} does not take parameter {key!r}")
        param = RationalField().parse(value)
    return builtin(name, param=param, field=field)


def _is_array3(x, rank: int) -> bool:
    """Whether ``x`` is a 3 x ... x 3 array (``rank`` levels) of lists."""
    return rank == 0 or (isinstance(x, list) and len(x) == 3
                         and all(_is_array3(r, rank - 1) for r in x))


def load_background(source: str, field=None) -> FrameBackground:
    """Load a background from a ``builtin:<name>?param=value`` URI or a JSON
    file ``{"name": str, "c": 3x3x3 rational strings, "volume": "p/q"|null}``.
    A URI goes through :func:`builtin`, which returns a frame another holder
    keeps alive; a file, which can change on disk, is built fresh each call.
    """
    field = field or RationalField()
    if source.startswith("builtin:"):
        return _parse_builtin_uri(source, field)
    with open(source, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        name = doc["name"]
        c_raw = doc["c"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed background file {source!r}: {exc}") from exc
    if not isinstance(name, str):
        raise ValueError(f"malformed background file {source!r}: "
                         "name must be a string")
    if not _is_array3(c_raw, 3):
        raise ValueError(f"malformed background file {source!r}: "
                         "c must be a 3x3x3 array")
    rat = RationalField()
    c = [[[rat.parse(str(v)) for v in row] for row in plane] for plane in c_raw]
    volume = doc.get("volume")
    if volume is not None:
        volume = rat.parse(str(volume))
        if volume <= 0:
            raise ValueError(f"malformed background file {source!r}: "
                             "volume must be positive")
    return FrameBackground.from_structure_constants(name, c, field=field, volume=volume)


def _json_scalar(v):
    """A scalar in JSON: None as null, a ``Fraction`` as ``"p/q"``, else its float's repr."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return None if v is None else repr(float(v))


def background_to_json(bg: FrameBackground) -> str:
    """Serialize a background to the JSON file format (canonical bytes)."""
    field = bg.field
    c = [[[RationalField().format(field.to_fraction(v)) for v in row] for row in plane]
         for plane in bg.c]
    doc = {"name": bg.name, "c": c, "volume": _json_scalar(bg.volume)}
    return json.dumps(doc, indent=2) + "\n"
