"""The seam between the exact engine and the float route.

``algebra``, ``geometry`` and ``series`` hold the exact engine; the bodies
that compute on float scalars live in ``nahmpole._float``.  A function of the
three modules touches the float route when its code (docstring excluded) reads
``.exact``, calls ``arithmetic`` or ``context``, names ``Decimal`` or
``FloatField``, or tests a form's integer reading ``_ints`` for truth or
against None: a float form holds no reading, so such a test would be a
dispatch on the field that hides from the first rules.  This guard lists
those functions, which must be the committed list below, and each of them
must name the float route in one statement of its body: a dispatch into
``_float`` or a check of its input's field kind.  The rule reads the source
with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import nahmpole

SRC = Path(nahmpole.__file__).resolve().parent

#: The functions of each module that touch the float route, by qualified name.
LISTED = {
    "algebra": {"GForm.__new__", "GForm.zero", "GForm._combine", "_exactly", "_kernel_sum",
                "e_bracket", "L_op", "gamma_op", "project", "invert_cal_L", "resolve_coupled"},
    "geometry": {"star_d", "FrameBackground.from_structure_constants", "star_d_omega",
                 "d_omega_star", "builtin"},
    "series": {"_sum", "residual_at", "from_json"},
}
_CALLS = {"arithmetic", "context"}
_NAMES = {"Decimal", "FloatField"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_reading(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_ints"


def _tests_reading(n) -> bool:
    """Whether ``n`` takes the truth value of a reading ``x._ints`` (``or``/``and``,
    ``not``, a condition) or compares one with None."""
    if isinstance(n, ast.BoolOp):
        return any(map(_is_reading, n.values))
    if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not):
        return _is_reading(n.operand)
    if isinstance(n, (ast.If, ast.IfExp, ast.While, ast.Assert)):
        return _is_reading(n.test)
    if isinstance(n, ast.comprehension):
        return any(map(_is_reading, n.ifs))
    if isinstance(n, ast.Compare):
        sides = [n.left, *n.comparators]
        return any(map(_is_reading, sides)) and any(
            isinstance(s, ast.Constant) and s.value is None for s in sides)
    return False


def _touches(node) -> bool:
    """Whether ``node`` reads ``.exact``, calls ``arithmetic``/``context``,
    names ``Decimal``/``FloatField`` or tests a reading (:func:`_tests_reading`):
    the guard's rule."""
    return any(isinstance(n, ast.Attribute) and n.attr == "exact"
               or isinstance(n, ast.Call) and _name(n.func) in _CALLS
               or isinstance(n, (ast.Name, ast.Attribute)) and _name(n) in _NAMES
               or _tests_reading(n)
               for n in ast.walk(node))


def _names_route(node) -> bool:
    """Whether ``node`` dispatches into ``_float`` or checks a field kind."""
    return any(isinstance(n, ast.Attribute) and (
        n.attr == "exact" or isinstance(n.value, ast.Name) and n.value.id == "_float")
        or isinstance(n, ast.Name) and n.id == "FloatField" for n in ast.walk(node))


def _functions(tree, prefix=""):
    """``(qualified name, body without its docstring)`` of every function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            yield f"{prefix}{node.name}", body
            yield from _functions(node, f"{prefix}{node.name}.")


def _module(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def test_float_route_touches_only_the_listed_functions():
    for module, listed in LISTED.items():
        found = {name for name, body in _functions(_module(module))
                 if any(_touches(stmt) for stmt in body)}
        assert found == listed, module
    assert sum(map(len, LISTED.values())) <= 19


def test_each_listed_function_names_the_float_route_once():
    for module, listed in LISTED.items():
        for name, body in _functions(_module(module)):
            if name in listed:
                naming = [stmt for stmt in body if _names_route(stmt)]
                assert len(naming) == 1, (module, name, [ast.unparse(s) for s in naming])


def test_a_test_of_a_reading_touches_the_float_route():
    # the hidden dispatch the readings once carried: each of these counts
    for code in ("n, d = x._ints or f(x)", "y = x._ints and 1", "y = not x._ints",
                 "if x._ints:\n    pass", "y = 1 if form._ints else 2", "assert x._ints",
                 "y = x._ints is None", "y = None != x._ints", "y = [f for f in fs if f._ints]"):
        assert _touches(ast.parse(code)), code
    for code in ("n, d = x._ints", "y = x._ints == z._ints", "y = any(x._ints[0])"):
        assert not _touches(ast.parse(code)), code


def test_exact_modules_compute_no_float_body():
    # no Decimal operation and no context of the float route is left in the
    # three exact modules, not even in a listed function, and scalars no
    # longer offers ``arithmetic``
    for module in LISTED:
        tree = _module(module)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & (_CALLS | {"Decimal"}), module
        assert not [ast.unparse(n) for n in ast.walk(tree)
                    if isinstance(n, ast.Call) and _name(n.func) in _CALLS
                    or isinstance(n, (ast.Name, ast.Attribute)) and _name(n) == "Decimal"], module
    assert not hasattr(nahmpole.scalars, "arithmetic")
    assert "arithmetic" not in nahmpole.scalars.__all__


def test_dispatches_reach_the_float_module():
    from nahmpole import _float

    for module in LISTED:
        targets = {n.attr for n in ast.walk(_module(module)) if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "_float"}
        assert targets and all(hasattr(_float, attr) for attr in targets), module
