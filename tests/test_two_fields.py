"""The package has two scalar fields, and both live in ``nahmpole.scalars``.

A scalar field is told by its class-level ``exact`` flag, which the engine
reads to pick the exact or the float route.  This guard fails when a module
of ``nahmpole`` other than ``scalars`` defines a class that states ``exact``
in its own body: an assignment, an annotation or a method of that name.  A
third field made to adapt one layer to another would be such a class.  The
rule reads the source with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import nahmpole

SRC = Path(nahmpole.__file__).resolve().parent


def _states_exact(stmt) -> bool:
    """Whether a statement of a class body binds the name ``exact``."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return stmt.name == "exact"
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) else [])
    return any(isinstance(n, ast.Name) and n.id == "exact"
               for t in targets for n in ast.walk(t))


def _fields(path):
    """The classes of a module whose own body states ``exact``."""
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and any(map(_states_exact, node.body))]


def test_only_scalars_defines_scalar_fields():
    found = {path.stem: _fields(path) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("scalars") == ["RationalField", "FloatField"]
    assert {module: names for module, names in found.items() if names} == {}


def test_the_rule_sees_a_shim_field():
    shim = ast.parse("class _Kit:\n    zero = 0.0\n    exact = False\n").body[0]
    assert any(map(_states_exact, shim.body))
    plain = ast.parse("class _Row:\n    exactly = True\n    def scale(self): pass\n").body[0]
    assert not any(map(_states_exact, plain.body))
