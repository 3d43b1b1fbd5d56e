"""The exact engine does not enter the float route.

Every function of ``nahmpole._float``, and every method of its float form
type, is made to raise; rational expansions, their canonical JSON, their
residual checks, the ``verify`` suites and the rational ``expand`` command
must then give what they give unpatched.  A float expansion must still enter
the module, and a form keeps its kind, exact or float, through copy and pickle.
"""

import contextlib
import copy
import inspect
import io
import pickle

from nahmpole import _float, algebra, cli, geometry, series
from nahmpole.algebra import GForm, vierbein
from nahmpole.geometry import load_background
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import check_residuals, expand, to_json

from conftest import CATALOG, SEED0_FREE_DATA, free_data_from_doc

SUITES = ("s3", "hyperbolic", "flat", "identities", "einstein-catalog")


def _float_functions():
    """``(owner, name)`` of each function of the float module and of its form type,
    and of each name another module binds to one of them (``geometry``'s re-exports)."""
    functions = {id(f) for f in vars(_float).values()
                 if inspect.isfunction(f) and f.__module__ == _float.__name__}
    for module in (_float, algebra, geometry, series, cli):
        yield from ((module, name) for name, f in vars(module).items() if id(f) in functions)
    yield from ((_float.FForm, name) for name, f in vars(_float.FForm).items()
                if inspect.isfunction(f))


def _exact_runs():
    """What the exact engine gives: each table's JSON and residual check, and
    the exit code and output of each ``verify`` suite and of ``expand`` at N=8
    on each catalog frame in each format."""
    geometry._LIVE.clear()  # build every frame afresh
    field = RationalField()
    tables = [expand(load_background(uri, field), N=8) for uri, _ in CATALOG]
    tables.append(expand(load_background("builtin:berger-s3?squash=2", field),
                         free_data_from_doc(field, SEED0_FREE_DATA), N=12))
    out = [(to_json(s), check_residuals(s)) for s in tables]
    for argv in [["verify", suite] for suite in SUITES] + [
            ["expand", "--background", uri, "--order", "8", "--format", fmt]
            for uri, _ in CATALOG for fmt in ("json", "csv", "pretty")]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


def test_exact_route_never_enters_the_float_module(monkeypatch):
    want = _exact_runs()
    assert all(code == 0 for code, *_ in want[len(CATALOG) + 1:])

    def refuse(*args, **kwargs):
        raise AssertionError("the exact route entered the float module")

    for owner, name in list(_float_functions()):
        monkeypatch.setattr(owner, name, refuse)
    assert _exact_runs() == want


def test_float_expansion_enters_the_float_module(monkeypatch):
    calls = {}
    for owner, name in list(_float_functions()):
        def counted(*args, real=getattr(owner, name), key=name, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    geometry._LIVE.clear()
    bg = load_background("builtin:berger-s3?squash=3/7", FloatField(64))
    assert check_residuals(expand(bg, N=8)) == []
    assert sum(calls.values()) > 0
    for name in ("frame", "_star_d", "_kernel_sum", "_products", "_sum", "invert_cal_L",
                 "resolve_coupled", "_rounded", "_slotwise"):
        assert calls.get(name, 0) > 0, name


def test_a_form_keeps_its_kind_through_copy_and_pickle():
    for field, kind in ((RationalField(), GForm), (FloatField(64), _float.FForm)):
        form = vierbein(field) + vierbein(field).scale(3)
        assert type(form) is kind
        for got in (copy.copy(form), copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
            assert type(got) is kind and got == form and got.entries() == form.entries()
