"""The command line refuses malformed input in one line.

Drawn malformed background files, malformed free-data files and bad flags
must each end ``nahmpole`` with exit code 1 or 2, nothing on stdout, exactly
one line on stderr and no traceback.  Each drawn input carries at least one
defect, so none of them is a valid request.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from nahmpole import cli

#: round-s3's structure constants as the strings a background file holds.
_C = [[[str(2 * ((i - j) * (j - k) * (k - i) // 2)) for j in range(3)] for i in range(3)]
      for k in range(3)]
_ZERO = [["0"] * 3 for _ in range(3)]
#: Values no rational or decimal literal reader accepts.
_BAD = st.sampled_from([{}, None, True, False, [], ["1"], "abc", "", "1/0", "nan", "inf",
                        "1e99999", "2/3/4"])
_NOT_AN_OBJECT = st.sampled_from([[], "x", 1, 2.5, None, True])
_NOT_A_STRING = st.sampled_from([1, None, True, [], {}, 2.5])


def _replace(rows, where, value):
    """A deep copy of the nested lists ``rows`` with ``value`` at ``where``."""
    rows = json.loads(json.dumps(rows))
    *head, last = where
    target = rows
    for i in head:
        target = target[i]
    target[last] = value
    return rows


_index3 = st.tuples(*[st.integers(0, 2)] * 3)
_index2 = st.tuples(*[st.integers(0, 2)] * 2)

_bad_background = st.one_of(
    _NOT_AN_OBJECT,
    st.sampled_from([{}, {"name": "x"}, {"c": _C}]),
    st.builds(lambda name: {"name": name, "c": _C}, _NOT_A_STRING),
    st.builds(lambda c: {"name": "x", "c": c},
              st.one_of(_NOT_AN_OBJECT, st.sampled_from([{}, [[]], [[["0"]]], _C[:2],
                                                         [_C[0], _C[1], _C[2][:2]]]))),
    st.builds(lambda at, v: {"name": "x", "c": _replace(_C, at, v)}, _index3, _BAD),
    st.builds(lambda v: {"name": "x", "c": _C, "volume": v},
              st.one_of(_BAD.filter(lambda v: v is not None),
                        st.sampled_from(["-1", "0", -3, 0, "-2/5"]))),
)

_bad_free_data = st.one_of(
    _NOT_AN_OBJECT,
    st.builds(lambda key: {key: _ZERO}, st.sampled_from(["c_foo", "C_plus", ""])),
    st.builds(lambda key, m: {key: m}, st.sampled_from(["c_plus", "c_zero", "c_minus"]),
              st.one_of(st.sampled_from([5, "x", [], {}, True, _ZERO[:2], [["0"] * 2] * 3]))),
    st.builds(lambda key, at, v: {key: _replace(_ZERO, at, v)},
              st.sampled_from(["c_plus", "c_zero", "c_minus"]), _index2, _BAD),
    st.sampled_from([  # each matrix lies off its declared eigenspace
        {"c_plus": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]},
        {"c_zero": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        {"c_minus": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]]},
        {"c_plus": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    ]),
)

_FLAT = ["expand", "--background", "builtin:flat"]
_bad_flags = st.sampled_from([
    [], ["nosuch"], ["backgrounds", "extra"], ["expand"], ["expand", "--bogus"],
    _FLAT + ["--order", "1"], _FLAT + ["--order", "x"], _FLAT + ["--order", "-5"],
    _FLAT + ["--scalar", "float", "--prec", "63"],
    _FLAT + ["--scalar", "float", "--prec", "70000"],
    _FLAT + ["--prec", "abc"], _FLAT + ["--scalar", "complex"], _FLAT + ["--format", "xml"],
    ["expand", "--background", "builtin:nosuch"],
    ["expand", "--background", "builtin:flat?scale=2"],
    ["expand", "--background", "builtin:round-s3?scale=-1"],
    ["expand", "--background", "builtin:round-s3?scale=abc"],
    ["expand", "--background", "builtin:round-s3?squash=2"],
    ["verify"], ["verify", "nosuch"], ["ode-compare"], ["ode-compare", "nosuch"],
    ["ode-compare", "s3", "--order", "1"], ["ode-compare", "s3", "--order", "x,y"],
    ["ode-compare", "s3", "--tol", "-1"], ["ode-compare", "s3", "--tol", "nan"],
    ["ode-compare", "s3", "--y-min", "0.3", "--y-max", "0.2"],
    ["ode-compare", "s3", "--y-min", "abc"],
])
_scalar = st.sampled_from([[], ["--scalar", "float", "--prec", "64"],
                           ["--scalar", "float", "--prec", "128"]])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _refused(argv):
    """Run ``nahmpole argv`` in-process and check the one-line refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (1, 2), (argv, code, err)
    assert out.getvalue() == "", argv
    assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in err


@settings(max_examples=80)
@given(st.one_of(_bad_background.map(json.dumps),
                 st.sampled_from(["", "{", "[1,", '{"name": }', "\ufeff{}"])), _scalar)
def test_malformed_background_file(workdir, text, scalar):
    path = workdir / "bg.json"
    path.write_text(text, encoding="utf-8")
    _refused(["expand", "--background", str(path), *scalar])


def test_background_file_that_is_not_text(workdir):
    path = workdir / "binary.json"
    path.write_bytes(b"\xff\xfe\x00{")
    _refused(["expand", "--background", str(path)])


@settings(max_examples=80)
@given(_bad_free_data.map(json.dumps), _scalar)
# off V+ by a third; its entries once overflowed the float64 check to inf
@example(json.dumps({"c_plus": _replace(_ZERO, (0, 0), "1e99999")}),
         ["--scalar", "float", "--prec", "64"])
def test_malformed_free_data_file(workdir, text, scalar):
    path = workdir / "free.json"
    path.write_text(text, encoding="utf-8")
    _refused(["expand", "--background", "builtin:round-s3", "--free-data", str(path),
              *scalar])


@settings(max_examples=80)
@given(_bad_flags)
def test_bad_flags(argv):
    _refused(argv)
