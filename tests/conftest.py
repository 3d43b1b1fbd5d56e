"""Shared helpers: seeded random forms and the background catalog."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from nahmpole import geometry
from nahmpole.algebra import GForm
from nahmpole.geometry import FrameBackground, background_to_json, load_background
from nahmpole.scalars import RationalField
from nahmpole.series import FreeData

from dense import solve_dense

#: Property tests are part of tier-1, so they are deterministic, bounded and
#: leave no example database behind.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None, max_examples=20)
settings.load_profile("tier1")


def pytest_report_header(config):
    """Name the ``nahmpole`` under test: ``pyproject.toml`` puts this checkout's
    ``src`` ahead of ``PYTHONPATH``."""
    return f"nahmpole: {Path(geometry.__file__).resolve().parent}"


#: (builtin URI, is Einstein) for the whole catalog, h2xr included.
CATALOG = (
    ("builtin:flat", True),
    ("builtin:round-s3", True),
    ("builtin:hyperbolic-h3", True),
    ("builtin:berger-s3?squash=2", False),
    ("builtin:h2xr", False),
)


#: The free data the benchmark draws from seed 0 (dense ``c_plus`` and
#: ``c_zero``, so every table entry is hit), as pinned by the N = 12 hashes.
SEED0_FREE_DATA = json.loads((Path(__file__).resolve().parent
                              / "to_json_sha256.json").read_text())["free_data"]


def free_data_from_doc(field, doc):
    return FreeData(field=field, **{
        key: GForm.one_form(field, [[Fraction(v) for v in row] for row in rows])
        for key, rows in doc.items()})


def rand_fraction(rng, span=9, den=7):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_one_form(rng, field):
    return GForm.one_form(field, [
        [field.from_fraction(rand_fraction(rng)) for _ in range(3)]
        for _ in range(3)])


def rand_zero_form(rng, field):
    return GForm.zero_form(
        field, [field.from_fraction(rand_fraction(rng)) for _ in range(3)])


def rand_antisym_c(rng):
    """Random antisymmetric structure constants (not necessarily unimodular)."""
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                v = rand_fraction(rng, span=3, den=3)
                c[k][i][j] = v
                c[k][j][i] = -v
    return c


def cayley_rotation(k1, k2, k3):
    """Exact rotation matrix via the Cayley transform of the antisymmetric
    matrix K of (k1, k2, k3): R = (I + K)^-1 (I - K) is orthogonal with
    determinant one and rational entries."""
    K = [[Fraction(0), k1, k2], [-k1, Fraction(0), k3], [-k2, -k3, Fraction(0)]]
    M = [[(1 if r == c else 0) + K[r][c] for c in range(3)] for r in range(3)]
    N = [[(1 if r == c else 0) - K[r][c] for c in range(3)] for r in range(3)]
    field = RationalField()
    cols = [solve_dense(field, M, [N[r][j] for r in range(3)]) for j in range(3)]
    return [[cols[j][r] for j in range(3)] for r in range(3)]


def rand_rotation(rng):
    """Exact random rotation matrix (:func:`cayley_rotation`)."""
    return cayley_rotation(*(rand_fraction(rng, span=3, den=3) for _ in range(3)))


def rand_frame_c(rng, base_uri=None):
    """Random orthonormal-frame structure constants of a genuine geometry:
    a catalog member, rescaled by a random positive factor and conjugated by
    a random exact rotation.  Unlike raw random antisymmetric arrays these
    satisfy the Jacobi identity, so curvature retains its symmetries."""
    uris = [uri for uri, _ in CATALOG]
    uri = base_uri or uris[rng.randrange(len(uris))]
    s = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    return frame_c(load_background(uri, RationalField()).c, s, rand_rotation(rng))


def frame_c(c, s, R):
    """Structure constants ``c`` rescaled by ``s`` and conjugated by the
    rotation ``R``, exactly."""
    out = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(3):
                acc = Fraction(0)
                for kk in range(3):
                    for ii in range(3):
                        for jj in range(3):
                            acc += R[k][kk] * R[i][ii] * R[j][jj] * c[kk][ii][jj]
                out[k][i][j] = s * acc
    return out


def rotated_h3_file(tmp_path, scale):
    """A background file of hyperbolic space at ``scale``, rotated exactly by
    the Cayley transform of (1/3, 2/7, -3/5) so that every structure
    constant is filled: at large scales its curls and curvature carry
    round-off far above the field tolerance in absolute terms."""
    R = cayley_rotation(Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5))
    c = frame_c(load_background("builtin:hyperbolic-h3", RationalField()).c,
                Fraction(scale), R)
    path = tmp_path / f"rotated-h3-{scale}.json"
    path.write_text(background_to_json(FrameBackground.from_structure_constants(
        f"rotated-h3?scale={scale}", c)))
    return str(path)


@pytest.fixture(autouse=True)
def fresh_catalog_frames():
    """Empty the table of live catalog frames before each test, so that a test's
    first request builds its frame, lazy state unread, even while module-level
    frames of another test module hold the same frame alive."""
    geometry._LIVE.clear()


@pytest.fixture
def field():
    return RationalField()


@pytest.fixture
def rng():
    return random.Random(986301)


@pytest.fixture(params=CATALOG, ids=[uri.split(":")[1] for uri, _ in CATALOG])
def catalog_case(request, field):
    uri, einstein = request.param
    return load_background(uri, field), einstein
