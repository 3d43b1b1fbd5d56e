"""Backgrounds: Koszul connection, curvature catalog, loaders, serialization."""

import gc
import math
import weakref
from fractions import Fraction

import pytest

from nahmpole import geometry
from nahmpole.algebra import EigenPart, GForm, project, vierbein
from nahmpole.geometry import (
    FrameBackground,
    background_to_json,
    builtin,
    builtin_names,
    connection_form,
    d_omega,
    d_omega_star,
    is_einstein,
    levi_civita,
    load_background,
    star_d,
    star_d_omega,
    torsion_residual,
)
from nahmpole.oracle import closed_solution
from nahmpole.scalars import FloatField, RationalField, context
from nahmpole.series import check_residuals, expand, from_json, to_json

from conftest import (CATALOG, SEED0_FREE_DATA, cayley_rotation, frame_c,
                      free_data_from_doc, rand_antisym_c, rand_frame_c, rand_one_form,
                      rand_zero_form)
from curvature import metricity_residual, ricci_tensor
from test_algebra import (dense_bracket_0_1, dense_star_bracket_star,
                          dense_star_wedge)

MINUS, ZERO, PLUS = EigenPart.Minus, EigenPart.Zero, EigenPart.Plus


def _all_zero(field, tensor):
    for plane in tensor:
        for row in plane:
            for v in row:
                if not field.is_zero(v):
                    return False
    return True


class TestKoszul:
    def test_builtins_torsion_free_and_metric(self, catalog_case, field):
        bg, _ = catalog_case
        assert _all_zero(field, torsion_residual(field, bg.c, bg.conn))
        assert _all_zero(field, metricity_residual(field, bg.conn))

    def test_random_structure_constants(self, field, rng):
        # the Koszul formula needs no Jacobi identity to be torsion free
        # and metric-compatible, so raw random antisymmetric arrays do here
        for _ in range(50):
            c = rand_antisym_c(rng)
            conn = levi_civita(field, c)
            assert _all_zero(field, torsion_residual(field, c, conn))
            assert _all_zero(field, metricity_residual(field, conn))

    def test_vierbein_is_parallel_and_divergence_free(self, catalog_case, field, rng):
        bg, _ = catalog_case
        e = vierbein(field)
        assert star_d_omega(bg, e).is_zero()
        assert d_omega_star(bg, e).is_zero()

    def test_vierbein_parallel_on_random_frames(self, field, rng):
        for trial in range(10):
            bg = FrameBackground.from_structure_constants(
                f"rf-{trial}", rand_frame_c(rng), field)
            e = vierbein(field)
            assert star_d_omega(bg, e).is_zero()
            assert d_omega_star(bg, e).is_zero()


class TestCatalogFrozenValues:
    def test_flat(self, field):
        bg = load_background("builtin:flat", field)
        assert _all_zero(field, bg.c)
        assert bg.W.is_zero()
        assert bg.starF.is_zero()
        assert bg.volume is None
        assert bg.is_einstein()

    def test_round_sphere_default_scale(self, field):
        bg = load_background("builtin:round-s3", field)
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (2, 1, 0): -1, (0, 2, 1): -1, (1, 0, 2): -1}
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    assert bg.c[k][i][j] == 2 * eps.get((k, i, j), 0)
        e = vierbein(field)
        assert bg.W == e
        assert bg.starF == -e
        assert abs(bg.volume - 2 * math.pi**2) < 1e-12
        assert bg.is_einstein()

    def test_round_sphere_scale_three_halves(self, field):
        s = Fraction(3, 2)
        bg = builtin("round-s3", s, field)
        e = vierbein(field)
        assert bg.W == e.scale(s)
        assert bg.starF == e.scale(-s * s)
        assert abs(bg.volume - 2 * math.pi**2 / float(s) ** 3) < 1e-12

    def test_hyperbolic(self, field):
        s = Fraction(1)
        bg = load_background("builtin:hyperbolic-h3", field)
        expect_c = {(0, 0, 2): -s, (0, 2, 0): s, (1, 1, 2): -s, (1, 2, 1): s}
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    assert bg.c[k][i][j] == expect_c.get((k, i, j), 0)
        expect_w = {(0, 1): s, (1, 0): -s}
        for a in range(3):
            for i in range(3):
                assert bg.W.coeffs[a][i] == expect_w.get((a, i), 0)
        assert bg.starF == vierbein(field).scale(s * s)
        assert bg.volume is None
        assert bg.is_einstein()

    def test_berger_squash_two(self, field):
        bg = load_background("builtin:berger-s3?squash=2", field)
        assert bg.c[0][1][2] == 4 and bg.c[0][2][1] == -4
        assert bg.c[1][2][0] == 1 and bg.c[2][0][1] == 1
        for a in range(3):
            for i in range(3):
                want = {(0, 0): -1, (1, 1): 2, (2, 2): 2}.get((a, i), 0)
                assert bg.W.coeffs[a][i] == want
        for a in range(3):
            for i in range(3):
                want = {(0, 0): 8, (1, 1): -4, (2, 2): -4}.get((a, i), 0)
                assert bg.starF.coeffs[a][i] == want
        assert abs(bg.volume - 4 * math.pi**2) < 1e-12
        assert not bg.is_einstein()

    @pytest.mark.parametrize("t,diag", [
        (Fraction(2), (8, -4, -4)),
        (Fraction(1, 2), (-2, 1, 1)),
        (Fraction(3), (Fraction(64, 3), Fraction(-32, 3), Fraction(-32, 3))),
    ])
    def test_berger_curvature_obstruction(self, field, t, diag):
        # P+(*F) = (4 (t^2 - 1) / 3) diag(2, -1, -1)
        bg = builtin("berger-s3", t, field)
        got = project(bg.starF, PLUS)
        for a in range(3):
            for i in range(3):
                assert got.coeffs[a][i] == (diag[a] if a == i else 0)

    def test_berger_round_limit_is_einstein(self, field):
        assert builtin("berger-s3", Fraction(1), field).is_einstein()

    def test_h2xr(self, field):
        bg = load_background("builtin:h2xr", field)
        assert bg.c[0][0][1] == -1 and bg.c[0][1][0] == 1
        for a in range(3):
            for i in range(3):
                assert bg.W.coeffs[a][i] == (1 if (a, i) == (2, 0) else 0)
                assert bg.starF.coeffs[a][i] == (1 if (a, i) == (2, 2) else 0)
        # unimodularity defect tau_i = sum_k c^k_{ik}
        tau = [sum(bg.c[k][i][k] for k in range(3)) for i in range(3)]
        assert tau == [0, 1, 0]
        assert bg.volume is None
        assert not bg.is_einstein()

    def test_catalog_einstein_flags(self, catalog_case):
        bg, expected = catalog_case
        assert bg.is_einstein() is expected
        assert is_einstein(bg) is expected

    @pytest.mark.parametrize("bits", [64, 128])
    def test_float_rotated_flat_frame_is_einstein(self, bits):
        # E(2) is flat; rotated and scaled, its float *F is pure round-off of
        # the products c W and W W, so it is judged against |W|^2, not itself
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[0][2][1], c[1][2][0], c[1][0][2] = 1, -1, 1, -1
        c = frame_c(c, 1000, cayley_rotation(Fraction(1, 3), Fraction(2, 7),
                                             Fraction(-3, 5)))
        assert FrameBackground.from_structure_constants("e2", c).starF.is_zero()
        bg = FrameBackground.from_structure_constants("e2", c, FloatField(bits))
        assert not bg.starF.is_zero(bg.field.zero)  # the round-off is there
        assert is_einstein(bg)


class TestRicciOracle:
    """The stored dual curvature must be the Einstein tensor of the frame
    metric: *F = Ric - (tr Ric / 2) Id, with Ricci computed independently
    from the connection coefficients."""

    def _check(self, bg, field):
        ric = ricci_tensor(field, bg.c, bg.conn)
        tr = ric[0][0] + ric[1][1] + ric[2][2]
        half = Fraction(1, 2)
        for a in range(3):
            for i in range(3):
                want = ric[a][i] - (tr * half if a == i else 0)
                assert bg.starF.coeffs[a][i] == want

    def test_on_catalog(self, catalog_case, field):
        bg, _ = catalog_case
        self._check(bg, field)

    def test_on_random_frames(self, field, rng):
        for trial in range(10):
            bg = FrameBackground.from_structure_constants(
                f"ric-{trial}", rand_frame_c(rng), field)
            self._check(bg, field)

    def test_einstein_iff_ricci_proportional(self, catalog_case, field):
        bg, _ = catalog_case
        ric = ricci_tensor(field, bg.c, bg.conn)
        third = Fraction(1, 3)
        tr = ric[0][0] + ric[1][1] + ric[2][2]
        prop = all(
            ric[a][i] == ((tr * third) if a == i else 0)
            for a in range(3) for i in range(3))
        assert bg.is_einstein() is prop


class TestDeactionRules:
    """How the curl moves mass between eigenspaces (these cancellations are
    what keeps the expansion's resonances solvable)."""

    def _check(self, bg, field, rng):
        for _ in range(6):
            x = rand_one_form(rng, field)
            # curl annihilates the trace line ...
            assert star_d_omega(bg, project(x, MINUS)).is_zero()
            # ... and never produces one from the symmetric traceless part
            curl_plus = star_d_omega(bg, project(x, PLUS))
            assert project(curl_plus, MINUS).is_zero()

    def test_on_catalog(self, catalog_case, field, rng):
        bg, _ = catalog_case
        self._check(bg, field, rng)

    def test_on_random_frames(self, field, rng):
        for trial in range(8):
            bg = FrameBackground.from_structure_constants(
                f"deact-{trial}", rand_frame_c(rng), field)
            self._check(bg, field, rng)


def dense_linear_maps(bg):
    """``name -> (reference, input degree)`` for the three linear maps of the
    flow, by a dense route: the dense kernels with ``W`` fixed, the epsilon
    formula ``(*dx)[a][m] = -1/2 sum x[a][i] c^i_jk eps_{jkm}`` and the trace
    term ``sum_i x[a][i] sum_k c^k_ik``."""
    F, c, W = bg.field, bg.c, bg.W
    idx = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    eps = {(i, j, k): F.from_fraction(Fraction((i - j) * (j - k) * (k - i), 4))
           for i, j, k in idx}  # eps_{ijk} / 2

    def star_d_omega(x):
        X = x.coeffs
        curl = GForm(F, 1, tuple(tuple(
            sum((X[a][i] * c[i][j][k] * eps[j, k, m] for i, j, k in idx), F.zero)
            for m in range(3)) for a in range(3)))
        return dense_star_wedge(W, x) - curl

    def d_omega_star(x):
        X = x.coeffs
        trace = GForm(F, 0, tuple(
            sum((X[a][i] * c[k][i][k] for i in range(3) for k in range(3)), F.zero)
            for a in range(3)))
        return trace - dense_star_bracket_star(W, x)

    return {"star_d_omega": (star_d_omega, 1),
            "d_omega": (lambda x: -dense_bracket_0_1(x, W), 0),
            "d_omega_star": (d_omega_star, 1)}


def _maps_and_references(bg, rng):
    """``(public map, dense reference)`` of each linear map at seeded random
    forms, dense and with about half their entries zeroed."""
    for name, (reference, degree) in dense_linear_maps(bg).items():
        for trial in range(6):
            x = (rand_one_form if degree else rand_zero_form)(rng, bg.field)
            if trial % 2:
                x = GForm.from_entries(bg.field, [
                    bg.field.zero if rng.random() < 0.5 else v
                    for v in x.entries()])
            yield getattr(geometry, name)(bg, x), reference(x)


class TestLinearMaps:
    """``star_d_omega``, ``d_omega`` on 0-forms and ``d_omega_star`` against
    a dense reference that shares no code with :mod:`nahmpole.geometry`."""

    def test_exact_on_catalog(self, catalog_case, rng):
        bg, _ = catalog_case
        for got, want in _maps_and_references(bg, rng):
            assert got == want

    def test_exact_on_background_file(self, field, rng, tmp_path):
        # a rotated, rescaled Berger frame fills most structure constants
        bg = FrameBackground.from_structure_constants(
            "rotated-berger", rand_frame_c(rng, "builtin:berger-s3?squash=2"),
            field)
        path = tmp_path / "rotated.json"
        path.write_text(background_to_json(bg))
        bg = load_background(str(path), field)
        for got, want in _maps_and_references(bg, rng):
            assert got == want

    @pytest.mark.parametrize("uri", [uri for uri, _ in CATALOG])
    def test_float128_within_tolerance(self, uri, rng):
        f128 = FloatField(128)
        bg = load_background(uri, f128)
        with context(f128):  # the dense reference's products, at 128 bits
            for got, want in _maps_and_references(bg, rng):
                assert (got - want).is_zero()


#: (id, call, message) of ValueError refusals that no other test reaches.
REFUSALS = [
    ("star_d", lambda bg, zero: star_d(bg, zero), "star_d needs a degree-1 form"),
    ("d_omega", lambda bg, zero: d_omega(bg, bg.W), "d_omega needs a degree-0 form"),
    ("star_d_omega", lambda bg, zero: star_d_omega(bg, zero),
     "star_d_omega needs a degree-1 form"),
    ("d_omega_star", lambda bg, zero: d_omega_star(bg, zero),
     "d_omega_star needs a degree-1 form"),
    ("builtin-flat-param", lambda bg, zero: builtin("flat", param=2),
     "builtin 'flat' takes no parameter"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusals(field, call, message):
    bg = load_background("builtin:round-s3", field)
    with pytest.raises(ValueError) as err:
        call(bg, GForm.zero(field, 0))
    assert type(err.value) is ValueError and str(err.value) == message


class TestLoaders:
    def test_builtin_names_complete(self):
        assert set(builtin_names()) == {
            "flat", "round-s3", "hyperbolic-h3", "berger-s3", "h2xr"}

    def test_unknown_builtin(self, field):
        with pytest.raises(ValueError):
            load_background("builtin:nosuch", field)

    def test_wrong_parameter_name(self, field):
        with pytest.raises(ValueError):
            load_background("builtin:round-s3?squash=2", field)

    def test_parameter_on_parameterless_model(self, field):
        with pytest.raises(ValueError):
            load_background("builtin:flat?scale=2", field)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1)])
    def test_nonpositive_parameter(self, field, bad):
        with pytest.raises(ValueError):
            builtin("round-s3", bad, field)

    @pytest.mark.parametrize("name, bad", [
        ("round-s3", Fraction(10**103)), ("round-s3", Fraction(1, 10**400)),
        ("berger-s3", Fraction(10**308)), ("berger-s3", Fraction(1, 10**400))])
    def test_parameter_outside_float_volume(self, field, name, bad):
        # the volume 2 pi^2 / s^3 or 2 pi^2 t must be a normal positive float
        pname = "scale" if name == "round-s3" else "squash"
        with pytest.raises(ValueError, match=f"^{pname} out of range"):
            builtin(name, bad, field)

    def test_nonantisymmetric_rejected(self, field):
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = Fraction(1)  # missing the antisymmetric partner
        with pytest.raises(ValueError):
            FrameBackground.from_structure_constants("bad", c, field)

    def test_malformed_file(self, field, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"c": []}')
        with pytest.raises(ValueError):
            load_background(str(p), field)

    def test_json_round_trip_exact_volume(self, field, tmp_path):
        bg = load_background("builtin:h2xr", field)
        bg = FrameBackground.from_structure_constants(
            "h2xr-box", bg.c, field, volume=Fraction(22, 7))
        text = background_to_json(bg)
        p = tmp_path / "bg.json"
        p.write_text(text)
        again = load_background(str(p), field)
        assert again.name == bg.name
        assert again.c == bg.c
        assert again.W == bg.W
        assert again.starF == bg.starF
        assert again.volume == Fraction(22, 7)
        assert background_to_json(again) == text

    def test_json_round_trip_no_volume(self, field, tmp_path):
        bg = load_background("builtin:hyperbolic-h3", field)
        p = tmp_path / "h3.json"
        p.write_text(background_to_json(bg))
        again = load_background(str(p), field)
        assert again.c == bg.c
        assert again.volume is None
        assert background_to_json(again) == background_to_json(bg)

    def test_json_round_trip_builtin_float_volume(self, field, tmp_path):
        # float volumes serialize as decimal strings and come back as the
        # exact decimal rational; values agree to full float precision
        bg = load_background("builtin:round-s3", field)
        p = tmp_path / "s3.json"
        p.write_text(background_to_json(bg))
        again = load_background(str(p), field)
        assert again.c == bg.c
        assert abs(float(again.volume) - bg.volume) < 1e-12

    def test_connection_matches_standalone_koszul(self, catalog_case, field):
        bg, _ = catalog_case
        conn = levi_civita(field, bg.c)
        assert connection_form(field, conn) == bg.W
        # a native float c^k_ij enters through from_fraction: these are dyadic, so
        # each field builds the frame of their Fractions
        floats = [[[float(v) for v in row] for row in plane] for plane in bg.c]
        def held(c, f):
            b = FrameBackground.from_structure_constants(bg.name, c, f)
            return repr((b.c, b.conn, b.W.entries(), b.starF.entries(), b._frame, b._scale))

        for f in (field, FloatField(64)):
            assert held(floats, f) == held(bg.c, f)


class TestSharedFrames:
    """A catalog frame requested while another holder keeps it alive is that frame."""

    def test_same_request_same_frame_while_held(self, field):
        bg = builtin("berger-s3", Fraction(3, 7), field)
        assert builtin("berger-s3", "3/7", RationalField()) is bg
        assert load_background("builtin:berger-s3?squash=3/7", field) is bg
        s3 = closed_solution("s3").background
        assert builtin("round-s3") is s3
        assert load_background("builtin:round-s3") is s3
        assert closed_solution("s3").background is s3

    def test_unit_parameter_is_no_parameter(self, field):
        assert builtin("berger-s3", None, field) is builtin("berger-s3", 1, field)
        assert builtin("flat") is load_background("builtin:flat")

    def test_other_requests_other_frames(self, field):
        held = [builtin("berger-s3", 2, field), builtin("berger-s3", Fraction(3, 7), field),
                builtin("berger-s3", 2, FloatField(64)), builtin("berger-s3", 2, FloatField(128)),
                builtin("round-s3", 2, field)]
        assert len(set(map(id, held))) == len(held)
        assert builtin("berger-s3", 2, FloatField(64)) is held[2]
        assert builtin("berger-s3", 2, FloatField(64)).field.bits == 64

    def test_unheld_frame_is_collected_and_rebuilt(self, field):
        bg = builtin("hyperbolic-h3", 3, field)
        kept = weakref.ref(bg)
        del bg
        gc.collect()
        assert kept() is None
        assert "hyperbolic-h3?scale=3" not in [bg.name for bg in geometry._LIVE.values()]
        fresh = builtin("hyperbolic-h3", 3, field)
        assert fresh.W == load_background("builtin:hyperbolic-h3?scale=3", field).W

    def test_files_and_structure_constants_never_shared(self, field, tmp_path):
        bg = builtin("round-s3", 2, field)
        path = tmp_path / "s3.json"
        path.write_text(background_to_json(bg))
        assert load_background(str(path), field) is not load_background(str(path), field)
        made = FrameBackground.from_structure_constants(bg.name, bg.c, volume=bg.volume)
        assert made is not bg and builtin("round-s3", 2, field) is bg
        assert FrameBackground.from_structure_constants(bg.name, bg.c) is not made

    def test_other_field_types_built_fresh(self, field):
        class Rationals(RationalField):
            pass

        assert builtin("h2xr", field=Rationals()) is not builtin("h2xr", field=Rationals())

    @pytest.mark.parametrize("args", [("sphere",), ("flat", 2), ("round-s3", 0),
                                      ("berger-s3", Fraction(-1, 2))])
    def test_refusal_stores_nothing(self, field, args):
        held = builtin("round-s3", None, field)
        before = dict(geometry._LIVE)
        with pytest.raises(ValueError):
            builtin(*args, field=field)
        assert dict(geometry._LIVE) == before and builtin("round-s3") is held

    @pytest.mark.parametrize("uri", [uri for uri, _ in CATALOG])
    def test_shared_frame_gives_fresh_values(self, field, uri):
        free = free_data_from_doc(field, SEED0_FREE_DATA)

        def outputs(bg):  # the table, and the residuals with and without one b entry
            table = to_json(expand(bg, free, N=6))
            broken = from_json(table, background=bg)
            del broken._b[max(broken._b)]
            return table, check_residuals(from_json(table, background=bg)), check_residuals(broken)

        shared = load_background(uri, field)
        first = outputs(shared)  # reads the shared frame's columns
        assert first[1] == [] and first[2]
        assert load_background(uri, field) is shared
        geometry._LIVE.clear()
        fresh = load_background(uri, field)
        assert fresh is not shared
        assert outputs(fresh) == first == outputs(load_background(uri, field))
