"""Polyhomogeneous expansion engine: seeds, recursion, logs, residuals, JSON."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nahmpole import _float, series as series_module
from nahmpole.algebra import (
    EigenPart,
    GForm,
    bracket_0_1,
    cal_L,
    project,
    star_bracket_star,
    star_wedge,
    vierbein,
)
from nahmpole.geometry import builtin, is_einstein, load_background
from nahmpole.scalars import FloatField, RationalField
from nahmpole.series import (
    FreeData,
    PhgSeries,
    assert_parity,
    check_residuals,
    evaluate,
    expand,
    from_json,
    is_log_free,
    quadratic_source,
    residual_at,
    seed_leading,
    to_json,
)

from conftest import (
    CATALOG,
    SEED0_FREE_DATA,
    free_data_from_doc,
    rand_fraction,
    rand_one_form,
    rand_zero_form,
    rotated_h3_file,
)

MINUS, ZERO, PLUS = EigenPart.Minus, EigenPart.Zero, EigenPart.Plus


def _e(field, q):
    return vierbein(field).scale(Fraction(q))


def rand_free_data(rng, field):
    x = rand_one_form(rng, field)
    y = rand_one_form(rng, field)
    return FreeData(
        field=field,
        c_plus=project(x, PLUS),
        c_zero=project(y, ZERO),
        c_minus=project(y, MINUS),
    )


def matched_s3_free(field):
    return FreeData(field=field, c_minus=_e(field, Fraction(-2, 3)))


class TestSeeds:
    def test_round_sphere_zero_free_data(self, field):
        bg = load_background("builtin:round-s3", field)
        s = seed_leading(bg)
        assert s.get_b(1, 0) == _e(field, Fraction(-1, 3))
        assert s.get_a(2, 0).is_zero()
        assert s.get_phi(2, 0).is_zero()
        assert s.get_b(1, 1).is_zero()

    def test_berger_log_seed_is_curvature_obstruction(self, field):
        bg = load_background("builtin:berger-s3?squash=2", field)
        s = seed_leading(bg)
        want = project(bg.starF, PLUS)
        assert s.get_b(1, 1) == want
        for a in range(3):
            for i in range(3):
                assert want.coeffs[a][i] == ({(0, 0): 8, (1, 1): -4,
                                              (2, 2): -4}.get((a, i), 0))

    @pytest.mark.parametrize("uri", ["builtin:berger-s3?squash=2", "builtin:h2xr"])
    def test_leading_b_solves_its_equation(self, field, uri):
        # (1 + L) b_1 + b_{1,1} must equal *F exactly
        bg = load_background(uri, field)
        s = seed_leading(bg)
        assert cal_L(1, s.get_b(1, 0)) + s.get_b(1, 1) == bg.starF

    def test_free_data_lands_in_seed(self, field, rng):
        bg = load_background("builtin:round-s3", field)
        free = rand_free_data(rng, field)
        s = seed_leading(bg, free)
        assert project(s.get_b(1, 0), PLUS) == free.c_plus
        assert project(s.get_a(2, 0), ZERO) == free.c_zero
        assert project(s.get_a(2, 0), MINUS) == free.c_minus


class TestFreeData:
    def test_eigenspace_validation(self, field, rng):
        x = rand_one_form(rng, field)
        bad = x - project(x, PLUS) + vierbein(field)
        with pytest.raises(ValueError):
            FreeData(field=field, c_plus=vierbein(field))
        with pytest.raises(ValueError):
            FreeData(field=field, c_zero=bad)

    def test_defaults_are_zero(self, field):
        free = FreeData.zero(field)
        assert free.c_plus.is_zero()
        assert free.c_zero.is_zero()
        assert free.c_minus.is_zero()

    def test_needs_field_or_form(self):
        with pytest.raises(ValueError):
            FreeData()

    def test_off_eigenspace_message_names_the_form(self, field):
        bad = GForm.one_form(field, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        for label in ("c_plus", "c_zero", "c_minus"):
            with pytest.raises(ValueError) as err:
                FreeData(field=field, **{label: bad})
            assert str(err.value) == f"{label} is not in its declared eigenspace"

    def test_only_passed_forms_are_projected(self, field, monkeypatch):
        bg = load_background("builtin:berger-s3?squash=2", field)
        prebuilt = FreeData.zero(field)
        calls = []

        def counted(a, part):
            calls.append(part)
            return project(a, part)

        monkeypatch.setattr(series_module, "project", counted)
        seed_leading(bg, prebuilt)
        seed_calls, calls[:] = len(calls), []
        seed_leading(bg)  # its zero free data is made, never projected
        assert len(calls) == seed_calls
        calls.clear()
        FreeData(field=field, c_minus=vierbein(field))
        assert calls == [MINUS]


class TestClosedFormCoefficients:
    """The engine must land exactly on the Taylor data of the closed-form
    profiles when fed their matched free data."""

    def test_round_sphere_matched(self, field):
        bg = load_background("builtin:round-s3", field)
        s = expand(bg, matched_s3_free(field), N=6)
        expect_a = {2: Fraction(-2, 3), 4: Fraction(2, 9), 6: Fraction(-4, 135)}
        expect_b = {1: Fraction(-1, 3), 3: Fraction(-1, 45), 5: Fraction(58, 945)}
        for k, q in expect_a.items():
            assert s.get_a(k, 0) == _e(field, q)
        for k, q in expect_b.items():
            assert s.get_b(k, 0) == _e(field, q)
        # nothing else is stored and no phi_y appears
        for (k, p) in s.addresses():
            assert p == 0
            assert s.get_phi(k, p).is_zero()

    def test_round_sphere_quadratic_sources(self, field):
        # the two hand-derived convolution values behind b_3 and a_4
        bg = load_background("builtin:round-s3", field)
        s = expand(bg, matched_s3_free(field), N=4)
        q = quadratic_source(s, 3, 0)
        assert q.Qb == _e(field, Fraction(-1, 9))
        assert q.Qa == _e(field, Fraction(4, 9))
        assert q.Qphi.is_zero()

    def test_hyperbolic_zero_free_data(self, field):
        bg = load_background("builtin:hyperbolic-h3", field)
        s = expand(bg, N=6)
        expect_b = {1: Fraction(1, 3), 3: Fraction(-1, 45), 5: Fraction(2, 945)}
        for k, q in expect_b.items():
            assert s.get_b(k, 0) == _e(field, q)
        # the connection never moves off the background
        for (k, p) in s.addresses():
            assert s.get_a(k, p).is_zero()

    def test_flat_is_exactly_trivial(self, field):
        bg = load_background("builtin:flat", field)
        s = expand(bg, N=10)
        assert list(s.addresses()) == []
        assert is_log_free(s)
        assert check_residuals(s) == []


def reference_source(series, k, p):
    """The quadratic sources as plain per-pair sums over ordered pairs, each
    product a form of its own and each a^a, b^b pair halved on its own."""
    A, B, PHI = series._a, series._b, series._phi
    Qa, Qb, Qphi = [], [], []
    for k1 in range(1, k):
        for p1 in range(p + 1):
            a1, phi1, b2 = A.get((k1, p1)), PHI.get((k1, p1)), B.get((k - k1, p - p1))
            if a1 is not None and b2 is not None:
                Qa.append(star_wedge(a1, b2))
                Qphi.append(-star_bracket_star(a1, b2))
            if phi1 is not None and b2 is not None:
                Qa.append(bracket_0_1(phi1, b2))
    for k1 in range(1, k - 1):
        for p1 in range(p + 1):
            at1, at2 = (k1, p1), (k - 1 - k1, p - p1)
            if at1 in A and at2 in A:
                Qb.append(star_wedge(A[at1], A[at2]).scale(Fraction(1, 2)))
            if at1 in B and at2 in B:
                Qb.append(star_wedge(B[at1], B[at2]).scale(Fraction(-1, 2)))
            if at1 in A and at2 in PHI:
                Qb.append(-bracket_0_1(PHI[at2], A[at1]))
    return series_module.QuadSource(
        *(sum(q[1:], q[0]) if q else None for q in (Qa, Qb, Qphi)))


class TestQuadraticSource:
    @pytest.mark.parametrize("uri", ["berger-s3?squash=2", "h2xr"])
    @pytest.mark.parametrize("free", [False, True], ids=["zero", "seed0"])
    def test_fused_source_equals_pair_sum(self, field, monkeypatch, uri, free):
        # at every (k, p) the solver visits, on the table as it stands then
        fused, seen = series_module.quadratic_source, []

        def checked(series, k, p):
            got, want = fused(series, k, p), reference_source(series, k, p)
            assert got == want, (k, p)
            seen.append((k, p))
            return got

        monkeypatch.setattr(series_module, "quadratic_source", checked)
        data = free_data_from_doc(field, SEED0_FREE_DATA) if free else None
        expand(load_background(f"builtin:{uri}", field), data, N=12)
        assert len(seen) >= 11


#: Entry denominators: 1 and pairwise coprime primes, so a source's running
#: denominator has to widen as the pairs of other entries arrive.
_COPRIME = (1, 2, 3, 5, 7, 11, 13, 17)
_entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_COPRIME))
_forms = st.fixed_dictionaries({}, optional={
    "a": st.lists(_entry, min_size=9, max_size=9),
    "b": st.lists(_entry, min_size=9, max_size=9),
    "phi_y": st.lists(_entry, min_size=3, max_size=3)})


@st.composite
def random_source_tables(draw):
    """Random rational forms (not a solution) at a few addresses k <= 7,
    p <= 3; every stored a or b also pairs with itself on a diagonal."""
    field = RationalField()
    series = PhgSeries(field=field, order=7)
    for k, p in sorted(draw(st.sets(st.tuples(st.integers(1, 7), st.integers(0, 3)),
                                    min_size=1, max_size=8))):
        forms = {name: GForm.from_entries(field, v)
                 for name, v in draw(_forms).items()}
        series._store(k, p, list(forms.values()), **forms)
    return series


@given(random_source_tables())
def test_quadratic_source_is_the_pair_sum(series):
    # every (k, p) a pair of stored entries can reach: k1 + k2 <= 14, p1 + p2 <= 6
    for k in range(2, 16):
        for p in range(7):
            assert quadratic_source(series, k, p) == reference_source(series, k, p), (k, p)


class TestStructuralTheorems:
    def test_log_free_iff_einstein(self, catalog_case, field, rng):
        bg, einstein = catalog_case
        for _ in range(3):
            s = expand(bg, rand_free_data(rng, field), N=6)
            assert is_log_free(s) is einstein

    @pytest.mark.parametrize("uri", [
        "builtin:berger-s3?squash=1/2",
        "builtin:berger-s3?squash=2",
        "builtin:berger-s3?squash=3",
        "builtin:h2xr",
    ])
    def test_first_log_is_curvature_obstruction(self, field, uri):
        bg = load_background(uri, field)
        s = expand(bg, N=4)
        assert not is_log_free(s)
        assert s.get_b(1, 1) == project(bg.starF, PLUS)
        assert s.get_a(1, 1).is_zero()
        assert s.get_phi(1, 1).is_zero()
        # (1, 1) is the lowest-order log anywhere in the table
        logs = sorted((k, p) for (k, p) in s.addresses() if p >= 1)
        assert logs[0] == (1, 1)

    def test_log_depth_bounded_by_order(self, catalog_case, field, rng):
        bg, _ = catalog_case
        s = expand(bg, rand_free_data(rng, field), N=6)
        for (k, p) in s.addresses():
            assert p <= k

    def test_parity(self, catalog_case, field, rng):
        bg, _ = catalog_case
        s = expand(bg, rand_free_data(rng, field), N=8)
        assert assert_parity(s) == []

    def test_parity_violations_are_listed(self, field, rng):
        s = expand(load_background("builtin:berger-s3?squash=2", field), N=6)
        s._a[(5, 1)] = s._a[(3, 0)] = rand_one_form(rng, field)
        s._b[(4, 2)] = rand_one_form(rng, field)
        s._phi[(7, 0)] = rand_zero_form(rng, field)
        assert assert_parity(s) == [("a", 3, 0), ("a", 5, 1), ("b", 4, 2),
                                    ("phi_y", 7, 0)]

    def test_free_data_enters_affinely_at_low_order(self, field, rng):
        bg = load_background("builtin:round-s3", field)
        f1 = rand_free_data(rng, field)
        f2 = rand_free_data(rng, field)
        s0 = expand(bg, FreeData.zero(field), N=2)
        s1 = expand(bg, f1, N=2)
        s2 = expand(bg, f2, N=2)
        s12 = expand(bg, FreeData(field=field, **{
            key: getattr(f1, key) + getattr(f2, key)
            for key in ("c_plus", "c_zero", "c_minus")}), N=2)
        for (k, p) in {(1, 0), (1, 1), (2, 0), (2, 1)}:
            for get in ("get_a", "get_b", "get_phi"):
                v0 = getattr(s0, get)(k, p)
                lhs = getattr(s12, get)(k, p) - v0
                rhs = (getattr(s1, get)(k, p) - v0) + (getattr(s2, get)(k, p) - v0)
                assert lhs == rhs


class TestResiduals:
    def test_zero_through_order_eight(self, catalog_case, field, rng):
        bg, _ = catalog_case
        s = expand(bg, rand_free_data(rng, field), N=8)
        assert check_residuals(s) == []

    def test_independent_of_the_solver(self, field, rng, monkeypatch):
        # the residual reads the flow's term tables; no solve step may run
        s = expand(load_background("builtin:berger-s3?squash=2", field),
                   rand_free_data(rng, field), N=8)

        def solver(*args, **kwargs):
            raise AssertionError("the residual ran solver code")
        for name in ("seed_leading", "advance_order", "quadratic_source",
                     "invert_cal_L", "resolve_coupled"):
            monkeypatch.setattr(series_module, name, solver)
        assert check_residuals(s) == []

    def test_corrupted_coefficient_is_detected(self, field):
        bg = load_background("builtin:round-s3", field)
        s = expand(bg, matched_s3_free(field), N=4)
        Ra, Rb, Rphi = residual_at(s, 3, 0)
        assert Ra.is_zero() and Rb.is_zero() and Rphi.is_zero()
        s._b[(3, 0)] = s.get_b(3, 0) + _e(field, Fraction(1, 7))
        Ra, Rb, Rphi = residual_at(s, 3, 0)
        assert not Rb.is_zero()
        assert check_residuals(s) != []

    @pytest.mark.parametrize("uri, table, k, p", [
        ("builtin:round-s3", "_a", 3, 0),            # an odd-k a
        ("builtin:hyperbolic-h3", "_a", 4, 1),       # a log on an Einstein table
        ("builtin:berger-s3?squash=2", "_b", 3, 4),  # at the top stored depth
    ])
    def test_isolated_entry_is_detected(self, field, rng, uri, table, k, p):
        # nothing is stored next to (k, p), so the residual terms that skip
        # absent entries must still read the spurious one
        s = expand(load_background(uri, field), N=8)
        around = {(k - 1, p), (k + 1, p), (k, p - 1), (k, p + 1)}
        assert (k, p) not in getattr(s, table)
        assert not around & set(s.addresses())
        assert p >= s.max_p()  # at or above the top stored depth
        getattr(s, table)[(k, p)] = rand_one_form(rng, field)
        assert (k, p, table[1:]) in check_residuals(s)

    def test_through_checks_a_lower_order(self, field):
        s = expand(load_background("builtin:round-s3", field), matched_s3_free(field), N=4)
        for through in (1, 3, 4):
            assert check_residuals(s, through=through) == []

    @pytest.mark.parametrize("through", [5, 6, 0, -1])
    def test_through_outside_computed_orders_rejected(self, field, through):
        # b_5 was never computed, so through=6 would report it as a violation;
        # a negative through would check nothing
        s = expand(load_background("builtin:round-s3", field), matched_s3_free(field), N=4)
        with pytest.raises(ValueError, match="outside the computed orders"):
            check_residuals(s, through=through)

    def test_requires_background(self, field):
        s = PhgSeries(field=field, order=2, background_name="detached")
        with pytest.raises(ValueError):
            residual_at(s, 1, 0)


class TestExpandApi:
    def test_rejects_low_order(self, field):
        bg = load_background("builtin:flat", field)
        with pytest.raises(ValueError):
            expand(bg, N=1)

    def test_determinism(self, field, rng):
        bg = load_background("builtin:berger-s3?squash=2", field)
        free = rand_free_data(rng, field)
        t1 = to_json(expand(bg, free, N=5))
        t2 = to_json(expand(bg, free, N=5))
        assert t1 == t2

    def test_float_mode_tracks_rational(self, rng):
        rat = expand(load_background("builtin:berger-s3?squash=2"), N=5)
        ff = FloatField(128)
        flo = expand(load_background("builtin:berger-s3?squash=2", ff), N=5)
        for (k, p) in rat.addresses():
            for get in ("get_a", "get_b", "get_phi"):
                exact = getattr(rat, get)(k, p)
                approx = getattr(flo, get)(k, p)
                ev = exact.to_floats()
                av = approx.to_floats()
                if exact.degree == 0:
                    pairs = zip(ev, av)
                else:
                    pairs = ((x, y) for re_, ra_ in zip(ev, av)
                             for x, y in zip(re_, ra_))
                for x, y in pairs:
                    assert abs(x - y) <= 1e-10


class TestEvaluate:
    def test_domain(self, field):
        s = expand(load_background("builtin:round-s3", field), N=4)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                evaluate(s, bad)

    def test_truncation_cannot_exceed_order(self, field):
        s = expand(load_background("builtin:round-s3", field), N=4)
        with pytest.raises(ValueError):
            evaluate(s, 0.3, N=6)

    def test_background_terms_present(self, field):
        bg = load_background("builtin:round-s3", field)
        s = expand(bg, N=2)
        A, Phi, Phi_y = evaluate(s, 0.5)
        # A = W + O(y^2), Phi = e/y + O(y)
        assert abs(A[0][0] - 1.0) < 0.2
        assert abs(Phi[0][0] - 2.0) < 0.2
        assert abs(Phi_y[0]) < 1e-14

    def test_matches_exact_sum(self, field):
        # a V0 free datum makes phi_y nonzero, so all three sums are used
        c_zero = GForm.one_form(field, [[0, 1, 0], [-1, 0, 2], [0, -2, 0]])
        bg = load_background("builtin:round-s3", field)
        s = expand(bg, FreeData(field=field, c_zero=c_zero), N=4)
        assert is_log_free(s) and s._phi
        y = Fraction(1, 10)
        want = [bg.W, vierbein(field).divide(y), GForm.zero(field, 0)]
        for k, _ in s.addresses():
            if k > s.order:
                continue
            for i, form in enumerate((s.get_a(k, 0), s.get_b(k, 0),
                                      s.get_phi(k, 0))):
                want[i] = want[i] + form.scale(y ** k)
        for got, w in zip(evaluate(s, float(y)), want):
            w = np.array(w.to_floats())
            assert np.max(np.abs(got - w)) <= 1e-15 * np.max(np.abs(w))


class TestSerialization:
    def test_round_trip_bytes(self, field, rng):
        bg = load_background("builtin:h2xr", field)
        s = expand(bg, rand_free_data(rng, field), N=5)
        text = to_json(s)
        again = from_json(text, background=bg)
        assert to_json(again) == text

    def test_round_trip_preserves_table(self, field):
        bg = load_background("builtin:berger-s3?squash=2", field)
        s = expand(bg, N=4)
        again = from_json(to_json(s), background=bg)
        assert sorted(again.addresses()) == sorted(s.addresses())
        for (k, p) in s.addresses():
            assert again.get_a(k, p) == s.get_a(k, p)
            assert again.get_b(k, p) == s.get_b(k, p)
            assert again.get_phi(k, p) == s.get_phi(k, p)
        assert check_residuals(again) == []

    def test_background_name_mismatch(self, field):
        s = expand(load_background("builtin:round-s3", field), N=2)
        other = load_background("builtin:flat", field)
        with pytest.raises(ValueError):
            from_json(to_json(s), background=other)

    def test_rational_series_on_a_float_background_is_refused(self):
        text = to_json(expand(load_background("builtin:h2xr"), N=4))
        bg = load_background("builtin:h2xr", FloatField(128))
        with pytest.raises(ValueError, match="rational series cannot be read on a float"):
            from_json(text, background=bg, field=RationalField())

    def test_float_series_on_a_rational_background_is_refused(self):
        text = to_json(expand(load_background("builtin:h2xr", FloatField(128)), N=4))
        bg = load_background("builtin:h2xr")
        with pytest.raises(ValueError, match="float series cannot be read on a rational"):
            from_json(text, background=bg, field=FloatField(128))

    def test_wider_float_series_on_a_narrower_background_is_refused(self):
        # read on a 64-bit background, this table's check_residuals listed 5 cells
        text = to_json(expand(load_background("builtin:h2xr", FloatField(128)), N=6))
        bg = load_background("builtin:h2xr", FloatField(64))
        with pytest.raises(ValueError, match="a 128-bit float series cannot be read on "
                                             "a 64-bit float background"):
            from_json(text, background=bg, field=FloatField(128))

    def test_narrower_float_series_on_a_wider_background_is_refused(self):
        text = to_json(expand(load_background("builtin:h2xr", FloatField(64)), N=6))
        bg = load_background("builtin:h2xr", FloatField(128))
        with pytest.raises(ValueError, match="a 64-bit float series cannot be read on "
                                             "a 128-bit float background"):
            from_json(text, background=bg, field=FloatField(64))

    def test_float_series_round_trip(self):
        ff = FloatField(128)
        bg = load_background("builtin:round-s3", ff)
        s = expand(bg, N=4)
        text = to_json(s)
        again = from_json(text, background=bg)
        assert to_json(again) == text


#: The float sweep: the Einstein models and the Berger sphere over a small,
#: a moderate and a large scale, plus the two parameterless models.
SWEEP = [f"{name}?{param}={value}"
         for name, param in (("round-s3", "scale"), ("hyperbolic-h3", "scale"),
                             ("berger-s3", "squash"))
         for value in ("1/5", "2", "5")] + ["flat", "h2xr"]

#: The exactly rotated hyperbolic frame (``rotated_h3_file``) at two large
#: scales, where absolute zero tests misjudge curls and curvature.
ROTATED = [f"rotated-h3?scale={value}" for value in (1000, 100000)]

#: Float precisions and the relative agreement with rational each keeps.
FLOAT_RTOL = ((64, Fraction(1, 10**15)), (128, Fraction(1, 10**30)))


def _source(uri, tmp_path):
    """A sweep entry as a background source: a builtin URI or a file."""
    name, _, scale = uri.partition("?scale=")
    if name == "rotated-h3":
        return rotated_h3_file(tmp_path, int(scale))
    return f"builtin:{uri}"


def _tracked_tables(source):
    """Per precision, ``(field, rtol, float table, rational table)`` at
    N = 16, once float mode is seen to keep the rational Einstein verdict and
    address set, also through a JSON round trip."""
    exact_bg = load_background(source, RationalField())
    exact = expand(exact_bg, N=16)
    for bits, rtol in FLOAT_RTOL:
        field = FloatField(bits)
        bg = load_background(source, field)
        assert is_einstein(bg) == is_einstein(exact_bg), bits
        got = expand(bg, N=16)
        assert got.addresses() == exact.addresses(), bits
        again = from_json(to_json(got), field=field)
        assert again.addresses() == exact.addresses(), bits
        yield field, rtol, got, exact


def _form_entries(got, exact):
    """``(float entries, exact entries)`` of every form of the table."""
    for k, p in exact.addresses():
        for name in ("a", "b", "phi_y"):
            yield (getattr(got.at(k, p), name).entries(),
                   getattr(exact.at(k, p), name).entries())


@pytest.mark.parametrize("uri", SWEEP)
def test_float_tracks_rational(uri):
    """Float mode keeps the rational verdicts and addresses at N = 16 --
    genuine small coefficients included (b_{13,0} ~ 3.6e-17 on
    round-s3?scale=1/5) -- and agrees per entry to
    |float - exact| <= rtol * max(|exact|, 1)."""
    for field, rtol, got, exact in _tracked_tables(f"builtin:{uri}"):
        for gs, ws in _form_entries(got, exact):
            for g, w in zip(gs, ws):
                assert abs(field.to_fraction(g) - w) <= rtol * max(abs(w), 1)


@pytest.mark.parametrize("uri", ROTATED)
def test_float_tracks_rational_on_rotated_frame(uri, tmp_path):
    """As :func:`test_float_tracks_rational`, but the rotated frame fills
    every entry, so an exactly zero entry carries the round-off of its form
    (whose entries reach about scale^17): agreement is judged per form,
    |float - exact| <= rtol * max |exact entry of the form|."""
    for field, rtol, got, exact in _tracked_tables(_source(uri, tmp_path)):
        for gs, ws in _form_entries(got, exact):
            bound = rtol * max(map(abs, ws))
            for g, w in zip(gs, ws):
                assert abs(field.to_fraction(g) - w) <= bound


@pytest.mark.parametrize("uri", SWEEP + ROTATED + ["round-s3?scale=7"])
def test_float_residuals_vanish(uri, tmp_path):
    """Over float scalars each residual is judged against the largest term
    that entered it, so tables that track the rational ones pass."""
    source = _source(uri, tmp_path)
    for bits in (64, 128):
        got = expand(load_background(source, FloatField(bits)), N=16)
        assert check_residuals(got) == [], bits


def _cyclic_star_d(field, terms, x):
    """``*(dx)`` summed over the cyclic terms (``half > 0``) of ``terms`` without
    the 1/2: the same map as ``_float._star_d``, with another float summation
    order."""
    out = [field.zero] * 9
    for i, m, cijk, half in terms:
        if half > 0:
            for a in range(3):
                out[3 * a + m] = out[3 * a + m] - x.coeffs[a][i] * cijk
    return out


def test_float_residual_scale_covers_frame_products(tmp_path, monkeypatch):
    # the frame operators' terms cancel below their products |x| |c| and
    # |x| |W| on this frame; a scale without those products rejected
    # (8, 0, 'phi_y') once *dx summed in this order
    source = rotated_h3_file(tmp_path, 10**5)
    exact = load_background(source, RationalField())
    x, terms = exact.W + exact.starF, _float._star_d_terms(exact.field, exact.c)
    assert (_cyclic_star_d(exact.field, terms, x)
            == _float._star_d(exact.field, terms, x))
    monkeypatch.setattr(_float, "_star_d", _cyclic_star_d)
    got = expand(load_background(source, FloatField(64)), N=16)
    assert check_residuals(got) == []


@pytest.mark.parametrize("bits", [64, 128])
def test_float_keeps_near_einstein_obstruction(bits):
    # non-Einstein by a relative 1e-12: a zero rule that is too loose calls
    # the background Einstein and drops b_{1,1}, the root of every log term
    uri = "builtin:berger-s3?squash=1000000000001/1000000000000"
    bg = load_background(uri, FloatField(bits))
    assert not is_einstein(bg)
    assert (1, 1) in seed_leading(bg)._b
    assert (seed_leading(bg).addresses()
            == seed_leading(load_background(uri, RationalField())).addresses())


@pytest.mark.parametrize("bits", [64, 128])
def test_float_residuals_see_relative_errors(bits):
    # a relative error far above round-off, in one entry, is still reported
    field = FloatField(bits)
    s = expand(load_background("builtin:berger-s3?squash=5", field), N=8)
    b = s.get_b(5, 1)
    s._b[(5, 1)] = b + b.scale(field.from_fraction(Fraction(1, 10**12)))
    assert (5, 1, "b") in check_residuals(s)


def _detached_series():
    """A round-s3 series through N=2, read back from its JSON: no background."""
    return from_json(to_json(expand(load_background("builtin:round-s3"), N=2)))


#: (id, call, message) of ValueError refusals that no other test reaches.
REFUSALS = [
    ("series-no-field", lambda: PhgSeries(), "need a background or an explicit scalar field"),
    ("advance-order-1", lambda: series_module.advance_order(
        PhgSeries(field=RationalField()), 1),
     "advance_order starts at k = 2; lower orders are seeded"),
    ("evaluate-detached", lambda: evaluate(_detached_series(), 0.1),
     "series has no background attached"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
