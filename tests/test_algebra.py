"""Frame algebra: products, spectral decomposition, coupled solves, sigma modules."""

from fractions import Fraction

import pytest

from nahmpole.algebra import (
    EigenPart,
    GForm,
    ResonantOrder,
    SigmaModule,
    SingularLambda,
    bracket_0_1,
    cal_L,
    e_bracket,
    gamma_op,
    invert_cal_L,
    leading_order_structure,
    project,
    resolve_coupled,
    star_bracket_star,
    star_wedge,
    vierbein,
    L_op,
    _harmonic_basis,
    _kernel_sum,
    _monomials,
)
from nahmpole.geometry import (
    FrameBackground,
    d_omega_star,
    load_background,
    star_d_omega,
)
from nahmpole.scalars import FloatField, RationalField, context

from conftest import rand_fraction, rand_frame_c, rand_one_form, rand_zero_form
from dense import nullspace, rref, solve_dense


MINUS, ZERO, PLUS = EigenPart.Minus, EigenPart.Zero, EigenPart.Plus


class TestGForm:
    def test_add_sub_neg(self, field, rng):
        x = rand_one_form(rng, field)
        y = rand_one_form(rng, field)
        assert (x + y) - y == x
        assert x + (-x) == GForm.zero(field, 1)

    def test_degree_mismatch_rejected(self, field, rng):
        with pytest.raises(ValueError):
            rand_one_form(rng, field) + rand_zero_form(rng, field)

    def test_scale_divide_inverse(self, field, rng):
        x = rand_one_form(rng, field)
        s = Fraction(5, 3)
        assert x.scale(s).divide(s) == x

    def test_trace_only_on_one_forms(self, field):
        with pytest.raises(ValueError):
            GForm.zero(field, 0).trace()
        assert vierbein(field).trace() == Fraction(3)

    def test_is_zero(self, field):
        assert GForm.zero(field, 1).is_zero()
        assert not vierbein(field).is_zero()


class TestProducts:
    def test_star_wedge_is_symmetric(self, field, rng):
        for _ in range(20):
            x = rand_one_form(rng, field)
            y = rand_one_form(rng, field)
            assert star_wedge(x, y) == star_wedge(y, x)

    def test_star_bracket_star_is_antisymmetric(self, field, rng):
        for _ in range(20):
            x = rand_one_form(rng, field)
            y = rand_one_form(rng, field)
            assert star_bracket_star(x, y) == -star_bracket_star(y, x)
            assert star_bracket_star(x, x).is_zero()

    def test_star_wedge_of_vierbein_is_L(self, field, rng):
        # *[x ^ e] and *[e ^ x] both reduce to the linear operator L
        e = vierbein(field)
        for _ in range(10):
            x = rand_one_form(rng, field)
            assert star_wedge(x, e) == L_op(x)
            assert star_wedge(e, x) == L_op(x)

    def test_bracket_0_1_against_structure_constants(self, field, rng):
        # ([phi, x])_{ck} = eps_{abc} phi_a x_{bk}, checked entrywise
        phi = rand_zero_form(rng, field)
        x = rand_one_form(rng, field)
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (2, 1, 0): -1, (0, 2, 1): -1, (1, 0, 2): -1}
        got = bracket_0_1(phi, x)
        for c in range(3):
            for k in range(3):
                want = field.zero
                for (a, b, cc), s in eps.items():
                    if cc == c:
                        want = want + phi.coeffs[a] * x.coeffs[b][k] * field.from_fraction(s)
                assert got.coeffs[c][k] == want


# Dense reference formulas of the three bilinear kernels, written out over
# the cyclic triples: every product is taken, zero or not.
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def dense_star_wedge(x, y):
    X, Y = x.coeffs, y.coeffs
    out = [[None] * 3 for _ in range(3)]
    for i, j, k in _CYCLIC:
        for a, b, c in _CYCLIC:
            out[c][k] = (X[a][i] * Y[b][j] - X[b][i] * Y[a][j]
                         - X[a][j] * Y[b][i] + X[b][j] * Y[a][i])
    return GForm(x.field, 1, tuple(tuple(r) for r in out))


def dense_bracket_0_1(phi, x):
    P, X = phi.coeffs, x.coeffs
    out = [None] * 3
    for a, b, c in _CYCLIC:
        out[c] = tuple(P[a] * X[b][i] - P[b] * X[a][i] for i in range(3))
    return GForm(phi.field, 1, tuple(out))


def dense_star_bracket_star(x, y):
    X, Y = x.coeffs, y.coeffs
    out = [None] * 3
    for a, b, c in _CYCLIC:
        out[c] = (X[a][0] * Y[b][0] + X[a][1] * Y[b][1] + X[a][2] * Y[b][2]
                  - X[b][0] * Y[a][0] - X[b][1] * Y[a][1] - X[b][2] * Y[a][2])
    return GForm(x.field, 0, tuple(out))


#: (sparse kernel, dense reference, degree of the first argument)
KERNELS = ((star_wedge, dense_star_wedge, 1),
           (bracket_0_1, dense_bracket_0_1, 0),
           (star_bracket_star, dense_star_bracket_star, 1))
kernels = pytest.mark.parametrize("kernel, dense, degree", KERNELS,
                                  ids=[k[0].__name__ for k in KERNELS])


def shaped_pairs(rng, field, degree):
    """Random argument pairs of the shapes the engine meets, by entry
    pattern: dense, diagonal (every zero-free-data table entry), one unit
    entry (the operator tables are read off these), a sparse off-diagonal
    pattern and free-data eigenspace parts; each in both orders."""
    def form(keep):
        return GForm.from_entries(field, [
            field.from_fraction(rand_fraction(rng)) if keep(i) else field.zero
            for i in range(9)])

    unit = rng.randrange(9)
    pairs = [(form(keep), form(lambda i: True)) for keep in (
        lambda i: True, lambda i: i % 4 == 0, lambda i: i == unit,
        lambda i: i in (1, 2, 5))]
    x = rand_one_form(rng, field)
    pairs += [(project(x, PLUS), project(x, ZERO)),
              (project(x, ZERO), project(x, MINUS)),
              (GForm.zero(field, 1), x)]
    for x, y in pairs + [(y, x) for x, y in pairs]:
        # a 0-form first argument takes the diagonal of the 1-form
        yield (x if degree else GForm.from_entries(field, x.entries()[::4])), y


class TestSparseKernels:
    """The table-driven kernels against their dense formulas."""

    @kernels
    def test_rational_exact(self, field, rng, kernel, dense, degree):
        for _ in range(10):
            for x, y in shaped_pairs(rng, field, degree):
                assert kernel(x, y) == dense(x, y)

    @kernels
    def test_float128_within_tolerance(self, rng, kernel, dense, degree):
        ff = FloatField(128)
        with context(ff):  # the dense reference's products, at 128 bits
            for x, y in shaped_pairs(rng, ff, degree):
                got, want = kernel(x, y).entries(), dense(x, y).entries()
                assert all(abs(g - w) <= ff.tolerance for g, w in zip(got, want))

    @kernels
    @pytest.mark.parametrize("sign", [1, -1])
    def test_accumulate_adds_signed_kernel(self, field, rng, kernel, dense, degree, sign):
        # a signed kernel term summed after another one, into the same slots
        pairs = list(shaped_pairs(rng, field, degree))
        for (u, v), (x, y) in zip(pairs, pairs[1:]):
            want = dense(u, v) + dense(x, y).scale(field.from_fraction(sign))
            got = _kernel_sum(field, len(want.entries()), [(1, u, kernel, v),
                                                           (sign, x, kernel, y)])
            assert got == want


#: Distinct primes, so the denominators of a form are pairwise coprime and
#: its common denominator is their full product.
_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1,
           2**521 - 1, 2**607 - 1, 10**9 + 7, 10**9 + 9)


class TestIntegerKernelPath:
    """All-Fraction operands take the integer-numerator loop of
    :func:`_kernel_sum`; any other entry type sends them down its scalar loop.
    Both are held against the dense formulas."""

    @kernels
    def test_large_coprime_denominators(self, field, rng, kernel, dense, degree):
        for _ in range(5):
            x, y = (GForm.from_entries(field, [
                Fraction(rng.randint(-10**40, 10**40), q)
                for q in rng.sample(_PRIMES, 9)]) for _ in range(2))
            if not degree:
                x = GForm.from_entries(field, x.entries()[:3])
            assert kernel(x, y) == dense(x, y)

    @kernels
    def test_sparse_and_single_entry_forms(self, field, rng, kernel, dense, degree):
        def form(nonzero, n=9):
            return GForm.from_entries(field, [
                Fraction(rng.randint(1, 99), rng.randint(1, 50)) * rng.choice((1, -1))
                if i in nonzero else field.zero for i in range(n)])

        n = 9 if degree else 3
        for i in range(n):
            for j in range(9):
                x, y = form({i}, n), form({j})
                assert kernel(x, y) == dense(x, y)
        for _ in range(20):
            x, y = form(set(rng.sample(range(n), 2)), n), form(set(rng.sample(range(9), 2)))
            assert kernel(x, y) == dense(x, y)
            zero = GForm.zero(field, x.degree)
            assert kernel(zero, y) == dense(zero, y)

    @kernels
    def test_fraction_against_bigfloat_form(self, field, rng, kernel, dense, degree):
        ff = FloatField(128)
        with context(ff):  # the dense reference's products, at 128 bits
            for x, y in shaped_pairs(rng, field, degree):
                # a Fraction meets a float element only through from_fraction
                xf, yf = (GForm.from_entries(ff, [ff.from_fraction(v) for v in z.entries()])
                          for z in (x, y))
                got, want = kernel(xf, yf).entries(), dense(xf, yf).entries()
                assert all(abs(g - w) <= ff.tolerance for g, w in zip(got, want))
                exact = [ff.from_fraction(v) for v in kernel(x, y).entries()]
                assert all(abs(g - w) <= ff.tolerance for g, w in zip(got, exact))


class TestLAndGamma:
    def test_L_closed_form(self, field, rng):
        # L(x) = tr(x) I - x^T
        for _ in range(25):
            x = rand_one_form(rng, field)
            tr = x.trace()
            got = L_op(x)
            for a in range(3):
                for i in range(3):
                    want = -x.coeffs[i][a]
                    if a == i:
                        want = want + tr
                    assert got.coeffs[a][i] == want

    def test_L_of_vierbein(self, field):
        e = vierbein(field)
        assert L_op(e) == e.scale(2)
        assert gamma_op(e).is_zero()

    def test_gamma_e_bracket_pairing(self, field, rng):
        for _ in range(15):
            phi = rand_zero_form(rng, field)
            a = rand_one_form(rng, field)
            assert gamma_op(e_bracket(phi)) == phi.scale(2)
            assert e_bracket(gamma_op(a)) == project(a, ZERO).scale(2)
            assert gamma_op(a) == gamma_op(project(a, ZERO))

    def test_eigenvalues(self, field, rng):
        lam = {MINUS: 2, ZERO: 1, PLUS: -1}
        for _ in range(25):
            x = rand_one_form(rng, field)
            for part, mu in lam.items():
                px = project(x, part)
                assert L_op(px) == px.scale(mu)


class TestProjectors:
    def test_completeness_idempotence_orthogonality(self, field, rng):
        for _ in range(100):
            x = rand_one_form(rng, field)
            parts = {part: project(x, part) for part in EigenPart}
            total = parts[MINUS] + parts[ZERO] + parts[PLUS]
            assert total == x
            for part, px in parts.items():
                assert project(px, part) == px
                for other in EigenPart:
                    if other is not part:
                        assert project(px, other).is_zero()

    def test_part_shapes(self, field, rng):
        # V- is the trace line, V0 the antisymmetric matrices, V+ the
        # traceless symmetric ones.
        x = rand_one_form(rng, field)
        pm = project(x, MINUS)
        assert all(pm.coeffs[a][i] == 0 for a in range(3) for i in range(3) if a != i)
        assert pm.coeffs[0][0] == pm.coeffs[1][1] == pm.coeffs[2][2]
        pz = project(x, ZERO)
        assert all(pz.coeffs[a][i] == -pz.coeffs[i][a] for a in range(3) for i in range(3))
        pp = project(x, PLUS)
        assert pp.trace() == 0
        assert all(pp.coeffs[a][i] == pp.coeffs[i][a] for a in range(3) for i in range(3))

    def test_float_field_residuals(self, rng):
        f = FloatField(256)
        for _ in range(20):
            x = GForm.one_form(f, [[f.from_fraction(rand_fraction(rng))
                                    for _ in range(3)] for _ in range(3)])
            parts = {part: project(x, part) for part in EigenPart}
            resid = parts[MINUS] + parts[ZERO] + parts[PLUS] - x
            assert max(abs(v) for row in resid.to_floats() for v in row) <= 1e-12
            for part, px in parts.items():
                again = project(px, part) - px
                assert max(abs(v) for row in again.to_floats() for v in row) <= 1e-12


class TestDivergenceCurlIdentities:
    """Gamma(*d_omega x) = d*_omega x and [e, d*_omega x] = 2 (*d_omega x)^0,
    valid on the symmetric sector V- + V+ of any torsion-free frame."""

    def _check(self, bg, x):
        xs = x - project(x, ZERO)
        curl = star_d_omega(bg, xs)
        div = d_omega_star(bg, xs)
        assert gamma_op(curl) == div
        assert e_bracket(div) == project(curl, ZERO).scale(2)

    def test_on_catalog(self, catalog_case, rng, field):
        bg, _ = catalog_case
        for _ in range(10):
            self._check(bg, rand_one_form(rng, field))

    def test_on_random_frames(self, rng, field):
        for trial in range(12):
            c = rand_frame_c(rng)
            bg = FrameBackground.from_structure_constants(f"random-{trial}", c, field)
            for _ in range(4):
                self._check(bg, rand_one_form(rng, field))


def spectral_inverse(k, rhs):
    """Reference inverse of ``k + L``: each projection over its divisor."""
    out = GForm.zero(rhs.field, 1)
    for part in EigenPart:
        out = out + project(rhs, part).divide(rhs.field.from_fraction(k + part.eigenvalue(1)))
    return out


NON_RESONANT = [k for k in range(-5, 9) if k not in (-2, -1, 1)]


class TestInvertCalL:
    @pytest.mark.parametrize("k", NON_RESONANT)
    def test_closed_form_is_spectral_sum(self, field, rng, k):
        for _ in range(10):
            rhs = rand_one_form(rng, field)
            assert invert_cal_L(k, rhs) == spectral_inverse(k, rhs)

    @pytest.mark.parametrize("k", NON_RESONANT)
    def test_closed_form_is_spectral_sum_float128(self, rng, k):
        ff = FloatField(128)
        for _ in range(10):
            rhs = rand_one_form(rng, ff)
            got, want = invert_cal_L(k, rhs).entries(), spectral_inverse(k, rhs).entries()
            assert all(abs(g - w) <= ff.tolerance for g, w in zip(got, want))

    def test_round_trip(self, field, rng):
        for k in range(-5, 9):
            if k in (-2, -1, 1):
                continue
            rhs = rand_one_form(rng, field)
            x = invert_cal_L(k, rhs)
            assert cal_L(k, x) == rhs

    def test_resonant_orders(self, field, rng):
        rhs = rand_one_form(rng, field)
        expect = {1: (PLUS,), -1: (ZERO,), -2: (MINUS,)}
        for k, parts in expect.items():
            with pytest.raises(ResonantOrder) as err:
                invert_cal_L(k, rhs)
            assert err.value.k == k
            assert err.value.parts == parts


class TestResolveCoupled:
    def _dense_solve(self, field, lam, R, S):
        """Independent 12x12 solve of the coupled system, row by row."""
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (2, 1, 0): -1, (0, 2, 1): -1, (1, 0, 2): -1}
        n = 12  # unknowns: a_{ci} (9) then phi_c (3)
        A = [[field.zero for _ in range(n)] for _ in range(n)]
        rhs = [field.zero] * n
        lam_s = field.from_fraction(lam)
        # (lam - L) a_{ci} + [e, phi]_{ci} = R_{ci}, with
        # L(a)_{ci} = delta_{ci} tr(a) - a_{ic} and [e, phi]_{ci} = eps_{cia} phi_a
        for c in range(3):
            for i in range(3):
                r = 3 * c + i
                A[r][3 * c + i] = lam_s
                A[r][3 * i + c] = A[r][3 * i + c] + field.one
                if c == i:
                    for j in range(3):
                        A[r][4 * j] = A[r][4 * j] - field.one
                for (cc, ii, a), s in eps.items():
                    if ii == i and cc == c:
                        A[r][9 + a] = A[r][9 + a] + field.from_fraction(s)
                rhs[r] = R.coeffs[c][i]
        # lam phi_c + Gamma(a)_c = S_c; Gamma(a)_c = eps_{cij} a_{ij}
        for c in range(3):
            r = 9 + c
            A[r][9 + c] = lam_s
            for (cc, i, j), s in eps.items():
                if cc == c:
                    A[r][3 * i + j] = A[r][3 * i + j] + field.from_fraction(s)
            rhs[r] = S.coeffs[c]
        sol = solve_dense(field, A, rhs)
        a = GForm.one_form(field, [sol[0:3], sol[3:6], sol[6:9]])
        phi = GForm.zero_form(field, sol[9:12])
        return a, phi

    def test_against_dense_oracle(self, field, rng):
        for _ in range(50):
            lam = rand_fraction(rng)
            if lam in (Fraction(2), Fraction(-1), Fraction(1)):
                lam = Fraction(7, 2)
            theta = project(rand_one_form(rng, field), ZERO)
            xi = rand_zero_form(rng, field)
            a, phi = resolve_coupled(lam, theta, xi)
            a2, phi2 = self._dense_solve(field, lam, theta, xi)
            assert a == a2
            assert phi == phi2

    def test_solution_satisfies_system(self, field, rng):
        for lam in (Fraction(3), Fraction(-4), Fraction(1, 2)):
            theta = project(rand_one_form(rng, field), ZERO)
            xi = rand_zero_form(rng, field)
            a, phi = resolve_coupled(lam, theta, xi)
            assert a.scale(lam - 1) == theta - e_bracket(phi)
            assert phi.scale(lam) == xi - gamma_op(a)

    def test_singular_lambdas(self, field, rng):
        theta = project(rand_one_form(rng, field), ZERO)
        xi = rand_zero_form(rng, field)
        for lam in (Fraction(2), Fraction(-1)):
            with pytest.raises(SingularLambda) as err:
                resolve_coupled(lam, theta, xi)
            assert err.value.lam == lam

    def test_general_R_against_dense_oracle(self, field, rng):
        # R is any degree-1 form: its V+ and V- parts divide by lam+1, lam-2
        for _ in range(50):
            lam = rand_fraction(rng)
            if lam in (Fraction(2), Fraction(-1)):
                lam = Fraction(7, 2)
            R = rand_one_form(rng, field)
            S = rand_zero_form(rng, field)
            a, phi = resolve_coupled(lam, R, S)
            assert (a, phi) == self._dense_solve(field, lam, R, S)
            assert a.scale(lam) - L_op(a) + e_bracket(phi) == R
            assert phi.scale(lam) + gamma_op(a) == S
            for part, mu in ((PLUS, -1), (MINUS, 2)):
                assert project(a, part) == project(R, part).divide(lam - mu)

    def test_singular_lambdas_general_R(self, field, rng):
        S = rand_zero_form(rng, field)
        for R in (rand_one_form(rng, field), vierbein(field),
                  project(rand_one_form(rng, field), PLUS)):
            for lam in (Fraction(2), Fraction(-1), 2, -1):
                with pytest.raises(SingularLambda) as err:
                    resolve_coupled(lam, R, S)
                assert err.value.lam == lam


_Q, _F64 = RationalField(), FloatField(64)
_ONE, _ZERO = GForm.zero(_Q, 1), GForm.zero(_Q, 0)

#: (id, call, exception, message) of refusals that no other test reaches.
REFUSALS = [
    ("zero-degree-2", lambda: GForm.zero(_Q, 2), ValueError, "degree must be 0 or 1, got 2"),
    ("one-form-2x3", lambda: GForm.one_form(_Q, [[1, 2, 3], [4, 5, 6]]), ValueError,
     "degree-1 coefficients must be a 3x3 matrix"),
    ("zero-form-2", lambda: GForm.zero_form(_Q, [1, 2]), ValueError,
     "degree-0 coefficients must be a 3-vector"),
    ("star_wedge", lambda: star_wedge(_ONE, _ZERO), ValueError,
     "star_wedge needs two degree-1 forms"),
    ("bracket_0_1", lambda: bracket_0_1(_ONE, _ONE), ValueError,
     "bracket_0_1 needs a 0-form then a 1-form"),
    ("star_bracket_star", lambda: star_bracket_star(_ZERO, _ONE), ValueError,
     "star_bracket_star needs two degree-1 forms"),
    ("L_op", lambda: L_op(_ZERO), ValueError, "L_op needs a degree-1 form"),
    ("gamma_op", lambda: gamma_op(_ZERO), ValueError, "gamma_op needs a degree-1 form"),
    ("project", lambda: project(_ZERO, MINUS), ValueError, "project needs a degree-1 form"),
    ("resolve_coupled", lambda: resolve_coupled(Fraction(3), _ZERO, _ONE), ValueError,
     "resolve_coupled needs (degree-1, degree-0) data"),
    ("resolve_coupled-float-2", lambda: resolve_coupled(
        Fraction(2), vierbein(_F64), GForm.zero(_F64, 0)), SingularLambda,
     "coupled solve is singular at lambda=2"),
    ("float-add-degrees", lambda: vierbein(_F64) + GForm.zero(_F64, 0), ValueError,
     "degree mismatch: 1 vs 0"),
    ("float-sub-degrees", lambda: vierbein(_F64) - GForm.zero(_F64, 0), ValueError,
     "degree mismatch: 1 vs 0"),
]


@pytest.mark.parametrize("call, kind, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusals(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


@pytest.mark.parametrize("field", [_Q, _F64], ids=["rational", "float64"])
def test_form_is_unequal_to_a_non_form(field):
    assert vierbein(field).__eq__(1) is NotImplemented
    assert vierbein(field) != 1 and not vierbein(field) == 1


def _sigma_one_vector(x):
    """A 3x3 form as a vector of the sigma=1 module, whose degree-1 monomial
    basis is ordered (z, y, x): su(2) index a sits in harmonic slot 2 - a."""
    return [x.coeffs[2 - slot // 3][slot % 3] for slot in range(9)]


def _laplacian(sigma):
    """The 3-D Laplacian ``P_sigma -> P_(sigma-2)`` on :func:`_monomials`, as
    rows; one zero row stands for ``P_(-1) = 0`` at ``sigma = 1``."""
    monos, lower = _monomials(sigma), _monomials(sigma - 2)
    rows = [[0] * len(monos) for _ in lower or [()]]
    for col, expo in enumerate(monos):
        for axis, e in enumerate(expo):
            if e >= 2:
                low = list(expo)
                low[axis] -= 2
                rows[lower.index(tuple(low))][col] += e * (e - 1)
    return rows


class TestHarmonicBasis:
    @pytest.mark.parametrize("sigma", range(1, 7))
    def test_closed_form_basis_is_the_harmonic_space(self, sigma):
        H, _ = _harmonic_basis(sigma)
        lap = _laplacian(sigma)
        n_mono, n_cols = H.shape
        for col in range(n_cols):
            for row in lap:
                assert sum(row[t] * H[t, col] for t in range(n_mono)) == 0
        heads = [r for r, (_, _, k) in enumerate(_monomials(sigma)) if k <= 1]
        assert [[H[r, c] for c in range(n_cols)] for r in heads] == [
            [int(r == c) for c in range(n_cols)] for r in range(len(heads))]
        assert n_cols == len(nullspace(RationalField(), lap)) == 2 * sigma + 1


class TestSigmaModule:
    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_dimensions(self, sigma):
        mod = SigmaModule(sigma)
        assert mod.dim_harm == 2 * sigma + 1
        assert mod.dim == 3 * (2 * sigma + 1)
        dims = mod.part_dims()
        assert dims[MINUS] == 2 * sigma - 1
        assert dims[ZERO] == 2 * sigma + 1
        assert dims[PLUS] == 2 * sigma + 3
        assert sum(dims.values()) == mod.dim

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_rotation_algebra(self, sigma):
        # [T_a, T_b] = eps_{abc} T_c on the harmonic space
        mod = SigmaModule(sigma)
        f = mod.field
        n = mod.dim_harm

        def mul(A, B):
            return [[sum((A[r][k] * B[k][c] for k in range(n)), start=f.zero)
                     for c in range(n)] for r in range(n)]

        eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for (a, b), c in eps.items():
            comm = mul(mod.T[a], mod.T[b])
            back = mul(mod.T[b], mod.T[a])
            for r in range(n):
                for col in range(n):
                    assert comm[r][col] - back[r][col] == mod.T[c][r][col]

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_casimir(self, sigma):
        mod = SigmaModule(sigma)
        cas = mod.casimir()
        want = Fraction(-sigma * (sigma + 1))
        for r in range(mod.dim_harm):
            for c in range(mod.dim_harm):
                assert cas[r][c] == (want if r == c else 0)

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_projector_completeness_and_spectra(self, sigma):
        mod = SigmaModule(sigma)
        f = mod.field
        n = mod.dim

        def mul(A, B):
            return [[sum((A[r][k] * B[k][c] for k in range(n)), start=f.zero)
                     for c in range(n)] for r in range(n)]

        total = [[sum((mod.projectors[p][r][c] for p in EigenPart), start=f.zero)
                  for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                assert total[r][c] == (1 if r == c else 0)
        for part in EigenPart:
            P = mod.projectors[part]
            lam = f.from_fraction(part.eigenvalue(sigma))
            LP = mul(mod.L, P)
            for r in range(n):
                for c in range(n):
                    assert LP[r][c] == lam * P[r][c]

    def test_sigma_one_matches_concrete_L(self, field, rng):
        # the abstract sigma=1 module must act exactly like L on 3x3 forms
        mod = SigmaModule(1)
        x = rand_one_form(rng, field)
        vec = _sigma_one_vector(x)
        assert mod.apply_L(vec) == _sigma_one_vector(L_op(x))
        # eigen-projections stay eigen under apply_L
        for part in EigenPart:
            pv = mod.project_vector(vec, part)
            lam = field.from_fraction(part.eigenvalue(1))
            lv = mod.apply_L(pv)
            for r in range(9):
                assert lv[r] == lam * pv[r]

    def test_sigma_one_projectors_match_concrete_project(self, field, rng):
        # the module builds its projectors by Lagrange interpolation in L, an
        # independent route to the closed forms of ``project``
        mod = SigmaModule(1)
        for _ in range(25):
            x = rand_one_form(rng, field)
            for part in EigenPart:
                assert (mod.project_vector(_sigma_one_vector(x), part)
                        == _sigma_one_vector(project(x, part)))

    def test_sigma_below_one_rejected(self):
        with pytest.raises(ValueError):
            SigmaModule(0)
        with pytest.raises(ValueError):
            leading_order_structure(0)


class TestLeadingOrderStructure:
    def test_sigma_one(self):
        lead = leading_order_structure(1)
        assert (lead.a_order, lead.b_order, lead.phi_order) == (2, 1, 2)
        assert lead.free_dims.as_tuple() == (1, 3, 5)

    @pytest.mark.parametrize("sigma,dims", [(2, (3, 5, 7)), (3, (5, 7, 9)),
                                            (5, (9, 11, 13))])
    def test_higher_sigma(self, sigma, dims):
        lead = leading_order_structure(sigma)
        assert (lead.a_order, lead.b_order, lead.phi_order) == (
            sigma + 1, sigma, sigma + 1)
        assert lead.free_dims.as_tuple() == dims


class TestVanishingLemma:
    """The 24x24 linear system for the first two connection/0-form orders.

    Unknowns: (a1, c1, a2, c2) with a's 3x3 and c's in R^3.  Equations are
    the coefficient equations at orders 1 and 2 with a curvature-sourced
    right-hand side at order 2.  The order-1 block must be forced to zero --
    both in the particular solution and in every kernel direction -- and the
    kernel must be exactly the order-2 resonance: V- (dim 1) plus the coupled
    V0 pair (dim 3).
    """

    def _build(self, field, rng):
        bg = load_background("builtin:berger-s3?squash=2", field)
        b1 = project(rand_one_form(rng, field), PLUS)

        def equations(u):
            a1 = GForm.one_form(field, [u[0:3], u[3:6], u[6:9]])
            c1 = GForm.zero_form(field, u[9:12])
            a2 = GForm.one_form(field, [u[12:15], u[15:18], u[18:21]])
            c2 = GForm.zero_form(field, u[21:24])
            e1 = a1 - L_op(a1) + e_bracket(c1)
            e2 = c1 + gamma_op(a1)
            e3 = a2.scale(2) - L_op(a2) + e_bracket(c2)
            e4 = c2.scale(2) + gamma_op(a2)
            return (list(e1.entries()) + list(e2.entries())
                    + list(e3.entries()) + list(e4.entries()))

        zero_u = [field.zero] * 24
        cols = []
        for j in range(24):
            u = list(zero_u)
            u[j] = field.one
            cols.append(equations(u))
        M = [[cols[j][r] for j in range(24)] for r in range(24)]
        src3 = star_d_omega(bg, b1)
        src4 = d_omega_star(bg, b1)
        rhs = ([field.zero] * 12 + list(src3.entries()) + list(src4.entries()))
        return M, rhs

    def test_kernel_and_forced_zero_block(self, field, rng):
        M, rhs = self._build(field, rng)
        # consistency + particular solution via rref of the augmented matrix
        aug = [row + [rhs[i]] for i, row in enumerate(M)]
        rows, pivots = rref(field, aug)
        assert 24 not in pivots, "system should be consistent"
        particular = [field.zero] * 24
        for r, pc in enumerate(pivots):
            particular[pc] = rows[r][24]
        # residual check of the particular solution
        for i in range(24):
            acc = sum((M[i][j] * particular[j] for j in range(24)), start=field.zero)
            assert acc == rhs[i]
        # order-1 unknowns are forced to zero
        assert all(particular[j] == 0 for j in range(12))
        # kernel: dimension 4, entirely inside the order-2 block
        kernel = nullspace(field, M)
        assert len(kernel) == 4
        for vec in kernel:
            assert all(vec[j] == 0 for j in range(12))
