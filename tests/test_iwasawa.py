import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticyclo.cohomology import FinitePModule
from anticyclo.errors import ModelInvariantError, PrecisionError
from anticyclo.iwasawa import (
    ElementaryLambdaModule,
    GammaModel,
    build_gamma_model,
    coinvariants,
    default_zeta,
    fit_invariants,
    invariants_of,
    layer_exponents,
    parity_audit,
    stable_level,
    t_multiplicity,
)
from anticyclo.linalg import PadicMatrix, zeta_order
from anticyclo.padic import teichmuller
from anticyclo.poly import cyclotomic_factor

from conftest import (
    closed_form_layer_exponent,
    cyclotomic_at_one_plus_t,
    int_valuation,
    omega_layer_exponent,
    quotient_structure,
    t_multiplicity_by_subset_scan,
)


def test_omega_examples():
    # omega_n = (1 + T)^(p^n) - 1 = T·Phi_p(1 + T)···Phi_(p^n)(1 + T), the
    # factors whose level terms layer_exponents sums
    def omega(p, n):
        w = [0, 1]
        for k in range(1, n + 1):
            phi = cyclotomic_factor(p, k)
            product = [0] * (len(w) + len(phi) - 1)
            for i, a in enumerate(w):
                for j, b in enumerate(phi):
                    product[i + j] += a * b
            w = product
        return w

    assert omega(3, 0) == [0, 1]
    assert omega(3, 1) == [0, 3, 3, 1]
    w = omega(3, 2)
    assert len(w) == 10 and w[0] == 0 and w[1] == 9 and w[-1] == 1


def test_distinguished_validation():
    with pytest.raises(ValueError, match="monic"):
        ElementaryLambdaModule(3, poly_parts=((3, 2),))
    with pytest.raises(ValueError, match="distinguished"):
        ElementaryLambdaModule(3, poly_parts=((1, 1),))
    with pytest.raises(ValueError):
        ElementaryLambdaModule(3, mu_parts=(0,))


def test_layer_growth_linear_factor_against_valuation_oracle():
    # Λ/(T - a): e_n = v_p((1+a)^(p^n) - 1), computed on exact integers
    for p, a in [(3, 3), (3, 6), (5, 5), (5, 20)]:
        module = ElementaryLambdaModule(p, poly_parts=((-a, 1),))
        expected = [int_valuation((1 + a) ** p**n - 1, p) for n in range(5)]
        assert layer_exponents(module, 4) == expected


def test_layer_growth_examples():
    E = ElementaryLambdaModule(3, poly_parts=((-3, 1),))
    assert layer_exponents(E, 5) == [1, 2, 3, 4, 5, 6]
    E = ElementaryLambdaModule(3, mu_parts=(1,))
    assert layer_exponents(E, 3) == [1, 3, 9, 27]
    with pytest.raises(ValueError, match="quotient not finite"):
        layer_exponents(ElementaryLambdaModule(3, poly_parts=((0, 1),)), 2)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_planted_cyclotomic_factor_is_not_finite_from_its_level(p, k):
    # g = Phi_{p^k}(1+T)·(T+p) shares a root with omega_n exactly when
    # n >= k; below that, Res(Phi_{p^k}, Phi_{p^m}) = p^phi(p^m) for m < k
    # adds up to p^n, and T + p contributes 1 + n.  Every layer from k on
    # names the first infinite level, k.
    phi = cyclotomic_at_one_plus_t(p, k)
    g = tuple(p * a + b for a, b in zip(phi + [0], [0] + phi))
    module = ElementaryLambdaModule(p, poly_parts=(g,))
    assert layer_exponents(module, k - 1) == [p**n + 1 + n for n in range(k)]
    for n in (k, k + 1):
        with pytest.raises(ValueError, match=f"quotient not finite at level {k}: .* omega_{k}$"):
            layer_exponents(module, n)


def _near_tie(rng, p, max_deg):
    """g = Phi_{p^k}(1+T)·h + p^j·r, distinguished of degree <= max_deg: a
    root of g lies p-adically close to a root ζ - 1 of Phi_{p^k}(1+T), so
    c_k = v_p(Res(g, Phi_{p^k}(1+T))) can exceed deg g (or g is not
    finite from level k on, when r = 0)."""
    k = rng.choice([k for k in (1, 2) if (p - 1) * p ** (k - 1) <= max_deg])
    phi = cyclotomic_at_one_plus_t(p, k)
    h = [p * rng.randint(-2, 2) for _ in range(rng.randint(0, max_deg + 1 - len(phi)))] + [1]
    g = [0] * (len(phi) + len(h) - 1)
    for i, a in enumerate(phi):
        for j, b in enumerate(h):
            g[i + j] += a * b
    shift = p ** rng.randint(1, 8)
    return tuple(c + shift * rng.randint(-2, 2) for c in g[:-1]) + (1,)


def test_layer_growth_against_the_whole_omega_oracle():
    # T^2 + 3T + 30 = Phi_3(1+T) + 3^3 and T^2 + 3T + 246 = Phi_3(1+T) + 3^5
    # have c_1 = 6 and 10 > deg g: tie levels, where the per-level SNF must
    # raise its precision past deg g + 1
    for c0, table in [(30, [1, 7, 9, 11]), (246, [1, 11, 13, 15])]:
        tie = ElementaryLambdaModule(3, poly_parts=((c0, 3, 1),))
        assert layer_exponents(tie, 3) == table
        assert [omega_layer_exponent(3, (c0, 3, 1), n) for n in range(4)] == table
    rng = random.Random(29)
    for trial in range(240):
        p = rng.choice([3, 5, 7])
        n = rng.randint(0, {3: 7, 5: 6, 7: 4}[p])
        if trial % 2:
            g = _near_tie(rng, p, 9)
        else:
            g = tuple(p * rng.randint(-3, 3) for _ in range(rng.randint(1, 9))) + (1,)
        module = ElementaryLambdaModule(p, poly_parts=(g,))
        expected = omega_layer_exponent(p, g, n)
        if expected is None:
            with pytest.raises(ValueError, match="quotient not finite"):
                layer_exponents(module, n)
        else:
            assert layer_exponents(module, n)[n] == expected, (p, g, n)


def test_growth_table_matches_the_whole_omega_oracle():
    # the table carries e_n = e_(n-1) + c_n; at every layer it must equal
    # the μ-term plus v_p(Res(g, omega_n)) from the whole omega_n, and it
    # must fail at the first infinite level, naming the first polynomial
    # infinite there
    rng = random.Random(61)
    failed_at = set()
    for _ in range(120):
        p = rng.choice([3, 5])
        n_max = rng.randint(0, {3: 7, 5: 6}[p])  # the whole-omega oracle's caps
        polys = []
        for _ in range(rng.randint(0, 3)):
            shape = rng.random()
            if shape < 0.3:
                polys.append(_near_tie(rng, p, 6))
            elif shape < 0.5:  # Phi_{p^k}(1+T)·(T+p): not finite from level k on
                phi = cyclotomic_at_one_plus_t(p, rng.choice([1, 2] if p == 3 else [1]))
                polys.append(tuple(p * a + b for a, b in zip(phi + [0], [0] + phi)))
            else:
                polys.append(tuple(p * rng.randint(-3, 3) for _ in range(rng.randint(1, 6))) + (1,))
        module = ElementaryLambdaModule(p, mu_parts=tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2))),
                                        poly_parts=tuple(polys))
        expected, infinite = [], None
        for n in range(n_max + 1):
            terms = [omega_layer_exponent(p, g, n) for g in polys]
            if None in terms:
                infinite = polys[terms.index(None)]
                break
            expected.append(sum(module.mu_parts) * p**n + sum(terms))
        if infinite is None:
            assert layer_exponents(module, n_max) == expected, (p, polys, n_max)
        else:
            n = len(expected)
            message = f"quotient not finite at level {n}: {list(infinite)} shares a root with omega_{n}"
            with pytest.raises(ValueError) as caught:
                layer_exponents(module, n_max)
            assert str(caught.value) == message
            failed_at.add(n)
    assert {0, 1, 2} <= failed_at


def test_layer_growth_against_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    rng = random.Random(83)
    for trial in range(24):
        p = rng.choice([3, 5, 7])
        n = rng.randint(0, {3: 5, 5: 3, 7: 2}[p])
        if trial < 16:
            g = tuple(p * rng.randint(-3, 3) for _ in range(rng.randint(1, 5))) + (1,)
        else:
            g = _near_tie(rng, p, 6)
        module = ElementaryLambdaModule(p, poly_parts=(g,))
        res = sympy.resultant(sum(c * T**i for i, c in enumerate(g)), (1 + T) ** p**n - 1, T)
        if res == 0:
            with pytest.raises(ValueError, match="quotient not finite"):
                layer_exponents(module, n)
        else:
            assert layer_exponents(module, n)[n] == sympy.multiplicity(p, res)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_layer_growth_closed_forms_up_to_n_100(p):
    polys = [(p, 1), (-(p**4) * 2, 1), (p, p, 0, 1), (p * (p + 1), 0, 0, p, 0, 1)]
    for g in polys:
        table = layer_exponents(ElementaryLambdaModule(p, poly_parts=(g,)), 1000)
        for n in list(range(12)) + [25, 50, 75, 100, 400, 1000]:
            assert table[n] == closed_form_layer_exponent(p, g, n), (g, n)


def test_structure_invariants():
    assert invariants_of(ElementaryLambdaModule(3, (1,), ((-3, 1),))) == (1, 1)
    assert invariants_of(ElementaryLambdaModule(3)) == (0, 0)
    assert invariants_of(ElementaryLambdaModule(3, (), ((-3, 0, 1),))) == (2, 0)


def test_fit_examples():
    fit = fit_invariants([1, 2, 3, 4, 5, 6], 3)
    assert (fit.lam, fit.mu, fit.nu, fit.stable_from) == (1, 0, 1, 0)
    fit = fit_invariants([1, 3, 9, 27], 3)
    assert (fit.lam, fit.mu, fit.nu) == (0, 1, 0)
    combined = ElementaryLambdaModule(3, (1,), ((-3, 1),))
    seq = layer_exponents(combined, 4)
    fit = fit_invariants(seq, 3)
    assert (fit.lam, fit.mu, fit.nu) == (1, 1, 1)


def test_stable_from_is_the_first_layer_of_the_matching_tail():
    # exact layers from `start` on, one wrong layer just before it
    for p in (3, 5, 7):
        for lam, mu, nu in ((0, 1, 0), (2, 1, -3), (1, 2, 4), (3, 0, 1)):
            for L in range(4, 10):
                for start in range(L - 2):
                    e = [lam * n + mu * p**n + nu for n in range(L)]
                    if start:
                        e[start - 1] += 1
                    fit = fit_invariants(e, p)
                    assert (fit.lam, fit.mu, fit.nu, fit.stable_from) == (lam, mu, nu, start)


def test_fit_error_paths():
    with pytest.raises(ValueError, match="at least 4"):
        fit_invariants([1, 2, 3], 3)
    with pytest.raises(ValueError, match="Iwasawa shape"):
        fit_invariants([1, 2, 4, 8], 3)
    with pytest.raises(ValueError, match="Iwasawa shape"):
        fit_invariants([100, 50, 25, 12], 3)


def test_fit_requires_an_odd_prime():
    # p = 1 used to divide by zero and p = 2 used to fit
    for p in (1, 2, 4, 0, -3):
        with pytest.raises(ValueError, match="odd prime"):
            fit_invariants([1, 2, 3, 4], p)


def test_elementary_module_takes_integers_only():
    # operator.index, not int(): (1.5,) is no mu-part and 3.9 no
    # coefficient, even where the truncation would build
    for mu_parts, poly_parts in (((1.5,), ()), ((), ((3.9, 1),)), ((2.0,), ()), ((), (("3", 1),))):
        with pytest.raises(TypeError):
            ElementaryLambdaModule(3, mu_parts, poly_parts)
    assert ElementaryLambdaModule(3, (True,), ((3, 1),)).mu_parts == (1,)


def test_fit_takes_integer_exponents_only():
    # operator.index, not int(): 1.5 is no layer exponent, even when its
    # truncation would fit
    assert fit_invariants([1, 2, 3, 4], 3) is not None
    for bad in ([1.5, 2, 3, 4], [1, 2, 3, 4.0], ["1", 2, 3, 4]):
        with pytest.raises(TypeError):
            fit_invariants(bad, 3)


@st.composite
def _sequences_with_a_fittable_tail(draw):
    # Any integers, then a last layer that makes the last second difference
    # a multiple of p^(L-3)·(p-1)^2, which every accepted sequence has.
    p = draw(st.sampled_from([3, 5, 7]))
    e = draw(st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=7))
    k = draw(st.integers(-3, 10))
    e.append(2 * e[-1] - e[-2] + k * p ** (len(e) - 2) * (p - 1) ** 2)
    return p, e


@given(_sequences_with_a_fittable_tail())
@settings(max_examples=300)
def test_every_accepted_sequence_is_reproduced_on_its_last_three_layers(case):
    p, e = case
    try:
        fit = fit_invariants(e, p)
    except ValueError:
        return
    L = len(e)
    assert [fit.lam * n + fit.mu * p**n + fit.nu for n in range(L - 3, L)] == e[-3:]
    assert 0 <= fit.stable_from <= L - 3


def _random_elementary_module(rng, p):
    mu_parts = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
    polys = []
    for _ in range(rng.randint(0, 2)):
        deg = rng.randint(1, 4)
        coeffs = [p * rng.randint(1, 3)] + [p * rng.randint(0, 3) for _ in range(deg - 1)] + [1]
        polys.append(tuple(coeffs))
    if not mu_parts and not polys:
        mu_parts = (1,)
    return ElementaryLambdaModule(p, mu_parts, tuple(polys))


def test_fit_recovers_structure_on_random_modules():
    rng = random.Random(31)
    done = 0
    while done < 60:
        p = rng.choice([3, 5])
        module = _random_elementary_module(rng, p)
        try:
            seq = layer_exponents(module, 5)
        except ValueError:
            continue  # a factor collided with omega_n; resample
        fit = fit_invariants(seq, p)
        assert (fit.lam, fit.mu) == invariants_of(module)
        done += 1


def test_layer_exponents_follow_the_formula_from_the_stable_level():
    # from K = stable_level on, e_n = lambda·n + mu·p^n + nu, so the fit on
    # layers 0..K+2 recovers the structure; T^6 + 3 at p = 3 shows that
    # layers 0..K+1 can be too few
    assert [stable_level(ElementaryLambdaModule(3, poly_parts=((3,) + (0,) * (d - 1) + (1,),)))
            for d in (1, 2, 5, 6, 17, 18)] == [0, 1, 1, 2, 2, 3]
    assert stable_level(ElementaryLambdaModule(5, mu_parts=(2,))) == 0
    rng = random.Random(71)
    done = 0
    while done < 40:
        p = rng.choice([3, 5])
        polys = [
            tuple(p * rng.randint(-3, 3) for _ in range(rng.randint(1, 9))) + (1,)
            for _ in range(rng.randint(1, 2))
        ]
        module = ElementaryLambdaModule(p, tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 1))), tuple(polys))
        K = stable_level(module)
        try:
            seq = layer_exponents(module, K + 4)
        except ValueError:
            continue  # a factor collided with omega_n; resample
        fit = fit_invariants(seq[: max(K + 3, 4)], p)  # the fit needs 4 layers
        assert (fit.lam, fit.mu) == invariants_of(module)
        assert fit.stable_from <= K
        assert all(seq[n] == fit.lam * n + fit.mu * p**n + fit.nu for n in range(K, K + 5))
        done += 1
    with pytest.raises(ValueError, match="second differences"):
        fit_invariants(layer_exponents(ElementaryLambdaModule(3, poly_parts=((3, 0, 0, 0, 0, 0, 1),)), 3), 3)


def test_fit_is_stable_under_extension():
    rng = random.Random(57)
    done = 0
    while done < 20:
        p = rng.choice([3, 5])
        module = _random_elementary_module(rng, p)
        try:
            seq = layer_exponents(module, 6)
        except ValueError:
            continue
        short = fit_invariants(seq[:5], p)
        long = fit_invariants(seq, p)
        assert (short.lam, short.mu) == (long.lam, long.mu)
        done += 1


def test_gamma_model_construction_and_audit():
    model = build_gamma_model(3, 4, 2, 1)
    assert model.M.dim == 2
    assert parity_audit(model) == "consistent"
    model = build_gamma_model(3, 5, 2, 1, t_block=1)
    assert model.M.dim == 3
    assert parity_audit(model) == "consistent"
    zeta = teichmuller(2, 5, 6)
    model = build_gamma_model(5, 6, 4, 1, zeta=zeta)
    assert model.M.dim == 4
    assert parity_audit(model) == "consistent"


def _corrupted(model, invariant):
    """(M, D, t_block) of ``model`` with one invariant broken."""
    M, D = model.M, model.D
    if invariant == "not ≡ I mod p":
        rows = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(M.rows)]
        return PadicMatrix(M.p, M.precision, rows), D, model.t_block
    if invariant == "block size out of range":
        return M, D, M.dim + 1
    if invariant == "D incompatible with M":
        return M, PadicMatrix(M.p, M.precision + 1, D.rows), model.t_block
    if invariant == "not invertible":
        return M, PadicMatrix(M.p, M.precision, [[M.p * x for x in row] for row in D.rows]), model.t_block
    rows = [list(r) for r in D.rows]
    rows[0][0] = (rows[0][0] + 1) % D.modulus  # pairs an eigenvalue with itself
    return M, PadicMatrix(M.p, M.precision, rows), model.t_block


@pytest.mark.parametrize(
    "invariant",
    ["not ≡ I mod p", "block size out of range", "D incompatible with M", "not invertible", "does not intertwine"],
)
def test_gamma_model_checks_itself_when_built(invariant):
    model = build_gamma_model(3, 5, 2, 1, t_block=1)
    M, D, t_block = _corrupted(model, invariant)
    with pytest.raises(ModelInvariantError, match=invariant):
        GammaModel(M, D, model.zeta, t_block)


def test_gamma_model_is_frozen_and_reads_d_from_zeta():
    model = build_gamma_model(5, 6, 4, 1, zeta=teichmuller(2, 5, 6))
    assert model.d == 4
    with pytest.raises(AttributeError):
        model.t_block = 0
    with pytest.raises(AttributeError):
        model.d = 2
    with pytest.raises(ValueError, match="not roots of unity"):
        GammaModel(model.M, None, 2)


def test_build_gamma_model_checks_d_against_a_given_zeta():
    for orbit_count, t_block in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match="incompatible d: exponent does not have order 2"):
            build_gamma_model(5, 6, 2, orbit_count, t_block, zeta=teichmuller(2, 5, 6))


def test_parity_audit_does_not_recheck_a_model_with_d(monkeypatch):
    # the model checked M^zeta·D = D·M when it was built
    from anticyclo import iwasawa, linalg

    model = build_gamma_model(5, 6, 4, 1, t_block=1)
    calls = []
    for module in (iwasawa, linalg):
        monkeypatch.setattr(module, "mat_pow_zeta", lambda *args: calls.append(args))
    assert parity_audit(model) == "consistent"
    assert calls == []


def test_t_multiplicity_examples():
    # M - I = diag(3, 3, 0): charpoly T(T-3)^2, certified by the block split
    M = PadicMatrix(3, 4, [[4, 0, 0], [0, 4, 0], [0, 0, 1]])
    assert t_multiplicity(M) == 1
    assert t_multiplicity(PadicMatrix.identity(3, 3, 2)) == 2
    assert t_multiplicity(PadicMatrix(3, 3, [[3, 1], [1, 1]])) == 0


def test_t_multiplicity_accepts_nilpotent_jordan_blocks():
    # M - I = J_2 (strictly upper) + diag(3): charpoly T^2 (T - 3), s = 2
    M = PadicMatrix(3, 4, [[1, 1, 0], [0, 1, 0], [0, 0, 4]])
    assert t_multiplicity(M) == 2
    # the transposed (block lower-triangular) orientation works too
    Mt = PadicMatrix(3, 4, [[1, 0, 0], [1, 1, 0], [0, 0, 4]])
    assert t_multiplicity(Mt) == 2


def test_t_multiplicity_respects_certificates():
    model = build_gamma_model(3, 5, 2, 1, t_block=1)
    assert t_multiplicity(model.M, 1) == 1
    with pytest.raises(ModelInvariantError, match="certified"):
        t_multiplicity(model.M, 2)


def test_t_multiplicity_demands_precision_for_fake_zeros():
    # M - I = diag(3, 9) at N = 2: charpoly = T^2 - 12T + 27 = T^2 + (hidden)
    # both lower coefficients vanish mod 9 with no structural reason
    M = PadicMatrix(3, 2, [[4, 0], [0, 1]])  # M - I = diag(3, 0): c_0 = 0, c_1 = 3·unit
    s = t_multiplicity(M)  # structurally certified: the (1,1) slot is a true T-block
    assert s == 1
    hidden = PadicMatrix(3, 2, [[1 + 3, 3], [3, 1 + 6]])
    # charpoly of the shift is T^2 - 9T + 9; mod 9 the trailing coeffs vanish
    with pytest.raises(PrecisionError, match="raise N"):
        t_multiplicity(hidden)


def test_t_multiplicity_advises_declaring_a_block_that_a_change_of_basis_hides():
    # M = P·diag(1, 4)·P^-1 for P = [[1, 1], [1, 2]]: M - I = [[-3, 3], [-6, 6]]
    # has charpoly T(T - 3), a true T-block, but every entry is nonzero, so
    # no peel certifies it at any N; declaring t_block = 1 does
    for N in (4, 8, 16):
        M = PadicMatrix(3, N, [[-2, 3], [-6, 7]])
        with pytest.raises(PrecisionError, match="raise N") as raised:
            t_multiplicity(M)
        assert "declaring t_block = 1 does" in str(raised.value)
        assert t_multiplicity(M, 1) == 1


def _scan_outcome(f, M):
    try:
        return f(M)
    except PrecisionError as exc:
        return str(exc)


def _cornered_matrix(rng):
    """M = I + A with A sparse, a nilpotent corner on the first k
    coordinates closed in one direction, then coordinates permuted."""
    p, N, r = rng.choice([3, 5]), rng.randint(1, 4), rng.randint(1, 6)
    m = p**N
    A = [[rng.choice([0, 0, 0, p * rng.randrange(m), rng.randrange(m)]) for _ in range(r)] for _ in range(r)]
    k = rng.randint(0, r)
    for j in range(k):  # strictly lower inside the corner, no edge out of it
        for i in range(r):
            if not j < i < k:
                A[i][j] = 0
    if rng.random() < 0.5:
        A = [list(col) for col in zip(*A)]
    perm = rng.sample(range(r), r)
    return PadicMatrix(p, N, [[A[perm[i]][perm[j]] + (i == j) for j in range(r)] for i in range(r)])


def test_t_multiplicity_agrees_with_subset_scan_oracle():
    rng = random.Random(17)
    kinds = set()
    for _ in range(600):
        M = _cornered_matrix(rng)
        got = _scan_outcome(t_multiplicity, M)
        assert got == _scan_outcome(t_multiplicity_by_subset_scan, M), M
        kinds.add("raise N" if isinstance(got, str) else "certified" if got else "zero")
    assert kinds == {"certified", "raise N", "zero"}


def test_t_multiplicity_certifies_only_a_whole_peel():
    # A = M - I has a loop at 2 and an edge 1 -> 2: the sink peel leaves
    # {0}, the source peel {0, 1}, and charpoly(A) = T^2 (T - 14)
    by_sources = PadicMatrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 24, 15]])
    assert t_multiplicity(by_sources) == 2 == t_multiplicity_by_subset_scan(by_sources)
    # charpoly(A) = T^2 (T - 6) but only the corner {0} is structural
    short_corner = PadicMatrix(3, 2, [[1, 0, 0], [0, 4, 3], [0, 3, 4]])
    for f in (t_multiplicity, t_multiplicity_by_subset_scan):
        with pytest.raises(PrecisionError, match="raise N"):
            f(short_corner)


def test_coinvariants_examples():
    X = FinitePModule(3, (9, 3), actions={"tau": [[1, 0], [0, 1]]})
    assert coinvariants(X, "tau").invariant_factors == (9, 3)
    X = FinitePModule(3, (27, 27), actions={"tau": [[4, 0], [0, 4]]})
    assert coinvariants(X, "tau").invariant_factors == (3, 3)
    X = FinitePModule(3, (9,), actions={"tau": [[4]]})
    assert coinvariants(X, "tau").invariant_factors == (3,)


def test_coinvariants_of_models_match_enumeration_oracle():
    rng = random.Random(41)
    for _ in range(25):
        r, precision = rng.choice([(2, 3), (3, 2), (2, 2)])
        p = 3
        modulus = p**precision
        rows = [
            [(1 if i == j else 0) + p * rng.randrange(p ** (precision - 1)) for j in range(r)]
            for i in range(r)
        ]
        M = PadicMatrix(p, precision, rows)
        model = GammaModel(M, None, 1)
        factors = tuple([modulus] * r)
        elements = list(product(range(modulus), repeat=r))
        shift_image = {
            tuple(
                sum((rows[i][j] - (1 if i == j else 0)) * v[j] for j in range(r)) % modulus
                for i in range(r)
            )
            for v in elements
        }
        try:
            result = coinvariants(model)
        except PrecisionError:
            # quotient hits p^N: the oracle must see a full-size cyclic factor
            oracle = quotient_structure(elements, shift_image, factors, p)
            assert any(q == modulus for q in oracle)
            continue
        oracle = quotient_structure(elements, shift_image, factors, p)
        assert result.invariant_factors == oracle


def test_coinvariants_of_identity_model_needs_precision():
    model = GammaModel(PadicMatrix.identity(3, 2, 2), None, 1)
    with pytest.raises(PrecisionError):
        coinvariants(model)


def test_coinvariants_of_trivial_module():
    assert coinvariants(FinitePModule(3, ()), "tau").invariant_factors == ()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_default_zeta_is_the_least_residue_of_each_order(p):
    def order(a):
        return next(k for k in range(1, p) if pow(a, k, p) == 1)

    for d in (d for d in range(1, p) if (p - 1) % d == 0):
        zeta = default_zeta(p, 4, d)
        assert int(zeta) % p == min(a for a in range(1, p) if order(a) == d)
        assert zeta_order(zeta, p) == d
        if d > 2:
            assert zeta == teichmuller(int(zeta), p, 4)
    with pytest.raises(ValueError, match="no exponent"):
        default_zeta(p, 4, p)


@pytest.mark.parametrize("d", [0, -2])
def test_an_order_below_one_is_named(d):
    # named before (p - 1) % d, which d = 0 would turn into ZeroDivisionError
    with pytest.raises(ValueError, match=f"^the order d must be a positive integer, got {d}$"):
        default_zeta(3, 4, d)
    with pytest.raises(ValueError, match=f"got {d}$"):
        build_gamma_model(3, 4, d, 1)
