import pickle
import random
from math import gcd, prod

import pytest

from anticyclo.cohomology import (
    FinitePModule,
    _ker_mod_im,
    _norm_matrix,
    _pack,
    fixed_points,
    herbrand_check,
    minus_part,
    norm_image,
    tate_h0,
    tate_hm1,
    theorem2_cyclic_obstruction,
)
from anticyclo.iwasawa import coinvariants
from anticyclo.snf import cokernel_mod, minus_identity, smith_normal_form_mod_prime_power

from conftest import (
    add_elements,
    all_elements,
    apply_rows,
    cokernel_by_full_elimination,
    image_gens_with_relations,
    ker_mod_im_by_embedded_kernel,
    norm_matrix_by_repeated_products,
    preimage_gens_with_relations,
    quotient_structure,
    relation_columns,
    scale_element,
    subgroup_closure,
    subquotient_by_full_elimination,
    tate_groups_by_relation_lattice,
)


def test_factors_and_action_entries_must_be_integers():
    # operator.index, not int(): (9.9, 3) is no list of invariant factors
    for factors in ((9.9, 3), (9.0, 3), ("9", 3)):
        with pytest.raises(TypeError):
            FinitePModule(3, factors)
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            FinitePModule(3, (9, 3), actions={"tau": [[1, 0], [bad, 1]]})
    assert FinitePModule(3, (9, 3), actions={"tau": [[True, 0], [1, 1]]}).actions["tau"] == ((1, 0), (1, 1))


def test_construction_validation():
    with pytest.raises(ValueError, match="descending"):
        FinitePModule(3, (3, 9))
    with pytest.raises(ValueError, match="power"):
        FinitePModule(3, (10,))
    with pytest.raises(ValueError, match="well defined"):
        # Z/9 -> Z/9 + Z/3 sending the Z/3 generator to a generator of Z/9
        FinitePModule(3, (9, 3), actions={"tau": [[1, 1], [0, 1]]})
    # the transposed direction is fine: Z/9 generator may hit the Z/3 part
    FinitePModule(3, (9, 3), actions={"tau": [[1, 0], [1, 1]]})
    with pytest.raises(ValueError, match="order"):
        FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 2})
    # no action name is special: a "J" of order 3 builds, and only an
    # order declared for it is verified
    assert FinitePModule(3, (9,), actions={"J": [[4]]}).orders == {}
    with pytest.raises(ValueError, match="order"):
        FinitePModule(3, (9,), actions={"J": [[4]]}, orders={"J": 2})


def _norm_and_power_by_repeated_products(module, T, m):
    """(1 + T + ... + T^(m-1), T^m) by m dense products, each reduced."""
    factors = module.invariant_factors
    k = len(factors)
    norm = [[0] * k for _ in range(k)]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(m):
        norm = [[(a + b) % q for a, b in zip(ra, rb)] for ra, rb, q in zip(norm, power, factors)]
        power = module._reduce(_mat_mul(power, T))
    return norm, power


def _chain_products(m):
    # 2 per bit after the leading one, less 1 for N_2 = 1 + T, and 1 per
    # further set bit
    return max(0, 2 * m.bit_length() + bin(m).count("1") - 4)


def _count_products(monkeypatch):
    products = []
    multiply = FinitePModule._product
    monkeypatch.setattr(FinitePModule, "_product", lambda self, A, B: products.append(1) or multiply(self, A, B))
    return products


def test_norm_and_power_is_the_doubling_chain(monkeypatch):
    # on a singular T, which no power brings back to 1, the chain makes
    # exactly 2·bit_length(m) + popcount(m) - 4 packed products and gives
    # the norm and power of m dense products
    products = _count_products(monkeypatch)
    rng = random.Random(13)
    for p, factors, top in ((3, (27, 9, 9, 3), 5), (5, (25, 5, 5), 3)):
        module = FinitePModule(p, factors)
        orders = sorted(set(range(1, 41)) | {e * p**j for j in range(1, top + 1) for e in (1, 2)})
        for _ in range(3):
            T = _random_action(rng, factors)
            for row in T:
                row[0] = 0
            for m in orders:
                products.clear()
                assert module._norm_and_power(T, m) == _norm_and_power_by_repeated_products(module, T, m)
                assert len(products) == _chain_products(m)
    # an action of finite order takes the same chain, which never stops
    # early; where T^m = 1 the norm is the oracle's
    for p in (3, 5):
        for order in (p, p * p, 2):
            module = _sweep_module(rng, p, order, "mixed")
            T = module.action("tau")
            for m in range(1, 41):
                products.clear()
                norm, power = module._norm_and_power(T, m)
                assert len(products) == _chain_products(m)
                assert (norm, power) == _norm_and_power_by_repeated_products(module, T, m)
                if m % order == 0:
                    assert norm == norm_matrix_by_repeated_products(module, "tau", m)
                    assert module._is_identity(power)
    # T = -1: an explicit m = 3^12 runs the whole chain and is rejected,
    # since T^m = -1, while m = 2·3^12 gives N = 0
    minus = FinitePModule(3, (3**9, 3**9, 3**4), actions={"tau": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]})
    for m in (3**12, 2 * 3**12):
        products.clear()
        if m % 2:
            with pytest.raises(ValueError, match="does not satisfy"):
                _norm_matrix(minus, "tau", m)
        else:
            assert _norm_matrix(minus, "tau", m) == [[0] * 3] * 3
        assert len(products) == _chain_products(m)


def test_norm_and_power_never_stops_early(monkeypatch):
    # T = 1 and T = -1 are powers of 1 from the first step on, and still
    # take the whole chain; the zero module takes no product at all
    products = _count_products(monkeypatch)
    factors = (27, 9, 9, 3)
    module = FinitePModule(3, factors)
    for sign in (1, -1):
        T = module._reduce([[sign * (i == j) for j in range(4)] for i in range(4)])
        for m in (*range(1, 41), 3**12):
            products.clear()
            norm, power = module._norm_and_power(T, m)
            assert len(products) == _chain_products(m)
            assert power == module._reduce([[sign**m * (i == j) for j in range(4)] for i in range(4)])
            terms = m if sign == 1 else m % 2
            assert norm == module._reduce([[terms * (i == j) for j in range(4)] for i in range(4)])
    products.clear()
    assert FinitePModule(3, ())._norm_and_power([], 3**12) == ([], [])
    assert products == []


def test_packed_product_matches_the_plain_product():
    # digits of w = bit_length(k·q_1²) bits hold every entry of A·B for
    # reduced A and B, also for the largest entries and a large prime
    rng = random.Random(29)
    for p, top in ((3, 6), (5, 4), (7, 3), (1000003, 3)):
        for _ in range(20):
            exps = sorted((rng.randint(1, top) for _ in range(rng.randint(1, 5))), reverse=True)
            factors = tuple(p**e for e in exps)
            module = FinitePModule(p, factors)
            A, B = _random_action(rng, factors), _random_action(rng, factors)
            assert module._product(A, _pack(B, module._shifts())) == module._reduce(_mat_mul(A, B))
        largest = [[q - 1 for _ in factors] for q in factors]
        packed = _pack(largest, module._shifts())
        assert module._product(largest, packed) == module._reduce(_mat_mul(largest, largest))


def test_declared_orders_are_verified_at_construction(monkeypatch):
    factors = (27, 9, 9, 3)
    # swapping the two Z/9 generators has order 2, which does not divide 3
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="does not have order dividing 3"):
        FinitePModule(3, factors, actions={"tau": swap}, orders={"tau": 3})
    assert FinitePModule(3, factors, actions={"tau": swap}, orders={"tau": 4}).orders == {"tau": 4}
    # an order of 0 is rejected before any product is taken
    products = _count_products(monkeypatch)
    with pytest.raises(ValueError, match="must be positive"):
        FinitePModule(3, factors, actions={"tau": swap}, orders={"tau": 0})
    assert products == []


def test_fixed_points_examples():
    trivial = FinitePModule(3, (3,), actions={"tau": [[1]]}, orders={"tau": 3})
    assert fixed_points(trivial, "tau").invariant_factors == (3,)
    mult4 = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 3})
    assert fixed_points(mult4, "tau").invariant_factors == (3,)
    diag = FinitePModule(3, (9, 9), actions={"tau": [[4, 0], [0, 4]]}, orders={"tau": 3})
    assert fixed_points(diag, "tau").invariant_factors == (3, 3)


def test_norm_image_examples():
    trivial = FinitePModule(3, (3,), actions={"tau": [[1]]}, orders={"tau": 3})
    assert norm_image(trivial, "tau", 3).invariant_factors == ()
    mult4 = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 3})
    assert norm_image(mult4, "tau", 3).invariant_factors == (3,)
    big = FinitePModule(3, (27,), actions={"tau": [[1]]}, orders={"tau": 3})
    assert norm_image(big, "tau", 3).invariant_factors == (9,)


def test_tate_groups_worked_example():
    # Z/9 with tau = multiplication by 4, cyclic group of order 3:
    # fixed points {0,3,6} equal the norm image, and ker N = (tau-1)M.
    M = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders={"tau": 3})
    assert tate_h0(M, "tau", 3).invariant_factors == ()
    assert tate_hm1(M, "tau", 3).invariant_factors == ()
    trivial = FinitePModule(3, (3,), actions={"tau": [[1]]}, orders={"tau": 3})
    assert tate_h0(trivial, "tau", 3).invariant_factors == (3,)
    assert tate_hm1(trivial, "tau", 3).invariant_factors == (3,)
    empty = FinitePModule(3, (), actions={}, orders={})
    assert tate_h0(empty, "tau", 3).invariant_factors == ()


def test_order_is_checked_on_every_call():
    for p in (3, 5):
        T = [[1 + p]]  # order p on Z/p^2
        declared = FinitePModule(p, (p * p,), actions={"tau": T}, orders={"tau": p})
        undeclared = FinitePModule(p, (p * p,), actions={"tau": T})
        for op in (norm_image, tate_h0, tate_hm1, herbrand_check):
            with pytest.raises(ValueError, match="does not satisfy"):
                op(declared, "tau", p - 1)
            with pytest.raises(ValueError, match="neither declared nor given"):
                op(undeclared, "tau")
            with pytest.raises(ValueError, match="must be positive"):
                op(declared, "tau", 0)
        # a multiple of the order is still an order: the norm over p^2
        # terms is p times the norm over p terms, which is p on Z/p^2
        assert norm_image(undeclared, "tau", p * p).invariant_factors == ()
        assert tate_h0(undeclared, "tau", p * p).invariant_factors == (p,)
        assert tate_hm1(undeclared, "tau", p * p).invariant_factors == (p,)
        assert herbrand_check(undeclared, "tau", p * p)
        assert norm_image(declared, "tau").invariant_factors == (p,)


def test_declared_norms_are_built_once_at_construction(monkeypatch):
    # the norm of each declared order is stored, reduced, as row tuples;
    # the Tate operations read it with no product, and the stored norm
    # cannot go stale, since actions and orders are read-only
    rng = random.Random(19)
    modules = [_block_module(rng, (3, 5)[case % 2]) for case in range(4)]
    modules += [_random_module_with_cyclic_action(rng, 3, 5)[0] for _ in range(4)]
    products = _count_products(monkeypatch)
    for module in modules:
        m = module.orders["tau"]
        assert set(module.norms) == {("tau", m)}
        stored = module.norms["tau", m]
        assert all(type(row) is tuple for row in stored)
        assert [list(row) for row in stored] == norm_matrix_by_repeated_products(module, "tau", m)
        products.clear()
        norm_image(module, "tau")
        tate_h0(module, "tau")
        tate_hm1(module, "tau", m)
        herbrand_check(module, "tau")
        assert products == []
        with pytest.raises(TypeError):
            module.actions["tau"] = module.actions["J"]
        with pytest.raises(TypeError):
            module.orders["tau"] = 1
        with pytest.raises(TypeError):
            module.norms["tau", m] = ()
        # norms is derived data: neither == nor repr reads it
        twin = FinitePModule(module.p, module.invariant_factors, actions=dict(module.actions), orders=dict(module.orders))
        object.__setattr__(twin, "norms", {})
        assert twin == module
        assert "norms" not in repr(module) and repr(twin) == repr(module)
        # a pickled module is rebuilt, with its norms
        clone = pickle.loads(pickle.dumps(module))
        assert clone == module and clone.norms == module.norms


def test_checked_actions_skip_the_public_matrix_check(monkeypatch):
    # T - 1 and J + 1 come from actions checked at construction, so fixed
    # points, coinvariants and minus parts reach the engine without a
    # second check; the public kernel and cokernel still check a matrix
    import anticyclo.cohomology as cohomology

    checks = []
    check = cohomology._require_well_defined
    monkeypatch.setattr(cohomology, "_require_well_defined", lambda *args: checks.append(args[2]) or check(*args))
    module = FinitePModule(3, (9, 3), actions={"tau": [[1, 0], [1, 1]], "J": [[1, 3], [0, -1]]})
    assert checks == ["action 'tau'", "action 'J'"]
    for operation, action in ((fixed_points, "tau"), (coinvariants, "tau"), (minus_part, "J")):
        checks.clear()
        result = operation(module, action)
        # only the result's own action, J = -1 on a minus part, is checked
        assert checks == (["action 'J'"] if result.actions else [])
    for method in (module.kernel, module.cokernel):
        checks.clear()
        with pytest.raises(ValueError, match=r"matrix is not well defined: entry \(0,1\) must be divisible by 3"):
            method([[1, 1], [0, 1]])
        assert checks == ["matrix"]


def test_herbrand_check_builds_one_norm_matrix(monkeypatch):
    # both Tate groups come from one norm matrix and one shift per call
    import anticyclo.cohomology as cohomology

    calls = []
    build = cohomology._norm_matrix
    monkeypatch.setattr(cohomology, "_norm_matrix", lambda *args: calls.append(args) or build(*args))
    rng = random.Random(5)
    for case in range(20):
        module, order = _random_module_with_cyclic_action(rng, 3, 5, distinct=case % 2 == 1)
        sizes = tate_h0(module, "tau", order).size(), tate_hm1(module, "tau", order).size()
        calls.clear()
        assert herbrand_check(module, "tau", order) == (sizes[0] == sizes[1])
        assert len(calls) == 1


def test_ker_mod_im_rejects_images_outside_the_kernel():
    # on Z/9 + Z/3, F·G ≠ 0 puts a column of G outside ker F
    module = FinitePModule(3, (9, 3))
    identity, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    first = [[1, 0], [0, 0]]  # onto the Z/9 generator, killing the Z/3 one
    with pytest.raises(ArithmeticError, match="not inside"):
        _ker_mod_im(module, identity, first)  # ker F = 0, im G = Z/9
    with pytest.raises(ArithmeticError, match="not inside"):
        _ker_mod_im(module, first, first)  # ker F = Z/3, im G = Z/9
    assert _ker_mod_im(module, zero, zero) == (9, 3)


def _span_in_free_module(gens, m, k):
    return subgroup_closure(lambda x, y: add_elements(x, y, (m,) * k), [tuple(g) for g in gens], (0,) * k)


def _columns(vectors, k):
    """The k×k matrix whose columns are ``vectors``, then zero columns."""
    return [list(row) for row in zip(*(list(vectors) + [[0] * k] * (k - len(vectors))))]


def test_ker_mod_im_trims_dead_rows_and_columns():
    # on the free module (Z/27)^3, D = 1: each F has the kernel X, the
    # columns of G span Y, and ker F / im G is X/Y
    module = FinitePModule(3, (27, 27, 27))
    m, k = 27, 3
    elements = all_elements((m,) * k)
    for X, F, Y, expected in (
        # pivots of F (1, 1, 9): two unit rows dropped
        ([[3, 6, 0], [0, 0, 0]], [[9, 0, 0], [-2, 1, 0], [0, 0, 1]], [[9, 18, 0]], (3,)),
        # pivots (1, 9, 0): a unit, a p^2 and a zero pivot
        ([[1, 3, 9], [0, 3, 0]], [[0, 0, 0], [0, 9, 0], [-9, 0, 1]], [[3, 9, 0]], (9, 3)),
        # every pivot zero: no relation column at all
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0] * 3] * 3, [[3, 0, 0]], (27, 27, 3)),
        ([[1, 3, 9], [0, 3, 0]], [[0, 0, 0], [0, 9, 0], [-9, 0, 1]], [[1, 3, 9], [0, 3, 0]], ()),  # Y = X
        ([[9, 0, 0]], [[3, 0, 0], [0, 1, 0], [0, 0, 1]], [[9, 0, 0]], ()),
        # every pivot a unit: the zero submodule, every row dropped
        ([], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0]], ()),
    ):
        span = _span_in_free_module(X, m, k)
        assert {x for x in elements if not any(apply_rows(F, x, (m,) * k))} == span
        oracle = quotient_structure(span, _span_in_free_module(Y, m, k), (m,) * k, 3)
        assert _ker_mod_im(module, F, _columns(Y, k)) == oracle == expected
    # the only coordinate of y outside X lies in a unit-pivot row, which the
    # trimmed cokernel drops: the containment check still sees it; in the
    # last case it lies in the row of the pivot 3
    for F, Y in (
        ([[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[5, 0, 9]]),  # X = <e_1>
        ([[9, 0, 0], [-2, 1, 0], [0, 0, 1]], [[0, 0, 1]]),  # X = <(3, 6, 0)>
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 9, 0]]),  # X = 0
        ([[3, 0, 0], [0, 1, 0], [0, 0, 1]], [[3, 0, 0]]),  # X = <9·e_1>
    ):
        with pytest.raises(ArithmeticError, match="not inside"):
            _ker_mod_im(module, F, _columns(Y, k))


def test_ker_mod_im_matches_full_elimination_on_random_pairs():
    # a random F on A = ⊕ Z/q_i, some of its columns zeroed, and G whose
    # columns are elements of ker F, some times p; in every third case
    # they generate it
    rng = random.Random(31)
    seen = {"zero pivot": 0, "unit pivot": 0, "im G = ker F": 0, "im G < ker F": 0}
    for case in range(60):
        p = (3, 5)[case % 2]
        # at most p^E = 27 or 25 on k <= 3 coordinates, for the enumeration oracle
        exps = sorted((rng.randint(1, 3 if p == 3 else 2) for _ in range(rng.randint(1, 3))), reverse=True)
        factors = tuple(p**e for e in exps)
        module = FinitePModule(p, factors)
        E, k = exps[0], len(exps)
        zero = (0,) * k
        F = _random_action(rng, factors)
        for j in rng.sample(range(k), rng.randint(0, k - 1)):
            for row in F:
                row[j] = 0
        kernel = [x for x in all_elements(factors) if apply_rows(F, x, factors) == zero]

        def span(vectors):
            return subgroup_closure(lambda x, y: add_elements(x, y, factors), vectors, zero)

        if case % 3 == 0:
            cols = []
            while len(span(cols)) < len(kernel):
                cols = [rng.choice(kernel) for _ in range(k)]
        else:
            cols = [scale_element(rng.choice((1, p)), rng.choice(kernel), factors) for _ in range(rng.randint(1, k))]
        G = _columns(cols, k)
        diag, _ = smith_normal_form_mod_prime_power(
            [[p ** (E - e) * x for x in row] for e, row in zip(exps, F)], p, E, None
        )
        seen["zero pivot"] += 0 in diag
        seen["unit pivot"] += 1 in diag
        seen["im G = ker F" if len(span(cols)) == len(kernel) else "im G < ker F"] += 1
        expected = subquotient_by_full_elimination(
            preimage_gens_with_relations(factors, F, p, E), image_gens_with_relations(factors, G), p, E
        )
        assert _ker_mod_im(module, F, G) == expected == ker_mod_im_by_embedded_kernel(module, F, G)
        assert expected == quotient_structure(kernel, span(cols), factors, p)
    assert min(seen.values()) >= 10


def _random_automorphism(rng, factors):
    """(P, P^-1) for P = L·U an automorphism of ⊕ Z/q_i: L unit lower
    triangular with any entries, U unit upper triangular with U_ij a
    multiple of q_i/q_j."""
    k = len(factors)
    L = [[int(i == j) or (rng.randrange(-3, 4) if i > j else 0) for j in range(k)] for i in range(k)]
    U = [
        [int(i == j) or (rng.randrange(-3, 4) * factors[i] // factors[j] if i < j else 0) for j in range(k)]
        for i in range(k)
    ]
    return _mat_mul(L, U), _mat_mul(_unit_triangular_inverse(U, False), _unit_triangular_inverse(L, True))


def _sweep_module(rng, p, m, kind):
    """A module with an action tau of order dividing m ∈ {p, p², 2}.

    tau is P·B·P^-1 for a block-diagonal B and P from ``_random_automorphism``.
    A "trivial" block is 1; a "scalar" block multiplies one generator of
    order p^e by a unit u with u^m = 1: ±1 for m = 2, and for m = p^j,
    u ≡ 1 mod p^max(1, e - j), of order m when e ≥ j + 1 and u - 1 has
    valuation e - j; a "cycle" block permutes 2 generators (m = 2) or p
    (m = p, p²) cyclically.  ``kind`` "mixed" draws each block's kind.
    """
    j = 0 if m == 2 else 1 if m == p else 2
    while True:
        blocks = []
        for _ in range(rng.randint(1, 3)):
            block = kind if kind != "mixed" else rng.choice(("trivial", "scalar", "cycle"))
            blocks.append((block, rng.randint(1, 3)))
        gens = sorted(
            ((e, b, i) for b, (block, e) in enumerate(blocks) for i in range((2 if m == 2 else p) if block == "cycle" else 1)),
            reverse=True,
        )
        if len(gens) <= 16:
            break
    k = len(gens)
    factors = tuple(p**e for e, _, _ in gens)
    index = {(b, i): t for t, (_, b, i) in enumerate(gens)}
    B = [[0] * k for _ in range(k)]
    for t, (e, b, i) in enumerate(gens):
        block = blocks[b][0]
        if block == "cycle":
            B[index[(b, (i + 1) % (2 if m == 2 else p))]][t] = 1
        elif block == "scalar":
            B[t][t] = rng.choice((1, -1)) if m == 2 else 1 + rng.randrange(1, p) * p ** max(1, e - j)
        else:
            B[t][t] = 1
    P, P_inv = _random_automorphism(rng, factors)
    return FinitePModule(p, factors, actions={"tau": _mat_mul(_mat_mul(P, B), P_inv)}, orders={"tau": m})


def test_tate_sweep_against_embedded_kernel_and_full_elimination():
    # ker F / im G for F, G in {T - 1, N}, and ker F alone by duality,
    # against today's route in embedded coordinates and the relation-lattice
    # oracle; then a G = V[:, t] outside ker F on each pivot g_t ≠ 0, which
    # must raise, and (p^E/g_t)·V[:, t], which lies inside
    rng = random.Random(2027)
    seen = {"zero pivot": 0, "unit pivot": 0, "raised on a unit pivot": 0, "raised on another pivot": 0}
    for p in (3, 5, 7):
        for m in (p, p * p, 2):
            zero = FinitePModule(p, ())
            assert _ker_mod_im(zero, [], []) == zero.kernel([]) == zero.cokernel([]) == ()
            assert tate_h0(zero, "tau", m) == tate_hm1(zero, "tau", m) == fixed_points(zero, "tau") == zero
            for kind in ("trivial", "scalar", "cycle", "mixed", "mixed"):
                module = _sweep_module(rng, p, m, kind)
                factors, E = module.invariant_factors, module.exponent
                k, q = len(factors), p**E
                shift = minus_identity(module.action("tau"))
                norm = norm_matrix_by_repeated_products(module, "tau", m)
                for F, G in ((shift, norm), (norm, shift)):
                    preimage = preimage_gens_with_relations(factors, F, p, E)
                    got = _ker_mod_im(module, F, G)
                    assert got == ker_mod_im_by_embedded_kernel(module, F, G)
                    assert got == subquotient_by_full_elimination(preimage, image_gens_with_relations(factors, G), p, E)
                    kernel = module.kernel(F)
                    assert kernel == ker_mod_im_by_embedded_kernel(module, F, None)
                    assert kernel == subquotient_by_full_elimination(preimage, relation_columns(factors), p, E)
                    DF = [[q // qi * x for x in row] for qi, row in zip(factors, F)]
                    diag, Vc = smith_normal_form_mod_prime_power(DF, p, E)
                    seen["zero pivot"] += 0 in diag
                    seen["unit pivot"] += 1 in diag
                    for g, v in zip(diag, Vc):
                        if not g:
                            continue
                        outside = _columns([v], k)
                        for route in (_ker_mod_im, ker_mod_im_by_embedded_kernel):
                            with pytest.raises(ArithmeticError, match="not inside"):
                                route(module, F, outside)
                        seen["raised on a unit pivot" if g == 1 else "raised on another pivot"] += 1
                        inside = _columns([[q // g * x for x in v]], k)
                        assert _ker_mod_im(module, F, inside) == ker_mod_im_by_embedded_kernel(module, F, inside)
                assert tate_h0(module, "tau", m).invariant_factors == _ker_mod_im(module, shift, norm)
                assert tate_hm1(module, "tau", m).invariant_factors == _ker_mod_im(module, norm, shift)
                assert fixed_points(module, "tau").invariant_factors == module.kernel(shift)
    assert min(seen.values()) >= 10


def test_kernel_and_cokernel_match_full_elimination_on_mixed_factors():
    # ker F as the cokernel of the dual F^∨, and A/F·A, on k = 0..5
    # generators of orders p..p^4: random compatible F, some with zeroed
    # columns, some automorphisms, entries shifted by multiples of q_i;
    # |ker F| = |A/F·A| on a finite module
    rng = random.Random(61)
    seen = {"ker F = 0": 0, "ker F = A": 0, "0 < ker F < A": 0}
    for p in (3, 5, 7):
        for case in range(60):
            k = case % 6
            factors = tuple(sorted((p ** rng.randint(1, 4) for _ in range(k)), reverse=True))
            module = FinitePModule(p, factors)
            E = module.exponent
            if case % 4 == 0:
                F = _random_automorphism(rng, factors)[0]
            else:
                F = _random_action(rng, factors)
                for j in rng.sample(range(k), rng.randint(0, k)):
                    for row in F:
                        row[j] = 0
            F = [[x + qi * rng.randrange(-2, 3) for x in row] for qi, row in zip(factors, F)]
            kernel = module.kernel(F)
            assert kernel == ker_mod_im_by_embedded_kernel(module, F, None)
            stacked = [row + relation for row, relation in zip(F, relation_columns(factors))]
            cokernel = module.cokernel(F)
            assert cokernel == cokernel_by_full_elimination(stacked, p, E)
            assert prod(kernel) == prod(cokernel)
            if k:
                preimage = preimage_gens_with_relations(factors, F, p, E)
                assert kernel == subquotient_by_full_elimination(preimage, relation_columns(factors), p, E)
                seen["ker F = 0" if not kernel else "ker F = A" if kernel == factors else "0 < ker F < A"] += 1
            else:
                assert kernel == cokernel == ()
    assert min(seen.values()) >= 10


def test_kernel_and_cokernel_reject_matrices_not_well_defined(monkeypatch):
    # On Z/9 ⊕ Z/3 the entry (0, 1) of [[1, 1], [0, 1]] sends the Z/3
    # generator to a generator of Z/9, which is not a homomorphism; both
    # methods raise before any engine call, naming the first bad entry in
    # row-major order as the constructor does, and a wrong shape raises too
    module = FinitePModule(3, (9, 3))
    engine = []
    monkeypatch.setattr("anticyclo.cohomology.cokernel_mod", lambda *args: engine.append(args) or cokernel_mod(*args))
    for method in (module.kernel, module.cokernel):
        with pytest.raises(ValueError, match=r"matrix is not well defined: entry \(0,1\) must be divisible by 3"):
            method([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="2x2 matrix"):
            method([[1, 0]])
    big = FinitePModule(5, (125, 25, 5))
    with pytest.raises(ValueError, match=r"entry \(0,2\) must be divisible by 25"):
        big.cokernel([[1, 5, 5], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(ValueError, match=r"entry \(1,2\) must be divisible by 5"):
        big.kernel([[1, 5, 25], [0, 1, 1], [0, 0, 1]])
    assert engine == []
    # the transposed direction and multiples of q_i/q_j are well defined
    F = [[1, 3], [1, 1]]
    assert module.kernel(F) == ker_mod_im_by_embedded_kernel(module, F, None)
    assert len(engine) == 1


def test_tate_operations_pin_their_engine_calls_and_build_no_v(monkeypatch):
    # ker F / im G is one SNF of D·F handing out V^-1 plus one cokernel_mod;
    # fixed points, minus parts and coinvariants are one cokernel_mod each
    import anticyclo.cohomology as cohomology
    import anticyclo.snf as snf

    tracks = []
    engine = snf.smith_normal_form_mod_prime_power

    def counted(A, p, precision, track="V"):
        tracks.append(track)
        return engine(A, p, precision, track)

    monkeypatch.setattr(snf, "smith_normal_form_mod_prime_power", counted)
    monkeypatch.setattr(cohomology, "smith_normal_form_mod_prime_power", counted)
    rng = random.Random(8)
    modules = [_block_module(rng, (3, 5)[case % 2]) for case in range(4)]
    modules += [_random_module_with_cyclic_action(rng, 3, 5)[0] for _ in range(4)]
    modules.append(FinitePModule(3, ()))
    operations = (
        (tate_h0, "tau", 2), (tate_hm1, "tau", 2), (herbrand_check, "tau", 4),
        (fixed_points, "tau", 1), (minus_part, "J", 1), (coinvariants, "tau", 1),
    )
    for module in modules:
        for operation, action, calls in operations:
            tracks.clear()
            operation(module, action)
            assert len(tracks) == calls
            assert "V" not in tracks


@pytest.mark.parametrize(
    "operation", [fixed_points, norm_image, tate_h0, tate_hm1, minus_part, herbrand_check]
)
def test_trivial_module_answers_with_default_action_names(operation):
    # every operation asks the zero module for its action under the default
    # name, and ``action`` returns the empty matrix, so each answers zero
    # (herbrand_check: True) without any action being declared
    expected = True if operation is herbrand_check else FinitePModule(3, ())
    assert operation(FinitePModule(3, ())) == expected


def test_zero_module_flows_through_the_engine():
    # the empty matrix is the one endomorphism of the zero module, of every
    # order, so any name and any m reach the general code and give zero
    zero = FinitePModule(3, ())
    assert zero.action("any") == []
    for m in (None, 0, 7):
        assert _norm_matrix(zero, "any", m) == []
        for operation in (norm_image, tate_h0, tate_hm1):
            assert operation(zero, "any", m) == zero
        assert herbrand_check(zero, "any", m)
    for operation in (fixed_points, minus_part, coinvariants):
        assert operation(zero, "any") == zero
    with pytest.raises(ValueError, match="no action named 'any'"):
        FinitePModule(3, (3,)).action("any")
    # a declared order is certified by the doubling chain, which finds the
    # empty matrix to be the identity before any product, so the zero
    # module, with no largest factor to pack by, takes none
    assert zero._norm_and_power([], 5) == ([], [])
    assert FinitePModule(3, (), actions={"tau": []}, orders={"tau": 5}).orders == {"tau": 5}


def test_empty_kernels_give_trivial_groups():
    # T = -1 of order 2: T - 1 = -2 is invertible, so nothing is fixed,
    # N = 1 + T = 0, and every element is a shift
    flip = FinitePModule(3, (9, 3), actions={"tau": [[-1, 0], [0, -1]]}, orders={"tau": 2})
    assert fixed_points(flip, "tau").invariant_factors == ()
    assert tate_h0(flip, "tau").invariant_factors == ()
    assert tate_hm1(flip, "tau").invariant_factors == ()
    assert norm_image(flip, "tau").invariant_factors == ()
    # T = 1 of order 2: N = 2 is injective and onto
    trivial = FinitePModule(3, (9,), actions={"tau": [[1]]}, orders={"tau": 2})
    assert tate_hm1(trivial, "tau").invariant_factors == ()
    assert tate_h0(trivial, "tau").invariant_factors == ()
    assert herbrand_check(trivial, "tau")


def test_minus_part_examples_and_idempotence():
    assert minus_part(FinitePModule(3, (9,), actions={"J": [[-1]]})).invariant_factors == (9,)
    assert minus_part(FinitePModule(3, (9,), actions={"J": [[1]]})).invariant_factors == ()
    mixed = FinitePModule(3, (9, 3), actions={"J": [[1, 0], [0, -1]]})
    part = minus_part(mixed)
    assert part.invariant_factors == (3,)
    assert minus_part(part).invariant_factors == (3,)


def test_minus_part_when_j_mixes_generators_of_different_orders():
    # J moves a generator into a summand of another order, so A⁻ is no
    # coordinate summand: on Z/9 ⊕ Z/3 with J = [[1, 3], [0, -1]], A⁻ is
    # generated by (3, 1) and A⁺ = Z/9; the enumeration oracle agrees
    for factors, J, expected in (
        ((9, 3), [[1, 3], [0, -1]], (3,)),
        ((9, 3), [[1, 0], [1, -1]], (3,)),
        ((27, 3), [[-1, 9], [0, 1]], (27,)),
        ((27, 9, 3), [[1, 3, 9], [0, -1, 0], [0, 0, -1]], (9, 3)),
    ):
        module = FinitePModule(3, factors, actions={"J": J})
        assert minus_part(module).invariant_factors == expected == _oracle_minus_part(module)
    # P·diag(±1)·P^-1 for automorphisms P of modules with distinct orders
    rng = random.Random(17)
    for case in range(30):
        p = (3, 5)[case % 2]
        factors = ((27, 9, 3), (9, 3, 3), (27, 3))[case % 3] if p == 3 else ((25, 5), (25, 5, 5))[case % 2]
        k = len(factors)
        signs = [rng.choice((1, -1)) for _ in range(k)]
        P, P_inv = _random_automorphism(rng, factors)
        J = _mat_mul(_mat_mul(P, [[signs[i] if i == j else 0 for j in range(k)] for i in range(k)]), P_inv)
        module = FinitePModule(p, factors, actions={"J": J})
        part = minus_part(module)
        assert part.invariant_factors == _oracle_minus_part(module)
        assert part.size() == prod(q for q, s in zip(factors, signs) if s == -1)


def test_minus_part_checks_undeclared_involutions():
    # tau of order 3 is not an involution; neither a declared order 3 nor
    # no declared order lets minus_part skip its check
    for orders in ({"tau": 3}, {}):
        module = FinitePModule(3, (9,), actions={"tau": [[4]]}, orders=orders)
        with pytest.raises(ValueError, match=r"action 'tau' does not satisfy tau\^2 = identity"):
            minus_part(module, "tau")
    mixed = FinitePModule(3, (27, 9, 3), actions={"tau": [[4, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(ValueError, match=r"action 'tau' does not satisfy tau\^2 = identity"):
        minus_part(mixed, "tau")


def test_no_action_name_is_special():
    # an action named "J" of order 3 gets no declared order and no norm;
    # the Tate groups of its order run on it, and only a minus part, which
    # needs J^2 = 1, rejects it, naming the action
    module = FinitePModule(3, (9,), actions={"J": [[4]]})
    assert module.orders == {} and module.norms == {}
    assert tate_h0(module, "J", 3).invariant_factors == ()
    assert herbrand_check(module, "J", 3)
    with pytest.raises(ValueError, match="'J'"):
        minus_part(module)


def test_minus_part_takes_one_product_and_its_result_none(monkeypatch):
    # on modules shaped like the benchmark's (tau of declared order p and
    # an undeclared J) only tau's norm is stored; 1 + J and the check
    # J^2 = 1 cost one packed product, and the result, J = -1 with no
    # declared order, is built with none
    rng = random.Random(43)
    products = _count_products(monkeypatch)
    for case in range(4):
        p = (3, 5)[case % 2]
        module = _block_module(rng, p)
        assert set(module.norms) == {("tau", p)}
        products.clear()
        part = minus_part(module)
        assert len(products) == 1
        declared = FinitePModule(p, module.invariant_factors, actions=dict(module.actions), orders={"J": 2})
        assert part == minus_part(declared) and part.orders == {}
        products.clear()
        FinitePModule(p, part.invariant_factors, actions=dict(part.actions))
        assert products == []


def test_minus_part_trusts_a_declared_order_two(monkeypatch):
    # an involution declared of order 2 under another name gives the
    # oracle's minus part, with one chain (the J^2 check) fewer than an
    # undeclared one
    rng = random.Random(41)
    for case in range(30):
        p = (3, 5)[case % 2]
        module, _ = _random_module_with_cyclic_action(rng, p, 5 if p == 3 else 3, distinct=case % 2 == 1)
        J = module.actions["J"]
        declared = FinitePModule(p, module.invariant_factors, actions={"sigma": J, "J": J}, orders={"sigma": 2})
        undeclared = FinitePModule(p, module.invariant_factors, actions={"sigma": J})
        expected = _oracle_minus_part(declared)
        with monkeypatch.context() as patch:
            chains = []
            chain = FinitePModule._norm_and_power
            patch.setattr(FinitePModule, "_norm_and_power", lambda *args: chains.append(1) or chain(*args))
            counts = []
            for source in (declared, undeclared):
                chains.clear()
                assert minus_part(source, "sigma").invariant_factors == expected
                counts.append(len(chains))
        assert counts[1] == counts[0] + 1


def _random_module_with_cyclic_action(rng, p, max_size_exponent, distinct=False):
    """Random finite module of order <= p^max_size_exponent with a random
    finite-order action tau and an involution J = tau·D·tau^-1, D = ±1
    on each generator.  With ``distinct`` the factors are not all equal."""
    while True:
        k = rng.randint(1, 3)
        exps = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        if sum(exps) > max_size_exponent or (distinct and exps[0] == exps[-1]):
            continue
        factors = tuple(p**e for e in exps)
        rows = _random_action(rng, factors)
        try:
            module = FinitePModule(p, factors, actions={"tau": rows})
        except ValueError:
            continue
        # keep only invertible actions of small finite order
        powers = [rows]
        for order in range(1, 200):
            if module._is_identity(powers[-1]):
                signs = [[rng.choice([1, -1]) if i == j else 0 for j in range(k)] for i in range(k)]
                inverse = powers[-2] if order > 1 else rows
                J = module._reduce(_mat_mul(_mat_mul(rows, signs), inverse))
                return (
                    FinitePModule(
                        p, factors, actions={"tau": rows, "J": J}, orders={"tau": order}
                    ),
                    order,
                )
            powers.append(module._reduce(_mat_mul(powers[-1], rows)))


def _random_action(rng, factors):
    """A random well-defined endomorphism of ⊕ Z/q_i: entry (i, j) is a
    multiple of q_i/gcd(q_i, q_j), reduced mod q_i."""
    rows = []
    for qi in factors:
        row = []
        for qj in factors:
            need = qi // gcd(qi, qj)
            row.append(need * rng.randrange(0, max(1, qi // need)))
        rows.append(row)
    return rows


def _mat_mul(A, B):
    k = len(A)
    return [[sum(A[i][l] * B[l][j] for l in range(k)) for j in range(k)] for i in range(k)]


def _oracle_tate_structures(module, order):
    factors = module.invariant_factors
    p = module.p
    rows = [list(r) for r in module.actions["tau"]]
    els = all_elements(factors)
    zero = tuple([0] * len(factors))

    def add(x, y):
        return tuple((a + b) % q for a, b, q in zip(x, y, factors))

    tau = {x: apply_rows(rows, x, factors) for x in els}

    def norm(x):
        acc = zero
        cur = x
        for _ in range(order):
            acc = add(acc, cur)
            cur = tau[cur]
        return acc

    normed = [norm(x) for x in els]
    fixed = [x for x in els if tau[x] == x]
    norms = set(normed)
    kernel = [x for x, n in zip(els, normed) if n == zero]
    shifts = {add(tau[x], tuple((-a) % q for a, q in zip(x, factors))) for x in els}
    h0 = quotient_structure(fixed, norms, factors, p)
    hm1 = quotient_structure(kernel, shifts, factors, p)
    return fixed, norms, shifts, h0, hm1


def _oracle_minus_part(module):
    # p is odd, so the image of (1 - J)/2 is the -1 eigenspace of J
    factors = module.invariant_factors
    J = [list(r) for r in module.actions["J"]]
    minus = [
        x for x in all_elements(factors)
        if apply_rows(J, x, factors) == tuple((-a) % q for a, q in zip(x, factors))
    ]
    return quotient_structure(minus, [tuple([0] * len(factors))], factors, module.p)


def test_tate_groups_match_enumeration_oracle():
    rng = random.Random(77)
    for p, max_size_exponent, cases in ((3, 6, 60), (5, 4, 40)):
        distinct_exponents = 0
        for case in range(cases):
            module, order = _random_module_with_cyclic_action(
                rng, p, max_size_exponent, distinct=case % 2 == 1
            )
            fixed, norms, shifts, h0, hm1 = _oracle_tate_structures(module, order)
            factors = module.invariant_factors
            zero = [tuple([0] * len(factors))]
            assert tate_h0(module, "tau", order).invariant_factors == h0
            assert tate_hm1(module, "tau", order).invariant_factors == hm1
            assert fixed_points(module, "tau").invariant_factors == quotient_structure(fixed, zero, factors, p)
            assert norm_image(module, "tau", order).invariant_factors == quotient_structure(norms, zero, factors, p)
            # rank-nullity over the finite module
            assert len(fixed) * len(shifts) == module.size()
            assert herbrand_check(module, "tau", order)
            coinv = quotient_structure(all_elements(module.invariant_factors), shifts,
                                       module.invariant_factors, p)
            assert coinvariants(module, "tau").invariant_factors == coinv
            assert minus_part(module, "J").invariant_factors == _oracle_minus_part(module)
            distinct_exponents += factors[0] != factors[-1]
        # E exceeds the smallest factor's exponent in at least half the cases
        assert distinct_exponents >= cases // 2


def _unit_triangular_inverse(A, lower):
    k = len(A)
    inv = [[0] * k for _ in range(k)]
    order = range(k) if lower else range(k - 1, -1, -1)
    for col in range(k):
        for i in order:
            inv[i][col] = (i == col) - sum(A[i][j] * inv[j][col] for j in range(k) if j != i)
    return inv


def _block_module(rng, p):
    """A module shaped like the benchmark's Tate jobs, beyond enumeration.

    Free blocks Z/p^e[C_p] (tau permutes p generators) and trivial blocks
    Z/p^e (tau = 1) give k = 8..16 generators with distinct exponents, and
    J is ±1 on each generator.  Both are conjugated by the automorphism
    P = L·U of A from ``_random_automorphism``.
    """
    while True:
        blocks = [(p, rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        blocks += [(1, rng.randint(1, 6)) for _ in range(rng.randint(1, 7))]
        gens = sorted(((e, b, i) for b, (size, e) in enumerate(blocks) for i in range(size)), reverse=True)
        if 8 <= len(gens) <= 16 and gens[0][0] != gens[-1][0]:
            break
    k = len(gens)
    factors = tuple(p**e for e, _, _ in gens)
    index = {(b, i): j for j, (_, b, i) in enumerate(gens)}
    tau = [[0] * k for _ in range(k)]
    for j, (_, b, i) in enumerate(gens):
        tau[index[(b, (i + 1) % blocks[b][0])]][j] = 1
    J = [[rng.choice((1, -1)) if i == j else 0 for j in range(k)] for i in range(k)]
    P, P_inv = _random_automorphism(rng, factors)
    actions = {name: _mat_mul(_mat_mul(P, X), P_inv) for name, X in (("tau", tau), ("J", J))}
    return FinitePModule(p, factors, actions=actions, orders={"tau": p})


def test_tate_groups_match_relation_lattice_oracle():
    rng = random.Random(12)
    nontrivial_h0 = 0
    for case in range(16):
        p = (3, 5)[case % 2]
        module = _block_module(rng, p)
        expected = tate_groups_by_relation_lattice(module, p)
        assert fixed_points(module, "tau").invariant_factors == expected["fixed_points"]
        assert norm_image(module, "tau").invariant_factors == expected["norm_image"]
        assert tate_h0(module, "tau").invariant_factors == expected["tate_h0"]
        assert tate_hm1(module, "tau").invariant_factors == expected["tate_hm1"]
        assert minus_part(module, "J").invariant_factors == expected["minus_part"]
        assert herbrand_check(module, "tau") == expected["herbrand_check"] is True
        nontrivial_h0 += expected["tate_h0"] != ()
    assert nontrivial_h0 >= 8


def _assert_norm_matches_repeated_products(module, m):
    expected = norm_matrix_by_repeated_products(module, "tau", m)
    assert _norm_matrix(module, "tau", m) == expected


def _assert_norm_rejects(module, m):
    with pytest.raises(ValueError):
        norm_matrix_by_repeated_products(module, "tau", m)
    with pytest.raises(ValueError, match="does not satisfy"):
        _norm_matrix(module, "tau", m)


def test_norm_matrix_matches_repeated_products():
    # the packed norm against m - 1 reduced dense products: random actions
    # of order up to 199, conjugated modules with k up to 16 at m = 1, p,
    # p^2, p^3, and T = -I, whose entries q_i - 1 are the largest, at even m
    rng = random.Random(29)
    orders = set()
    for case in range(60):
        p = (3, 5, 7)[case % 3]
        module, order = _random_module_with_cyclic_action(rng, p, 6, distinct=case % 2 == 1)
        orders.add(order)
        for m in (order, 2 * order):
            _assert_norm_matches_repeated_products(module, m)
        if order > 1:
            _assert_norm_rejects(module, order + 1)
    assert max(orders) >= 50
    sizes = set()
    for case in range(6):
        p = (3, 5)[case % 2]
        module = _block_module(rng, p)
        sizes.add(len(module.invariant_factors))
        _assert_norm_rejects(module, 1)
        for m in (p, p**2, p**3):
            _assert_norm_matches_repeated_products(module, m)
    assert max(sizes) >= 14
    for p, factors in ((3, (3**9,)), (5, (5**7,) * 3), (7, (7**5, 7**5, 7**3)), (3, (3**6,) * 16)):
        k = len(factors)
        minus = FinitePModule(p, factors, actions={"tau": [[-int(i == j) for j in range(k)] for i in range(k)]})
        identity = FinitePModule(p, factors, actions={"tau": [[int(i == j) for j in range(k)] for i in range(k)]})
        for m in (2, 2 * p, 2 * p**3, 2 * p**4):
            _assert_norm_matches_repeated_products(minus, m)
            assert _norm_matrix(minus, "tau", m) == [[0] * k] * k
        _assert_norm_rejects(minus, 2 * p + 1)
        _assert_norm_matches_repeated_products(identity, 1)


def test_minus_part_sizes_multiply():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 3)
        exps = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        factors = tuple(3**e for e in exps)
        signs = [rng.choice([1, -1]) for _ in range(k)]
        J = [[signs[i] if i == j else 0 for j in range(k)] for i in range(k)]
        module = FinitePModule(3, factors, actions={"J": J})
        minus = minus_part(module)
        plus_size = module.size() // minus.size()
        expected_minus = 1
        for q, s in zip(factors, signs):
            if s == -1:
                expected_minus *= q
        assert minus.size() == expected_minus
        assert plus_size * minus.size() == module.size()


def test_trivial_action_fixes_everything():
    module = FinitePModule(3, (27, 3), actions={"tau": [[1, 0], [0, 1]]}, orders={"tau": 3})
    assert fixed_points(module, "tau").size() == module.size()


def test_cyclic_obstruction_decision():
    for p, e, t in [(3, 2, 4), (5, 2, 6), (3, 3, 10)]:
        module = FinitePModule(p, (p**e,), actions={"tau": [[t]]}, orders={"tau": p})
        result = theorem2_cyclic_obstruction(module)
        assert result.holds
        assert result.witness is None


def test_cyclic_obstruction_validation():
    with pytest.raises(ValueError, match="cyclic A1"):
        theorem2_cyclic_obstruction(
            FinitePModule(3, (9, 3), actions={"tau": [[4, 0], [0, 1]]})
        )
    with pytest.raises(ValueError, match="nontrivial"):
        theorem2_cyclic_obstruction(
            FinitePModule(3, (9,), actions={"tau": [[1]]}, orders={"tau": 3})
        )
    with pytest.raises(ValueError, match="at least p"):
        theorem2_cyclic_obstruction(
            FinitePModule(3, (3,), actions={"tau": [[1]]})
        )
