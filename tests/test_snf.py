import random
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticyclo.linalg import PadicMatrix
from anticyclo.snf import (
    cokernel_mod,
    det_nonzero_mod,
    kernel_mod,
    mat_mul,
    smith_normal_form_mod_prime_power,
)

from conftest import (
    charpoly_by_expansion,
    cokernel_by_full_elimination,
    column_span_structure,
    int_valuation,
    kernel_by_full_elimination,
    padic_det,
    rescanning_gcd_reads,
    snf_by_full_elimination,
)


@st.composite
def local_matrices(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    precision = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    A = [[draw(st.integers(-200, 200)) for _ in range(cols)] for _ in range(rows)]
    return A, p, precision


@given(local_matrices())
@settings(max_examples=200)
def test_local_ring_snf_properties(case):
    A, p, precision = case
    m = p**precision
    diag, Vc = smith_normal_form_mod_prime_power(A, p, precision)
    V = [list(row) for row in zip(*Vc)]
    assert len(diag) == len(A[0])
    # pivots are p-powers below p^N with non-decreasing exponents, then zeros
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    exps = [int_valuation(d, p) for d in nonzero]
    assert all(d == p**e and e < precision for d, e in zip(nonzero, exps))
    assert exps == sorted(exps)
    assert charpoly_by_expansion(V, p)[0] != 0  # V invertible over the local ring
    # A·V = U^-1·diag: column j is a multiple of diag[j], zero when it is 0
    AV = mat_mul(A, V)
    for j, d in enumerate(diag):
        assert all(row[j] % (d or m) == 0 for row in AV)


def test_cokernel_order_decides_determinant_tests():
    # |coker A| = p^(v_p det A) when no pivot is zero, and a zero pivot is
    # a factor p^N, so det A ≢ 0 mod p^N iff the factors multiply to less
    # than p^N; at N = 1 that says A is invertible mod p iff coker is ().
    rng = random.Random(31)
    seen = set()
    for _ in range(600):
        n = rng.randint(0, 4)
        p, N = rng.choice([(3, 1), (5, 1), (3, 4), (5, 3), (7, 2)])
        m = p**N
        A = [
            [rng.choice([0, rng.randrange(-m, m), rng.randrange(m) * p ** rng.randrange(1, N + 1)]) for _ in range(n)]
            for _ in range(n)
        ]
        factors = cokernel_mod(A, p, N)
        nonzero_det = charpoly_by_expansion(A, m)[0] != 0  # constant term is ±det
        assert (prod(factors) < m) == nonzero_det
        assert (cokernel_mod(A, p, 1) == ()) == (charpoly_by_expansion(A, p)[0] != 0)
        zero_pivot = m in factors
        seen.add((n, N > 1, zero_pivot, nonzero_det))
    # every size at both precisions, zero pivots, and vanishing determinants
    # with every pivot nonzero (sum of the pivot valuations >= N)
    assert {(n, big) for n, big, _, _ in seen} == {(n, big) for n in range(5) for big in (False, True)}
    assert any(zero for _, _, zero, _ in seen)
    assert any(big and not zero and not nonzero for _, big, zero, nonzero in seen)


def test_det_nonzero_mod_matches_the_berkowitz_determinant():
    # against det A mod p^N from the Berkowitz characteristic polynomial,
    # on random square matrices at N = 1 and N > 1, with rows of multiples
    # of p (singular mod p) and repeated rows (a zero pivot) mixed in
    rng = random.Random(47)
    seen = set()
    for _ in range(800):
        n = rng.randint(1, 5)
        p, N = rng.choice([(3, 1), (5, 1), (7, 1), (3, 3), (5, 2), (3, 5), (7, 3)])
        m = p**N
        A = [[rng.choice([0, rng.randrange(m), p * rng.randrange(m)]) for _ in range(n)] for _ in range(n)]
        shape = rng.randrange(3)
        if shape == 1:
            A[0] = [p * x for x in A[-1]]
        elif shape == 2 and n > 1:
            A[0] = list(A[-1])
        nonzero = padic_det(PadicMatrix(p, N, A)).residue != 0
        assert det_nonzero_mod(A, p, N) == nonzero
        assert det_nonzero_mod(A, p, 1) == padic_det(PadicMatrix(p, N, A)).is_unit()
        seen.add((N > 1, nonzero, m in cokernel_mod(A, p, N), det_nonzero_mod(A, p, 1)))
    # both precisions, invertible matrices, zero pivots, and at N > 1 both a
    # determinant that vanishes with every pivot nonzero and a nonzero one
    # divisible by p
    assert {big for big, *_ in seen} == {False, True}
    assert (False, True, False, True) in seen and (True, True, False, True) in seen
    assert (False, False, True, False) in seen and (True, False, True, False) in seen
    assert (True, False, False, False) in seen and (True, True, False, False) in seen


def test_zero_pivot_iff_kernel_visible_mod_p():
    # A square A has a zero pivot (a cokernel factor p^N) exactly when its
    # kernel holds a vector ≢ 0 mod p, the multiplier-1 generators; the
    # intertwiner certificate reads the cokernel for the kernel's sake.
    rng = random.Random(37)
    seen = set()
    for p in (3, 5, 7):
        for N in range(1, 6):
            m = p**N
            for r in range(1, 7):
                for _ in range(45):
                    A = [
                        [rng.choice([0, rng.randrange(m), rng.randrange(m) * p ** rng.randrange(1, N + 1) % m])
                         for _ in range(r)]
                        for _ in range(r)
                    ]
                    zero_pivot = m in cokernel_mod(A, p, N)
                    assert zero_pivot == any(mult == 1 for _, mult in kernel_mod(A, p, N))
                    seen.add((r, zero_pivot))
    assert seen == {(r, zero) for r in range(1, 7) for zero in (False, True)}


def test_local_ring_snf_agrees_with_integer_snf():
    # the column span is ⊕ Z/p^(N - v_i) over the nonzero pivots p^(v_i)
    rng = random.Random(23)
    for _ in range(60):
        p, precision = rng.choice([(3, 3), (3, 2), (5, 2), (7, 1)])
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        A = [[rng.randrange(p**precision) for _ in range(cols)] for _ in range(rows)]
        diag, Vc = smith_normal_form_mod_prime_power(A, p, precision)
        V = [list(row) for row in zip(*Vc)]
        got = tuple(sorted((p**precision // d for d in diag if d), reverse=True))
        assert got == column_span_structure(A, p, precision)
        assert charpoly_by_expansion(V, p)[0] != 0  # V invertible over the local ring


def test_local_ring_snf_agrees_with_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(29)
    for _ in range(60):
        p, precision = rng.choice([(3, 4), (5, 3), (7, 2)])
        m = p**precision
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = [[rng.randrange(-m, m) for _ in range(cols)] for _ in range(rows)]
        # the cokernel of [A | p^N·I] over Z is (Z/p^N)^rows / (column span of A)
        stacked = sympy.Matrix([A[i] + [m if i == j else 0 for j in range(rows)] for i in range(rows)])
        expected = tuple(sorted((int(q) for q in invariant_factors(stacked) if q != 1), reverse=True))
        assert cokernel_mod(A, p, precision) == expected


def test_kernel_mod_generates_the_kernel():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = 27
        A = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        gens = kernel_mod(A, 3, 3)
        # brute-force kernel for comparison
        from itertools import product

        kernel = {
            v
            for v in product(range(m), repeat=n)
            if all(sum(A[i][j] * v[j] for j in range(n)) % m == 0 for i in range(n))
        }
        span = {tuple([0] * n)}
        frontier = [tuple([0] * n)]
        while frontier:
            new = []
            for x in frontier:
                for g, _ in gens:
                    y = tuple((a + b) % m for a, b in zip(x, g))
                    if y not in span:
                        span.add(y)
                        new.append(y)
            frontier = new
        assert span == kernel


def test_lean_elimination_matches_full_elimination():
    # the engine skips the column pass on M and finds pivots by gcd; the
    # full-elimination oracle must give the same (diag, V), kernel
    # generators and cokernel on every shape, including empty ones
    rng = random.Random(41)
    shapes, kinds, zero_lines = set(), set(), set()
    for _ in range(1500):
        p = rng.choice([3, 5, 7])
        N = rng.randint(1, 5)
        m = p**N
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        kind = rng.choice(["uniform", "planted", "divisible", "blocks"])

        def entry():
            if kind == "uniform":
                return rng.randrange(-m, m)
            if kind in ("planted", "blocks"):  # high valuations, many ties for the pivot
                return rng.choice([0, rng.randrange(m) * p ** rng.randint(0, N)])
            return p * rng.randrange(m)  # every entry ≡ 0 mod p

        A = [[entry() for _ in range(cols)] for _ in range(rows)]
        if kind == "blocks":  # block-diagonal: most rows hold a 0 in the pivot column
            nb = rng.randint(1, 3)
            A = [[x if i * nb // rows == j * nb // cols else 0 for j, x in enumerate(row)] for i, row in enumerate(A)]
        if rows and cols and rng.random() < 0.2:
            A[rng.randrange(rows)] = [0] * cols
        if rows and cols and rng.random() < 0.2:
            j = rng.randrange(cols)
            for row in A:
                row[j] = 0
        diag, Vc = smith_normal_form_mod_prime_power(A, p, N)
        assert (diag, [list(row) for row in zip(*Vc)]) == snf_by_full_elimination(A, p, N)
        assert smith_normal_form_mod_prime_power(A, p, N, None) == (diag, None)
        # the rows of V^-1 come from the same elimination: same pivots, and
        # V^-1·V is the identity mod p^N
        pivots, Vr = smith_normal_form_mod_prime_power(A, p, N, "V^-1")
        assert pivots == diag
        assert [[sum(map(mul, row, col)) % m for col in Vc] for row in Vr] == [
            [int(i == j) % m for j in range(len(Vc))] for i in range(len(Vc))
        ]
        assert kernel_mod(A, p, N) == kernel_by_full_elimination(A, p, N)
        assert cokernel_mod(A, p, N) == cokernel_by_full_elimination(A, p, N)
        shapes.add("empty" if rows * cols == 0 else "wide" if rows < cols else "tall" if rows > cols else "square")
        kinds.add((N > 1, kind))
        if rows * cols:
            zero_lines.add(("row", not all(map(any, A))))
            zero_lines.add(("column", not all(map(any, zip(*A)))))
    assert shapes == {"empty", "wide", "tall", "square"}
    assert kinds == {(big, kind) for big in (False, True) for kind in ("uniform", "planted", "divisible", "blocks")}
    assert {("row", True), ("column", True)} <= zero_lines
    # A k×0 and a 0×0 matrix: no pivots, and V is the empty identity
    assert smith_normal_form_mod_prime_power([[], []], 3, 2) == snf_by_full_elimination([[], []], 3, 2) == ([], [])
    assert smith_normal_form_mod_prime_power([], 3, 2) == snf_by_full_elimination([], 3, 2) == ([], [])
    assert smith_normal_form_mod_prime_power([[], []], 3, 2, "V^-1") == smith_normal_form_mod_prime_power([], 3, 2, "V^-1") == ([], [])


def _block_diagonal(blocks):
    n = sum(map(len, blocks))
    A = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            A[at + i][at : at + len(row)] = row
        at += len(block)
    return A


def test_cached_row_gcds_read_less_for_the_same_pivots(monkeypatch):
    # a row's gcd with p^N is read once and again only after a row
    # operation changed it, so the engine takes fewer gcds than a scan
    # that rereads every active row at every step, for the same pivots
    import anticyclo.snf as snf

    reads = []
    monkeypatch.setattr(snf, "gcd", lambda *args: reads.append(1) or gcd(*args))

    def engine_reads(A, p, N):
        reads.clear()
        diag, _ = smith_normal_form_mod_prime_power(A, p, N, None)
        return diag, len(reads)

    # most rows of a block-diagonal matrix hold a 0 in the pivot column
    blocks = _block_diagonal([[[9, 27], [27, 18]], [[3, 6], [9, 3]], [[27, 0], [9, 54]], [[1, 3], [3, 2]]])
    # the shape of a Tate cokernel: [F | diag(q_i)] on 12 generators
    factors = (81, 81, 27, 27, 27, 9, 9, 9, 3, 3, 3, 3)
    tate = [
        [3 ** ((i + j) % 3) * (i - j + 1) for j in range(12)] + [q * (i == j) for j, q in enumerate(factors)]
        for i in range(12)
    ]
    for A, pinned in ((blocks, (11, 35)), (tate, (24, 58))):
        diag, count = engine_reads(A, 3, 4)
        rescanned_diag, rescanned = rescanning_gcd_reads(A, 3, 4)
        assert diag == rescanned_diag
        assert (count, rescanned) == pinned
        assert count < rescanned
    # and never more, on any shape
    rng = random.Random(43)
    for _ in range(300):
        p = rng.choice([3, 5])
        N = rng.randint(1, 4)
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        A = [[rng.choice([0, rng.randrange(p**N) * p ** rng.randint(0, N)]) for _ in range(cols)] for _ in range(rows)]
        diag, count = engine_reads(A, p, N)
        rescanned_diag, rescanned = rescanning_gcd_reads(A, p, N)
        assert diag == rescanned_diag
        assert count <= rescanned
