import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticyclo.snf import (
    cokernel_mod,
    int_det,
    kernel_mod,
    mat_mul,
    smith_normal_form_mod_prime_power,
)

from conftest import column_span_structure, int_valuation


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
    diag, V = smith_normal_form_mod_prime_power(A, p, precision)
    assert len(diag) == len(A[0])
    # pivots are p-powers below p^N with non-decreasing exponents, then zeros
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    exps = [int_valuation(d, p) for d in nonzero]
    assert all(d == p**e and e < precision for d, e in zip(nonzero, exps))
    assert exps == sorted(exps)
    assert int_det(V) % p != 0  # V invertible over the local ring
    # A·V = U^-1·diag: column j is a multiple of diag[j], zero when it is 0
    AV = mat_mul(A, V)
    for j, d in enumerate(diag):
        assert all(row[j] % (d or m) == 0 for row in AV)


def test_int_det_matches_permutation_expansion():
    from itertools import permutations

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = [False] * n
            for s in range(n):
                if seen[s]:
                    continue
                ln, j = 0, s
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                if ln % 2 == 0:
                    sign = -sign
            prod = sign
            for i in range(n):
                prod *= A[i][perm[i]]
            expected += prod
        assert int_det(A) == expected


def test_local_ring_snf_agrees_with_integer_snf():
    # the column span is ⊕ Z/p^(N - v_i) over the nonzero pivots p^(v_i)
    rng = random.Random(23)
    for _ in range(60):
        p, precision = rng.choice([(3, 3), (3, 2), (5, 2), (7, 1)])
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        A = [[rng.randrange(p**precision) for _ in range(cols)] for _ in range(rows)]
        diag, V = smith_normal_form_mod_prime_power(A, p, precision)
        got = tuple(sorted((p**precision // d for d in diag if d), reverse=True))
        assert got == column_span_structure(A, p, precision)
        assert int_det(V) % p != 0  # V invertible over the local ring


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
