"""Exact matrix normal form: the local-ring Smith normal form over Z/p^N.

The local-ring Smith normal form is the one elimination engine of this
package.  It answers every kernel, image, and subquotient question on
finite abelian p-groups, since a lattice between p^N·Z^k and Z^k is
exactly a submodule of (Z/p^N)^k, and every determinant test, since a
square matrix without zero pivots has a cokernel of order p^(v_p det).
Entries stay reduced mod p^N and never grow; nothing is computed over Z.
All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .padic import valuation


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def smith_normal_form_mod_prime_power(A, p: int, precision: int):
    """Diagonalize A over the local ring Z/p^N: returns (diag, V).

    diag[i] is p^(v_i) with non-decreasing v_i (0 entries mean the image
    vanishes in that direction) and V is invertible mod p^N with
    U·A·V ≡ diag for a suitable invertible U (not tracked).  Over a local
    ring the minimal-valuation entry divides everything in sight, so one
    elimination pass per pivot suffices and entries stay reduced mod p^N;
    this avoids the coefficient blowup of integer SNF.
    """
    m = p**precision
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [[x % m for x in row] for row in A]
    V = identity_matrix(cols)

    t = 0
    while t < min(rows, cols):
        best = None
        best_v = None
        for i in range(t, rows):
            for j in range(t, cols):
                if M[i][j]:
                    v = valuation(M[i][j], p)
                    if best_v is None or v < best_v:
                        best_v = v
                        best = (i, j)
            if best_v == 0:
                break
        if best is None:
            break
        bi, bj = best
        M[t], M[bi] = M[bi], M[t]
        if bj != t:
            for r in range(rows):
                M[r][t], M[r][bj] = M[r][bj], M[r][t]
            for r in range(cols):
                V[r][t], V[r][bj] = V[r][bj], V[r][t]
        scale = pow(M[t][t] // p**best_v, -1, m)
        M[t] = [x * scale % m for x in M[t]]  # pivot becomes exactly p^v
        for i in range(rows):
            if i != t and M[i][t]:
                q = M[i][t] // p**best_v
                M[i] = [(a - q * b) % m for a, b in zip(M[i], M[t])]
        for j in range(cols):
            if j != t and M[t][j]:
                q = M[t][j] // p**best_v
                for r in range(rows):
                    M[r][j] = (M[r][j] - q * M[r][t]) % m
                for r in range(cols):
                    V[r][j] = (V[r][j] - q * V[r][t]) % m
        t += 1
    diag = [M[i][i] if i < rows and i < cols else 0 for i in range(cols)]
    return diag, V


def kernel_mod(A, p: int, precision: int):
    """Generators of {x in (Z/p^N)^n : A·x ≡ 0 mod p^N}.

    Returns a list of (vector, multiplier) pairs: each generator is
    multiplier · (an invertible-image column) reduced mod p^N, and the
    pairs with multiplier 1 are exactly the ones visible mod p.  The
    generated subgroup is the full kernel.
    """
    m = p**precision
    n = len(A[0]) if A else 0
    diag, V = smith_normal_form_mod_prime_power(A, p, precision)
    gens = []
    for i in range(n):
        mult = m // gcd(diag[i], m)
        if mult == m:
            continue  # generator would be 0 mod p^N
        vec = [V[r][i] * mult % m for r in range(n)]
        gens.append((vec, mult))
    return gens


def cokernel_mod(A, p: int, precision: int) -> tuple[int, ...]:
    """Invariant factors of (Z/p^N)^rows / (column span of A), descending,
    1s dropped.  A zero pivot is a full factor p^N.

    For square A the cokernel has order p^(v_p det A) when no pivot is
    zero, so det A ≢ 0 mod p^N exactly when the product of the factors is
    below p^N, and A is invertible mod p exactly when the factors at
    N = 1 are ``()``.
    """
    m = p**precision
    rows = len(A)
    diag, _ = smith_normal_form_mod_prime_power(A, p, precision)
    pivots = (diag + [0] * rows)[:rows]
    return tuple(sorted((d or m for d in pivots if d != 1), reverse=True))
