"""Exact matrix normal form: the local-ring Smith normal form over Z/p^N.

The local-ring Smith normal form is the one elimination engine of this
package.  It answers every kernel, image, and subquotient question on
finite abelian p-groups, since a lattice between p^N·Z^k and Z^k is
exactly a submodule of (Z/p^N)^k, and every determinant test, since a
square matrix without zero pivots has a cokernel of order p^(v_p det).
Entries stay reduced mod p^N and never grow; nothing is computed over Z.
All arithmetic is exact (Python integers).  The one other elimination,
``linalg._rref_basis``, reads its pivots and coefficients over the field
F_p, where dividing by any nonzero entry is sound, and only makes the
visible-kernel basis of the intertwiner equation canonical mod p; it
keeps each vector once, mod p^N.

Each pivot is an entry of least valuation in the active block, found
from C-level gcds with p^N rather than from one valuation per entry.
Only the rows below a pivot are eliminated, and the matrix itself takes
no column operations: once its column is cleared, the pivot row is never
read again, so they could only zero entries nobody looks at.  Column
operations are applied to V alone, and callers that read only the pivots
skip V entirely.  A caller that needs coordinates adapted to the pivots
(the Tate groups ker F / im G) can take the rows of V^-1 instead: they
are the pivot rows over their pivots, so they cost no column operation.
``kernel_mod`` keeps V, whose columns are the kernel generators.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def minus_identity(A) -> list[list[int]]:
    """A - I for a square matrix A of integer rows, unreduced."""
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(A)]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def smith_normal_form_mod_prime_power(A, p: int, precision: int, track: str | None = "V"):
    """Diagonalize A over the local ring Z/p^N: returns (diag, basis).

    diag[i] is p^(v_i) with non-decreasing v_i (0 entries mean the image
    vanishes in that direction), for U·A·V ≡ diag with U and V invertible
    mod p^N; U is never tracked.  ``track`` picks the basis returned:
    "V" the list of the columns of V, "V^-1" the list of the rows of
    V^-1, None nothing (None is returned).  Over a local ring an entry of
    least valuation divides everything in sight, so one elimination pass
    per pivot suffices and entries stay reduced mod p^N; this avoids the
    coefficient blowup of integer SNF.  This is the elimination engine
    behind every other function here.

    Step t takes the least valuation v of the active block (rows and
    columns >= t) as v_p(gcd(p^N, *entries)), by C-level gcds row by row,
    and pivots on the first entry in row-major order with valuation v:
    the first row whose gcd is p^v, then its first entry not divisible by
    p^(v+1).  The scan stops at the first row whose gcd is 1, since no
    later row can have a smaller one.  Row operations clear the column
    below the pivot.  Rows above are finished pivot rows, which nothing
    reads again.

    M gets no column operations.  After the row pass, column t is zero
    off the pivot, so a column operation on M would only zero an entry
    of the finished row t, and the active block would not change.  The
    column operations go to V alone, kept as a list of columns so that
    each one rewrites a single list.  The pivot row is not rescaled
    either: multiplying the row multipliers by the inverse of the pivot's
    unit part gives the same rows mod p^N.

    V is built from nothing but a column swap and the operations
    V[:, j] -= q_j·V[:, t] (j > t, q_j the entry j of the pivot row over
    the pivot) at each step t.  Undone in reverse, these leave row t of
    V^-1 equal to e_t + sum_j q_j·e_j in the column order of step t: the
    pivot row over its pivot, moved to the input's columns by the swaps
    so far.  Past the last pivot, row t is the unit vector of the input
    column at position t.  So "V^-1" costs one pass over each pivot row
    and no column operation at all.
    """
    m = p**precision
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [[x % m for x in row] for row in A]
    Vc = identity_matrix(cols) if track == "V" else None  # the columns of V
    inverse = track == "V^-1"
    at = list(range(cols)) if inverse else None  # at[j]: the input column now at position j
    Vr = []  # the rows of V^-1
    diag = [0] * cols
    for t in range(min(rows, cols)):
        # columns < t are zero in every row >= t, so whole rows can be read;
        # g = p^v, v the least valuation, is p^N when all vanish
        g, bi = m, t
        for i in range(t, rows):
            r = gcd(m, *M[i])
            if r < g:
                g, bi = r, i
                if r == 1:
                    break  # a unit row is the first minimum
        if g == m:
            break
        gp = g * p
        bj = next(j for j, x in enumerate(M[bi]) if x % gp)
        M[t], M[bi] = M[bi], M[t]
        if bj != t:
            for row in M[t:]:
                row[t], row[bj] = row[bj], row[t]
            if Vc is not None:
                Vc[t], Vc[bj] = Vc[bj], Vc[t]
            elif inverse:
                at[t], at[bj] = at[bj], at[t]
        pivot_row = M[t]
        scale = pow(pivot_row[t] // g, -1, m)  # scaled, the pivot is exactly g
        zeros = [0] * (t + 1)  # columns <= t of every row below, once cleared
        tail = pivot_row[t + 1 :]
        for i in range(t + 1, rows):
            row = M[i]
            if row[t]:
                q = row[t] // g * scale
                M[i] = zeros + [(a - q * b) % m for a, b in zip(row[t + 1 :], tail)]
        diag[t] = g
        if Vc is not None:
            vt = Vc[t]
            for j in range(t + 1, cols):
                if pivot_row[j]:
                    q = pivot_row[j] * scale % m // g
                    Vc[j] = [(a - q * b) % m for a, b in zip(Vc[j], vt)]
        elif inverse:
            vr = [0] * cols
            for j, x in zip(at[t:], pivot_row[t:]):
                vr[j] = x * scale % m // g
            Vr.append(vr)
    if inverse:
        for j in at[len(Vr) :]:
            vr = [0] * cols
            vr[j] = 1
            Vr.append(vr)
        return diag, Vr
    return diag, Vc


def kernel_mod(A, p: int, precision: int):
    """Generators of {x in (Z/p^N)^n : A·x ≡ 0 mod p^N}.

    Returns a list of (vector, multiplier) pairs: each generator is
    multiplier · (an invertible-image column) reduced mod p^N, and the
    pairs with multiplier 1 are exactly the ones visible mod p.  The
    generated subgroup is the full kernel.
    """
    m = p**precision
    diag, Vc = smith_normal_form_mod_prime_power(A, p, precision)
    gens = []
    for d, v in zip(diag, Vc):
        mult = m // gcd(d, m)
        if mult == m:
            continue  # generator would be 0 mod p^N
        gens.append(([x * mult % m for x in v], mult))
    return gens


def cokernel_mod(A, p: int, precision: int) -> tuple[int, ...]:
    """Invariant factors of (Z/p^N)^rows / (column span of A), descending,
    1s dropped.  A zero pivot is a full factor p^N.

    For square A the cokernel has order p^(v_p det A) when no pivot is
    zero, which ``det_nonzero_mod`` reads.
    """
    m = p**precision
    rows = len(A)
    diag, _ = smith_normal_form_mod_prime_power(A, p, precision, None)
    pivots = (diag + [0] * rows)[:rows]
    return tuple(sorted((d or m for d in pivots if d != 1), reverse=True))


def det_nonzero_mod(A, p: int, precision: int) -> bool:
    """det A ≢ 0 mod p^N for a square A; at N = 1, A is invertible mod p.
    A zero pivot is a cokernel factor p^N, so this holds exactly when the
    factors multiply to less than p^N."""
    return prod(cokernel_mod(A, p, precision)) < p**precision
