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
Each row's gcd is read once and cached until a row operation changes
the row, so a step reads only the rows changed since their last read.
The engine keeps a list of active rows, in input order, and a list of
active columns.  Only the active rows are eliminated, and the matrix
itself takes no column operations: once its column is cleared, the
pivot row is never read again, so they could only zero entries nobody
looks at.  A finished pivot row leaves its list, and the last active
column moves into the pivot column's slot, so no row or column is ever
swapped.  Column operations are applied to V alone, and callers that
read only the pivots skip V entirely.  A caller that needs coordinates
adapted to the pivots (the Tate groups ker F / im G) can take the rows
of V^-1 instead: they are the pivot rows over their pivots, so they cost
no column operation.  ``kernel_mod`` keeps V, whose columns are the
kernel generators.
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

    Step t takes the least valuation v of the active block as
    v_p(gcd(p^N, *entries)) and pivots on the first row in active-list
    order whose gcd is p^v, at its first active column whose entry is
    not divisible by p^(v+1); that column exists, since p^v < p^N is
    the row's own gcd.  Row gcds are cached: gs[i] holds
    gcd(p^N, *live[i]) once it has been read and 0 until then, a safe
    mark since the gcd is at least 1.  The scan walks gs in active-list
    order, reads only the unread entries by one C-level gcd each, and
    stops at the first row whose gcd is 1, since no later row can have a
    smaller one.  The pivot row leaves the active list and its entry
    leaves gs; row operations clear the pivot column in the rows that
    stay, and the last active column then moves into the pivot column's
    slot.  A row whose entry in the pivot column is 0 only loses that 0,
    so its gcd stands; a row that is eliminated is marked unread.  A row
    holds only its active columns, so nothing is swapped and no zero
    prefix is copied.

    M gets no column operations.  After the row pass, the pivot column
    is zero off the pivot, so a column operation on M would only zero an
    entry of the finished pivot row, and the active block would not
    change.  The column operations go to V alone, kept as a list of
    columns indexed by input column, so that each one rewrites a single
    list.  The pivot row is not rescaled either: multiplying the row
    multipliers by the inverse of the pivot's unit part gives the same
    rows mod p^N.  diag lists the pivots in order, then one 0 per column
    that never held a pivot; "V" lists its columns in the same order.

    V is built from nothing but the operations V[:, j] -= q_j·V[:, c]
    (j active, c the pivot column, q_j the entry j of the pivot row over
    the pivot) at each step.  Undone in reverse, these leave row c of
    V^-1 equal to e_c + sum_j q_j·e_j: the pivot row over its pivot,
    written straight into input coordinates.  A column that never held
    a pivot keeps its unit row.  So "V^-1" costs one pass over each
    pivot row and no column operation at all.
    """
    m = p**precision
    cols = len(A[0]) if A else 0
    live = [[x % m for x in row] for row in A]  # the active rows, in input order
    at = list(range(cols))  # at[s]: the input column held in slot s
    Vc = identity_matrix(cols) if track == "V" else None  # V's columns, by input column
    inverse = track == "V^-1"
    order, diag, Vr = [], [], []  # pivot columns, pivots, rows of V^-1
    gs = [0] * len(live)  # gs[i]: gcd(p^N, *live[i]) once read, 0 until then
    while live and at:
        # pivoted slots are gone, so a whole row is read; g = p^v, v the
        # least valuation, is p^N when every entry vanishes
        g, bi = m, 0
        for i, r in enumerate(gs):
            if not r:
                r = gs[i] = gcd(m, *live[i])
            if r < g:
                g, bi = r, i
                if r == 1:
                    break  # a unit row is the first minimum
        if g == m:
            break
        gp = g * p
        pivot_row = live.pop(bi)
        gs.pop(bi)
        s = 0
        while not pivot_row[s] % gp:  # ends: g is the row's own gcd, g < p^N
            s += 1
        scale = pow(pivot_row[s] // g, -1, m)  # scaled, the pivot is exactly g
        c = at[s]
        at[s] = at[-1]
        at.pop()
        pivot_row[s] = pivot_row[-1]
        pivot_row.pop()
        for i, row in enumerate(live):
            a = row[s]
            row[s] = row[-1]
            row.pop()
            if a:  # a row with a 0 here keeps its gcd
                q = a // g * scale
                live[i] = [(x - q * y) % m for x, y in zip(row, pivot_row)]
                gs[i] = 0
        order.append(c)
        diag.append(g)
        if Vc is not None:
            vc = Vc[c]
            for j, x in zip(at, pivot_row):
                if x:
                    q = x * scale % m // g
                    Vc[j] = [(a - q * b) % m for a, b in zip(Vc[j], vc)]
        elif inverse:
            vr = [0] * cols
            vr[c] = 1
            for j, x in zip(at, pivot_row):
                vr[j] = x * scale % m // g
            Vr.append(vr)
    diag += [0] * len(at)
    if inverse:
        for j in at:
            vr = [0] * cols
            vr[j] = 1
            Vr.append(vr)
        return diag, Vr
    return diag, None if Vc is None else [Vc[j] for j in order + at]


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
