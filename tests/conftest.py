"""Shared brute-force oracles.

Everything here recomputes results by enumeration or direct integer
arithmetic, independently of the library code paths under test.
"""

from __future__ import annotations

from itertools import product
from math import factorial, gcd


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v



def p_power_exponents_by_division(factors, p: int) -> list[int]:
    """The exponents of descending invariant factors p^(e_i), by one
    division per factor of p, with the error texts of
    ``padic.p_power_exponents``: the loop that the log guess replaced."""
    exponents = []
    for i, q in enumerate(factors):
        e = int_valuation(q, p) if q >= p else 0
        if e == 0 or q != p**e:
            try:
                name = str(q)
            except ValueError:  # more digits than the interpreter prints
                name = f"#{i} ({q.bit_length()} bits)"
            raise ValueError(f"invariant {name} is not a power of {p}")
        exponents.append(e)
    if exponents != sorted(exponents, reverse=True):
        raise ValueError("invariants must be descending")
    return exponents

# -- layer exponents in closed form ------------------------------------

def closed_form_layer_exponent(p: int, g, n: int) -> int:
    """v_p(Res(g, omega_n)) for the two shapes with a closed form.

    g = T + p^j·u (p ∤ u): the root -p^j·u lies above every root zeta - 1
    of omega_n, so the exponent is v_p((1 - p^j·u)^(p^n) - 1) = j + n.
    g Eisenstein of degree k, k != phi(p^m) for every m <= n: its k roots
    have valuation 1/k; against the root 0 of omega_n they give 1 in
    total, against the phi(p^m) roots of valuation 1/phi(p^m) they give
    min(phi(p^m), k).
    """
    k = len(g) - 1
    if k == 1:
        return int_valuation(g[0], p) + n
    if g[-1] != 1 or int_valuation(g[0], p) != 1 or any(c % p for c in g[1:-1]):
        raise ValueError(f"{list(g)} is neither linear nor Eisenstein")
    phis = [(p - 1) * p ** (m - 1) for m in range(1, n + 1)]
    if k in phis:
        raise ValueError(f"degree {k} is phi(p^m) for some m <= {n}: no closed form")
    return 1 + sum(min(phi, k) for phi in phis)


def cyclotomic_at_one_plus_t(p: int, k: int) -> list[int]:
    """Phi_{p^k}(1 + T) = sum_{i<p} (1 + T)^(i·p^(k-1)) by Pascal's rule;
    Phi_1(1 + T) = T."""
    if k == 0:
        return [0, 1]
    out = [0] * ((p - 1) * p ** (k - 1) + 1)
    power = [1]
    for _ in range(p):
        for j, c in enumerate(power):
            out[j] += c
        for _ in range(p ** (k - 1)):
            power = [a + b for a, b in zip(power + [0], [0] + power)]
    return out


def poly_rem(a, g, m=None):
    """Remainder of a modulo the monic g, as deg g coefficients, reduced
    mod m when m is given."""
    dg = len(g) - 1
    a = list(a) + [0] * (dg - len(a))
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        for j in range(dg + 1):
            a[i - dg + j] -= c * g[j]
    return [c % m for c in a[:dg]] if m else a[:dg]


def omega_layer_exponent(p: int, g, n: int):
    """v_p(Res(g, omega_n)) from the whole omega_n at once; None when the
    quotient Λ/(g, omega_n) is infinite.

    It is infinite exactly when some Phi_{p^k}(1 + T), k <= n, divides g;
    only the factors of degree phi(p^k) <= deg g are built, since a monic
    factor of larger degree cannot divide g.
    Otherwise (1 + T)^(p^n) is raised by squaring in (Z/p^K)[T]/(g),
    K = deg g·(n + 1) to start, 1 is subtracted, and the pivot valuations
    of the local-ring SNF of multiplication by the result are summed,
    doubling K until no pivot is zero.
    """
    from anticyclo.snf import smith_normal_form_mod_prime_power

    deg = len(g) - 1
    if any(
        not any(poly_rem(g, cyclotomic_at_one_plus_t(p, k)))
        for k in range(n + 1)
        if k == 0 or (p - 1) * p ** (k - 1) <= deg
    ):
        return None
    K = deg * (n + 1)
    while True:
        m = p**K
        w, base, e = [1], [1, 1], p**n
        while e:
            if e & 1:
                w = poly_rem(poly_mul(w, base, m), g, m)
            base = poly_rem(poly_mul(base, base, m), g, m)
            e >>= 1
        w[0] = (w[0] - 1) % m
        rows = [poly_rem([0] * i + w, g, m) for i in range(deg)]
        diag, _ = smith_normal_form_mod_prime_power(rows, p, K)
        if all(diag):
            return sum(int_valuation(d, p) for d in diag)
        K *= 2


# -- local-ring SNF with full row and column passes ---------------------

def snf_by_full_elimination(A, p: int, precision: int):
    """Diagonalize A over the local ring Z/p^N: returns (diag, V).

    diag[i] is p^(v_i) with non-decreasing v_i (0 entries mean the image
    vanishes in that direction) and V is invertible mod p^N with
    U·A·V ≡ diag for a suitable invertible U (not tracked).  Over a local
    ring the minimal-valuation entry divides everything in sight, so one
    elimination pass per pivot suffices and entries stay reduced mod p^N;
    this avoids the coefficient blowup of integer SNF.

    Every pivot scans the valuation of every active entry, and every
    elimination clears the pivot column in all rows and the pivot row in
    all columns of M, as well as in V.  Pivots follow the engine's rule:
    the first entry of least valuation, scanning the active rows in input
    order and, in each, the active columns in list order, where a pivot's
    column is dropped by moving the last active column into its place.
    V lists its columns in pivot order, then the never-pivoted ones.
    """
    from anticyclo.snf import identity_matrix

    valuation = int_valuation
    m = p**precision
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [[x % m for x in row] for row in A]
    V = identity_matrix(cols)
    live_rows, live_cols = list(range(rows)), list(range(cols))
    diag, order = [], []
    while live_rows and live_cols:
        best = None
        best_v = None
        for i in live_rows:
            for j in live_cols:
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
        scale = pow(M[bi][bj] // p**best_v, -1, m)
        M[bi] = [x * scale % m for x in M[bi]]  # pivot becomes exactly p^v
        for i in range(rows):
            if i != bi and M[i][bj]:
                q = M[i][bj] // p**best_v
                M[i] = [(a - q * b) % m for a, b in zip(M[i], M[bi])]
        for j in range(cols):
            if j != bj and M[bi][j]:
                q = M[bi][j] // p**best_v
                for r in range(rows):
                    M[r][j] = (M[r][j] - q * M[r][bj]) % m
                for r in range(cols):
                    V[r][j] = (V[r][j] - q * V[r][bj]) % m
        live_rows.remove(bi)
        s = live_cols.index(bj)
        live_cols[s] = live_cols[-1]
        live_cols.pop()
        diag.append(M[bi][bj])
        order.append(bj)
    order += live_cols
    diag += [0] * len(live_cols)
    return diag, [[row[j] for j in order] for row in V]


def rescanning_gcd_reads(A, p: int, precision: int):
    """(diag, reads): the engine's pivots, found the way it found them
    before its rows' gcds were cached.  Every step reads gcd(p^N, row)
    afresh for each active row in input order, up to the first unit, so
    ``reads`` counts the gcds an uncached scan takes.  The pivot rule and
    the column slots are the engine's; M stays full size and only the
    active rows are eliminated."""
    from math import gcd

    m = p**precision
    M = [[x % m for x in row] for row in A]
    live_rows, live_cols = list(range(len(A))), list(range(len(A[0]) if A else 0))
    diag, reads = [], 0
    while live_rows and live_cols:
        g, bi = m, None
        for i in live_rows:
            reads += 1
            r = gcd(m, *(M[i][j] for j in live_cols))
            if r < g:
                g, bi = r, i
                if r == 1:
                    break
        if bi is None:
            break
        s = next(s for s, j in enumerate(live_cols) if M[bi][j] % (g * p))
        c = live_cols[s]
        scale = pow(M[bi][c] // g, -1, m)
        live_rows.remove(bi)
        for i in live_rows:
            if M[i][c]:
                q = M[i][c] // g * scale
                M[i] = [(x - q * y) % m for x, y in zip(M[i], M[bi])]
        live_cols[s] = live_cols[-1]
        live_cols.pop()
        diag.append(g)
    return diag + [0] * len(live_cols), reads


def kernel_by_full_elimination(A, p: int, precision: int):
    """``kernel_mod``, read from ``snf_by_full_elimination``."""
    m = p**precision
    n = len(A[0]) if A else 0
    diag, V = snf_by_full_elimination(A, p, precision)
    gens = []
    for i in range(n):
        mult = m // gcd(diag[i], m)
        if mult == m:
            continue  # generator would be 0 mod p^N
        vec = [V[r][i] * mult % m for r in range(n)]
        gens.append((vec, mult))
    return gens


def cokernel_by_full_elimination(A, p: int, precision: int) -> tuple[int, ...]:
    """``cokernel_mod``, read from ``snf_by_full_elimination``."""
    m = p**precision
    rows = len(A)
    diag, _ = snf_by_full_elimination(A, p, precision)
    pivots = (diag + [0] * rows)[:rows]
    return tuple(sorted((d or m for d in pivots if d != 1), reverse=True))


def exact_binomial(e: int, k: int) -> int:
    """C(e, k) = e(e-1)...(e-k+1)/k! for any integer e, by one exact
    division of the falling product."""
    falling = 1
    for i in range(k):
        falling *= e - i
    return falling // factorial(k)


def mat_pow_zeta_by_series(M, zeta):
    """M^zeta for M ≡ I mod p as the binomial series sum_{k<N} C(zeta,k)·(M-I)^k,
    summed term by term on integer rows, each C(zeta, k) from
    ``exact_binomial`` at the residue of zeta."""
    from anticyclo.linalg import PadicMatrix

    m, r = M.modulus, M.dim
    shift = minus_identity_matrix(M).rows
    power = [[int(i == j) for j in range(r)] for i in range(r)]
    acc = [[0] * r for _ in range(r)]
    for k in range(M.precision):
        c = exact_binomial(int(zeta), k)
        acc = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, power)]
        power = [[sum(row[l] * shift[l][j] for l in range(r)) % m for j in range(r)] for row in power]
    return PadicMatrix(M.p, M.precision, acc)


# -- PadicMatrix sums, inverse, determinant, powers and charpoly ---------

def identity_plus(p: int, precision: int, A):
    """I + A mod p^N as a PadicMatrix, for a square A of integer rows."""
    from anticyclo.linalg import PadicMatrix

    return PadicMatrix(p, precision, [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(A)])


def minus_identity_matrix(M):
    """M - I as a PadicMatrix."""
    from anticyclo.linalg import PadicMatrix

    return PadicMatrix(M.p, M.precision, [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(M.rows)])


def inverse_by_sympy(M):
    """M^-1 mod p^N by sympy's ``inv_mod``, for M invertible mod p."""
    import sympy

    from anticyclo.linalg import PadicMatrix

    return PadicMatrix(M.p, M.precision, sympy.Matrix(M.rows).inv_mod(M.modulus).tolist())


def padic_det(M):
    """det M as a PadicInt: (-1)^r times the constant coefficient of the
    Berkowitz characteristic polynomial."""
    from anticyclo.padic import PadicInt

    c0 = charpoly_by_berkowitz(M.rows, M.modulus)[0]
    return PadicInt(M.p, M.precision, -c0 if M.dim % 2 else c0)


def is_invertible(M) -> bool:
    """Exact over Z/p^N: M is invertible iff its determinant is a unit."""
    return padic_det(M).is_unit()


def is_zero_matrix(M) -> bool:
    return all(x == 0 for row in M.rows for x in row)


def matrix_power(M, e: int):
    """M^e by repeated multiplication; a negative e inverts M first."""
    from anticyclo.linalg import PadicMatrix

    base = inverse_by_sympy(M) if e < 0 else M
    result = PadicMatrix.identity(M.p, M.precision, M.dim)
    for _ in range(abs(e)):
        result = result @ base
    return result


def evaluate_charpoly(chi, M):
    """chi(M) by Horner's rule on integer rows, for chi the
    ascending coefficients of a characteristic polynomial of M's size."""
    from anticyclo.linalg import PadicMatrix

    if len(chi) - 1 != M.dim:
        raise ValueError("matrix does not match this characteristic polynomial")
    m, r = M.modulus, M.dim
    acc = [[0] * r for _ in range(r)]
    for c in reversed(chi):
        acc = [
            [(sum(row[l] * M.rows[l][j] for l in range(r)) + c * (i == j)) % m for j in range(r)]
            for i, row in enumerate(acc)
        ]
    return PadicMatrix(M.p, M.precision, acc)


# -- Tate norm by repeated products ------------------------------------

def norm_matrix_by_repeated_products(module, name, m):
    """1 + T + ... + T^(m-1) by m - 1 dense products power·T, each row
    reduced mod its q_i after every product; raises unless T^m = 1."""
    T = module.action(name)
    factors = module.invariant_factors
    k = len(T)
    acc = [[int(i == j) for j in range(k)] for i in range(k)]
    power = T
    for _ in range(m - 1):
        acc = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, power)]
        power = [
            [sum(power[i][l] * T[l][j] for l in range(k)) % factors[i] for j in range(k)]
            for i in range(k)
        ]
    if any((power[i][j] - (i == j)) % factors[i] for i in range(k) for j in range(k)):
        raise ValueError(f"{name}^{m} is not the identity")
    return [[x % q for x in row] for row, q in zip(acc, factors)]


# -- Tate groups through the relation lattice ---------------------------

def relation_columns(factors):
    """The relation lattice ⊕ q_i·Z of A = ⊕ Z/q_i, one generator per row."""
    k = len(factors)
    return [[factors[j] if i == j else 0 for j in range(k)] for i in range(k)]


def image_gens_with_relations(factors, F):
    """Generators of F·Z^k + relation lattice: the columns of [F | Q]."""
    return [list(col) for col in zip(*F)] + relation_columns(factors)


def preimage_gens_with_relations(factors, F, p, E):
    """Generators mod p^E of {x in Z^k : F·x lies in the relation lattice}.

    The kernel of [F | Q] solves F·x ≡ -Q·y mod p^E, which puts F·x in the
    relation lattice because that lattice contains p^E·Z^k; the
    x-coordinates of its generators span the preimage mod p^E.
    """
    k = len(F)
    Q = relation_columns(factors)
    stacked = [list(F[i]) + Q[i] for i in range(k)]  # k x 2k
    return [vec[:k] for vec, _ in kernel_by_full_elimination(stacked, p, E)]


def subquotient_by_full_elimination(X, Y, p, E):
    """Invariant factors of X/Y for lattices Y ⊆ X between p^E·Z^k and
    Z^k, given by generators mod p^E, one per row: Y read in the
    coordinates of a basis adapted to X."""
    m = p**E
    k = len(X[0])
    diag, V = snf_by_full_elimination(X, p, E)
    scales = [d or m for d in diag]
    coords = [[sum(a * b for a, b in zip(row, col)) % m for col in zip(*V)] for row in Y]
    cokernel = []
    for i, s in enumerate(scales):
        assert all(row[i] % s == 0 for row in coords), "Y is not inside X"
        cokernel.append([row[i] // s for row in coords] + [m // s if j == i else 0 for j in range(k)])
    return cokernel_by_full_elimination(cokernel, p, E)


def ker_mod_im_by_embedded_kernel(module, F, G=None):
    """ker F / im G (ker F itself without G) in the embedded coordinates
    of (Z/p^E)^k: ker F embedded by D = diag(p^E/q_i) from the generators
    of ``kernel_mod(D·F)``, an SNF with V of those generators, the columns
    of D·G moved into its coordinates one dot product at a time, and a
    ``cokernel_mod`` of the rows y·V[:, i] / p^(v_i) beside
    diag(p^(E-v_i)).  A zero pivot drops its row; a column of D·G outside
    ker F raises ArithmeticError."""
    from anticyclo.snf import cokernel_mod, kernel_mod, smith_normal_form_mod_prime_power

    p, E, factors = module.p, module.exponent, module.invariant_factors
    m, k = p**E, len(factors)

    def embed(vectors):
        return [[m // q * x for q, x in zip(factors, vec)] for vec in vectors]

    DF = [[m // q * x for x in row] for q, row in zip(factors, F)]
    X = embed(vec for vec, _ in kernel_mod(DF, p, E))
    Y = [] if G is None else embed(zip(*G))
    diag, Vc = smith_normal_form_mod_prime_power(X or [[0] * k], p, E)
    rows = []
    for d, v in zip(diag, Vc):
        s = d or m
        coords = [sum(a * b for a, b in zip(y, v)) % m for y in Y]
        if any(c % s for c in coords):
            raise ArithmeticError("im G is not inside ker F")
        if d:
            rows.append([c // s for c in coords])
    relations = [(i, m // d) for i, d in enumerate(d for d in diag if d) if d != 1]
    return cokernel_mod([row + [r if i == j else 0 for j, r in relations] for i, row in enumerate(rows)], p, E)


def tate_groups_by_relation_lattice(module, order):
    """The six cohomology operations of a FinitePModule with actions "tau"
    (of the given order) and "J", as lattices between the relation lattice
    and Z^k: kernels from the k x 2k system [F | Q], images from the 2k
    columns of [F | Q]."""
    from math import prod

    p, factors = module.p, module.invariant_factors
    E, k = int_valuation(factors[0], p), len(factors)

    def reduce(rows):
        return [[x % q for x in row] for row, q in zip(rows, factors)]

    def mul(A, B):
        return reduce([[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A])

    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    T = [list(row) for row in module.actions["tau"]]
    J = module.actions["J"]
    shift = reduce([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(T, identity)])
    norm, power = identity, identity
    for _ in range(order - 1):
        power = mul(T, power)
        norm = reduce([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(norm, power)])
    half = pow(2, -1, factors[0])
    idempotent = reduce([[(a - b) * half for a, b in zip(ra, rb)] for ra, rb in zip(identity, J)])

    Q = relation_columns(factors)
    fix = preimage_gens_with_relations(factors, shift, p, E)
    norms = image_gens_with_relations(factors, norm)
    h0 = subquotient_by_full_elimination(fix, norms, p, E)
    hm1 = subquotient_by_full_elimination(
        preimage_gens_with_relations(factors, norm, p, E), image_gens_with_relations(factors, shift), p, E
    )
    return {
        "fixed_points": subquotient_by_full_elimination(fix, Q, p, E),
        "norm_image": subquotient_by_full_elimination(norms, Q, p, E),
        "tate_h0": h0,
        "tate_hm1": hm1,
        "minus_part": subquotient_by_full_elimination(image_gens_with_relations(factors, idempotent), Q, p, E),
        "herbrand_check": prod(h0) == prod(hm1),
    }


# -- finite abelian group enumeration ---------------------------------

def all_elements(factors):
    return list(product(*(range(q) for q in factors)))


def apply_rows(rows, x, factors):
    return tuple(
        sum(rows[i][j] * x[j] for j in range(len(x))) % q
        for i, q in enumerate(factors)
    )


def scale_element(c, x, factors):
    return tuple(c * xi % q for xi, q in zip(x, factors))


def add_elements(x, y, factors):
    return tuple((a + b) % q for a, b, q in zip(x, y, factors))


def quotient_structure(A, B, factors, p):
    """Invariant factors of A/B (B ⊆ A ⊆ ⊕Z/q_i) by order counting.

    #{x in A : p^k·x in B} = p^(sum min(e_i, k)) determines the partition
    of the quotient's exponents.
    """
    B = set(B)
    counts = []
    k = 0
    prev = None
    while True:
        raw = sum(1 for x in A if scale_element(p**k, x, factors) in B)
        assert raw % len(B) == 0, "B is not a subgroup of A"
        n_k = raw // len(B)  # elements of the quotient killed by p^k
        f_k = 0
        while n_k > 1:
            assert n_k % p == 0, "quotient is not a p-group"
            n_k //= p
            f_k += 1
        if prev is not None:
            counts.append(f_k - prev)
            if counts[-1] == 0:
                counts.pop()
                break
        prev = f_k
        k += 1
    if not counts:
        return ()
    parts = [sum(1 for c in counts if c >= i + 1) for i in range(counts[0])]
    return tuple(sorted((p**e for e in parts), reverse=True))


def column_span_structure(A, p, N):
    """Invariant factors of the subgroup of (Z/p^N)^rows spanned by the
    columns of A, by enumerating every combination (p^N <= 27 and at most
    3 columns keep this small)."""
    m = p**N
    rows, cols = len(A), len(A[0])
    if m > 27 or cols > 3:
        raise ValueError("enumeration oracle is limited to p^N <= 27 and 3 columns")
    span = {
        tuple(sum(A[i][j] * c[j] for j in range(cols)) % m for i in range(rows))
        for c in product(range(m), repeat=cols)
    }
    return quotient_structure(span, [tuple([0] * rows)], (m,) * rows, p)


# -- metacyclic group, reimplemented naively ---------------------------

class NaiveMetacyclic:
    """Same presentation, but powers by repeated multiplication and
    automorphisms by pointwise bijectivity + pointwise homomorphy."""

    def __init__(self, p, u):
        self.p = p
        self.mod_a = p ** (u + 1)
        self.t = 1 + p**u

    def mul(self, g, h):
        return (
            (g[0] + pow(self.t, g[1], self.mod_a) * h[0]) % self.mod_a,
            (g[1] + h[1]) % self.p,
        )

    def power(self, g, n):
        out = (0, 0)
        for _ in range(n):
            out = self.mul(out, g)
        return out

    def elements(self):
        return [(a, c) for a in range(self.mod_a) for c in range(self.p)]

    def order_of(self, g):
        n = 1
        cur = g
        while cur != (0, 0):
            cur = self.mul(cur, g)
            n += 1
        return n

    def automorphism_images(self):
        els = self.elements()
        found = []
        for gx in els:
            for gt in els:
                phi = {}
                for a, c in els:
                    phi[(a, c)] = self.mul(self.power(gx, a), self.power(gt, c))
                if len(set(phi.values())) != len(els):
                    continue
                if all(
                    phi[self.mul(g, h)] == self.mul(phi[g], phi[h])
                    for g in els
                    for h in els
                ):
                    found.append((gx, gt))
        return found


def subgroup_closure(mul, gens, identity=(0, 0)):
    """The subgroup generated by ``gens``, by breadth-first closure.

    In a finite group the monoid generated by ``gens`` is already a
    subgroup, so right-multiplying from the identity reaches every word.
    """
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                prod = mul(s, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def automorphisms_by_closure(p, u):
    """Generator images of all automorphisms of G(p, u), in the library's
    scan order (x-image outer, tau-image inner), found by checking the
    defining relations naively and generation by subgroup closure."""
    naive = NaiveMetacyclic(p, u)
    els = naive.elements()
    identity = (0, 0)
    tau_candidates = [g for g in els if naive.power(g, p) == identity]
    found = []
    for gx in els:
        if naive.power(gx, naive.mod_a) != identity:
            continue
        gx_t = naive.power(gx, naive.t)
        for gt in tau_candidates:
            gt_inv = naive.power(gt, p - 1)
            if naive.mul(naive.mul(gt, gx), gt_inv) != gx_t:
                continue
            if len(subgroup_closure(naive.mul, (gx, gt))) == len(els):
                found.append((gx, gt))
    return found


# -- tiny polynomial ring over Z/m for the charpoly oracle -------------

def poly_add(a, b, m):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)]


def poly_mul(a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return out


def charpoly_by_expansion(rows, m):
    """det(T·I - M) by permutation expansion; fine for dimension <= 4."""
    from itertools import permutations

    n = len(rows)
    total = [0]
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [1]
        for i in range(n):
            entry = [(-rows[i][perm[i]]) % m] + ([1] if perm[i] == i else [])
            term = poly_mul(term, entry, m)
        if sign < 0:
            term = [(-c) % m for c in term]
        total = poly_add(total, term, m)
    return total


def charpoly_by_berkowitz(A, m):
    """Ascending monic characteristic polynomial of the integer rows A mod
    m by the Berkowitz recursion: division-free, O(r^4), the route that
    ``linalg.charpoly`` took before its Hessenberg reduction."""
    n = len(A)
    coeffs = [1]  # leading-first, for the empty principal minor
    for k in range(1, n + 1):
        a = A[k - 1][k - 1]
        R = A[k - 1][: k - 1]
        C = [A[i][k - 1] for i in range(k - 1)]
        sub = [row[: k - 1] for row in A[: k - 1]]
        q = [1, (-a) % m]
        w = list(C)
        for i in range(2, k + 1):
            if i > 2:
                w = [sum(sub[x][y] * w[y] for y in range(k - 1)) % m for x in range(k - 1)]
            q.append((-sum(rv * wv for rv, wv in zip(R, w))) % m)
        new = []
        for i in range(k + 1):
            acc = 0
            for j, cj in enumerate(coeffs):
                if 0 <= i - j < len(q):
                    acc += q[i - j] * cj
            new.append(acc % m)
        coeffs = new
    return tuple(coeffs[::-1])


def unipotent_shift_by_randrange(p: int, precision: int, r: int, rng):
    """(U, chi_U mod p^(N-1), attempts) of the Lemma 2 sampling loop read
    through ``randrange``: each attempt makes r² calls
    ``rng.randrange(p^(N-1))``, row by row, and the first U with
    det(p·U) ≢ 0 mod p^N, that is chi_U(0) = ±det U ≢ 0 mod p^(N-r) with
    chi_U from the Berkowitz recursion, is accepted."""
    m1 = p ** (precision - 1)
    attempts = 0
    while True:
        attempts += 1
        U = [[rng.randrange(m1) for _ in range(r)] for _ in range(r)]
        chi = charpoly_by_berkowitz(U, m1)
        if chi[0] % p ** (precision - r):
            return U, chi, attempts


# -- intertwiner search by full enumeration ------------------------------

def enumerate_intertwiner(M, zeta):
    """Invertible D with M^zeta·D = D·M from the lexicographically least
    invertible combo of the dense path's canonical RREF basis mod p,
    scanning all p^k combos;
    None when no combo is invertible.  Invertibility is read off the
    constant term of the expanded charpoly, so keep r <= 4."""
    from anticyclo.linalg import PadicMatrix, _kernel_space, mat_pow_zeta

    p, r, m = M.p, M.dim, M.modulus
    basis = _kernel_space(M, mat_pow_zeta(M, zeta))
    for combo in product(range(p), repeat=len(basis)):
        vec = [sum(c * b[i] for c, b in zip(combo, basis)) % p for i in range(r * r)]
        # vectors are column-major: entry (i, j) sits at j*r + i
        if charpoly_by_expansion([[vec[j * r + i] for j in range(r)] for i in range(r)], p)[0]:
            full = [sum(c * b[i] for c, b in zip(combo, basis)) % m for i in range(r * r)]
            return PadicMatrix(p, M.precision, [[full[j * r + i] for j in range(r)] for i in range(r)])
    return None


def sylvester_solutions_mod_p(S, z: int, p: int):
    """Every X over F_p with z·S·X = X·S, by trying all p^(r²) matrices;
    keep p^(r²) small."""
    r = len(S)

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(r)) % p for j in range(r)] for i in range(r)]

    solutions = []
    for entries in product(range(p), repeat=r * r):
        X = [list(entries[i * r:(i + 1) * r]) for i in range(r)]
        if [[z * x % p for x in row] for row in mul(S, X)] == mul(X, S):
            solutions.append(X)
    return solutions


# -- T-multiplicity by scanning every coordinate subset -------------------

def _acyclic_support(shift_rows, indices) -> bool:
    """No directed cycle (including loops) among the nonzero entries of the
    principal submatrix on `indices`; then its charpoly is exactly T^k."""
    edges = {
        i: [j for j in indices if j != i and shift_rows[j][i] != 0] for i in indices
    }
    if any(shift_rows[i][i] != 0 for i in indices):
        return False
    seen = {}

    def visit(node):
        seen[node] = 1
        for nxt in edges[node]:
            state = seen.get(nxt)
            if state == 1:
                return False
            if state is None and not visit(nxt):
                return False
        seen[node] = 2
        return True

    return all(visit(i) for i in indices if i not in seen)


def t_multiplicity_by_subset_scan(M):
    """Uncertified T-multiplicity of charpoly(M - I): the observed count
    s_obs of trailing zeros mod p^N, accepted only when some set S of
    s_obs coordinates is block-triangular (span(e_S) or its complement is
    invariant), has acyclic support, and leaves a complement whose
    determinant is nonzero mod p^N.  Scans all C(r, s_obs) subsets, so
    keep r small; raises PrecisionError when no subset certifies."""
    from itertools import combinations
    from math import prod

    from anticyclo.errors import PrecisionError
    from anticyclo.linalg import charpoly
    from anticyclo.snf import cokernel_mod

    shift = minus_identity_matrix(M)
    s_obs = next(i for i, c in enumerate(charpoly(shift.rows, shift.modulus)) if c)
    if s_obs == 0:
        return 0
    rows = shift.rows
    r = M.dim
    for subset in combinations(range(r), s_obs):
        inside = set(subset)
        rest = [i for i in range(r) if i not in inside]
        upper = all(rows[i][j] == 0 for i in rest for j in subset)
        lower = all(rows[i][j] == 0 for i in subset for j in rest)
        if not (upper or lower):
            continue
        if not _acyclic_support(rows, subset):
            continue
        comp = [[rows[i][j] for j in rest] for i in rest]
        if prod(cokernel_mod(comp, M.p, M.precision)) < M.modulus:
            return s_obs
    raise PrecisionError(
        f"indistinguishable from zero at precision N={M.precision} - raise N: "
        f"{s_obs} trailing coefficients vanish without structural certification; "
        f"no N certifies a T-block hidden by a change of basis, declaring t_block = {s_obs} does"
    )
