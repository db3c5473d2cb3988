"""Matrix algebra over Z/p^N: characteristic polynomials, zeta-th powers
of matrices congruent to the identity mod p, and the intertwiner equation
M^zeta · D = D · M.

Z/p^N has zero divisors, so the characteristic polynomial is computed
without dividing by a non-unit (Hessenberg reduction on pivots of least
valuation).  Kernels and the determinant tests of ``det_nonzero_mod``
(det(M - I) ≢ 0 mod p^N in ``rank_divisibility_check``, a candidate
intertwiner invertible mod p) read the local-ring Smith normal form,
which pivots on an entry of least valuation and so never divides by a
non-unit.  The sampler ``random_unipotent_matrix`` runs no such test: it
reads det U from the constant term of chi_U, the characteristic
polynomial that ``intertwiner_solve`` needs anyway, and hands the pair
(U, chi_U) to the solve on the matrix it returns.  Its stream contract:
the entries of U are the draws of ``randrange(p^(N-1))`` from a stock
``random.Random``, read through ``getrandbits`` by the rejection rule
of CPython's ``randrange``, so the matrices and the generator's state
afterwards are those of r² ``randrange`` calls per attempt; a subclass
that overrides ``randrange`` is not consulted.

The headline decision procedure is ``intertwiner_solve``: whether an
*invertible* D intertwines M with its zeta-th power.  When one exists
and the 1-eigenspace of M vanishes at precision, the dimension of M is a
multiple of the order of zeta (``rank_divisibility_check``).  Writing
M = I + p·S and M^zeta = I + p·S', the solutions are the X with
S'·X ≡ X·S mod p^(N-1), and S' ≡ zeta·S mod p.  An invertible solution
makes S' and S similar over Z/p^(N-1), so one similarity invariant,
chi_S' against chi_S, decides "none" first, read at two precisions.
Mod p, chi_S' is the zeta-twist of chi_S mod p, so that reading needs
only chi_S mod p^(N-1) and no M^zeta.  When the two agree mod p, M^zeta
is built and chi_S' is compared with chi_S mod p^(N-1).  This covers the
kernel of chi_S(S'), which holds every column of a solution: when
chi_S' ≡ chi_S, Cayley-Hamilton gives chi_S(S') = chi_S'(S') = 0, so
that kernel is ≡ 0 mod p only where the invariant already differs.  When
the invariant agrees, or N = 1, the dense r²×r² system of the equation
is solved with the same M^zeta.  Its solutions are kept once, mod p^N,
as a basis whose reduction mod p is the canonical echelon basis; each
combination of them is one candidate, returned as it is once it is
invertible mod p.  A candidate whose support mod p misses a whole row or
a whole column is singular, and is skipped before any determinant: the
support of a combination lies in the union of the supports of the
vectors it uses, read as one row and one column bitmask per vector.
When the union over the whole basis already misses a row or a column,
every candidate is singular and the answer is "none" with no search.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import gcd
from operator import index, mul, or_
from random import Random
from typing import NamedTuple, Optional, Sequence

from .errors import PrecisionError, UndeterminedError
from .padic import PadicExponent, PadicInt, pow_one_unit, require_parameters
from .poly import binomial_row
from .snf import det_nonzero_mod, identity_matrix, kernel_mod, mat_mul, minus_identity

#: Mod-p kernels of dimension up to this are searched exhaustively for an
#: invertible element, one combo per projective point (unit multiples
#: share invertibility), after the seeded samples whenever the points
#: outnumber them; beyond it the solver only samples and may return
#: "undetermined" instead of certifying "none".
EXHAUSTIVE_KERNEL_DIM = 8

#: Seeded random combos tried before the projective scan whenever the
#: scan has more points than this, and the whole search beyond
#: EXHAUSTIVE_KERNEL_DIM.
SAMPLE_TRIALS = 512


class PadicMatrix:
    """Square matrix with entries in Z/p^N, stored as canonical residues.
    Entries are taken through ``operator.index``: a float or a string
    raises TypeError."""

    #: (S, chi_S mod p^(N-1)) with M = I + p·S, kept by ``_shift_charpoly``
    #: or seeded by ``random_unipotent_matrix``; a product never copies it,
    #: and ==, hash and repr do not read it.
    _shift = None

    def __init__(self, p: int, precision: int, rows: Sequence[Sequence[int]]):
        r = len(rows)
        if r == 0 or any(len(row) != r for row in rows):
            raise ValueError("matrix must be square and non-empty")
        require_parameters(p, precision)
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self.dim = r
        self.rows = tuple(
            tuple(index(x) % self.modulus for x in row) for row in rows
        )

    @classmethod
    def _canonical(cls, p: int, precision: int, rows: tuple[tuple[int, ...], ...]) -> "PadicMatrix":
        """The matrix of square, non-empty ``rows`` already canonical in
        [0, p^N), at a (p, N) the caller checked: no check and no second
        reduction."""
        M = cls.__new__(cls)
        M.p, M.precision, M.modulus, M.dim, M.rows = p, precision, p**precision, len(rows), rows
        return M

    @classmethod
    def identity(cls, p: int, precision: int, dim: int) -> "PadicMatrix":
        return cls(p, precision, identity_matrix(dim))

    @classmethod
    def block_diag(cls, blocks: Sequence["PadicMatrix"]) -> "PadicMatrix":
        if not blocks:
            raise ValueError("need at least one block")
        p, N = blocks[0].p, blocks[0].precision
        dim = sum(b.dim for b in blocks)
        rows = [[0] * dim for _ in range(dim)]
        offset = 0
        for b in blocks:
            if (b.p, b.precision) != (p, N):
                raise ValueError("mixed p-adic parameters across blocks")
            for i in range(b.dim):
                for j in range(b.dim):
                    rows[offset + i][offset + j] = b.rows[i][j]
            offset += b.dim
        return cls(p, N, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicMatrix)
            and (self.p, self.precision, self.rows) == (other.p, other.precision, other.rows)
        )

    def __hash__(self):
        return hash((self.p, self.precision, self.rows))

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        if (self.p, self.precision, self.dim) != (other.p, other.precision, other.dim):
            raise ValueError("incompatible matrices (p, precision, or dimension differ)")
        return PadicMatrix(self.p, self.precision, mat_mul(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"PadicMatrix({self.dim}x{self.dim} mod {self.p}^{self.precision}: {list(map(list, self.rows))})"


def charpoly(A, m: int) -> tuple[int, ...]:
    """Ascending coefficients of the monic characteristic polynomial of the
    square matrix A of integer rows, mod m = p^N: entry i multiplies T^i
    and the last entry is 1.

    Hessenberg method (Cohen, GTM 138, Alg. 2.2.9), O(r^3).  A is first
    brought to upper Hessenberg form H by similarities: in column j the
    pivot is an entry of least valuation at or below the subdiagonal,
    moved to row j+1 by a swap of rows and of columns; it divides every
    entry below it, so each multiplier q = (a/p^v)·u^-1, the pivot being
    p^v·u with u a unit, exists in Z/p^N and row i -= q·row j+1, column
    j+1 += q·column i clears H[i][j] without dividing by a non-unit.  The
    valuation is read as gcd(x, m), so p is never named.  Then the
    division-free recurrence chi_k = (T - h_kk)·chi_(k-1) -
    sum_(i<k) h_ik·h_(i+1,i)···h_(k,k-1)·chi_(i-1) over the leading
    principal minors gives chi_r.
    """
    n = len(A)
    H = [[x % m for x in row] for row in A]
    for j in range(n - 2):
        piv = min(range(j + 1, n), key=lambda i: gcd(H[i][j], m))
        g = gcd(H[piv][j], m)
        if g == m:
            continue  # the column is already zero below the subdiagonal
        k = j + 1
        if piv != k:
            H[k], H[piv] = H[piv], H[k]
            for row in H:
                row[k], row[piv] = row[piv], row[k]
        pivot_row = H[k]
        scale = pow(pivot_row[j] // g, -1, m)
        for i in range(k + 1, n):
            if a := H[i][j]:
                q = a // g * scale % m
                H[i] = [(x - q * y) % m for x, y in zip(H[i], pivot_row)]
                for row in H:
                    row[k] = (row[k] + q * row[i]) % m
    chis = [[1]]  # chis[k]: ascending charpoly of the leading k×k block
    for k in range(n):
        prev = chis[k]
        new = [0] + prev
        for i, c in enumerate(prev):
            new[i] -= H[k][k] * c
        t = 1
        for i in reversed(range(k)):
            t = t * H[i + 1][i] % m
            if not t:
                break
            if coef := H[i][k] * t % m:
                for idx, c in enumerate(chis[i]):
                    new[idx] -= coef * c
        chis.append([c % m for c in new])
    return tuple(chis[n])


def mat_pow_zeta(M: PadicMatrix, zeta: PadicExponent) -> PadicMatrix:
    """M^zeta for M ≡ I mod p, by the truncated binomial series.

    M^zeta = sum_{k<N} C(zeta,k) (M-I)^k, exact mod p^N because every
    entry of (M-I)^k has valuation at least k.  The sum is evaluated by
    Horner's rule over plain integer rows (``_poly_at``), and one
    PadicMatrix is built at the end.
    """
    shift = minus_identity(M.rows)
    _require_zeta_power(M, zeta, not any(x % M.p for row in shift for x in row))
    coeffs = [c % M.modulus for c in binomial_row(int(zeta), M.precision)]
    return PadicMatrix(M.p, M.precision, _poly_at(coeffs, shift, M.modulus))


def _require_zeta_power(M: PadicMatrix, zeta: PadicExponent, pro_p: bool) -> None:
    """Raise ValueError unless M^zeta is defined: M ≡ I mod p, which the
    caller read as ``pro_p`` from the M - I it builds anyway, and a p-adic
    zeta at M's (p, N)."""
    if not pro_p:
        raise ValueError("not a pro-p automorphism: matrix must be ≡ I mod p")
    if isinstance(zeta, PadicInt) and (zeta.p, zeta.precision) != (M.p, M.precision):
        raise ValueError("exponent and matrix have mixed p-adic parameters")


def _poly_at(coeffs, A, m):
    """sum_k coeffs[k]·A^k mod m for a square matrix A of integer rows, by
    Horner's rule: (...(c_top·A + c_(top-1))·A + ...)·A + c_0."""
    r = len(A)
    acc = [[coeffs[-1] if i == j else 0 for j in range(r)] for i in range(r)]
    for c in reversed(coeffs[:-1]):
        acc = [
            [(x + c if i == j else x) % m for j, x in enumerate(row)]
            for i, row in enumerate(mat_mul(acc, A))
        ]
    return acc


def zeta_order(zeta: PadicExponent, p: int) -> int:
    """Order of zeta inside the (p-1)-torsion of the units.

    Plain integers are only honest roots of unity when they are ±1;
    anything else must come in as a Teichmuller-lifted PadicInt.
    """
    if isinstance(zeta, PadicInt):
        if zeta.p != p:
            raise ValueError(f"exponent lives at p = {zeta.p}, not p = {p}")
        if pow(zeta.residue, zeta.p - 1, zeta.modulus) != 1:
            raise ValueError("exponent is not a (p-1)-st root of unity at this precision")
        z = zeta.residue % zeta.p
        return next(d for d in range(1, zeta.p) if pow(z, d, zeta.p) == 1)
    if zeta == 1:
        return 1
    if zeta == -1:
        return 2
    raise ValueError("integer exponents other than ±1 are not roots of unity; use a Teichmuller lift")


class IntertwinerResult(NamedTuple):
    status: str  # "witness" | "none" | "undetermined"
    witness: Optional[PadicMatrix] = None


def _unvec(v, r):
    # column-major: v[j*r + i] is entry (i, j)
    return [[v[j * r + i] for j in range(r)] for i in range(r)]


def _rref_basis(gens, p: int, m: int):
    """Vectors mod m, sorted by pivot, whose reductions mod p are the
    canonical reduced row echelon basis of the span of ``gens`` mod p.

    Pivots and elimination coefficients are read mod p, so each vector is
    a combination of the generators mod m, and a kernel element whenever
    they are; its pivot entry is ≡ 1 mod p.
    """
    basis = []  # (pivot, vector mod m)
    for vec in gens:
        for piv, b in basis:
            if c := vec[piv] % p:
                vec = [(a - c * x) % m for a, x in zip(vec, b)]
        piv = next((i for i, x in enumerate(vec) if x % p), None)
        if piv is None:
            continue
        u = pow(vec[piv], -1, p)
        vec = [a * u % m for a in vec]
        for k, (bpiv, b) in enumerate(basis):
            if c := b[piv] % p:
                basis[k] = (bpiv, [(a - c * x) % m for a, x in zip(b, vec)])
        basis.append((piv, vec))
    return [vec for _, vec in sorted(basis)]


def _support_masks(basis, r: int, p: int):
    """(row masks, column masks) of the r×r matrices of ``basis``
    (column-major r²-vectors): bit i of a row mask is set when row i has
    an entry ≢ 0 mod p, and likewise for columns.  A combination of the
    vectors whose coefficients are ≢ 0 mod p only on a set S has support
    inside the union over S, so a row or a column missing from the OR of
    their masks vanishes mod p and the combination is singular mod p."""
    row_masks, col_masks = [], []
    for vec in basis:
        rm = cm = 0
        for k, x in enumerate(vec):
            if x % p:
                j, i = divmod(k, r)
                rm |= 1 << i
                cm |= 1 << j
        row_masks.append(rm)
        col_masks.append(cm)
    return row_masks, col_masks


def _kernel_space(M: PadicMatrix, B: PadicMatrix):
    """Mod-p visible part of {D : B·D ≡ D·M mod p^N}, from the dense
    r²×r² system D -> B·D - D·M.

    Returns kernel elements at precision (r²-vectors mod p^N,
    column-major) whose reductions mod p are the canonical RREF basis of
    the kernel's reduction mod p.
    """
    r = M.dim
    K = [[0] * (r * r) for _ in range(r * r)]
    for j in range(r):
        for i in range(r):
            row = j * r + i
            for k in range(r):
                K[row][j * r + k] += B.rows[i][k]
                K[row][k * r + i] -= M.rows[k][j]
    unit_gens = [vec for vec, mult in kernel_mod(K, M.p, M.precision) if mult == 1]
    return _rref_basis(unit_gens, M.p, M.modulus)


def _shift_charpoly(M: PadicMatrix):
    """(S, chi_S mod p^(N-1)) for S = (M - I)/p, N >= 2: the shift and
    its characteristic polynomial, which ``intertwiner_solve`` reads mod p
    and compares with chi_S'.

    The pair is kept on M.  ``random_unipotent_matrix`` seeds it from the
    U of M = I + p·U, whose chi_U its determinant test read.  Otherwise S
    comes from one divmod per entry of M - I, and the pair is kept only
    when every remainder is 0, so a kept pair (``M._shift``) certifies
    M ≡ I mod p; a matrix ≢ I mod p gets the rounded-down shift's pair.
    """
    if M._shift is None:
        quot = [[divmod(x - (i == j), M.p) for j, x in enumerate(row)] for i, row in enumerate(M.rows)]
        S = [[q for q, _ in row] for row in quot]
        pair = S, charpoly(S, M.modulus // M.p)
        if any(rem for row in quot for _, rem in row):
            return pair
        M._shift = pair
    return M._shift


def _charpoly_twist_differs_mod_p(chi, zeta: PadicExponent, p: int) -> bool:
    """True when S̄ and zeta·S̄ have different characteristic polynomials
    over F_p, S̄ = (M - I)/p mod p, given chi = chi_S mod p^(N-1) for
    N >= 2 (``_shift_charpoly``); its reduction mod p is chi_S̄.

    For N >= 2, (M^zeta - I)/p = sum_(k>=1) C(zeta,k)·p^(k-1)·S^k ≡ zeta·S̄
    mod p, so an invertible D with M^zeta·D ≡ D·M mod p^N reduces to an
    invertible D̄ with zeta·S̄ = D̄·S̄·D̄^-1: S̄ and zeta·S̄ are similar over
    F_p and share their characteristic polynomial.  With f = chi_S̄ that
    of zeta·S̄ is g_i = f_i·zeta^(r-i), so f ≠ g, that is spectra that
    differ when counted with multiplicity, certifies that no invertible D
    exists.  Disjoint spectra force f ≠ g, so this decides every case
    that the coprimality of f and g decides, in O(r).
    """
    z = int(zeta)
    r = len(chi) - 1
    return any(c * (1 - pow(z, r - i, p)) % p for i, c in enumerate(chi))


def intertwiner_solve(M: PadicMatrix, zeta: PadicExponent, *, seed: int = 0) -> IntertwinerResult:
    """Find an invertible D with M^zeta · D ≡ D · M mod p^N, if any.

    An invertible solution exists iff the reduction mod p of the solution
    module, of dimension k, contains an invertible matrix.  For N >= 2
    one similarity invariant is read first, with S = (M-I)/p and chi_S
    mod p^(N-1) from ``_shift_charpoly`` (kept on M, and already there on
    a sampled M): an invertible solution makes S' = (M^zeta - I)/p
    similar to S over Z/p^(N-1).  So the answer is "none" when S mod p
    and zeta·S mod p have different characteristic polynomials
    (``_charpoly_twist_differs_mod_p``), before M^zeta is built, and
    otherwise when chi_S' ≠ chi_S mod p^(N-1).  Past that, and always
    for N = 1, the reduction is read from the dense r²×r² kernel of
    D -> M^zeta·D - D·M (``_kernel_space``), with the same M^zeta,
    as vectors mod p^N reducing to the canonical RREF basis mod p.  Each
    combo of them is one candidate, returned as it is once it is
    invertible mod p.  Scaling by a unit keeps invertibility, so only the
    (p^k - 1)/(p - 1) combos whose first nonzero coordinate is 1 need a
    look; scanned in lexicographic order they give the lexicographically
    least invertible combo.  The determinant is a form of degree r in the
    combo, so when it is not identically zero a uniform combo is
    invertible with probability at least 1 - r/p (Schwartz-Zippel).

    Before its determinant, a combo is skipped when the OR of the row
    masks, or of the column masks, of the basis vectors it uses
    (``_support_masks``) is not all r bits: a row or a column of D then
    vanishes mod p, so D is singular.  The zero combo has empty masks.
    Only singular combos are skipped, so the stream, its order and the
    witness returned (still the lexicographically least invertible combo
    of a scan) are those of a search that tests every combo.  When the OR
    over the whole basis misses a bit, every combo is singular and "none"
    is returned before any combo is drawn, whatever k is; an empty basis
    (k = 0) has empty masks and is one such case.

    Combos are tried in one stream: the projective scan alone when
    k <= EXHAUSTIVE_KERNEL_DIM and it has at most SAMPLE_TRIALS points;
    SAMPLE_TRIALS seeded samples then the projective scan when
    k <= EXHAUSTIVE_KERNEL_DIM; the samples alone otherwise.  Past the
    invariant, "none" is returned only from the union of the masks or
    after a complete projective scan, and a sample-only search that finds
    nothing returns "undetermined".
    """
    r = M.dim
    p = M.p
    # N = 1: M = I, the invariant says nothing, and the dense system decides;
    # mat_pow_zeta checks M and zeta there
    if M.precision > 1:
        _, chi = _shift_charpoly(M)
        _require_zeta_power(M, zeta, M._shift is not None)
        if _charpoly_twist_differs_mod_p(chi, zeta, p):
            return IntertwinerResult("none")
    B = mat_pow_zeta(M, zeta)
    # an invertible solution makes S' = (M^zeta - I)/p similar to S over Z/p^(N-1)
    if M.precision > 1 and charpoly([[x // p for x in row] for row in minus_identity(B.rows)], M.modulus // p) != chi:
        return IntertwinerResult("none")
    basis = _kernel_space(M, B)
    row_masks, col_masks = _support_masks(basis, r, p)
    full = (1 << r) - 1
    if reduce(or_, row_masks, 0) != full or reduce(or_, col_masks, 0) != full:
        return IntertwinerResult("none")  # a row or a column of every combo vanishes mod p
    dim = len(basis)

    def samples():
        rng = Random(seed)
        for _ in range(SAMPLE_TRIALS):
            yield tuple(rng.randrange(p) for _ in range(dim))

    def projective_scan():
        for lead in reversed(range(dim)):
            for tail in itertools.product(range(p), repeat=dim - 1 - lead):
                yield (0,) * lead + (1,) + tail

    exhaustive = dim <= EXHAUSTIVE_KERNEL_DIM
    if not exhaustive:
        combos = samples()
    elif (p**dim - 1) // (p - 1) <= SAMPLE_TRIALS:
        combos = projective_scan()
    else:
        combos = itertools.chain(samples(), projective_scan())
    m = M.modulus
    cols = list(zip(*basis))
    for combo in combos:
        if (
            reduce(or_, itertools.compress(row_masks, combo), 0) != full
            or reduce(or_, itertools.compress(col_masks, combo), 0) != full
        ):
            continue  # a row or a column of D vanishes mod p: D is singular
        rows = _unvec([sum(map(mul, combo, col)) % m for col in cols], r)
        if det_nonzero_mod(rows, p, 1):
            D = PadicMatrix(p, M.precision, rows)
            if B @ D != D @ M:
                raise ArithmeticError("kernel lift failed to intertwine")
            return IntertwinerResult("witness", D)
    return IntertwinerResult("none" if exhaustive else "undetermined")


def orbit_block_construct(
    p: int,
    precision: int,
    s: int,
    zeta: PadicExponent,
    seeds: Sequence[int] | None = None,
) -> tuple[PadicMatrix, PadicMatrix]:
    """Build (M, D) realizing s full zeta-orbits of principal-unit eigenvalues.

    M is diagonal of size d·s, d the order of zeta, with eigenvalues
    eta_i^(zeta^j); D is the block cyclic shift pairing each eigenvalue
    with its zeta-th power, so M^zeta · D = D · M holds exactly at
    precision and D is invertible.
    """
    d = zeta_order(zeta, p)
    if s < 1:
        raise ValueError("need at least one orbit")
    if seeds is None:
        # Seeds 1 + p·k with p ∤ k give v(eta - 1) = 1, so det(M - I) has
        # valuation exactly d·s, whatever s is.
        seeds = [1 + p * k for k in range(1, p * s) if k % p][:s]
    if len(seeds) != s:
        raise ValueError("need one eigenvalue seed per orbit")
    lams = []  # eigenvalue i·d + j is eta_i^(zeta^j)
    for seed in seeds:
        eta = PadicInt(p, precision, seed)
        if eta.residue % p != 1 or eta.residue == 1:
            raise ValueError("eigenvalue seeds must be principal units ≠ 1")
        lams += [pow_one_unit(eta, zeta**j).residue for j in range(d)]
    n = d * s
    M = PadicMatrix(p, precision, [[lam if i == j else 0 for j in range(n)] for i, lam in enumerate(lams)])
    # row i has its 1 at the next index of its own orbit, cyclically
    D = PadicMatrix(p, precision, [[int(j == i - i % d + (i + 1) % d) for j in range(n)] for i in range(n)])
    if mat_pow_zeta(M, zeta) @ D != D @ M:
        raise ArithmeticError("orbit construction failed to intertwine")
    return M, D


def rank_divisibility_check(
    M: PadicMatrix,
    zeta: PadicExponent,
    solved: IntertwinerResult | None = None,
) -> str:
    """Given an intertwiner exists and the 1-eigenspace dies at precision,
    assert dim(M) ≡ 0 mod d, d the order of zeta.

    Returns "consistent" or "violation" ("violation" would mean a bug or
    a precision artifact, never a true mathematical state).  The
    hypothesis that M - I is injective must be certifiable: det(M - I)
    ≡ 0 mod p^N raises PrecisionError.  ``solved`` is a result of
    ``intertwiner_solve(M, zeta)`` the caller already holds; without it
    the intertwiner is solved here with seed 0.
    """
    d = zeta_order(zeta, M.p)
    if not det_nonzero_mod(minus_identity(M.rows), M.p, M.precision):
        raise PrecisionError(
            "raise precision: det(M - I) ≡ 0 mod p^N, the trivial-fixed-part "
            "hypothesis cannot be certified"
        )
    result = solved if solved is not None else intertwiner_solve(M, zeta)
    if result.status == "undetermined":
        raise UndeterminedError("intertwiner search was inconclusive; shrink the kernel or reseed")
    if result.status == "none":
        return "consistent"  # vacuous: no automorphism realizes the exponent
    return "consistent" if M.dim % d == 0 else "violation"


def random_unipotent_matrix(p: int, precision: int, dim: int, rng: Random) -> PadicMatrix:
    """Random M ≡ I mod p with det(M - I) nonzero at precision.

    Rejection-samples the p·(uniform) shift U until the determinant of
    the shift survives mod p^N; deterministic given the Random instance.
    Each attempt makes the dim² draws of ``rng.randrange(p^(N-1))``, in
    row-major order, read straight from ``rng.getrandbits``: k = bit
    length of p^(N-1) bits per try, tried again while >= p^(N-1), the
    rule of CPython's ``Random._randbelow_with_getrandbits``.  So a stock
    ``random.Random`` yields the values, and is left in the state, of
    dim² ``randrange(p^(N-1))`` calls per attempt; a subclass that
    overrides ``randrange`` is not consulted.

    Every entry of M - I has valuation >= 1, so det(M - I) has valuation
    >= dim and the requirement is only satisfiable when N > dim.  (p, N)
    and dim >= 1 are checked first, so no p < 3 and no empty matrix
    reaches the sampling loop, and a call that raises draws nothing.

    The determinant is read from chi_U mod p^(N-1), whose constant term
    is (-1)^dim·det U: ``intertwiner_solve`` reads the same chi_U
    (``_shift_charpoly``), so the returned M keeps the pair (U, chi_U)
    and the solve computes no characteristic polynomial of its own.
    Its entries p·x + δ_ij < p^N are canonical as drawn, so M is built
    by ``PadicMatrix._canonical`` with no second reduction.
    """
    require_parameters(p, precision)
    if dim < 1:
        raise ValueError("matrix must be square and non-empty")
    if precision <= dim:
        raise PrecisionError(
            f"raise precision: det(M - I) always vanishes mod p^{precision} "
            f"for {dim}x{dim} matrices ≡ I mod p"
        )
    # det(p·U) = p^dim·det U, so it survives mod p^N iff det U does mod
    # p^(N-dim), which divides the modulus p^(N-1) of chi_U
    m1 = p ** (precision - 1)
    k = m1.bit_length()
    getrandbits = rng.getrandbits
    while True:
        U = []
        for _ in range(dim):
            row = []
            for _ in range(dim):
                x = getrandbits(k)
                while x >= m1:
                    x = getrandbits(k)
                row.append(x)
            U.append(row)
        chi = charpoly(U, m1)
        if chi[0] % p ** (precision - dim):
            rows = tuple(tuple(p * x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(U))
            M = PadicMatrix._canonical(p, precision, rows)
            M._shift = U, chi
            return M
