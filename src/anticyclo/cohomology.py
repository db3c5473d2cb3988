"""Tate cohomology of cyclic actions on finite abelian p-groups.

A module is a list of invariant factors (p-powers) plus named integer
matrices acting on the generators.  With p^E the largest factor,
A = ⊕ Z/q_i is (Z/p^E)^k modulo R = diag(q_i)·(Z/p^E)^k, and the map
x_i -> (p^E/q_i)·x_i, i.e. D = diag(p^E/q_i), embeds A in the free
module (Z/p^E)^k.  Everything reduces to the local-ring Smith normal
form mod p^E, one primitive per operation.  A quotient A/F·A is one
``cokernel_mod`` of [F | diag(q_i)]: the coinvariants, the minus part
A/(1 + J)·A and, by duality, the fixed points ker(T - 1).  An image F·A
(the norm image) is the span of the columns of D·F, read from the
pivots alone.  A subquotient ker F / im G (the degree 0 and -1 Tate
groups) is read in the coordinates of one SNF of D·F, whose V^-1 the
engine hands out from its pivot rows, plus one ``cokernel_mod``; no V
and no second SNF is built.  No number-field data appears anywhere:
class groups enter as plain invariant-factor lists.

The norm N = 1 + T + ... + T^(m-1) and T^m come together from one
doubling chain, N_2j = N_j·(1 + T^j) and T^2j = (T^j)², with one step
N_j+1 = N_j + T^j, T^j+1 = T^j·T per further set bit of m: O(log m)
products on packed rows (Kronecker substitution), each row of the right
factor one integer with w-bit digits, w = bit_length(k·q_1²), so a row
of a product is one C-level sum; ``_pack`` packs the rows for every one
of these products.  The constructor runs the chain once for each
declared order, which certifies T^m = 1 and stores N, so the Tate
groups of a declared order read their norm with no product; any other
m runs the chain again and is checked on the call.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from math import gcd, prod
from operator import add, lshift, mul
from types import MappingProxyType
from typing import NamedTuple, Optional

from .metacyclic import GeneratorImages, MetacyclicGroup
from .padic import p_power_exponents, require_odd_prime
from .snf import cokernel_mod, identity_matrix, minus_identity, smith_normal_form_mod_prime_power


@dataclass(frozen=True)
class FinitePModule:
    """Finite abelian p-group ⊕ Z/q_i with named endomorphism actions.

    invariant_factors: p-powers in descending order (empty = trivial group),
    checked by ``padic.p_power_exponents``; ``exponent`` is E with p^E
    the largest factor (0 for the trivial group), and D = diag(p^E/q_i)
    embeds the module in (Z/p^E)^k.
    actions: name -> k×k integer matrix; column j lists the coordinates of
    the image of generator j.  Every action matrix must be compatible with
    the factors, and any declared order is verified at construction;
    an action named "J" is required to be an involution.  Both are kept
    as read-only mappings, the actions reduced mod the q_i.
    norms: (name, m) -> the reduced norm 1 + T + ... + T^(m-1) of each
    declared order m, as row tuples, built by the chain that verifies
    T^m = 1 (``_norm_and_power``); derived data, so neither ``==`` nor
    ``repr`` reads it.
    """

    p: int
    invariant_factors: tuple[int, ...]
    actions: Mapping = field(default_factory=dict)
    orders: Mapping = field(default_factory=dict)
    exponent: int = field(init=False, repr=False, compare=False)
    norms: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_odd_prime(self.p)
        factors = tuple(map(int, self.invariant_factors))
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "exponent", max(p_power_exponents(factors, self.p), default=0))
        normalized = {}
        for name, matrix in self.actions.items():
            rows = [list(map(int, row)) for row in matrix]
            _require_well_defined(factors, rows, f"action {name!r}")
            normalized[name] = tuple(map(tuple, self._reduce(rows)))
        object.__setattr__(self, "actions", MappingProxyType(normalized))
        declared = dict(self.orders)
        if "J" in normalized and "J" not in declared:
            declared["J"] = 2
        norms = {}
        for name, m in declared.items():
            if name not in normalized:
                raise ValueError(f"declared order for unknown action {name!r}")
            if m < 1:
                raise ValueError("declared orders must be positive")
            norm, power = self._norm_and_power(normalized[name], m)
            if not self._is_identity(power):
                raise ValueError(f"action {name!r} does not have order dividing {m}")
            norms[name, m] = tuple(map(tuple, norm))
        object.__setattr__(self, "orders", MappingProxyType(declared))
        object.__setattr__(self, "norms", MappingProxyType(norms))

    def __reduce__(self):
        # a read-only mapping does not pickle; the module is rebuilt, and
        # checked again, from plain dicts
        return type(self), (self.p, self.invariant_factors, dict(self.actions), dict(self.orders))

    # -- small matrix helpers working mod the invariant factors ----------

    def _reduce(self, rows):
        return [
            [x % q for x in row] for row, q in zip(rows, self.invariant_factors)
        ]

    def _shifts(self):
        """Digit offsets 0, w, 2w, ... of a packed row (Kronecker
        substitution), w = bit_length(k·q_1²); the module must not be zero."""
        factors = self.invariant_factors
        w = (len(factors) * factors[0] ** 2).bit_length()
        return range(0, w * len(factors), w)

    def _product(self, A, packed):
        """A·B reduced mod the q_i, for reduced A and the rows of B, entries
        in [0, q_1], packed as ``_pack(B, self._shifts())``.

        Row i of A·B is one C-level sum of the packed rows scaled by row i
        of A, unpacked mod q_i: an entry is a sum of k products below
        q_1², and no digit carries into the next.  A caller that
        multiplies by one B twice packs it once.
        """
        factors = self.invariant_factors
        shifts = self._shifts()
        mask = (1 << shifts.step) - 1
        rows = (sum(map(mul, row, packed)) for row in A)
        return [[(y >> s & mask) % q for s in shifts] for y, q in zip(rows, factors)]

    def _norm_and_power(self, T, m):
        """(N_m, T^m) with N_m = 1 + T + ... + T^(m-1), for m >= 1 and
        reduced rows T; both results are reduced.

        A doubling chain over the bits of m after the leading one, from
        (N_1, P_1) = (1, T): N_2j = N_j·(1 + P_j) and P_2j = P_j², then on
        a set bit N_j+1 = N_j + P_j and P_j+1 = P_j·T.  N_2 = 1 + T is T
        with its diagonal raised by 1 and takes no product, so m >= 2
        costs 2·bit_length(m) + popcount(m) - 4 packed products: 1 for
        m = 2, 2 for m = 3 and 4 for m = 5.  N_j and P_j are polynomials
        in T and commute, so both products of a doubling multiply by the
        one packing of P_j, the rows of 1 + P_j being those of P_j plus 1
        in digit i; T is packed once, at the first step.

        A chain that meets P_j = 1 stops there: T then has order dividing
        j, so T^m = T^r and N_m = (m // j)·N_j + N_r for r = m mod j < j,
        and r takes a chain of its own (N_0 = 0, T^0 = 1).  N_1 = 1 is
        built only when it is returned.  m = 0 would give (1, T); every
        caller rejects it first.
        """
        factors = self.invariant_factors
        norm, power, j = None, T, 1
        for bit in bin(m)[3:]:
            if self._is_identity(power):
                break
            if j == 1:
                shifts = self._shifts()
                packed = packed_T = _pack(T, shifts)
                norm = [list(row) for row in T]
                for i, (row, q) in enumerate(zip(norm, factors)):
                    row[i] = (row[i] + 1) % q
            else:
                packed = _pack(power, shifts)
                norm = self._product(norm, [x + (1 << s) for x, s in zip(packed, shifts)])
            power = self._product(power, packed)
            j *= 2
            if bit == "1":
                norm = [[x % q for x in map(add, a, b)] for a, b, q in zip(norm, power, factors)]
                power = self._product(power, packed_T)
                j += 1
        if j == 1:
            norm = identity_matrix(len(factors))
        if j == m:
            return norm, power
        reps, r = divmod(m, j)
        rest, power = self._norm_and_power(T, r) if r else ([[0] * len(factors) for _ in factors], power)
        return [[(reps * x + y) % q for x, y in zip(a, b)] for a, b, q in zip(norm, rest, factors)], power

    def _is_identity(self, rows):
        """Whether reduced k×k rows are the identity: entries lie in
        [0, q_i), so row i is e_i exactly when its entry i is 1 and its
        sum is 1.  No identity is built, and a non-identity usually fails
        on its first row."""
        return all(row[i] == 1 and sum(row) == 1 for i, row in enumerate(rows))

    def action(self, name: str):
        """The matrix of the named action; on the zero module, [] for any
        name, its only endomorphism, which has every order."""
        if not self.invariant_factors:
            return []
        if name not in self.actions:
            raise ValueError(f"no action named {name!r} on this module")
        return [list(r) for r in self.actions[name]]

    def size(self) -> int:
        return prod(self.invariant_factors)

    def cokernel(self, F) -> tuple[int, ...]:
        """Invariant factors of A/F·A for an endomorphism F of A; a matrix
        that is not well defined on A raises ValueError."""
        _require_well_defined(self.invariant_factors, F, "matrix")
        return self._cokernel(F)

    def _cokernel(self, F) -> tuple[int, ...]:
        """``cokernel`` without the check: one ``cokernel_mod`` of
        [F | diag(q_i)] mod p^E, whose columns q_i = p^E vanish and are not
        written."""
        factors, m = self.invariant_factors, self.p**self.exponent
        rows = [list(row) + [q * (i == j) for j, q in enumerate(factors) if q != m] for i, row in enumerate(F)]
        return cokernel_mod(rows, self.p, self.exponent)

    def kernel(self, F) -> tuple[int, ...]:
        """Invariant factors of ker F, by duality the cokernel of F^∨.

        ⟨x, y⟩ = Σ x_i·y_i/q_i in Q/Z is a perfect pairing of A with
        itself, and ⟨F·x, y⟩ = ⟨x, F^∨·y⟩ for F^∨[j][i] = F[i][j]·q_j/q_i,
        an integer since q_i/gcd(q_i, q_j) divides F_ij.  So ker F is the
        annihilator of F^∨·A, the dual of A/F^∨·A, and a finite abelian
        group has the invariant factors of its dual (Serre, Local Fields,
        GTM 67, ch. VIII).  F is checked once; F^∨ is then well defined.
        """
        _require_well_defined(self.invariant_factors, F, "matrix")
        return self._kernel(F)

    def _kernel(self, F) -> tuple[int, ...]:
        """``kernel`` without the check, for an F known to be well defined."""
        factors = self.invariant_factors
        return self._cokernel([[F[i][j] * qj // qi for i, qi in enumerate(factors)] for j, qj in enumerate(factors)])


def _require_well_defined(factors, rows, what: str) -> None:
    """Raise ValueError unless ``rows`` is a k×k integer matrix that is a
    well-defined endomorphism of ⊕ Z/q_i, k = len(factors): q_i/gcd(q_i, q_j)
    divides F_ij for all i, j.

    For p-powers that is q_i | F_ij·q_j, so row i passes exactly when
    gcd(q_i, F_i1·q_1, ..., F_ik·q_k) = q_i, one C-level gcd.  The factors
    descend, so q_j ≥ q_i for j ≤ i and only the columns j > i can fail;
    the first failing (i, j) in row-major order is looked for only after
    its row has failed.
    """
    k = len(factors)
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ValueError(f"{what} must be a {k}x{k} matrix")
    for i, (q, row) in enumerate(zip(factors, rows)):
        if gcd(q, *map(mul, row[i + 1 :], factors[i + 1 :])) != q:
            j = next(j for j in range(i + 1, k) if row[j] * factors[j] % q)
            raise ValueError(
                f"{what} is not well defined: entry ({i},{j}) must be divisible by {q // factors[j]}"
            )


def _pack(rows, shifts) -> list[int]:
    """Each row as one integer, entry j in the digit at bit shifts[j]
    (Kronecker substitution); the caller picks a digit width that no sum
    it forms carries out of."""
    return [sum(map(lshift, row, shifts)) for row in rows]


def _image(module: FinitePModule, F) -> tuple[int, ...]:
    """Invariant factors of F·A: the columns of D·F span its image in
    (Z/p^E)^k, one p^E/d for each pivot d ≠ 0 of one pivot-only local SNF."""
    m = module.p**module.exponent
    scales = [m // q for q in module.invariant_factors]
    gens = [[s * x for s, x in zip(scales, col)] for col in zip(*F)]
    diag, _ = smith_normal_form_mod_prime_power(gens, module.p, module.exponent, None)
    return tuple(m // d for d in diag if d)


def _ker_mod_im(module: FinitePModule, F, G) -> tuple[int, ...]:
    """Invariant factors of ker F / im G for endomorphisms with F·G = 0.

    In lift coordinates x in (Z/p^E)^k, A = (Z/p^E)^k / R with
    R = diag(q_i)·(Z/p^E)^k.  (F·x)_i ≡ 0 mod q_i exactly when
    (p^E/q_i)·(F·x)_i ≡ 0 mod p^E, so L = {x : D·F·x ≡ 0 mod p^E} is the
    preimage of ker F.  It contains R, so ker F / im G is
    L / (G·(Z/p^E)^k + R), the quotient of L by the span of the columns
    of H = [G | diag(q_i)].

    One local SNF U·D·F·V ≡ diag(g_t) hands out the rows of V^-1.  In
    y = V^-1·x, L is ⊕ (p^E/g_t)·Z/p^E, all of Z/p^E where g_t = 0, so
    the quotient is the cokernel of the rows (V^-1·H)_t / (p^E/g_t) beside
    diag(g_t), read by one pivot-only ``cokernel_mod``.  A column of H
    outside L raises ArithmeticError; that check runs on every coordinate
    before any row is dropped.  The cokernel matrix is trimmed: a unit
    pivot leaves Z/1, so its row goes once checked, and the relation
    p^E of a zero pivot is a zero column, as is a column q_i = p^E of
    diag(q_i); none of them is written.

    Row t of V^-1·G is one C-level sum of the rows of G packed into
    integers of w-bit digits (Kronecker substitution, as in
    ``FinitePModule._product``), with G first reduced into [0, p^E) and
    w = bit_length(k·p^2E), so no digit carries into the next.  Row t of
    V^-1·diag(q_i) is row t of V^-1 scaled by the q_i.
    """
    p, E = module.p, module.exponent
    m = p**E
    factors = module.invariant_factors
    k = len(factors)
    DF = [[m // q * x for x in row] for q, row in zip(factors, F)]
    diag, Vr = smith_normal_form_mod_prime_power(DF, p, E, "V^-1")
    relations = [(i, q) for i, q in enumerate(factors) if q != m]
    w = (k * m * m).bit_length()
    mask = (1 << w) - 1
    shifts = [w * j for j in range(k)]
    packed = _pack([[x % m for x in row] for row in G], shifts)
    rows = []
    for g, vr in zip(diag, Vr):
        y = sum(map(mul, vr, packed))
        coords = [vr[i] * q % m for i, q in relations] + [(y >> s & mask) % m for s in shifts]
        if g == 1:
            if any(coords):
                raise ArithmeticError("im G is not inside ker F")
            continue
        if g:
            d = m // g
            if any(c % d for c in coords):
                raise ArithmeticError("im G is not inside ker F")
            coords = [c // d for c in coords]
        rows.append(coords)
    kept = [(i, g) for i, g in enumerate(g for g in diag if g != 1) if g]
    cokernel = [row + [g if i == j else 0 for j, g in kept] for i, row in enumerate(rows)]
    return cokernel_mod(cokernel, p, E)


def _norm_matrix(module: FinitePModule, name: str, m: int | None):
    """1 + T + ... + T^(m-1) for the named action T, where T^m must be 1.

    m defaults to the order the module declares for T.  For that order
    the norm was built, and T^m = 1 verified, once at construction
    (``FinitePModule.norms``), and a copy of it is returned with no
    product.  Any other m runs the doubling chain of
    ``FinitePModule._norm_and_power``, O(log m) packed products, and
    raises unless T^m = 1.  The zero module gets [] before any order is
    read or checked.
    """
    if not module.invariant_factors:
        return []
    declared = module.orders.get(name)
    if m is None:
        m = declared
        if m is None:
            raise ValueError(f"order of {name!r} neither declared nor given")
    if m == declared:
        return [list(row) for row in module.norms[name, m]]
    if m < 1:
        raise ValueError(f"order of {name!r} must be positive, got {m}")
    norm, power = module._norm_and_power(module.action(name), m)
    if not module._is_identity(power):
        raise ValueError(f"action {name!r} does not satisfy {name}^{m} = identity")
    return norm


def fixed_points(module: FinitePModule, action: str = "tau") -> FinitePModule:
    """Kernel of (action - 1), as a bare structure (no actions carried);
    the action was checked at construction, so T - 1 is well defined."""
    return FinitePModule(module.p, module._kernel(minus_identity(module.action(action))))


def norm_image(module: FinitePModule, action: str = "tau", m: int | None = None) -> FinitePModule:
    """Image of 1 + T + ... + T^(m-1) for an action T with T^m = identity."""
    norm = _norm_matrix(module, action, m)
    return FinitePModule(module.p, _image(module, norm))


def tate_h0(module: FinitePModule, action: str = "tau", m: int | None = None) -> FinitePModule:
    """Degree-0 Tate cohomology: fixed points modulo norms."""
    norm = _norm_matrix(module, action, m)
    return FinitePModule(module.p, _ker_mod_im(module, minus_identity(module.action(action)), norm))


def tate_hm1(module: FinitePModule, action: str = "tau", m: int | None = None) -> FinitePModule:
    """Degree-(-1) Tate cohomology: norm kernel modulo the augmentation image."""
    norm = _norm_matrix(module, action, m)
    return FinitePModule(module.p, _ker_mod_im(module, norm, minus_identity(module.action(action))))


def minus_part(module: FinitePModule, action: str = "J") -> FinitePModule:
    """A⁻ = A/(1 + J)·A for an involution J: p is odd, so 2 is invertible,
    A = A⁺ ⊕ A⁻ with A^± = (1 ± J)/2·A, and (1 + J)·A = A⁺.

    1 + J is the norm of J over 2 terms.  A module that declares order 2
    for J (the default for an action named "J") stored it at
    construction, where J^2 = 1 was verified; otherwise one doubling step
    of ``FinitePModule._norm_and_power`` gives 1 + J and, with at most
    one product, J^2, which must be 1.  The result carries J = -identity, so
    taking the minus part twice is the identity on structures; building
    it checks (-1)^2 = 1 with one product.
    """
    if module.orders.get(action) == 2:
        plus = module.norms[action, 2]
    else:
        plus, square = module._norm_and_power(module.action(action), 2)
        if not module._is_identity(square):
            raise ValueError(f"action {action!r} is not an involution")
    invs = module._cokernel(plus)
    kk = len(invs)
    minus_action = {"J": [[-1 if i == j else 0 for j in range(kk)] for i in range(kk)]} if kk else {}
    return FinitePModule(module.p, invs, actions=minus_action)


def herbrand_check(module: FinitePModule, action: str = "tau", m: int | None = None) -> bool:
    """|H^0| == |H^-1|, true for every finite module; a failure is an SNF bug.

    Both groups are read from one norm matrix N and one shift T - 1, with
    the checks and errors of ``tate_h0``: H^0 = ker(T - 1)/im N and
    H^-1 = ker N/im(T - 1).
    """
    norm = _norm_matrix(module, action, m)
    shift = minus_identity(module.action(action))
    return prod(_ker_mod_im(module, shift, norm)) == prod(_ker_mod_im(module, norm, shift))


class ObstructionResult(NamedTuple):
    holds: bool
    witness: Optional[GeneratorImages] = None


def theorem2_cyclic_obstruction(module: FinitePModule, action: str = "tau") -> ObstructionResult:
    """Can an automorphism of A1 ⋊ ⟨tau⟩ send tau to y·tau^-1?

    For cyclic A1 with a nontrivial order-p action the answer is provably
    no; this delegates to the closed-form inverting-automorphism search
    and reports the verdict, with a witness if the impossible ever happened.
    """
    if len(module.invariant_factors) != 1:
        raise ValueError("hypothesis requires cyclic A1 (exactly one invariant factor)")
    q, e = module.invariant_factors[0], module.exponent
    if e < 2:
        raise ValueError("cyclic A1 must have order at least p^2 to carry a nontrivial action")
    t = module.action(action)[0][0]
    if t % q == 1 % q:
        raise ValueError(f"action {action!r} must be nontrivial")
    if pow(t, module.p, q) != 1:
        raise ValueError(f"action {action!r} must have order p = {module.p}")
    group = MetacyclicGroup(module.p, e - 1)
    witness = group.find_inverting_automorphism()
    return ObstructionResult(witness is None, witness)
