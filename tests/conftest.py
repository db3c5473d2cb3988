"""Shared brute-force oracles.

Everything here recomputes results by enumeration or direct integer
arithmetic, independently of the library code paths under test.
"""

from __future__ import annotations

from itertools import product


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


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
