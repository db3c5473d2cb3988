"""The metacyclic p-groups Z/p^(u+1) ⋊ Z/p and their automorphisms.

The group G(p, u) is generated by x of order p^(u+1) and tau of order p
with tau·x·tau^-1 = x^(1+p^u).  Elements are normal-form pairs (a, c)
standing for x^a·tau^c, so the product rule is closed-form and groups of
order up to a few thousand can be searched exhaustively.

The point of the search operations: no automorphism of G(p, u) maps tau
to y·tau^-1 with y in the cyclic part.  ``find_inverting_automorphism``
decides that claim mechanically for any (p, u) inside the size guard.
The search stays exhaustive over relation-checked generator images;
whether two images generate G is decided on G/Φ(G) ≅ (Z/p)² by the
Burnside basis theorem (Gorenstein, *Finite Groups*, Thm 5.1.1).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import SearchSpaceError
from .padic import is_odd_prime

#: Maximum number of candidate generator-image pairs an exhaustive
#: search is allowed to touch (keeps all shipped grids under seconds).
SEARCH_GUARD = 10**7

Element = tuple[int, int]


class GeneratorImages(NamedTuple):
    """Candidate images (of x and of tau) defining a would-be endomorphism."""

    image_x: Element
    image_tau: Element


class HomCheck(NamedTuple):
    accepted: bool
    reason: Optional[str] = None


class MetacyclicGroup:
    """G = ⟨x, tau | x^(p^(u+1)) = tau^p = 1, tau·x·tau^-1 = x^(1+p^u)⟩."""

    def __init__(self, p: int, u: int):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if u < 1:
            raise ValueError(f"u must be a positive integer, got {u}")
        self.p = p
        self.u = u
        self.mod_a = p ** (u + 1)
        self.t = 1 + p**u
        self.order = p ** (u + 2)
        # 1 + p^u has multiplicative order p mod p^(u+1), so tau^c acts as
        # multiplication by t^c with c read mod p.
        self._tpow = [pow(self.t, c, self.mod_a) for c in range(p)]

    identity: Element = (0, 0)

    def element(self, a: int, c: int) -> Element:
        return (a % self.mod_a, c % self.p)

    def elements(self):
        return [(a, c) for a in range(self.mod_a) for c in range(self.p)]

    def mul(self, g: Element, h: Element) -> Element:
        a, c = g
        a2, c2 = h
        return ((a + self._tpow[c] * a2) % self.mod_a, (c + c2) % self.p)

    def inverse(self, g: Element) -> Element:
        a, c = g
        cinv = (-c) % self.p
        return (-self._tpow[cinv] * a % self.mod_a, cinv)

    def power(self, g: Element, n: int) -> Element:
        if n < 0:
            g = self.inverse(g)
            n = -n
        result = self.identity
        base = g
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def element_order(self, g: Element) -> int:
        order = 1
        cur = g
        while cur != self.identity:
            cur = self.power(cur, self.p)
            order *= self.p
        return order

    def hom_check(self, images: GeneratorImages) -> HomCheck:
        """Do the images satisfy the defining relations of G?

        By von Dyck, three checks suffice for the map x -> image_x,
        tau -> image_tau to extend to an endomorphism of all of G.
        """
        gx, gt = images
        if self.power(gx, self.mod_a) != self.identity:
            return HomCheck(False, f"order: image of x does not kill {self.mod_a}")
        if self.power(gt, self.p) != self.identity:
            return HomCheck(False, f"order: image of tau does not kill {self.p}")
        lhs = self.mul(self.mul(gt, gx), self.inverse(gt))
        rhs = self.power(gx, self.t)
        if lhs != rhs:
            return HomCheck(False, "conjugation relation fails on the images")
        return HomCheck(True)

    def _generates(self, g: Element, h: Element) -> bool:
        # Burnside basis theorem: g, h generate the p-group G iff their
        # images generate G/Φ(G).  Here Φ(G) = ⟨x^p⟩ and G/Φ ≅ (Z/p)² via
        # (a, c) -> (a mod p, c mod p), so the test is a 2x2 determinant.
        return (g[0] * h[1] - g[1] * h[0]) % self.p != 0

    def _check_guard(self):
        if self.order**2 > SEARCH_GUARD:
            raise SearchSpaceError(
                f"search space too large: {self.order}^2 candidate pairs exceeds {SEARCH_GUARD}"
            )

    def _x_image_candidates(self):
        # (x^a·tau^c)^p = x^(a·p·unit) for odd p, so the elements of order
        # p^(u+1), the only possible images of x, are those with p ∤ a.
        return [(a, c) for a in range(self.mod_a) if a % self.p for c in range(self.p)]

    def _tau_image_candidates(self):
        # Any valid image of tau must satisfy the order-p relation; filtering
        # up front shrinks the candidate space without losing any hom.
        return [g for g in self.elements() if self.power(g, self.p) == self.identity]

    def enumerate_automorphisms(self) -> list[GeneratorImages]:
        """All generator images that define an automorphism of G.

        Exhaustive over every image of x of order p^(u+1) and every image
        of tau of order dividing p.  A relation-checked endomorphism is
        bijective iff its images generate G (surjective implies injective
        on a finite group), and generation is decided on G/Φ(G).
        """
        self._check_guard()
        autos = []
        tau_candidates = self._tau_image_candidates()
        for gx in self._x_image_candidates():
            for gt in tau_candidates:
                images = GeneratorImages(gx, gt)
                if not self.hom_check(images).accepted:
                    continue
                if self._generates(gx, gt):
                    autos.append(images)
        return autos

    def find_inverting_automorphism(self) -> Optional[GeneratorImages]:
        """Search for an automorphism with tau-image in A1·tau^-1.

        Returns a witness if one exists; expected result is None for every
        valid (p, u).  Only tau-images with c-component ≡ -1 mod p need to
        be scanned, which keeps this much cheaper than full enumeration.
        """
        self._check_guard()
        c_target = self.p - 1
        tau_candidates = [g for g in self._tau_image_candidates() if g[1] == c_target]
        # No generation test: with p ∤ a_x and c_tau = p - 1 the determinant
        # on G/Φ(G) is ≡ -a_x ≢ 0 mod p, so every such pair generates G.
        for gx in self._x_image_candidates():
            for gt in tau_candidates:
                images = GeneratorImages(gx, gt)
                if self.hom_check(images).accepted:
                    return images
        return None
