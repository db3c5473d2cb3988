"""The metacyclic p-groups Z/p^(u+1) ⋊ Z/p and their automorphisms.

The group G(p, u) is generated by x of order p^(u+1) and tau of order p
with tau·x·tau^-1 = x^(1+p^u).  Elements are normal-form pairs (a, c)
standing for x^a·tau^c, so the product rule and every power are
closed-form.

The automorphisms are known in closed form (Bidwell and Curran, "The
automorphism group of a split metacyclic p-group", Arch. Math. 87, 2006):

    Aut G(p, u) = {x -> x^a·tau^c, tau -> x^(b·p^u)·tau : p ∤ a; b, c in Z/p},

p^(u+2)·(p-1) maps in all.  The point of the package: no automorphism
maps tau to y·tau^-1 with y in the cyclic part.  Both operations below
emit only parametrized images and certify each one they return with
``hom_check``; neither scans candidate elements of G.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import SearchSpaceError
from .padic import require_odd_prime

#: Grid points with |G|^2 above this many candidate generator-image pairs
#: are refused with ``SearchSpaceError`` and reported as skipped.  The
#: inverting search makes p·(p-1) relation checks at any order, so the
#: guard no longer bounds work: it only fixes which grid points get a
#: verdict, and lifting it would turn those skips into verdicts.
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
        require_odd_prime(p)
        if u < 1:
            raise ValueError(f"u must be a positive integer, got {u}")
        self.p = p
        self.u = u
        self.mod_a = p ** (u + 1)
        self.pu = p**u
        self.t = 1 + self.pu
        self.order = p ** (u + 2)

    identity: Element = (0, 0)

    # tau^c acts on x as multiplication by t^c = (1 + p^u)^c, which is
    # 1 + c·p^u mod p^(u+1) because 2u >= u + 1.

    def mul(self, g: Element, h: Element) -> Element:
        a, c = g
        a2, c2 = h
        return ((a + (1 + c * self.pu) * a2) % self.mod_a, (c + c2) % self.p)

    def power(self, g: Element, n: int) -> Element:
        """g^n for any integer n, in closed form: the i-th factor x^a moves
        past tau^(i·c), which multiplies it by 1 + i·c·p^u, so
        (x^a·tau^c)^n = x^(a·(n + c·p^u·n(n-1)/2))·tau^(n·c)."""
        a, c = g
        return (a * (n + c * self.pu * (n * (n - 1) // 2)) % self.mod_a, n * c % self.p)

    def inverse(self, g: Element) -> Element:
        return self.power(g, -1)

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

    def _check_guard(self):
        if self.order**2 > SEARCH_GUARD:
            raise SearchSpaceError(
                f"search space too large: ({self.p}^{self.u + 2})^2 candidate pairs exceeds {SEARCH_GUARD}"
            )

    def enumerate_automorphisms(self) -> list[GeneratorImages]:
        """All generator images that define an automorphism of G.

        The closed form in a ascending (p ∤ a), then c, then b: x maps to
        x^a·tau^c and tau to x^(b·p^u)·tau.  Each pair is certified by
        ``hom_check``; the images generate G because modulo
        Φ(G) = ⟨x^p⟩ they are (a, c) and (0, 1) with p ∤ a, and a
        surjective endomorphism of a finite group is bijective.
        """
        self._check_guard()
        p, pu = self.p, self.pu
        autos = []
        for a in range(1, self.mod_a):
            if a % p == 0:
                continue
            for c in range(p):
                for b in range(p):
                    images = GeneratorImages((a, c), (b * pu, 1))
                    if not self.hom_check(images).accepted:
                        raise ArithmeticError(f"closed-form automorphism {images} fails the defining relations")
                    autos.append(images)
        return autos

    def find_inverting_automorphism(self) -> Optional[GeneratorImages]:
        """Search for an automorphism with tau-image in A1·tau^-1.

        Returns a witness if one exists; the result is None for every
        valid (p, u).  The elements of order dividing p are exactly
        x^(b·p^u)·tau^e, so a tau-image in A1·tau^-1 is x^(b·p^u)·tau^(p-1);
        an x-image of a bijection has order p^(u+1), so it is x^a·tau^c
        with p ∤ a.  Now x^(p^u) is central and (x^a·tau^c)^(p^u) =
        x^(a·p^u), so with y = x^a·tau^c the relation
        tau'·y·tau'^-1 = y·y^(p^u) reads x^(a·(1+p^u)^e)·tau^c =
        x^(a·(1+p^u))·tau^c, which modulo p^(u+1) is (e - 1)·a ≡ 0 mod p.
        That condition does not depend on b or c, nor on a beyond a mod p,
        so the p·(p-1) checks of (x^a, x^(b·p^u)·tau^(p-1)) with
        a in 1..p-1 decide the question.  An accepted pair would generate
        G, since modulo Φ(G) it is (a, 0), (0, p-1).
        """
        self._check_guard()
        for a in range(1, self.p):
            for b in range(self.p):
                images = GeneratorImages((a, 0), (b * self.pu, self.p - 1))
                if self.hom_check(images).accepted:
                    return images
        return None
