"""Elements of Z/p^N Z, viewed as precision-N truncations of Z_p, and the
scalar helpers around them: the odd-prime check, v_p, Teichmuller lifts
and p-adic powers of principal units.

Every value carries its own (p, N); a p-adic exponent at other
parameters is a contract violation and raises immediately.  Residues are
canonical in [0, p^N), so equality is plain equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Union

from .errors import NotInvertibleError


#: Strong probable-prime tests to the first 13 prime bases are exact below
#: this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
#: bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above the bound.
    p is taken through ``operator.index``: a float raises TypeError."""
    p = index(p)
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(f"p = {p} is at or above {MILLER_RABIN_BOUND}, the bound of the deterministic primality test")
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime: the standing hypothesis
    of every object of the package."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def require_parameters(p: int, precision: int) -> None:
    """Raise ValueError unless p is an odd prime and precision a positive
    integer; every constructor of Z/p^N data calls this before any
    arithmetic, so a bad p or N never reaches a modulus of 0 or 1.  Both
    are taken through ``operator.index``: a float raises TypeError."""
    require_odd_prime(p)
    if index(precision) < 1:
        raise ValueError(f"precision must be a positive integer, got {precision}")


@dataclass(frozen=True)
class PadicInt:
    """An element of Z_p known modulo p**precision."""

    p: int
    precision: int
    residue: int

    def __post_init__(self):
        require_parameters(self.p, self.precision)
        object.__setattr__(self, "residue", index(self.residue) % self.p**self.precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def __pow__(self, exponent: int) -> "PadicInt":
        """Integer power mod p^N (negative needs a unit base)."""
        if not isinstance(exponent, int):
            raise TypeError("use pow_one_unit for p-adic exponents")
        if exponent < 0 and not self.is_unit():
            raise NotInvertibleError("not invertible at this precision")
        return PadicInt(self.p, self.precision, pow(self.residue, exponent, self.modulus))

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def __int__(self) -> int:
        return self.residue

    def __repr__(self) -> str:
        return f"PadicInt({self.residue} mod {self.p}^{self.precision})"


#: Exponents acting on pro-p groups: plain integers act on anything,
#: a PadicInt exponent only on principal units (bases ≡ 1 mod p).
PadicExponent = Union[int, PadicInt]


def valuation(x: int, p: int) -> int:
    """v_p(x) of a nonzero integer x."""
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def teichmuller(a: int, p: int, precision: int) -> PadicInt:
    """The unique (p-1)-st root of unity congruent to a mod p.

    Computed as a^(p^(N-1)) mod p^N: iterating x -> x^p contracts the
    unit group onto its torsion, and N-1 steps land exactly at precision N.
    """
    require_parameters(p, precision)
    if a % p == 0:
        raise ValueError("no Teichmuller representative for residues divisible by p")
    modulus = p**precision
    z = pow(a % p, p ** (precision - 1), modulus)
    return PadicInt(p, precision, z)


def pow_one_unit(u: PadicInt, e: PadicExponent) -> PadicInt:
    """Raise a principal unit (u ≡ 1 mod p) to an integer or p-adic power.

    The principal units mod p^N form a group of order p^(N-1), so u^e
    depends only on e mod p^(N-1) and one modular power of the residue of
    e is exact; a negative integer e takes the inverse, u being a unit.
    """
    if u.residue % u.p != 1:
        raise ValueError("base must be a principal unit (≡ 1 mod p)")
    if isinstance(e, PadicInt) and (e.p, e.precision) != (u.p, u.precision):
        raise ValueError(
            f"mixed p-adic parameters: (p={u.p}, N={u.precision}) vs (p={e.p}, N={e.precision})"
        )
    return PadicInt(u.p, u.precision, pow(u.residue, int(e), u.modulus))


def p_power_exponents(factors, p: int) -> list[int]:
    """The exponents e_i of a descending list of invariant factors p^(e_i).

    Raises ValueError unless every factor is a power p^e with e >= 1 (so
    0, 1 and negatives are refused) and the list is descending; p must
    be an odd prime.  The error names the factor, or its index and bit
    length when it has more digits than the interpreter prints.

    No division loop: the rounded float log(q)/log(p) only proposes e,
    and the exact test q == p^e decides.  For q = p^e that quotient is e
    to a relative error of a few units in the last place (below 10^-15),
    so it rounds to e while e stays below about 10^14; a q that is no
    power of p fails the exact test whatever e is proposed.
    """
    log_p = math.log(p)
    exponents = []
    for i, q in enumerate(factors):
        e = round(math.log(q) / log_p) if q >= p else 0
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
