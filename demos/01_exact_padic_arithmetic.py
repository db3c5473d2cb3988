"""Exact arithmetic at a fixed p-adic precision.

Every value is an element of Z/p^N carrying its own (p, N); nothing is
ever silently coerced, so a run either proves a congruence or fails
loudly.
"""

from anticyclo import PadicInt, PadicMatrix, mat_pow_zeta, pow_one_unit, teichmuller
from anticyclo.padic import valuation
from anticyclo.poly import binomial_row

p, N = 3, 3
print(f"working in Z/{p}^{N} = Z/{p**N}")

print(f"valuation(18) = {valuation(18, p)}   (18 = 2*3^2)")
print(f"valuation(5)  = {valuation(5, p)}   (a unit)")
try:
    valuation(0, p)
except ValueError as exc:
    print(f"valuation(0) refused: {exc}   (a residue 0 mod {p**N} only says 'at least N')")

print(f"\ninverse of 2 mod 27: {pow(2, -1, p**N)}   (2*14 = 28 = 1 mod 27)")

# Teichmuller representatives: the torsion part of the units
for a in range(1, 5):
    z = teichmuller(a, 5, 2)
    print(f"teichmuller({a}) mod 25 = {z.residue:2d},  check {z.residue}^4 mod 25 = {pow(z.residue, 4, 25)}")

# principal units take p-adic exponents: mod p^N, u^zeta depends only on
# zeta mod p^(N-1), so pow_one_unit is one modular power, and the binomial
# series of mat_pow_zeta on the 1x1 matrix [u] gives the same value
zeta = teichmuller(2, 5, 2)
base = PadicInt(5, 2, 6)
series = mat_pow_zeta(PadicMatrix(5, 2, [[6]]), zeta).rows[0][0]
print(f"\n6^zeta mod 25 by pow_one_unit: {pow_one_unit(base, zeta).residue}; via the binomial series: {series}")

# the congruence that drives the automorphism obstruction:
# (1 + p^u)^r = 1 + r p^u mod p^(u+1)
u_exp = 1
base = PadicInt(p, u_exp + 1, 1 + p**u_exp)
print(f"\n(1+{p}^{u_exp})^r mod {p**(u_exp+1)} for r = 0..8:")
print(" ", [pow_one_unit(base, r).residue for r in range(9)])
print("  1 + r*p^u:", [(1 + r * p**u_exp) % p ** (u_exp + 1) for r in range(9)])

# the coefficients of (1 + T)^e that the series of mat_pow_zeta sums
print("\nbinomial coefficients of p-adic arguments stay integral:")
print(f"  C(-1, 3) mod 25 = {binomial_row(-1, 4)[3] % 25}  (i.e. -1)")
print(f"  C(zeta, 2) mod 25 = {binomial_row(int(zeta), 3)[2] % 25}  (7*6/2 = 21)")
