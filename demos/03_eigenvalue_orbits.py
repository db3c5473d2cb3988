"""Zeta-th powers of matrices, intertwiners, and the rank-divisibility law.

For M = I mod p one can raise M to any p-adic exponent.  If an
invertible D satisfies M^zeta D = D M and M - I is injective at
precision, then the eigenvalues of M split into full orbits under
eta -> eta^zeta, forcing dim M to be a multiple of the order of zeta.
"""

from anticyclo import (
    PadicMatrix,
    charpoly,
    intertwiner_solve,
    mat_pow_zeta,
    orbit_block_construct,
    rank_divisibility_check,
    teichmuller,
)

# the minimal example: one orbit of size two under inversion
M, D = orbit_block_construct(3, 4, s=1, zeta=-1)
print("M =", [list(r) for r in M.rows])
print("D =", [list(r) for r in D.rows])
print("M^-1 D == D M:", mat_pow_zeta(M, -1) @ D == D @ M)
print("rank divisibility:", rank_divisibility_check(M, -1))

# re-discover the intertwiner from scratch
found = intertwiner_solve(M, -1)
print("solver verdict:", found.status, "witness:", [list(r) for r in found.witness.rows])

# no witness can exist in odd dimension (here: the 1x1 case)
scalar = PadicMatrix(3, 3, [[4]])
print("\n1x1 M = [4], zeta = -1:", intertwiner_solve(scalar, -1).status)

# an order-4 exponent needs p = 1 mod 4; one orbit has size 4
zeta = teichmuller(2, 5, 6)
M4, D4 = orbit_block_construct(5, 6, s=1, zeta=zeta)
print("\norder-4 orbit block, eigenvalues:", [M4.rows[i][i] for i in range(4)])
print("intertwines:", mat_pow_zeta(M4, zeta) @ D4 == D4 @ M4)
print("rank divisibility:", rank_divisibility_check(M4, zeta))

# the executable form of 'the eigenvalue multiset is zeta-stable':
print("\ncharpoly(M^zeta) == charpoly(M):",
      charpoly(mat_pow_zeta(M4, zeta).rows, M4.modulus) == charpoly(M4.rows, M4.modulus))
print("charpoly(M) =", charpoly(M4.rows, M4.modulus), "(ascending coefficients mod 5^6)")
