"""Integer polynomials as ascending coefficient lists: entry i multiplies
T^i.  The one home of the polynomial helpers that several modules share.
"""

from __future__ import annotations


def poly_mod_monic(a, g):
    """Remainder of the integer polynomial a modulo the monic g, as deg g
    coefficients, unreduced."""
    dg = len(g) - 1
    a = list(a) + [0] * (dg - len(a))
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        if c:
            for j in range(dg + 1):
                a[i - dg + j] -= c * g[j]
    return a[:dg]
