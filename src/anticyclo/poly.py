"""Integer polynomials as ascending coefficient lists: entry i multiplies
T^i.  The one home of the polynomial helpers that several modules share:
the binomial row of (1 + T)^e, which carries Phi_{p^k}(1 + T) and the
series of M^zeta; and the remainder by a monic polynomial.
"""

from __future__ import annotations


def binomial_row(e: int, count: int) -> list[int]:
    """C(e, 0), ..., C(e, count - 1), the first count coefficients of
    (1 + T)^e over Z for any integer e: each from the one before by the
    exact division C(e, k + 1) = C(e, k)·(e - k)/(k + 1)."""
    row = [1]
    for k in range(count - 1):
        row.append(row[k] * (e - k) // (k + 1))
    return row[:count]


def cyclotomic_factor(p: int, k: int) -> list[int]:
    """Phi_{p^k}(1 + T) = sum_(i<p) (1 + T)^(i·p^(k-1)) for k >= 1, the
    degree-phi(p^k) irreducible factor of omega_n for each 1 <= k <= n."""
    q = p ** (k - 1)
    return [sum(col) for col in zip(*(binomial_row(i * q, (p - 1) * q + 1) for i in range(p)))]


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
