import random
from math import comb

import pytest

from anticyclo.iwasawa import omega_n
from anticyclo.poly import binomial_row, coprime_mod_p, cyclotomic_factor

from conftest import cyclotomic_at_one_plus_t


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("e", [0, 1, 2, 7, 30, 3**8])
def test_binomial_row_of_a_natural_exponent_is_pascals_row(e):
    # past k = e the row is zero, as (1 + T)^e has degree e
    assert binomial_row(e, e + 5) == [comb(e, k) for k in range(e + 5)]


@pytest.mark.parametrize("e", [-1, -2, -5, -3**8])
def test_binomial_row_of_a_negative_exponent_alternates(e):
    # C(e, k) = (-1)^k·C(k - e - 1, k) for e < 0
    assert binomial_row(e, 12) == [(-1) ** k * comb(k - e - 1, k) for k in range(12)]


def test_binomial_row_takes_exactly_count_entries():
    assert binomial_row(5, 0) == []
    assert binomial_row(5, 1) == [1]
    assert binomial_row(-4, 3) == [1, -4, 10]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclotomic_factor_times_the_last_omega_is_the_next_omega(p):
    for k in range(1, 4 if p == 3 else 3):
        phi = cyclotomic_factor(p, k)
        assert phi == cyclotomic_at_one_plus_t(p, k)
        assert len(phi) - 1 == (p - 1) * p ** (k - 1)
        assert poly_mul(phi, omega_n(p, k - 1)) == omega_n(p, k)


def test_coprime_mod_p_agrees_with_sympy_gcd_over_gf_p():
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    rng = random.Random(11)
    for p in (3, 5, 7):
        for _ in range(150):
            f = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(1, 6))]
            g = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(1, 6))]
            if rng.random() < 0.3:  # plant a common factor T + a
                a = rng.randrange(p)
                f, g = poly_mul(f, [a, 1]), poly_mul(g, [a, 1])
            if not any(c % p for c in f + g):
                continue  # both ≡ 0: outside the contract
            F = sympy.Poly(list(reversed(f)), T, modulus=p)
            G = sympy.Poly(list(reversed(g)), T, modulus=p)
            assert coprime_mod_p(f, g, p) == (sympy.gcd(F, G).degree() == 0), (p, f, g)

