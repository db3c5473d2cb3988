from math import comb

import pytest

from anticyclo.poly import binomial_row, cyclotomic_factor

from conftest import cyclotomic_at_one_plus_t


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def omega(p, n):
    """(1 + T)^(p^n) - 1 from math.comb."""
    q = p**n
    return [0] + [comb(q, k) for k in range(1, q + 1)]


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
        assert poly_mul(phi, omega(p, k - 1)) == omega(p, k)
