import json
import math
import random
import re
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anticyclo.cohomology import FinitePModule
from anticyclo.errors import NotInvertibleError
from anticyclo.linalg import PadicMatrix, mat_pow_zeta
from anticyclo.padic import (
    MILLER_RABIN_BOUND,
    PadicInt,
    is_odd_prime,
    p_power_exponents,
    pow_one_unit,
    teichmuller,
    valuation,
)
from anticyclo.poly import binomial_row
from anticyclo.records import RecordParseError, parse_record

from conftest import int_valuation, p_power_exponents_by_division


def test_valuation_examples():
    assert valuation(18, 3) == 2
    assert valuation(5, 3) == 0
    assert valuation(PadicInt(3, 3, 18).residue, 3) == 2
    assert valuation(-(5**7) * 2, 5) == 7


@given(st.sampled_from([3, 5, 7, 11]), st.integers().filter(bool))
def test_integer_valuation_matches_oracle(p, x):
    assert valuation(x, p) == int_valuation(x, p)


def test_integer_valuation_of_zero_raises():
    with pytest.raises(ValueError, match="valuation of 0"):
        valuation(0, 3)


def test_inverse_examples():
    assert (PadicInt(3, 3, 2) ** -1).residue == 14
    assert (PadicInt(3, 3, 1) ** -1).residue == 1
    with pytest.raises(NotInvertibleError, match="not invertible at this precision"):
        PadicInt(3, 3, 3) ** -1


def test_inverse_exhaustive_small():
    for precision in (1, 2, 3):
        modulus = 3**precision
        for r in range(modulus):
            x = PadicInt(3, precision, r)
            if r % 3 == 0:
                with pytest.raises(NotInvertibleError):
                    x**-1
            else:
                assert (x**-1).residue * r % modulus == 1


def test_construction_normalizes_and_validates():
    assert PadicInt(3, 2, -1).residue == 8
    assert PadicInt(5, 1, 12).residue == 2
    with pytest.raises(ValueError):
        PadicInt(4, 2, 1)
    with pytest.raises(ValueError):
        PadicInt(2, 2, 1)
    with pytest.raises(ValueError):
        PadicInt(3, 0, 1)


def test_mixed_parameters_are_hard_errors():
    with pytest.raises(ValueError, match="mixed p-adic parameters"):
        pow_one_unit(PadicInt(3, 2, 4), teichmuller(2, 3, 3))
    with pytest.raises(ValueError, match="mixed p-adic parameters"):
        pow_one_unit(PadicInt(3, 2, 4), teichmuller(2, 5, 2))


small_odd_primes = st.sampled_from([3, 5, 7])


def test_teichmuller_examples():
    assert teichmuller(1, 5, 2).residue == 1
    assert teichmuller(2, 3, 3).residue == 26  # -1 lifts itself
    assert teichmuller(2, 5, 2).residue == 7
    with pytest.raises(ValueError):
        teichmuller(10, 5, 2)


def test_teichmuller_brute_force_oracle():
    # unique residue mod 25 with x^4 = 1 and x = 2 mod 5
    hits = [x for x in range(25) if pow(x, 4, 25) == 1 and x % 5 == 2]
    assert hits == [teichmuller(2, 5, 2).residue]


def test_teichmuller_is_torsion_and_congruent():
    for p in (3, 5, 7):
        for precision in range(1, 5):
            modulus = p**precision
            for a in range(1, p):
                z = teichmuller(a, p, precision)
                assert pow(z.residue, p - 1, modulus) == 1
                assert z.residue % p == a


def test_one_unit_power_examples():
    assert pow_one_unit(PadicInt(3, 2, 4), 2).residue == 7  # 1 + 2*3 mod 9
    assert pow_one_unit(PadicInt(3, 3, 4), 0).residue == 1
    zeta = teichmuller(2, 5, 2)
    assert pow_one_unit(PadicInt(5, 2, 6), zeta).residue == pow(6, 7, 25)


def test_one_unit_power_rejects_bad_base():
    with pytest.raises(ValueError, match="principal unit"):
        pow_one_unit(PadicInt(3, 3, 2), teichmuller(2, 3, 3))


def test_one_unit_power_is_the_one_by_one_binomial_series():
    # mat_pow_zeta is the one binomial series left; pow_one_unit must agree
    # with it on every principal unit for negative, small and large integer
    # exponents and for Teichmuller exponents.
    integers = [-1, 10**6 + 1] + list(range(-20, 60, 7))
    for p in (3, 5, 7):
        for precision in (1, 2, 3, 4):
            zetas = integers + [teichmuller(a, p, precision) for a in range(2, p)]
            for residue in range(1, p**precision, p):
                u = PadicInt(p, precision, residue)
                for zeta in zetas:
                    series = mat_pow_zeta(PadicMatrix(p, precision, [[residue]]), zeta)
                    assert pow_one_unit(u, zeta).residue == series.rows[0][0]


def test_principal_unit_congruence_sweep():
    # (1+p^u)^r = 1 + r·p^u mod p^(u+1) for r in 0..p^2, u in {1,2}, p in {3,5}
    for p in (3, 5):
        for u in (1, 2):
            base = PadicInt(p, u + 1, 1 + p**u)
            for r in range(p**2 + 1):
                assert pow_one_unit(base, r).residue == (1 + r * p**u) % p ** (u + 1)


def test_binomial_examples():
    # C(e, k) mod p^N is entry k of binomial_row(e, k + 1)
    assert binomial_row(-1, 4)[3] % 25 == (-1) % 25
    assert binomial_row(-1, 4)[3] % 81 == (-1) % 81
    assert binomial_row(123, 1) == [1]
    zeta = teichmuller(2, 5, 2)
    assert binomial_row(int(zeta), 3)[2] % 25 == 21  # 7*6/2


def test_binomial_against_exact_integers():
    from math import comb

    for e in range(0, 30):
        assert [c % 81 for c in binomial_row(e, 8)] == [comb(e, k) % 81 for k in range(8)]
    # C(e, k) is an integer for every integer e, negative or large
    for e in (-(3**9), -7, -1, 3**20 + 5):
        row = binomial_row(e, 8)
        for k, c in enumerate(row):
            falling = math.prod(e - i for i in range(k))
            assert c * math.factorial(k) == falling, (e, k)


def test_integer_power_dunder_matches_builtin():
    x = PadicInt(3, 3, 5)
    assert (x**4).residue == pow(5, 4, 27)
    assert (x**-1).residue == pow(5, -1, 27)
    with pytest.raises(NotInvertibleError):
        PadicInt(3, 3, 6) ** -1


def _invariant_factor_verdict(factors, p):
    """The exponents of a descending list of p^e with e >= 1, else the
    error text for the first factor that is no such power, else the
    descending error; by trial powers, not valuations."""
    exponents = []
    for q in factors:
        e = next((e for e in range(1, max(q, 1).bit_length() + 1) if p**e == q), None)
        if e is None:
            return f"invariant {q} is not a power of {p}"
        exponents.append(e)
    return exponents if exponents == sorted(exponents, reverse=True) else "invariants must be descending"


def _invariant_factor_lists():
    def factor(p):
        power = st.integers(0, 6).map(lambda e: p**e)
        return st.one_of(power, power.map(lambda q: -q), st.integers(-100, 1000))

    return small_odd_primes.flatmap(lambda p: st.tuples(st.just(p), st.lists(factor(p), max_size=5)))


@given(_invariant_factor_lists())
@example((3, [0]))
@example((3, [1]))
@example((3, [-3]))
@example((3, [10]))
@example((3, [9, 27]))
@example((5, [125, 25, 25, 5]))
@example((3, []))
def test_p_power_exponents_accepts_exactly_descending_p_powers(case):
    p, factors = case
    verdict = _invariant_factor_verdict(factors, p)
    line = json.dumps({"p": p, "n": 1, "inv": factors})
    if isinstance(verdict, list):
        assert p_power_exponents(factors, p) == verdict
        assert parse_record(line, 2).exponent_sum == sum(verdict)
        assert FinitePModule(p, factors).exponent == max(verdict, default=0)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(verdict)}$"):
        p_power_exponents(factors, p)
    with pytest.raises(RecordParseError, match=f"^line 2: {re.escape(verdict)}$"):
        parse_record(line, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(verdict)}$"):
        FinitePModule(p, factors)


def _exponents_or_error(factors, p, exponents_of):
    try:
        return exponents_of(factors, p)
    except ValueError as exc:
        return f"ValueError: {exc}"


#: Every e up to 128, then a spread up to 9000; 644 is the largest exponent
#: among the invariants of the benchmark's records files.
SWEPT_EXPONENTS = [*range(1, 129), 200, 300, 500, 644, 1000, 2000, 4000, 6000, 9000]


@pytest.mark.parametrize("p", [3, 5, 7, 1000003])
def test_p_power_exponents_matches_the_division_oracle(p):
    cases = [[0], [1], [-p], [p - 1], [p, p * p], [p * p, p, p]]
    for e in SWEPT_EXPONENTS:
        q = p**e
        cases += [[q], [q + 1], [q - 1], [2 * q], [q * (p + 1)]]
        if e <= 128:  # order checks; the oracle's loop is quadratic in e
            cases += [[q, p], [p, q]]
    for factors in cases:
        expected = _exponents_or_error(factors, p, p_power_exponents_by_division)
        assert _exponents_or_error(factors, p, p_power_exponents) == expected


def test_p_power_exponents_names_an_unprintable_factor_by_index_and_bits():
    # at the interpreter's default limit of 4,300 digits, a factor that
    # cannot be printed is named by its position and bit length
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        p = 1000003
        big = 2 * p**1000  # 6,001 digits
        named = f"invariant #1 ({big.bit_length()} bits) is not a power of {p}"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            p_power_exponents([p**2000, big], p)
        with pytest.raises(ValueError, match=f"^{re.escape(named.replace('#1', '#0'))}$"):
            FinitePModule(p, (big,))
        with pytest.raises(ValueError, match=f"^invariant {2 * p} is not a power of {p}$"):
            p_power_exponents([2 * p], p)
    finally:
        sys.set_int_max_str_digits(limit)


def test_p_power_exponents_finds_every_exponent_up_to_9000():
    # the rounded float guess is the true exponent of every power 3^e,
    # e <= 9000 (3^9000 has 4,295 digits, under the default digit limit)
    q = 1
    for e in range(1, 9001):
        q *= 3
        assert p_power_exponents([q], 3) == [e]


def test_a_record_of_a_4295_digit_invariant():
    limit = sys.get_int_max_str_digits()
    assert limit == 0 or limit >= 4300
    line = '{"p": 3, "n": 1, "inv": [%s]}' % (3**9000)
    assert parse_record(line, 3).exponent_sum == 9000
    line = '{"p": 3, "n": 1, "inv": [%s]}' % (3**9000 + 1)
    with pytest.raises(RecordParseError, match=f"^line 3: invariant {3**9000 + 1} is not a power of 3$"):
        parse_record(line, 3)


def test_teichmuller_checks_p_and_precision_first():
    for p in (-3, 0, 1, 2, 9):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            teichmuller(2, p, 3)
    for precision in (0, -2):
        with pytest.raises(ValueError, match=f"precision must be a positive integer, got {precision}"):
            teichmuller(2, 5, precision)


def _odd_prime_by_trial_division(n):
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_primality_matches_trial_division():
    assert [n for n in range(20000) if is_odd_prime(n) != _odd_prime_by_trial_division(n)] == []
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randrange(10**9)
        assert is_odd_prime(n) == _odd_prime_by_trial_division(n)


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 11 and 12 prime bases respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_odd_prime(n)
    assert is_odd_prime(10**18 + 3)


def test_primality_agrees_with_sympy_below_the_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for _ in range(2000):
        n = rng.randrange(MILLER_RABIN_BOUND)
        assert is_odd_prime(n) == (n > 2 and sympy.isprime(n))


def test_primality_refuses_at_the_bound():
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 10**30):
        with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
            is_odd_prime(n)
