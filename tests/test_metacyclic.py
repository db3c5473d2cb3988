import pytest

from anticyclo.cli import ENUMERATION_BUDGET
from anticyclo.errors import SearchSpaceError
from anticyclo.metacyclic import SEARCH_GUARD, GeneratorImages, HomCheck, MetacyclicGroup

from conftest import NaiveMetacyclic, automorphisms_by_closure


def _grid(budget, primes=(3, 5, 7, 11, 13)):
    """Every (p, u) whose candidate-pair count order² stays within budget."""
    points = []
    for p in primes:
        u = 1
        while p ** (2 * (u + 2)) <= budget:
            points.append((p, u))
            u += 1
    return points


def test_product_rule_examples():
    G = MetacyclicGroup(3, 1)
    assert G.mul((1, 1), (1, 0)) == (5, 1)  # forced by tau·x·tau^-1 = x^4
    assert G.mul((1, 1), (2, 2)) == (0, 0)  # (1,1)^-1 = (2,2)
    assert G.mul((7, 2), (0, 0)) == (7, 2)
    assert G.inverse((1, 1)) == (2, 2)


def test_group_axioms_exhaustive_for_order_27():
    G = MetacyclicGroup(3, 1)
    naive = NaiveMetacyclic(3, 1)
    els = naive.elements()
    assert len(els) == 27
    for g in els:
        assert G.mul(g, G.identity) == g == G.mul(G.identity, g)
        assert G.mul(g, G.inverse(g)) == G.identity
    for g in els:
        for h in els:
            assert G.mul(g, h) == naive.mul(g, h)
            for k in els:
                assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))


def test_element_orders():
    # G.power kills each element exactly at the order the oracle counts
    G = MetacyclicGroup(3, 1)
    assert G.power((1, 1), 3) == (3, 0)  # (1,1) has order 9, not 3
    naive = NaiveMetacyclic(3, 1)
    for g in naive.elements():
        n = naive.order_of(g)
        assert n in (1, 3, 9)
        assert G.power(g, n) == G.identity
        assert n == 1 or G.power(g, n // 3) != G.identity


def test_power_matches_naive_repetition():
    G = MetacyclicGroup(5, 1)
    naive = NaiveMetacyclic(5, 1)
    for g in [(1, 0), (0, 1), (2, 3), (7, 4), (24, 1)]:
        for n in range(12):
            assert G.power(g, n) == naive.power(g, n)
        assert G.power(g, -1) == G.inverse(g)


@pytest.mark.parametrize("p, u", [(3, 1), (3, 2), (5, 1)])
def test_closed_form_power_matches_naive_repetition_for_every_integer(p, u):
    # G has exponent p^(u+1), so g^n is the naive power g^(n mod p^(u+1))
    G = MetacyclicGroup(p, u)
    naive = NaiveMetacyclic(p, u)
    q = p ** (u + 1)
    for g in naive.elements():
        for n in range(-2 * q, 2 * q):
            assert G.power(g, n) == naive.power(g, n % q)


def test_hom_check_examples():
    G = MetacyclicGroup(3, 1)
    assert G.hom_check(GeneratorImages((1, 0), (0, 1))).accepted
    rejected = G.hom_check(GeneratorImages((1, 0), (1, 1)))
    assert not rejected.accepted
    assert "order" in rejected.reason
    assert G.hom_check(GeneratorImages((2, 0), (0, 1))).accepted  # x -> x^2


def test_automorphism_enumeration_matches_oracle():
    G = MetacyclicGroup(3, 1)
    autos = G.enumerate_automorphisms()
    assert len(autos) == 54
    oracle = NaiveMetacyclic(3, 1).automorphism_images()
    assert sorted((tuple(a.image_x), tuple(a.image_tau)) for a in autos) == sorted(oracle)
    assert GeneratorImages((1, 0), (0, 1)) in autos


def test_automorphism_count_divisible_by_inner_part():
    for p, u in [(3, 1), (3, 2), (5, 1)]:
        G = MetacyclicGroup(p, u)
        autos = G.enumerate_automorphisms()
        assert len(autos) % (p * p**u) == 0
        # inner automorphisms show up in the enumeration
        for conjugator in [(1, 0), (0, 1), (1, 1)]:
            inner = GeneratorImages(
                G.mul(G.mul(conjugator, (1, 0)), G.inverse(conjugator)),
                G.mul(G.mul(conjugator, (0, 1)), G.inverse(conjugator)),
            )
            assert inner in autos


def test_automorphisms_fix_the_quotient_by_the_cyclic_part():
    # tau can only map to A1·tau^1: the inverse coset is excluded outright
    # and the c = 0 coset cannot generate, so the induced action on the
    # order-p quotient is the identity for every automorphism.
    for p, u in [(3, 1), (3, 2), (5, 1)]:
        for images in MetacyclicGroup(p, u).enumerate_automorphisms():
            assert images.image_tau[1] == 1


def test_enumeration_matches_closure_oracle_in_order():
    for p, u in [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)]:
        autos = MetacyclicGroup(p, u).enumerate_automorphisms()
        assert [tuple(a) for a in autos] == automorphisms_by_closure(p, u)


def test_automorphism_count_inside_enumeration_budget():
    grid = _grid(ENUMERATION_BUDGET)
    assert grid == [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)]
    for p, u in grid:
        # x maps to any element of order p^(u+1), tau to x^(b·p^u)·tau.
        assert len(MetacyclicGroup(p, u).enumerate_automorphisms()) == p ** (u + 2) * (p - 1)


def test_relations_accept_exactly_the_closed_form_inside_enumeration_budget():
    # Certificate for the closed form: among x-images x^a·tau^c (p ∤ a)
    # and tau-images x^(b·p^u)·tau^e, the relations hold exactly when e = 1.
    for p, u in _grid(ENUMERATION_BUDGET):
        G = MetacyclicGroup(p, u)
        for a in range(G.mod_a):
            if a % p == 0:
                continue
            for c in range(p):
                for b in range(p):
                    for e in range(p):
                        images = GeneratorImages((a, c), (b * p**u, e))
                        assert G.hom_check(images).accepted == (e == 1), (p, u, images)


def test_hom_check_calls_are_bounded_by_the_closed_form(monkeypatch):
    calls = []
    original = MetacyclicGroup.hom_check

    def counting(self, images):
        calls.append(images)
        return original(self, images)

    monkeypatch.setattr(MetacyclicGroup, "hom_check", counting)
    for p, u in [(3, 1), (3, 3), (5, 1), (7, 1), (13, 1)]:
        G = MetacyclicGroup(p, u)
        calls.clear()
        autos = G.enumerate_automorphisms()
        assert len(calls) == len(autos) == p ** (u + 2) * (p - 1)
        calls.clear()
        assert G.find_inverting_automorphism() is None
        assert len(calls) == p * (p - 1)


def test_enumeration_raises_when_a_closed_form_image_fails(monkeypatch):
    monkeypatch.setattr(MetacyclicGroup, "hom_check", lambda self, images: HomCheck(False, "forced"))
    with pytest.raises(ArithmeticError, match="fails the defining relations"):
        MetacyclicGroup(3, 1).enumerate_automorphisms()


def test_no_inverting_automorphism_on_the_grid():
    grid = _grid(SEARCH_GUARD)
    assert {(3, 5), (5, 3), (7, 2), (11, 1), (13, 1)} <= set(grid)
    for p, u in grid:
        assert MetacyclicGroup(p, u).find_inverting_automorphism() is None


def test_search_guard():
    G = MetacyclicGroup(3, 6)  # order 3^8 = 6561, 6561^2 > 10^7
    with pytest.raises(SearchSpaceError, match="search space too large"):
        G.enumerate_automorphisms()
    with pytest.raises(SearchSpaceError):
        G.find_inverting_automorphism()
    # the order is named as a power, also where its decimal string would
    # exceed the interpreter's 4300-digit limit
    for p, u in ((3, 6), (3, 9011), (1000003, 715)):
        with pytest.raises(SearchSpaceError, match=rf"\({p}\^{u + 2}\)\^2 candidate pairs"):
            MetacyclicGroup(p, u).find_inverting_automorphism()


def test_constructor_validation():
    with pytest.raises(ValueError):
        MetacyclicGroup(2, 1)
    with pytest.raises(ValueError):
        MetacyclicGroup(9, 1)
    with pytest.raises(ValueError):
        MetacyclicGroup(3, 0)


@pytest.mark.parametrize("p, u", [(3, 2), (5, 1), (7, 1)])
def test_product_and_inverse_match_naive_on_all_pairs(p, u):
    G = MetacyclicGroup(p, u)
    naive = NaiveMetacyclic(p, u)
    els = naive.elements()
    for g in els:
        assert naive.mul(g, G.inverse(g)) == G.identity == naive.mul(G.inverse(g), g)
        for h in els:
            assert G.mul(g, h) == naive.mul(g, h)
