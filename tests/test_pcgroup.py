"""Collection engine, element operations, subgroups, series, consistency."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pcmax.blackburn import RingModule
from pcmax.errors import PresentationError
from pcmax.maxclass import build_profile, compute_G1, validate_maximal_class
from pcmax.pcgroup import Element, PcPresentation

from .conftest import SEED
from .oracles import (closed_under_conjugation, commutes_pairwise, coset_count,
                      cover_step_rows, cover_step_unknowns, is_weighted, membership,
                      multiplied_consistency_check, naive_collect,
                      naive_consistency_check, overlap_words, rank_mod_p,
                      subgroup_elements, weights)


def heisenberg(p=5):
    zero = (0, 0, 0)
    return PcPresentation(p, 3, [zero] * 3, {(2, 1): (0, 0, 1)})


def abelian(p=3, n=4):
    zero = (0,) * n
    return PcPresentation(p, n, [zero] * n, {})


# -- construction and validation ------------------------------------------


def test_rejects_bad_prime():
    # the rule from its statement, an odd prime below 256, by trial division;
    # 2^61 - 1 is a prime that must be refused before any p-sized table
    def admissible(p):
        return 2 < p < 256 and all(p % d for d in range(2, p))

    accepted = 0
    for p in [*range(-3, 301), 2**61 - 1]:
        for make in (lambda: PcPresentation(p, 2, [(0, 0)] * 2, {}),
                     lambda: RingModule(p, 3)):
            if admissible(p):
                assert make().p == p
                accepted += 1
            else:
                with pytest.raises(PresentationError,
                                   match=f"^p must be an odd prime below 256, got {p}$"):
                    make()
    assert accepted == 2 * 53
    for p in (5.0, "5", True):
        with pytest.raises(PresentationError, match="^p must be an odd prime below 256"):
            PcPresentation(p, 2, [(0, 0)] * 2, {})


def test_rejects_bad_support():
    # power tail of a_2 may not touch a_1 or a_2
    with pytest.raises(PresentationError):
        PcPresentation(3, 2, [(0, 0), (0, 1)], {})
    # commutator tail of [a_2, a_1] must live above index 2
    with pytest.raises(PresentationError):
        PcPresentation(3, 3, [(0, 0, 0)] * 3, {(2, 1): (0, 1, 0)})


def test_rejects_out_of_range_entries():
    with pytest.raises(PresentationError):
        PcPresentation(3, 2, [(0, 3), (0, 0)], {})


@pytest.mark.parametrize("pts, cts, message", [
    ([(0, 0, 1), (0, 0, 3), (0, 0, 0)], {}, "power tail of a_2: entries must lie in [0, 3)"),
    ([(0, 0, 0), (0, -1, 0), (0, 0, 0)], {}, "power tail of a_2: entries must lie in [0, 3)"),
    ([(0, 0, 0), (0, 0), (0, 0, 0)], {}, "power tail of a_2: expected vector of length 3"),
    ([(0, 0, 0), (0, 1, 0), (0, 0, 0)], {}, "power tail of a_2: support must start at index 3"),
    ([(0, 0, 0)] * 3, {(2, 1): [0, 1, 1]}, "tail of [a_2, a_1]: support must start at index 3"),
    ([(0, 0, 0)] * 3, {(2, 1): "005"}, "tail of [a_2, a_1]: entries must lie in [0, 3)"),
    ([(0, 0, 0)] * 3, {(1, 2): None}, "commutator pair (1, 2) out of range"),
])
def test_bad_tails_keep_their_messages(pts, cts, message):
    with pytest.raises(PresentationError, match=f"^{re.escape(message)}$"):
        PcPresentation(3, 3, pts, cts)


@pytest.mark.parametrize("tail, message", [
    (None, "expected vector of length 3"),
    (0.0, "expected vector of length 3"),
    ("001", "entries must lie in [0, 3)"),
    (("0", "0", "1"), "entries must lie in [0, 3)"),
    ((0, 0, 0.5), "entries must lie in [0, 3)"),
    ((0, 0, [1]), "entries must lie in [0, 3)"),
])
def test_tails_that_are_not_int_vectors_raise_presentation_error(tail, message):
    """A tail is a vector of ints: a string, a float, None or an entry that
    is none of 0..p-1 is bad input, named as such, not a TypeError."""
    zero = (0, 0, 0)
    with pytest.raises(PresentationError, match=f"^power tail of a_1: {re.escape(message)}$"):
        PcPresentation(3, 3, [tail, zero, zero], {})
    with pytest.raises(PresentationError,
                       match=f"^tail of \\[a_2, a_1\\]: {re.escape(message)}$"):
        PcPresentation(3, 3, [zero] * 3, {(2, 1): tail})


# -- collection -------------------------------------------------------------


def collect(pres, word):
    """The product of the letters a_g^e of a word, a letter with e < 0 being
    the inverse of a_g^-e."""
    x = pres.identity
    for g, e in word:
        a = pres.power(pres.generator(g), abs(e))
        x = pres.multiply(x, a if e >= 0 else pres.invert(a))
    return x


def test_collect_empty_word_is_identity(g57):
    assert collect(g57, []) == g57.identity


def test_collect_single_power(g57):
    el = collect(g57, [(1, 2)])
    assert el == Element((2, 0, 0, 0, 0, 0, 0))


def test_collect_index_out_of_range(g57):
    with pytest.raises(PresentationError):
        collect(g57, [(8, 1)])
    with pytest.raises(PresentationError):
        collect(g57, [(0, 1)])


def test_collect_commutator_correction_against_naive_oracle(g57):
    # s_1 * s in that order picks up the commutator correction s_2
    word = [(2, 1), (1, 1)]
    expected = naive_collect(g57, word)
    got = collect(g57, word)
    assert got == expected
    assert got == Element((1, 1, 1, 0, 0, 0, 0))


@pytest.mark.parametrize("trial", range(25))
def test_collect_matches_naive_oracle_random_words(g35, trial):
    rng = random.Random(SEED + trial)
    word = [(rng.randrange(1, g35.n + 1), rng.randrange(1, 4)) for _ in range(6)]
    assert collect(g35, word) == naive_collect(g35, word)


def test_collect_well_defined_under_insertions(g57, rng):
    # inserting g g^-1 pairs anywhere must not change the normal form
    for _ in range(50):
        word = [(rng.randrange(1, 8), rng.randrange(-4, 5)) for _ in range(5)]
        base = collect(g57, word)
        shuffled = list(word)
        for _ in range(3):
            pos = rng.randrange(len(shuffled) + 1)
            g = rng.randrange(1, 8)
            e = rng.randrange(1, 5)
            shuffled[pos:pos] = [(g, e), (g, -e)]
        assert collect(g57, shuffled) == base


def test_collect_negative_exponents(g57, rng):
    for _ in range(50):
        g = g57.full_subgroup().random_element(rng)
        word = [(i + 1, -e) for i, e in reversed(list(enumerate(g))) if e]
        assert collect(g57, word) == g57.invert(g)


# -- left division and signed letters against the oracle ---------------------


@pytest.fixture(scope="session", params=["g35", "g55", "nonmetabelian57"])
def oracle_pres(request):
    value = request.getfixturevalue(request.param)
    return value if isinstance(value, PcPresentation) else value.pres


def elements_of(pres):
    return st.lists(st.integers(0, pres.p - 1), min_size=pres.n,
                    max_size=pres.n).map(Element)


def letters(el, sign=1):
    """The normal-form word of el, or of el^-1 when sign is -1."""
    word = [(i + 1, e) for i, e in enumerate(el) if e]
    return word if sign > 0 else [(g, -e) for g, e in reversed(word)]


ORACLE_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@ORACLE_SETTINGS
@given(data=st.data())
def test_solve_matches_oracle(oracle_pres, data):
    pres = oracle_pres
    a, b = data.draw(elements_of(pres)), data.draw(elements_of(pres))
    x = pres.solve(a, b)
    assert x == naive_collect(pres, letters(a, -1) + letters(b))
    assert pres.multiply(a, x) == b


@ORACLE_SETTINGS
@given(data=st.data())
def test_invert_commutator_conjugate_match_oracle(oracle_pres, data):
    pres = oracle_pres
    a, b = data.draw(elements_of(pres)), data.draw(elements_of(pres))
    assert pres.invert(a) == naive_collect(pres, letters(a, -1))
    assert pres.commutator(a, b) == naive_collect(
        pres, letters(a, -1) + letters(b, -1) + letters(a) + letters(b))
    assert pres.conjugate(a, b) == naive_collect(
        pres, letters(b, -1) + letters(a) + letters(b))


@ORACLE_SETTINGS
@given(data=st.data())
def test_collect_signed_letters_matches_oracle(oracle_pres, data):
    pres = oracle_pres
    word = data.draw(st.lists(
        st.tuples(st.integers(1, pres.n), st.integers(-2 * pres.p, 2 * pres.p)),
        max_size=5))
    assert collect(pres, word) == naive_collect(pres, word)


def test_conjugate_power_expansion_matches_oracle(oracle_pres):
    # the collector's general step replaces a block letter a_j^e by e copies
    # of the letters of a_j^(a_g) = a_j [a_j, a_g]; collected from the
    # identity they must give (a_j^e)^(a_g) = a_g^-1 a_j^e a_g
    pres = oracle_pres
    for (j, g) in pres.commutator_tails:
        cl = pres._conj[g - 1][j]
        for e in range(2, pres.p):
            vec = list(pres.identity)
            pres._collect(vec, list(reversed(cl * e)))
            assert tuple(vec) == naive_collect(pres, [(g, -1), (j, e), (g, 1)])


def test_collector_never_sees_negative_exponents(nonmetabelian58, monkeypatch, rng):
    pres = nonmetabelian58.pres
    original = PcPresentation._collect
    stacks = []

    def guarded(self, vec, stack):
        assert all(e > 0 for _, e in stack), f"negative letter in {stack}"
        stacks.append(len(stack))
        return original(self, vec, stack)

    monkeypatch.setattr(PcPresentation, "_collect", guarded)
    for _ in range(20):
        a, b = (pres.full_subgroup().random_element(rng) for _ in range(2))
        pres.invert(a)
        pres.commutator(a, b)
        pres.conjugate(a, b)
    pres.lower_central_series()
    build_profile(validate_maximal_class(pres))
    assert stacks


# -- element operations ------------------------------------------------------


def test_multiply_identity(g57, rng):
    for _ in range(100):
        g = g57.full_subgroup().random_element(rng)
        assert g57.multiply(g57.identity, g) == g
        assert g57.multiply(g, g57.identity) == g


def test_multiply_inverse(g57, rng):
    for _ in range(100):
        g = g57.full_subgroup().random_element(rng)
        assert g57.multiply(g, g57.invert(g)).is_identity()
        assert g57.multiply(g57.invert(g), g).is_identity()


def test_associativity_seeded(g57):
    rng = random.Random(SEED)
    for _ in range(1000):
        a, b, c = (g57.full_subgroup().random_element(rng) for _ in range(3))
        assert g57.multiply(g57.multiply(a, b), c) == g57.multiply(a, g57.multiply(b, c))


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(-6, 6)), max_size=8),
       st.lists(st.tuples(st.integers(1, 5), st.integers(-6, 6)), max_size=8))
def test_collect_is_homomorphic_on_words(w1, w2):
    pres = build_cached_g55()
    assert pres.multiply(collect(pres, w1), collect(pres, w2)) == collect(pres, list(w1) + list(w2))


_G55_CACHE = {}


def build_cached_g55():
    if "g" not in _G55_CACHE:
        from pcmax.blackburn import build_blackburn_pc

        _G55_CACHE["g"] = build_blackburn_pc(5, 5)
    return _G55_CACHE["g"]


def test_power_square_and_multiply(g57, rng):
    for _ in range(40):
        g = g57.full_subgroup().random_element(rng)
        k = rng.randrange(-30, 30)
        expected = g57.identity
        if k >= 0:
            for _ in range(k):
                expected = g57.multiply(expected, g)
        else:
            gi = g57.invert(g)
            for _ in range(-k):
                expected = g57.multiply(expected, gi)
        assert g57.power(g, k) == expected


def test_commutator_definitions(g57, rng):
    for _ in range(100):
        a, b = (g57.full_subgroup().random_element(rng) for _ in range(2))
        manual = g57.multiply(
            g57.multiply(g57.invert(a), g57.invert(b)), g57.multiply(a, b)
        )
        assert g57.commutator(a, b) == manual
        conj = g57.multiply(g57.multiply(g57.invert(b), a), b)
        assert g57.conjugate(a, b) == conj


def test_commutator_self_trivial(g57, rng):
    for _ in range(20):
        g = g57.full_subgroup().random_element(rng)
        assert g57.commutator(g, g).is_identity()


def test_commutator_identity_from_expansion(g57):
    # [gu, hv] = [g,v]^u [g,h]^{vu} [u,v] [u,h]^v, exactly
    rng = random.Random(SEED)
    mul, com, con = g57.multiply, g57.commutator, g57.conjugate
    for _ in range(500):
        g, u, h, v = (g57.full_subgroup().random_element(rng) for _ in range(4))
        lhs = com(mul(g, u), mul(h, v))
        rhs = mul(
            mul(con(com(g, v), u), con(com(g, h), mul(v, u))),
            mul(com(u, v), con(com(u, h), v)),
        )
        assert lhs == rhs


def _element_order(pres, a) -> int:
    """Order of a, by raising to the p-th power until the identity."""
    order = 1
    while any(a):
        a = pres.power(a, pres.p)
        order *= pres.p
    return order


def test_invert_agrees_with_order_power(g57, nonmetabelian58, rng):
    # a^-1 = a^(order-1), and power() with positive exponents only
    # multiplies, so this cross-checks solve() independently
    for pres in (g57, nonmetabelian58.pres):
        for _ in range(30):
            g = pres.full_subgroup().random_element(rng)
            k = _element_order(pres, g)
            assert pres.invert(g) == pres.power(g, k - 1)


def test_element_order_identity(g57):
    assert _element_order(g57, g57.identity) == 1


def test_element_order_s_is_p(g57):
    assert _element_order(g57, g57.generator(1)) == 5


def test_element_order_s1_brute_force(g57):
    s1 = g57.generator(2)
    # brute-force powering oracle
    x = s1
    k = 1
    while not x.is_identity():
        x = g57.multiply(x, s1)
        k += 1
    assert _element_order(g57, s1) == k == 25


# -- subgroups ----------------------------------------------------------------


def test_trivial_subgroup(g57):
    sub = g57.subgroup_from_generators([])
    assert sub.order_exponent == 0
    assert sub.contains(g57.identity)
    assert not sub.contains(g57.generator(1))


def test_normal_closure_of_s2_is_gamma2(g57):
    sub = g57.subgroup_from_generators([g57.generator(3)], normal_closure=True)
    assert sub.order_exponent == 5
    assert sub == g57.suffix_subgroup(3)


def test_maximal_abelian_subgroup_order(g57):
    sub = g57.subgroup_from_generators(g57.generators[1:])
    assert sub.order_exponent == 6
    assert sub.is_abelian()


def test_subgroup_closure_properties(g57, rng):
    gens = [g57.full_subgroup().random_element(rng) for _ in range(2)]
    sub = g57.subgroup_from_generators(gens)
    for b in sub.basis:
        assert sub.contains(g57.power(b, 5))
        for c in sub.basis:
            assert sub.contains(g57.conjugate(b, c))
    for _ in range(30):
        x, y = sub.random_element(rng), sub.random_element(rng)
        assert sub.contains(g57.multiply(x, y))
        assert sub.contains(g57.invert(x))


def test_subgroup_orders_multiply_small():
    # transversal count on small instances
    for (p, n) in [(3, 5), (5, 5)]:
        from pcmax.blackburn import build_blackburn_pc

        pres = build_blackburn_pc(p, n)
        rng = random.Random(SEED)
        for _ in range(4):
            gens = [pres.full_subgroup().random_element(rng)]
            sub = pres.subgroup_from_generators(gens, normal_closure=True)
            assert coset_count(pres, sub) == p ** (n - sub.order_exponent)


def test_subgroup_orders_multiply_bookkeeping(g58):
    sub = g58.suffix_subgroup(4)
    assert sub.order_exponent + (g58.n - sub.order_exponent) == g58.n


def test_subgroup_elements_enumeration(g55):
    sub = g55.suffix_subgroup(4)
    els = subgroup_elements(sub)
    assert len(els) == len(set(els)) == 25
    for el in els:
        assert sub.contains(el)


def _probes(pres, rng):
    # the identity, and for each i a random element with leading index i
    probes = [pres.identity]
    for i in range(pres.n):
        x = [0] * i + [rng.randrange(1, pres.p)]
        probes.append(Element(x + [rng.randrange(pres.p) for _ in range(pres.n - i - 1)]))
    return probes


def _agrees_with_oracles(H, probes):
    member = membership(H)
    assert [H.contains(x) for x in probes] == [member(x) for x in probes], H
    assert H.is_normal() == closed_under_conjugation(H, member), H
    assert H.is_abelian() == commutes_pairwise(H), H


@pytest.mark.parametrize("name", ["g35", "g55", "g57", "g512", "nonmetabelian57",
                                  "nonmetabelian58"])
def test_suffix_facts_match_oracles(request, name, rng):
    # every Gamma_k, the trivial Gamma_{n+1} included, answers from k alone
    # what the oracles compute from its members, products and conjugates;
    # both verdicts of "abelian" occur, at k = _abelian_start and below it
    if name == "g512":
        from pcmax.blackburn import build_blackburn_pc
        pres = build_blackburn_pc(5, 12)
    else:
        value = request.getfixturevalue(name)
        pres = value if isinstance(value, PcPresentation) else value.pres
    probes = _probes(pres, rng)
    for k in range(1, pres.n + 2):
        H = pres.suffix_subgroup(k)
        assert H._suffix == k
        assert H.is_normal()
        _agrees_with_oracles(H, probes)


def test_non_suffix_subgroups_match_oracles(g57, nonmetabelian58, a2_outside_G1_58, rng):
    # <a_1, Gamma_3> and G_1 = <a_1 a_2^c, Gamma_3> with c != 0 are no
    # suffixes, so they take the general path
    subgroups = [pres.subgroup_from_generators([pres.generators[0], *pres.generators[2:]])
                 for pres in (g57, nonmetabelian58.pres)]
    G1 = compute_G1(a2_outside_G1_58)
    assert G1.basis[0][0] == 1 and G1.basis[0][1] != 0
    for H in [*subgroups, G1]:
        assert H._suffix == 0
        assert H.is_normal()
        _agrees_with_oracles(H, _probes(H.pres, rng))
    assert not subgroups[0].is_abelian()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_subgroup_basis_independent_of_generating_list(oracle_pres, data):
    # the canonical basis depends on the subgroup only: the reversed list,
    # and the list with a member g replaced by g h or by h g for h in the
    # subgroup generated by the other members, give the same one
    pres = oracle_pres
    gens = data.draw(st.lists(elements_of(pres), min_size=2, max_size=4))
    H = pres.subgroup_from_generators(gens)
    assert all(H.contains(g) for g in gens)
    for b in H.basis:
        assert b[b.leading_index() - 1] == 1
        assert not any(x[b.leading_index() - 1] for x in H.basis if x is not b)
    assert pres.subgroup_from_generators(gens[::-1]).basis == H.basis
    for pos, g in enumerate(gens):
        h = pres.identity
        for x in data.draw(st.permutations(gens[:pos] + gens[pos + 1 :])):
            h = pres.multiply(h, pres.power(x, data.draw(st.integers(0, pres.p - 1))))
        for moved in (pres.multiply(g, h), pres.multiply(h, g)):
            changed = gens[:pos] + [moved] + gens[pos + 1 :]
            assert pres.subgroup_from_generators(changed).basis == H.basis


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coset_reps_of_normal_subgroups(oracle_pres, k):
    # series terms and the normal closure of a_k: one representative per
    # coset, each with K's pivot coordinates zero
    pres = oracle_pres
    for K in (pres.lower_central_series().term(k),
              pres.subgroup_from_generators([pres.generator(k)], normal_closure=True)):
        assert K.is_normal()
        reps = pres._coset_reps(K)
        index = pres.p ** (pres.n - K.order_exponent)
        assert len(reps) == len(set(reps)) == index == coset_count(pres, K)
        for r in reps:
            assert not any(r[piv - 1] for piv in K._pivots)


# -- series ---------------------------------------------------------------------


def test_lcs_abelian_input():
    pres = abelian()
    chain = pres.lower_central_series()
    assert chain.order_exponents() == (4, 0)


def test_lcs_order_exponents_g57(g57):
    chain = g57.lower_central_series()
    assert chain.order_exponents() == (7, 5, 4, 3, 2, 1, 0)


def test_lcs_chain_length_g35(g35):
    chain = g35.lower_central_series()
    assert chain.nilpotency_class() == 4
    assert len(chain) == 5


def test_lcs_normal_descending_with_commutator_containment(g57):
    chain = g57.lower_central_series()
    for i in range(1, len(chain)):
        term = chain.term(i)
        assert term.is_normal()
        nxt = chain.term(i + 1)
        for b in term.basis:
            assert term.contains(b)
            for g in g57.generators:
                assert nxt.contains(g57.commutator(b, g))
        for b in nxt.basis:
            assert term.contains(b)


def test_series_clamp(g57):
    chain = g57.lower_central_series()
    assert chain.term(40).order_exponent == 0


# -- centralizer_mod --------------------------------------------------------------


def test_centralizer_mod_abelian_full():
    pres = abelian()
    C = pres.centralizer_mod(pres.trivial_subgroup(), pres.trivial_subgroup())
    assert C.order_exponent == pres.n


def test_centralizer_mod_g57(g57):
    chain = g57.lower_central_series()
    C = g57.centralizer_mod(chain.term(2), chain.term(4))
    assert C == g57.suffix_subgroup(2)
    # s moves s_2 outside its G_4 coset, so the centralizer is proper
    assert not C.contains(g57.generator(1))


def test_centralizer_mod_requires_containment(g57):
    chain = g57.lower_central_series()
    with pytest.raises(PresentationError):
        g57.centralizer_mod(chain.term(4), chain.term(2))


def test_centralizer_mod_requires_normal(g57):
    # <s> is not normal in G'
    H = g57.full_subgroup()
    K = g57.subgroup_from_generators([g57.generator(1)])
    with pytest.raises(PresentationError):
        g57.centralizer_mod(H, K)


# -- quotients ----------------------------------------------------------------------


def test_quotient_full_is_same(g57):
    assert g57.quotient_by_term(7) is g57


def test_quotient_rank_two(g57):
    quo = g57.quotient_by_term(2)
    assert quo.n == 2
    assert quo.consistency_check().ok
    # elementary abelian of order p^2
    assert not quo.commutator_tails
    assert all(not any(t) for t in quo.power_tails)


def test_quotient_by_N_satisfies_congruence_relations(g57, profile57):
    k = profile57.l + 2
    quo = g57.quotient_by_term(k)
    assert quo.n == k
    assert quo.consistency_check().ok
    from math import comb

    # images of the power products collapse in the quotient
    for i in range(1, quo.n):
        acc = quo.identity
        for kk in range(1, quo.p + 1):
            idx = i + kk - 1
            if idx + 1 <= quo.n:
                acc = quo.multiply(acc, quo.power(quo.generator(idx + 1), comb(quo.p, kk)))
        assert acc.is_identity()


# -- consistency ---------------------------------------------------------------------


def test_consistency_abelian_trivial_tails():
    assert abelian().consistency_check().ok


def test_consistency_blackburn(g57):
    report = g57.consistency_check()
    assert report.ok
    assert report.overlaps_checked > 0


def test_consistency_detects_corruption(g57):
    # redirect [s_2', s'] from s_3' to s_4'
    cts = {k: list(v) for k, v in g57.commutator_tails.items()}
    bad = [0] * 7
    bad[4] = 1  # a_5 instead of a_4
    cts[(3, 1)] = bad
    corrupted = PcPresentation(5, 7, [list(t) for t in g57.power_tails], cts)
    report = corrupted.consistency_check()
    assert not report.ok
    assert report.failure


def _corrupted(pres, rng):
    """pres with one tail coordinate (a power tail or a commutator tail,
    within its allowed support) moved by a nonzero amount."""
    p, n = pres.p, pres.n
    pts = [list(t) for t in pres.power_tails]
    cts = {pair: list(t) for pair, t in pres.commutator_tails.items()}
    slots = [(None, i, k) for i in range(n) for k in range(i + 1, n)]
    slots += [((j, i), None, k) for j in range(2, n + 1) for i in range(1, j)
              for k in range(j, n)]
    pair, i, k = rng.choice(slots)
    row = pts[i] if pair is None else cts.setdefault(pair, [0] * n)
    row[k] = (row[k] + rng.randrange(1, p)) % p
    return PcPresentation(p, n, pts, cts)


def _kind(failure):
    """The kind of a failing word, with a_i^p a_i apart from a_j^p a_i."""
    if re.search(r"a_(\d+)\^p a_\1$", failure):
        return "power overlap a_#^p a_# (same index)"
    return re.sub(r"\d+", "#", failure)


def test_consistency_check_matches_naive_oracle(g35, g55, g57, m57, nonmetabelian57,
                                               nonmetabelian58):
    # the pinned presentations, the reference 5^12 and 7^8, the pinned
    # search hits at (5,9) and (7,10), and 15 seeded corruptions of each:
    # the count and the failure equal the naive run of the words the engine
    # must collect (the short set on a weighted presentation), and the
    # verdict equals the naive run of the full set
    from pcmax.blackburn import build_blackburn_pc
    from pcmax.search import search_nonmetabelian

    from .test_search import PINNED_HITS

    hits = []
    for key in ((1, 5, 9, None), (1, 7, 10, None)):
        seed, p, n, _ = key
        hit = search_nonmetabelian(p, n, seed=seed, budget=5000).pres
        assert hit.digest() == PINNED_HITS[key][0]
        hits.append(hit)
    rng = random.Random(SEED)
    pinned = [g35, g55, g57, m57, nonmetabelian57.pres, nonmetabelian58.pres,
              build_blackburn_pc(5, 12), build_blackburn_pc(7, 8), *hits]
    corrupted = [_corrupted(pres, rng) for pres in pinned for _ in range(15)]
    verdicts = []
    kinds = set()
    short = 0
    for pres in pinned + corrupted:
        report = pres.consistency_check()
        words = overlap_words(pres.n, short=is_weighted(pres))
        short += len(words) < len(overlap_words(pres.n))
        assert (report.ok, report.overlaps_checked, report.failure) == \
            naive_consistency_check(pres, words)
        assert report.ok == naive_consistency_check(pres, overlap_words(pres.n))[0]
        verdicts.append(report.ok)
        if report.failure:
            kinds.add(re.sub(r"\d+", "#", report.failure))
    # the corruptions reach both verdicts and three kinds of failing overlap,
    # and both word sets are run
    assert all(verdicts[:len(pinned)])
    assert not all(verdicts[len(pinned):]) and any(verdicts[len(pinned):])
    assert kinds == {"associativity overlap a_#(a_# a_#)", "power overlap a_#^p a_#",
                     "power overlap a_# a_#^p"}
    assert 0 < short < len(verdicts)


def _search_candidates(p, n, l, count, rng):
    """`count` candidates of the search's own stream at (p, n, l): a random
    solution of its linear system assembled onto the reference tails."""
    from pcmax.blackburn import RingModule, reference_tails
    from pcmax.homs import row_reduce
    from pcmax.search import _assemble, _linear_system, _random_solution

    variables, index, rows = _linear_system(p, n, l)
    rref, pivots = row_reduce(rows, p)
    base = reference_tails(RingModule(p, n))
    for _ in range(count):
        sol = _random_solution(p, len(variables), rref, pivots, rng)
        pts, cts = _assemble(p, n, l, base, sol, index, rng, rng.random() < 0.25)
        yield PcPresentation(p, n, pts, cts)


def _weighted_slots(n):
    """(pair, i, c): coordinate c of the tail of a_i^p (pair None) or of
    [a_j, a_i] with i >= 2, at or above its weight, so that a change there
    keeps a weighted presentation weighted."""
    w = weights(n)
    slots = [(None, i, c) for i in range(1, n + 1) for c in range(w[i] + 2, n + 1)]
    return slots + [((j, i), None, c) for j in range(3, n + 1) for i in range(2, j)
                    for c in range(w[j] + w[i] + 1, n + 1)]


def _corrupted_at(pres, rng, count):
    """pres with `count` weighted coordinates moved by nonzero amounts."""
    p, n = pres.p, pres.n
    pts = [list(t) for t in pres.power_tails]
    cts = {pair: list(t) for pair, t in pres.commutator_tails.items()}
    for pair, i, c in rng.sample(_weighted_slots(n), count):
        row = pts[i - 1] if pair is None else cts.setdefault(pair, [0] * n)
        row[c - 1] = (row[c - 1] + rng.randrange(1, p)) % p
    return PcPresentation(p, n, pts, cts)


def _random_weighted(rng, n):
    """A weighted presentation with the standard chain and each allowed
    coordinate of the other tails nonzero with probability about 1/2."""
    p = rng.choice((3, 5, 7))
    w = weights(n)

    def tail(start):
        return [rng.randrange(p) if c >= start and rng.random() < 0.5 else 0
                for c in range(1, n + 1)]

    cts = {(k, 1): [int(c == k + 1) for c in range(1, n + 1)] for k in range(2, n)}
    cts.update({(j, i): tail(w[j] + w[i] + 1) for j in range(3, n + 1) for i in range(2, j)})
    return PcPresentation(p, n, [tail(w[i] + 2) for i in range(1, n + 1)], cts)


def test_short_and_full_overlap_tests_agree(g35, g55, g57, nonmetabelian57,
                                            nonmetabelian58):
    # near-consistent weighted inputs: the search's candidate stream, 2 to 4
    # weighted coordinates moved in each pinned presentation, and random
    # weighted inputs with n = 4 and 5; the engine collects the short set
    # (the count says so) and its verdict equals the full set's, collected
    # word by word with `multiply`
    from pcmax.blackburn import build_blackburn_pc
    from pcmax.search import search_nonmetabelian

    rng = random.Random(SEED)
    inputs = []
    for (p, n), count in {(3, 6): 500, (5, 7): 500, (5, 8): 500, (5, 9): 300,
                          (7, 10): 250, (7, 12): 150}.items():
        for l in (1, 2):
            if l < n - 3:
                inputs += _search_candidates(p, n, l, count, rng)
    pinned = [g35, g55, g57, nonmetabelian57.pres, nonmetabelian58.pres,
              build_blackburn_pc(5, 12), build_blackburn_pc(7, 8),
              search_nonmetabelian(5, 9, seed=1, budget=5000).pres,
              search_nonmetabelian(7, 10, seed=1, budget=5000).pres]
    inputs += [_corrupted_at(pres, rng, rng.randrange(2, 5))
               for pres in pinned for _ in range(60)]
    inputs += [_random_weighted(rng, n) for n in (4, 5) for _ in range(500)]
    verdicts = Counter()
    kinds = set()
    for pres in inputs:
        assert is_weighted(pres), pres.canonical_text()
        report = pres.consistency_check()
        full = multiplied_consistency_check(pres, overlap_words(pres.n))
        assert report.ok == full[0], pres.canonical_text()
        if report.ok:
            assert report.overlaps_checked == len(overlap_words(pres.n, short=True))
        else:
            kinds.add(_kind(report.failure))
        verdicts[report.ok] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts
    assert kinds == {"associativity overlap a_#(a_# a_#)", "power overlap a_#^p a_#",
                     "power overlap a_# a_#^p", "power overlap a_#^p a_# (same index)"}


def test_short_test_runs_on_weighted_inputs_only(g57, rescaled58):
    # n <= 3 and inputs without the standard chain or the weights get the
    # full set; a check never passes on zero words.  A tail below its
    # weight makes a standard-chain input inconsistent, as
    # [gamma_a, gamma_b] <= gamma_{a+b}; the full set names another first
    # failing word than the short set would
    def overlaps(pres):
        report = pres.consistency_check()
        assert report.ok
        return report.overlaps_checked

    assert overlaps(g57) == len(overlap_words(7, short=True)) == 21
    assert overlaps(rescaled58) == len(overlap_words(8)) == 120
    for n in (1, 2, 3):
        tails = {(2, 1): (0, 0, 1)} if n == 3 else {}
        assert overlaps(PcPresentation(5, n, [(0,) * n] * n, tails)) == len(overlap_words(n)) > 0
    # a_1^p with an a_2 coordinate, and [a_6, a_4] = a_7 below its weight 9
    a1_power = PcPresentation(5, 4, [(0, 1, 0, 0)] + [(0,) * 4] * 3,
                              {(2, 1): (0, 0, 1, 0), (3, 1): (0, 0, 0, 1)})
    light = dict(g57.commutator_tails)
    light[(6, 4)] = g57.generators[6]
    light = PcPresentation(5, 7, g57.power_tails, light)
    assert naive_consistency_check(light, overlap_words(7, short=True)) == \
        (False, 15, "power overlap a_4 a_2^p")
    for pres in (a1_power, light):
        assert not is_weighted(pres)
        report = pres.consistency_check()
        assert not report.ok
        assert (report.ok, report.overlaps_checked, report.failure) == \
            naive_consistency_check(pres, overlap_words(pres.n))


def test_associativity_words_with_i_2_are_needed(assoc_i2_78):
    # the pinned 7^8 passes every word of the short set but the
    # associativity words with i = 2, so no smaller set ending in a_1 or
    # in a_1 and the power words with i = 2 certifies consistency; in its
    # cover step onto a_8 the words ending in a_1 have a smaller rank
    pres = assoc_i2_78
    assert is_weighted(pres)
    short = overlap_words(8, short=True)
    ends_in_1 = [w for w in short if w[-1] == 1]
    no_assoc_2 = [w for w in short if w[0] != "assoc" or w[-1] == 1]
    assert naive_consistency_check(pres, ends_in_1) == (True, 17, None)
    assert multiplied_consistency_check(pres, no_assoc_2) == (True, 26, None)
    failure = (False, 4, "associativity overlap a_4(a_3 a_2)")
    assert tuple(pres.consistency_check()) == failure
    assert naive_consistency_check(pres, short) == failure
    assert naive_consistency_check(pres, overlap_words(8)) == failure
    rows = cover_step_rows(pres, 7, ends_in_1, short, overlap_words(8))
    assert [rank_mod_p(r, 7) for r in rows] == [11, 12, 12]


def _cover_step_tails(pres, m):
    """The a_{m+1} coordinates of the `cover_step_unknowns` in `pres`."""
    return [pres.power_tails[rel[1] - 1][m] if rel[0] == "power"
            else pres.commutator_tail(rel[1], rel[2])[m]
            for rel in cover_step_unknowns(pres, m)]


def test_short_set_has_the_rank_of_the_full_set_in_every_cover_step(
        nonmetabelian57, nonmetabelian58, assoc_i2_78):
    # exact evidence for the lemma of `consistency_check`: at every level m
    # of these inputs, the conditions that the short words of P_{m+1} put
    # on the a_{m+1} coordinates of its relations have the rank of the full
    # set's, so they admit the same tails.  Each input's own tails solve
    # the full system wherever its truncation P_{m+1} is consistent, that
    # is everywhere but at the top of the 7^8
    from pcmax.blackburn import build_blackburn_pc
    from pcmax.search import search_nonmetabelian

    inputs = [build_blackburn_pc(p, n) for p, n in
              [(3, n) for n in range(5, 10)] + [(5, n) for n in range(7, 11)]
              + [(7, n) for n in range(8, 11)]]
    inputs += [nonmetabelian57.pres, nonmetabelian58.pres, assoc_i2_78,
               search_nonmetabelian(5, 9, seed=1, budget=5000).pres,
               search_nonmetabelian(7, 10, seed=1, budget=5000).pres]
    levels = 0
    for pres in inputs:
        p = pres.p
        for m in range(3, pres.n):
            short, full = cover_step_rows(pres, m, overlap_words(m + 1, short=True),
                                          overlap_words(m + 1))
            assert 0 < rank_mod_p(short, p) == rank_mod_p(full, p), (pres, m)
            t = _cover_step_tails(pres, m) + [1]
            met = [not sum(a * b for a, b in zip(row, t)) % p for row in full]
            assert all(met) == (pres is not assoc_i2_78 or m < 7), (pres, m)
            levels += 1
    assert levels == 87


def test_consistency_check_collects_each_product_once(nonmetabelian58, monkeypatch):
    # the products a_j a_i are read off the relations, so there is at most
    # one collection per overlap side
    pres = nonmetabelian58.pres
    original = PcPresentation._collect
    calls = 0

    def counting(self, vec, stack):
        nonlocal calls
        calls += 1
        return original(self, vec, stack)

    monkeypatch.setattr(PcPresentation, "_collect", counting)
    report = pres.consistency_check()
    assert report.ok
    assert calls <= 2 * report.overlaps_checked


def test_standard_chain_is_read_off_the_tails(g57, nonmetabelian58):
    assert g57.has_standard_chain() and nonmetabelian58.pres.has_standard_chain()
    # any other tail of one [a_i, a_1], i < n, breaks the chain
    for i in range(2, 7):
        chain = g57.generators[i]
        for tail in ((0,) * 7, g57.power(chain, 2),
                     g57.multiply(chain, g57.generators[-1])):
            cts = dict(g57.commutator_tails)
            cts[(i, 1)] = tail
            pres = PcPresentation(5, 7, g57.power_tails, cts)
            assert not pres.has_standard_chain(), (i, tail)


def test_digest_is_stable(g57):
    from pcmax.blackburn import build_blackburn_pc

    assert g57.digest() == build_blackburn_pc(5, 7).digest()
