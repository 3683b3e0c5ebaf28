"""Collection engine, element operations, subgroups, series, consistency."""

import random
import re
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pcmax.errors import PresentationError
from pcmax.maxclass import build_profile
from pcmax.pcgroup import Element, PcPresentation

from .conftest import SEED
from .oracles import (coset_count, naive_collect, naive_consistency_check,
                      subgroup_elements)


def heisenberg(p=5):
    zero = (0, 0, 0)
    return PcPresentation(p, 3, [zero] * 3, {(2, 1): (0, 0, 1)})


def abelian(p=3, n=4):
    zero = (0,) * n
    return PcPresentation(p, n, [zero] * n, {})


# -- construction and validation ------------------------------------------


def test_rejects_bad_prime():
    with pytest.raises(PresentationError):
        PcPresentation(4, 2, [(0, 0)] * 2, {})
    with pytest.raises(PresentationError):
        PcPresentation(2, 2, [(0, 0)] * 2, {})


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
        g = g57.random_element(rng)
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


def test_cached_conjugate_powers_match_oracle(oracle_pres):
    # every form (a_j^e)^(a_g) the collector may cache, against both the
    # e-copies expansion of a_j^(a_g) and the word a_g^-1 a_j^e a_g
    pres = oracle_pres
    for (j, g), cl in pres._conj_letters.items():
        for e in range(2, pres.p):
            form = pres._conj_power(j, e, g)
            got = naive_collect(pres, form)
            assert form == tuple(letters(got))
            assert got == naive_collect(pres, list(cl) * e)
            assert got == naive_collect(pres, [(g, -1), (j, e), (g, 1)])


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
        a, b = pres.random_element(rng), pres.random_element(rng)
        pres.invert(a)
        pres.commutator(a, b)
        pres.conjugate(a, b)
    pres.lower_central_series()
    build_profile(pres, require_chain=True)
    assert stacks


# -- element operations ------------------------------------------------------


def test_multiply_identity(g57, rng):
    for _ in range(100):
        g = g57.random_element(rng)
        assert g57.multiply(g57.identity, g) == g
        assert g57.multiply(g, g57.identity) == g


def test_multiply_inverse(g57, rng):
    for _ in range(100):
        g = g57.random_element(rng)
        assert g57.multiply(g, g57.invert(g)).is_identity()
        assert g57.multiply(g57.invert(g), g).is_identity()


def test_associativity_seeded(g57):
    rng = random.Random(SEED)
    for _ in range(1000):
        a, b, c = (g57.random_element(rng) for _ in range(3))
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
        g = g57.random_element(rng)
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
        a, b = g57.random_element(rng), g57.random_element(rng)
        manual = g57.multiply(
            g57.multiply(g57.invert(a), g57.invert(b)), g57.multiply(a, b)
        )
        assert g57.commutator(a, b) == manual
        conj = g57.multiply(g57.multiply(g57.invert(b), a), b)
        assert g57.conjugate(a, b) == conj


def test_commutator_self_trivial(g57, rng):
    for _ in range(20):
        g = g57.random_element(rng)
        assert g57.commutator(g, g).is_identity()


def test_commutator_identity_from_expansion(g57):
    # [gu, hv] = [g,v]^u [g,h]^{vu} [u,v] [u,h]^v, exactly
    rng = random.Random(SEED)
    mul, com, con = g57.multiply, g57.commutator, g57.conjugate
    for _ in range(500):
        g, u, h, v = (g57.random_element(rng) for _ in range(4))
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
            g = pres.random_element(rng)
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
    gens = [g57.random_element(rng) for _ in range(2)]
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
            gens = [pres.random_element(rng)]
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


def test_consistency_check_matches_naive_oracle(g35, g55, g57, m57, nonmetabelian57,
                                               nonmetabelian58):
    # the pinned presentations, the reference 5^12 and 7^8, the pinned
    # search hits at (5,9) and (7,10), and 15 seeded corruptions of each
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
    for pres in pinned + corrupted:
        report = pres.consistency_check()
        assert (report.ok, report.overlaps_checked, report.failure) == \
            naive_consistency_check(pres)
        verdicts.append(report.ok)
        if report.failure:
            kinds.add(re.sub(r"\d+", "#", report.failure))
    # the corruptions reach both verdicts and three kinds of failing overlap
    assert all(verdicts[:len(pinned)])
    assert not all(verdicts[len(pinned):]) and any(verdicts[len(pinned):])
    assert kinds == {"associativity overlap a_#(a_# a_#)", "power overlap a_#^p a_#",
                     "power overlap a_# a_#^p"}


def test_consistency_check_collects_each_product_once(nonmetabelian58, monkeypatch):
    # the n(n-1)/2 products a_j a_i once, then one product per overlap side
    pres = nonmetabelian58.pres
    pres.consistency_check()  # fill the conjugate-power cache
    original = PcPresentation._collect
    calls = 0

    def counting(self, vec, stack):
        nonlocal calls
        calls += 1
        return original(self, vec, stack)

    monkeypatch.setattr(PcPresentation, "_collect", counting)
    report = pres.consistency_check()
    assert report.ok
    assert calls <= comb(pres.n, 2) + 2 * report.overlaps_checked


def test_digest_is_stable(g57):
    from pcmax.blackburn import build_blackburn_pc

    assert g57.digest() == build_blackburn_pc(5, 7).digest()
