"""Maximal-class validation, the series certificate, the distinguished
subgroup, degree of commutativity, standard generators, exponent relations,
conjugacy facts."""

import random
from collections import Counter
from math import comb

import pytest

from pcmax.blackburn import build_blackburn_pc
from pcmax.errors import PresentationError
from pcmax.maxclass import (build_profile, chain_series, compute_G1,
                            conjugacy_facts, degree_of_commutativity,
                            standard_generators, validate_maximal_class,
                            verify_exponent_relations)
from pcmax.pcgroup import PcPresentation

from .conftest import GRID, SEED
from .oracles import brute_degree_of_commutativity, class_is_coset, commutes_pairwise


def test_validate_blackburn_fixtures(g35, g57):
    assert validate_maximal_class(g35).nilpotency_class == 4
    rep = validate_maximal_class(g57)
    assert rep.ok and rep.nilpotency_class == 6
    assert rep.series.terms == g57.lower_central_series().terms


def test_validate_rejects_elementary_abelian():
    pres = PcPresentation(3, 3, [(0, 0, 0)] * 3, {})
    rep = validate_maximal_class(pres)
    assert not rep.ok and chain_series(pres) is None
    assert "class" in rep.failure
    # order p: no suffix subgroup Gamma_3 exists to compare the series with
    rep = validate_maximal_class(PcPresentation(3, 1, [(0,)], {}))
    assert not rep.ok and rep.failure == "nilpotency class 1 != 0"


def test_compute_G1(g57):
    G1 = compute_G1(g57)
    assert G1 == g57.suffix_subgroup(2)
    assert G1.order_exponent == 6
    assert G1.is_abelian()


def test_compute_G1_index_p(g36):
    G1 = compute_G1(g36)
    assert g36.n - G1.order_exponent == 1


def test_compute_G1_requires_n4():
    pres = PcPresentation(5, 3, [(0, 0, 0)] * 3, {(2, 1): (0, 0, 1)})
    with pytest.raises(PresentationError):
        compute_G1(pres)


def _G1_against_oracle(pres):
    """compute_G1, after checking it against the exhaustive coset walk."""
    series = pres.lower_central_series()
    G1 = compute_G1(pres)
    assert G1 == pres.centralizer_mod(series.term(2), series.term(4))
    assert pres.n - G1.order_exponent == 1
    return G1


def _rebased(pres, b1, b2):
    """The same group on the pc sequence b1, b2, a_3, ..., a_n, for b1, b2
    spanning G/G_2 where G_2 = <a_3, ..., a_n>."""
    p, n = pres.p, pres.n

    def coords(g):
        for e1 in range(p):
            for e2 in range(p):
                head = pres.multiply(pres.power(b1, e1), pres.power(b2, e2))
                rest = pres.multiply(pres.invert(head), g)
                if not (rest[0] or rest[1]):
                    return (e1, e2, *rest[2:])
        raise AssertionError("b1, b2 do not span G/G_2")

    gens = [b1, b2, *pres.generators[2:]]
    return PcPresentation(
        p, n, [coords(pres.power(g, p)) for g in gens],
        {(j + 1, i + 1): coords(pres.commutator(gens[j], gens[i]))
         for j in range(n) for i in range(j)})


@pytest.fixture(scope="module")
def structure_inputs(nonmetabelian57, nonmetabelian58):
    """The GRID groups and both searched fixtures, each also on the pc
    sequences (s s_1, s, s_2, ...) and (s_1, s, s_2, ...)."""
    groups = [build_blackburn_pc(p, n) for p, n in GRID]
    groups += [nonmetabelian57.pres, nonmetabelian58.pres]
    inputs = []
    for pres in groups:
        s, s1 = pres.generators[:2]
        inputs += [pres, _rebased(pres, pres.multiply(s, s1), s), _rebased(pres, s1, s)]
    assert all(pres.consistency_check().ok for pres in inputs)
    return inputs


def test_chain_series_matches_lower_central_series(structure_inputs):
    for pres in structure_inputs:
        assert chain_series(pres).terms == pres.lower_central_series().terms, pres
    # on (s_1, s, s_2, ...) the a_1 = s_1 tails [a_k, a_1] miss a_{k+1} for
    # k >= 3 (l >= 1 on every input), so the witness is [a_k, a_2]
    for pres in structure_inputs[2::3]:
        for k in range(3, pres.n):
            assert not pres.commutator_tail(k, 1)[k] and pres.commutator_tail(k, 2)[k]


def _random_presentation(rng, p, n):
    """Tails whose coordinates allowed by the support rules are nonzero with
    probability 1/10, except that [a_k, a_1] has a nonzero a_{k+1}
    coordinate with probability 9/10, so that all layers are reached."""
    def tail(start, chain=False):
        t = [rng.randrange(1, p) if k >= start and rng.random() < 0.1 else 0
             for k in range(n)]
        if chain and start < n and rng.random() < 0.9:
            t[start] = rng.randrange(1, p)
        return t

    return PcPresentation(p, n, [tail(i + 1) for i in range(n)],
                          {(j, i): tail(j, i == 1) for j in range(2, n + 1) for i in range(1, j)})


def test_chain_certificate_decides_maximal_class_on_random_presentations():
    rng = random.Random(SEED)
    classes = {n: Counter() for n in range(2, 7)}
    for n in classes:
        while sum(classes[n].values()) < 200:
            pres = _random_presentation(rng, rng.choice((3, 5)), n)
            if not pres.consistency_check().ok:
                continue
            series = pres.lower_central_series()
            suffix_chain = [pres.suffix_subgroup(k) for k in (1, *range(3, n + 2))]
            certified = chain_series(pres) is not None
            assert certified == (list(series.terms) == suffix_chain), pres.canonical_text()
            # maximal class by the layer orders of the computed series
            assert certified == (series.order_exponents() == (n, *range(n - 2, -1, -1)))
            assert certified == validate_maximal_class(pres).ok
            classes[n][series.nilpotency_class()] += 1
    # both verdicts at every n >= 3, and failures at every depth at n = 6
    for n in range(3, 7):
        assert classes[n][n - 1] >= 50 and classes[n].total() - classes[n][n - 1] >= 20
    assert set(classes[6]) == {2, 3, 4, 5}


@pytest.mark.parametrize("p,n", GRID)
def test_compute_G1_matches_centralizer_mod_on_grid(p, n):
    _G1_against_oracle(build_blackburn_pc(p, n))


def test_compute_G1_matches_centralizer_mod_on_fixtures(nonmetabelian57, nonmetabelian58):
    for result in (nonmetabelian57, nonmetabelian58):
        _G1_against_oracle(result.pres)


def test_compute_G1_matches_centralizer_mod_off_the_suffix(g57, nonmetabelian58):
    # on the sequence s s_1, s, s_2, ... neither generator lies in G_1, so
    # both coordinates of the functional are nonzero
    for pres in (g57, nonmetabelian58.pres):
        s, s1 = pres.generators[:2]
        twisted = _rebased(pres, pres.multiply(s, s1), s)
        assert twisted.consistency_check().ok
        G1 = _G1_against_oracle(twisted)
        assert all(G1 != twisted.suffix_subgroup(k) for k in range(1, twisted.n + 2))
        assert not any(G1.contains(g) for g in twisted.generators[:2])


@pytest.mark.parametrize("pres", [
    PcPresentation(5, 4, [(0,) * 4] * 4, {}),                      # abelian
    PcPresentation(5, 4, [(0,) * 4] * 4, {(2, 1): (0, 0, 1, 0)}),  # |G:G_2| = p^3
    # free class-3 exponent-5 group on two generators: |G_3 : G_4| = p^2
    PcPresentation(5, 5, [(0,) * 5] * 5, {(2, 1): (0, 0, 1, 0, 0),
                                          (3, 1): (0, 0, 0, 1, 0),
                                          (3, 2): (0, 0, 0, 0, 1)}),
], ids=["abelian", "wide-top", "wide-third-layer"])
def test_compute_G1_rejects_other_top_layers(pres):
    assert pres.consistency_check().ok
    assert chain_series(pres) is None and not validate_maximal_class(pres).ok
    with pytest.raises(PresentationError, match="top layers"):
        compute_G1(pres)


def test_profile_rejects_non_maximal_class():
    pres = PcPresentation(3, 3, [(0, 0, 0)] * 3, {})
    with pytest.raises(PresentationError):
        build_profile(validate_maximal_class(pres))


def test_standard_generators_ignore_labels(g57):
    relabeled = PcPresentation(
        g57.p, g57.n, g57.power_tails, g57.commutator_tails,
        labels=[f"x{i}" for i in range(7)])
    s, s1, chain = standard_generators(relabeled, compute_G1(relabeled))
    assert s == relabeled.generator(1)
    assert s1 == relabeled.generator(2)
    assert chain == relabeled.generators[1:]


def test_degree_of_commutativity_metabelian(g57, g35):
    for pres, expect in [(g57, 4), (g35, 2)]:
        series = pres.lower_central_series()
        G1 = compute_G1(pres)
        assert degree_of_commutativity(pres, series, G1) == expect


def test_degree_of_commutativity_matches_brute_force(structure_inputs):
    # l from the n - 2 commutators [x_1, x_b] and "metabelian" read off the
    # tails must match the brute-force l over all pairs and a pairwise
    # commuting basis of G_2,
    # over the series computed by normal closures.  Seeded random groups of maximal class add inputs on which
    # only the commutators [x_1, x_b] with G_1 pin l; the pinned search hits
    # and more reference groups add deeper inputs of both verdicts.
    from pcmax.search import search_nonmetabelian

    from .test_search import PINNED_HITS

    rng = random.Random(SEED)
    random_groups = []
    while len(random_groups) < 100:
        n = rng.randint(4, 6)
        pres = _random_presentation(rng, rng.choice((3, 5, 7)), n)
        if (pres.consistency_check().ok
                and pres.lower_central_series().nilpotency_class() == n - 1):
            random_groups.append(pres)
    hits = [search_nonmetabelian(p, n, seed=seed, budget=5000, l_target=l).pres
            for seed, p, n, l in PINNED_HITS]
    references = [build_blackburn_pc(p, n)
                  for p, n in ((3, 4), (5, 12), (7, 8), (7, 10), (11, 13))]
    verdicts = set()
    for pres in [*structure_inputs, *random_groups, *hits, *references]:
        series = pres.lower_central_series()
        G1 = compute_G1(pres)
        fast = degree_of_commutativity(pres, series, G1)
        assert fast == brute_degree_of_commutativity(pres, series, G1), pres
        profile = build_profile(validate_maximal_class(pres))
        assert profile.l == fast, pres
        assert profile.metabelian == commutes_pairwise(series.term(2)), pres
        verdicts.add(profile.metabelian)
    assert verdicts == {True, False}


def test_structure_reads_tails_and_few_commutators(nonmetabelian58, monkeypatch):
    pres = nonmetabelian58.pres
    n = pres.n
    calls = Counter()
    for name in ("_collect", "commutator"):
        original = getattr(PcPresentation, name)

        def counting(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(PcPresentation, name, counting)
    G1 = compute_G1(pres)
    assert calls == {}
    assert degree_of_commutativity(pres, chain_series(pres), G1) == 2
    # only the commutators [x_1, x_b]; no other pair can lower l
    assert calls["commutator"] <= n - 2
    # "metabelian" is read off the tails too, and the chain is the generator
    # sequence: build_profile adds no commutator to those of l
    calls.clear()
    assert not build_profile(validate_maximal_class(pres)).metabelian
    assert calls["commutator"] <= n - 2


def test_nonmetabelian_fixture_dc(nm_profile58):
    assert nm_profile58.l == 2
    assert not nm_profile58.metabelian
    assert nm_profile58.r == 5


def test_standard_generators_blackburn(g57):
    s, s1, chain = standard_generators(g57, compute_G1(g57))
    assert s == g57.generator(1)
    assert s1 == g57.generator(2)
    assert chain == g57.generators[1:]


def test_standard_generators_reject_abelian():
    pres = PcPresentation(5, 4, [(0,) * 4] * 4, {})
    with pytest.raises(PresentationError, match="standard chain convention"):
        standard_generators(pres, pres.suffix_subgroup(2))


def test_profile_named_subgroups(profile57):
    p = profile57
    assert p.A == p.G(p.r)
    assert p.N == p.G(p.l + 2)
    assert p.t == max(p.r, (p.pres.n + 2) // 2) == 4
    assert p.A.is_abelian()
    assert 0 <= p.l <= p.pres.n - 3


def test_profile_l_positive_when_n_large(profile57, nm_profile58):
    # n > p + 1 forces a positive degree of commutativity
    assert profile57.l >= 1
    assert nm_profile58.l >= 1


def test_G1_centralizes_every_two_step_layer(profile57, nm_profile58):
    # G_1 = C_G(G_i / G_{i+2}) for i = 2..n-2: containment on basis
    # commutators plus maximality (s moves some layer element out).
    for prof in (profile57, nm_profile58):
        pres = prof.pres
        for i in range(2, pres.n - 1):
            Gi, target = prof.G(i), prof.G(i + 2)
            for h in Gi.basis:
                for b in prof.G1.basis:
                    assert target.contains(pres.commutator(h, b))
            assert any(
                not target.contains(pres.commutator(h, pres.generators[0]))
                for h in Gi.basis
            )


def test_chain_spans_and_membership(profile57):
    prof = profile57
    pres = prof.pres
    _, _, chain = standard_generators(pres, prof.G1)
    assert len(chain) == pres.n - 1
    for i, el in enumerate(chain, start=1):
        assert prof.G(i).contains(el)
        assert not prof.G(i + 1).contains(el)


def test_metabelian_flag_equivalences(profile35, profile55, profile57, nm_profile58):
    for prof in (profile35, profile55, profile57):
        assert prof.metabelian
        assert prof.G1.is_abelian()
        assert prof.l == prof.pres.n - 3
    assert not nm_profile58.metabelian
    assert not nm_profile58.G1.is_abelian()
    assert nm_profile58.l < nm_profile58.pres.n - 3


def test_commutator_containment_at_computed_l(nm_profile58):
    prof = nm_profile58
    pres = prof.pres
    for i in range(1, pres.n):
        for j in range(i, pres.n):
            target = prof.G(min(i + j + prof.l, pres.n))
            for x in prof.G(i).basis:
                for y in prof.G(j).basis:
                    assert target.contains(pres.commutator(x, y))


def test_binomials_for_p5():
    assert [comb(5, k) for k in range(2, 6)] == [10, 10, 5, 1]


def test_exponent_relations_blackburn(g57, profile57):
    rep = verify_exponent_relations(g57, profile57)
    assert rep.ok
    assert rep.exact_from == 1  # exact for every i by construction
    assert rep.congruence_all and rep.head_congruences


def test_exponent_relations_nonmetabelian(nonmetabelian58, nm_profile58):
    rep = verify_exponent_relations(nonmetabelian58.pres, nm_profile58)
    assert rep.ok
    assert rep.exact_from <= nm_profile58.r


def test_conjugacy_facts_s(g57, profile57):
    rep = conjugacy_facts(g57, profile57, g57.generators[0])
    assert rep.ok
    assert rep.orbit_size == 5 ** 5
    assert rep.power_in_last_term  # s^5 = 1 is central


def test_conjugacy_facts_random_outside_G1(g57, profile57):
    rng = random.Random(SEED)
    seen_cosets = {}
    checked = 0
    while checked < 100:
        g = g57.random_element(rng)
        if profile57.G1.contains(g):
            continue
        checked += 1
        key = (g[0], g[1])  # coset of G_2 determines the orbit
        if key in seen_cosets:
            continue
        rep = conjugacy_facts(g57, profile57, g)
        seen_cosets[key] = rep
        assert rep.ok, (g, rep)


def test_conjugacy_facts_rejects_G1_member(g57, profile57):
    with pytest.raises(PresentationError):
        conjugacy_facts(g57, profile57, g57.generators[1])


def _group(request, name):
    value = request.getfixturevalue(name)
    return value if isinstance(value, PcPresentation) else value.pres


@pytest.mark.parametrize("name", ["g57", "g36", "nonmetabelian57", "nonmetabelian58"])
def test_conjugacy_certificate_matches_orbit_walk(request, name):
    pres = _group(request, name)
    profile = build_profile(validate_maximal_class(pres))
    p = pres.p
    rng = random.Random(SEED)
    reps = {}  # one seeded g per G_2 coset outside G_1
    while len(reps) < p * p - p:
        g = pres.random_element(rng)
        if not profile.G1.contains(g):
            reps.setdefault(g[:2], g)
    for g in reps.values():
        rep = conjugacy_facts(pres, profile, g)
        assert rep.orbit_is_coset is class_is_coset(pres, profile.G(2), g) is True
        assert rep.ok and rep.orbit_size == p ** (pres.n - 2)


@pytest.mark.parametrize("name", ["g57", "nonmetabelian58", "g54"])
def test_conjugacy_negative_control_other_maximal_subgroup(request, name):
    # with G_1 replaced by <s, G_2>, s_1 lies outside it but its class is
    # not s_1 G_2; on the order p^4 group only the last layer sees that
    pres = build_blackburn_pc(5, 4) if name == "g54" else _group(request, name)
    profile = build_profile(validate_maximal_class(pres))
    G2 = profile.G(2)
    s, s1, _ = standard_generators(pres, profile.G1)
    fake = profile._replace(G1=pres.subgroup_from_generators([s, *G2.basis]))
    rep = conjugacy_facts(pres, fake, s1)
    assert not rep.ok and not rep.orbit_is_coset and rep.orbit_size is None
    assert not class_is_coset(pres, G2, s1)


def test_conjugacy_facts_commutators_are_linear_in_n(nonmetabelian58, nm_profile58,
                                                     monkeypatch):
    # walking the class of s would take 2 p^{n-2} = 31 250 conjugations here
    calls = Counter()
    for name in ("commutator", "conjugate"):
        original = getattr(PcPresentation, name)

        def counting(self, a, b, name=name, original=original):
            calls[name] += 1
            return original(self, a, b)

        monkeypatch.setattr(PcPresentation, name, counting)
    assert conjugacy_facts(nonmetabelian58.pres, nm_profile58,
                           nonmetabelian58.pres.generators[0]).ok
    # one commutator per layer 1..n-2, then [g, z] for z spanning G_{n-1};
    # no conjugations
    assert calls == {"commutator": 7}
