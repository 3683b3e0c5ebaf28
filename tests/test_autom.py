"""Generator-image maps, the phi family, the s-fixing subgroup, intersection
with inner automorphisms, and the three verification drivers."""

import copy
import itertools
import random
from collections import Counter
from math import comb

import pytest

from pcmax.autom import (CheckResult, _quotient_isomorphic_to_reference,
                         build_H, certify_family, h_cap_inn_check,
                         invert_automorphism, phi, verify_thm_main1,
                         verify_thm_main2, verify_thm_metabelian)
from pcmax.blackburn import build_blackburn_pc
from pcmax.derivations import kernel_contains, make_derivation, negate, one_plus
from pcmax.errors import HomCheckFailed, PreconditionRefused, PresentationError
from pcmax.homs import (GroupMap, certify_automorphism, check_homomorphism,
                        inner_automorphism, row_reduce)
from pcmax.maxclass import build_profile, standard_generators, validate_maximal_class
from pcmax.pcgroup import PcPresentation
from pcmax.search import search_nonmetabelian

from .conftest import GRID, SEED
from .oracles import (basis_pairs_extend, enumerate_pair_family, fold_evaluate,
                      h_cap_inn_scan, image_generates_group, leibniz_det,
                      row_span_size, spanning_chain, subgroup_elements)
from .test_maxclass import _random_presentation


# -- homomorphism checking -------------------------------------------------------


def test_identity_images_validate(g57):
    gmap = check_homomorphism(g57, g57.generators)
    assert gmap.kind == "endomorphism"
    assert certify_automorphism(gmap, range(3, 8)).kind == "automorphism"


def test_sigma_extension_validates(g57):
    # s fixed, s_i -> s_i s_{i+1}: the conjugation-compatible extension
    images = [g57.generator(1)]
    for i in range(2, 8):
        im = g57.generator(i)
        if i + 1 <= 7:
            im = g57.multiply(im, g57.generator(i + 1))
        images.append(im)
    gmap = check_homomorphism(g57, images)
    assert certify_automorphism(gmap, range(3, 8)).kind == "automorphism"
    # and it agrees with conjugation by s
    inner = inner_automorphism(g57, g57.generator(1))
    assert gmap.images == inner.images


def test_certify_automorphism_leaves_its_argument_unchanged(g57, profile57, rng):
    gmap = check_homomorphism(g57, g57.generators)
    auto = certify_automorphism(gmap, range(3, 8))
    assert auto is not gmap and auto.kind == "automorphism"
    assert gmap.kind == "endomorphism"
    # the same through the Frattini route that one_plus takes, and phi
    # is one_plus of the derivation with the same (u, v)
    d = make_derivation(g57, profile57.A, profile57.A.random_element(rng), g57.identity)
    assert one_plus(d).kind == "automorphism"
    assert d.alpha.kind == "endomorphism"
    assert phi(g57, profile57, d.u, d.v).images == one_plus(d).images


def test_generator_swap_fails_hom_check(g57):
    images = list(g57.generators)
    images[0], images[1] = images[1], images[0]
    with pytest.raises(HomCheckFailed):
        check_homomorphism(g57, images)


def test_hom_check_is_idempotent(g57):
    gmap = check_homomorphism(g57, g57.generators)
    again = check_homomorphism(g57, gmap.images)
    assert again.kind == "endomorphism"


def test_composition_of_endomorphisms_validates(g57, profile57, rng):
    A = profile57.A
    f = phi(g57, profile57, A.random_element(rng), A.random_element(rng))
    g = phi(g57, profile57, A.random_element(rng), A.random_element(rng))
    comp = f.then(g)
    assert comp.kind == "automorphism"
    # a composite is validated only as far as its weaker factor
    raw, endo = GroupMap(g57, g.images), check_homomorphism(g57, g.images)
    assert f.then(raw).kind == raw.then(f).kind == "unvalidated"
    assert f.then(endo).kind == endo.then(f).kind == "endomorphism"
    recheck = check_homomorphism(g57, comp.images)
    assert recheck.kind == "endomorphism"


# -- inner automorphisms ------------------------------------------------------------


def test_inner_identity(g57):
    assert inner_automorphism(g57, g57.identity).is_identity()


def test_inner_central_is_identity(g57, profile57):
    for z in subgroup_elements(profile57.G(6)):
        assert inner_automorphism(g57, z).is_identity()


def test_inner_by_s_moves_s1(g57):
    inner = inner_automorphism(g57, g57.generator(1))
    expected = g57.multiply(g57.generator(2), g57.generator(3))
    assert inner.evaluate(g57.generator(2)) == expected


def test_inner_composition_law(g57, rng):
    for _ in range(20):
        g = g57.full_subgroup().random_element(rng)
        h = g57.full_subgroup().random_element(rng)
        comp = inner_automorphism(g57, g).then(inner_automorphism(g57, h))
        assert comp.images == inner_automorphism(g57, g57.multiply(g, h)).images


def test_invert_inner(g35, g57, nonmetabelian57, nonmetabelian58, rng):
    # conjugations are unitriangular on the central suffix series, so
    # preimage iteration gives the symbolic inverse x -> x^(g^-1)
    groups = [g35, g57, build_blackburn_pc(7, 8), build_blackburn_pc(5, 12),
              nonmetabelian57.pres, nonmetabelian58.pres]
    for pres in groups:
        for _ in range(60):
            g = pres.full_subgroup().random_element(rng)
            m = inner_automorphism(pres, g)
            inv = invert_automorphism(pres, m)
            assert m.then(inv).is_identity()
            assert inv.images == inner_automorphism(pres, pres.invert(g)).images


# -- automorphism certification ------------------------------------------------------


def test_automorphism_by_orbit_inverse_small(g35, profile35, rng):
    # on the order 3^5 fixture: enumerate the whole group, check the map is
    # a bijection, and compare the brute-force inverse with the computed one
    A = profile35.A
    m = phi(g35, profile35, A.random_element(rng), A.random_element(rng))
    table = {}
    for vec in itertools.product(range(3), repeat=5):
        el = g35.element(vec)
        table[m.evaluate(el)] = el
    assert len(table) == 3 ** 5  # bijective
    inv = invert_automorphism(g35, m)
    for vec in itertools.product(range(3), repeat=5):
        el = g35.element(vec)
        assert inv.evaluate(el) == table[el]


def test_one_minus_inverts_nilpotent(g57, profile57, rng):
    Gt = profile57.G(profile57.t)
    d = make_derivation(g57, Gt, Gt.random_element(rng), Gt.random_element(rng))
    alpha = one_plus(d)
    beta = one_plus(negate(d))
    assert alpha.then(beta).is_identity()
    inv = invert_automorphism(g57, alpha)
    assert inv.images == beta.images


def test_certify_rejects_noninjective():
    pres = PcPresentation(5, 2, [(0, 0), (0, 0)], {})  # elementary abelian p^2
    images = (pres.identity, pres.generator(2))
    gmap = check_homomorphism(pres, images)
    with pytest.raises(HomCheckFailed):
        certify_automorphism(gmap, ())


def test_frattini_certificate_matches_the_image_subgroup_oracle(
        g57, profile57, nonmetabelian58, nm_profile58, rng):
    # one_plus reads invertibility off G/Gamma_3; the oracle closes the
    # images to a subgroup.  Over the abelian G_1 of the reference group,
    # values with a_2-coordinate p - 1 send a_2 into Gamma_3: those
    # endomorphisms are not automorphisms.
    derivations = []
    for pres, target in [(g57, profile57.G(1)), (g57, profile57.A),
                         (nonmetabelian58.pres, nm_profile58.A)]:
        for _ in range(6):
            u, v = target.random_element(rng), target.random_element(rng)
            try:
                derivations.append(make_derivation(pres, target, u, v))
            except HomCheckFailed:
                pass
    s1_inverse = g57.invert(g57.generator(2))
    derivations.append(make_derivation(g57, profile57.G(1), g57.identity, s1_inverse))
    outcomes = Counter()
    for d in derivations:
        try:
            certified = one_plus(d).kind == "automorphism"
        except HomCheckFailed:
            certified = False
        assert certified is image_generates_group(d.alpha)
        outcomes[certified] += 1
    assert outcomes[True] >= 8 and outcomes[False] >= 1, outcomes


def test_row_reduce_rank_matches_the_enumerated_span(rng):
    for _ in range(60):
        p = rng.choice((3, 5, 7))
        rows = [[rng.randrange(p) for _ in range(rng.randint(1, 6))]]
        rows += [[rng.randrange(p) for _ in rows[0]] for _ in range(rng.randint(0, 4))]
        if len(rows) > 1 and rng.random() < 0.5:  # force a dependent row
            c = rng.randrange(p)
            rows[-1] = [(c * x + y) % p for x, y in zip(rows[0], rows[1])]
        rref, pivots = row_reduce(rows, p)
        assert p ** len(pivots) == row_span_size(rows, p) == row_span_size(rref, p)
        assert pivots == sorted(pivots) and len(rref) == len(pivots)
        for k, col in enumerate(pivots):
            assert [row[col] for row in rref] == [int(r == k) for r in range(len(rref))]


def test_row_reduce_full_rank_exactly_when_the_determinant_is_nonzero(rng):
    outcomes = Counter()
    for _ in range(60):
        p = rng.choice((3, 5, 7))
        size = rng.randint(1, 5)
        mat = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if size > 1 and rng.random() < 0.5:  # force a singular matrix
            c = rng.randrange(p)
            mat[-1] = [(c * x) % p for x in mat[0]]
        invertible = len(row_reduce(mat, p)[1]) == size
        assert invertible is (leibniz_det(mat, p) != 0)
        outcomes[invertible] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_evaluate_collects_the_word_the_fold_multiplies(
        nonmetabelian57, nonmetabelian58, rng):
    # endomorphisms of the reference 5^20, and the cross-codomain maps of
    # main1's reference-quotient check
    g = build_blackburn_pc(5, 20)
    profile = build_profile(validate_maximal_class(g))
    maps = [make_derivation(g, target, target.random_element(rng),
                            target.random_element(rng)).alpha
            for target in (profile.A, profile.G(1)) for _ in range(3)]
    maps.append(inner_automorphism(g, g.full_subgroup().random_element(rng)))
    # maps made by composition, and validated maps, which keep the letters
    # of the map they were checked from
    maps += [maps[0].then(maps[3]), maps[6].then(maps[1]),
             check_homomorphism(g, maps[2].images), check_homomorphism(g, maps[6].images)]
    for result in (nonmetabelian57, nonmetabelian58):
        k = result.l + 2
        quo = result.pres.quotient_by_term(k)
        ref = build_blackburn_pc(5, result.pres.n).quotient_by_term(k)
        maps.append(check_homomorphism(quo, ref.generators, codomain=ref))
    for gmap in maps:
        words = [gmap.domain.full_subgroup().random_element(rng) for _ in range(15)]
        for x in [*words, gmap.domain.identity, *gmap.domain.generators]:
            assert gmap.evaluate(x) == fold_evaluate(gmap, x)


def test_evaluate_leaves_the_map_unchanged(g57, rng):
    images = inner_automorphism(g57, g57.generator(2)).images
    for gmap in (GroupMap(g57, images), check_homomorphism(g57, images)):
        before = [getattr(gmap, slot) for slot in GroupMap.__slots__]
        for _ in range(5):
            gmap.evaluate(g57.full_subgroup().random_element(rng))
        after = [getattr(gmap, slot) for slot in GroupMap.__slots__]
        assert all(a is b for a, b in zip(before, after)), GroupMap.__slots__
        assert not any(isinstance(v, (list, dict)) for v in after)


# -- the phi family ---------------------------------------------------------------------


def test_phi_identity_member(g57, profile57):
    m = phi(g57, profile57, g57.identity, g57.identity)
    assert m.is_identity()


def test_phi_distinctness(g57, profile57, rng):
    A = profile57.A
    seen = set()
    params = set()
    for _ in range(40):
        u, v = A.random_element(rng), A.random_element(rng)
        m = phi(g57, profile57, u, v)
        seen.add(m.images)
        params.add((u, v))
    assert len(seen) == len(params)


def certificate_matches_oracle(pres, profile, k):
    """The module certificate over G_k and the exhaustive enumeration agree:
    every pair extends and the images are pairwise distinct.  Returns the
    enumerated derivations by pair."""
    fam = certify_family(pres, profile, k)
    family = dict(enumerate_pair_family(pres, profile.G(k)))
    assert None not in family.values()
    assert len({d.alpha.images for d in family.values()}) == len(family)
    assert len(family) == pres.p ** fam.claimed_order_exponent
    assert f"all {len(family)} pairs" in fam.detail
    return family


def test_phi_whole_family_small(g55, profile55):
    # the derived subgroup family on the order 5^5 group: all 5^6 pairs
    family = certificate_matches_oracle(g55, profile55, 2)
    assert len(family) == 5 ** 6


@pytest.mark.parametrize("group, profile, term", [
    ("g35", "profile35", lambda prof: 2),
    ("g57", "profile57", lambda prof: prof.t),
    ("nonmetabelian58", "nm_profile58", lambda prof: prof.r),
    ("nonmetabelian57", "nm_profile57", lambda prof: prof.r),
    ("nonmetabelian57", "nm_profile57", lambda prof: prof.t),
], ids=["g35-G2", "g57-Gt", "nonmetabelian58-A", "nonmetabelian57-A",
        "nonmetabelian57-Gt"])
def test_certificate_matches_enumeration(request, group, profile, term):
    pres = request.getfixturevalue(group)
    pres = getattr(pres, "pres", pres)
    prof = request.getfixturevalue(profile)
    certificate_matches_oracle(pres, prof, term(prof))


def test_gt_family_is_abelian_and_normal_by_enumeration(g35, profile35):
    # every composition is the parameter product, and conjugation by the
    # inner automorphisms of s and s_1 keeps the family
    Gt = profile35.G(profile35.t)
    fam = certify_family(g35, profile35, profile35.t)
    assert all(kernel_contains(d, Gt) for d in fam.derivations)
    family = certificate_matches_oracle(g35, profile35, profile35.t)
    assert len(family) == 81
    mul = g35.multiply
    for (u1, v1), d1 in family.items():
        for (u2, v2), d2 in family.items():
            product = family[(mul(u1, u2), mul(v1, v2))]
            assert d1.alpha.then(d2.alpha).images == product.alpha.images
    images = {d.alpha.images for d in family.values()}
    for g in g35.generators[:2]:
        inner = inner_automorphism(g35, g)
        inner_inv = inner_automorphism(g35, g35.invert(g))
        for d in family.values():
            assert inner_inv.then(d.alpha).then(inner).images in images


def test_certificate_rejects_a_non_extending_basis_pair(nonmetabelian57, nm_profile57):
    # G_3 of the searched 5^7 fixture is abelian and normal, but not every
    # pair of its values extends.  The group is not metabelian and
    # 3 + l + 2 = 6 < 7, so [G_2, G_3] = 1 is not certified and the module
    # argument refuses; the generating member (1, s_3) indeed fails
    pres, profile = nonmetabelian57.pres, nm_profile57
    G3 = profile.G(3)
    assert G3.is_abelian()
    assert not profile.metabelian and 3 + profile.l + 2 < pres.n
    with pytest.raises(PreconditionRefused, match=r"\[G_2, G_3\] = 1 is not certified"):
        certify_family(pres, profile, 3)
    with pytest.raises(HomCheckFailed):
        phi(pres, profile, pres.identity, pres.generators[3], target=G3)
    assert not basis_pairs_extend(pres, G3)
    assert any(d is None for _, d in enumerate_pair_family(pres, G3))


@pytest.mark.parametrize("p, n", [(5, 7), (5, 12)])
@pytest.mark.parametrize("fixes_s", [False, True])
def test_certificate_validates_the_two_module_generators(p, n, fixes_s, monkeypatch):
    # whatever rank(G_2) is (5 and 10 here), the certificate hom-checks the
    # derivations on (s_2, 1) and (1, s_2) only, or on (1, s_2) alone.  Past
    # desk-scale enumeration (g57 G_2 has 5^10 pairs) its claim is checked
    # against the 2 rank(G_2) basis pairs, which need no [G_2, T] = 1
    from pcmax import derivations

    pres = build_blackburn_pc(p, n)
    profile = build_profile(validate_maximal_class(pres))
    calls = Counter()
    _count_calls(monkeypatch, calls, derivations, "check_homomorphism")
    fam = (build_H(pres, profile) if fixes_s else certify_family(pres, profile, 2))
    assert profile.r == 2 and profile.G(2).order_exponent == n - 2
    one, s_2 = pres.identity, pres.generators[2]
    pairs = ((one, s_2),) if fixes_s else ((s_2, one), (one, s_2))
    assert fam.passed and tuple((d.u, d.v) for d in fam.derivations) == pairs
    assert calls == {"check_homomorphism": len(pairs)}
    assert fam.claimed_order_exponent == len(pairs) * (n - 2)
    assert basis_pairs_extend(pres, profile.G(2))


def test_build_H_order_and_closure(g57, profile57, g35, profile35):
    fam = build_H(g57, profile57)
    assert fam.claimed_order_exponent == 7 - profile57.r  # p^{n-r}
    (d,) = fam.derivations
    assert fam.passed and d.u.is_identity()
    assert f"all {5 ** (7 - profile57.r)} pairs" in fam.detail
    # closure under composition, by enumeration on the order 3^5 group
    A = profile35.A
    assert build_H(g35, profile35).claimed_order_exponent == A.order_exponent
    maps = [d.alpha for (u, _), d in enumerate_pair_family(g35, A) if u.is_identity()]
    fixing = {m.images for m in maps}
    assert len(fixing) == 3 ** A.order_exponent
    for a in maps:
        for b in maps:
            assert a.then(b).images in fixing


def test_h_cap_inn_refuses_metabelian(g57, profile57):
    with pytest.raises(PreconditionRefused):
        h_cap_inn_check(g57, profile57, True)


def test_h_cap_inn_nonmetabelian(nonmetabelian58, nm_profile58):
    res = h_cap_inn_check(nonmetabelian58.pres, nm_profile58, True)
    assert res.passed, res.detail
    assert res.detail.startswith("chain argument: C_G(s) <= <s>G_7")
    assert "in the central G_7" in res.detail
    assert "= s_2^a mod G_3, outside G_3 >= A = G_5" in res.detail
    assert "candidates scanned" not in res.detail
    # the line is about the family over A, so it fails when that family does
    assert h_cap_inn_check(nonmetabelian58.pres, nm_profile58, False) == CheckResult(
        "H-meets-Inn", False, "not checked: the family is not certified")


@pytest.mark.parametrize("name", ["g57", "nonmetabelian57"])
def test_drivers_store_nothing_on_the_presentation_or_its_subgroups(request, name):
    # a presentation and its subgroups hold only what they were built with;
    # a fresh copy, so that no earlier test has run anything on it
    value = request.getfixturevalue(name)
    src = value if isinstance(value, PcPresentation) else value.pres
    pres = PcPresentation(src.p, src.n, src.power_tails, src.commutator_tails, src.labels)
    profile = build_profile(validate_maximal_class(pres))
    subgroups = [profile.G1, profile.A, profile.N]

    def state():
        return copy.deepcopy((vars(pres), [
            {key: v for key, v in vars(S).items() if key != "pres"} for S in subgroups]))

    before = state()
    verify_thm_main1(pres)
    verify_thm_main2(pres)
    certify_family(pres, profile, profile.t)
    assert state() == before


def _count_calls(monkeypatch, calls, owner, *names):
    """Count into `calls` every call of the named attributes of `owner`."""
    for name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


def test_h_cap_inn_makes_no_group_operation(nonmetabelian58, nm_profile58, monkeypatch):
    # the intersection is read off the profile: no group operation; and
    # main1 checks consistency once, for the input: the reference group is
    # certified from its ring model, and truncations are not re-checked
    from pcmax.pcgroup import PcPresentation

    pres = nonmetabelian58.pres
    calls = Counter()
    _count_calls(monkeypatch, calls, PcPresentation, "multiply", "conjugate",
                 "commutator", "solve", "consistency_check")
    assert h_cap_inn_check(pres, nm_profile58, True).passed
    assert calls.total() == 0
    assert verify_thm_main1(pres).ok
    assert calls["consistency_check"] == 1


@pytest.fixture(scope="module")
def main1_oracle_inputs(nonmetabelian57, nonmetabelian58):
    """The pinned fixtures, three searched ones each at (5,7) with l = 1,
    (5,8), (5,9) and (7,10), the reference grid, and 1 000 seeded random
    maximal-class groups with p in {3, 5, 7}: 300 of order p^4, 500 of
    order p^5 and 200 of order p^6 (consistent random presentations grow
    rare with n)."""
    inputs = [nonmetabelian57.pres, nonmetabelian58.pres]
    for p, n, l_target in [(5, 7, 1), (5, 8, None), (5, 9, None), (7, 10, None)]:
        for seed in range(1, 4):
            found = search_nonmetabelian(p, n, seed=seed, budget=5000, l_target=l_target)
            assert found is not None
            inputs.append(found.pres)
    inputs += [build_blackburn_pc(p, n) for p, n in GRID]
    rng = random.Random(SEED)
    quota = {4: 300, 5: 500, 6: 200}
    while any(quota.values()):
        n = rng.choice([n for n, left in quota.items() if left])
        pres = _random_presentation(rng, rng.choice((3, 5, 7)), n)
        if pres.consistency_check().ok and validate_maximal_class(pres).ok:
            inputs.append(pres)
            quota[n] -= 1
    return inputs


def test_main1_certificates_match_the_dropped_checks(main1_oracle_inputs):
    # A-abelian, module-similarity, H-meets-Inn and the consistency of
    # truncations are certified from the profile in src/; here each is
    # recomputed the way the drivers used to
    spanning = scanned = 0
    for pres in main1_oracle_inputs:
        for k in range(1, pres.n + 1):
            assert pres.quotient_by_term(k).consistency_check().ok, (k, pres.canonical_text())
        profile = build_profile(validate_maximal_class(pres))
        try:
            s, s1, chain = spanning_chain(pres, profile)
        except PresentationError:
            continue
        spanning += 1
        n = pres.n
        chain += (pres.identity,)  # s_n = 1
        assert profile.A.is_abelian()
        for i in range(profile.r, n):
            si = chain[i - 1]
            assert pres.commutator(si, s1).is_identity()
            assert pres.commutator(si, s) == chain[i]
        assert pres.commutator(chain[n - 2], s).is_identity()
        if profile.r > 2:
            scanned += 1
            assert h_cap_inn_scan(pres, profile) is None, pres.canonical_text()
    assert spanning >= 900 and scanned >= 80, (spanning, scanned)


def test_standard_generators_match_the_chain_search(main1_oracle_inputs, rescaled58,
                                                   a2_outside_G1_58):
    # on the standard chain the convention's s, s_1 and chain are what the
    # general search finds, and the two refuse together; without it the
    # convention refuses, whatever the search finds
    from pcmax.maxclass import exponent_relation_value

    inputs = [*main1_oracle_inputs, rescaled58, a2_outside_G1_58,
              *(build_blackburn_pc(p, n) for p, n in GRID)]
    outcomes = Counter()
    for pres in inputs:
        profile = build_profile(validate_maximal_class(pres))
        try:
            found = spanning_chain(pres, profile)
        except PresentationError:
            found = None
        if not pres.has_standard_chain():
            with pytest.raises(PresentationError, match="standard chain convention"):
                standard_generators(pres, profile.G1)
            outcomes["no standard chain", found is not None] += 1
            continue
        try:
            triple = standard_generators(pres, profile.G1)
        except PresentationError:
            assert found is None, pres.canonical_text()
            outcomes["both refuse"] += 1
            continue
        assert triple == found, pres.canonical_text()
        outcomes["agree"] += 1
        # exponent_relation_value reads s_j off the generators
        p, n = pres.p, pres.n
        chain = found[2] + (pres.identity,) * p
        for i in range(1, n):
            value = pres.identity
            for k in range(1, p + 1):
                value = pres.multiply(value, pres.power(chain[i + k - 2], comb(p, k)))
            assert exponent_relation_value(pres, i) == value
    assert outcomes["agree"] >= 60 and outcomes["both refuse"] >= 1, outcomes
    assert outcomes["no standard chain", True] >= 1, outcomes


def test_phi_group_iso_against_summed_derivations(g57, profile57, rng):
    # composition of members over G_t equals the member of the pointwise sum
    from pcmax.derivations import add as der_add

    Gt = profile57.G(profile57.t)
    for _ in range(10):
        u1, v1 = Gt.random_element(rng), Gt.random_element(rng)
        u2, v2 = Gt.random_element(rng), Gt.random_element(rng)
        d1 = make_derivation(g57, Gt, u1, v1)
        d2 = make_derivation(g57, Gt, u2, v2)
        m1 = phi(g57, profile57, u1, v1, target=Gt)
        m2 = phi(g57, profile57, u2, v2, target=Gt)
        assert (m1.images, m2.images) == (one_plus(d1).images, one_plus(d2).images)
        summed = der_add(d1, d2)
        assert m1.then(m2).images == one_plus(summed).images


# -- drivers ----------------------------------------------------------------------------


def test_metabelian_driver_35(g35):
    rep = verify_thm_metabelian(g35)
    assert rep.ok
    assert rep.achieved_exponent == 6  # 3^{2n-4} = 3^6 members
    assert "all 729 pairs" in rep.checks[0].detail


def test_metabelian_driver_refuses_nonmetabelian(nonmetabelian58):
    with pytest.raises(PreconditionRefused):
        verify_thm_metabelian(nonmetabelian58.pres)


def test_main1_metabelian_branch(g57):
    rep = verify_thm_main1(g57)
    assert rep.ok
    assert rep.required_exponent == 8
    assert rep.achieved_exponent == 10


def test_main1_builds_profile_and_checks_consistency_once(g57, monkeypatch):
    from pcmax import autom
    from pcmax.pcgroup import PcPresentation

    calls = Counter()
    _count_calls(monkeypatch, calls, autom, "build_profile")
    _count_calls(monkeypatch, calls, PcPresentation, "consistency_check")
    assert verify_thm_main1(g57).ok
    assert calls == {"build_profile": 1, "consistency_check": 1}


@pytest.mark.parametrize("driver, name", [
    (verify_thm_metabelian, "g57"), (verify_thm_main1, "g57"),
    (verify_thm_main1, "nonmetabelian58"), (verify_thm_main2, "nonmetabelian58")])
def test_each_driver_checks_the_generator_convention_once(request, monkeypatch, driver,
                                                          name):
    # the prologue runs standard_generators; h_cap_inn_check and
    # verify_exponent_relations rely on it and do not run it again
    from pcmax import autom, maxclass

    value = request.getfixturevalue(name)
    calls = Counter()
    for module in (autom, maxclass):
        _count_calls(monkeypatch, calls, module, "standard_generators")
    assert driver(getattr(value, "pres", value)).ok
    assert calls == {"standard_generators": 1}


def test_drivers_pass_on_equality_of_their_inequalities(nonmetabelian57):
    # the searched 5^7 meets both routes' inequalities with equality:
    # 2l = 2 = n - 2p + 5 and 2(n-t) = 4 = n - 2p + 7
    main1 = verify_thm_main1(nonmetabelian57.pres)
    main2 = verify_thm_main2(nonmetabelian57.pres)
    assert main1.ok and main2.ok
    assert 2 * main1.profile.l == 2 == 7 - 2 * 5 + 5
    assert main1.bound == CheckResult("bound", True,
                                      "(n-1) + (n-r) = 8 >= ceil((3n-2p+5)/2) = 8")
    assert (main1.achieved_exponent, main1.required_exponent) == (8, 8)
    assert main2.bound == CheckResult("bound", True, "2(n-t) = 4 >= n - 2p + 7 = 4")


def test_main1_refuses_small_n(g55):
    with pytest.raises(PreconditionRefused):
        verify_thm_main1(g55)


def test_main1_refuses_small_p(g36):
    with pytest.raises(PreconditionRefused):
        verify_thm_main1(g36)


def test_main1_nonmetabelian(nonmetabelian58):
    rep = verify_thm_main1(nonmetabelian58.pres)
    assert rep.ok, rep.render()
    assert rep.required_exponent == 10
    assert rep.achieved_exponent == 10  # n + l = 8 + 2
    assert [c.name for c in rep.checks] == [
        "exponent-relations", "quotient-matches-reference", "A-family-validated",
        "H-meets-Inn"]
    assert rep.bound == CheckResult("bound", True,
                                    "(n-1) + (n-r) = 10 >= ceil((3n-2p+5)/2) = 10")


@pytest.mark.parametrize("name", ["nonmetabelian57", "nonmetabelian58"])
def test_reference_quotient_dictionary_is_invertible(request, name):
    # the driver hom-checks the forward dictionary only; the backward one
    # and both round trips must hold as its bijectivity argument says
    pres = request.getfixturevalue(name).pres
    profile = build_profile(validate_maximal_class(pres))
    k = profile.l + 2
    quo = pres.quotient_by_term(k)
    ref = build_blackburn_pc(pres.p, pres.n).quotient_by_term(k)
    fwd = check_homomorphism(quo, ref.generators, codomain=ref)
    bwd = check_homomorphism(ref, quo.generators, codomain=quo)
    assert fwd.then(bwd).images == quo.generators
    assert bwd.then(fwd).images == ref.generators
    assert _quotient_isomorphic_to_reference(pres, profile) == (
        True, f"generator dictionary is an isomorphism on the order p^{k} quotients")


def test_reference_quotient_check_is_a_table_comparison(request):
    # with a_i -> a_i each relation's two sides are normal forms read off
    # one table each: a_i^p and [a_j, a_i] off the reference quotient's,
    # their tails off the input's.  So the check holds exactly when the
    # truncated power and commutator tables are equal
    outcomes = Counter()
    for name in ["g35", "g36", "g55", "g57", "g58", "rescaled58", "a2_outside_G1_58",
                 "l1_58", "nonmetabelian57", "nonmetabelian58"]:
        value = request.getfixturevalue(name)
        pres = getattr(value, "pres", value)
        reference = build_blackburn_pc(pres.p, pres.n)
        profile = build_profile(validate_maximal_class(pres))
        for k in range(3, pres.n + 1):
            quo, ref = pres.quotient_by_term(k), reference.quotient_by_term(k)
            same = (quo.power_tails, quo.commutator_tails) == (ref.power_tails,
                                                               ref.commutator_tails)
            try:
                check_homomorphism(quo, ref.generators, codomain=ref)
            except HomCheckFailed:
                assert not same, (name, k)
            else:
                assert same, (name, k)
            if k == profile.l + 2:
                assert _quotient_isomorphic_to_reference(pres, profile)[0] == same, name
                outcomes["driver's k"] += 1
            outcomes[same] += 1
    assert outcomes == {True: 29, False: 21, "driver's k": 10}, outcomes


def test_main2_metabelian(g57):
    rep = verify_thm_main2(g57)
    assert rep.ok, rep.render()
    assert rep.achieved_exponent == 6     # 2(n - t) with t = 4
    assert rep.required_exponent == 4     # n - 2p + 7


def test_main2_refuses_small(g55):
    with pytest.raises(PreconditionRefused):
        verify_thm_main2(g55)


def test_driver_reports_render_deterministically(g35):
    r1 = verify_thm_metabelian(g35, seed=123).render()
    r2 = verify_thm_metabelian(g35, seed=123).render()
    assert r1 == r2
    assert "seed: 123" in r1


def test_report_with_a_failing_check_is_a_violation(g57):
    # one failed check fails the report: it counts nothing, and its bound
    # line fails whatever the family claims
    rep = verify_thm_main2(g57)
    assert rep.ok and rep.render().endswith("result: pass\n")
    assert (rep.claimed_exponent, rep.achieved_exponent) == (6, 6)
    assert rep.bound == CheckResult("bound", True, "2(n-t) = 6 >= n - 2p + 7 = 4")
    first, *rest = rep.checks
    failing = rep._replace(checks=(first._replace(passed=False), *rest))
    assert not failing.ok
    assert (failing.claimed_exponent, failing.achieved_exponent) == (6, 0)
    lines, text = rep.render().splitlines(), failing.render().splitlines()
    assert [f for f, ok in zip(text, lines, strict=True) if f != ok] == [
        f"check Gt-family-validated: FAIL ({first.detail})",
        "check bound: FAIL (a check failed, so nothing counts toward n - 2p + 7 = 4)",
        "achieved-exponent: 0", "result: theorem-violation"]
    with pytest.raises(AttributeError):
        rep.checks = ()
    with pytest.raises(AttributeError):
        rep.profile.t = 0
