"""Generator-image maps, the phi family, the s-fixing subgroup, intersection
with inner automorphisms, and the three verification drivers."""

import dataclasses
import itertools
from collections import Counter

import pytest

from pcmax.autom import (_quotient_isomorphic_to_reference, build_H,
                         certify_family, h_cap_inn_check, invert_automorphism,
                         phi, verify_thm_main1, verify_thm_main2,
                         verify_thm_metabelian)
from pcmax.blackburn import build_blackburn_pc
from pcmax.derivations import kernel_contains, make_derivation, negate, one_plus
from pcmax.errors import (HomCheckFailed, PreconditionRefused,
                          TheoremViolation)
from pcmax.homs import (certify_automorphism, check_homomorphism,
                        inner_automorphism)
from pcmax.maxclass import build_profile

from .oracles import enumerate_pair_family


# -- homomorphism checking -------------------------------------------------------


def test_identity_images_validate(g57):
    gmap = check_homomorphism(g57, g57.generators)
    assert gmap.kind == "endomorphism"
    assert certify_automorphism(gmap).kind == "automorphism"


def test_sigma_extension_validates(g57):
    # s fixed, s_i -> s_i s_{i+1}: the conjugation-compatible extension
    images = [g57.generator(1)]
    for i in range(2, 8):
        im = g57.generator(i)
        if i + 1 <= 7:
            im = g57.multiply(im, g57.generator(i + 1))
        images.append(im)
    gmap = check_homomorphism(g57, images)
    assert certify_automorphism(gmap).kind == "automorphism"
    # and it agrees with conjugation by s
    inner = inner_automorphism(g57, g57.generator(1))
    assert gmap.images == inner.images


def test_certify_automorphism_leaves_its_argument_unchanged(g57, profile57, rng):
    gmap = check_homomorphism(g57, g57.generators)
    auto = certify_automorphism(gmap)
    assert auto is not gmap and auto.kind == "automorphism"
    assert gmap.kind == "endomorphism"
    # the same through the Frattini route that one_plus takes, and phi
    # carries its derivation from construction on
    d = make_derivation(g57, profile57.A, profile57.A.random_element(rng), g57.identity)
    assert one_plus(d).kind == "automorphism"
    assert d.alpha.kind == "endomorphism"
    assert phi(g57, profile57, d.u, d.v).derivation.u == d.u


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
    recheck = check_homomorphism(g57, comp.images)
    assert recheck.kind == "endomorphism"


# -- inner automorphisms ------------------------------------------------------------


def test_inner_identity(g57):
    assert inner_automorphism(g57, g57.identity).is_identity()


def test_inner_central_is_identity(g57, profile57):
    for z in profile57.G(6).elements():
        assert inner_automorphism(g57, z).is_identity()


def test_inner_by_s_moves_s1(g57):
    inner = inner_automorphism(g57, g57.generator(1))
    expected = g57.multiply(g57.generator(2), g57.generator(3))
    assert inner.evaluate(g57.generator(2)) == expected


def test_inner_composition_law(g57, rng):
    for _ in range(20):
        g = g57.random_element(rng)
        h = g57.random_element(rng)
        comp = inner_automorphism(g57, g).then(inner_automorphism(g57, h))
        assert comp.kind == "inner"
        assert comp.images == inner_automorphism(g57, g57.multiply(g, h)).images


def test_invert_inner(g57, rng):
    g = g57.random_element(rng)
    m = inner_automorphism(g57, g)
    inv = invert_automorphism(g57, m)
    assert m.then(inv).is_identity()


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
    from pcmax.pcgroup import PcPresentation

    pres = PcPresentation(5, 2, [(0, 0), (0, 0)], {})  # elementary abelian p^2
    images = (pres.identity, pres.generator(2))
    gmap = check_homomorphism(pres, images)
    with pytest.raises(HomCheckFailed):
        certify_automorphism(gmap)


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


def certificate_matches_oracle(pres, profile, target):
    """The basis-pair certificate and the exhaustive enumeration agree: every
    pair extends and the images are pairwise distinct.  Returns the
    enumerated derivations by pair."""
    fam = certify_family(pres, profile, target)
    family = dict(enumerate_pair_family(pres, target))
    assert None not in family.values()
    assert len({d.alpha.images for d in family.values()}) == len(family)
    assert len(family) == pres.p ** fam.claimed_order_exponent
    assert f"all {len(family)} pairs" in fam.detail
    return family


def test_phi_whole_family_small(g55, profile55):
    # the derived subgroup family on the order 5^5 group: all 5^6 pairs
    family = certificate_matches_oracle(g55, profile55, profile55.G(2))
    assert len(family) == 5 ** 6


@pytest.mark.parametrize("group, profile, term", [
    ("g35", "profile35", lambda prof: prof.G(2)),
    ("g57", "profile57", lambda prof: prof.G(prof.t)),
    ("nonmetabelian58", "nm_profile58", lambda prof: prof.A),
], ids=["g35-G2", "g57-Gt", "nonmetabelian58-A"])
def test_certificate_matches_enumeration(request, group, profile, term):
    pres = request.getfixturevalue(group)
    pres = getattr(pres, "pres", pres)
    prof = request.getfixturevalue(profile)
    certificate_matches_oracle(pres, prof, term(prof))


def test_gt_family_is_abelian_and_normal_by_enumeration(g35, profile35):
    # every composition is the parameter product, and conjugation by the
    # inner automorphisms of s and s_1 keeps the family
    Gt = profile35.G(profile35.t)
    fam = certify_family(g35, profile35, Gt)
    assert all(kernel_contains(m.derivation, Gt) for m in fam.basis_members)
    family = certificate_matches_oracle(g35, profile35, Gt)
    assert len(family) == 81
    mul = g35.multiply
    for (u1, v1), d1 in family.items():
        for (u2, v2), d2 in family.items():
            product = family[(mul(u1, u2), mul(v1, v2))]
            assert d1.alpha.then(d2.alpha).images == product.alpha.images
    images = {d.alpha.images for d in family.values()}
    for g in (profile35.s, profile35.s1):
        inner = inner_automorphism(g35, g)
        inner_inv = inner_automorphism(g35, g35.invert(g))
        for d in family.values():
            assert inner_inv.then(d.alpha).then(inner).images in images


def test_certificate_rejects_a_non_extending_basis_pair(nonmetabelian57):
    # G_3 of the searched 5^7 fixture is abelian and normal, but not every
    # pair of its values extends
    pres = nonmetabelian57.pres
    profile = build_profile(pres, require_chain=True)
    G3 = profile.G(3)
    assert G3.is_abelian()
    with pytest.raises(TheoremViolation):
        certify_family(pres, profile, G3)
    assert any(d is None for _, d in enumerate_pair_family(pres, G3))


def test_build_H_order_and_closure(g57, profile57, g35, profile35):
    fam = build_H(g57, profile57)
    assert fam.claimed_order_exponent == 7 - profile57.r  # p^{n-r}
    assert len(fam.basis_members) == profile57.A.order_exponent
    assert all(m.images[0] == g57.generators[0] for m in fam.basis_members)
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
        h_cap_inn_check(g57, profile57)


def test_h_cap_inn_nonmetabelian(nonmetabelian58, nm_profile58):
    res = h_cap_inn_check(nonmetabelian58.pres, nm_profile58)
    assert res.passed, res.detail
    assert res.detail.startswith("chain argument: C_G(s) <= <s>G_7")
    assert "5^2 candidates scanned" in res.detail


def test_h_cap_inn_refuses_without_spanning_chain(nonmetabelian58, nm_profile58):
    profile = dataclasses.replace(nm_profile58, chain_spans=False)
    with pytest.raises(PreconditionRefused, match="does not span"):
        h_cap_inn_check(nonmetabelian58.pres, profile)


def test_h_cap_inn_conjugations_are_quadratic_in_p(nonmetabelian58, nm_profile58,
                                                   monkeypatch):
    # walking the orbit of s would take 2 p^{n-2} = 31 250 conjugations here
    from pcmax.pcgroup import PcPresentation

    calls = Counter()
    conjugate = PcPresentation.conjugate

    def counting(self, a, b):
        calls["conjugate"] += 1
        return conjugate(self, a, b)

    monkeypatch.setattr(PcPresentation, "conjugate", counting)
    assert h_cap_inn_check(nonmetabelian58.pres, nm_profile58).passed
    assert calls["conjugate"] <= 2 * 5 ** 2


def test_phi_group_iso_against_summed_derivations(g57, profile57, rng):
    # composition of members over G_t equals the member of the pointwise sum
    from pcmax.derivations import add as der_add

    Gt = profile57.G(profile57.t)
    for _ in range(10):
        u1, v1 = Gt.random_element(rng), Gt.random_element(rng)
        u2, v2 = Gt.random_element(rng), Gt.random_element(rng)
        m1 = phi(g57, profile57, u1, v1, target=Gt)
        m2 = phi(g57, profile57, u2, v2, target=Gt)
        summed = der_add(m1.derivation, m2.derivation)
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

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(autom, "build_profile",
                        counting("build_profile", autom.build_profile))
    monkeypatch.setattr(PcPresentation, "consistency_check",
                        counting("consistency_check", PcPresentation.consistency_check))
    assert verify_thm_main1(g57).ok
    assert calls == {"build_profile": 1, "consistency_check": 1}


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
    names = [c.name for c in rep.checks]
    for expected in ["A-abelian", "module-similarity", "exponent-relations",
                     "quotient-matches-reference", "A-family-validated",
                     "H-meets-Inn", "degree-bound", "bound"]:
        assert expected in names


@pytest.mark.parametrize("name", ["nonmetabelian57", "nonmetabelian58"])
def test_reference_quotient_dictionary_is_invertible(request, name):
    # the driver hom-checks the forward dictionary only; the backward one
    # and both round trips must hold as its bijectivity argument says
    pres = request.getfixturevalue(name).pres
    profile = build_profile(pres, require_chain=True)
    k = profile.l + 2
    quo = pres.quotient_by_term(k)
    ref = build_blackburn_pc(pres.p, pres.n).quotient_by_term(k)
    fwd = check_homomorphism(quo, ref.generators, codomain=ref)
    bwd = check_homomorphism(ref, quo.generators, codomain=quo)
    assert fwd.then(bwd).images == quo.generators
    assert bwd.then(fwd).images == ref.generators
    assert _quotient_isomorphic_to_reference(pres, profile) == (
        True, f"generator dictionary is an isomorphism on the order p^{k} quotients")


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
