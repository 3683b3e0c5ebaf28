"""Ring model, reference construction, sigma, cross-model dictionary,
module derivations from polynomials."""

import random
from collections import Counter
from math import comb

import pytest

from pcmax import blackburn
from pcmax.blackburn import (RingModule, abelian_invariants,
                             build_blackburn_pc, build_m_presentation,
                             cross_model_check,
                             module_derivation_from_polynomial, sigma,
                             theta_poly_to_shifted, verify_sigma)
from pcmax.derivations import add as der_add
from pcmax.derivations import bullet, evaluate, one_plus
from pcmax.errors import PresentationError
from pcmax.homs import check_homomorphism
from pcmax.maxclass import build_profile
from pcmax.pcgroup import PcPresentation

from .conftest import SEED
from .oracles import cross_model_all_pairs


# -- ring module ---------------------------------------------------------------


def test_reduction_of_p_times_b1():
    ring = RingModule(5, 7)
    direct = ring.reduce([5, 0, 0, 0, 0, 0])
    expanded = ring.reduce([0, -comb(5, 2), -comb(5, 3), -comb(5, 4), -comb(5, 5), 0])
    assert direct == expanded


def test_theta_mul_shifts():
    ring = RingModule(5, 7)
    for i in range(1, ring.rank):
        vec = ring.theta_mul(ring.basis(i))
        expected = ring.add(ring.basis(i), ring.basis(i + 1))
        assert vec == expected
    # (theta - 1)^{n-1} = 0: the last basis vector is fixed
    assert ring.theta_mul(ring.basis(ring.rank)) == ring.basis(ring.rank)


def test_ring_element_count_exhaustive_35():
    ring = RingModule(3, 5)
    els = set(ring.elements())
    assert len(els) == 81
    # normal forms are closed under add / negate / theta
    for u in els:
        assert ring.add(u, ring.negate(u)) == ring.zero
        assert ring.theta_mul(u) in els


def test_ring_add_is_normal_form_group():
    ring = RingModule(3, 5)
    els = list(ring.elements())
    rng = random.Random(SEED)
    for _ in range(200):
        u, v, w = (els[rng.randrange(len(els))] for _ in range(3))
        assert ring.add(ring.add(u, v), w) == ring.add(u, ring.add(v, w))
        assert ring.add(u, v) == ring.add(v, u)


def test_ring_caps():
    with pytest.raises(PresentationError):
        RingModule(4, 5)
    with pytest.raises(PresentationError):
        RingModule(5, 1)


def test_theta_poly_conversion():
    # theta = 1 + (theta - 1)
    assert theta_poly_to_shifted(5, [0, 1]) == [1, 1]


# -- reference group construction ------------------------------------------------


def test_blackburn_consistent_and_maximal(g57):
    assert g57.consistency_check().ok
    profile = build_profile(g57)
    assert profile.series.nilpotency_class() == 6
    assert profile.metabelian
    assert profile.l == 4


def test_blackburn_s_power_trivial(g57):
    assert g57.power(g57.generator(1), 5).is_identity()


def test_power_tail_of_s1_matches_ring_reduction(g57):
    ring = RingModule(5, 7)
    expected = ring.reduce([0, -comb(5, 2), -comb(5, 3), -comb(5, 4), -comb(5, 5), 0])
    assert tuple(g57.power(g57.generator(2), 5))[1:] == expected


def test_blackburn_commutator_relations(g57):
    # [s_i', s'] = s_{i+1}' and the final one dies
    for j in range(2, 7):
        assert g57.commutator(g57.generator(j), g57.generator(1)) == g57.generator(j + 1)
    assert g57.commutator(g57.generator(7), g57.generator(1)).is_identity()


def test_blackburn_requires_n4():
    with pytest.raises(PresentationError):
        build_blackburn_pc(5, 3)


def test_exponent_relation_exact_everywhere(g57, profile57):
    from pcmax.maxclass import exponent_relation_value

    for i in range(1, 7):
        assert exponent_relation_value(g57, profile57, i).is_identity()


# -- sigma ------------------------------------------------------------------------


def test_sigma_fixes_last_generator(m57):
    s = sigma(5, 7, m57)
    last = m57.generator(m57.n)
    assert s.evaluate(last) == last


def test_sigma_has_order_p():
    rep = verify_sigma(5, 7)
    assert rep.ok and rep.order_is_p and rep.is_automorphism


def test_sigma_matches_theta():
    for (p, n) in [(3, 5), (5, 5), (5, 7)]:
        rep = verify_sigma(p, n)
        assert rep.matches_theta


# -- cross-model dictionary ----------------------------------------------------------


def test_cross_model_exhaustive_35():
    rep = cross_model_check(3, 5)
    assert rep.ok and cross_model_all_pairs(3, 5)
    assert (rep.pairs_checked, rep.equivariance_checked) == (81 * 4, 4)


def test_cross_model_exact_57():
    rep = cross_model_check(5, 7)
    assert rep.ok
    assert (rep.pairs_checked, rep.equivariance_checked) == (5 ** 6 * 6, 6)


@pytest.mark.parametrize("p, n", [(3, 5), (3, 6), (5, 5)])
def test_cross_model_certificate_matches_all_pairs_oracle(p, n):
    assert cross_model_check(p, n).ok is cross_model_all_pairs(p, n) is True


@pytest.mark.parametrize("corrupt", ["elementary-abelian", "top-of-s_1-tail",
                                     "sigma-identity"])
def test_cross_model_negative_controls(corrupt, monkeypatch):
    # Certificate and oracle must both reject each corruption.  Changing the
    # b_{n-1} coordinate of the power tail of s_1 keeps sigma an automorphism
    # and is seen only by the translations by b_1.
    p, n = 3, 5
    tails = [list(t) for t in build_m_presentation(p, n).power_tails]
    if corrupt == "elementary-abelian":
        tails = [[0] * (n - 1)] * (n - 1)
    elif corrupt == "top-of-s_1-tail":
        tails[0][n - 2] = (tails[0][n - 2] + 1) % p
    fake = PcPresentation(p, n - 1, tails, {})
    if corrupt == "sigma-identity":
        monkeypatch.setattr(blackburn, "sigma",
                            lambda p, n, m: check_homomorphism(m, m.generators))
    else:
        monkeypatch.setattr(blackburn, "build_m_presentation", lambda p, n: fake)
    rep = cross_model_check(p, n)
    assert not rep.ok and rep.failure
    assert not cross_model_all_pairs(p, n)


def test_cross_model_makes_each_ring_vector_an_element_once(monkeypatch):
    calls = Counter()
    element = PcPresentation.element

    def counting(self, exponents):
        calls["element"] += 1
        return element(self, exponents)

    monkeypatch.setattr(PcPresentation, "element", counting)
    assert cross_model_check(3, 5).ok
    assert calls["element"] <= 3 ** 4 + 2 * 4


def test_cross_model_identity_is_zero(m57):
    ring = RingModule(5, 7)
    assert m57.element(ring.zero) == m57.identity


def test_abelian_invariants_order():
    for (p, n) in [(3, 5), (5, 7)]:
        invs = abelian_invariants(p, n)
        total = 1
        for d in invs:
            total *= d
        assert total == p ** (n - 1)


# -- module derivations ----------------------------------------------------------------


def test_zero_polynomial_gives_identity(g57):
    d = module_derivation_from_polynomial(5, 7, [0], pres=g57)
    assert one_plus(d).is_identity()


def test_shifted_power_polynomial_hits_deep_term(g57, profile57):
    # (theta-1)^{r-1} sends s_1 to b_r, i.e. realizes the s-fixing map with
    # value the r-th chain generator
    for r in range(1, 7):
        d = module_derivation_from_polynomial(
            5, 7, [0] * (r - 1) + [1], pres=g57)
        assert evaluate(d, g57.generator(1)).is_identity()
        assert evaluate(d, g57.generator(2)) == g57.generator(r + 1)
        assert profile57.G(r).contains(evaluate(d, g57.generator(2)))


def test_theta_polynomial(g57):
    d = module_derivation_from_polynomial(5, 7, [0, 1], pres=g57, basis="theta")
    val = evaluate(d, g57.generator(2))
    expected = g57.multiply(g57.generator(2 + 1), g57.generator(3 + 1))  # b_1 + b_2
    # b_1 is generator 2, b_2 generator 3: theta*b_1 = b_1 + b_2
    expected = g57.multiply(g57.generator(2), g57.generator(3))
    assert val == expected


def test_polynomial_derivations_closed_under_add_and_compose(g57):
    ring = RingModule(5, 7)
    rng = random.Random(SEED)
    for _ in range(10):
        c1 = [rng.randrange(5) for _ in range(6)]
        c2 = [rng.randrange(5) for _ in range(6)]
        d1 = module_derivation_from_polynomial(5, 7, c1, pres=g57)
        d2 = module_derivation_from_polynomial(5, 7, c2, pres=g57)
        # addition corresponds to polynomial addition in Z[theta]/(theta-1)^{n-1}
        dsum = der_add(d1, d2)
        csum = ring.reduce([a + b for a, b in zip(c1, c2)])
        ref = module_derivation_from_polynomial(5, 7, csum, pres=g57)
        assert dsum.alpha.images == ref.alpha.images
        # bullet corresponds to c1 + c2 + c1*c2, multiplied out in the ring
        prod = [0] * 6
        for i, a in enumerate(c1):
            for j, b in enumerate(c2):
                if i + j < 6:
                    prod[i + j] += a * b
        cbullet = ring.reduce([a + b + c for a, b, c in zip(c1, c2, prod)])
        refb = module_derivation_from_polynomial(5, 7, cbullet, pres=g57)
        got = bullet(d1, d2)
        assert got.alpha.images == refb.alpha.images
