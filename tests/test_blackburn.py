"""Ring model, reference construction, sigma, cross-model dictionary,
module derivations from polynomials."""

import random
from collections import Counter
from math import comb

import pytest

from pcmax import blackburn, cli, groupfile
from pcmax.blackburn import (RingModule, abelian_invariants,
                             build_blackburn_pc, build_m_presentation,
                             certify_ring_model, cross_model_check,
                             module_derivation_from_polynomial, sigma,
                             verify_sigma)
from pcmax.derivations import add as der_add
from pcmax.derivations import bullet, evaluate, one_plus
from pcmax.errors import InconsistentPresentation, PresentationError
from pcmax.homs import check_homomorphism
from pcmax.maxclass import build_profile, validate_maximal_class
from pcmax.pcgroup import PcPresentation

from .conftest import SEED
from .oracles import (carrying_ring_reduce, cross_model_all_pairs,
                      image_generates_group, multiplied_consistency_check,
                      overlap_words, powering_abelian_invariants,
                      semidirect_commutator, semidirect_invert,
                      semidirect_multiply)
from .test_autom import _count_calls


# -- ring module ---------------------------------------------------------------


def test_reduction_of_p_times_b1():
    ring = RingModule(5, 7)
    direct = ring.reduce([5, 0, 0, 0, 0, 0])
    expanded = ring.reduce([0, -comb(5, 2), -comb(5, 3), -comb(5, 4), -comb(5, 5), 0])
    assert direct == expanded


@pytest.mark.parametrize("p, n", [(3, 5), (3, 40), (5, 7), (5, 60), (7, 6), (11, 13),
                                  (31, 100), (101, 103), (251, 253)])
def test_reduce_matches_carrying_oracle(p, n):
    # `reduce` works modulo p^{q+1}; the oracle carries whole integers
    ring = RingModule(p, n)
    rng = random.Random(SEED + p * 1000 + n)
    vectors = [[p if k == i else 0 for k in range(ring.rank)] for i in range(ring.rank)][:20]
    vectors += [[rng.randint(-10**9, 10**9) for _ in range(ring.rank)] for _ in range(5)]
    for v in vectors:
        assert ring.reduce(v) == carrying_ring_reduce(p, v)


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
        assert ring.add(u, ring.reduce([-x for x in u])) == ring.zero
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


def theta_poly_to_shifted(p: int, coeffs):
    """Rewrite a polynomial given on powers of theta onto powers of (theta-1)."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        # theta^k = (1 + (theta-1))^k
        for j in range(min(k + 1, len(out))):
            out[j] += c * comb(k, j)
    return [c % p for c in out]


def test_theta_poly_conversion():
    # theta = 1 + (theta - 1)
    assert theta_poly_to_shifted(5, [0, 1]) == [1, 1]


# -- reference group construction ------------------------------------------------


def test_blackburn_consistent_and_maximal(g57):
    assert g57.consistency_check().ok
    rep = validate_maximal_class(g57)
    assert rep.ok
    profile = build_profile(rep)
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


def test_reference_builds_make_no_collection(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, PcPresentation, "_collect", "consistency_check")
    assert build_blackburn_pc(5, 40).n == 40
    assert build_m_presentation(5, 40).n == 39
    assert calls.total() == 0


def _corruptions(pres, rng, count):
    """Seeded one-coordinate changes of a reference presentation: a power
    tail coordinate, an [a_j, a_1] tail coordinate, or an added [a_j, a_i]
    tail with i >= 2."""
    p, n = pres.p, pres.n
    for _ in range(count):
        pts = [list(t) for t in pres.power_tails]
        cts = {key: list(t) for key, t in pres.commutator_tails.items()}
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randrange(1, n)
            pts[k - 1][rng.randrange(k, n)] += rng.randrange(1, p)
            pts[k - 1] = [e % p for e in pts[k - 1]]
        else:
            i = 1 if kind == 1 else rng.randrange(2, n - 1)
            j = rng.randrange(i + 1, n)
            tail = cts.setdefault((j, i), [0] * n)
            c = rng.randrange(j, n)
            tail[c] = (tail[c] + rng.randrange(1, p)) % p
        yield PcPresentation(p, n, pts, cts, labels=pres.labels)


def _certified(pres, ring):
    try:
        certify_ring_model(pres, ring)
    except InconsistentPresentation:
        return False
    return True


def test_ring_certificate_implies_the_overlap_test():
    # the overlap test is the oracle: whatever the certificate passes must
    # be consistent.  Every corruption changes a relation of the model, so
    # the certificate should pass none of them.
    rng = random.Random(SEED)
    corrupted_passed = 0
    for p in (3, 5, 7, 11):
        for n in range(4, 21):
            ring = RingModule(p, n)
            pres = build_blackburn_pc(p, n)
            assert _certified(pres, ring) and pres.consistency_check().ok, (p, n)
            m = build_m_presentation(p, n)
            assert _certified(m, ring) and m.consistency_check().ok, (p, n)
            for bad in _corruptions(pres, rng, 6):
                if _certified(bad, ring):
                    assert bad.consistency_check().ok, bad.canonical_text()
                    corrupted_passed += 1
    assert corrupted_passed == 0


def test_ring_certificate_rejects_the_corruptions_the_overlap_test_rejects():
    # at (5,12): a power-tail coordinate, an [a_5, a_1] tail and an added
    # [a_6, a_3] tail; each fails both tests
    pres = build_blackburn_pc(5, 12)
    ring = RingModule(5, 12)
    for j, i, c in [(3, None, 6), (5, 1, 7), (6, 3, 8)]:
        pts = [list(t) for t in pres.power_tails]
        cts = {key: list(t) for key, t in pres.commutator_tails.items()}
        row = pts[j - 1] if i is None else cts.setdefault((j, i), [0] * 12)
        row[c] = (row[c] + 1) % 5
        bad = PcPresentation(5, 12, pts, cts)
        with pytest.raises(InconsistentPresentation):
            certify_ring_model(bad, ring)
        assert not bad.consistency_check().ok


def test_build_rejects_a_shifted_power_tail(monkeypatch):
    real = blackburn._ring_power_tails

    def shifted(ring):
        tails = real(ring)
        tails[1] = (0,) + tails[1][:-1]  # the tail of s_2, one place up
        return tails

    monkeypatch.setattr(blackburn, "_ring_power_tails", shifted)
    with pytest.raises(InconsistentPresentation, match=r"a_3\^p"):
        build_blackburn_pc(5, 12)
    with pytest.raises(InconsistentPresentation, match=r"a_2\^p"):
        build_m_presentation(5, 12)


def test_ring_certificate_rejects_a_mismatched_model():
    with pytest.raises(PresentationError):
        certify_ring_model(build_blackburn_pc(5, 7), RingModule(5, 6))
    with pytest.raises(PresentationError):
        certify_ring_model(build_blackburn_pc(5, 7), RingModule(7, 7))


@pytest.mark.parametrize("p, n", [(5, 20), (7, 16), (11, 12), (5, 40)])
def test_collector_matches_the_semidirect_model(p, n):
    # the dictionary is the identity on exponent vectors
    pres = build_blackburn_pc(p, n)
    ring = RingModule(p, n)
    rng = random.Random(SEED)
    for _ in range(30):
        x, y = (pres.full_subgroup().random_element(rng) for _ in range(2))
        assert tuple(pres.multiply(x, y)) == semidirect_multiply(ring, x, y)
        assert tuple(pres.invert(x)) == semidirect_invert(ring, x)
        assert tuple(pres.commutator(x, y)) == semidirect_commutator(ring, x, y)


def test_reference_beyond_64_generators(tmp_path, capsys):
    # n has no cap: the reference (5,100) collects as the semidirect model,
    # the short overlap test gives the full test's verdict, and `analyze`
    # accepts its group file
    pres = build_blackburn_pc(5, 100)
    ring = RingModule(5, 100)
    rng = random.Random(SEED)
    for _ in range(50):
        x, y = (pres.full_subgroup().random_element(rng) for _ in range(2))
        assert tuple(pres.multiply(x, y)) == semidirect_multiply(ring, x, y)
        assert tuple(pres.commutator(x, y)) == semidirect_commutator(ring, x, y)
    report = pres.consistency_check()
    assert report.ok and report.overlaps_checked == len(overlap_words(100, short=True)) == 4996
    assert multiplied_consistency_check(pres, overlap_words(100)) == \
        (True, len(overlap_words(100)), None)
    path = tmp_path / "reference-5-100.grp"
    groupfile.dump(pres, path)
    assert groupfile.load(path).canonical_text() == pres.canonical_text()
    assert cli.main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "order: 5^100\n" in out
    assert f"consistency: pass ({report.overlaps_checked} overlaps)\n" in out


def test_exponent_relation_exact_everywhere(g57):
    from pcmax.maxclass import exponent_relation_value

    for i in range(1, 7):
        assert exponent_relation_value(g57, i).is_identity()


# -- sigma ------------------------------------------------------------------------


def test_sigma_fixes_last_generator(m57):
    s = sigma(5, m57)
    last = m57.generator(m57.n)
    assert s.evaluate(last) == last


def test_sigma_has_order_p():
    rep = verify_sigma(5, 7)
    assert rep.ok and rep.order_is_p


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
                            lambda p, m: check_homomorphism(m, m.generators))
    else:
        monkeypatch.setattr(blackburn, "build_m_presentation", lambda p, n: fake)
    rep = cross_model_check(p, n)
    assert not rep.ok and rep.failure
    assert not cross_model_all_pairs(p, n)


def test_selftest_reports_a_bad_s_2_tail(monkeypatch, capsys):
    # Moving the s_3 coordinate of the power tail of s_2 keeps M consistent
    # but makes sigma fail a relation: both reports fail, and the selftest
    # prints FAIL lines and exits 2 instead of raising.
    p, n = 3, 5
    tails = [list(t) for t in build_m_presentation(p, n).power_tails]
    tails[1][2] = (tails[1][2] + 1) % p
    fake = PcPresentation(p, n - 1, tails, {})
    assert fake.consistency_check().ok
    monkeypatch.setattr(blackburn, "build_m_presentation", lambda p, n: fake)
    for rep in (verify_sigma(p, n), cross_model_check(p, n)):
        assert not rep.ok and rep.failure.startswith("sigma fails")
    assert cli.main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "selftest cross-model: FAIL\n" in out
    assert "selftest sigma: FAIL\n" in out
    assert out.endswith("selftest result: FAIL\n")


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


def test_abelian_invariants_closed_form_and_frattini_suffix():
    # against the powering oracle; and M^p, computed, is the suffix
    # <s_p, ..., s_{n-1}> through which sigma is certified
    for p in (3, 5, 7, 11):
        for n in range(4, 22):
            assert abelian_invariants(p, n) == powering_abelian_invariants(p, n), (p, n)
            m = build_m_presentation(p, n)
            mp = m.subgroup_from_generators([m.power(g, p) for g in m.generators])
            assert mp.basis == m.generators[p - 1:], (p, n)
            s = sigma(p, m)
            assert s.kind == "automorphism" and image_generates_group(s)


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
    d = module_derivation_from_polynomial(5, 7, theta_poly_to_shifted(5, [0, 1]), pres=g57)
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
