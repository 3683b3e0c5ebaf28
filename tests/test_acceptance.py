"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact; the only tolerances are the runtime
budgets stated next to the criteria.
"""

import random
import subprocess
import sys
import time

import pytest

from pcmax.autom import (verify_thm_main1, verify_thm_main2,
                         verify_thm_metabelian)
from pcmax.blackburn import (build_blackburn_pc, cross_model_check,
                             verify_sigma)
from pcmax.derivations import (add, bullet, evaluate, kernel_contains,
                               make_derivation, negate, one_plus)
from pcmax.errors import HomCheckFailed, PreconditionRefused
from pcmax.homs import check_homomorphism
from pcmax.maxclass import build_profile, conjugacy_facts
from pcmax.pcgroup import PcPresentation

from .conftest import GRID, SEED
from .oracles import cross_model_all_pairs, zero_derivation


def report(number, name, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_1_construction_suite():
    t0 = time.perf_counter()
    for (p, n) in GRID:
        pres = build_blackburn_pc(p, n)
        assert pres.consistency_check().ok
        profile = build_profile(pres, require_chain=True)
        assert pres.n == n and pres.p == p
        assert profile.series.nilpotency_class() == n - 1
        assert profile.metabelian
        assert profile.l == n - 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"construction suite took {elapsed:.1f}s"
    report(1, "construction suite", elapsed)


def test_criterion_2_cross_model_oracle():
    t0 = time.perf_counter()
    rep = cross_model_check(3, 5)
    assert rep.ok and rep.pairs_checked == 81 * 4
    assert cross_model_all_pairs(3, 5)
    rep = cross_model_check(5, 7)
    assert rep.ok and rep.pairs_checked == 5 ** 6 * 6
    for (p, n) in GRID:
        srep = verify_sigma(p, n)
        assert srep.ok and srep.order_is_p and srep.matches_theta
    report(2, "cross-model oracle", time.perf_counter() - t0)


def test_criterion_3_metabelian_theorem_desk_scale():
    t0 = time.perf_counter()
    rep = verify_thm_metabelian(build_blackburn_pc(3, 5), seed=SEED)
    assert rep.ok
    assert rep.achieved_exponent == 2 * 5 - 4
    assert "all 729 pairs" in rep.checks[0].detail
    rep = verify_thm_metabelian(build_blackburn_pc(5, 5), seed=SEED)
    assert rep.ok
    assert "all 15625 pairs" in rep.checks[0].detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"desk-scale enumeration took {elapsed:.1f}s"
    report(3, "metabelian automorphism theorem at desk scale", elapsed)


def test_criterion_4_main1_driver(g57, nonmetabelian58):
    t0 = time.perf_counter()
    rep = verify_thm_main1(g57, seed=SEED)
    assert rep.ok
    assert rep.required_exponent == 8 == -(-(3 * 7 - 2 * 5 + 5) // 2)
    assert rep.achieved_exponent == 10 == 2 * 7 - 4

    # nonmetabelian fixture of order 5^8 from the documented randomized
    # search (the session fixture runs it with a 5000-candidate budget, a
    # prefix of the full 10^6 budget, and hits within a handful of tries)
    pres = nonmetabelian58.pres
    rep = verify_thm_main1(pres, seed=SEED)
    assert rep.ok, rep.render()
    by_name = {c.name: c for c in rep.checks}
    assert by_name["A-family-validated"].passed
    assert "all 15625 pairs" in by_name["A-family-validated"].detail
    assert by_name["H-meets-Inn"].passed
    assert rep.achieved_exponent >= 10
    report(4, "automorphism count bound driver", time.perf_counter() - t0)


def test_criterion_5_main2_driver(g57):
    t0 = time.perf_counter()
    rep = verify_thm_main2(g57, seed=SEED)
    assert rep.ok, rep.render()
    assert rep.profile["t"] == 4
    by_name = {c.name: c for c in rep.checks}
    assert "all 15625 pairs" in by_name["Gt-family-validated"].detail
    assert "(1+d)(1+d') = 1+d+d'" in by_name["family-commutes"].detail
    assert by_name["conjugation-closure"].passed
    assert "characteristic" in by_name["conjugation-closure"].detail
    assert rep.achieved_exponent == 6
    assert rep.required_exponent == 4 == 7 - 2 * 5 + 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"main2 driver took {elapsed:.1f}s"
    report(5, "abelian normal subgroup driver", elapsed)


def test_criterion_6_lemma_suites(g57, profile57):
    t0 = time.perf_counter()
    pres = g57
    rng = random.Random(SEED)
    A = profile57.G(2)

    # cocycle law: 20 derivations x 1000 seeded pairs
    derivations = [
        make_derivation(pres, A, A.random_element(rng), A.random_element(rng))
        for _ in range(20)
    ]
    for d in derivations:
        for _ in range(1000):
            g, h = pres.random_element(rng), pres.random_element(rng)
            assert evaluate(d, pres.multiply(g, h)) == pres.multiply(
                pres.conjugate(evaluate(d, g), h), evaluate(d, h))

    # abelian group and monoid laws on a sample
    z = zero_derivation(pres, A)
    sample = derivations[:6]
    for d1 in sample:
        assert add(d1, z).alpha.images == d1.alpha.images
        assert add(d1, negate(d1)).is_zero()
        assert bullet(d1, z).alpha.images == d1.alpha.images
        for d2 in sample:
            assert add(d1, d2).alpha.images == add(d2, d1).alpha.images
            assert (one_plus(bullet(d1, d2)).images
                    == one_plus(d1).then(one_plus(d2)).images)

    # depth lemma: ten derivations into G_5, checked on all basis elements
    G5 = profile57.G(5)
    for _ in range(10):
        d = make_derivation(pres, G5, G5.random_element(rng),
                            G5.random_element(rng))
        for i in range(1, 8):
            gi = profile57.G(i) if i > 1 else pres.full_subgroup()
            target = profile57.G(min(i + 4, 8))
            for b in gi.basis:
                assert target.contains(evaluate(d, b))
        # kernel consequence: G_{n-r+1} = G_3 is killed
        assert kernel_contains(d, profile57.G(3))

    # kernel lemma across every admissible r
    n, l = 7, profile57.l
    for r in range(2, 7):
        if 2 * r < n - l:
            continue
        Gr = profile57.G(r)
        d = make_derivation(pres, Gr, Gr.random_element(rng),
                            Gr.random_element(rng))
        assert kernel_contains(d, profile57.G(n - r + 1))

    # the commutator expansion identity on 500 seeded tuples
    mul, com, con = pres.multiply, pres.commutator, pres.conjugate
    for _ in range(500):
        g, u, h, v = (pres.random_element(rng) for _ in range(4))
        lhs = com(mul(g, u), mul(h, v))
        rhs = mul(mul(con(com(g, v), u), con(com(g, h), mul(v, u))),
                  mul(com(u, v), con(com(u, h), v)))
        assert lhs == rhs

    # conjugacy facts for 100 seeded elements outside G_1 (orbits are
    # constant on G_2 cosets, so distinct cosets are checked once)
    checked = 0
    seen = set()
    while checked < 100:
        g = pres.random_element(rng)
        if profile57.G1.contains(g):
            continue
        checked += 1
        key = (g[0], g[1])
        if key in seen:
            continue
        seen.add(key)
        rep = conjugacy_facts(pres, profile57, g)
        assert rep.ok
    report(6, "derivation and structure lemma suites", time.perf_counter() - t0)


def test_criterion_7_negative_controls(g57, tmp_path):
    t0 = time.perf_counter()
    # corrupted presentation fails the consistency test
    cts = {k: list(v) for k, v in g57.commutator_tails.items()}
    bad = [0] * 7
    bad[4] = 1
    cts[(3, 1)] = bad
    corrupted = PcPresentation(5, 7, [list(t) for t in g57.power_tails], cts)
    rep = corrupted.consistency_check()
    assert not rep.ok and rep.failure

    # generator swap fails the homomorphism check
    images = list(g57.generators)
    images[0], images[1] = images[1], images[0]
    with pytest.raises(HomCheckFailed):
        check_homomorphism(g57, images)

    # the bound driver refuses n <= p + 1 with exit status 3
    from pcmax import groupfile

    path = tmp_path / "g56.grp"
    groupfile.dump(build_blackburn_pc(5, 6), path)
    res = subprocess.run(
        [sys.executable, "-m", "pcmax.cli", "verify", "main1", str(path)],
        capture_output=True, text=True)
    assert res.returncode == 3, res.stdout
    with pytest.raises(PreconditionRefused):
        verify_thm_main1(build_blackburn_pc(5, 6))
    report(7, "negative controls", time.perf_counter() - t0)
