"""The derivation calculus: cocycle law, group/monoid structure, the
correspondence with endomorphisms, kernels, and the depth lemma."""

import random

import pytest

from pcmax.derivations import (add, bullet, check_lemma_down, evaluate,
                               kernel_contains, kernel_of, make_derivation,
                               negate, one_plus)
from pcmax.errors import PresentationError
from pcmax.maxclass import build_profile, validate_maximal_class
from pcmax.pcgroup import PcPresentation

from .conftest import SEED
from .oracles import is_zero, zero_derivation


def _sample_derivations(pres, target, rng, count):
    out = []
    while len(out) < count:
        u = target.random_element(rng)
        v = target.random_element(rng)
        out.append(make_derivation(pres, target, u, v))
    return out


# -- construction -----------------------------------------------------------


def test_zero_derivation(g57):
    A = g57.suffix_subgroup(3)
    z = zero_derivation(g57, A)
    assert is_zero(z)
    assert one_plus(z).is_identity()
    rng = random.Random(SEED)
    for _ in range(50):
        assert evaluate(z, g57.full_subgroup().random_element(rng)).is_identity()


def test_values_must_lie_in_target(g57):
    A = g57.suffix_subgroup(5)
    with pytest.raises(PresentationError):
        make_derivation(g57, A, g57.generator(3), g57.identity)


def test_target_must_be_normal(g57):
    S = g57.subgroup_from_generators([g57.generator(1)])  # <s> is not normal
    with pytest.raises(PresentationError):
        make_derivation(g57, S, g57.identity, g57.identity)


def test_target_must_be_abelian(nonmetabelian58):
    pres = nonmetabelian58.pres
    G2 = pres.suffix_subgroup(3)
    assert not G2.is_abelian()
    with pytest.raises(PresentationError):
        make_derivation(pres, G2, pres.identity, pres.identity)


def test_metabelian_every_pair_extends(g55):
    G2 = g55.suffix_subgroup(3)
    rng = random.Random(SEED)
    for _ in range(60):
        u = G2.random_element(rng)
        v = G2.random_element(rng)
        d = make_derivation(g55, G2, u, v)
        assert d.u == u and d.v == v


# -- evaluation and the cocycle law ---------------------------------------------


def test_eval_at_identity(g57):
    A = g57.suffix_subgroup(3)
    rng = random.Random(SEED)
    for d in _sample_derivations(g57, A, rng, 5):
        assert evaluate(d, g57.identity).is_identity()


def test_eval_lands_in_target(g57):
    A = g57.suffix_subgroup(4)
    rng = random.Random(SEED)
    for d in _sample_derivations(g57, A, rng, 5):
        for _ in range(50):
            assert A.contains(evaluate(d, g57.full_subgroup().random_element(rng)))


@pytest.mark.parametrize("name", ["g57", "nonmetabelian57", "nonmetabelian58"])
def test_derived_generator_values_lie_in_target(request, name):
    # make_derivation does not test this: modulo the normal target the
    # chain-derived image of a_{i+1} is [a_i, a_1] = a_{i+1}
    value = request.getfixturevalue(name)
    pres = value if isinstance(value, PcPresentation) else value.pres
    profile = build_profile(validate_maximal_class(pres))
    A = profile.G(profile.r)
    rng = random.Random(SEED)
    for d in _sample_derivations(pres, A, rng, 20):
        for a, image in zip(pres.generators, d.alpha.images):
            assert A.contains(pres.solve(a, image))


def test_cocycle_law_battery(g57):
    # (gh)d = (gd)^h (hd) on 1000 seeded pairs for each of 20 derivations
    A = g57.suffix_subgroup(3)
    rng = random.Random(SEED)
    derivations = _sample_derivations(g57, A, rng, 20)
    for d in derivations:
        for _ in range(1000):
            g = g57.full_subgroup().random_element(rng)
            h = g57.full_subgroup().random_element(rng)
            lhs = evaluate(d, g57.multiply(g, h))
            rhs = g57.multiply(g57.conjugate(evaluate(d, g), h), evaluate(d, h))
            assert lhs == rhs


def test_inverse_value_formula(g57):
    # (g^-1)d = ((gd)^-1)^(g^-1)
    A = g57.suffix_subgroup(3)
    rng = random.Random(SEED)
    for d in _sample_derivations(g57, A, rng, 5):
        for _ in range(100):
            g = g57.full_subgroup().random_element(rng)
            gi = g57.invert(g)
            lhs = evaluate(d, gi)
            rhs = g57.conjugate(g57.invert(evaluate(d, g)), gi)
            assert lhs == rhs


# -- abelian group / monoid structure ----------------------------------------------


def test_addition_identity_and_inverse(g57):
    A = g57.suffix_subgroup(3)
    z = zero_derivation(g57, A)
    rng = random.Random(SEED)
    for d in _sample_derivations(g57, A, rng, 5):
        assert add(d, z).alpha.images == d.alpha.images
        s = add(d, negate(d))
        assert is_zero(s)


def test_addition_commutative_on_sample(g55):
    A = g55.suffix_subgroup(3)
    rng = random.Random(SEED)
    ds = _sample_derivations(g55, A, rng, 20)
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1 :]:
            assert add(d1, d2).alpha.images == add(d2, d1).alpha.images


def test_addition_associative_sampled(g55):
    A = g55.suffix_subgroup(3)
    rng = random.Random(SEED)
    ds = _sample_derivations(g55, A, rng, 6)
    for i in range(len(ds) - 2):
        a, b, c = ds[i], ds[i + 1], ds[i + 2]
        assert add(add(a, b), c).alpha.images == add(a, add(b, c)).alpha.images


def test_bullet_monoid(g57):
    A = g57.suffix_subgroup(3)
    z = zero_derivation(g57, A)
    rng = random.Random(SEED)
    ds = _sample_derivations(g57, A, rng, 6)
    for d in ds:
        assert bullet(d, z).alpha.images == d.alpha.images
        assert bullet(z, d).alpha.images == d.alpha.images
    for i in range(len(ds) - 2):
        a, b, c = ds[i], ds[i + 1], ds[i + 2]
        lhs = bullet(bullet(a, b), c)
        rhs = bullet(a, bullet(b, c))
        assert lhs.alpha.images == rhs.alpha.images


def test_one_plus_carries_bullet_to_composition(g57):
    A = g57.suffix_subgroup(3)
    rng = random.Random(SEED)
    ds = _sample_derivations(g57, A, rng, 8)
    for i in range(0, len(ds) - 1, 2):
        d1, d2 = ds[i], ds[i + 1]
        assert one_plus(bullet(d1, d2)).images == one_plus(d1).then(one_plus(d2)).images


def test_one_plus_injective(g57):
    A = g57.suffix_subgroup(3)
    rng = random.Random(SEED)
    ds = _sample_derivations(g57, A, rng, 10)
    images = {one_plus(d).images for d in ds}
    keys = {(d.u, d.v) for d in ds}
    assert len(images) == len(keys)


# -- the subset that factors through the quotient -----------------------------------


def test_factoring_derivations_bullet_equals_add(g57, profile57):
    # values in G_t with G_t <= ker: the composition term vanishes
    Gt = profile57.G(profile57.t)
    rng = random.Random(SEED)
    ds = _sample_derivations(g57, Gt, rng, 8)
    for d in ds:
        assert kernel_contains(d, Gt)
    for i in range(0, len(ds) - 1, 2):
        d1, d2 = ds[i], ds[i + 1]
        # the pointwise composition g -> (g d1) d2, the correction term in bullet
        for _ in range(20):
            g = g57.full_subgroup().random_element(rng)
            assert evaluate(d2, evaluate(d1, g)).is_identity()
        assert bullet(d1, d2).alpha.images == add(d1, d2).alpha.images


def test_factoring_derivations_one_minus_inverts(g57, profile57):
    Gt = profile57.G(profile57.t)
    rng = random.Random(SEED)
    for d in _sample_derivations(g57, Gt, rng, 8):
        alpha = one_plus(d)
        beta = one_plus(negate(d))
        assert alpha.then(beta).is_identity()
        assert beta.then(alpha).is_identity()


# -- kernels ---------------------------------------------------------------------------


def test_kernel_of_zero_is_whole_group(g57):
    A = g57.suffix_subgroup(3)
    K = kernel_of(zero_derivation(g57, A))
    assert K.order_exponent == g57.n


def test_kernel_membership_is_exact(g55):
    A = g55.suffix_subgroup(3)
    rng = random.Random(SEED)
    for d in _sample_derivations(g55, A, rng, 4):
        K = kernel_of(d)
        # brute force over the whole group of order 5^5
        count = 0
        import itertools

        for vec in itertools.product(range(5), repeat=5):
            el = g55.element(vec)
            if evaluate(d, el).is_identity():
                count += 1
                assert K.contains(el)
            else:
                assert not K.contains(el)
        assert count == 5 ** K.order_exponent


def test_kernel_lemma_deep_targets(g57, profile57):
    # for values in G_r with r >= (n - l) / 2, the term G_{n-r+1} dies
    n, l = 7, profile57.l
    rng = random.Random(SEED)
    for r in range(2, 7):
        if 2 * r < n - l:
            continue
        Gr = profile57.G(r)
        for d in _sample_derivations(g57, Gr, rng, 3):
            assert kernel_contains(d, profile57.G(n - r + 1))
            assert all(evaluate(d, b).is_identity()
                       for b in profile57.G(n - r + 1).basis)


def test_lemma_down_containments(g57, profile57):
    # values on the i-th term land r-1 steps deeper, for ten derivations
    rng = random.Random(SEED)
    r = 5
    Gr = profile57.G(r)
    series = g57.lower_central_series()
    for _ in range(10):
        u = Gr.random_element(rng)
        v = Gr.random_element(rng)
        d = make_derivation(g57, Gr, u, v)
        rep = check_lemma_down(d, r, series)
        assert rep["ok"]
        assert rep["kernel_term_contained"]
        assert all(rep["per_level"].values())


def test_lemma_down_example_gamma2_into_gamma6(g57, profile57):
    # the s-fixing derivation with value s_5 lands gamma_2 inside gamma_6
    Gr = profile57.G(5)
    d = make_derivation(g57, Gr, g57.identity, g57.generator(6))
    G2 = profile57.G(2)
    G6 = profile57.G(6)
    for b in G2.basis:
        assert G6.contains(evaluate(d, b))
