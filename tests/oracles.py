"""Independent oracles the tests check the production code against.

Everything here is deliberately naive and shares no code with the engine:
the rewriter applies single relation steps to a fixpoint instead of running
stack-based collection, the degree-of-commutativity oracle loops over every
subgroup pair, coset counting enumerates transversals explicitly, the
pair-family oracle builds a derivation for every pair instead of
certifying the family from its basis pairs, the cross-model oracle compares
every pair instead of translations by generators, and the class oracle
walks the conjugacy class instead of checking one commutator per layer.
"""

from __future__ import annotations

from pcmax import blackburn
from pcmax.derivations import make_derivation
from pcmax.errors import ValidationFailed
from pcmax.pcgroup import Element, PcPresentation


def naive_inverse_letters(pres: PcPresentation, g: int) -> list[int]:
    """Single positive letters of a word for a_g^-1.

    a_g^-1 = a_g^(p-1) (a_g^p)^-1, and the inverse of the power tail is its
    letters in reverse order, each inverted the same way; the tail lives
    above g, so the recursion ends.
    """
    out = [g] * (pres.p - 1)
    tail = pres.power_tails[g - 1]
    for k in range(pres.n, g, -1):
        for _ in range(tail[k - 1]):
            out.extend(naive_inverse_letters(pres, k))
    return out


def naive_collect(pres: PcPresentation, word) -> Element:
    """Fixpoint rewriting on fully expanded letter strings.

    The word is flattened to single generators, a letter a_g^-e becoming e
    copies of `naive_inverse_letters(g)`; each pass fixes the leftmost
    violation: either an adjacent descending pair, rewritten with
    a_j a_i -> a_i a_j [a_j, a_i], or p equal adjacent letters, rewritten
    with the power relation.
    """
    p = pres.p
    letters: list[int] = []
    for g, e in word:
        if e < 0:
            letters.extend(naive_inverse_letters(pres, g) * -e)
        else:
            letters.extend([g] * e)

    def tail_letters(el):
        out = []
        for idx, c in enumerate(el, start=1):
            out.extend([idx] * c)
        return out

    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            if letters[k] > letters[k + 1]:
                j, i = letters[k], letters[k + 1]
                letters[k : k + 2] = [i, j] + tail_letters(pres.commutator_tail(j, i))
                changed = True
                break
            if k + p <= len(letters) and len(set(letters[k : k + p])) == 1:
                g = letters[k]
                letters[k : k + p] = tail_letters(pres.power_tails[g - 1])
                changed = True
                break
    vec = [0] * pres.n
    for g in letters:
        vec[g - 1] += 1
    assert all(c < p for c in vec)
    return Element(vec)


def brute_degree_of_commutativity(pres, series, G1) -> int:
    """Largest l with [G_i, G_j] <= G_{i+j+l}, looping over every pair
    1 <= i, j <= n - 1 with the convention G_k = 1 for k >= n."""
    n = pres.n

    def term(i):
        if i == 1:
            return G1
        if i >= n:
            return pres.trivial_subgroup()
        return series.term(i)

    def holds(l):
        for i in range(1, n):
            for j in range(1, n):
                gk = term(min(i + j + l, n))
                for x in term(i).basis:
                    for y in term(j).basis:
                        if not gk.contains(pres.commutator(x, y)):
                            return False
        return True

    for l in range(n - 3, -1, -1):
        if holds(l):
            return l
    raise AssertionError("no degree of commutativity found")


def coset_count(pres, H) -> int:
    """Number of distinct right cosets Hg, by explicit orbit enumeration."""
    def canon(g):
        for b in H.basis:
            c = g[b.leading_index() - 1]
            if c:
                g = pres.multiply(pres.power(b, -c), g)
        return g

    seen = {canon(pres.identity)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for a in pres.generators:
                h = canon(pres.multiply(g, a))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def enumerate_pair_family(pres, target):
    """Every pair (u, v) of target x target, u in the outer loop, with the
    derivation a_1 -> u, a_2 -> v it extends to, or None when it does not.

    Yields ((u, v), derivation) lazily, so a caller looking for a
    non-extending pair may stop at the first.
    """
    for u in target.elements():
        for v in target.elements():
            try:
                yield (u, v), make_derivation(pres, target, u, v)
            except ValidationFailed:
                yield (u, v), None


def cross_model_all_pairs(p, n) -> bool:
    """Ring addition against pc multiplication on all p^{2(n-1)} pairs of
    M, and theta-multiplication against sigma on all p^{n-1} elements.

    The models are looked up on the module at call time, so a test that
    replaces `blackburn.build_m_presentation` corrupts this oracle too.
    """
    ring = blackburn.RingModule(p, n)
    m = blackburn.build_m_presentation(p, n)
    s = blackburn.sigma(p, n, m)
    els = list(ring.elements())
    if any(tuple(s.evaluate(m.element(u))) != ring.theta_mul(u) for u in els):
        return False
    return all(tuple(m.multiply(m.element(u), m.element(v))) == ring.add(u, v)
               for u in els for v in els)


def class_is_coset(pres, G2, g) -> bool:
    """Whether the conjugacy class of g is the coset g G2, by walking it.

    The class is the orbit of g under conjugation by the presentation
    generators outside G2; they generate G, as G2, the derived subgroup,
    lies in the Frattini subgroup.
    """
    conjugators = [a for a in pres.generators if not G2.contains(a)]
    orbit = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for x in frontier:
            for a in conjugators:
                y = pres.conjugate(x, a)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return (len(orbit) == G2.order()
            and all(G2.contains(pres.solve(g, y)) for y in orbit))
