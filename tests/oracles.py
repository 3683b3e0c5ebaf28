"""Independent oracles the tests check the production code against.

Everything here is deliberately naive and shares no code with the engine:
the rewriter applies single relation steps to a fixpoint instead of running
stack-based collection, the overlap test rewrites each bracketing as a word
with it, on a word set listed word by word (the full set, or the short set
of weight <= n - 1 chosen by reading the weights off the tails coordinate
by coordinate), the degree-of-commutativity oracle loops over every
subgroup pair, coset counting enumerates transversals explicitly, a
subgroup's membership, commutativity and normality come from its members,
pairwise products and conjugates instead of from its suffix index, the
pair-family oracle builds a derivation for every pair, and the basis-pair
oracle one for each of 2 rank(T) basis pairs, instead of certifying the
family from two module generators, the cross-model oracle compares
every pair instead of translations by generators, the class oracle
walks the conjugacy class instead of checking one commutator per layer,
the H-meets-Inn oracle scans the p^2 conjugations that can fix s
instead of reading the intersection off the profile, a layer of the
suffix chain is compared with [Gamma_k, G] Gamma_{k+2} closed to a
subgroup instead of read off the tails, the automorphism
oracle closes the images to a subgroup instead of reading the Frattini
quotient, the invariant factors of M are extracted by powering instead of
read off the closed form, the semidirect-product model multiplies in
C_p x| R instead of collecting, a map is evaluated by multiplying in each
generator's image power instead of collecting the whole word, and ranks and
determinants over F_p come from enumerating a row span and from the
Leibniz formula instead of from row reduction.

The search's F_p system is also built row by row over every (j, i, c), as
it once was, where the search builds each row from the variables in it.

The chain oracle finds s, s_1 and the chain by searching the generators
and computing n - 2 commutators, where the engine reads them off its
generator convention.

`multiplied_consistency_check` runs a word set with each side a product
of two normal forms by `PcPresentation.multiply`: it shares the collector
but not the overlap test's loops or its choice of words, and is fast enough
to compare the short and the full set on thousands of inputs.

`cover_step_rows` is the exact evidence for the short overlap test: it
writes the cover step of one level as a linear system over F_p, one row
per word, from collections in a presentation with one central generator
per unknown tail coordinate, and `rank_mod_p` ranks it by its own
elimination.

`zero_derivation` and `is_zero` are not oracles but test helpers the
package has no use for.
"""

from __future__ import annotations

import itertools

from pcmax import blackburn
from pcmax.derivations import make_derivation
from pcmax.errors import HomCheckFailed, PresentationError
from pcmax.pcgroup import Element, PcPresentation, Subgroup


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


def weights(n):
    """w(a_1) = w(a_2) = 1 and w(a_k) = k - 1, indexed by k (entry 0 unused)."""
    return [0] + [max(k - 1, 1) for k in range(1, n + 1)]


def is_weighted(pres: PcPresentation) -> bool:
    """n >= 4, [a_k, a_1] = a_{k+1} for 2 <= k < n, and every tail zero on
    the indices below its weight: [a_j, a_i] below w_j + w_i + 1, a_i^p
    below w_i + 2.  Read coordinate by coordinate off the tails."""
    n = pres.n
    if n < 4:
        return False
    if any(tuple(pres.commutator_tail(k, 1)) != tuple(pres.generator(k + 1))
           for k in range(2, n)):
        return False
    w = weights(n)
    for j in range(1, n + 1):
        bound = w[j] + 2
        if any(pres.power_tails[j - 1][c - 1] for c in range(1, min(bound, n + 1))):
            return False
        for i in range(1, j):
            bound = w[j] + w[i] + 1
            if any(pres.commutator_tail(j, i)[c - 1] for c in range(1, min(bound, n + 1))):
                return False
    return True


def overlap_words(n, short=False):
    """The words of the overlap test in the order
    `PcPresentation.consistency_check` collects them: ("assoc", k, j, i)
    for a_k (a_j a_i), ("power", j, i) for a_j^p a_i, ("powered", j, i) for
    a_j a_i^p and ("self", i) for a_i^p a_i.  With `short`, only the words
    of weight <= n - 1 whose last index i is at most 2."""
    w = weights(n)
    top, last = (n - 1, 2) if short else (3 * n, n)
    words = [("assoc", k, j, i) for k in range(3, n + 1) for j in range(2, k)
             for i in range(1, j) if w[k] + w[j] + w[i] <= top and i <= last]
    for j in range(2, n + 1):
        for i in range(1, j):
            if w[j] + w[i] + 1 <= top and i <= last:
                words += [("power", j, i), ("powered", j, i)]
    return words + [("self", i) for i in range(1, n + 1)
                    if 2 * w[i] + 1 <= top and i <= last]


_FAILURE = {
    "assoc": "associativity overlap a_{0}(a_{1} a_{2})",
    "power": "power overlap a_{0}^p a_{1}",
    "powered": "power overlap a_{0} a_{1}^p",
    "self": "power overlap a_{0}^p a_{0}",
}


def _sides(word, pair, power, tail, letter):
    """The two sides of a test word as pairs (normal form, word), built by
    the given constructors of a_j a_i (`pair`), a_j^{p-1} (`power`), the
    power tail of a_i (`tail`) and the one-letter word a_g (`letter`)."""
    kind, *idx = word
    if kind == "assoc":
        k, j, i = idx
        return (letter(k), pair(j, i)), (pair(k, j), letter(i))
    if kind == "power":
        j, i = idx
        return (power(j), pair(j, i)), (tail(j), letter(i))
    if kind == "powered":
        j, i = idx
        return (letter(j), tail(i)), (pair(j, i), power(i))
    (i,) = idx
    return (tail(i), letter(i)), (letter(i), tail(i))


def _run_words(words, differ):
    checked = 0
    for word in words:
        checked += 1
        if differ(word):
            kind, *idx = word
            return False, checked, _FAILURE[kind].format(*idx)
    return True, checked, None


def naive_consistency_check(pres: PcPresentation, words):
    """(ok, words checked, failure) of the overlap test on the given words
    (see `overlap_words`), with both sides of every word rewritten by
    `naive_collect`.

    The failure texts are those of `PcPresentation.consistency_check`; a
    bracket is collected first and its normal-form letters are spliced
    into the outer word.
    """
    p = pres.p

    def word(el):
        return [(k + 1, e) for k, e in enumerate(el) if e]

    def nc(*parts):
        return naive_collect(pres, [letter for part in parts for letter in part])

    def differ(w):
        lhs, rhs = _sides(w, pair=lambda j, i: word(nc([(j, 1), (i, 1)])),
                          power=lambda j: [(j, p - 1)],
                          tail=lambda i: word(pres.power_tails[i - 1]),
                          letter=lambda g: [(g, 1)])
        return nc(*lhs) != nc(*rhs)

    return _run_words(words, differ)


def multiplied_consistency_check(pres: PcPresentation, words):
    """`naive_consistency_check` with each side a product of two normal
    forms by `PcPresentation.multiply`: much faster, and independent of the
    engine's word loops and of its choice of words."""
    gens, mul = pres.generators, pres.multiply

    def differ(w):
        lhs, rhs = _sides(w, pair=lambda j, i: mul(gens[j - 1], gens[i - 1]),
                          power=lambda j: pres.power(gens[j - 1], pres.p - 1),
                          tail=lambda i: pres.power_tails[i - 1],
                          letter=lambda g: gens[g - 1])
        return mul(*lhs) != mul(*rhs)

    return _run_words(words, differ)


def cover_step_unknowns(pres: PcPresentation, m):
    """The relations of P_{m+1}, the truncation of `pres` to a_1, ...,
    a_{m+1}, whose a_{m+1} coordinate is free when P_{m+1} is to stay
    weighted: ("power", i) for a_i^p with w_i + 1 <= m and ("comm", j, i)
    for [a_j, a_i] with 2 <= i < j <= m and w_j + w_i <= m.  The other
    relations [a_j, a_1] are the definitions a_{j+1} = [a_j, a_1]."""
    w = weights(m + 1)
    return ([("power", i) for i in range(1, m + 1) if w[i] + 1 <= m]
            + [("comm", j, i) for j in range(3, m + 1) for i in range(2, j)
               if w[j] + w[i] <= m])


def rank_mod_p(rows, p) -> int:
    """The rank of the rows over F_p, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def cover_step_rows(pres: PcPresentation, m, *word_sets):
    """The cover step's linear system on each word set, one row
    (d_1, ..., d_R, d_z) per word.

    The cover step extends P_m, the truncation of `pres` to a_1, ..., a_m,
    which must be consistent, by z = a_{m+1} = [a_m, a_1].  Its unknowns
    t_r are the z coordinates of the `cover_step_unknowns`; every other
    relation keeps the z coordinate `pres` gives it.  Each unknown becomes
    a central generator z_r of a presentation P* on a_1, ..., a_m, z and
    the z_r, where relation r has the tail of `pres` cut to a_1, ..., a_m,
    times z_r.  Both sides of a word of P_{m+1} (see `overlap_words`) are
    collected in P* by `multiply`; they agree on a_1, ..., a_m, as P_m is
    consistent, and the difference d of their z and z_r coordinates is the
    affine condition d_z + sum_r d_r t_r = 0 under which the word meets in
    P_{m+1}.  Sending z_r to z^{t_r} maps the collection to one in P_{m+1},
    so the conditions of the full set cut out exactly the tails for which
    P_{m+1} is consistent.  A subset of words whose rows have the full
    set's `rank_mod_p` has the same solutions.
    """
    p = pres.p
    unknowns = cover_step_unknowns(pres, m)
    slot = {rel: m + 1 + r for r, rel in enumerate(unknowns)}
    size = m + 1 + len(unknowns)

    def tail(vec, rel):
        out = list(vec[:m]) + [0] * (size - m)
        if rel in slot:
            out[slot[rel]] = 1
        else:
            out[m] = vec[m]  # a definition: [a_m, a_1] = z, others 0
        return out

    cover = PcPresentation(
        p, size,
        [tail(pres.power_tails[i - 1], ("power", i)) for i in range(1, m + 1)]
        + [(0,) * size] * (size - m),
        {(j, i): tail(pres.commutator_tail(j, i), ("comm", j, i))
         for j in range(2, m + 1) for i in range(1, j)})
    gens, mul = cover.generators, cover.multiply

    def row(word):
        lhs, rhs = _sides(word, pair=lambda j, i: mul(gens[j - 1], gens[i - 1]),
                          power=lambda j: cover.power(gens[j - 1], p - 1),
                          tail=lambda i: cover.power_tails[i - 1],
                          letter=lambda g: gens[g - 1])
        a, b = mul(*lhs), mul(*rhs)
        assert a[:m] == b[:m], word
        d = [(x - y) % p for x, y in zip(a[m:], b[m:])]
        return d[1:] + d[:1]

    return tuple([row(word) for word in words] for words in word_sets)


def layer_spanned(pres, k) -> bool:
    """Whether [Gamma_k, G] Gamma_{k+2} = Gamma_{k+1}, for the suffixes
    Gamma_k = <a_k, ..., a_n>: the commutators of a_k, ..., a_n with the
    generators and a_{k+2}, ..., a_n are closed to a normal subgroup, which
    the support rules put inside Gamma_{k+1}, and the orders compared."""
    gens = pres.generators
    comms = [pres.commutator(x, g) for x in gens[k - 1:] for g in gens]
    closure = pres.subgroup_from_generators([*comms, *gens[k + 1:]], normal_closure=True)
    return closure.order_exponent == pres.n - k


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


def _strip(H: Subgroup, g: Element) -> Element:
    """g with H's pivot coordinates cleared by left multiplication with
    powers of its echelon basis, in ascending pivot order."""
    for b in H.basis:
        c = g[b.leading_index() - 1]
        if c:
            g = H.pres.multiply(H.pres.power(b, -c), g)
    return g


def coset_count(pres, H) -> int:
    """Number of distinct right cosets Hg, by explicit orbit enumeration."""
    seen = {_strip(H, pres.identity)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for a in pres.generators:
                h = _strip(H, pres.multiply(g, a))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def subgroup_elements(H: Subgroup) -> list[Element]:
    """All p^k members of H, as the ordered products b_1^c_1 ... b_k^c_k
    over its echelon basis."""
    pres = H.pres
    els = [pres.identity]
    for b in reversed(H.basis):
        powers = [pres.identity]
        for _ in range(pres.p - 1):
            powers.append(pres.multiply(powers[-1], b))
        els = [pres.multiply(pw, x) for pw in powers for x in els]
    return els


MEMBER_BUDGET = 10**5  # largest |H| whose members `membership` lists


def membership(H: Subgroup):
    """A membership test for H that calls none of its methods: the set of
    `subgroup_elements` when |H| <= MEMBER_BUDGET, and otherwise x stripped
    to the identity by the echelon basis, as `coset_count` strips."""
    if H.pres.p ** len(H.basis) <= MEMBER_BUDGET:
        return set(subgroup_elements(H)).__contains__
    return lambda x: not any(_strip(H, x))


def commutes_pairwise(H: Subgroup) -> bool:
    """H is abelian: every two basis members a, b have a b = b a."""
    mul = H.pres.multiply
    return all(mul(a, b) == mul(b, a) for a, b in itertools.combinations(H.basis, 2))


def closed_under_conjugation(H: Subgroup, member) -> bool:
    """H is normal: g^-1 b g is a member for every basis member b and every
    generator g, by the membership test `member`."""
    pres = H.pres
    return all(member(pres.multiply(pres.invert(g), pres.multiply(b, g)))
               for b in H.basis for g in pres.generators)


def spanning_chain(pres, profile):
    """s, s_1 and the chain s_{i+1} = [s_i, s], found by search rather than
    read off the generator convention as `maxclass.standard_generators`
    does; raises PresentationError when the chain does not span.

    s is the first presentation generator outside G_1 and s_1 the first one
    in G_1 but not G_2; s_i must generate G_i modulo G_{i+1} for each i.
    """
    n, G1 = pres.n, profile.G1
    s = next((g for g in pres.generators if not G1.contains(g)), None)
    if s is None:
        raise PresentationError("no generator outside the distinguished maximal subgroup")
    G2 = profile.G(2)
    s1 = next((g for g in pres.generators if G1.contains(g) and not G2.contains(g)), None)
    if s1 is None:
        raise PresentationError("no generator in G_1 outside G_2")
    chain = [s1]
    for i in range(1, n - 1):
        chain.append(pres.commutator(chain[-1], s))
    for i in range(1, n):
        inside, upper = profile.G(i), profile.G(i + 1)
        if not inside.contains(chain[i - 1]) or upper.contains(chain[i - 1]):
            raise PresentationError(
                f"chain element s_{i} does not generate G_{i} modulo G_{i + 1}"
            )
    return s, s1, tuple(chain)


def h_cap_inn_scan(pres, profile) -> str | None:
    """None when no inner automorphism but the identity fixes s and sends
    s_1 into s_1 A, else what fails, by scanning the p^2 candidates s^a z,
    z in G_{n-1}.

    Each candidate must centralize s (the chain argument puts C_G(s) among
    them), and each value s_1^-1 s_1^g must be trivial or lie in G_2 but
    outside G_3 and A.
    """
    s, s1, _ = spanning_chain(pres, profile)
    A = profile.A
    G2, G3 = profile.G(2), profile.G(3)
    for a in range(pres.p):
        sa = pres.power(s, a)
        for z in subgroup_elements(profile.G(pres.n - 1)):
            g = pres.multiply(sa, z)
            if pres.conjugate(s, g) != s:
                return "candidate does not centralize s"
            val = pres.solve(s1, pres.conjugate(s1, g))
            if val.is_identity():
                continue
            if A.contains(val):
                return f"nontrivial intersection witness v = {tuple(val)}"
            if not G2.contains(val) or G3.contains(val):
                return "intersection value not in G_2 minus G_3"
    return None


def zero_derivation(pres: PcPresentation, target: Subgroup):
    """The derivation with a_1 -> 1 and a_2 -> 1 into `target`."""
    return make_derivation(pres, target, pres.identity, pres.identity)


def is_zero(d) -> bool:
    """Whether the derivation d sends a_1 and a_2 to 1."""
    return d.u.is_identity() and d.v.is_identity()


def enumerate_pair_family(pres, target):
    """Every pair (u, v) of target x target, u in the outer loop, with the
    derivation a_1 -> u, a_2 -> v it extends to, or None when it does not.

    Yields ((u, v), derivation) lazily, so a caller looking for a
    non-extending pair may stop at the first.
    """
    members = subgroup_elements(target)
    for u in members:
        for v in members:
            try:
                yield (u, v), make_derivation(pres, target, u, v)
            except HomCheckFailed:
                yield (u, v), None


def basis_pairs_extend(pres, target) -> bool:
    """Whether phi extends on every pair (b, 1) and (1, b), b in the echelon
    basis of target.  The extending pairs form a subgroup of
    target x target, so this proves all |target|^2 pairs without the module
    argument's hypothesis [G_2, target] = 1."""
    one = pres.identity
    try:
        for b in target.basis:
            make_derivation(pres, target, b, one)
            make_derivation(pres, target, one, b)
    except HomCheckFailed:
        return False
    return True


def cross_model_all_pairs(p, n) -> bool:
    """Ring addition against pc multiplication on all p^{2(n-1)} pairs of
    M, and theta-multiplication against sigma on all p^{n-1} elements.

    The models are looked up on the module at call time, so a test that
    replaces `blackburn.build_m_presentation` corrupts this oracle too.
    """
    ring = blackburn.RingModule(p, n)
    m = blackburn.build_m_presentation(p, n)
    s = blackburn.sigma(p, m)
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


def image_generates_group(gmap) -> bool:
    """Whether the images of a validated endomorphism generate its domain,
    i.e. whether it is an automorphism, by closing them to a subgroup and
    comparing its order with the group's."""
    pres = gmap.domain
    return pres.subgroup_from_generators(gmap.images).order_exponent == pres.n


def powering_abelian_invariants(p, n):
    """Orders of the invariant factors of M, extracted by powering.

    The rank of M^{p^k} / M^{p^{k+1}} counts invariant factors of order
    > p^k, which pins down the factor multiset exactly.
    """
    m = blackburn.build_m_presentation(p, n)
    layer_ranks = []
    gens = list(m.generators)
    while True:
        sub = m.subgroup_from_generators(gens)
        layer_ranks.append(sub.order_exponent)
        if sub.order_exponent == 0:
            break
        gens = [m.power(b, p) for b in sub.basis]
    # layer_ranks[k] = log_p |M^{p^k}|; factors[k] = number of invariant
    # factors of order > p^k
    factors = [layer_ranks[k] - layer_ranks[k + 1] for k in range(len(layer_ranks) - 1)]
    orders = []
    for k in range(len(factors) - 1, -1, -1):
        extra = factors[k] - (factors[k + 1] if k + 1 < len(factors) else 0)
        orders.extend([p ** (k + 1)] * extra)
    return sorted(orders)


def _theta_power(ring, m, b):
    for _ in range(b % ring.p):
        m = ring.theta_mul(m)
    return m


def semidirect_multiply(ring, x, y):
    """(a, m)(b, m') = (a + b, theta^b m + m') in C_p x| R, with R the ring
    model of `blackburn.RingModule`.  Elements are exponent vectors of the
    reference presentation: e stands for (e_1, (e_2, ..., e_n))."""
    a, m = x[0], tuple(x[1:])
    b, m2 = y[0], tuple(y[1:])
    return ((a + b) % ring.p,) + ring.add(_theta_power(ring, m, b), m2)


def semidirect_invert(ring, x):
    """(a, m)^-1 = (-a, -theta^-a m)."""
    a, m = x[0], tuple(x[1:])
    return ((-a) % ring.p,) + ring.reduce([-c for c in _theta_power(ring, m, -a)])


def semidirect_commutator(ring, x, y):
    """x^-1 y^-1 x y in C_p x| R."""
    inv = semidirect_multiply(ring, semidirect_invert(ring, x), semidirect_invert(ring, y))
    return semidirect_multiply(ring, inv, semidirect_multiply(ring, x, y))


def dense_linear_system(p, n, l):
    """(variables, index, rows) of the search's equivariance system: for
    each (j, i, c) in order, +1 at (j, i, c - 1) and -1 at (j, i + 1, c),
    (j + 1, i, c) and (j + 1, i + 1, c) where those are variables, and the
    row kept when it has an entry."""
    def live(j, i):
        return 1 <= i < j <= n - 1 and i + j + l <= n - 1

    variables = [(j, i, c) for j in range(2, n) for i in range(1, j) if live(j, i)
                 for c in range(i + j + l, n)]
    index = {var: k for k, var in enumerate(variables)}
    rows = []
    for j in range(2, n):
        for i in range(1, j):
            for c in range(1, n):
                row = [0] * len(variables)
                terms = [((j, i, c - 1), 1)] + [((jj, ii, c), -1) for jj, ii in
                                                 ((j, i + 1), (j + 1, i), (j + 1, i + 1))]
                for var, e in terms:
                    if var in index:
                        row[index[var]] = (row[index[var]] + e) % p
                if any(row):
                    rows.append(row)
    return variables, index, rows


def fold_evaluate(gmap, x) -> Element:
    """The image of x under a generator-image map, one multiplication per
    nonzero exponent: img_1^{e_1} * ... * img_n^{e_n}, each power taken
    on its own."""
    cod = gmap.codomain
    acc = cod.identity
    for img, e in zip(gmap.images, x):
        if e:
            acc = cod.multiply(acc, cod.power(img, e))
    return acc


def row_span_size(rows, p) -> int:
    """The number of distinct F_p combinations of the rows."""
    width = len(rows[0]) if rows else 0
    return len({
        tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(width))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    })


def leibniz_det(mat, p) -> int:
    """The determinant mod p as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= mat[r][c]
        total += term
    return total % p
