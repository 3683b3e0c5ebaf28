"""Independent oracles the tests check the production code against.

Everything here is deliberately naive and shares no code with the engine:
the rewriter applies single relation steps to a fixpoint instead of running
stack-based collection, the overlap test rewrites each bracketing as a word
with it, the degree-of-commutativity oracle loops over every
subgroup pair, coset counting enumerates transversals explicitly, the
pair-family oracle builds a derivation for every pair instead of
certifying the family from its basis pairs, the cross-model oracle compares
every pair instead of translations by generators, the class oracle
walks the conjugacy class instead of checking one commutator per layer,
the H-meets-Inn oracle scans the p^2 conjugations that can fix s
instead of reading the intersection off the profile, the automorphism
oracle closes the images to a subgroup instead of reading the Frattini
quotient, the invariant factors of M are extracted by powering instead of
read off the closed form, the semidirect-product model multiplies in
C_p x| R instead of collecting, a map is evaluated by multiplying in each
generator's image power instead of collecting the whole word, and ranks and
determinants over F_p come from enumerating a row span and from the
Leibniz formula instead of from row reduction.

The search's F_p system is also built row by row over every (j, i, c), as
it once was, where the search builds each row from the variables in it.

`zero_derivation` is not an oracle but a test helper the package has no
use for.
"""

from __future__ import annotations

import itertools

from pcmax import blackburn
from pcmax.derivations import make_derivation
from pcmax.errors import ValidationFailed
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


def naive_consistency_check(pres: PcPresentation):
    """(ok, overlaps checked, failure) of the overlap test, with both
    bracketings of every overlap rewritten as words by `naive_collect`.

    The overlaps, their order and the failure texts are those of
    `PcPresentation.consistency_check`; a bracket is collected first and
    its normal-form letters are spliced into the outer word.
    """
    p, n = pres.p, pres.n

    def word(el):
        return [(k + 1, e) for k, e in enumerate(el) if e]

    def nc(*parts):
        return naive_collect(pres, [letter for part in parts for letter in part])

    def tail(i):
        return word(pres.power_tails[i - 1])

    checked = 0
    for k in range(3, n + 1):
        for j in range(2, k):
            for i in range(1, j):
                checked += 1
                lhs = nc([(k, 1)], word(nc([(j, 1), (i, 1)])))
                rhs = nc(word(nc([(k, 1), (j, 1)])), [(i, 1)])
                if lhs != rhs:
                    return False, checked, f"associativity overlap a_{k}(a_{j} a_{i})"
    for j in range(2, n + 1):
        for i in range(1, j):
            checked += 1
            if nc([(j, p - 1)], word(nc([(j, 1), (i, 1)]))) != nc(tail(j), [(i, 1)]):
                return False, checked, f"power overlap a_{j}^p a_{i}"
            checked += 1
            if nc([(j, 1)], tail(i)) != nc(word(nc([(j, 1), (i, 1)])), [(i, p - 1)]):
                return False, checked, f"power overlap a_{j} a_{i}^p"
    for i in range(1, n + 1):
        checked += 1
        if nc(tail(i), [(i, 1)]) != nc([(i, 1)], tail(i)):
            return False, checked, f"power overlap a_{i}^p a_{i}"
    return True, checked, None


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


def h_cap_inn_scan(pres, profile) -> str | None:
    """None when no inner automorphism but the identity fixes s and sends
    s_1 into s_1 A, else what fails, by scanning the p^2 candidates s^a z,
    z in G_{n-1}.

    Each candidate must centralize s (the chain argument puts C_G(s) among
    them), and each value s_1^-1 s_1^g must be trivial or lie in G_2 but
    outside G_3 and A.
    """
    s, s1, A = profile.s, profile.s1, profile.A
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
