"""Exact arithmetic for finite p-groups given by weighted power-commutator
presentations.

A presentation has generators a_1, ..., a_n, each of relative order p, and
relations

    a_i^p     = tail_i        (a normal form supported on indices > i)
    [a_j, a_i] = tail_{j,i}   (j > i; a normal form supported on indices > j)

Every group element has a unique normal form a_1^{e_1} ... a_n^{e_n} with
0 <= e_i < p; normal forms are computed by collection from the left.  The
support restrictions make the rewriting terminate, and the overlap tests in
`consistency_check` certify confluence, i.e. that the presentation defines a
group of order exactly p^n.  Only presentations that pass the consistency
test may be fed to the higher layers.

Conventions fixed here and used everywhere else:

* products read left to right: `multiply(a, b)` is "a then b", and every
  product of two normal forms goes through it; a longer word is collected
  from its letters in one pass, as `multiply` does (the overlap sides of
  the consistency test, `homs.GroupMap.evaluate`);
* `solve(a, b)` is the x with a x = b, i.e. a^-1 b; every division goes
  through it, so `invert(a) = solve(a, 1)`, and subgroup bases and coset
  representatives are reduced by left division (`_sift`);
* `conjugate(a, b) = b^-1 a b = solve(b, ab)` and
  `commutator(a, b) = a^-1 b^-1 a b = solve(ba, ab)`;
* the suffix subgroups Gamma_k = <a_k, ..., a_n> form a central series, so
  every suffix subgroup is normal and its layers are elementary abelian.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PresentationError

ALLOWED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
CENTRALIZER_BUDGET = 10**6  # largest index [G : K] that centralizer_mod walks


class Element(tuple):
    """Normal-form element: entry i-1 is the exponent of generator a_i."""

    __slots__ = ()

    def is_identity(self) -> bool:
        return not any(self)

    def leading_index(self) -> int:
        """1-based index of the first nonzero exponent; 0 for the identity."""
        for i, e in enumerate(self):
            if e:
                return i + 1
        return 0

    def __repr__(self) -> str:
        if not any(self):
            return "<1>"
        parts = [f"a{i + 1}" + (f"^{e}" if e != 1 else "") for i, e in enumerate(self) if e]
        return "<" + "*".join(parts) + ">"


class ConsistencyReport(NamedTuple):
    ok: bool
    overlaps_checked: int
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class PcPresentation:
    """A weighted power-commutator presentation of a finite p-group.

    Immutable after construction: nothing is stored on it later, and all
    operations are pure functions of their inputs, so concurrent use is
    safe.
    """

    def __init__(self, p, n, power_tails, commutator_tails, labels=None):
        if p not in ALLOWED_PRIMES:
            raise PresentationError(f"p must be a prime with 3 <= p <= 61, got {p}")
        if n < 1:
            raise PresentationError(f"generator count must be at least 1, got {n}")
        self.p = p
        self.n = n
        self._digits = {e: e for e in range(p)}  # reads an entry in [0, p) as an int

        if len(power_tails) != n:
            raise PresentationError(f"expected {n} power tails, got {len(power_tails)}")
        zero = (0,) * n
        zeros = (zero, [0] * n)
        self.identity = Element(zero)
        self.power_tails = tuple(
            self.identity if tail in zeros else
            self._check_tail(tail, i + 1, "power tail of a_%d", i)
            for i, tail in enumerate(power_tails, start=1))

        cts = {}
        # conj[g - 1] maps each j > g with [a_j, a_g] != 1 to the letters of
        # a_j^(a_g) = a_j [a_j, a_g], for the collector
        conj = [{} for _ in range(n)]
        abelian_start = 1
        for (j, i), tail in dict(commutator_tails).items():
            if not (1 <= i < j <= n):
                raise PresentationError(f"commutator pair ({j}, {i}) out of range")
            if tail is None or tail in zeros:
                continue  # trivial: None (a file's zero row) or a zero vector
            t = self._check_tail(tail, j + 1, "tail of [a_%d, a_%d]", j, i)
            if any(t):
                cts[(j, i)] = t
                conj[i - 1][j] = ((j, 1), *[(k, e) for k, e in enumerate(t, 1) if e])
                if i >= abelian_start:
                    abelian_start = i + 1
        self.commutator_tails = cts
        self._conj = conj
        # Smallest k such that all generators of index >= k commute pairwise;
        # products supported there collect by plain exponent addition.
        self._abelian_start = abelian_start

        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise PresentationError("wrong number of generator labels")
            if any((not lab) or any(c.isspace() for c in lab) for lab in labels):
                raise PresentationError("labels must be nonempty and whitespace-free")
            if len(set(labels)) != n:
                raise PresentationError("generator labels must be distinct")
        self.labels = labels or tuple(f"a{i}" for i in range(1, n + 1))

        self.generators = tuple(Element(zero[:k] + (1,) + zero[k + 1:]) for k in range(n))
        # Letter forms of the power tails, for the collector.
        self._pt_letters = tuple(
            tuple([(k, e) for k, e in enumerate(t, 1) if e]) for t in self.power_tails
        )
        # [a_i, a_1] = a_{i+1} for 1 < i < n; [a_n, a_1] = 1 by the support rule
        self._standard_chain = all(cts.get((i, 1)) == self.generators[i]
                                   for i in range(2, n))

    def _check_tail(self, tail, min_support, what, *args):
        try:  # the usual tail: entries in [0, p), each read by one lookup
            t = Element(map(self._digits.__getitem__, tail))
        except (KeyError, TypeError):
            t = ()
        if len(t) == self.n and not any(t[:min_support - 1]):
            return t
        # any other tail is read by `int`, and named (`what % args`) if bad
        t = Element(map(int, tail))
        what %= args
        if len(t) != self.n:
            raise PresentationError(f"{what}: expected vector of length {self.n}")
        if min(t) < 0 or max(t) >= self.p:
            raise PresentationError(f"{what}: entries must lie in [0, {self.p})")
        if any(t[: min_support - 1]):
            raise PresentationError(f"{what}: support must start at index {min_support}")
        return t

    # -- basic views ------------------------------------------------------

    def element(self, exponents) -> Element:
        t = tuple(int(e) for e in exponents)
        if len(t) != self.n or any(not 0 <= e < self.p for e in t):
            raise PresentationError("invalid exponent vector")
        return Element(t)

    def generator(self, i: int) -> Element:
        if not 1 <= i <= self.n:
            raise PresentationError(f"generator index {i} out of range 1..{self.n}")
        return self.generators[i - 1]

    def commutator_tail(self, j: int, i: int) -> Element:
        return self.commutator_tails.get((j, i), self.identity)

    # -- collection -------------------------------------------------------

    def _collect(self, vec, stack):
        # Collection from the left.  `vec` is the collected prefix in normal
        # form; `stack` holds the uncollected rest of the word as letters
        # (g, e) with e > 0, the top of the stack being the leftmost one.
        #
        # Letters at or above `_abelian_start` commute with each other and
        # with the power tails above them, so they are added in place and
        # their entries may grow past p until the one `_carry` at the end;
        # `low` is the lowest entry that has (n + 1 when there is none).
        # Below the suffix every entry stays under p.  A suffix entry
        # a_j^{e_j} with e_j >= p is still a word, so every step below reads
        # it as one: it commutes with a_g when a_j does, and its conjugate
        # by a_g is the e_j-th power of that of a_j.
        p = self.p
        n = self.n
        pt = self._pt_letters
        conj = self._conj
        abelian_start = self._abelian_start
        low = n + 1
        while stack:
            g, e = stack.pop()
            if g >= abelian_start:
                total = vec[g - 1] + e
                vec[g - 1] = total
                if total >= p and g < low:
                    low = g
                continue
            rules = conj[g - 1]
            clean = True
            for j in rules:
                if vec[j - 1]:
                    clean = False
                    break
            if clean:
                # Everything above g commutes with a_g: add in place.  A
                # power overflow then puts the tail of a_g^p left of the
                # block above g, so both go back on the stack for
                # recollection.
                total = vec[g - 1] + e
                vec[g - 1] = total % p
                q = total // p
                tail = pt[g - 1]
                if q and tail:
                    block = []
                    for j in range(g + 1, n + 1):
                        if vec[j - 1]:
                            block.append((j, vec[j - 1]))
                            vec[j - 1] = 0
                    stack.extend(reversed(block))
                    rev = tuple(reversed(tail))
                    for _ in range(q):
                        stack.extend(rev)
                continue
            # General step: move a single a_g past the block, replacing each
            # block letter a_j^{e_j} by its conjugate, and push the block back
            # for recollection.  A letter that does not commute with a_g
            # becomes e_j copies of the letters of a_j^(a_g) = a_j [a_j, a_g];
            # in the abelian suffix, where those letters commute, one copy
            # with each exponent times e_j, so the work does not grow with p.
            if e > 1:
                stack.append((g, e - 1))
            buf = []
            for j in range(g + 1, n + 1):
                ej = vec[j - 1]
                if not ej:
                    continue
                vec[j - 1] = 0
                cl = rules.get(j)
                if cl is None:
                    buf.append((j, ej))
                elif ej == 1 or j < abelian_start:
                    buf.extend(cl * ej)
                else:
                    buf.extend([(k, ek * ej) for k, ek in cl])
            vec[g - 1] += 1
            overflow = vec[g - 1] == p
            if overflow:
                vec[g - 1] = 0
            stack.extend(reversed(buf))
            if overflow:
                tail = pt[g - 1]
                if tail:
                    stack.extend(reversed(tail))
        if low <= n:
            self._carry(vec, low)

    def _carry(self, vec, low):
        # One ascending pass from index `low` of the abelian suffix: an entry
        # q p + c becomes c, and q times the power tail is added above it.
        # One pass is enough, as the tail of a_k lies above k.
        p = self.p
        pt = self._pt_letters
        for k in range(low, self.n + 1):
            total = vec[k - 1]
            if total >= p:
                q, vec[k - 1] = divmod(total, p)
                for c, ec in pt[k - 1]:
                    vec[c - 1] += q * ec

    # -- element operations ------------------------------------------------

    def multiply(self, a: Element, b: Element) -> Element:
        if not any(b):
            return a
        if not any(a):
            return b
        vec = list(a)
        stack = [(i + 1, b[i]) for i in range(self.n - 1, -1, -1) if b[i]]
        self._collect(vec, stack)
        return Element(vec)

    def solve(self, a: Element, b: Element) -> Element:
        """The x with a * x = b, that is a^-1 * b.

        Coordinate by coordinate: once a * a_1^{x_1} ... a_{i-1}^{x_{i-1}}
        agrees with b below index i, right multiplication by a_i^c leaves
        those coordinates alone and adds c to coordinate i, so
        x_i = b_i - (running product)_i mod p.  That is at most n one-letter
        collections with positive exponents.
        """
        p = self.p
        vec = list(a)
        x = [0] * self.n
        for i in range(self.n):
            c = (b[i] - vec[i]) % p
            if c:
                x[i] = c
                self._collect(vec, [(i + 1, c)])
        return Element(x)

    def invert(self, a: Element) -> Element:
        if not any(a):
            return a
        return self.solve(a, self.identity)

    def power(self, a: Element, k: int) -> Element:
        if k < 0:
            a = self.invert(a)
            k = -k
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.multiply(result, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return result

    def conjugate(self, a: Element, b: Element) -> Element:
        """b^-1 * a * b, the x with b * x = a * b."""
        k = self._abelian_start - 1
        if not any(a[:k]) and not any(b[:k]):
            return a
        return self.solve(b, self.multiply(a, b))

    def commutator(self, a: Element, b: Element) -> Element:
        """a^-1 * b^-1 * a * b, the x with b * a * x = a * b."""
        k = self._abelian_start - 1
        if not any(a[:k]) and not any(b[:k]):
            return self.identity
        return self.solve(self.multiply(b, a), self.multiply(a, b))

    # -- consistency --------------------------------------------------------

    def consistency_check(self) -> ConsistencyReport:
        """Run the overlap tests of a pc presentation; on a weighted
        presentation with definitions, only those of weight at most n - 1
        whose last letter is a defining generator, a_1 or a_2.

        The test words and their two sides are

            a_k (a_j a_i) = (a_k a_j) a_i    for k > j > i
            a_j^p a_i     = a_j^{p-1} (a_j a_i)   for j > i
            a_j (a_i^p)   = (a_j a_i) a_i^{p-1}   for j > i
            a_i^p a_i     = a_i (a_i^p)

        The presentation is consistent (it defines a group of order p^n)
        exactly when both sides of every word collect to the same normal
        form (Wamsley; Sims, *Computation with Finitely Presented Groups*,
        1994, ch. 9).  Both sides are rewritings of one word, so any
        complete collection of each side will do.

        *Weights.*  Give a_1 and a_2 weight 1 and a_k weight k - 1 for
        k >= 2.  The word a_k (a_j a_i) has weight w_k + w_j + w_i,
        a_j^p a_i and a_j (a_i^p) have w_j + w_i + 1, and a_i^p a_i has
        2 w_i + 1.  The presentation is *weighted* when n >= 4, it has the
        standard chain [a_k, a_1] = a_{k+1} (2 <= k < n), and its tails
        respect the weights: the tail of [a_j, a_i] is zero below index
        w_j + w_i + 1 and that of a_i^p below index w_i + 2.  Beyond the
        support rules this asks only that a_1^p have no a_2 coordinate and
        that [a_j, a_i] with i >= 3 start at index j + i - 1.  a_1 and a_2
        are then the defining generators, and [a_k, a_1] = a_{k+1} is the
        definition of a_{k+1}.

        Lemma.  A weighted presentation is consistent exactly when its
        words of weight <= n - 1 whose last letter is a defining generator
        collect equally: of each kind, the words with i <= 2.

        Proof.  "Only if" holds for any set of words.  For "if", let P_m be
        the truncation to a_1, ..., a_m, the presentation of G/Gamma_{m+1}
        once G is known to be consistent.  P_2 is elementary abelian of
        order p^2, as every tail starts at index 3 or later.  Let P_m be
        consistent, 2 <= m < n.  The new generator z = a_{m+1} of P_{m+1}
        has weight m, and all its relations have trivial tails there (each
        would start at index m + 2 or later).  So P_{m+1} is a central
        extension of P_m by <z>, the p-cover step of the p-quotient
        algorithm, with [a_m, a_1] = z the definition of z.  By the theorem
        above, P_{m+1} is consistent once each of its test words meets.

        (1) Truncating a collection gives a collection.  Each step of a
        collection in P applies relations; an in-place addition, a scaled
        conjugate or a carry in the abelian suffix applies trivial
        commutator relations and power relations.  Cut to the first m + 1
        letters, a step applies the truncated relation of P_{m+1}, or
        nothing when a letter above m + 1 is involved, since every tail
        lies above the indices of its relation.  So the collection of a test word in P, cut to m + 1
        letters, is a complete collection of the same word in P_{m+1}, and
        one run on P serves every step.

        (2) A word of weight > m meets in P_{m+1}.  There, the tail of
        [a_y, a_x] with w_y + w_x > m is trivial, and so is that of a_x^p
        with w_x + 1 > m.  So such letters pass each other freely, and p
        equal letters of weight >= m vanish.  Each tail that rewriting the
        word creates has at least the weight of the two letters that made
        it, so it passes the remaining letters freely.  a_k (a_j a_i) and
        (a_k a_j) a_i both become a_i a_j a_k followed by the tails of
        [a_j, a_i], [a_k, a_i] and [a_k, a_j], each relation applied once
        per side.  a_j^{p-1} (a_j a_i) becomes a_i a_j^p [a_j, a_i]^p, that
        is a_i (a_j^p), which is what a_j^p a_i becomes.  The same holds
        for a_j (a_i^p), whose two sides become a_j (a_i^p), sorted.  And
        a_i^p passes a_i.

        (3) An associativity word with i >= 3 and weight <= m follows from
        the others.  a_i = [a_{i-1}, a_1] is a definition.  Only a pair
        (j, i) with w_j + w_i <= m can have a nonzero z coordinate, and for
        it the word a_j (a_{i-1} a_1), of weight w_j + w_{i-1} + 1 =
        w_j + w_i, is in the short set.  It applies [a_j, a_i] once, where
        a_j passes a_i, so it fixes the z coordinate of that tail to the
        value the p-quotient algorithm computes from the definition.
        On such a presentation the associativity words with w_i >= 2
        follow from those with w_i = 1 and the power words (Vaughan-Lee,
        *An aspect of the nilpotent quotient algorithm*, 1984; Holt, Eick
        & O'Brien, *Handbook of Computational Group Theory*, 2005, 9.4).

        (4) A power word a_j^p a_i, a_j (a_i^p) or a_i^p a_i with i >= 3
        and weight <= m follows from the others, by induction on i.  In
        P_{m+1} both sides of a word differ at most in z, and by a power
        of z, so each word gives one F_p-linear condition on the z
        coordinates of the relations.  a_i = [a_{i-1}, a_1] is the
        definition of a_i, so its power relation is not a free datum:
        written with a_i = a_{i-1}^-1 a_1^-1 a_{i-1} a_1, each step of
        either side of the word is a step of a word whose last letter is
        a_{i-1} or a_1, or of an associativity word, each of weight at
        most that of the word, as weights add under commutators.  So the
        condition of the word is a combination of theirs, and it holds
        once they do, as in Vaughan-Lee's argument for (3).  The tests
        compare this with an exact cover step: at every level of the
        pinned inputs, the conditions of the short set have the rank of
        those of the full set.  The associativity words with i = 2 are
        needed: a 7^8 input, pinned in the tests, passes every other short
        word and fails a_4 (a_3 a_2).

        By (1), the short test on P makes every word of P_{m+1} of weight
        <= m with i <= 2 meet, and by (2), (3) and (4) the others meet too.
        So P_{m+1} is consistent, and induction up to m + 1 = n gives P.

        Any presentation that is not weighted, n <= 3 included, where the
        short set is empty, gets the full set.  Both run in the same loop,
        and the report counts the words collected.

        Each side is a normal form u followed by a word w: a_j^p is its
        power tail, a_j^{p-1} the element with p - 1 at position j, and
        a_j a_i = a_i a_j [a_j, a_i] is e_i + e_j + tail(j, i), a normal
        form as the tail is supported above j.  A side is collected as
        `multiply(u, w)` would collect it, u as the collected prefix and
        the letters of w on the stack.  The letter stacks of the power
        tails and the one-letter words are built once, those of the
        a_j a_i on first use, and each is copied per side.  Failures are
        reported in-band, naming the first bad word.
        """
        p, n = self.p, self.n
        collect = self._collect
        cts = self.commutator_tails
        gens = self.generators
        tails = self.power_tails
        # w[k] is the weight of a_k; `top` bounds the weight of a word
        # collected, and its last letter a_i has i < i_end
        w = (0, 1) + tuple(range(1, n))
        short = (n >= 4 and self._standard_chain and not any(tails[0][:2])
                 and all(not any(t[:j + i - 2]) for (j, i), t in cts.items() if i >= 3))
        top, i_end = (n - 1, 3) if short else (3 * n, n + 1)

        def letters(vec):
            # the stack of a normal form: its letters, leftmost on top
            return [(k + 1, vec[k]) for k in range(n - 1, -1, -1) if vec[k]]

        def side(prefix, stack):
            vec = list(prefix)
            if stack:
                collect(vec, stack.copy())
            return vec

        prods = {}

        def prod(j, i):
            # a_j a_i as a normal form and as a letter stack
            if (j, i) not in prods:
                vec = list(cts.get((j, i), self.identity))
                vec[i - 1] = vec[j - 1] = 1
                prods[j, i] = vec, letters(vec)
            return prods[j, i]

        # the normal forms a_i^{p-1}, and the letter stacks of the words a_i,
        # a_i^{p-1} and of the power tails
        tops = [(0,) * k + (p - 1,) + (0,) * (n - 1 - k) for k in range(n)]
        one = [[(k + 1, 1)] for k in range(n)]
        pm1 = [[(k + 1, p - 1)] for k in range(n)]
        tail = [letters(t) for t in tails]
        checked = 0
        # w is nondecreasing, so the first word over `top` ends each loop
        for k in range(3, n + 1):
            for j in range(2, k):
                for i in range(1, min(j, i_end)):
                    if w[k] + w[j] + w[i] > top:
                        break
                    checked += 1
                    if side(gens[k - 1], prod(j, i)[1]) != side(prod(k, j)[0], one[i - 1]):
                        return ConsistencyReport(
                            False, checked, f"associativity overlap a_{k}(a_{j} a_{i})"
                        )
        for j in range(2, n + 1):
            for i in range(1, min(j, i_end)):
                if w[j] + w[i] + 1 > top:
                    break
                ji, ji_letters = prod(j, i)
                checked += 1
                if side(tops[j - 1], ji_letters) != side(tails[j - 1], one[i - 1]):
                    return ConsistencyReport(False, checked, f"power overlap a_{j}^p a_{i}")
                checked += 1
                if side(gens[j - 1], tail[i - 1]) != side(ji, pm1[i - 1]):
                    return ConsistencyReport(False, checked, f"power overlap a_{j} a_{i}^p")
        for i in range(1, i_end):
            if 2 * w[i] + 1 > top:
                break
            checked += 1
            if side(tails[i - 1], one[i - 1]) != side(gens[i - 1], tail[i - 1]):
                return ConsistencyReport(False, checked, f"power overlap a_{i}^p a_{i}")
        return ConsistencyReport(True, checked)

    def has_standard_chain(self) -> bool:
        """True if [a_i, a_1] = a_{i+1} exactly for i = 2..n-1 and [a_n, a_1] = 1.

        This is the generator convention under which a_1, a_2 generate the
        group and the remaining generators are the iterated commutators with
        a_1; derivation-backed maps are only defined on such presentations.
        """
        return self._standard_chain

    # -- subgroups ----------------------------------------------------------

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, ())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.generators)

    def suffix_subgroup(self, k: int) -> "Subgroup":
        """<a_k, ..., a_n>; a normal subgroup for every k."""
        if not 1 <= k <= self.n + 1:
            raise PresentationError(f"suffix start {k} out of range")
        return Subgroup(self, self.generators[k - 1 :])

    def subgroup_from_generators(self, gens, normal_closure=False) -> "Subgroup":
        """Echelonized basis of <gens> (or of its normal closure).

        The basis is closed under powers and conjugation among members, so
        membership testing reduces to sifting.  With `normal_closure` the
        basis is additionally closed under conjugation by all presentation
        generators.
        """
        basis = []
        pivots = []
        queue = [g for g in gens]
        while queue:
            x = queue.pop()
            x = _sift(self, basis, pivots, x)
            if not any(x):
                continue
            lead = x.leading_index()
            c = x[lead - 1]
            if c != 1:
                x = self.power(x, pow(c, -1, self.p))
            pos = 0
            while pos < len(pivots) and pivots[pos] < lead:
                pos += 1
            basis.insert(pos, x)
            pivots.insert(pos, lead)
            queue.append(self.power(x, self.p))
            for b in basis:
                if b is not x:
                    queue.append(self.conjugate(x, b))
                    queue.append(self.conjugate(b, x))
            if normal_closure:
                for g in self.generators:
                    queue.append(self.conjugate(x, g))
        # full reduction: each member sifted against the later ones
        for m in range(len(basis) - 2, -1, -1):
            basis[m] = _sift(self, basis[m + 1 :], pivots[m + 1 :], basis[m])
        return Subgroup(self, basis)

    def lower_central_series(self) -> "SeriesChain":
        """gamma_1 = G, gamma_{i+1} = [gamma_i, G], down to the trivial group,
        by normal closures: the reference `maxclass.validate_maximal_class`,
        which reads the series off the tails, is tested against."""
        terms = [self.full_subgroup()]
        while terms[-1].order_exponent:
            prev = terms[-1]
            comms = [
                self.commutator(x, g) for x in prev.basis for g in self.generators
            ]
            nxt = self.subgroup_from_generators(comms, normal_closure=True)
            if nxt.order_exponent >= prev.order_exponent:
                raise PresentationError("lower central series does not descend")
            terms.append(nxt)
        return SeriesChain(self, tuple(terms))

    def centralizer_mod(self, H: "Subgroup", K: "Subgroup") -> "Subgroup":
        """{g in G : [h, g] in K for all h generating H}, for K normal, K <= H.

        Exhaustive: runs over canonical coset representatives of G/K (the
        condition is constant on K-cosets), so the index [G : K] must stay
        within `CENTRALIZER_BUDGET`.  It is the general routine and the
        reference that `maxclass.compute_G1`, which reads G_1 = C_G(G_2/G_4)
        off the top layers instead, is tested against.
        """
        for b in K.basis:
            if not H.contains(b):
                raise PresentationError("K is not contained in H")
        if not K.is_normal():
            raise PresentationError("K is not normal")
        index = self.p ** (self.n - K.order_exponent)
        if index > CENTRALIZER_BUDGET:
            raise PresentationError(
                f"index of K is {index}, beyond the enumeration budget {CENTRALIZER_BUDGET}"
            )
        reps = self._coset_reps(K)
        good = [g for g in reps if all(K.contains(self.commutator(h, g)) for h in H.basis)]
        return self.subgroup_from_generators(list(K.basis) + good)

    def _coset_reps(self, K: "Subgroup"):
        """The elements with K's pivot coordinates zero, one per coset of a
        normal K, found by sifting the products g a_i from the identity."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for a in self.generators:
                    r = _sift(self, K.basis, K._pivots, self.multiply(g, a))
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return sorted(seen)

    def quotient_by_term(self, k: int) -> "PcPresentation":
        """Quotient by the suffix subgroup <a_{k+1}, ..., a_n>: the truncated
        presentation on the first k generators.

        The presentation must be consistent; the truncation then is too, so
        it is not checked.  The truncated relations define a group Q of
        order at most p^k.  The suffix is normal, so G/<a_{k+1}, ..., a_n>
        has order p^k, and the images of a_1, ..., a_k satisfy the truncated
        relations there; it is a quotient of Q, so |Q| = p^k.
        """
        if not 1 <= k <= self.n:
            raise PresentationError(f"quotient size {k} out of range 1..{self.n}")
        if k == self.n:
            return self
        pts = [t[:k] for t in self.power_tails[:k]]
        cts = {
            (j, i): t[:k]
            for (j, i), t in self.commutator_tails.items()
            if j <= k
        }
        return PcPresentation(self.p, k, pts, cts, labels=self.labels[:k])

    # -- identity / serialization -------------------------------------------

    def canonical_text(self) -> str:
        n = self.n
        lines = ["pcmax-group 1", f"p {self.p}", f"n {n}", "labels " + " ".join(self.labels)]
        for i, t in enumerate(self.power_tails, start=1):
            lines.append(f"power {i} : {' '.join(map(str, t))}")
        zero = " ".join("0" * n)
        cts = self.commutator_tails
        for j in range(2, n + 1):
            for i in range(1, j):
                t = cts.get((j, i))
                lines.append(f"comm {j} {i} : {' '.join(map(str, t)) if t else zero}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        # imported here: only the commands that print a digest pay for it
        import hashlib

        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def __repr__(self) -> str:
        return f"PcPresentation(p={self.p}, n={self.n})"


def _sift(pres, basis, pivots, x):
    """Reduce x against an echelon basis with the given pivots, clearing them
    in ascending order by left division: x becomes (b^c)^-1 x."""
    for b, lead in zip(basis, pivots):
        c = x[lead - 1]
        if c:
            x = pres.solve(pres.power(b, c), x)
    return x


class Subgroup:
    """A subgroup held as a canonical echelonized basis.

    Basis members have strictly increasing leading indices with leading
    coefficient 1; |H| = p^order_exponent with order_exponent = len(basis).
    A suffix Gamma_k = <a_k, ..., a_n> (the trivial group is Gamma_{n+1})
    answers membership, normality and commutativity from k alone; any
    other subgroup computes them.
    """

    def __init__(self, pres: PcPresentation, basis):
        self.pres = pres
        self.basis = tuple(basis)
        self._pivots = tuple(b.leading_index() for b in self.basis)
        # k when the basis is exactly a_k, ..., a_n; 0 otherwise
        start = pres.n - len(self.basis)
        self._suffix = start + 1 if self.basis == pres.generators[start:] else 0

    @property
    def order_exponent(self) -> int:
        return len(self.basis)

    def order(self) -> int:
        return self.pres.p ** len(self.basis)

    def contains(self, x: Element) -> bool:
        if self._suffix:
            return not any(x[: self._suffix - 1])
        return not any(_sift(self.pres, self.basis, self._pivots, x))

    __contains__ = contains

    def random_element(self, rng) -> Element:
        x = self.pres.identity
        for b in self.basis:
            c = rng.randrange(self.pres.p)
            if c:
                x = self.pres.multiply(x, self.pres.power(b, c))
        return x

    def is_abelian(self) -> bool:
        """On a consistent presentation [a_j, a_i] is its tail, so a suffix
        Gamma_k is abelian exactly when no nonzero tail [a_j, a_i] has
        i >= k, that is when k >= the presentation's `_abelian_start`."""
        if self._suffix:
            return self._suffix >= self.pres._abelian_start
        return not any(
            any(self.pres.commutator(a, b))
            for i, a in enumerate(self.basis)
            for b in self.basis[i + 1 :]
        )

    def is_normal(self) -> bool:
        """A suffix is normal, as the suffixes form a central series."""
        if self._suffix:
            return True
        return all(
            self.contains(self.pres.conjugate(b, g))
            for b in self.basis
            for g in self.pres.generators
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.pres is other.pres
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((id(self.pres), self.basis))

    def __repr__(self) -> str:
        return f"Subgroup(order=p^{self.order_exponent}, pivots={list(self._pivots)})"


class SeriesChain:
    """A descending chain of normal subgroups; index 1 is the whole group."""

    def __init__(self, pres: PcPresentation, terms):
        self.pres = pres
        self.terms = tuple(terms)

    def term(self, i: int) -> Subgroup:
        """i-th term, with the convention that terms beyond the chain are trivial."""
        if i < 1:
            raise PresentationError(f"series index {i} must be >= 1")
        if i <= len(self.terms):
            return self.terms[i - 1]
        return self.pres.trivial_subgroup()

    def __len__(self) -> int:
        return len(self.terms)

    def order_exponents(self):
        return tuple(t.order_exponent for t in self.terms)

    def nilpotency_class(self) -> int:
        return len(self.terms) - 1

    def __repr__(self) -> str:
        return f"SeriesChain(order_exponents={list(self.order_exponents())})"
