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
MAX_GENERATORS = 64
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

    Treated as immutable after construction; all operations are pure
    functions of their inputs, so concurrent use is safe.  The collector
    keeps one cache on the presentation, the normal forms of the conjugates
    (a_j^e)^(a_g): it is filled lazily, each entry is a deterministic
    function of the relations, and computing an entry twice stores the same
    value, so a race between threads can only repeat work.
    """

    def __init__(self, p, n, power_tails, commutator_tails, labels=None):
        if p not in ALLOWED_PRIMES:
            raise PresentationError(f"p must be a prime with 3 <= p <= 61, got {p}")
        if not 1 <= n <= MAX_GENERATORS:
            raise PresentationError(f"generator count must be in 1..{MAX_GENERATORS}, got {n}")
        self.p = p
        self.n = n

        if len(power_tails) != n:
            raise PresentationError(f"expected {n} power tails, got {len(power_tails)}")
        pts = []
        for i, tail in enumerate(power_tails, start=1):
            pts.append(self._check_tail(tail, min_support=i + 1, what=f"power tail of a_{i}"))
        self.power_tails = tuple(pts)

        zero = (0,) * n
        zeros = (zero, [0] * n)
        cts = {}
        for (j, i), tail in dict(commutator_tails).items():
            if not (1 <= i < j <= n):
                raise PresentationError(f"commutator pair ({j}, {i}) out of range")
            if tail in zeros:
                continue  # a trivial tail, as files spell most of them
            t = self._check_tail(tail, min_support=j + 1, what=f"tail of [a_{j}, a_{i}]")
            if any(t):
                cts[(j, i)] = t
        self.commutator_tails = cts

        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise PresentationError("wrong number of generator labels")
            if any((not lab) or any(c.isspace() for c in lab) for lab in labels):
                raise PresentationError("labels must be nonempty and whitespace-free")
            if len(set(labels)) != n:
                raise PresentationError("generator labels must be distinct")
        self.labels = labels or tuple(f"a{i}" for i in range(1, n + 1))

        self.identity = Element(zero)
        self.generators = tuple(Element(zero[:k] + (1,) + zero[k + 1:]) for k in range(n))
        # Letter forms of the tails, for the collector.
        self._pt_letters = tuple(
            tuple((k + 1, e) for k, e in enumerate(t) if e) for t in self.power_tails
        )
        self._conj_letters = {
            pair: ((pair[0], 1),) + tuple((k + 1, e) for k, e in enumerate(t) if e)
            for pair, t in self.commutator_tails.items()
        }
        # Smallest k such that all generators of index >= k commute pairwise;
        # products supported there collect by plain exponent addition.
        self._abelian_start = max((i + 1 for (_, i) in self.commutator_tails), default=1)
        # (j, e, g) -> letters of the normal form of (a_j^e)^(a_g), for e > 1
        # and a_j, a_g not commuting; lazy, see _conj_power()
        self._conj_powers = {}
        self._standard_chain = None  # lazy; see has_standard_chain()

    def _check_tail(self, tail, min_support, what):
        t = tuple(map(int, tail))
        if len(t) != self.n:
            raise PresentationError(f"{what}: expected vector of length {self.n}")
        if min(t) < 0 or max(t) >= self.p:
            raise PresentationError(f"{what}: entries must lie in [0, {self.p})")
        if any(t[: min_support - 1]):
            raise PresentationError(f"{what}: support must start at index {min_support}")
        return Element(t)

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

    def random_element(self, rng) -> Element:
        return Element(tuple(rng.randrange(self.p) for _ in range(self.n)))

    # -- collection -------------------------------------------------------

    def _collect(self, vec, stack):
        # Collection from the left.  `vec` is the collected prefix in normal
        # form; `stack` holds the uncollected rest of the word as letters
        # (g, e) with e > 0, the top of the stack being the leftmost one.
        p = self.p
        n = self.n
        pt = self._pt_letters
        conj = self._conj_letters
        cpow = self._conj_powers
        abelian_start = self._abelian_start
        while stack:
            g, e = stack.pop()
            if g >= abelian_start:
                # a_g and the tail of a_g^p commute with everything above g
                total = vec[g - 1] + e
                vec[g - 1] = total % p
                if total >= p and pt[g - 1]:
                    stack.extend(pt[g - 1] * (total // p))
                continue
            top = 0
            for j in range(n, g, -1):
                if vec[j - 1]:
                    top = j
                    break
            # The block above g is vec[g..top-1] (empty when top is 0).  If
            # everything in it commutes with a_g, add in place; a power
            # overflow then puts the tail of a_g^p left of the block, so
            # both go back on the stack for recollection.
            clean = True
            for j in range(g + 1, top + 1):
                if vec[j - 1] and (j, g) in conj:
                    clean = False
                    break
            if clean:
                total = vec[g - 1] + e
                vec[g - 1] = total % p
                q = total // p
                tail = pt[g - 1]
                if q and tail:
                    block = []
                    for j in range(g + 1, top + 1):
                        if vec[j - 1]:
                            block.append((j, vec[j - 1]))
                            vec[j - 1] = 0
                    stack.extend(reversed(block))
                    rev = tuple(reversed(tail))
                    for _ in range(q):
                        stack.extend(rev)
                continue
            # General step: move a single a_g past the block, replacing each
            # block letter a_j^{e_j} by the normal form of its conjugate, and
            # push the conjugated block back for recollection.
            if e > 1:
                stack.append((g, e - 1))
            buf = []
            for j in range(g + 1, top + 1):
                ej = vec[j - 1]
                if not ej:
                    continue
                vec[j - 1] = 0
                cl = conj.get((j, g))
                if cl is None:
                    buf.append((j, ej))
                elif ej == 1:
                    buf.extend(cl)
                else:
                    form = cpow.get((j, ej, g))
                    if form is None:
                        form = self._conj_power(j, ej, g)
                    buf.extend(form)
            vec[g - 1] += 1
            overflow = vec[g - 1] == p
            if overflow:
                vec[g - 1] = 0
            stack.extend(reversed(buf))
            if overflow:
                tail = pt[g - 1]
                if tail:
                    stack.extend(reversed(tail))

    def _conj_power(self, j, e, g):
        """Letters of the normal form of (a_j^e)^(a_g), cached.

        Collected from e copies of the letters of a_j^(a_g) = a_j [a_j, a_g].
        Every letter there has index >= j > g, so the collection only asks
        for forms with a larger conjugating index and the recursion ends.
        """
        vec = [0] * self.n
        self._collect(vec, list(reversed(self._conj_letters[(j, g)])) * e)
        form = tuple((k + 1, c) for k, c in enumerate(vec) if c)
        self._conj_powers[(j, e, g)] = form
        return form

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
        """Run the standard overlap tests for a weighted pc presentation.

        All of the following must collect to equal normal forms:

            a_k (a_j a_i) = (a_k a_j) a_i    for k > j > i
            a_j^p a_i     = a_j^{p-1} (a_j a_i)   for j > i
            a_j (a_i^p)   = (a_j a_i) a_i^{p-1}   for j > i
            a_i^p a_i     = a_i (a_i^p)

        Each side is a normal form u followed by a word w: the products
        a_j a_i are collected once, a_j^p is its power tail and a_j^{p-1}
        the element with p - 1 at position j.  A side is collected as
        `multiply(u, w)` would collect it, u as the collected prefix and
        the letters of w on the stack, which is exactly what collecting the
        letters of u from the empty word gives; so every side is collected
        as the word it stands for.  The letter stacks of the a_j a_i, the
        power tails and the one-letter words are built once and copied per
        side.  Failures are reported in-band, naming the first bad overlap.
        """
        p, n = self.p, self.n
        collect = self._collect

        def letters(vec):
            # the stack of a normal form: its letters, leftmost on top
            return [(k + 1, vec[k]) for k in range(n - 1, -1, -1) if vec[k]]

        def side(prefix, stack):
            vec = list(prefix)
            if stack:
                collect(vec, stack.copy())
            return vec

        gens = self.generators
        tails = self.power_tails
        # the normal forms a_i^{p-1}, and the letter stacks of the words a_i,
        # a_i^{p-1} and of the power tails
        tops = [(0,) * k + (p - 1,) + (0,) * (n - 1 - k) for k in range(n)]
        one = [[(k + 1, 1)] for k in range(n)]
        top = [[(k + 1, p - 1)] for k in range(n)]
        tail = [letters(t) for t in tails]
        prod = {}
        prod_letters = {}
        for j in range(2, n + 1):
            for i in range(1, j):
                vec = side(gens[j - 1], one[i - 1])
                prod[j, i] = vec
                prod_letters[j, i] = letters(vec)
        checked = 0
        for k in range(3, n + 1):
            for j in range(2, k):
                for i in range(1, j):
                    checked += 1
                    if side(gens[k - 1], prod_letters[j, i]) != side(prod[k, j], one[i - 1]):
                        return ConsistencyReport(
                            False, checked, f"associativity overlap a_{k}(a_{j} a_{i})"
                        )
        for j in range(2, n + 1):
            for i in range(1, j):
                checked += 1
                if side(tops[j - 1], prod_letters[j, i]) != side(tails[j - 1], one[i - 1]):
                    return ConsistencyReport(False, checked, f"power overlap a_{j}^p a_{i}")
                checked += 1
                if side(gens[j - 1], tail[i - 1]) != side(prod[j, i], top[i - 1]):
                    return ConsistencyReport(False, checked, f"power overlap a_{j} a_{i}^p")
        for i in range(1, n + 1):
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
        if self._standard_chain is None:
            ok = not self.commutator_tails.get((self.n, 1))
            for i in range(2, self.n):
                if self.commutator_tail(i, 1) != self.generators[i]:
                    ok = False
                    break
            self._standard_chain = ok
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
        """gamma_1 = G, gamma_{i+1} = [gamma_i, G], down to the trivial group."""
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
    """

    def __init__(self, pres: PcPresentation, basis):
        self.pres = pres
        self.basis = tuple(basis)
        self._pivots = tuple(b.leading_index() for b in self.basis)
        # basis of plain generator vectors => elements are plain tuples
        self._unit_basis = all(
            sum(b) == 1 and b[piv - 1] == 1 for b, piv in zip(self.basis, self._pivots)
        )
        self._abelian = None
        self._normal = None

    @property
    def order_exponent(self) -> int:
        return len(self.basis)

    def order(self) -> int:
        return self.pres.p ** len(self.basis)

    def contains(self, x: Element) -> bool:
        if self._unit_basis:
            # the member set is exactly the vectors supported on the pivots
            pivots = set(self._pivots)
            return all(e == 0 for i, e in enumerate(x, start=1) if i not in pivots)
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
        if self._abelian is None:
            self._abelian = not any(
                any(self.pres.commutator(a, b))
                for i, a in enumerate(self.basis)
                for b in self.basis[i + 1 :]
            )
        return self._abelian

    def is_normal(self) -> bool:
        if self._normal is None:
            self._normal = all(
                self.contains(self.pres.conjugate(b, g))
                for b in self.basis
                for g in self.pres.generators
            )
        return self._normal

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
