"""Two independent models of the metabelian reference group of maximal class.

Model one is a power-commutator presentation on generators

    s, s_1, ..., s_{n-1}

with [s_i, s] = s_{i+1}, all s_i commuting, s^p = 1, and power relations
whose tails are the collected forms of

    s_i^p s_{i+1}^C(p,2) s_{i+2}^C(p,3) ... s_{i+p-1} = 1.

Model two realises the maximal abelian subgroup M = <s_1, ..., s_{n-1}>
additively as the quotient ring Z[theta]/(theta - 1)^{n-1} for a primitive
p-th root of unity theta, with basis b_i = (theta - 1)^{i-1} standing for
s_i and theta-multiplication standing for conjugation by s.  The ring
reduction is a handful of lines and independent of the collection engine,
so the two models cross-check each other.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import HomCheckFailed, InconsistentPresentation, PresentationError
from .homs import GroupMap, certify_automorphism, check_homomorphism
from .pcgroup import ALLOWED_PRIMES, PcPresentation

__all__ = [
    "RingModule", "certify_ring_model", "build_m_presentation",
    "reference_tails", "build_blackburn_pc", "sigma",
    "verify_sigma",
    "cross_model_check", "abelian_invariants",
    "module_derivation_from_polynomial",
]


class RingModule:
    """Additive group of Z[theta]/(theta-1)^{n-1}, coefficients on b_1..b_{n-1}.

    Normal forms have all coefficients in [0, p); the reduction rule is

        p * b_i = -( C(p,2) b_{i+1} + C(p,3) b_{i+2} + ... + C(p,p) b_{i+p-1} )

    (terms past b_{n-1} drop), i.e. the relation (1 + (theta-1))^p - 1 = 0.
    """

    def __init__(self, p: int, n: int):
        if p not in ALLOWED_PRIMES:
            raise PresentationError(f"p must be a prime with 3 <= p <= 61, got {p}")
        if n < 2:
            raise PresentationError(f"need n >= 2, got {n}")
        self.p = p
        self.n = n
        self.rank = n - 1
        self._binom = tuple(comb(p, k) for k in range(p + 1))
        self.zero = (0,) * self.rank

    def basis(self, i: int):
        """Normal form of b_i = (theta-1)^{i-1}, 1-based."""
        if not 1 <= i <= self.rank:
            raise PresentationError(f"basis index {i} out of range 1..{self.rank}")
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def reduce(self, coeffs):
        """Normal form of an arbitrary integer coefficient vector."""
        v = list(coeffs)
        if len(v) != self.rank:
            raise PresentationError(f"expected {self.rank} coefficients")
        p = self.p
        for i in range(self.rank):
            c = v[i] % p
            q = (v[i] - c) // p
            v[i] = c
            if q:
                for k in range(2, p + 1):
                    idx = i + k - 1
                    if idx >= self.rank:
                        break
                    v[idx] -= q * self._binom[k]
        return tuple(v)

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def theta_mul(self, a):
        """Multiplication by theta = 1 + (theta-1): b_i -> b_i + b_{i+1}."""
        v = list(a)
        for i in range(self.rank - 1, 0, -1):
            v[i] += a[i - 1]
        return self.reduce(v)

    def poly_mul(self, coeffs, a):
        """Multiply by a polynomial in (theta-1); coeffs[k] goes with (theta-1)^k."""
        out = [0] * self.rank
        shifted = list(a)
        for k, c in enumerate(coeffs):
            if k >= self.rank:
                break
            if c:
                for i, x in enumerate(shifted):
                    out[i] += c * x
            shifted = [0] + shifted[:-1]
        return self.reduce(out)

    def elements(self):
        import itertools

        return itertools.product(range(self.p), repeat=self.rank)

    def __repr__(self) -> str:
        return f"RingModule(p={self.p}, n={self.n})"


def _ring_power_tails(ring: RingModule):
    """Normal forms of p * b_i, i.e. the power-relation tails inside M."""
    return [ring.reduce([ring.p if k == i else 0 for k in range(ring.rank)])
            for i in range(ring.rank)]


def certify_ring_model(pres: PcPresentation, ring: RingModule) -> None:
    """Certify `pres` consistent from its relations in the ring model;
    raise InconsistentPresentation naming the first relation that fails.

    The presentation is either the reference group, on s, s_1, ...,
    s_{n-1}, or M, on s_1, ..., s_{n-1}, where n - 1 is `ring.rank`.

    * `RingModule.reduce` is the normal-form map of a triangular lattice
      with p on the diagonal (see `cross_model_check`), so |R| = p^{n-1}.
      With x = theta - 1 and f = ((1 + x)^p - 1)/x, the rows of that
      lattice are x^{i-1} f cut off at x^{n-1}: it is the ideal
      (f, x^{n-1}).  So theta^p - 1 = x f acts on R as 0, and
      (a, m)(b, m') = (a + b, theta^b m + m') is a group C_p x| R of
      order p^n.
    * Send s to (1, 0) and s_i to (0, b_i).  Then (1, 0)^p = 1,
      (0, m)^p = (0, p m), [(0, m), (1, 0)] = (0, (theta - 1) m) and
      [(0, m), (0, m')] = 1.  On normal forms the map is the identity on
      exponent vectors, e <-> (e_1, (e_2, ..., e_n)), so the relations
      hold in the model exactly when s^p = 1, the power tail of s_i is
      the normal form of p b_i, the tail of [s_i, s] is (theta - 1) b_i
      and no other commutator tail exists.  For M only the power tails
      and the absence of commutator tails are compared.
    * The images (1, 0) and (0, b_i) generate the model.  By von Dyck's
      theorem the presented group maps onto it, a group of order p^n
      (p^{n-1} for M).  A presentation on n generators of relative order
      p has at most p^n normal forms, so it has exactly p^n: it is
      consistent.

    That is O(n) ring reductions and no collection.  The overlap test
    (`PcPresentation.consistency_check`) is this certificate's oracle in
    the tests.
    """
    acting = pres.n - ring.rank  # 1 when a_1 stands for s
    if pres.p != ring.p or acting not in (0, 1):
        raise PresentationError(f"{pres!r} does not match {ring!r}")
    if acting and any(pres.power_tails[0]):
        raise InconsistentPresentation("a_1^p = tail fails in the ring model")
    expected = {}
    for i in range(1, ring.rank + 1):
        k = i + acting
        b = ring.basis(i)
        # p b_i is reduced here, not taken from `_ring_power_tails`, so that
        # the builders' tails are checked rather than compared with themselves
        if pres.power_tails[k - 1][acting:] != ring.reduce([ring.p * c for c in b]):
            raise InconsistentPresentation(f"a_{k}^p = tail fails in the ring model")
        if acting:
            comm = ring.poly_mul((0, 1), b)
            if any(comm):
                expected[(k, 1)] = (0,) + comm
    for j, i in sorted(expected.keys() | pres.commutator_tails.keys()):
        if pres.commutator_tail(j, i) != expected.get((j, i), pres.identity):
            raise InconsistentPresentation(
                f"[a_{j}, a_{i}] = tail fails in the ring model")


def build_m_presentation(p: int, n: int) -> PcPresentation:
    """M = <s_1, ..., s_{n-1}> as an abelian pc presentation of order
    p^{n-1}, certified by `certify_ring_model`."""
    ring = RingModule(p, n)
    pts = [list(t) for t in _ring_power_tails(ring)]
    labels = tuple(f"s_{i}" for i in range(1, n))
    pres = PcPresentation(p, ring.rank, pts, {}, labels=labels)
    certify_ring_model(pres, ring)
    return pres


def reference_tails(ring: RingModule):
    """The power tails and the nonzero commutator tails of the reference
    group on s, s_1, ..., s_{n-1}, where n - 1 is `ring.rank`: s^p = 1, the
    tail of s_i^p is the normal form of p b_i, and [s_{j-1}, s] = s_j for
    2 <= j < n.  Uncertified; `build_blackburn_pc` certifies them."""
    n = ring.rank + 1
    zero = (0,) * n
    pts = [zero] + [(0,) + t for t in _ring_power_tails(ring)]
    cts = {(j, 1): zero[:j] + (1,) + zero[j + 1:] for j in range(2, n)}
    return pts, cts


def build_blackburn_pc(p: int, n: int) -> PcPresentation:
    """The metabelian maximal-class group of order p^n, as a pc presentation.

    Generator 1 is s, generator i+1 is s_i.  The power tails of the s_i are
    produced by ring-model reduction (the raw exponents C(p,k) are >= p and
    must be collected), see `reference_tails`.  The result is certified
    consistent by `certify_ring_model`: its relations hold in C_p x| R, a
    group of order p^n.  That takes O(n) ring reductions, where the overlap
    test takes O(n^3) collections.
    """
    if n < 4:
        raise PresentationError(f"need n >= 4, got {n}")
    ring = RingModule(p, n)
    pts, cts = reference_tails(ring)
    labels = ("s",) + tuple(f"s_{i}" for i in range(1, n))
    pres = PcPresentation(p, n, pts, cts, labels=labels)
    certify_ring_model(pres, ring)
    return pres


def sigma(p: int, n: int, m_pres: PcPresentation | None = None) -> GroupMap:
    """The automorphism s_i -> s_i * s_{i+1} of M (s_{n-1} is fixed)."""
    m = m_pres or build_m_presentation(p, n)
    images = []
    for i in range(m.n):
        vec = [0] * m.n
        vec[i] = 1
        if i + 1 < m.n:
            vec[i + 1] = 1
        images.append(m.element(vec))
    gmap = check_homomorphism(m, images)
    # The Frattini subgroup of M is M^p = <s_p, ..., s_{n-1}>, see
    # `abelian_invariants`.
    return certify_automorphism(gmap, range(p, m.n + 1))


class SigmaReport(NamedTuple):
    ok: bool
    is_automorphism: bool
    order_is_p: bool
    matches_theta: bool
    failure: str | None = None


def verify_sigma(p: int, n: int) -> SigmaReport:
    """sigma has order exactly p and agrees with theta-multiplication."""
    ring = RingModule(p, n)
    m = build_m_presentation(p, n)
    try:
        s = sigma(p, n, m)
    except HomCheckFailed as exc:
        return SigmaReport(False, False, False, False, f"sigma fails {exc.relation} on M")
    is_auto = s.kind == "automorphism"
    # order p: sigma^p fixes every generator, sigma is not the identity
    powers = s
    for _ in range(p - 1):
        powers = powers.then(s)
    order_is_p = all(
        powers.evaluate(g) == g for g in m.generators
    ) and not s.is_identity()
    matches = all(
        tuple(s.evaluate(m.element(ring.basis(i)))) == ring.theta_mul(ring.basis(i))
        for i in range(1, ring.rank + 1)
    )
    ok = is_auto and order_is_p and matches
    failure = None if ok else "sigma does not behave as expected"
    return SigmaReport(ok, is_auto, order_is_p, matches, failure)


class CrossModelReport(NamedTuple):
    ok: bool
    pairs_checked: int
    equivariance_checked: int
    failure: str | None = None


def cross_model_check(p: int, n: int) -> CrossModelReport:
    """The dictionary s_i <-> b_i is a sigma/theta-equivariant isomorphism
    between M and the additive group of the ring.

    Certificate, p^{n-1} (n-1) translations and n-1 basis images instead of
    all p^{2(n-1)} pairs:

    * `RingModule.reduce` only subtracts integer multiples of the rows of
      a triangular relation lattice with p on the diagonal and returns
      entries in [0, p), so it is the normal-form map of a group R of
      order p^{n-1}, and `ring.add` is its operation on normal forms.
    * The check ring.add(u, b_i) == u * s_i for every normal form u and
      every i says that the dictionary, the identity on exponent vectors,
      turns right translation by s_i into translation by b_i.  Writing y
      as a product of generators, u * y then agrees with u + y letter by
      letter, so the dictionary is a homomorphism; it is a bijection
      between two groups of order p^{n-1}.
    * sigma is an automorphism of M and theta-multiplication is additive
      on R (theta maps the relation lattice, an ideal, into itself), so
      both are additive maps, and two additive maps that agree on a basis
      agree everywhere: sigma <-> theta is checked on b_1, ..., b_{n-1}.
    """
    ring = RingModule(p, n)
    m = build_m_presentation(p, n)
    try:
        s = sigma(p, n, m)
    except HomCheckFailed as exc:
        return CrossModelReport(False, 0, 0, f"sigma fails {exc.relation} on M")
    basis = [ring.basis(i) for i in range(1, ring.rank + 1)]
    pairs = 0
    for u in ring.elements():
        x = m.element(u)
        for i, (b, gen) in enumerate(zip(basis, m.generators), start=1):
            if tuple(m.multiply(x, gen)) != ring.add(u, b):
                return CrossModelReport(False, pairs, 0,
                                        f"addition disagrees at {u}, b_{i}")
            pairs += 1
    for i, b in enumerate(basis, start=1):
        if tuple(s.evaluate(m.element(b))) != ring.theta_mul(b):
            return CrossModelReport(False, pairs, i - 1,
                                    f"theta equivariance fails at b_{i}")
    return CrossModelReport(True, pairs, len(basis))


def abelian_invariants(p: int, n: int):
    """Orders of the invariant factors of M, in ascending order.

    With x = theta - 1, f = ((1 + x)^p - 1)/x is Eisenstein, so p is a
    unit times x^{p-1}, and p b_i is a unit times b_{i+p-1} plus higher
    terms.  Hence M^{p^k} = <s_{1+k(p-1)}, ..., s_{n-1}> has order
    p^{max(0, n-1-k(p-1))}, and M^{p^k}/M^{p^{k+1}} has rank p - 1 while
    (k + 1)(p - 1) <= n - 1.  Writing n - 1 = q(p - 1) + r with
    0 <= r < p - 1, the factors are r of order p^{q+1} and, when q >= 1,
    p - 1 - r of order p^q.
    """
    RingModule(p, n)  # validates p and n
    q, r = divmod(n - 1, p - 1)
    return [p ** q] * ((p - 1 - r) if q else 0) + [p ** (q + 1)] * r


def module_derivation_from_polynomial(p, n, coeffs, pres=None):
    """Derivation of the reference group into M determined by a polynomial.

    The derivation kills s and sends s_1 to (polynomial)(theta) * b_1,
    extended theta-equivariantly; it is validated by the homomorphism check
    on its companion endomorphism.  `coeffs[k]` multiplies (theta-1)^k.
    """
    from .derivations import make_derivation

    g = pres or build_blackburn_pc(p, n)
    ring = RingModule(p, n)
    a_subgroup = g.suffix_subgroup(2)
    val = ring.poly_mul(list(coeffs)[: ring.rank] + [0] * max(0, ring.rank - len(coeffs)),
                        ring.basis(1))
    v = g.element((0,) + tuple(val))
    return make_derivation(g, a_subgroup, g.identity, v)
