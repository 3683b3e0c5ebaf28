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

from dataclasses import dataclass
from math import comb

from .errors import InconsistentPresentation, PresentationError
from .homs import GroupMap, certify_automorphism, check_homomorphism
from .pcgroup import ALLOWED_PRIMES, PcPresentation

__all__ = [
    "RingModule", "build_m_presentation", "build_blackburn_pc", "sigma",
    "verify_sigma",
    "cross_model_check", "abelian_invariants",
    "module_derivation_from_polynomial", "theta_poly_to_shifted",
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

    def negate(self, a):
        return self.reduce([-x for x in a])

    def scalar_mul(self, c: int, a):
        return self.reduce([c * x for x in a])

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


def theta_poly_to_shifted(p: int, coeffs):
    """Rewrite a polynomial given on powers of theta onto powers of (theta-1)."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        # theta^k = (1 + (theta-1))^k
        for j in range(k + 1):
            if j < len(out):
                out[j] += c * comb(k, j)
    return [c % p for c in out]


def _ring_power_tails(ring: RingModule):
    """Normal forms of p * b_i, i.e. the power-relation tails inside M."""
    return [ring.reduce([ring.p if k == i else 0 for k in range(ring.rank)])
            for i in range(ring.rank)]


def build_m_presentation(p: int, n: int) -> PcPresentation:
    """M = <s_1, ..., s_{n-1}> as an abelian pc presentation of order p^{n-1}."""
    ring = RingModule(p, n)
    pts = [list(t) for t in _ring_power_tails(ring)]
    labels = tuple(f"s_{i}" for i in range(1, n))
    pres = PcPresentation(p, ring.rank, pts, {}, labels=labels)
    report = pres.consistency_check()
    if not report.ok:
        raise InconsistentPresentation(f"M presentation inconsistent: {report.failure}")
    return pres


def build_blackburn_pc(p: int, n: int) -> PcPresentation:
    """The metabelian maximal-class group of order p^n, as a pc presentation.

    Generator 1 is s, generator i+1 is s_i.  The power tails of the s_i are
    produced by ring-model reduction (the raw exponents C(p,k) are >= p and
    must be collected); a consistency failure here would indicate an
    implementation bug and is surfaced loudly.
    """
    if n < 4:
        raise PresentationError(f"need n >= 4, got {n}")
    ring = RingModule(p, n)
    m_tails = _ring_power_tails(ring)
    zero = (0,) * n
    pts = [zero]  # s^p = 1
    for i in range(ring.rank):
        pts.append((0,) + tuple(m_tails[i]))
    cts = {}
    for j in range(2, n):
        vec = [0] * n
        vec[j] = 1
        cts[(j, 1)] = tuple(vec)  # [s_{j-1}, s] = s_j
    labels = ("s",) + tuple(f"s_{i}" for i in range(1, n))
    pres = PcPresentation(p, n, pts, cts, labels=labels)
    report = pres.consistency_check()
    if not report.ok:
        raise InconsistentPresentation(
            f"constructed presentation inconsistent: {report.failure}"
        )
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
    return certify_automorphism(gmap)


@dataclass
class SigmaReport:
    ok: bool
    is_automorphism: bool
    order_is_p: bool
    matches_theta: bool
    failure: str | None = None


def verify_sigma(p: int, n: int) -> SigmaReport:
    """sigma has order exactly p and agrees with theta-multiplication."""
    ring = RingModule(p, n)
    m = build_m_presentation(p, n)
    s = sigma(p, n, m)
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


@dataclass
class CrossModelReport:
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
    s = sigma(p, n, m)
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
    """Orders of the invariant factors of M, extracted by powering.

    The rank of M^{p^k} / M^{p^{k+1}} counts invariant factors of order
    > p^k, which pins down the factor multiset exactly.
    """
    m = build_m_presentation(p, n)
    layer_ranks = []
    gens = list(m.generators)
    while True:
        sub = m.subgroup_from_generators(gens)
        layer_ranks.append(sub.order_exponent)
        if sub.order_exponent == 0:
            break
        gens = [m.power(b, p) for b in sub.basis]
    # layer_ranks[k] = log_p |M^{p^k}|
    factors = []
    for k in range(len(layer_ranks) - 1):
        count_gt = layer_ranks[k] - layer_ranks[k + 1]
        factors.append(count_gt)
    # factors[k] = number of invariant factors of order > p^k
    orders = []
    for k in range(len(factors) - 1, -1, -1):
        extra = factors[k] - (factors[k + 1] if k + 1 < len(factors) else 0)
        orders.extend([p ** (k + 1)] * extra)
    return sorted(orders)


def module_derivation_from_polynomial(p, n, coeffs, pres=None, basis="theta-1"):
    """Derivation of the reference group into M determined by a polynomial.

    The derivation kills s and sends s_1 to (polynomial)(theta) * b_1,
    extended theta-equivariantly; it is validated by the homomorphism check
    on its companion endomorphism.  `coeffs[k]` multiplies (theta-1)^k, or
    theta^k with basis="theta".
    """
    from .derivations import make_derivation

    if basis == "theta":
        coeffs = theta_poly_to_shifted(p, coeffs)
    elif basis != "theta-1":
        raise PresentationError(f"unknown polynomial basis {basis!r}")
    g = pres or build_blackburn_pc(p, n)
    ring = RingModule(p, n)
    a_subgroup = g.suffix_subgroup(2)
    val = ring.poly_mul(list(coeffs)[: ring.rank] + [0] * max(0, ring.rank - len(coeffs)),
                        ring.basis(1))
    v = g.element((0,) + tuple(val))
    return make_derivation(g, a_subgroup, g.identity, v)
