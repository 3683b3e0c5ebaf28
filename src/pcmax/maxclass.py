"""Structure analysis for p-groups of maximal class.

A group of order p^n has maximal class when its nilpotency class is n - 1;
the lower central series then has |G : G_2| = p^2 and layers of order p
below that.  By the engine's convention generator 1 is an element s
outside the distinguished maximal subgroup, generator 2 is s_1 and
generator i+1 is s_i = [s_{i-1}, s].  That the series terms are the suffix
subgroups G_i = <a_{i+1}, ..., a_n> is certified from the tails by
`chain_series`, not assumed.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import PreconditionRefused, PresentationError
from .pcgroup import Element, PcPresentation, SeriesChain, Subgroup


class MaxClassReport(NamedTuple):
    ok: bool
    order_exponent: int
    nilpotency_class: int
    layer_orders: tuple
    series: SeriesChain     # the lower central series
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _layers_spanned(pres: PcPresentation, stop: int) -> bool:
    """For 2 <= k < stop, some tail [a_k, a_j], j < k, has a nonzero a_{k+1}
    coordinate, i.e. [Gamma_k, G] Gamma_{k+2} = Gamma_{k+1}."""
    return all(any(pres.commutator_tail(k, j)[k] for j in range(1, k))
               for k in range(2, stop))


def chain_series(pres: PcPresentation) -> SeriesChain | None:
    """The lower central series G, Gamma_3, ..., Gamma_{n+1} = 1 of a
    consistent presentation, certified from its tails; None if it fails.

    The support rules make the suffixes Gamma_k = <a_k, ..., a_n> a central
    series with G/Gamma_3 abelian, so gamma_k <= Gamma_{k+1} for k >= 2.
    Modulo Gamma_{k+2}, [Gamma_k, G] is spanned by the tails [a_k, a_j] with
    j < k.  If one of them has a nonzero a_{k+1} coordinate for each
    2 <= k < n, induction gives gamma_k Gamma_{k+2} = Gamma_{k+1}, so
    gamma_{n-1} = Gamma_n and, downwards, gamma_k = Gamma_{k+1}.  By
    orders, for n >= 2 that holds exactly when the group has maximal
    class.  n^2/2 tail lookups and no group arithmetic.
    """
    n = pres.n
    if n < 2 or not _layers_spanned(pres, n):
        return None
    return SeriesChain(pres, [pres.suffix_subgroup(k) for k in (1, *range(3, n + 2))])


def validate_maximal_class(pres: PcPresentation) -> MaxClassReport:
    """Confirm class n-1 with layer sizes p^2, p, ..., p along the lower
    central series of a consistent presentation.

    The group has maximal class exactly when `chain_series` certifies the
    suffix chain as its series; only otherwise is the series computed by
    normal closures, for the report's layer orders and failure.
    """
    series = chain_series(pres) or pres.lower_central_series()
    n = pres.n
    cls = series.nilpotency_class()
    exps = series.order_exponents()
    if cls != n - 1:
        return MaxClassReport(False, n, cls, exps, series,
                              f"nilpotency class {cls} != {n - 1}")
    if n >= 2 and exps[0] - exps[1] != 2:
        return MaxClassReport(False, n, cls, exps, series,
                              f"|G : G_2| = p^{exps[0] - exps[1]} != p^2")
    for i in range(2, n):
        if exps[i - 1] - exps[i] != 1:
            return MaxClassReport(False, n, cls, exps, series,
                                  f"|G_{i} : G_{i + 1}| != p")
    return MaxClassReport(True, n, cls, exps, series)


def compute_G1(pres: PcPresentation) -> Subgroup:
    """The distinguished maximal subgroup G_1 = C_G(G_2/G_4), read off the
    tails [a_3, a_1] and [a_3, a_2].

    If the layer condition of `chain_series` fails for some k <= 4, the top
    layers of the series are not of order p^2, p, p.  Otherwise let psi(g)
    be the a_4 coordinate of [a_3, g].  As Gamma_4/Gamma_5 is central, psi
    is a homomorphism G -> F_p; it kills Gamma_3, and it is nonzero by the
    condition at k = 3.  Gamma_3 is <a_3> modulo Gamma_4 and [Gamma_4, G]
    <= Gamma_5, so ker psi = C_G(Gamma_3/Gamma_5) =
    <a_1^psi(a_2) a_2^-psi(a_1), Gamma_3>, whose echelon basis is written
    down directly.  On a group of maximal class G_2 = Gamma_3 and G_4 =
    Gamma_5, so this is G_1.  `PcPresentation.centralizer_mod`, which walks
    the p^4 cosets of G_4, is the exhaustive reference the tests compare
    this with.
    """
    n, p = pres.n, pres.p
    if n < 4:
        raise PresentationError("the distinguished maximal subgroup needs n >= 4")
    if not _layers_spanned(pres, min(n, 5)):
        raise PresentationError(
            "the distinguished maximal subgroup needs top layers of order p^2, p, p")
    psi1, psi2 = pres.commutator_tail(3, 1)[3], pres.commutator_tail(3, 2)[3]
    head = (1, -psi1 * pow(psi2, -1, p) % p) if psi2 else (0, 1)
    return Subgroup(pres, [Element(head + (0,) * (n - 2)), *pres.generators[2:]])


def degree_of_commutativity(pres: PcPresentation, series: SeriesChain,
                            G1: Subgroup) -> int:
    """Largest l <= n - 3 with [G_i, G_j] <= G_{i+j+l} for all i, j >= 1,
    where G_k = 1 for k >= n.

    Let x_i be the first basis member of G_i (of G_1 for i = 1), and w(c)
    the largest k with c in G_k.  Then l is the minimum L of n - 3 and of
    w([x_1, x_b]) - 1 - b over 2 <= b < n: only n - 2 commutators.  No
    other pair can lower it, because [G_i, G_j] <= G_{i+j+L} for all i, j:

    * i = 1, by downward induction on j (G_n = 1).  G_1 = <x_1> G_2 and
      G_j = <x_j> G_{j+1}, so X = [G_1, G_j] lies in the normal closure of
      the [x_1, x_b] with b >= j, times [G_2, G_j].  By the three-subgroup
      lemma, with G_2 = [G_1, G], [G_2, G_j] <= [G_{j+1}, G_1] [X, G].  So
      X <= N [X, G] with N = G_{1+j+L} normal, and G is nilpotent: X <= N.
    * i >= 2, by induction on i: G_i = [G_{i-1}, G], so by the same lemma
      [G_i, G_j] <= [G_{j+1}, G_{i-1}] [[G_{i-1}, G_j], G].

    The brute-force minimum over all C(n-1, 2) pairs [x_a, x_b] is the test
    oracle.  `series` is the suffix chain that `chain_series` certifies as
    the lower central series, so G_k = <a_{k+1}, ..., a_n> for k >= 2.
    [x_1, x_b] lies in G_{b+1} <= G_2, where c lies in G_k exactly when
    c = 1 or its leading index exceeds k: w(c) is that index minus 1, and
    c = 1 lowers nothing.
    """
    n = pres.n
    l = n - 3
    x1 = G1.basis[0]
    for b in range(2, n):
        c = pres.commutator(x1, series.term(b).basis[0])
        if any(c):
            l = min(l, c.leading_index() - 2 - b)
    if l < 0:
        raise PresentationError("no degree of commutativity >= 0; input is not maximal class")
    return l


def standard_generators(pres: PcPresentation, series: SeriesChain, G1: Subgroup):
    """Deterministic choice of s, s_1 and the chain s_{i+1} = [s_i, s].

    s is the first presentation generator outside G_1 and s_1 the first one
    in G_1 but not G_2; the chain must span the series (s_i generates G_i
    modulo G_{i+1}), which holds when n > p + 1 or the group is metabelian.
    It then ends: s_{n-1} lies in G_{n-1}, the last nontrivial term of the
    lower central series, which is central, so [s_{n-1}, s] = 1.
    """
    n = pres.n
    s = next((g for g in pres.generators if not G1.contains(g)), None)
    if s is None:
        raise PresentationError("no generator outside the distinguished maximal subgroup")
    G2 = series.term(2)
    s1 = next((g for g in pres.generators if G1.contains(g) and not G2.contains(g)), None)
    if s1 is None:
        raise PresentationError("no generator in G_1 outside G_2")
    chain = [s1]
    for i in range(1, n - 1):
        chain.append(pres.commutator(chain[-1], s))
    for i in range(1, n):
        inside = G1 if i == 1 else series.term(i)
        upper = series.term(i + 1)
        if not inside.contains(chain[i - 1]) or upper.contains(chain[i - 1]):
            raise PresentationError(
                f"chain element s_{i} does not generate G_{i} modulo G_{i + 1}"
            )
    return s, s1, tuple(chain)


class MaxClassProfile(NamedTuple):
    """The named structural data of one maximal-class group."""

    pres: PcPresentation
    series: SeriesChain
    G1: Subgroup
    s: Element
    s1: Element
    s_chain: tuple          # s_1, ..., s_{n-1}
    l: int                  # degree of commutativity
    r: int                  # n - l - 1
    t: int                  # max(n - l - 1, ceil((n+1)/2))
    A: Subgroup             # G_r
    N: Subgroup             # G_{l+2}
    metabelian: bool
    chain_spans: bool

    def G(self, i: int) -> Subgroup:
        """Series accessor: G(1) is the distinguished maximal subgroup,
        G(i) for i >= 2 the series term, trivial from index n on."""
        if i <= 0:
            return self.pres.full_subgroup()
        if i == 1:
            return self.G1
        return self.series.term(i)

    def chain_element(self, i: int) -> Element:
        """s_i, with s_i = 1 for i >= n."""
        if i < 1:
            raise PresentationError("chain index must be >= 1")
        if i >= self.pres.n:
            return self.pres.identity
        return self.s_chain[i - 1]


def build_profile(pres: PcPresentation, require_chain: bool = False) -> MaxClassProfile:
    """Compute the full profile of a consistent presentation; raises when
    the input is not maximal class (or, with require_chain, when the
    generator chain does not span).  On a group of maximal class the
    validated series is the suffix chain certified by `chain_series`.

    The group is metabelian when G_2 = Gamma_3 = <a_3, ..., a_n> is abelian,
    that is when its generators commute pairwise.  On a consistent
    presentation [a_j, a_i] is its tail, so that holds exactly when no
    nonzero tail [a_j, a_i] has i >= 3."""
    report = validate_maximal_class(pres)
    if not report.ok:
        raise PresentationError(f"not a group of maximal class: {report.failure}")
    series = report.series
    n = pres.n
    G1 = compute_G1(pres)
    l = degree_of_commutativity(pres, series, G1)
    r = n - l - 1
    t = max(r, (n + 2) // 2)  # ceil((n+1)/2)
    metabelian = all(i < 3 for _, i in pres.commutator_tails)
    chain_spans = True
    try:
        s, s1, chain = standard_generators(pres, series, G1)
    except PresentationError:
        if require_chain:
            raise
        chain_spans = False
        s, s1 = pres.generators[0], pres.generators[1]
        chain = tuple([s1] + [pres.identity] * (n - 2))
    return MaxClassProfile(
        pres=pres, series=series, G1=G1, s=s, s1=s1, s_chain=chain,
        l=l, r=r, t=t, A=series.term(r), N=series.term(l + 2),
        metabelian=metabelian, chain_spans=chain_spans,
    )


class ExponentReport(NamedTuple):
    ok: bool
    exact_from: int          # smallest i >= 1 such that the relation is exact for all j >= i
    congruence_all: bool     # product lies in N for every i >= 1
    head_congruences: bool   # s^p and (s s_1)^p lie in N
    required_exact_from: int
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def exponent_relation_value(pres: PcPresentation, profile: MaxClassProfile,
                            i: int) -> Element:
    """The product s_i^p s_{i+1}^C(p,2) ... s_{i+p-1}^C(p,p), read with the
    convention s_j = 1 for j >= n."""
    p = pres.p
    acc = pres.identity
    for k in range(1, p + 1):
        g = profile.chain_element(i + k - 1)
        if any(g):
            acc = pres.multiply(acc, pres.power(g, comb(p, k)))
    return acc


def verify_exponent_relations(pres: PcPresentation, profile: MaxClassProfile) -> ExponentReport:
    """Exact power relations for i >= r; congruences modulo N for all i >= 1.

    The exact relation encodes that s and s*s_i are conjugate for i >= r, so
    their p-th powers agree; modulo N the same holds from i = 1 on, including
    the degenerate cases s^p = (s s_1)^p = 1 mod N.
    """
    n = pres.n
    N = profile.N
    exact = []
    in_n = []
    for i in range(1, n):
        val = exponent_relation_value(pres, profile, i)
        exact.append(val.is_identity())
        in_n.append(N.contains(val))
    exact_from = n
    for i in range(n - 1, 0, -1):
        if exact[i - 1]:
            exact_from = i
        else:
            break
    head = N.contains(pres.power(profile.s, pres.p)) and N.contains(
        pres.power(pres.multiply(profile.s, profile.s1), pres.p)
    )
    congruence_all = all(in_n)
    ok = exact_from <= profile.r and congruence_all and head
    failure = None
    if not ok:
        failure = (f"exact from {exact_from} (need <= {profile.r}); "
                   f"congruences {'ok' if congruence_all else 'fail'}; "
                   f"head {'ok' if head else 'fail'}")
    return ExponentReport(ok, exact_from, congruence_all, head, profile.r, failure)


class ConjugacyReport(NamedTuple):
    ok: bool
    orbit_size: int | None   # p^{n-2} when the class is certified
    expected_orbit: int
    orbit_is_coset: bool
    power_in_last_term: bool
    centralizer_checked: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def conjugacy_facts(pres: PcPresentation, profile: MaxClassProfile,
                    g: Element) -> ConjugacyReport:
    """For g outside G_1: the conjugacy class of g is the coset g G_2, the
    p-th power of g is central, and <g, G_{n-1}> centralizes g.

    The class is certified by n - 2 commutators, not by walking it.  Let
    x_i be the first basis member of G_i (of G_1 for i = 1), so that x_i
    spans G_i/G_{i+1}, and check [x_i, g] in G_{i+1} minus G_{i+2} for
    1 <= i <= n-2.  If all hold, x -> [x, g] maps each layer
    G_i/G_{i+1} injectively into G_{i+1}/G_{i+2}, so by the chain argument
    of `autom.h_cap_inn_check` (every h is g^a y with y in G_1, and
    [g^a y, g] = [y, g]) C_G(g) <= <g>G_{n-1}, a group of order p^2.  The
    class then has p^{n-2} members, and as G/G_2 is abelian it lies in
    g G_2, which has p^{n-2} members too.  If the check fails at layer i,
    then g and G_i = <x_i>G_{i+1} centralize g modulo G_{i+2}, as
    G_{i+1}/G_{i+2} is central: a subgroup of order >= p^3 of G/G_{i+2}.
    The class of g there has fewer members than the p^i of g G_2/G_{i+2},
    so the class of g is not g G_2 either.
    """
    if profile.G1.contains(g):
        raise PresentationError("the element lies in the distinguished maximal subgroup")
    n = pres.n
    expected = pres.p ** (n - 2)
    orbit_is_coset = True
    for i in range(1, n - 1):
        c = pres.commutator(profile.G(i).basis[0], g)
        if not profile.G(i + 1).contains(c) or profile.G(i + 2).contains(c):
            orbit_is_coset = False
            break
    power_central = profile.G(n - 1).contains(pres.power(g, pres.p))
    zentr = all(pres.commutator(g, z).is_identity() for z in profile.G(n - 1).basis)
    ok = orbit_is_coset and power_central and zentr
    failure = None if ok else "conjugacy facts do not hold"
    return ConjugacyReport(ok, expected if orbit_is_coset else None, expected,
                           orbit_is_coset, power_central, zentr, failure)


def require_theorem_hypotheses(pres: PcPresentation) -> None:
    """Drivers for the bound theorems refuse p < 5 or n <= p + 1."""
    if pres.p < 5:
        raise PreconditionRefused(
            f"the driver requires p >= 5, got p = {pres.p}"
        )
    if pres.n <= pres.p + 1:
        raise PreconditionRefused(
            f"the driver requires n > p + 1, got n = {pres.n}, p = {pres.p}"
        )
