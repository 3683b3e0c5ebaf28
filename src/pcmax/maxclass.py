"""Structure analysis for p-groups of maximal class.

A group of order p^n has maximal class when its nilpotency class is n - 1;
the lower central series then has |G : G_2| = p^2 and layers of order p
below that.  Everything in this module works with the generator ordering
convention of the engine: generator 1 is an element s outside the
distinguished maximal subgroup, generator 2 is s_1, and generator i+1 is
the chain element s_i = [s_{i-1}, s], so that the series terms are the
suffix subgroups G_i = <a_{i+1}, ..., a_n>.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import PreconditionRefused, PresentationError
from .pcgroup import Element, PcPresentation, SeriesChain, Subgroup


@dataclass
class MaxClassReport:
    ok: bool
    order_exponent: int
    nilpotency_class: int
    layer_orders: tuple
    standard_chain: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_maximal_class(pres: PcPresentation, series: SeriesChain | None = None) -> MaxClassReport:
    """Confirm class n-1 with layer sizes p^2, p, ..., p along the series.

    Also records whether the computed series terms coincide with the suffix
    subgroups of the presentation ("standard chain"), which the theorem
    drivers require.
    """
    series = series or pres.lower_central_series()
    n = pres.n
    cls = series.nilpotency_class()
    exps = series.order_exponents()
    standard = all(
        series.term(i) == pres.suffix_subgroup(i + 1) for i in range(2, len(series) + 1)
    )
    if cls != n - 1:
        return MaxClassReport(False, n, cls, exps, standard,
                              f"nilpotency class {cls} != {n - 1}")
    if n >= 2 and exps[0] - exps[1] != 2:
        return MaxClassReport(False, n, cls, exps, standard,
                              f"|G : G_2| = p^{exps[0] - exps[1]} != p^2")
    for i in range(2, n):
        if exps[i - 1] - exps[i] != 1:
            return MaxClassReport(False, n, cls, exps, standard,
                                  f"|G_{i} : G_{i + 1}| != p")
    return MaxClassReport(True, n, cls, exps, standard)


def compute_G1(pres: PcPresentation, series: SeriesChain | None = None) -> Subgroup:
    """The distinguished maximal subgroup G_1 = C_G(G_2/G_4), read off the
    top layers of the lower central series.

    Needs |G : G_2| = p^2 and |G_2 : G_3| = |G_3 : G_4| = p.  Take x, the
    first generator outside G_2, and y, the first with h = [x, y] outside
    G_3: then x, y span G/G_2 = F_p^2 and h spans G_2/G_3.  Let w span
    G_3/G_4 and psi(g) be the coordinate of [h, g] on w modulo G_4.  As
    G_3/G_4 is central in G/G_4, [h, gg'] = [h, g'][h, g]^g' makes psi a
    homomorphism G -> F_p; it kills G_2 since [G_2, G_2] <= G_4, and it is
    nonzero since [G_2, G] = G_3 > G_4.  Every element of G_2 is h^k modulo
    G_3 and [G_3, G] <= G_4, so C_G(G_2/G_4) = ker psi, which is
    <x^psi(y) y^-psi(x), G_2>: a few commutators and one subgroup closure.
    `PcPresentation.centralizer_mod`, which walks the p^4 cosets of G_4, is
    the exhaustive reference the tests compare this with.
    """
    if pres.n < 4:
        raise PresentationError("the distinguished maximal subgroup needs n >= 4")
    if series is None:
        series = pres.lower_central_series()
    G2, G3, G4 = series.term(2), series.term(3), series.term(4)
    exps = (pres.n, G2.order_exponent, G3.order_exponent, G4.order_exponent)
    if (exps[0] - exps[1], exps[1] - exps[2], exps[2] - exps[3]) != (2, 1, 1):
        raise PresentationError(
            "the distinguished maximal subgroup needs top layers of order p^2, p, p")
    x = next(g for g in pres.generators if not G2.contains(g))
    for y in pres.generators:
        h = pres.commutator(x, y)
        if not G3.contains(h):
            break
    else:
        raise PresentationError("the generators do not span G/G_2")
    w = next(b for b in G3.basis if not G4.contains(b))

    def psi(g):
        c = pres.commutator(h, g)
        for k in range(pres.p):
            if G4.contains(c):
                return k
            c = pres.solve(w, c)  # w^-1 c = c w^-1 modulo G_4
        raise PresentationError("[G_2, G] is not contained in G_3")

    psi_x, psi_y = psi(x), psi(y)
    kernel = pres.multiply(pres.power(x, psi_y), pres.power(y, -psi_x))
    return pres.subgroup_from_generators([kernel, *G2.basis])


def degree_of_commutativity(pres: PcPresentation, series: SeriesChain,
                            G1: Subgroup) -> int:
    """Largest l with [G_i, G_j] <= G_{i+j+l} for all i, j >= 1; equals n - 3
    when G_1 is abelian.

    Containments with i + j + l > n are implied for maximal class and are
    skipped; the test suite cross-checks against a full double loop.
    """
    n = pres.n
    if G1.is_abelian():
        return n - 3

    def term(i):
        if i <= 1:
            return G1 if i == 1 else pres.full_subgroup()
        return series.term(i)

    def holds(l):
        for i in range(1, n):
            for j in range(i, n):
                if i + j + l > n:
                    continue
                gi, gj, gk = term(i), term(j), term(i + j + l)
                for x in gi.basis:
                    for y in gj.basis:
                        if not gk.contains(pres.commutator(x, y)):
                            return False
        return True

    for l in range(n - 3, -1, -1):
        if holds(l):
            return l
    raise PresentationError("no degree of commutativity >= 0; input is not maximal class")


def standard_generators(pres: PcPresentation, series: SeriesChain, G1: Subgroup):
    """Deterministic choice of s, s_1 and the chain s_{i+1} = [s_i, s].

    s is the first presentation generator outside G_1 and s_1 the first one
    in G_1 but not G_2; the chain must span the series (s_i generates G_i
    modulo G_{i+1}), which holds when n > p + 1 or the group is metabelian.
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
    if any(pres.commutator(chain[-1], s)):
        raise PresentationError("chain does not terminate at the last series term")
    return s, s1, tuple(chain)


@dataclass
class MaxClassProfile:
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


def build_profile(pres: PcPresentation, require_chain: bool = False,
                  series: SeriesChain | None = None) -> MaxClassProfile:
    """Compute the full profile; raises when the input is not maximal class
    (or, with require_chain, when the generator chain does not span).
    Callers that already hold the lower central series pass it in."""
    if series is None:
        series = pres.lower_central_series()
    report = validate_maximal_class(pres, series)
    if not report.ok:
        raise PresentationError(f"not a group of maximal class: {report.failure}")
    if not report.standard_chain:
        raise PresentationError(
            "series terms do not match the suffix subgroups; reorder the "
            "generators to the standard convention"
        )
    n = pres.n
    G1 = compute_G1(pres, series)
    l = degree_of_commutativity(pres, series, G1)
    r = n - l - 1
    t = max(r, (n + 2) // 2)  # ceil((n+1)/2)
    metabelian = series.term(2).is_abelian()
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


@dataclass
class ExponentReport:
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


@dataclass
class ConjugacyReport:
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
