"""Structure analysis for p-groups of maximal class.

A group of order p^n has maximal class when its nilpotency class is n - 1;
the lower central series then has |G : G_2| = p^2 and layers of order p
below that.  By the engine's convention generator 1 is an element s
outside the distinguished maximal subgroup, generator 2 is s_1 and
generator i+1 is s_i = [s_{i-1}, s]; `standard_generators` checks it.  That
the series terms are the suffix subgroups G_i = <a_{i+1}, ..., a_n> is
certified from the tails by `validate_maximal_class`, not assumed.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import PreconditionRefused, PresentationError
from .pcgroup import Element, PcPresentation, Subgroup


class MaxClassReport(NamedTuple):
    ok: bool
    pres: PcPresentation
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def first_unspanned_layer(pres: PcPresentation, stop: int) -> int | None:
    """The first 2 <= k < stop for which no tail [a_k, a_j], j < k, has a
    nonzero a_{k+1} coordinate, i.e. [Gamma_k, G] Gamma_{k+2} !=
    Gamma_{k+1}; None if there is none."""
    return next((k for k in range(2, stop)
                 if not any(pres.commutator_tail(k, j)[k] for j in range(1, k))),
                None)


def validate_maximal_class(pres: PcPresentation) -> MaxClassReport:
    """Decide from the tails whether a consistent presentation has maximal
    class, and if so certify its lower central series as the suffix chain
    G, Gamma_3, ..., Gamma_{n+1} = 1.

    The support rules make the suffixes Gamma_k = <a_k, ..., a_n> a central
    series with G/Gamma_3 abelian, so gamma_k <= Gamma_{k+1} for k >= 2.
    Modulo Gamma_{k+2}, [Gamma_k, G] is spanned by the tails [a_k, a_j] with
    j < k.  If one of them has a nonzero a_{k+1} coordinate for each
    2 <= k < n, induction gives gamma_k Gamma_{k+2} = Gamma_{k+1}, so
    gamma_{n-1} = Gamma_n and, downwards, gamma_k = Gamma_{k+1}.  By
    orders, for n >= 2 that holds exactly when the group has maximal
    class; the failure names the first layer k where it does not.  n^2/2
    tail lookups and no group arithmetic.
    """
    if pres.n == 1:
        return MaxClassReport(False, pres, "nilpotency class 1 != 0")
    k = first_unspanned_layer(pres, pres.n)
    if k is not None:
        return MaxClassReport(False, pres, (
            f"no tail [a_{k}, a_j], j < {k}, has a nonzero a_{k + 1} coordinate: "
            f"[Gamma_{k}, G] Gamma_{k + 2} != Gamma_{k + 1}"))
    return MaxClassReport(True, pres)


def compute_G1(pres: PcPresentation) -> Subgroup:
    """The distinguished maximal subgroup G_1 = C_G(G_2/G_4), read off the
    tails [a_3, a_1] and [a_3, a_2].

    If `first_unspanned_layer` finds a layer k <= 4, the top layers of the
    series are not of order p^2, p, p.  Otherwise let psi(g) be the a_4
    coordinate of [a_3, g].  As Gamma_4/Gamma_5 is central, psi is a
    homomorphism G -> F_p; it kills Gamma_3, and it is nonzero by the
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
    if first_unspanned_layer(pres, min(n, 5)) is not None:
        raise PresentationError(
            "the distinguished maximal subgroup needs top layers of order p^2, p, p")
    psi1, psi2 = pres.commutator_tail(3, 1)[3], pres.commutator_tail(3, 2)[3]
    head = (1, -psi1 * pow(psi2, -1, p) % p) if psi2 else (0, 1)
    return Subgroup(pres, [Element(head + (0,) * (n - 2)), *pres.generators[2:]])


def degree_of_commutativity(pres: PcPresentation, G1: Subgroup) -> int:
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
    oracle.  On a group of maximal class G_k = <a_{k+1}, ..., a_n> for
    k >= 2 (see `validate_maximal_class`), so x_b = a_{b+1}.  [x_1, x_b]
    lies in G_{b+1} <= G_2, where c lies in G_k exactly when c = 1 or its
    leading index exceeds k: w(c) is that index minus 1, and c = 1 lowers
    nothing.

    When x_1 = a_2, that is psi(a_2) = 0 in `compute_G1`, as
    `standard_generators` and every driver require, [x_1, x_b] =
    [a_{b+1}, a_2]^-1, and an inverse has the leading index of what it
    inverts; on a consistent presentation [a_{b+1}, a_2] is its tail, so l
    is read off the tails without collection.  Otherwise the n - 2
    commutators are collected.
    """
    n = pres.n
    l = n - 3
    x1 = G1.basis[0]
    on_tails = x1 == pres.generators[1]
    for b in range(2, n):
        c = (pres.commutator_tail(b + 1, 2) if on_tails
             else pres.commutator(x1, pres.generators[b]))
        if any(c):
            l = min(l, c.leading_index() - 2 - b)
    if l < 0:
        raise PresentationError("no degree of commutativity >= 0; input is not maximal class")
    return l


def standard_generators(pres: PcPresentation, G1: Subgroup):
    """s = a_1, s_1 = a_2 and the chain s_1, ..., s_{n-1} = a_2, ..., a_n,
    on a presentation of maximal class with the standard chain
    [a_i, a_1] = a_{i+1} and a_2 in G_1; raises otherwise.

    This is the engine's generator convention.  Under the standard chain
    psi(a_1) = 1 (see `compute_G1`), so a_1 lies outside G_1, and
    s_{i+1} = [s_i, s] = a_{i+2} is a defining relation, with
    [a_n, a_1] = 1.  s_i = a_{i+1} spans G_i/G_{i+1}, as G_i =
    <a_{i+1}, ..., a_n> for i >= 2 and a_2 lies in G_1 outside G_2.  A
    search taking s as the first generator outside G_1 and s_1 as the first
    in G_1 but not G_2 finds this triple or nothing: a_3, ..., a_n lie in
    G_2.
    """
    if not pres.has_standard_chain():
        raise PresentationError(
            "presentation does not follow the standard chain convention "
            "a_{i+1} = [a_i, a_1]")
    if not G1.contains(pres.generators[1]):
        raise PresentationError("no generator in G_1 outside G_2")
    return pres.generators[0], pres.generators[1], pres.generators[1:]


class MaxClassProfile(NamedTuple):
    """The named structural data of one maximal-class group."""

    pres: PcPresentation
    G1: Subgroup
    l: int                  # degree of commutativity
    r: int                  # n - l - 1
    t: int                  # max(n - l - 1, ceil((n+1)/2))
    metabelian: bool

    def G(self, i: int) -> Subgroup:
        """Series accessor: G(1) is the distinguished maximal subgroup,
        G(i) for i >= 2 the series term, the suffix <a_{i+1}, ..., a_n>,
        trivial from index n on."""
        if i <= 0:
            return self.pres.full_subgroup()
        if i == 1:
            return self.G1
        return self.pres.suffix_subgroup(min(i, self.pres.n) + 1)


def build_profile(report: MaxClassReport) -> MaxClassProfile:
    """The full profile of a consistent presentation, from the report of
    `validate_maximal_class` on it; raises when the input is not maximal
    class.  On a group of maximal class the report certifies the suffix
    chain as the lower central series, so the group is metabelian when the
    suffix G_2 = Gamma_3 is abelian (see `Subgroup.is_abelian`)."""
    if not report.ok:
        raise PresentationError(f"not a group of maximal class: {report.failure}")
    pres = report.pres
    n = pres.n
    G1 = compute_G1(pres)
    l = degree_of_commutativity(pres, G1)
    r = n - l - 1
    t = max(r, (n + 2) // 2)  # ceil((n+1)/2)
    return MaxClassProfile(pres=pres, G1=G1, l=l, r=r, t=t,
                           metabelian=pres.suffix_subgroup(3).is_abelian())


class ExponentReport(NamedTuple):
    ok: bool
    exact_from: int          # smallest i >= 1 such that the relation is exact for all j >= i
    congruence_all: bool     # product lies in N for every i >= 1
    head_congruences: bool   # s^p and (s s_1)^p lie in N
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def exponent_relation_value(pres: PcPresentation, i: int) -> Element:
    """The product s_i^p s_{i+1}^C(p,2) ... s_{i+p-1}^C(p,p), read with
    s_j = a_{j+1} (see `standard_generators`) and s_j = 1 for j >= n."""
    p = pres.p
    acc = pres.identity
    for j in range(i, min(i + p, pres.n)):
        acc = pres.multiply(acc, pres.power(pres.generators[j], comb(p, j - i + 1)))
    return acc


def verify_exponent_relations(pres: PcPresentation, profile: MaxClassProfile) -> ExponentReport:
    """Exact power relations for i >= r; congruences modulo N = G_{l+2} for all i >= 1.

    The exact relation encodes that s and s*s_i are conjugate for i >= r, so
    their p-th powers agree; modulo N the same holds from i = 1 on, including
    the degenerate cases s^p = (s s_1)^p = 1 mod N.  s = a_1 and s_1 = a_2,
    as the caller's prologue certified by `standard_generators`.
    """
    s, s1 = pres.generators[:2]
    n = pres.n
    N = profile.G(profile.l + 2)
    exact = []
    in_n = []
    for i in range(1, n):
        val = exponent_relation_value(pres, i)
        exact.append(val.is_identity())
        in_n.append(N.contains(val))
    exact_from = n
    for i in range(n - 1, 0, -1):
        if exact[i - 1]:
            exact_from = i
        else:
            break
    head = N.contains(pres.power(s, pres.p)) and N.contains(
        pres.power(pres.multiply(s, s1), pres.p)
    )
    congruence_all = all(in_n)
    ok = exact_from <= profile.r and congruence_all and head
    failure = None
    if not ok:
        failure = (f"exact from {exact_from} (need <= {profile.r}); "
                   f"congruences {'ok' if congruence_all else 'fail'}; "
                   f"head {'ok' if head else 'fail'}")
    return ExponentReport(ok, exact_from, congruence_all, head, failure)


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
