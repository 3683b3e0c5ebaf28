"""Automorphism families of maximal-class groups and the verification drivers.

The family phi_{u,v} sends s to s*u and s_1 to s_1*v for u, v ranging over
a series term T = G_k; each member is 1 + d for the derivation d into T
with s d = u and s_1 d = v.  Families are certified from two derivations,
never enumerated, by three arguments:

* The module argument (Caranti & Scoppola, Arch. Math. 56 (1991)).  The
  map d -> (s d, s_1 d) embeds the group Der(G, T) in T x T, so the
  extending pairs form a subgroup.  When [G_2, T] = 1, f: x -> x^s is a
  module endomorphism of T, as G acts through the abelian G/G_2, and f d
  is the derivation with values (u^s, v^s).  s_k = a_{k+1} generates T
  under f and products (s_{i+1} = s_i^-1 f(s_i)), so phi extending on
  (s_k, 1) and (1, s_k) proves all |T|^2 pairs, and on (1, s_k) all
  (1, v).  As [G_2, G_k] <= G_{k+l+2}, [G_2, T] = 1 when k + l + 2 >= n
  or the group is metabelian.  Members are distinct as (u, v) is read off
  the images of s and s_1, and automorphisms as each is the identity
  modulo T, inside the Frattini subgroup G_2.
* When both generating derivations kill T (a property kept by products and by
  f) and T is abelian, (1+d)(1+d') = 1+d+d': the family is abelian and
  composition is the product of the parameters.
* The family is then all of Der(G, T), which is the kernel of
  Aut(G) -> Aut(G/T), normal in Aut(G) because T is characteristic.

Three drivers verify the statements this package exists to check:

* `verify_thm_metabelian`: a metabelian 2-generator group admits an
  automorphism for every pair of derived-subgroup values, giving a family
  of order |G_2|^2 = p^{2(n-2)}.
* `verify_thm_main1`: a maximal-class group with p >= 5 and n > p + 1 has
  at least p^ceil((3n-2p+5)/2) automorphisms: the metabelian family, or
  |Inn G| |H| = p^{(n-1) + (n-r)}, with H the s-fixing half of the family
  over A = G_r, r = n-l-1, which meets Inn G trivially.
* `verify_thm_main2`: the family over G_t with t = max(n-l-1, ceil((n+1)/2))
  is an abelian normal subgroup of Aut(G) of order p^{2(n-t)} >= p^{n-2p+7}.

A `VerificationReport` turns a driver's checks into its verdict by one rule:
the exponent of p the driver's families claim is achieved only when every
check passed, and is 0 otherwise, as a failed check certifies nothing.  The
`bound` line compares that count with the required one, and the report passes
when it does; a line about a family's members fails with the family.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import DEFAULT_SEED, __version__
from .blackburn import build_blackburn_pc
from .derivations import kernel_contains, make_derivation, one_plus
from .errors import (HomCheckFailed, InconsistentPresentation,
                     PreconditionRefused, PresentationError)
from .homs import GroupMap, check_homomorphism
from .maxclass import (MaxClassProfile, build_profile,
                       require_theorem_hypotheses, standard_generators,
                       validate_maximal_class, verify_exponent_relations)
from .pcgroup import Element, PcPresentation, Subgroup


def phi(pres: PcPresentation, profile: MaxClassProfile, u: Element, v: Element,
        target: Subgroup | None = None) -> GroupMap:
    """The automorphism s -> s*u, s_1 -> s_1*v for u, v in the target term,
    built as 1 + d; raises HomCheckFailed when the images do not extend."""
    return one_plus(make_derivation(pres, target or profile.A, u, v))


class AutFamily(NamedTuple):
    """phi_{u,v} over G_k x G_k, or 1 x G_k when it fixes s, certified by
    the module argument, which needs [G_2, G_k] = 1, from the derivations
    d on (s_k, 1) and (1, s_k), or on (1, s_k); no member 1 + d is built,
    as each is the identity modulo G_k <= G_2 and so an automorphism.  When
    a generating pair does not extend, passed is False, derivations stops
    before that pair and the detail names it and the failed relation."""

    derivations: tuple
    claimed_order_exponent: int
    passed: bool
    detail: str               # the certificate, as a report prints it


def certify_family(pres: PcPresentation, profile: MaxClassProfile, k: int,
                   fixes_s: bool = False) -> AutFamily:
    """Certify phi_{u,v} for every (u, v) in G_k x G_k, or every (1, v) when
    fixes_s, by the module argument: phi is validated on (s_k, 1) and
    (1, s_k) only.  Raises PreconditionRefused unless the profile gives
    [G_2, G_k] = 1; a pair that does not extend gives a failed family.
    """
    n, l = pres.n, profile.l
    if not (2 <= k < n and (profile.metabelian or k + l + 2 >= n)):
        raise PreconditionRefused(
            f"[G_2, G_{k}] = 1 is not certified: 2 <= k < n = {n} needs the "
            f"group metabelian or k + l + 2 = {k + l + 2} >= n")
    why = "= 1 in the abelian G_2" if profile.metabelian else f"<= G_{k + l + 2} = 1"
    target, one, s_k = profile.G(k), pres.identity, pres.generators[k]
    pairs = ((one, s_k),) if fixes_s else ((s_k, one), (one, s_k))
    exponent = len(pairs) * target.order_exponent
    derivations = []
    for u, v in pairs:
        try:
            derivations.append(make_derivation(pres, target, u, v))
        except HomCheckFailed as exc:
            return AutFamily(tuple(derivations), exponent, False, (
                f"a generator pair does not extend: images u={tuple(u)}, v={tuple(v)} "
                f"do not extend to an endomorphism ({exc.relation})"))
    on = f"(1, s_{k})" if fixes_s else f"(s_{k}, 1) and (1, s_{k})"
    return AutFamily(tuple(derivations), exponent, True, (
        f"all {pres.p ** exponent} pairs: phi extends on {on}; the extending pairs "
        f"form a subgroup kept by x -> x^s, a module endomorphism of G_{k} as "
        f"[G_2, G_{k}] {why}, and s_{k} generates G_{k} under it (s_{{i+1}} = "
        f"s_i^-1 s_i^s); pairwise distinct, as (u, v) is read off the images of s and s_1"))


def build_H(pres: PcPresentation, profile: MaxClassProfile) -> AutFamily:
    """The subgroup of automorphisms fixing s: all phi_{1, v}, v in A, of
    order p^{n-r}.  It is closed under composition because it is every
    automorphism that fixes s and is the identity modulo A."""
    return certify_family(pres, profile, profile.r, fixes_s=True)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    """A driver's verdict, by the module docstring's rule, from the profile
    its prologue checked, its checks, and the exponents of p that its
    families claim and that the theorem requires, each with its formula."""

    driver: str
    profile: MaxClassProfile
    seed: int
    checks: tuple
    claimed_exponent: int
    claimed_formula: str
    required_exponent: int
    required_formula: str

    @property
    def achieved_exponent(self) -> int:
        return self.claimed_exponent if all(c.passed for c in self.checks) else 0

    @property
    def bound(self) -> CheckResult:
        need = f"{self.required_formula} = {self.required_exponent}"
        if not all(c.passed for c in self.checks):
            return CheckResult("bound", False, f"a check failed, so nothing counts toward {need}")
        holds = self.claimed_exponent >= self.required_exponent
        return CheckResult("bound", holds, f"{self.claimed_formula} = {self.claimed_exponent} "
                                           f"{'>=' if holds else '<'} {need}")

    @property
    def ok(self) -> bool:
        return self.bound.passed

    def render(self) -> str:
        # the digest is taken here, not by the driver: the selftest runs a
        # driver but prints no digest, so it never loads `hashlib`
        profile, pres = self.profile, self.profile.pres
        lines = [f"driver: {self.driver}", f"tool-version: {__version__}",
                 f"input-digest: sha256:{pres.digest()}",
                 f"input: pc group of order {pres.p}^{pres.n}", f"seed: {self.seed}",
                 f"profile-order: {pres.p}^{pres.n}", f"profile-class: {pres.n - 1}",
                 *(f"profile-{key}: {getattr(profile, key)}"
                   for key in ("l", "r", "t", "metabelian"))]
        for c in (*self.checks, self.bound):
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"check {c.name}: {'pass' if c.passed else 'FAIL'}{detail}")
        lines += [f"achieved-exponent: {self.achieved_exponent}",
                  f"required-exponent: {self.required_exponent}",
                  f"result: {'pass' if self.ok else 'theorem-violation'}"]
        return "\n".join(lines) + "\n"


def h_cap_inn_check(pres: PcPresentation, profile: MaxClassProfile,
                    certified: bool) -> CheckResult:
    """The s-fixing family meets the inner automorphisms trivially when r > 2,
    a line about the family over A, and so one that fails unless certified.

    Argued from the profile, with no group arithmetic.  Conjugations
    fixing s come from the centralizer of s, and C_G(s) <= <s>G_{n-1} by
    the chain argument: every g is s^a y with y in G_1 and [s^a y, s] =
    [y, s]; x -> [x, s] maps G_i/G_{i+1} onto G_{i+1}/G_{i+2} via
    s_i -> s_{i+1} for 1 <= i <= n-2 (the chain is a_2, ..., a_n, as the
    caller's prologue `_checked_profile` certified by `standard_generators`,
    and s_{i+1} = a_{i+2} lies outside G_{i+2}), so
    no y in G_1 outside G_{n-1} commutes with s.  G_{n-1}, the last
    nontrivial term of the lower central series, is central, so for
    g = s^a z with z in G_{n-1} the value
    s_1^{-1} s_1^g = [s_1, s^a] is s_2^a modulo G_3.  That is 1 for a = 0;
    for a != 0 it lies outside G_3, as s_2 does, and so outside A = G_r <=
    G_3 (r > 2).  Conjugation by g is then in the s-fixing family only when
    it is the identity.
    """
    if profile.r <= 2:
        raise PreconditionRefused("r = 2 (the group is metabelian): the whole-family driver "
                                  "for 2-generator metabelian groups covers this case")
    n = pres.n
    return _on_family(certified, "H-meets-Inn", True, (
        f"chain argument: C_G(s) <= <s>G_{n - 1}, as [s^a y, s] = [y, s] and "
        f"x -> [x, s] maps G_i/G_{{i+1}} onto G_{{i+1}}/G_{{i+2}} "
        f"(s_i -> s_{{i+1}}) for 1 <= i <= {n - 2}; for g = s^a z with z in "
        f"the central G_{n - 1}, s_1^-1 s_1^g = [s_1, s^a] = s_2^a mod G_3, "
        f"outside G_3 >= A = G_{profile.r} for a != 0"))


def _on_family(certified: bool, name: str, passed: bool, detail: str) -> CheckResult:
    """A line about a family's members, which fails unless the family is certified."""
    return CheckResult(name, certified and passed,
                       detail if certified else "not checked: the family is not certified")


def verify_thm_metabelian(pres: PcPresentation,
                          seed: int = DEFAULT_SEED) -> VerificationReport:
    """Every pair of derived-subgroup values extends to an automorphism:
    the certified family has order p^{2(n-2)}."""
    profile = _checked_profile(pres, theorem=False)
    return _derived_pair_report("metabelian", profile, seed, 2 * (pres.n - 2), "2(n-2)")


def _derived_pair_report(driver: str, profile: MaxClassProfile, seed: int,
                         required: int, formula: str) -> VerificationReport:
    """A metabelian group's report, whose count is its family over G_2."""
    if not profile.metabelian:
        raise PreconditionRefused("input group is not metabelian")
    fam = certify_family(profile.pres, profile, 2)
    check = CheckResult("derived-pair-family-validated", fam.passed, fam.detail)
    return VerificationReport(driver, profile, seed, (check,), fam.claimed_order_exponent,
                              "2(n-2)", required, formula)


def _checked_profile(pres: PcPresentation, theorem: bool) -> MaxClassProfile:
    """Driver prologue: consistency, the theorem's hypotheses if theorem
    and n >= 4 otherwise, profile, chain."""
    if not (rep := pres.consistency_check()).ok:
        raise InconsistentPresentation(rep.failure)
    if theorem:
        require_theorem_hypotheses(pres)
    elif pres.n < 4:
        raise PreconditionRefused(f"the driver requires n >= 4, got n = {pres.n}")
    profile = build_profile(validate_maximal_class(pres))
    standard_generators(pres, profile.G1)
    return profile


def verify_thm_main1(pres: PcPresentation,
                     seed: int = DEFAULT_SEED) -> VerificationReport:
    """Automorphism count lower bound p^ceil((3n-2p+5)/2) for p >= 5, n > p+1:
    the count is |Inn G| |H|, with H inside the family certified over
    A = G_r, and counts only when every check passed; refuses a nonmetabelian
    input with 2l < n - 2p + 5, where the route falls short."""
    profile = _checked_profile(pres, theorem=True)
    p, n, r, l = pres.p, pres.n, profile.r, profile.l
    required, formula = math.ceil((3 * n - 2 * p + 5) / 2), "ceil((3n-2p+5)/2)"

    if profile.metabelian:
        return _derived_pair_report("main1", profile, seed, required, formula)
    if 2 * l < n - 2 * p + 5:
        raise PreconditionRefused(f"2l = {2 * l} < n - 2p + 5 = {n - 2 * p + 5}: "
                                  f"the route over A = G_{r} does not reach the bound")

    # the exponent relations (exact for i >= r, congruences mod N), and G/N
    # is the same group as the reference quotient
    exp_rep = verify_exponent_relations(pres, profile)
    congruences = "hold" if exp_rep.congruence_all and exp_rep.head_congruences else "fail"
    checks = [CheckResult("exponent-relations", exp_rep.ok,
                          f"exact from i = {exp_rep.exact_from}, congruences mod N {congruences}"),
              CheckResult("quotient-matches-reference",
                          *_quotient_isomorphic_to_reference(pres, profile))]
    # the family over A, which is abelian as A <= G_2 and [G_2, A] = 1, and
    # its s-fixing half H, which meets the inner automorphisms trivially
    fam = certify_family(pres, profile, r)
    checks += [CheckResult("A-family-validated", fam.passed, fam.detail),
               h_cap_inn_check(pres, profile, fam.passed)]
    return VerificationReport("main1", profile, seed, tuple(checks),
                              (n - 1) + fam.claimed_order_exponent // 2,
                              "(n-1) + (n-r)", required, formula)


def _quotient_isomorphic_to_reference(pres: PcPresentation,
                                      profile: MaxClassProfile):
    """G / G_{l+2} agrees with the reference metabelian quotient via the
    generator dictionary.

    Only the forward map is hom-checked.  It hits every generator of the
    reference quotient, so it is onto.  Both quotients are truncations of
    consistent presentations (the driver checked the input, and
    `build_blackburn_pc` certifies the reference), so both are consistent of
    order p^k; the map is bijective and its inverse is the backward
    dictionary.  `build_profile` has already checked that G_{l+2} is the
    suffix subgroup the truncation factors out.
    """
    k = profile.l + 2
    try:
        quo = pres.quotient_by_term(k)
        ref = build_blackburn_pc(pres.p, pres.n).quotient_by_term(k)
        check_homomorphism(quo, ref.generators, codomain=ref)
    except (PresentationError, HomCheckFailed) as exc:
        return False, f"{exc}"
    return True, f"generator dictionary is an isomorphism on the order p^{k} quotients"


def verify_thm_main2(pres: PcPresentation,
                     seed: int = DEFAULT_SEED) -> VerificationReport:
    """Abelian normal subgroup of automorphisms of order p^{n-2p+7}.

    Certifies the family over G_t from its derivations on (s_t, 1) and
    (1, s_t), then checks that both kill G_t; the module
    docstring gives the arguments that make the family abelian, with
    composition the product of the parameters, and normal in Aut(G).
    Refuses when 2(n-t) < n - 2p + 7, where the route falls short.
    """
    profile = _checked_profile(pres, theorem=True)
    p, n, t = pres.p, pres.n, profile.t
    required = n - 2 * p + 7
    if 2 * (n - t) < required:
        raise PreconditionRefused(f"2(n-t) = {2 * (n - t)} < n - 2p + 7 = {required}: "
                                  f"the route over G_{t} does not reach the bound")
    fam = certify_family(pres, profile, t)
    commutes = fam.passed and all(kernel_contains(d, profile.G(t)) for d in fam.derivations)
    checks = (
        CheckResult("Gt-family-validated", fam.passed, fam.detail),
        _on_family(fam.passed, "family-commutes", commutes, (
            f"G_{t} lies in the kernel of the derivations on (s_{t}, 1) and "
            f"(1, s_{t}), a property kept by products and by x -> x^s, and "
            f"derivations killing the abelian G_{t} compose as "
            f"(1+d)(1+d') = 1+d+d' = (1+d')(1+d), so "
            f"phi_{{u,v}} . phi_{{u',v'}} = phi_{{uu',vv'}}")),
        _on_family(fam.passed, "conjugation-closure", True, (
            f"the family is all of Der(G, G_{t}), the kernel of "
            f"Aut(G) -> Aut(G/G_{t}), normal as G_{t} is characteristic")))
    return VerificationReport("main2", profile, seed, checks, fam.claimed_order_exponent,
                              "2(n-t)", required, "n - 2p + 7")


def _preimage(pres: PcPresentation, gmap: GroupMap, g: Element) -> Element:
    """Solve gmap(x) = g by successive approximation.

    Each round multiplies x by the error e = alpha(x)^-1 g, and the new
    error alpha(e)^-1 e is one step deeper on the central suffix series
    when alpha(e) = ec with c deeper than e: for 1 + d with d into an
    abelian series term, c = ed; for a conjugation, e^h = e[e, h], and
    [e, h] lies one step deeper.  So the iteration closes in n rounds.
    """
    x = g
    for _ in range(pres.n + 2):
        err = pres.solve(gmap.evaluate(x), g)
        if err.is_identity():
            return x
        x = pres.multiply(x, err)
    raise PresentationError("preimage iteration did not converge")


def invert_automorphism(pres: PcPresentation, gmap: GroupMap) -> GroupMap:
    """The inverse of a validated automorphism that is unitriangular on the
    suffix filtration, as derivation-backed maps and conjugations are: the
    generators' preimages by iteration, after which both round trips are
    verified on the generators.
    """
    if gmap.kind != "automorphism":
        raise PresentationError("only validated automorphisms can be inverted")
    images = tuple(_preimage(pres, gmap, a) for a in pres.generators)
    inv = GroupMap(pres, images, "automorphism")
    if not (gmap.then(inv).is_identity() and inv.then(gmap).is_identity()):
        raise PresentationError("computed inverse fails the round-trip check")
    return inv
