"""Automorphism families of maximal-class groups and the verification drivers.

The family phi_{u,v} sends s to s*u and s_1 to s_1*v for u, v ranging over
an abelian normal series term T; each member is 1 + d for the derivation d
into T with s d = u and s_1 d = v, built through the derivation calculus
and certified as an automorphism.  Families are certified, never
enumerated, by three arguments:

* Der(G, T) is a group under pointwise product and d -> (s d, s_1 d) embeds
  it in T x T, so the pairs for which phi extends form a subgroup.  phi
  extending on the basis pairs (b, 1) and (1, b), b in T.basis, proves all
  |T|^2 pairs.  The members are pairwise distinct because (u, v) is read
  off the images of s and s_1, and each is an automorphism because it is
  the identity modulo T, which lies in the Frattini subgroup G_2.
* When every basis derivation kills T (a property closed under products)
  and T is abelian, (1+d)(1+d') = 1+d+d': the family is abelian and
  composition is the product of the parameters.
* The family is then all of Der(G, T), which is the kernel of
  Aut(G) -> Aut(G/T), normal in Aut(G) because T is characteristic.

Three drivers verify the statements this package exists to check:

* `verify_thm_metabelian`: a metabelian 2-generator group admits an
  automorphism for every pair of derived-subgroup values, giving a family
  of order |G_2|^2 = p^{2(n-2)}.
* `verify_thm_main1`: a maximal-class group with p >= 5 and n > p + 1 has
  at least p^ceil((3n-2p+5)/2) automorphisms, via the metabelian case
  when the group is metabelian and via the family over A = G_{n-l-1}
  together with the inner automorphisms otherwise.
* `verify_thm_main2`: the family over G_t with t = max(n-l-1, ceil((n+1)/2))
  is an abelian normal subgroup of Aut(G) of order p^{2(n-t)} >= p^{n-2p+7}.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple

from . import DEFAULT_SEED, __version__
from .blackburn import build_blackburn_pc
from .derivations import kernel_contains, make_derivation, one_plus
from .errors import (HomCheckFailed, InconsistentPresentation,
                     PreconditionRefused, PresentationError, TheoremViolation,
                     ValidationFailed)
from .homs import GroupMap, check_homomorphism, inner_automorphism
from .maxclass import (MaxClassProfile, build_profile,
                       require_theorem_hypotheses, verify_exponent_relations)
from .pcgroup import Element, PcPresentation, Subgroup


def phi(pres: PcPresentation, profile: MaxClassProfile, u: Element, v: Element,
        target: Subgroup | None = None) -> GroupMap:
    """The automorphism s -> s*u, s_1 -> s_1*v for u, v in the target term.

    Built through the derivation calculus and certified; raises
    ValidationFailed when the images do not extend (drivers convert that
    into a theorem violation).
    """
    target = target or profile.A
    d = make_derivation(pres, target, u, v)
    alpha = one_plus(d)
    return GroupMap(pres, alpha.images, alpha.kind, derivation=d)


class AutFamily(NamedTuple):
    """phi_{u,v} over a subgroup of target x target, certified from the
    members on its basis pairs; the other members are never built."""

    basis_members: tuple
    claimed_order_exponent: int
    detail: str               # the certificate, as a report prints it


def certify_family(pres: PcPresentation, profile: MaxClassProfile,
                   target: Subgroup, fixes_s: bool = False) -> AutFamily:
    """Certify phi_{u,v} for every (u, v) in target x target, or for every
    (1, v) when fixes_s, by validating phi on the basis pairs only.

    The extending pairs form a subgroup of target x target (see the module
    docstring), so the basis pairs (b, 1) and (1, b), b in target.basis,
    prove all of them; the members are distinct as (u, v) is read off the
    images of s and s_1.  Raises TheoremViolation when a basis pair does
    not extend.
    """
    one = pres.identity
    pairs = [(one, b) for b in target.basis]
    if not fixes_s:
        pairs = [(b, one) for b in target.basis] + pairs
    try:
        members = tuple(phi(pres, profile, u, v, target=target) for u, v in pairs)
    except ValidationFailed as exc:
        raise TheoremViolation(f"a basis pair does not extend: {exc}") from exc
    exponent = len(pairs)  # one factor p per basis pair, as |target| = p^len(basis)
    return AutFamily(members, exponent, (
        f"all {pres.p ** exponent} pairs: phi extends on the {len(pairs)} basis "
        f"pairs and the extending pairs form a subgroup; pairwise distinct, "
        f"as (u, v) is read off the images of s and s_1"))


def build_H(pres: PcPresentation, profile: MaxClassProfile) -> AutFamily:
    """The subgroup of automorphisms fixing s: all phi_{1, v}, v in A.

    Order p^{n-r}.  It is closed under composition because it is every
    automorphism that fixes s and is the identity modulo A.
    """
    return certify_family(pres, profile, profile.A, fixes_s=True)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    """A driver's verdict, built once from its checks.  Refusals raise
    PreconditionRefused instead of producing a report."""

    driver: str
    pres: PcPresentation
    input_description: str
    profile: MappingProxyType   # read-only view of the profile lines
    seed: int
    checks: tuple
    achieved_exponent: int
    required_exponent: int

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def input_digest(self) -> str:
        """Computed when rendered: the selftest runs a driver but prints no
        digest, so it never loads `hashlib`."""
        return self.pres.digest()

    def render(self) -> str:
        lines = [
            f"driver: {self.driver}",
            f"tool-version: {__version__}",
            f"input-digest: sha256:{self.input_digest}",
            f"input: {self.input_description}",
            f"seed: {self.seed}",
        ]
        for key, val in self.profile.items():
            lines.append(f"profile-{key}: {val}")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"check {c.name}: {status}{detail}")
        lines.append(f"achieved-exponent: {self.achieved_exponent}")
        lines.append(f"required-exponent: {self.required_exponent}")
        lines.append(f"result: {'pass' if self.ok else 'theorem-violation'}")
        return "\n".join(lines) + "\n"


def _report(driver, pres, profile: MaxClassProfile, seed, checks,
            achieved: int, required: int) -> VerificationReport:
    return VerificationReport(
        driver=driver,
        pres=pres,
        input_description=f"pc group of order {pres.p}^{pres.n}",
        profile=MappingProxyType({
            "order": f"{pres.p}^{pres.n}",
            "class": profile.series.nilpotency_class(),
            "l": profile.l,
            "r": profile.r,
            "t": profile.t,
            "metabelian": profile.metabelian,
        }),
        seed=seed,
        checks=tuple(checks),
        achieved_exponent=achieved,
        required_exponent=required,
    )


def h_cap_inn_check(pres: PcPresentation, profile: MaxClassProfile) -> CheckResult:
    """The s-fixing family meets the inner automorphisms trivially when r > 2.

    Certified from the profile, with no group arithmetic.  Conjugations
    fixing s come from the centralizer of s, and C_G(s) <= <s>G_{n-1} by
    the chain argument: every g is s^a y with y in G_1 and [s^a y, s] =
    [y, s]; x -> [x, s] maps G_i/G_{i+1} onto G_{i+1}/G_{i+2} via
    s_i -> s_{i+1} for 1 <= i <= n-2 (standard_generators checked that
    s_{i+1} lies outside G_{i+2}), so no y in G_1 outside G_{n-1} commutes
    with s.  G_{n-1}, the last nontrivial term of the lower central series,
    is central, so for g = s^a z with z in G_{n-1} the value
    s_1^{-1} s_1^g = [s_1, s^a] is s_2^a modulo G_3.  That is 1 for a = 0;
    for a != 0 it lies outside G_3, as s_2 does, and so outside A = G_r <=
    G_3 (r > 2).  Conjugation by g is then in the s-fixing family only when
    it is the identity.
    """
    if profile.r <= 2:
        raise PreconditionRefused(
            "r = 2 (the group is metabelian): the whole-family driver for "
            "2-generator metabelian groups covers this case"
        )
    if not profile.chain_spans:
        raise PreconditionRefused(
            "the chain s_{i+1} = [s_i, s] does not span the series, so the "
            "centralizer of s is not certified")
    n = pres.n
    return CheckResult("H-meets-Inn", True, (
        f"chain argument: C_G(s) <= <s>G_{n - 1}, as [s^a y, s] = [y, s] and "
        f"x -> [x, s] maps G_i/G_{{i+1}} onto G_{{i+1}}/G_{{i+2}} "
        f"(s_i -> s_{{i+1}}) for 1 <= i <= {n - 2}; for g = s^a z with z in "
        f"the central G_{n - 1}, s_1^-1 s_1^g = [s_1, s^a] = s_2^a mod G_3, "
        f"outside G_3 >= A = G_{profile.r} for a != 0"))


def verify_thm_metabelian(pres: PcPresentation,
                          seed: int = DEFAULT_SEED) -> VerificationReport:
    """Every pair of derived-subgroup values extends to an automorphism;
    the achieved family order is p^{2(n-2)}."""
    _require_consistent(pres)
    profile = build_profile(pres, require_chain=True)
    check, exponent = _derived_pair_family(pres, profile)
    return _report("metabelian", pres, profile, seed, [check], exponent, exponent)


def _derived_pair_family(pres: PcPresentation, profile: MaxClassProfile):
    """The family over G_2 of a metabelian group: its check and its order
    exponent."""
    if not profile.metabelian:
        raise PreconditionRefused("input group is not metabelian")
    fam = certify_family(pres, profile, profile.G(2))
    return (CheckResult("derived-pair-family-validated", True, fam.detail),
            fam.claimed_order_exponent)


def _require_consistent(pres: PcPresentation):
    rep = pres.consistency_check()
    if not rep.ok:
        raise InconsistentPresentation(rep.failure)


def verify_thm_main1(pres: PcPresentation,
                     seed: int = DEFAULT_SEED) -> VerificationReport:
    """Automorphism count lower bound p^ceil((3n-2p+5)/2) for p >= 5, n > p+1."""
    _require_consistent(pres)
    require_theorem_hypotheses(pres)
    profile = build_profile(pres, require_chain=True)
    p, n = pres.p, pres.n
    required = math.ceil((3 * n - 2 * p + 5) / 2)

    if profile.metabelian:
        check, achieved = _derived_pair_family(pres, profile)
        bound = CheckResult("bound", achieved >= required,
                            f"metabelian branch: 2(n-2) = {achieved} >= {required}")
        return _report("main1", pres, profile, seed, [check, bound], achieved, required)

    # stage 1: A = G_r is abelian and the action on it is the standard one,
    # both read off l: [G_i, G_j] <= G_{i+j+l}, and G_k = 1 for k >= n
    r, l = profile.r, profile.l
    checks = [
        CheckResult("A-abelian", 2 * r + l >= n, (
            f"[G_{r}, G_{r}] <= G_{2 * r + l} = 1, as 2r + l = 2n - l - 2 >= n "
            f"for l <= n - 3")),
        CheckResult("module-similarity", True, (
            f"for i >= r = {r}, [s_i, s_1] lies in [G_i, G_1] <= G_{{i+1+l}} = 1 "
            f"as r + 1 + l = n; s_{{i+1}} = [s_i, s] defines the chain, and "
            f"[s_{n - 1}, s] = 1 as G_{n - 1} is central")),
    ]

    # stage 2: exponent relations (exact for i >= r, congruences mod N)
    exp_rep = verify_exponent_relations(pres, profile)
    checks.append(CheckResult(
        "exponent-relations", exp_rep.ok,
        f"exact from i = {exp_rep.exact_from}, congruences mod N "
        f"{'hold' if exp_rep.congruence_all and exp_rep.head_congruences else 'fail'}"))

    # stage 3: G/N is the same group as the reference quotient
    iso_ok, iso_detail = _quotient_isomorphic_to_reference(pres, profile)
    checks.append(CheckResult("quotient-matches-reference", iso_ok, iso_detail))

    # stage 4: the family over A
    fam = certify_family(pres, profile, profile.A)
    checks.append(CheckResult("A-family-validated", True, fam.detail))

    # stage 5: trivial intersection with the inner automorphisms
    checks.append(h_cap_inn_check(pres, profile))

    achieved = (n - 1) + (n - r)  # = n + l
    checks.append(CheckResult(
        "degree-bound", 2 * l >= n - 2 * p + 5,
        f"2l = {2 * l} >= n - 2p + 5 = {n - 2 * p + 5}"))
    checks.append(CheckResult(
        "bound", achieved >= required,
        f"c = (n-1) + (n-r) = {achieved} >= {required}"))
    return _report("main1", pres, profile, seed, checks, achieved, required)


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

    Certifies the family over G_t from its basis pairs, then checks that
    every basis derivation kills G_t; the module docstring gives the
    arguments that make the family abelian, with composition the product
    of the parameters, and normal in Aut(G).
    """
    _require_consistent(pres)
    require_theorem_hypotheses(pres)
    profile = build_profile(pres, require_chain=True)
    p, n = pres.p, pres.n
    t = profile.t
    required = n - 2 * p + 7

    Gt = profile.G(t)
    fam = certify_family(pres, profile, Gt)
    checks = [CheckResult("Gt-family-validated", True, fam.detail)]
    kernel_ok = all(kernel_contains(m.derivation, Gt) for m in fam.basis_members)
    checks.append(CheckResult(
        "kernel-contains-Gt", kernel_ok,
        f"G_{t} lies in the kernel of each of the {len(fam.basis_members)} "
        f"basis derivations, a property closed under products"))
    checks.append(CheckResult(
        "family-commutes", kernel_ok,
        f"derivations killing the abelian G_{t} compose as "
        f"(1+d)(1+d') = 1+d+d' = (1+d')(1+d)"))
    checks.append(CheckResult(
        "composition-is-parameter-product", kernel_ok,
        "phi_{u,v} . phi_{u',v'} = phi_{uu',vv'}, by the same identity"))
    checks.append(CheckResult(
        "conjugation-closure", True,
        f"the family is all of Der(G, G_{t}), the kernel of "
        f"Aut(G) -> Aut(G/G_{t}), normal as G_{t} is characteristic"))

    achieved = 2 * (n - t)
    checks.append(CheckResult(
        "bound", achieved >= required,
        f"2(n-t) = {achieved} >= n - 2p + 7 = {required}"))
    return _report("main2", pres, profile, seed, checks, achieved, required)


def _preimage(pres: PcPresentation, gmap: GroupMap, g: Element) -> Element:
    """Solve gmap(x) = g by successive approximation.

    For a map of the form 1 + d with d into an abelian series term, the
    error alpha(x)^-1 g gains depth each round (its value under d lies
    strictly deeper), so the iteration closes in at most n rounds.
    """
    x = g
    for _ in range(pres.n + 2):
        err = pres.solve(gmap.evaluate(x), g)
        if err.is_identity():
            return x
        x = pres.multiply(x, err)
    raise PresentationError("preimage iteration did not converge")


def invert_automorphism(pres: PcPresentation, gmap: GroupMap) -> GroupMap:
    """The inverse of a validated automorphism.

    Inner maps invert symbolically; derivation-backed maps (and anything
    else unitriangular on the suffix filtration) invert by preimage
    iteration, after which both round trips are verified on the generators.
    """
    if gmap.kind == "inner":
        return inner_automorphism(pres, pres.invert(gmap.inner_by))
    if gmap.kind != "automorphism":
        raise PresentationError("only validated automorphisms can be inverted")
    images = tuple(_preimage(pres, gmap, a) for a in pres.generators)
    inv = GroupMap(pres, images, "automorphism")
    if not (gmap.then(inv).is_identity() and inv.then(gmap).is_identity()):
        raise PresentationError("computed inverse fails the round-trip check")
    return inv
