"""Derivations of a group into an abelian normal subgroup.

With A abelian and normal in G, carrying the conjugation action on the
right and the trivial action on the left, a derivation is a map d: G -> A
with

    (gh)d = (gd)^h (hd),

which forces 1d = 1 and (g^-1)d = ((gd)^-1)^(g^-1).  The map 1+d sending g
to g*(gd) is then an endomorphism of G fixing G/A pointwise, and every such
endomorphism arises this way.  Derivations here are represented by their
values on the two defining generators and evaluated through the validated
companion endomorphism, never by recursive cocycle expansion: the cocycle
law is a test, not a definition.

Operations follow the abelian-codomain calculus: `add` is the pointwise
product, and

    bullet(d1, d2) = d1 + d2 + d1 d2

(the composition term evaluated pointwise) makes the set of derivations a
monoid whose image under d -> 1+d is composition of endomorphisms.
"""

from __future__ import annotations

from .errors import PresentationError
from .homs import GroupMap, check_homomorphism
from .pcgroup import Element, PcPresentation, Subgroup


class Derivation:
    """A validated derivation d: G -> A, backed by the endomorphism 1+d."""

    __slots__ = ("pres", "target", "u", "v", "alpha")

    def __init__(self, pres: PcPresentation, target: Subgroup, u: Element,
                 v: Element, alpha: GroupMap):
        self.pres = pres
        self.target = target
        self.u = u  # value on a_1
        self.v = v  # value on a_2
        self.alpha = alpha

    def __repr__(self) -> str:
        return f"Derivation(u={self.u}, v={self.v})"


def make_derivation(pres: PcPresentation, target: Subgroup, u: Element,
                    v: Element) -> Derivation:
    """Build and validate the derivation with a_1 -> u, a_2 -> v.

    The candidate endomorphism sends a_1 to a_1*u and a_2 to a_2*v, with the
    images of the chain generators a_{i+1} = [a_i, a_1] derived; it must
    pass the homomorphism check, whose HomCheckFailed propagates otherwise
    (a legal outcome for arbitrary u, v).  Every a_i^-1 (a_i alpha) then lies
    in the target T with no further test: modulo the normal T the images
    of a_1, a_2 are a_1, a_2, so the derived image of a_{i+1} is
    [a_i, a_1] = a_{i+1} modulo T.
    """
    if target.pres is not pres:
        raise PresentationError("target subgroup belongs to a different group")
    if not target.is_normal():
        raise PresentationError("target subgroup is not normal")
    if not target.is_abelian():
        raise PresentationError("target subgroup is not abelian")
    if not target.contains(u) or not target.contains(v):
        raise PresentationError("generator values must lie in the target subgroup")
    if not pres.has_standard_chain():
        raise PresentationError(
            "presentation does not follow the standard chain convention "
            "a_{i+1} = [a_i, a_1]"
        )
    images = [pres.multiply(pres.generators[0], u),
              pres.multiply(pres.generators[1], v)]
    for _ in range(2, pres.n):
        images.append(pres.commutator(images[-1], images[0]))
    return Derivation(pres, target, u, v, check_homomorphism(pres, images))


def evaluate(d: Derivation, g: Element) -> Element:
    """gd = g^-1 * (g alpha); lands in the target subgroup."""
    return d.pres.solve(g, d.alpha.evaluate(g))


def add(d1: Derivation, d2: Derivation) -> Derivation:
    """Pointwise product of values; closed since the target is abelian."""
    _same_space(d1, d2)
    pres = d1.pres
    return make_derivation(pres, d1.target, pres.multiply(d1.u, d2.u),
                           pres.multiply(d1.v, d2.v))


def negate(d: Derivation) -> Derivation:
    pres = d.pres
    return make_derivation(pres, d.target, pres.invert(d.u), pres.invert(d.v))


def bullet(d1: Derivation, d2: Derivation) -> Derivation:
    """d1 + d2 + d1 d2; the monoid operation matching composition of 1+d."""
    _same_space(d1, d2)
    pres = d1.pres
    u = pres.multiply(pres.multiply(d1.u, d2.u), evaluate(d2, d1.u))
    v = pres.multiply(pres.multiply(d1.v, d2.v), evaluate(d2, d1.v))
    return make_derivation(pres, d1.target, u, v)


def one_plus(d: Derivation) -> GroupMap:
    """The companion endomorphism g -> g*(gd), certified as an automorphism
    or rejected.

    `make_derivation` requires the standard chain, and the presentation is
    consistent, so for n >= 3 the Frattini subgroup is
    Gamma_3 = <a_3, ..., a_n>.  It lies in [G, G], as a_{i+1} = [a_i, a_1].
    Both a_2^p (by the support rule) and a_1^p lie in Gamma_3: otherwise
    G/Gamma_3 would be cyclic, so G would be cyclic, against
    [a_2, a_1] = a_3 != 1.  So G/Gamma_3 is elementary abelian of rank 2,
    and 1+d is invertible exactly when its image matrix on a_1, a_2 is.
    """
    from .homs import certify_automorphism

    return certify_automorphism(d.alpha, range(3, d.pres.n + 1))


def kernel_of(d: Derivation) -> Subgroup:
    """{g : gd = 1}, the fixed points of 1+d; a subgroup, not normal in general.

    Computed layer by layer along the suffix central series: at stage m the
    map g -> coordinate m of gd is a homomorphism into Z/p on the current
    candidate subgroup, and the candidate is cut down to its kernel.
    """
    pres = d.pres
    current = list(pres.generators)
    for m in range(1, pres.n + 1):
        sub = pres.subgroup_from_generators(current)
        vals = []
        for b in sub.basis:
            val = evaluate(d, b)
            if any(val[: m - 1]):
                raise PresentationError("kernel refinement invariant broken")
            vals.append(val[m - 1])
        if not any(vals):
            current = list(sub.basis)
            continue
        piv = max(i for i, c in enumerate(vals) if c)
        b_star = sub.basis[piv]
        inv_c = pow(vals[piv], -1, pres.p)
        new_gens = [pres.power(b_star, pres.p)]
        for i, b in enumerate(sub.basis):
            if i == piv:
                continue
            t = vals[i] * inv_c % pres.p
            if t:
                new_gens.append(pres.multiply(b, pres.power(b_star, -t)))
            else:
                new_gens.append(b)
        current = new_gens
    return pres.subgroup_from_generators(current)


def kernel_contains(d: Derivation, sub: Subgroup) -> bool:
    """True if the subgroup lies in ker d (checked on its basis)."""
    return all(evaluate(d, b).is_identity() for b in sub.basis)


def check_lemma_down(d: Derivation, r: int, series) -> dict:
    """For d into the (abelian) r-th series term: values on the i-th term lie
    in term i + r - 1; returns per-i results plus the kernel consequence
    that the term n - r + 1 lies in ker d.
    """
    pres = d.pres
    per_level = {}
    for i in range(1, len(series) + 1):
        gi = series.term(i) if i > 1 else pres.full_subgroup()
        target = series.term(i + r - 1) if i + r - 1 > 1 else pres.full_subgroup()
        per_level[i] = all(target.contains(evaluate(d, b)) for b in gi.basis)
    kernel_term = series.term(pres.n - r + 1) if pres.n - r + 1 > 1 else pres.full_subgroup()
    return {
        "per_level": per_level,
        "kernel_term_contained": kernel_contains(d, kernel_term),
        "ok": all(per_level.values()),
    }


def _same_space(d1: Derivation, d2: Derivation):
    if d1.pres is not d2.pres or d1.target != d2.target:
        raise PresentationError("derivations live on different (G, A) pairs")
