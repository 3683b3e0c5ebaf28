"""Group maps given by generator images, with homomorphism validation.

A GroupMap stores one image per generator of its domain presentation, the
letters of each image as `evaluate` collects them, and a validation state,
all fixed when the map is built; validation returns a new map with the
upgraded state and never changes its argument:

    unvalidated -> homomorphism -> endomorphism -> automorphism

Validation means every defining relation of the domain maps to an equality
in the codomain; it is re-checkable idempotently.  Composition reads left
to right: `f.then(g)` applies f first.
"""

from __future__ import annotations

from .errors import HomCheckFailed, PresentationError
from .pcgroup import Element, PcPresentation

_KINDS = ("unvalidated", "homomorphism", "endomorphism", "automorphism")


class GroupMap:
    __slots__ = ("domain", "codomain", "images", "kind", "letters")

    def __init__(self, domain: PcPresentation, images, kind="unvalidated",
                 codomain: PcPresentation | None = None, letters=None):
        self.domain = domain
        self.codomain = codomain or domain
        images = tuple(images)
        if len(images) != domain.n:
            raise PresentationError("one image per generator is required")
        self.images = images
        self.kind = kind
        # per image, its (generator, exponent) letters from the last
        # generator down, the order in which `evaluate` stacks them
        if letters is None:
            letters = tuple(tuple((k + 1, c) for k in range(len(img) - 1, -1, -1)
                                  if (c := img[k])) for img in images)
        self.letters = letters

    def _with_kind(self, kind: str) -> "GroupMap":
        """The same map, with the same images, in another validation state."""
        return GroupMap(self.domain, self.images, kind, codomain=self.codomain,
                        letters=self.letters)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: Element) -> Element:
        """The image of x = a_1^{e_1} ... a_n^{e_n}: the word
        img_1^{e_1} ... img_n^{e_n}, collected in one pass."""
        stack = []
        for idx in range(len(x) - 1, -1, -1):
            e = x[idx]
            if e:
                stack.extend(self.letters[idx] * e)
        vec = [0] * self.codomain.n
        self.codomain._collect(vec, stack)
        return Element(vec)

    def then(self, other: "GroupMap") -> "GroupMap":
        """Composition, self first: x -> other(self(x))."""
        if other.domain is not self.codomain:
            raise PresentationError("composition domains do not match")
        images = tuple(other.evaluate(im) for im in self.images)
        kind = min(self.kind, other.kind, key=_KINDS.index)
        if kind != "unvalidated" and self.domain is not other.codomain:
            kind = "homomorphism"
        return GroupMap(self.domain, images, kind, codomain=other.codomain)

    def is_identity(self) -> bool:
        return self.domain is self.codomain and self.images == self.domain.generators

    def __repr__(self) -> str:
        return f"GroupMap(kind={self.kind}, images={list(self.images)})"


def check_homomorphism(domain: PcPresentation, images,
                       codomain: PcPresentation | None = None) -> GroupMap:
    """Verify every defining relation under the substitution a_i -> images[i].

    Returns a map of kind homomorphism/endomorphism; raises HomCheckFailed
    naming the first violated relation.
    """
    gmap = GroupMap(domain, images, codomain=codomain)
    cod = gmap.codomain
    p = domain.p
    for i in range(1, domain.n + 1):
        lhs = cod.power(gmap.images[i - 1], p)
        rhs = gmap.evaluate(domain.power_tails[i - 1])
        if lhs != rhs:
            raise HomCheckFailed(f"a_{i}^p = tail")
    for j in range(2, domain.n + 1):
        for i in range(1, j):
            lhs = cod.commutator(gmap.images[j - 1], gmap.images[i - 1])
            tail = domain.commutator_tails.get((j, i))
            rhs = gmap.evaluate(tail) if tail is not None else cod.identity
            if lhs != rhs:
                raise HomCheckFailed(f"[a_{j}, a_{i}] = tail")
    return gmap._with_kind("endomorphism" if cod is domain else "homomorphism")


def inner_automorphism(pres: PcPresentation, g: Element) -> GroupMap:
    """Conjugation x -> g^-1 x g; always an automorphism, no check needed."""
    images = tuple(pres.conjugate(a, g) for a in pres.generators)
    return GroupMap(pres, images, "automorphism")


def certify_automorphism(gmap: GroupMap, frattini_pivots) -> GroupMap:
    """The validated endomorphism as an automorphism, or raise; the
    argument keeps its kind.

    The caller vouches that the Frattini subgroup is the suffix subgroup
    <a_k : k in frattini_pivots>, for example <a_3, ..., a_n> on a
    consistent standard-chain presentation (see `derivations.one_plus`).
    The quotient by it is elementary abelian, with the other coordinates
    as its coordinates, so by Burnside's basis theorem the images generate
    the group exactly when their matrix on those coordinates is invertible
    mod p; an onto endomorphism of a finite group is bijective.
    """
    if gmap.kind == "automorphism":
        return gmap
    if gmap.kind != "endomorphism":
        raise PresentationError("only validated endomorphisms can be certified")
    pres = gmap.domain
    free = [i for i in range(1, pres.n + 1) if i not in frattini_pivots]
    rows = [[gmap.images[c - 1][r - 1] for r in free] for c in free]
    if len(row_reduce(rows, pres.p)[1]) == len(free):
        return gmap._with_kind("automorphism")
    raise HomCheckFailed("images do not generate the group modulo Frattini")


def row_reduce(rows, p: int):
    """The reduced row echelon form of `rows` over F_p, and its pivot
    columns in ascending order; the rank is the number of pivots.

    Returns (rref, pivots): rref holds the nonzero rows only, row k having
    a 1 in column pivots[k] and 0 in every other pivot column.
    """
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((k for k in range(r, len(mat)) if mat[k][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for k in range(len(mat)):
            f = mat[k][col]
            if k != r and f:
                mat[k] = [(x - f * y) % p for x, y in zip(mat[k], mat[r])]
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat[:len(pivots)], pivots
