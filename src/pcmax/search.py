"""Randomized search for nonmetabelian maximal-class fixtures.

The search perturbs the tails of the reference metabelian presentation and
keeps a candidate exactly when the full oracle accepts it: the overlap
consistency test passes, the group has maximal class with the standard
chain, and the derived subgroup is nonabelian.

Uniform random tails essentially never pass the overlap tests, so proposals
are structure-guided: writing U(j,i) for the chain commutator [s_j, s_i],
conjugation by s forces the top-order linear relations

    (theta - 1) U(j,i) = U(j,i+1) + U(j+1,i) + U(j+1,i+1)

over the coefficient field (theta acting as on the ring model).  Proposals
draw a random solution of that linear system with the leading coefficient
of U(2,1) nonzero (which pins the degree of commutativity to the requested
value), optionally add random deep corrections to the power tails, and then
face the unchanged oracle.  Nothing about a proposal is trusted: every
returned fixture has passed the same checks as any user-supplied input.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .blackburn import RingModule, reference_tails
from .errors import PresentationError
from .homs import row_reduce
from .maxclass import build_profile, validate_maximal_class
from .pcgroup import PcPresentation


class SearchResult(NamedTuple):
    pres: PcPresentation
    candidates_tried: int
    seed: int
    l: int


def _linear_system(p: int, n: int, l: int):
    """Variables and F_p equations for the top-order equivariance relations.

    A variable (j, i, c) is the coefficient of s_c in U(j, i); pairs are
    live when i + j + l <= n - 1.  The equation of (j, i, c), for
    1 <= i < j <= n - 1 and 1 <= c <= n - 1, has +1 at (j, i, c - 1) and
    -1 at (j, i + 1, c), (j + 1, i, c) and (j + 1, i + 1, c), where those
    are variables; it is built from the variables that occur in it, and
    equations with none are left out.  Rows come in (j, i, c) order.
    """
    variables = [(j, i, c) for j in range(2, n) for i in range(1, j)
                 for c in range(i + j + l, n)]
    index = {var: k for k, var in enumerate(variables)}
    equations = {}
    for k, (j, i, c) in enumerate(variables):
        if c + 1 < n:
            equations.setdefault((j, i, c + 1), {})[k] = 1
        for jj, ii in ((j, i - 1), (j - 1, i), (j - 1, i - 1)):
            if 1 <= ii < jj:
                equations.setdefault((jj, ii, c), {})[k] = p - 1
    rows = []
    for key in sorted(equations):
        row = [0] * len(variables)
        for k, e in equations[key].items():
            row[k] = e
        rows.append(row)
    return variables, index, rows


def _random_solution(p, nvars, rref, pivots, rng):
    """Random member of the solution space of the system with reduced row
    echelon form (rref, pivots): the free variables are drawn uniformly in
    ascending order, and each pivot variable is solved for from its row."""
    sol = [0] * nvars
    for c in range(nvars):
        if c not in pivots:
            sol[c] = rng.randrange(p)
    for row, col in zip(rref, pivots):
        sol[col] = -sum(x * y for x, y in zip(row[col + 1:], sol[col + 1:])) % p
    return sol


def _assemble(p, n, l, base_tails, sol, index, rng, perturb_powers):
    base_pts, base_cts = base_tails
    pts = [list(t) for t in base_pts]
    cts = {k: list(v) for k, v in base_cts.items()}
    for (j, i, c), idx in index.items():
        val = sol[idx]
        pair = (j + 1, i + 1)
        if pair not in cts:
            cts[pair] = [0] * n
        # chain coefficient of s_c lands on pc generator a_{c+1}
        cts[pair][c] = val
    if perturb_powers:
        r = n - l - 1
        for i in range(1, min(r, n - 1)):
            if rng.random() < 0.5:
                continue
            lo = max(i + 2, l + 3)
            for _ in range(rng.randrange(1, 3)):
                c = rng.randrange(max(lo, n - 1), n + 1)
                pts[i][c - 1] = (pts[i][c - 1] + rng.randrange(p)) % p
        if rng.random() < 0.3:
            pts[0][n - 1] = rng.randrange(p)
    return pts, cts


def search_nonmetabelian(p: int, n: int, seed: int, budget: int = 10**6,
                         l_target: int | None = None) -> SearchResult | None:
    """Search for a consistent nonmetabelian maximal-class presentation.

    Returns the first hit, or None when the budget is exhausted.  The
    result has passed consistency_check and validate_maximal_class, its
    chain s_{i+1} = [s_i, s] spans the series, and it has a nonabelian
    derived subgroup; with l_target set, the degree of commutativity must
    match it exactly.
    """
    if n <= p + 1:
        raise PresentationError("nonmetabelian fixtures need n > p + 1")
    l = l_target if l_target is not None else 2
    if not 1 <= l < n - 3:
        raise PresentationError(f"target degree of commutativity {l} out of range")
    rng = random.Random(seed)
    base_tails = reference_tails(RingModule(p, n))
    variables, index, rows = _linear_system(p, n, l)
    rref, pivots = row_reduce(rows, p)
    top_var = index.get((2, 1, 3 + l))
    if top_var is None:
        raise PresentationError("no room for a nonzero chain commutator at this l")
    tried = 0
    while tried < budget:
        tried += 1
        sol = _random_solution(p, len(variables), rref, pivots, rng)
        if not sol[top_var]:
            continue
        perturb = rng.random() < 0.25
        pts, cts = _assemble(p, n, l, base_tails, sol, index, rng, perturb)
        cts = {k: v for k, v in cts.items() if any(v)}
        try:
            cand = PcPresentation(p, n, pts, cts)
        except PresentationError:
            continue
        if not cand.consistency_check().ok:
            continue
        if not validate_maximal_class(cand).ok:
            continue
        try:
            profile = build_profile(cand, require_chain=True)
        except PresentationError:
            continue
        if profile.metabelian:
            continue
        if l_target is not None and profile.l != l_target:
            continue
        return SearchResult(cand, tried, seed, profile.l)
    return None
