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
from dataclasses import dataclass

from .blackburn import build_blackburn_pc
from .errors import PresentationError
from .maxclass import build_profile, validate_maximal_class
from .pcgroup import PcPresentation


@dataclass
class SearchResult:
    pres: PcPresentation
    candidates_tried: int
    seed: int
    l: int


def _linear_system(p: int, n: int, l: int):
    """Variables and F_p equations for the top-order equivariance relations.

    A variable (j, i, c) is the coefficient of s_c in U(j, i); pairs are
    live when i + j + l <= n - 1.
    """
    def depth(j, i):
        return i + j + l

    def live(j, i):
        return 1 <= i < j <= n - 1 and depth(j, i) <= n - 1

    variables = []
    index = {}
    for j in range(2, n):
        for i in range(1, j):
            if live(j, i):
                for c in range(depth(j, i), n):
                    index[(j, i, c)] = len(variables)
                    variables.append((j, i, c))
    rows = []
    for j in range(2, n):
        for i in range(1, j):
            for c in range(1, n):
                row = [0] * len(variables)
                nonzero = False
                if live(j, i) and (j, i, c - 1) in index:
                    row[index[(j, i, c - 1)]] = 1
                    nonzero = True
                for (jj, ii) in ((j, i + 1), (j + 1, i), (j + 1, i + 1)):
                    if jj == ii:
                        continue
                    if live(jj, ii) and (jj, ii, c) in index:
                        row[index[(jj, ii, c)]] = (row[index[(jj, ii, c)]] - 1) % p
                        nonzero = True
                if nonzero:
                    rows.append(row)
    return variables, index, rows


def _random_solution(p, variables, rows, rng):
    """Random member of the solution space (free variables drawn uniformly)."""
    nvars = len(variables)
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(nvars):
        piv = next((k for k in range(r, len(mat)) if mat[k][col] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col] % p:
                f = mat[k][col]
                mat[k] = [(x - f * y) % p for x, y in zip(mat[k], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    sol = [0] * nvars
    free = [c for c in range(nvars) if c not in pivots]
    for c in free:
        sol[c] = rng.randrange(p)
    for k in range(len(pivots) - 1, -1, -1):
        col = pivots[k]
        acc = 0
        for c in range(col + 1, nvars):
            if mat[k][c]:
                acc += mat[k][c] * sol[c]
        sol[col] = (-acc) % p
    return sol


def _assemble(p, n, l, base, sol, index, rng, perturb_powers):
    pts = [list(t) for t in base.power_tails]
    cts = {k: list(v) for k, v in base.commutator_tails.items()}
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
    result has passed consistency_check, validate_maximal_class (with the
    standard chain) and has a nonabelian derived subgroup; with l_target
    set, the degree of commutativity must match it exactly.
    """
    if n <= p + 1:
        raise PresentationError("nonmetabelian fixtures need n > p + 1")
    l = l_target if l_target is not None else 2
    if not 1 <= l < n - 3:
        raise PresentationError(f"target degree of commutativity {l} out of range")
    rng = random.Random(seed)
    base = build_blackburn_pc(p, n)
    variables, index, rows = _linear_system(p, n, l)
    top_var = index.get((2, 1, 3 + l))
    if top_var is None:
        raise PresentationError("no room for a nonzero chain commutator at this l")
    tried = 0
    while tried < budget:
        tried += 1
        sol = _random_solution(p, variables, rows, rng)
        if not sol[top_var]:
            continue
        perturb = rng.random() < 0.25
        pts, cts = _assemble(p, n, l, base, sol, index, rng, perturb)
        cts = {k: v for k, v in cts.items() if any(v)}
        try:
            cand = PcPresentation(p, n, pts, cts)
        except PresentationError:
            continue
        if not cand.consistency_check().ok:
            continue
        series = cand.lower_central_series()
        report = validate_maximal_class(cand, series)
        if not (report.ok and report.standard_chain):
            continue
        try:
            profile = build_profile(cand, require_chain=True, series=series)
        except PresentationError:
            continue
        if profile.metabelian:
            continue
        if l_target is not None and profile.l != l_target:
            continue
        return SearchResult(cand, tried, seed, profile.l)
    return None
