"""The benchmark workloads: how each makes its inputs and which pcmax
commands it runs, with the verdict each command must give.

Why these three: between them they put every layer of the package on the
critical path of some verdict, and each later optimisation has one workload
where it should show and one where it should not.  Each pass of a workload
takes well under half of a run, so a run's figure is a median over passes.

* nonmetabelian-5-7: main1 and main2 on the searched nonmetabelian 5^7
  fixture.  main1 is the only driven input that takes the nonmetabelian
  branch (exhaustive validation of all |A|^2 = 625 phi pairs, the
  reference-quotient check and the H-meets-Inn scan); main2 adds the
  composition of automorphisms and their inversion.
* reference-5-7: main1 on the metabelian reference group: sampled pair
  validation and the profile built twice.
* structure-grid: structure analysis only (lower central series, G_1 by
  coset enumeration, degree of commutativity on a nonabelian G_1, collection
  at n = 12) plus the selftest; no automorphism work beyond the selftest's.

The fixture searches always run from DEFAULT_SEED, so every set-up does the
same work; the seed of a run reaches the commands' own --seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from gate import (analyze_expectations, reference_profile,
                  verify_expectations)

DEFAULT_SEED = 0x5EED_C0DE_2026
# searched nonmetabelian fixtures per n (p = 5): the search's target degree
# of commutativity, and the digest and profile of its hit at DEFAULT_SEED
FIXTURES = {
    7: (1, "c4a0e74caaf6407b3e223024e3986468e8147db848cdcb88ebe1d6a803b6ce91",
        {"order": "5^7", "class": "6", "l": "1", "r": "5", "t": "5",
         "metabelian": "False"}),
    8: (None, "42566c691ee4cde523ba0538d8da4fbba78ebb7bf8d1e6180be83941b5ea75cc",
        {"order": "5^8", "class": "7", "l": "2", "r": "5", "t": "5",
         "metabelian": "False"}),
}
STRUCTURE_GRID = [(5, 12), (7, 8)]


@dataclass
class Command:
    kind: str            # verify | analyze | selftest
    argv: list           # pcmax arguments
    expect: dict         # report fields and their required values


@dataclass
class Inputs:
    commands: list
    candidates_tried: int  # fixture-search candidates; 0 when no search ran


def _write_and_load(pres, path: Path) -> str:
    """Write the group file and read it back; returns the file's sha256,
    which every report on it must echo as its input digest."""
    from pcmax import groupfile

    groupfile.dump(pres, path)
    text = path.read_bytes()
    if groupfile.load(path).canonical_text().encode() != text:
        raise RuntimeError(f"group file {path.name} does not round-trip")
    return hashlib.sha256(text).hexdigest()


def _fixture(n: int, workdir: Path):
    """The searched nonmetabelian 5^n fixture: (path, digest, profile,
    candidates tried).  The search runs from DEFAULT_SEED, whose hit has
    the pinned digest and profile."""
    from pcmax.search import search_nonmetabelian

    l_target, digest, profile = FIXTURES[n]
    result = search_nonmetabelian(5, n, DEFAULT_SEED, budget=5000, l_target=l_target)
    if result is None:
        raise RuntimeError(f"fixture search for 5^{n} found nothing")
    path = workdir / f"nonmetabelian-5-{n}.grp"
    _write_and_load(result.pres, path)
    return path, digest, profile, result.candidates_tried


def _reference(p: int, n: int, workdir: Path):
    from pcmax.blackburn import build_blackburn_pc

    path = workdir / f"reference-{p}-{n}.grp"
    return path, _write_and_load(build_blackburn_pc(p, n), path)


def _verify(driver, path, digest, seed, p, n, profile):
    expect = verify_expectations(driver, p, n, profile)
    expect["input-digest"] = f"sha256:{digest}"
    return Command("verify", ["verify", driver, str(path), "--seed", str(seed)], expect)


def _analyze(path, digest, seed, p, n, profile):
    expect = analyze_expectations(p, n, profile)
    expect["input-digest"] = f"sha256:{digest}"
    return Command("analyze", ["analyze", str(path), "--seed", str(seed)], expect)


def nonmetabelian_5_7(seed: int, workdir: Path) -> Inputs:
    path, digest, profile, tried = _fixture(7, workdir)
    return Inputs([_verify(driver, path, digest, seed, 5, 7, profile)
                   for driver in ("main1", "main2")], tried)


def reference_5_7(seed: int, workdir: Path) -> Inputs:
    path, digest = _reference(5, 7, workdir)
    return Inputs([_verify("main1", path, digest, seed, 5, 7,
                           reference_profile(5, 7))], 0)


def structure_grid(seed: int, workdir: Path) -> Inputs:
    commands = []
    for p, n in STRUCTURE_GRID:
        path, digest = _reference(p, n, workdir)
        commands.append(_analyze(path, digest, seed, p, n, reference_profile(p, n)))
    path, digest, profile, tried = _fixture(8, workdir)
    commands.append(_analyze(path, digest, seed, 5, 8, profile))
    commands.append(Command("selftest", ["selftest", "--seed", str(seed)], {}))
    return Inputs(commands, tried)


WORKLOADS = {
    "nonmetabelian-5-7": nonmetabelian_5_7,
    "reference-5-7": reference_5_7,
    "structure-grid": structure_grid,
}
