"""Command-line interface.

    pcmax build --p 5 --n 7 -o g.grp        write the reference group file
    pcmax analyze g.grp                      order, class, l, r, t, series
    pcmax verify main1 g.grp                 run a theorem driver
    pcmax selftest                           quick property battery
    pcmax export --p 5 --n 7                 ring-model tables

Reports go to standard output and are byte-identical across runs with the
same seed; timings go to standard error.  Every check in a verify report is
exhaustive or a certificate whose argument its detail names, so the drivers
take no sampling budgets; the seed drives only the selftest's samples and
is echoed in every report.  Artifacts are written only to explicitly named
paths.  Each verb imports only the modules it runs, so `analyze` loads no
automorphism code.

Exit codes: 0 success, 1 usage error or an output path that cannot be
written, 2 theorem violation or failed selftest, 3 precondition refusal,
4 inconsistent or unreadable input.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import DEFAULT_SEED, __version__, groupfile
from .errors import (InconsistentPresentation, PreconditionRefused,
                     PresentationError, TheoremViolation)
from .maxclass import build_profile, standard_generators, validate_maximal_class

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_REFUSED = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pcmax", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"pcmax {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("build", help="construct the reference metabelian group")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("-o", "--out", help="path for the group file (default: stdout)")
    b.set_defaults(run=_cmd_build)

    a = sub.add_parser("analyze", help="structure report for a group file")
    a.add_argument("path")
    a.add_argument("--seed", type=int, default=DEFAULT_SEED)
    a.set_defaults(run=_cmd_analyze)

    v = sub.add_parser("verify", help="run a theorem driver on a group file")
    v.add_argument("theorem", choices=["metabelian", "main1", "main2"])
    v.add_argument("path")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--timings", action="store_true",
                   help="print elapsed time to standard error")
    v.set_defaults(run=_cmd_verify)

    s = sub.add_parser("selftest", help="run the quick property battery")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.set_defaults(run=_cmd_selftest)

    e = sub.add_parser("export", help="dump the ring-model tables")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("-o", "--out", help="path for the tables (default: stdout)")
    e.set_defaults(run=_cmd_export)
    return parser


def _cmd_build(args) -> int:
    from . import blackburn

    pres = blackburn.build_blackburn_pc(args.p, args.n)
    if args.out:
        groupfile.dump(pres, args.out)
        print(f"wrote group of order {args.p}^{args.n} to {args.out}")
        print(f"input-digest: sha256:{pres.digest()}")
    else:
        sys.stdout.write(groupfile.dumps(pres))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    pres = groupfile.load(args.path)
    rep = pres.consistency_check()
    if not rep.ok:
        print(f"consistency: FAIL ({rep.failure})")
        return EXIT_BAD_INPUT
    lines = [
        f"tool-version: {__version__}",
        f"input-digest: sha256:{pres.digest()}",
        f"seed: {args.seed}",
        f"order: {pres.p}^{pres.n}",
        f"consistency: pass ({rep.overlaps_checked} overlaps)",
    ]
    mc = validate_maximal_class(pres)
    if mc.ok:
        # the series is the suffix chain G, Gamma_3, ..., Gamma_{n+1}
        exps = (pres.n, *range(pres.n - 2, -1, -1))
        lines.append(f"series-order-exponents: {' '.join(str(e) for e in exps)}")
        lines.append(f"nilpotency-class: {pres.n - 1}")
    lines.append(f"maximal-class: {'yes' if mc.ok else 'no (' + str(mc.failure) + ')'}")
    lines.append(f"standard-chain: {'yes' if pres.has_standard_chain() else 'no'}")
    if mc.ok and pres.n >= 4:
        profile = build_profile(mc)
        lines.append(f"degree-of-commutativity: {profile.l}")
        lines.append(f"r: {profile.r}")
        lines.append(f"t: {profile.t}")
        lines.append(f"metabelian: {'yes' if profile.metabelian else 'no'}")
        try:
            standard_generators(pres, profile.G1)
            spans = "yes"
        except PresentationError:
            spans = "no"
        lines.append(f"chain-spans: {spans}")
        gens = " ".join(pres.labels[:2])
        lines.append(f"generators: {gens}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import autom

    pres = groupfile.load(args.path)
    driver = {"metabelian": autom.verify_thm_metabelian,
              "main1": autom.verify_thm_main1,
              "main2": autom.verify_thm_main2}[args.theorem]
    t0 = time.perf_counter()
    report = driver(pres, seed=args.seed)
    sys.stdout.write(report.render())
    if args.timings:
        sys.stderr.write(f"elapsed: {time.perf_counter() - t0:.2f}s\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_selftest(args) -> int:
    import random

    from .autom import build_H, verify_thm_metabelian
    from .blackburn import build_blackburn_pc, cross_model_check, verify_sigma
    from .derivations import bullet, evaluate, make_derivation, one_plus

    failures = []

    def check(name, ok):
        print(f"selftest {name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    pres = build_blackburn_pc(3, 5)
    check("construction", pres.consistency_check().ok)
    mc = validate_maximal_class(pres)
    check("maximal-class", mc.ok)
    profile = build_profile(mc)
    check("cross-model", cross_model_check(3, 5).ok)
    check("sigma", verify_sigma(3, 5).ok)
    rng = random.Random(args.seed)
    ok = True
    for _ in range(200):
        a, b, c = (pres.random_element(rng) for _ in range(3))
        if pres.multiply(pres.multiply(a, b), c) != pres.multiply(a, pres.multiply(b, c)):
            ok = False
            break
    check("associativity", ok)
    A = profile.G(2)
    d1 = make_derivation(pres, A, A.random_element(rng), A.random_element(rng))
    d2 = make_derivation(pres, A, A.random_element(rng), A.random_element(rng))
    ok = one_plus(bullet(d1, d2)).images == one_plus(d1).then(one_plus(d2)).images
    check("derivation-monoid", ok)
    ok = True
    for _ in range(200):
        g, h = pres.random_element(rng), pres.random_element(rng)
        lhs = evaluate(d1, pres.multiply(g, h))
        rhs = pres.multiply(pres.conjugate(evaluate(d1, g), h), evaluate(d1, h))
        if lhs != rhs:
            ok = False
            break
    check("cocycle-law", ok)
    fam = build_H(pres, profile)
    check("s-fixing-family", fam.claimed_order_exponent == profile.A.order_exponent
          and len(fam.members) == 1 and fam.members[0].images[0] == pres.generators[0])
    rep = verify_thm_metabelian(pres, seed=args.seed)
    check("metabelian-driver", rep.ok)
    print(f"selftest result: {'pass' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_VIOLATION


def _cmd_export(args) -> int:
    from . import blackburn

    ring = blackburn.RingModule(args.p, args.n)
    lines = [
        f"ring-model p={args.p} n={args.n}",
        f"additive-order: {args.p}^{args.n - 1}",
        f"abelian-invariants: {' '.join(str(d) for d in blackburn.abelian_invariants(args.p, args.n))}",
    ]
    for i, red in enumerate(blackburn._ring_power_tails(ring), 1):
        lines.append(f"p*b_{i} = {' '.join(str(c) for c in red)}")
    for i in range(1, ring.rank + 1):
        lines.append(
            f"theta*b_{i} = {' '.join(str(c) for c in ring.theta_mul(ring.basis(i)))}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote ring tables to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}")
        return EXIT_VIOLATION
    except PreconditionRefused as exc:
        print(f"refused: {exc}")
        return EXIT_REFUSED
    except InconsistentPresentation as exc:
        print(f"inconsistent presentation: {exc}")
        return EXIT_BAD_INPUT
    except PresentationError as exc:
        print(f"bad input: {exc}")
        return EXIT_BAD_INPUT
    except OSError as exc:
        # group files are read by groupfile.load, which raises
        # PresentationError, so this is a failed write: to -o or to stdout
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
