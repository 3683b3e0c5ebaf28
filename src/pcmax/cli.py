"""The pcmax command line: build group files, analyze them and certify the
automorphism bounds of p-groups of maximal class.

usage:
    pcmax build --p P --n N [-o OUT]
    pcmax analyze [--seed SEED] path
    pcmax verify [--seed SEED] [--timings] {metabelian,main1,main2} path
    pcmax selftest [--seed SEED]
    pcmax export --p P --n N [-o OUT]
    pcmax --version

    build      write the reference group file, to OUT or standard output
    analyze    order, class, l, r, t and series of a group file
    verify     run a theorem driver; --timings prints the elapsed time
    selftest   exact property checks on a group of order 3^5
    export     the ring-model tables, to OUT or standard output

-h or --help prints this text; after a verb, that verb's usage line.  An
option may be written --opt=value or shortened to a unique prefix.

P, and the p of a group file, must be an odd prime below 256, as work and
memory still grow with p.  Any other p is bad input, exit 4.

Reports go to standard output and are byte-identical across runs; timings
go to standard error.  Every check in a verify report is exhaustive, a
certificate whose argument its detail names, or an argument about a family
that fails unless the family is certified; the report counts only when every
check passed, and its `bound` line compares that count with the theorem's.
The selftest's checks are exact, so nothing samples and the drivers take no
budgets.  No verb uses the seed; it is accepted and echoed in every `analyze`
and `verify` report for compatibility.  Artifacts are written only to
explicitly named paths.  Each verb imports only the modules it runs, so
`analyze` loads no automorphism code.

Exit codes: 0 success, 1 usage error or an output path that cannot be
written, 2 theorem violation or failed selftest, 3 precondition refusal,
including a theorem driver whose own degree inequality fails, 4
inconsistent or unreadable input.
"""

from __future__ import annotations

import sys
import time

from . import DEFAULT_SEED, __version__, groupfile
from .errors import InconsistentPresentation, PreconditionRefused, PresentationError
from .maxclass import build_profile, standard_generators, validate_maximal_class

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_REFUSED = 3
EXIT_BAD_INPUT = 4

# Each verb's positionals, with their choices or None, and its options, with
# (type, default): int and str options take a value, bool ones are flags,
# and a default of _REQUIRED makes the option required.  Every verb also
# takes -h/--help.  `_cmd_<verb>` runs the verb with one keyword argument
# per positional and per option, named without the dashes.
_REQUIRED = object()
_SEED = {"--seed": (int, DEFAULT_SEED)}
_P_N_OUT = {"--p": (int, _REQUIRED), "--n": (int, _REQUIRED), "--out": (str, None)}
_VERBS = {
    "build": ({}, _P_N_OUT),
    "analyze": ({"path": None}, _SEED),
    "verify": ({"theorem": ("metabelian", "main1", "main2"), "path": None},
               {**_SEED, "--timings": (bool, False)}),
    "selftest": ({}, _SEED),
    "export": ({}, _P_N_OUT),
}
_SHORT = {"-o": "--out", "-h": "--help"}


def _usage(verb: str | None) -> str:
    """The usage line of `verb`, or of the command line before its verb."""
    if verb is None:
        return f"pcmax [--version] {{{','.join(_VERBS)}}} ..."
    positionals, options = _VERBS[verb]
    words = [f"pcmax {verb}"]
    for name, (kind, default) in options.items():
        word = _spellings(name)[0] + ("" if kind is bool else f" {name[2:].upper()}")
        words.append(word if default is _REQUIRED else f"[{word}]")
    words += ["{" + ",".join(c) + "}" if c else name for name, c in positionals.items()]
    return " ".join(words)


def _spellings(name: str) -> list:
    """The spellings of the option `name`, the short one first."""
    return [short for short, long in _SHORT.items() if long == name] + [name]


def _fail(verb: str | None, message: str):
    sys.stderr.write(f"usage: {_usage(verb)}\nerror: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _is_option(token: str) -> bool:
    # "-" alone and negative numbers are values, as in --seed -3
    return token[:1] == "-" and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def _option(verb: str | None, token: str) -> tuple:
    """(name, attached value or None) of the option of `verb` that `token`
    spells, exactly or by a unique prefix of a long name; the name is None
    if it spells no option."""
    names = (*_VERBS[verb][1], "--help") if verb else ("--help", "--version")
    if not token.startswith("--"):
        name = _SHORT.get(token[:2])
        return (name if name in names else None), token[2:].removeprefix("=") or None
    flag, eq, value = token.partition("=")
    matches = [flag] if flag in names else [n for n in names if n.startswith(flag)]
    if len(matches) > 1:
        _fail(verb, f"ambiguous option: {token} could match {', '.join(matches)}")
    return (matches[0] if matches else None), (value if eq else None)


def _parse(argv) -> tuple:
    """(verb, keyword arguments of its handler) for the command line argv.

    Help and the version are printed to standard output and end in
    SystemExit(0); a usage error writes a usage line and an error line to
    standard error and ends in SystemExit(1).
    """
    if not argv:
        _fail(None, "the following arguments are required: verb")
    verb, tokens = argv[0], argv[1:]
    if verb not in _VERBS:
        if not _is_option(verb):
            _fail(None, f"argument verb: invalid choice: {verb!r} "
                        f"(choose from {', '.join(map(repr, _VERBS))})")
        name = _option(None, verb)[0]
        if name is None:
            _fail(None, f"unrecognized arguments: {verb}")
        sys.stdout.write(__doc__ if name == "--help" else f"pcmax {__version__}\n")
        raise SystemExit(EXIT_OK)
    positionals, options = _VERBS[verb]
    args = {name[2:]: default for name, (_, default) in options.items()}
    unfilled = list(positionals)
    extras = []
    only_values = False  # after "--"
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--" and not only_values:
            only_values = True
            continue
        if only_values or not _is_option(token):
            if not unfilled:
                extras.append(token)
                continue
            name = unfilled.pop(0)
            choices = positionals[name]
            if choices and token not in choices:
                _fail(verb, f"argument {name}: invalid choice: {token!r} "
                            f"(choose from {', '.join(map(repr, choices))})")
            args[name] = token
            continue
        name, value = _option(verb, token)
        if name is None:
            extras.append(token)
            continue
        if name == "--help":
            sys.stdout.write(f"usage: {_usage(verb)}\n")
            raise SystemExit(EXIT_OK)
        kind = options[name][0]
        label = f"argument {'/'.join(_spellings(name))}"
        if kind is bool:
            if value is not None:
                _fail(verb, f"{label}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if i == len(tokens) or _is_option(tokens[i]):
                _fail(verb, f"{label}: expected one argument")
            value, i = tokens[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(verb, f"{label}: invalid int value: {value!r}")
        args[name[2:]] = value
    missing = unfilled + [name for name in options if args[name[2:]] is _REQUIRED]
    if missing:
        _fail(verb, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(verb, f"unrecognized arguments: {' '.join(extras)}")
    return verb, args


def _cmd_build(p: int, n: int, out: str | None) -> int:
    from . import blackburn

    pres = blackburn.build_blackburn_pc(p, n)
    if out:
        groupfile.dump(pres, out)
        print(f"wrote group of order {p}^{n} to {out}")
        print(f"input-digest: sha256:{pres.digest()}")
    else:
        sys.stdout.write(groupfile.dumps(pres))
    return EXIT_OK


def _cmd_analyze(path: str, seed: int) -> int:
    pres = groupfile.load(path)
    rep = pres.consistency_check()
    if not rep.ok:
        print(f"consistency: FAIL ({rep.failure})")
        return EXIT_BAD_INPUT
    lines = [
        f"tool-version: {__version__}",
        f"input-digest: sha256:{pres.digest()}",
        f"seed: {seed}",
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


def _cmd_verify(theorem: str, path: str, seed: int, timings: bool) -> int:
    from . import autom

    pres = groupfile.load(path)
    driver = {"metabelian": autom.verify_thm_metabelian,
              "main1": autom.verify_thm_main1,
              "main2": autom.verify_thm_main2}[theorem]
    t0 = time.perf_counter()
    report = driver(pres, seed=seed)
    sys.stdout.write(report.render())
    if timings:
        sys.stderr.write(f"elapsed: {time.perf_counter() - t0:.2f}s\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_selftest(seed: int) -> int:
    from itertools import product

    from .autom import build_H, verify_thm_metabelian
    from .blackburn import build_blackburn_pc, cross_model_check, verify_sigma
    from .derivations import bullet, evaluate, make_derivation, one_plus

    failures = []

    def check(name, ok):
        print(f"selftest {name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    pres = build_blackburn_pc(3, 5)
    # the overlap test certifies associativity (see consistency_check's lemma)
    check("construction", pres.consistency_check().ok)
    mc = validate_maximal_class(pres)
    check("maximal-class", mc.ok)
    profile = build_profile(mc)
    check("cross-model", cross_model_check(3, 5).ok)
    check("sigma", verify_sigma(3, 5).ok)
    A, s2, one = profile.G(2), pres.generators[2], pres.identity
    ds = (make_derivation(pres, A, s2, one), make_derivation(pres, A, one, s2))
    check("derivation-monoid", all(
        one_plus(bullet(x, y)).images == one_plus(x).then(one_plus(y)).images
        for x, y in (ds, ds[::-1])))
    # G is finite, so every h in G is a positive word in a_1 and a_2, and
    # the law on every (g, a) with a in {a_1, a_2} gives it on every (g, h)
    # by induction on the length of h: by the law at (gh, a), at (g, h)
    # and at (h, a), (gha)d = ((gd)^h (hd))^a (ad) = (gd)^(ha) ((ha)d).
    elements = [pres.element(e) for e in product(range(pres.p), repeat=pres.n)]
    tables = [{g: evaluate(d, g) for g in elements} for d in ds]
    check("cocycle-law", all(
        t[pres.multiply(g, a)] == pres.multiply(pres.conjugate(t[g], a), t[a])
        for t in tables for g in elements for a in pres.generators[:2]))
    fam = build_H(pres, profile)
    check("s-fixing-family", fam.passed and len(fam.derivations) == 1
          and fam.derivations[0].u.is_identity()
          and fam.claimed_order_exponent == profile.G(profile.r).order_exponent)
    rep = verify_thm_metabelian(pres, seed=seed)
    check("metabelian-driver", rep.ok)
    print(f"selftest result: {'pass' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_VIOLATION


def _cmd_export(p: int, n: int, out: str | None) -> int:
    from . import blackburn

    ring = blackburn.RingModule(p, n)
    lines = [
        f"ring-model p={p} n={n}",
        f"additive-order: {p}^{n - 1}",
        f"abelian-invariants: {' '.join(str(d) for d in blackburn.abelian_invariants(p, n))}",
    ]
    for i, red in enumerate(blackburn._ring_power_tails(ring), 1):
        lines.append(f"p*b_{i} = {' '.join(str(c) for c in red)}")
    for i in range(1, ring.rank + 1):
        lines.append(
            f"theta*b_{i} = {' '.join(str(c) for c in ring.theta_mul(ring.basis(i)))}"
        )
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote ring tables to {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        verb, args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        return globals()[f"_cmd_{verb}"](**args)
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
