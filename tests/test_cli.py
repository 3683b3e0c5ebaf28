"""Group file round trips and the command-line interface, including exit
codes and byte-identical reports."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import pcmax
import pcmax.cli
from pcmax import groupfile
from pcmax.errors import HomCheckFailed, PresentationError
from pcmax.pcgroup import PcPresentation

from .conftest import pcmax_env


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "pcmax.cli", *args],
        capture_output=True, text=True, env=pcmax_env(), **kw)


# -- group files --------------------------------------------------------------


def test_roundtrip(g57, tmp_path):
    path = tmp_path / "g.grp"
    groupfile.dump(g57, path)
    back = groupfile.load(path)
    assert back.digest() == g57.digest()
    assert back.labels == g57.labels
    assert back.power_tails == g57.power_tails
    assert back.commutator_tails == g57.commutator_tails


def test_missing_header():
    with pytest.raises(PresentationError):
        groupfile.loads("p 5\nn 3\n")


def test_missing_power_row(g57):
    text = "\n".join(ln for ln in groupfile.dumps(g57).splitlines()
                     if not ln.startswith("power 3"))
    with pytest.raises(PresentationError):
        groupfile.loads(text)


def test_bad_support_rejected_at_load(g57):
    text = groupfile.dumps(g57).replace(
        "comm 3 1 : 0 0 0 1 0 0 0", "comm 3 1 : 0 1 0 1 0 0 0")
    with pytest.raises(PresentationError):
        groupfile.loads(text)


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.one_of(
    st.sampled_from(["p 5", "p 7", "n 3", "n 0", "labels a b c", "labels",
                     "power 1 : 0 0 0", "power 2 : 0 0 1", "power 3 : 0 0 0",
                     "comm 2 1 : 0 0 1", "comm 3 1 : 0 0 0", "comm 1 2 : 0 0 0",
                     "power x : 0", "comm 2 1 0 0 1", "# comment", ""]),
    st.text(max_size=20)), max_size=12))
def test_loads_returns_or_raises_presentation_error(lines):
    text = "\n".join(["pcmax-group 1", *lines])
    try:
        pres = groupfile.loads(text)
    except PresentationError:
        return
    assert isinstance(pres, PcPresentation)


@pytest.mark.parametrize("line", ["p 7", "n 5", "labels s s_1 s_2 s_3 s_4",
                                  "power 2 : 0 0 0 0 0", "comm 3 1 : 0 0 0 1 0",
                                  # zero after zero, zero after nonzero, nonzero after zero
                                  "comm 5 4 : 0 0 0 0 0", "comm 3 1 : 0 0 0 0 0",
                                  "comm 4 2 : 0 0 0 0 1"])
def test_duplicate_line_exit_4(tmp_path, line):
    from pcmax.blackburn import build_blackburn_pc

    path = tmp_path / "dup.grp"
    path.write_text(groupfile.dumps(build_blackburn_pc(5, 5)) + line + "\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 4
    assert "duplicate line" in res.stdout


@pytest.mark.parametrize("line", ["power 6 : 0 0 0 0 0", "power 9 : 1 2 3",
                                  "power 0 : 4", "power -1 : 0 0 0 0 0"])
def test_power_row_outside_range_exit_4(tmp_path, line):
    from pcmax.blackburn import build_blackburn_pc

    path = tmp_path / "stray.grp"
    path.write_text(groupfile.dumps(build_blackburn_pc(5, 5)) + line + "\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 4
    assert "outside 1..5" in res.stdout


def test_non_utf8_file_exit_4(tmp_path, g57):
    path = tmp_path / "bom.grp"
    path.write_bytes(b"\xff\xfe" + groupfile.dumps(g57).encode())
    res = run_cli("analyze", str(path))
    assert res.returncode == 4
    assert "not UTF-8" in res.stdout
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("old, new", [
    ("p 5", "p \u0665"),                                        # Arabic-Indic five
    ("comm 3 1 : 0 0 0 1 0 0 0", "comm 3 1 : 0 0 0 \u0661 0 0 0"),  # Arabic-Indic one
    ("n 7", "n +7"),
    ("power 1 : 0 0 0 0 0 0 0", "power 1 : 0 0 0 0 0 0 0_0"),
])
def test_non_ascii_digit_exit_4(tmp_path, g57, old, new):
    text = groupfile.dumps(g57)
    assert old in text
    path = tmp_path / "digits.grp"
    path.write_text(text.replace(old, new), encoding="utf-8")
    res = run_cli("analyze", str(path))
    assert res.returncode == 4
    assert "bad " in res.stdout


ZERO_76 = "comm 7 6 : 0 0 0 0 0 0 0"  # the writer's zero row for [a_7, a_6] at n = 7


@pytest.mark.parametrize("old, new, message", [
    # a non-ASCII digit inside an otherwise ASCII row
    ("power 3 : 0 0 0 0 0 0 4", "power 3 : 0 0 \u0665 0 0 0 4",
     "bad exponent in group file: '\u0665'"),
    ("power 3 : 0 0 0 0 0 0 4", "power 3 : 0 0 +1 0 0 0 4",
     "bad exponent in group file: '+1'"),
    ("power 3 : 0 0 0 0 0 0 4", "power 3 : 0 0 1_0 0 0 0 4",
     "bad exponent in group file: '1_0'"),
    ("power 3 : 0 0 0 0 0 0 4", "power 3 : 0 0 -1 0 0 0 4",
     "power tail of a_3: entries must lie in [0, 5)"),
    ("power 3 : 0 0 0 0 0 0 4", "power 3 : 0 0 0 0 0 4",
     "power tail of a_3: expected vector of length 7"),
    ("comm 3 1 : 0 0 0 1 0 0 0", "comm +3 1 : 0 0 0 1 0 0 0",
     "bad generator index in group file: '+3'"),
    ("comm 3 1 : 0 0 0 1 0 0 0", "comm 3 1 : 0 0 0 1 0 0 007",
     "tail of [a_3, a_1]: entries must lie in [0, 5)"),
    # zero rows: the key is read strictly and the pair range-checked
    (ZERO_76, "comm +7 6 : 0 0 0 0 0 0 0", "bad generator index in group file: '+7'"),
    (ZERO_76, "comm 7 6 x : 0 0 0 0 0 0 0",
     "malformed comm row: 'comm 7 6 x : 0 0 0 0 0 0 0'"),
    (ZERO_76, "comm 9 2 : 0 0 0 0 0 0 0", "commutator pair (9, 2) out of range"),
    (ZERO_76, "comm 2 3 : 0 0 0 0 0 0 0", "commutator pair (2, 3) out of range"),
    # n - 1 and n + 1 zeros, and other spellings of zeros, one too few
    (ZERO_76, "comm 7 6 : 0 0 0 0 0 0", "tail of [a_7, a_6]: expected vector of length 7"),
    (ZERO_76, "comm 7 6 : 0 0 0 0 0 0 0 0", "tail of [a_7, a_6]: expected vector of length 7"),
    (ZERO_76, "comm 7 6 : 0 0 0 0 0 00", "tail of [a_7, a_6]: expected vector of length 7"),
    (ZERO_76, "comm 7 6 : 0 0 0 0 0  0", "tail of [a_7, a_6]: expected vector of length 7"),
    (ZERO_76, "comm 7 6 : 0 0 0 0 0\t0", "tail of [a_7, a_6]: expected vector of length 7"),
    # a zero row before the n line, repeated after it
    ("n 7", f"{ZERO_76}\nn 7", f"duplicate line in group file: {ZERO_76!r}"),
    # a payload that two rows share, with a token `_int` refuses or one out
    # of range: the error is the one the first row gives when read alone
    pytest.param("comm 7 5 : 0 0 0 0 0 0 0\ncomm 7 6 : 0 0 0 0 0 0 0",
                 "comm 7 5 : 0 0 0 0 0 0 +0\ncomm 7 6 : 0 0 0 0 0 0 +0",
                 "bad exponent in group file: '+0'", id="shared-payload-bad-token"),
    pytest.param("comm 7 5 : 0 0 0 0 0 0 0\ncomm 7 6 : 0 0 0 0 0 0 0",
                 "comm 7 5 : 0 0 0 0 0 0 -1\ncomm 7 6 : 0 0 0 0 0 0 -1",
                 "tail of [a_7, a_5]: entries must lie in [0, 5)",
                 id="shared-payload-out-of-range"),
    # a power row and a comm row with the same payload are each judged by
    # their own support rule
    pytest.param("comm 6 1 : 0 0 0 0 0 0 1", "comm 6 1 : 0 0 0 0 0 4 2",
                 "tail of [a_6, a_1]: support must start at index 7",
                 id="payload-of-power-2-in-comm-6-1"),
    # past 640 characters, the least cap `int` may put on digits, a number is
    # bad input rather than an error raised in `int`
    pytest.param("p 5", "p " + "1" * 5000, f"bad p in group file: '{'1' * 5000}'",
                 id="overlong-p"),
    pytest.param("power 3 : 0", "power 3 : " + "1" * 5000,
                 f"bad exponent in group file: '{'1' * 5000}'", id="overlong-exponent"),
])
def test_malformed_rows_keep_their_messages(tmp_path, g57, old, new, message):
    text = groupfile.dumps(g57)
    assert old in text
    path = tmp_path / "row.grp"
    path.write_text(text.replace(old, new), encoding="utf-8")
    res = run_cli("analyze", str(path))
    assert (res.returncode, res.stdout, res.stderr) == (4, f"bad input: {message}\n", "")


@st.composite
def tail_tables(draw):
    """A presentation with random tails that obey the support rules; it
    need not be consistent."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 8))
    sparse = draw(st.booleans())

    def tail(start):
        # zero below index `start`, anything in [0, p) from there on; in a
        # sparse table about half the tails are zero
        if sparse and draw(st.booleans()):
            return [0] * n
        free = draw(st.lists(st.integers(0, p - 1), min_size=n - start + 1,
                             max_size=n - start + 1))
        return [0] * (start - 1) + free

    pts = [tail(i + 1) for i in range(1, n + 1)]
    cts = {(j, i): tail(j + 1) for j in range(2, n + 1) for i in range(1, j)}
    return PcPresentation(p, n, pts, cts)


def _spelled_out(pres):
    """The group file of `pres`, written out row by row."""
    def row(t):
        return " ".join(str(e) for e in t)

    lines = ["pcmax-group 1", f"p {pres.p}", f"n {pres.n}", "labels " + " ".join(pres.labels)]
    lines += [f"power {i} : {row(pres.power_tails[i - 1])}" for i in range(1, pres.n + 1)]
    lines += [f"comm {j} {i} : {row(pres.commutator_tail(j, i))}"
              for j in range(2, pres.n + 1) for i in range(1, j)]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, derandomize=True)
@given(tail_tables())
def test_group_file_round_trips_random_tail_tables(pres):
    text = pres.canonical_text()
    assert text == _spelled_out(pres)
    back = groupfile.loads(text)
    assert back.power_tails == pres.power_tails
    assert back.commutator_tails == pres.commutator_tails
    assert back.canonical_text() == text


def test_duplicate_labels_exit_4(tmp_path, g57):
    text = groupfile.dumps(g57)
    assert "labels s s_1 s_2" in text
    path = tmp_path / "labels.grp"
    path.write_text(text.replace("labels s s_1 s_2", "labels s s_1 s_1"))
    res = run_cli("analyze", str(path))
    assert res.returncode == 4
    assert "labels must be distinct" in res.stdout


def test_trivial_comm_rows_may_be_omitted(g57):
    lines = [ln for ln in groupfile.dumps(g57).splitlines()
             if not (ln.startswith("comm") and set(ln.split(":")[1].split()) == {"0"})]
    back = groupfile.loads("\n".join(lines))
    assert back.digest() == g57.digest()


@pytest.mark.parametrize("row", ["comm 7 6 : 0 0 0 00 0 0 0", "comm 7 6 : 0 0 0  0 0 0 0",
                                 "comm 7 6 : 0 0 0\t0 0 0 0", "comm  7 6 : 0 0 0 0 0 0 0",
                                 "comm 7 6 : 0 0 0 0 0 0 -0"])
def test_other_spellings_of_zeros_read_as_trivial(g57, row):
    text = groupfile.dumps(g57)
    assert ZERO_76 in text
    assert groupfile.loads(text.replace(ZERO_76, row)).digest() == g57.digest()


def test_loader_reads_each_distinct_payload_once(monkeypatch):
    # a payload is the text after a row's `:`; the reference 5^30 repeats
    # its zero row, so most rows are lookups
    from pcmax.blackburn import build_blackburn_pc

    text = build_blackburn_pc(5, 30).canonical_text()
    calls = Counter()
    ints = groupfile._ints

    def counting(tokens, what, numbers):
        calls[what] += 1
        return ints(tokens, what, numbers)

    monkeypatch.setattr(groupfile, "_ints", counting)
    assert groupfile.loads(text).canonical_text() == text
    payloads = {ln.split(" : ", 1)[1] for ln in text.splitlines() if " : " in ln}
    assert calls["exponent"] == len(payloads) < 30 + 30 * 29 // 2


def test_p251_file_reads_each_spelling_once(monkeypatch):
    # every number of the file (p, n, the indices and the exponents) goes
    # through `_int` once per distinct spelling, however many rows repeat it
    from pcmax.blackburn import build_blackburn_pc

    text = build_blackburn_pc(251, 253).canonical_text()
    assert "p 251\n" in text and " 250 " in text
    reads = Counter()
    read = groupfile._int

    def counting(token, what):
        reads[token] += 1
        return read(token, what)

    monkeypatch.setattr(groupfile, "_int", counting)
    assert groupfile.loads(text).canonical_text() == text
    spellings = {tok for ln in text.splitlines()[1:] if not ln.startswith("labels")
                 for tok in ln.split() if tok.isdigit()}
    assert reads == Counter(spellings)


def test_long_rows_round_trip():
    from pcmax.blackburn import build_blackburn_pc

    text = build_blackburn_pc(5, 60).canonical_text()
    assert groupfile.loads(text).canonical_text() == text


def test_huge_n_allocates_nothing_of_size_n():
    """`n` has no upper bound, and the reader builds nothing of size `n`: it
    reads only the rows the file holds, so this file fails on its first
    missing power row in bounded memory."""
    import tracemalloc

    text = "pcmax-group 1\np 5\nn 1000000000\ncomm 2 1 : 0 0 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(PresentationError, match="^missing power row for generator 1$"):
            groupfile.loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- CLI ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def g57_file(tmp_path_factory):
    from pcmax.blackburn import build_blackburn_pc

    path = tmp_path_factory.mktemp("grp") / "g57.grp"
    groupfile.dump(build_blackburn_pc(5, 7), path)
    return str(path)


@pytest.fixture(scope="module")
def g66_file(tmp_path_factory):
    from pcmax.blackburn import build_blackburn_pc

    path = tmp_path_factory.mktemp("grp") / "g56.grp"
    groupfile.dump(build_blackburn_pc(5, 6), path)
    return str(path)


def test_build_and_analyze(tmp_path):
    out = tmp_path / "g.grp"
    res = run_cli("build", "--p", "5", "--n", "7", "-o", str(out))
    assert res.returncode == 0
    assert out.exists()
    res = run_cli("analyze", str(out))
    assert res.returncode == 0
    assert "degree-of-commutativity: 4" in res.stdout
    assert "metabelian: yes" in res.stdout
    assert "t: 4" in res.stdout


def test_cli_verbs_never_close_subgroups(nonmetabelian58, tmp_path, monkeypatch,
                                         capsys):
    # maximal class is decided from the tails, so no verb computes a series
    # by normal closures, on the 5^8 fixture or on the "wide-top" group,
    # which is not of maximal class
    from pcmax import cli

    calls = Counter()
    for name in ("lower_central_series", "subgroup_from_generators"):
        original = getattr(PcPresentation, name)

        def counting(self, *args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PcPresentation, name, counting)
    runs = _cli_runs(nonmetabelian58.pres, tmp_path / "nm58.grp", capsys)
    assert "degree-of-commutativity: 2\n" in runs["analyze"][1]
    assert [code for code, _ in runs.values()] == [0, 3, 0, 0]

    wide_top = PcPresentation(5, 4, [(0,) * 4] * 4, {(2, 1): (0, 0, 1, 0)})
    runs = _cli_runs(wide_top, tmp_path / "wide.grp", capsys)
    failure = ("no tail [a_3, a_j], j < 3, has a nonzero a_4 coordinate: "
               "[Gamma_3, G] Gamma_5 != Gamma_4")
    code, out = runs.pop("analyze")
    assert code == 0 and out.split("\n")[3:] == [
        "order: 5^4",
        "consistency: pass (20 overlaps)",
        f"maximal-class: no ({failure})",
        "standard-chain: no",
        "",
    ]
    assert runs.pop("metabelian") == (
        4, f"bad input: not a group of maximal class: {failure}\n")
    for code, out in runs.values():
        assert (code, out) == (3, "refused: the driver requires n > p + 1, got n = 4, p = 5\n")

    assert cli.main(["selftest"]) == 0
    assert calls == {}


@pytest.mark.parametrize("n", [2, 3])
def test_verify_metabelian_refuses_n_below_4(n, tmp_path, capsys):
    # a consistent group of maximal class and order p^2 or p^3 is valid
    # input, but G_1 = C_G(G_2/G_4) needs n >= 4
    from pcmax import cli

    tails = {(2, 1): (0, 0, 1)} if n == 3 else {}
    path = tmp_path / "small.grp"
    groupfile.dump(PcPresentation(5, n, [(0,) * n] * n, tails), path)
    assert cli.main(["verify", "metabelian", str(path)]) == 3
    assert capsys.readouterr().out == f"refused: the driver requires n >= 4, got n = {n}\n"


def test_verify_metabelian_pass(g57_file):
    res = run_cli("verify", "metabelian", g57_file)
    assert res.returncode == 0
    assert "result: pass" in res.stdout


def test_verify_main1_metabelian_branch(g57_file):
    res = run_cli("verify", "main1", g57_file)
    assert res.returncode == 0
    assert "achieved-exponent: 10" in res.stdout
    assert "required-exponent: 8" in res.stdout


def test_verify_reports_a_basis_pair_that_does_not_extend(
        nonmetabelian57, tmp_path, monkeypatch, capsys):
    # the relation check of the second derivation, on (1, s_5), fails:
    # main1 prints its whole report, whose family line names the pair and
    # the relation, fails every line that rests on the family, counts
    # nothing and exits with code 2
    from pcmax import cli, derivations

    path = tmp_path / "nm57.grp"
    groupfile.dump(nonmetabelian57.pres, path)
    assert cli.main(["verify", "main1", str(path)]) == 0
    passing = capsys.readouterr().out
    original = derivations.check_homomorphism
    calls = []

    def failing(*args, **kw):
        calls.append(args)
        if len(calls) == 2:
            raise HomCheckFailed("[a_4, a_2] = tail")
        return original(*args, **kw)

    monkeypatch.setattr(derivations, "check_homomorphism", failing)
    assert cli.main(["verify", "main1", str(path)]) == 2
    lines = passing.splitlines(keepends=True)
    assert lines[-6:] == [
        "check A-family-validated: pass (all 625 pairs: phi extends on (s_5, 1) and "
        "(1, s_5); the extending pairs form a subgroup kept by x -> x^s, a module "
        "endomorphism of G_5 as [G_2, G_5] <= G_8 = 1, and s_5 generates G_5 under it "
        "(s_{i+1} = s_i^-1 s_i^s); pairwise distinct, as (u, v) is read off the images "
        "of s and s_1)\n",
        lines[-5], "check bound: pass ((n-1) + (n-r) = 8 >= ceil((3n-2p+5)/2) = 8)\n",
        "achieved-exponent: 8\n", "required-exponent: 8\n", "result: pass\n"]
    assert lines[-5].startswith("check H-meets-Inn: pass (chain argument: ")
    lines[-6:] = [
        "check A-family-validated: FAIL (a generator pair does not extend: "
        "images u=(0, 0, 0, 0, 0, 0, 0), v=(0, 0, 0, 0, 0, 1, 0) "
        "do not extend to an endomorphism ([a_4, a_2] = tail))\n",
        "check H-meets-Inn: FAIL (not checked: the family is not certified)\n",
        "check bound: FAIL (a check failed, so nothing counts toward "
        "ceil((3n-2p+5)/2) = 8)\n",
        "achieved-exponent: 0\n", "required-exponent: 8\n", "result: theorem-violation\n"]
    assert capsys.readouterr().out == "".join(lines)


PINNED = ["g35", "g36", "g55", "g57", "g58", "rescaled58", "a2_outside_G1_58",
          "assoc_i2_78", "l1_58", "nonmetabelian57", "nonmetabelian58"]


def _raise_hom_check_failed(*args, **kw):
    raise HomCheckFailed("planted")


def _fail_exponent_relations(m):
    from pcmax import autom

    right = autom.verify_exponent_relations
    m.setattr(autom, "verify_exponent_relations", lambda *a: right(*a)._replace(ok=False))


def _fail_reference_quotient(m):
    from pcmax import autom

    m.setattr(autom, "check_homomorphism", _raise_hom_check_failed)


def _fail_second_derivation(m):
    from pcmax import derivations

    right, calls = derivations.check_homomorphism, []

    def second_fails(*args, **kw):
        calls.append(args)
        return (_raise_hom_check_failed if len(calls) == 2 else right)(*args, **kw)

    m.setattr(derivations, "check_homomorphism", second_fails)


def _fail_kernels(m):
    from pcmax import autom

    m.setattr(autom, "kernel_contains", lambda d, sub: False)


# the fault, planted in a computation, that must turn each computed line to
# FAIL; the lines that argue about a family's members, and the bound, rest
# on the family's certificate
COMPUTED_LINES = {
    "exponent-relations": _fail_exponent_relations,
    "quotient-matches-reference": _fail_reference_quotient,
    "A-family-validated": _fail_second_derivation,
    "Gt-family-validated": _fail_second_derivation,
    "derived-pair-family-validated": _fail_second_derivation,
    "family-commutes": _fail_kernels,
    "H-meets-Inn": _fail_second_derivation,
    "conjugation-closure": _fail_second_derivation,
    "bound": _fail_second_derivation,
}


def test_every_computed_driver_line_can_fail(request, tmp_path, capsys):
    # each line of a passing report rests on a computation, and a fault
    # planted in that computation turns it to FAIL and the count to 0; a
    # line that is always pass cannot slip in
    from pcmax import cli

    passing = {}
    for name in PINNED:
        value = request.getfixturevalue(name)
        path = tmp_path / f"{name}.grp"
        groupfile.dump(getattr(value, "pres", value), path)
        for driver in ("metabelian", "main1", "main2"):
            argv = ["verify", driver, str(path)]
            code = cli.main(argv)
            out = capsys.readouterr().out
            if code == 0:
                passing[name, driver] = argv, out.splitlines()
    assert sorted(passing) == sorted([
        ("g35", "metabelian"), ("g36", "metabelian"), ("g55", "metabelian"),
        *((g, d) for g in ("g57", "g58") for d in ("metabelian", "main1", "main2")),
        *((g, d) for g in ("nonmetabelian57", "nonmetabelian58") for d in ("main1", "main2"))])
    planted = Counter()
    for key, (argv, lines) in passing.items():
        names = [line[len("check "):].split(":")[0] for line in lines
                 if line.startswith("check ")]
        assert set(names) <= COMPUTED_LINES.keys() and names[-1] == "bound", (key, names)
        for line in names:
            with pytest.MonkeyPatch.context() as m:
                COMPUTED_LINES[line](m)
                assert cli.main(argv) == 2, (key, line)
            faulted = capsys.readouterr().out.splitlines()
            assert len(faulted) == len(lines) and faulted[-1] == "result: theorem-violation"
            assert any(f.startswith(f"check {line}: FAIL") for f in faulted), faulted
            assert faulted[-4].startswith("check bound: FAIL (a check failed")
            assert faulted[-3:-1] == ["achieved-exponent: 0", lines[-2]]
            changed = [f for f, ok in zip(faulted[:-3], lines) if f != ok]
            assert all(f.startswith("check ") and ": FAIL" in f for f in changed), changed
            planted[line] += 1
    assert planted.keys() == COMPUTED_LINES.keys(), planted


def test_verify_refusal_exit_3(g66_file):
    res = run_cli("verify", "main1", g66_file)
    assert res.returncode == 3
    assert "refused" in res.stdout


def _cli_runs(pres, path, capsys):
    """(exit code, stdout) of analyze and of the three drivers on pres."""
    from pcmax import cli

    groupfile.dump(pres, path)
    runs = {}
    for verb in (["analyze"], ["verify", "metabelian"], ["verify", "main1"],
                 ["verify", "main2"]):
        code = cli.main([*verb, str(path)])
        runs[verb[-1]] = (code, capsys.readouterr().out)
    return runs


def test_analyze_reports_a_missing_standard_chain(rescaled58, tmp_path, capsys):
    # maximal class, and the chain [a_2, a_1], [a_3, a_1], ... spans, but
    # [a_i, a_1] is not a_{i+1}: no driver accepts the input
    runs = _cli_runs(rescaled58, tmp_path / "rescaled58.grp", capsys)
    code, out = runs.pop("analyze")
    assert code == 0
    assert "maximal-class: yes\nstandard-chain: no\n" in out
    assert "chain-spans: no\n" in out
    for code, out in runs.values():
        assert (code, out) == (4, "bad input: presentation does not follow the "
                                  "standard chain convention a_{i+1} = [a_i, a_1]\n")


def test_drivers_refuse_a2_outside_G1(a2_outside_G1_58, tmp_path, capsys):
    runs = _cli_runs(a2_outside_G1_58, tmp_path / "a2.grp", capsys)
    code, out = runs.pop("analyze")
    assert code == 0
    assert "standard-chain: yes\n" in out and "chain-spans: no\n" in out
    for code, out in runs.values():
        assert (code, out) == (4, "bad input: no generator in G_1 outside G_2\n")


def test_l1_58_pins_the_drivers_known_verdicts(l1_58, tmp_path, capsys):
    """The l = 1 5^8 is valid, and both theorem drivers refuse it with
    exit 3, naming the inequality their route misses.  It is no
    counterexample: counting |Aut G| as the orbit of a_1 times its
    stabiliser gives 5^10, Juhász's bound, where main1's route reaches 5^9
    (2l = 2 < n - 2p + 5 = 3) and main2's 5^4.  ROADMAP item 1's deeper
    route changes these verdicts on purpose."""
    from pcmax.maxclass import build_profile, compute_G1, validate_maximal_class

    from .oracles import (brute_degree_of_commutativity, naive_consistency_check,
                          overlap_words)

    pres = l1_58
    assert pres.digest() == \
        "ff150f85c7ed1b78cf6d93e143632f8421517992e79a5b30edbc0efd0bf8e214"
    assert tuple(pres.consistency_check()) == (True, 28, None)
    assert naive_consistency_check(pres, overlap_words(8)) == (True, 120, None)
    profile = build_profile(validate_maximal_class(pres))
    brute = brute_degree_of_commutativity(pres, pres.lower_central_series(), compute_G1(pres))
    assert (brute, profile.l, profile.metabelian) == (1, 1, False)
    runs = _cli_runs(pres, tmp_path / "l1_58.grp", capsys)
    code, out = runs["analyze"]
    assert code == 0 and "maximal-class: yes\n" in out and "metabelian: no\n" in out
    assert runs["metabelian"] == (3, "refused: input group is not metabelian\n")
    assert runs["main1"] == (3, "refused: 2l = 2 < n - 2p + 5 = 3: the route over "
                                "A = G_6 does not reach the bound\n")
    assert runs["main2"] == (3, "refused: 2(n-t) = 4 < n - 2p + 7 = 5: the route over "
                                "G_6 does not reach the bound\n")


# v_5(|Aut G|) of the searched fixtures, counted as the orbit of a_1 times its
# stabiliser (ROADMAP, "Measured at this re-anchor" and item 1): |Aut G| is
# 5^9 on the 5^7 and 2^2 5^11 on the 5^8
AUT_EXPONENTS = {"nonmetabelian57": 9, "nonmetabelian58": 11}


def test_no_driver_claims_more_automorphisms_than_there_are(request, l1_58, tmp_path,
                                                            capsys):
    for name, aut_exponent in AUT_EXPONENTS.items():
        runs = _cli_runs(request.getfixturevalue(name).pres, tmp_path / f"{name}.grp", capsys)
        for driver in ("main1", "main2"):
            code, out = runs[driver]
            achieved = int(re.search(r"^achieved-exponent: (\d+)$", out, re.M)[1])
            assert code == 0 and 0 < achieved <= aut_exponent, (name, driver, achieved)
    # |Aut G| = 5^10 on l1_58, and both routes fall short of it
    runs = _cli_runs(l1_58, tmp_path / "l1_58.grp", capsys)
    assert runs["main1"][0] == runs["main2"][0] == 3


# analyze's name of each profile line of a verify report
ANALYZE_NAMES = {"order": "order", "class": "nilpotency-class",
                 "l": "degree-of-commutativity", "r": "r", "t": "t", "metabelian": "metabelian"}


@pytest.mark.parametrize("source, passing", [
    ("g57", {"metabelian", "main1", "main2"}), ((5, 12), {"metabelian", "main1", "main2"}),
    # n = p + 1: the theorem drivers refuse
    ((7, 8), {"metabelian"}),
    ("nonmetabelian57", {"main1", "main2"}), ("nonmetabelian58", {"main1", "main2"}),
], ids=["reference-5-7", "reference-5-12", "reference-7-8", "searched-5-7", "searched-5-8"])
def test_verify_and_analyze_agree_on_the_profile(request, source, passing, tmp_path, capsys):
    from pcmax.blackburn import build_blackburn_pc

    if isinstance(source, tuple):
        pres = build_blackburn_pc(*source)
    else:
        value = request.getfixturevalue(source)
        pres = getattr(value, "pres", value)
    runs = _cli_runs(pres, tmp_path / "g.grp", capsys)

    def fields(out):
        return dict(line.split(": ", 1) for line in out.splitlines())

    code, out = runs.pop("analyze")
    assert code == 0
    analyzed = fields(out)
    analyzed["metabelian"] = {"yes": "True", "no": "False"}[analyzed["metabelian"]]
    assert {verb for verb, (code, _) in runs.items() if code == 0} == passing
    for verb in passing:
        reported = fields(runs[verb][1])
        assert {key: reported[f"profile-{key}"] for key in ANALYZE_NAMES} == {
            key: analyzed[name] for key, name in ANALYZE_NAMES.items()}, verb


@pytest.mark.parametrize("p, n", [(67, 70), (101, 103)])
def test_reference_past_61_in_closed_form(p, n, tmp_path, capsys):
    # the ring certificate and the overlap test both pass the reference,
    # and the certificate passes no seeded corruption of it (one that the
    # overlap test passes may be another group); analyze prints l = n - 3,
    # r = 2, t = ceil((n+1)/2) and the series n, n-2, ..., 0; the drivers
    # pass with their closed-form counts
    import random

    from pcmax.blackburn import RingModule, build_blackburn_pc

    from .conftest import SEED
    from .test_blackburn import _certified, _corruptions

    pres = build_blackburn_pc(p, n)  # certified by the ring model
    assert pres.consistency_check().ok
    ring = RingModule(p, n)
    for bad in _corruptions(pres, random.Random(SEED), 3):
        assert not _certified(bad, ring)
    runs = _cli_runs(pres, tmp_path / "g.grp", capsys)
    t = (n + 2) // 2
    code, out = runs.pop("analyze")
    assert code == 0
    series = " ".join(map(str, (n, *range(n - 2, -1, -1))))
    assert f"series-order-exponents: {series}\n" in out
    assert f"degree-of-commutativity: {n - 3}\nr: 2\nt: {t}\nmetabelian: yes\n" in out
    for driver, achieved in (("main1", 2 * (n - 2)), ("main2", 2 * (n - t))):
        code, out = runs[driver]
        assert code == 0 and out.endswith("result: pass\n"), driver
        assert f"\nachieved-exponent: {achieved}\n" in out, driver
    assert runs["metabelian"][0] == 0


@pytest.mark.parametrize("argv, p", [
    (["build", "--p", "257", "--n", "300"], 257),
    (["export", "--p", "9", "--n", "5"], 9),
    (["analyze", "{path}"], 2**61 - 1),
    (["verify", "main1", "{path}"], 2**61 - 1),
], ids=["build-257", "export-9", "analyze-2^61-1", "verify-2^61-1"])
def test_inadmissible_primes_exit_4(argv, p, tmp_path, capsys):
    # refused before any p-sized table: well within a second, in process
    # and in a child, with one bad-input line and no traceback
    import time

    from pcmax import cli

    path = tmp_path / "g.grp"
    path.write_text(f"pcmax-group 1\np {p}\nn 1\npower 1 : 0\n")
    argv = [a.format(path=path) for a in argv]
    t0 = time.perf_counter()
    assert cli.main(argv) == 4
    assert time.perf_counter() - t0 < 1
    message = f"bad input: p must be an odd prime below 256, got {p}\n"
    assert capsys.readouterr().out == message
    res = run_cli(*argv, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (4, message, "")


def test_verify_inconsistent_exit_4(tmp_path, g57):
    text = groupfile.dumps(g57).replace(
        "comm 3 1 : 0 0 0 1 0 0 0", "comm 3 1 : 0 0 0 0 1 0 0")
    path = tmp_path / "bad.grp"
    path.write_text(text)
    res = run_cli("verify", "main1", str(path))
    assert res.returncode == 4


def test_analyze_inconsistent_exit_4(tmp_path, g57):
    text = groupfile.dumps(g57).replace(
        "comm 3 1 : 0 0 0 1 0 0 0", "comm 3 1 : 0 0 0 0 1 0 0")
    path = tmp_path / "bad.grp"
    path.write_text(text)
    res = run_cli("analyze", str(path))
    assert res.returncode == 4


USAGE_ERRORS = {
    "empty-argv": ([], "the following arguments are required: verb"),
    "unknown-verb": (["frobnicate"], "argument verb: invalid choice: 'frobnicate' (choose "
                     "from 'build', 'analyze', 'verify', 'selftest', 'export')"),
    "unknown-option-before-verb": (["--seed", "3", "selftest"],
                                   "unrecognized arguments: --seed"),
    "bad-theorem": (["verify", "not-a-theorem", "nowhere.grp"], "argument theorem: invalid "
                    "choice: 'not-a-theorem' (choose from 'metabelian', 'main1', 'main2')"),
    "missing-path": (["verify", "main1"], "the following arguments are required: path"),
    "missing-positionals": (["verify", "--timings"],
                            "the following arguments are required: theorem, path"),
    "missing-p-and-n": (["build", "-o", "g.grp"],
                        "the following arguments are required: --p, --n"),
    "missing-n": (["export", "--p", "3"], "the following arguments are required: --n"),
    "non-integer-seed": (["analyze", "g.grp", "--seed", "x"],
                         "argument --seed: invalid int value: 'x'"),
    "non-integer-p": (["build", "--p=five", "--n", "7"],
                      "argument --p: invalid int value: 'five'"),
    "no-value": (["build", "--p", "5", "--n"], "argument --n: expected one argument"),
    "option-for-value": (["build", "--p", "--n", "7"], "argument --p: expected one argument"),
    "no-value-short": (["export", "--p", "3", "--n", "5", "-o"],
                       "argument -o/--out: expected one argument"),
    "value-for-flag": (["verify", "main1", "g.grp", "--timings=1"],
                       "argument --timings: ignored explicit argument '1'"),
    "extra-positional": (["analyze", "g.grp", "h.grp"], "unrecognized arguments: h.grp"),
    "extras-in-argv-order": (["analyze", "g.grp", "x", "--zz", "1", "-q"],
                             "unrecognized arguments: x --zz 1 -q"),
    "option-of-another-verb": (["analyze", "--version", "g.grp"],
                               "unrecognized arguments: --version"),
    "ambiguous-prefix": (["selftest", "--s", "3"],
                         "ambiguous option: --s could match --seed, --samples"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exit_1(argv, message, monkeypatch, capsys):
    # one usage line and one error line on stderr, in argparse's wording,
    # and nothing on stdout; no verb has two options with a common prefix,
    # so for the ambiguous prefix the selftest gets a second option
    from pcmax import cli

    monkeypatch.setitem(cli._VERBS, "selftest", ({}, {"--seed": (int, 0), "--samples": (int, 0)}))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    verb = argv[0] if argv and argv[0] in cli._VERBS else None
    assert (out, err) == ("", f"usage: {cli._usage(verb)}\nerror: {message}\n")
    assert err.startswith(f"usage: pcmax {verb or '[--version]'} ")


@pytest.mark.parametrize("argv, out", [
    (["--help"], pcmax.cli.__doc__),
    (["-h", "frobnicate"], pcmax.cli.__doc__),
    (["verify", "--help"],
     "usage: pcmax verify [--seed SEED] [--timings] {metabelian,main1,main2} path\n"),
    (["build", "-h", "--p", "x"], "usage: pcmax build --p P --n N [-o OUT]\n"),
    (["--version"], f"pcmax {pcmax.__version__}\n"),
    (["--vers"], f"pcmax {pcmax.__version__}\n"),
])
def test_help_and_version_exit_0(argv, out):
    res = run_cli(*argv)
    assert (res.returncode, res.stdout, res.stderr) == (0, out, "")


def test_help_names_every_verb_with_its_usage_and_handler():
    # the docstring's usage block is what --help prints, so it must name the
    # verbs of the table, each with the usage line the parser reports
    from pcmax import cli

    block = cli.__doc__.split("usage:\n", 1)[1].split("\n\n", 1)[0]
    lines = [ln.strip() for ln in block.splitlines() if ln.strip() != "pcmax --version"]
    assert lines == [cli._usage(verb) for verb in cli._VERBS]
    for verb in cli._VERBS:
        assert callable(getattr(cli, f"_cmd_{verb}")), verb


VERIFY_MAIN2 = ("verify", {"theorem": "main2", "path": "g.grp", "seed": 7, "timings": True})
BUILD_57 = ("build", {"p": 5, "n": 7, "out": "g.grp"})


@pytest.mark.parametrize("argv, parsed", [
    (["verify", "main2", "g.grp", "--seed", "7", "--timings"], VERIFY_MAIN2),
    (["verify", "--seed=7", "main2", "--timings", "g.grp"], VERIFY_MAIN2),
    (["verify", "main2", "--tim", "--s", "7", "--", "g.grp"], VERIFY_MAIN2),
    (["verify", "main2", "g.grp", "--seed", "1", "--seed=7", "--timings", "--timings"],
     VERIFY_MAIN2),
    (["build", "--p", "5", "--n", "7", "-o", "g.grp"], BUILD_57),
    (["build", "--n=7", "--p=5", "--out=g.grp"], BUILD_57),
    (["build", "--p", "5", "--n", "7", "-og.grp"], BUILD_57),
    (["build", "--p", "5", "--n", "7", "--o", "g.grp"], BUILD_57),
    (["build", "--p", "5", "--n", "7"], ("build", {"p": 5, "n": 7, "out": None})),
    (["selftest", "--seed", "-3"], ("selftest", {"seed": -3})),
    (["analyze", "--", "-"], ("analyze", {"path": "-", "seed": pcmax.DEFAULT_SEED})),
])
def test_parse_spellings(argv, parsed):
    # --opt=value, unique prefixes, repeats (the last wins), "--" and
    # negative numbers as values, as argparse read them
    from pcmax import cli

    assert cli._parse(argv) == parsed


VERB_RUNS = {
    "analyze": [["analyze", "{g57}"], ["analyze", "{nm58}"]],
    "verify": [["verify", "main1", "{g57}"], ["verify", "main1", "{nm58}"]],
    "selftest": [["selftest"]],
}
NOT_FOR_ANALYZE = ["pcmax.autom", "pcmax.blackburn", "pcmax.derivations",
                   "pcmax.homs", "pcmax.search"]


@pytest.mark.parametrize("verb", sorted(VERB_RUNS))
def test_verb_imports_only_its_modules(verb, g57_file, nonmetabelian58, tmp_path):
    # A fresh interpreter without site start-up, as pytest itself has
    # imported dataclasses; the loaded modules go to stderr.
    nm58 = tmp_path / "nm58.grp"
    groupfile.dump(nonmetabelian58.pres, nm58)
    runs = [[a.format(g57=g57_file, nm58=nm58) for a in argv] for argv in VERB_RUNS[verb]]
    code = ("import json, sys\nfrom pcmax import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "json.dump([codes, sorted(sys.modules)], sys.stderr)\n")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=pcmax_env(), check=True)
    codes, modules = json.loads(res.stderr)
    assert codes == [0] * len(runs)
    assert not {"dataclasses", "argparse", "gettext", "locale", "random"} & set(modules)
    if verb == "analyze":
        assert not set(NOT_FOR_ANALYZE) & set(modules)
    else:
        assert "pcmax.autom" in modules
    # the selftest runs a driver but prints no digest; the others print one
    assert ("hashlib" in modules) == (verb != "selftest")


def test_package_imports_only_the_standard_library():
    # the package stays stdlib-only: every absolute import names a module of
    # the standard library
    imported = set()
    for folder, _, files in os.walk(os.path.dirname(pcmax.__file__)):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((alias.name, name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((node.module, name))
    outside = sorted((module, name) for module, name in imported
                     if module.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside
    assert {module for module, _ in imported} >= {"__future__", "hashlib", "typing"}


def test_reports_are_byte_identical(g57_file):
    a = run_cli("verify", "metabelian", g57_file, "--seed", "99")
    b = run_cli("verify", "metabelian", g57_file, "--seed", "99")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


@pytest.mark.parametrize("theorem", ["main1", "main2"])
def test_timings_go_to_stderr_only(g57_file, theorem):
    plain = run_cli("verify", theorem, g57_file)
    timed = run_cli("verify", theorem, g57_file, "--timings")
    assert timed.stdout == plain.stdout
    assert timed.returncode == plain.returncode == 0
    assert plain.stderr == ""
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", timed.stderr)


def test_report_embeds_version_digest_seed_budgets(g57_file):
    res = run_cli("verify", "metabelian", g57_file)
    for token in ["tool-version:", "input-digest: sha256:", "seed:"]:
        assert token in res.stdout
    assert "note:" not in res.stdout


@pytest.mark.parametrize("flag", ["--pair-budget", "--sample-count",
                                  "--commutativity-budget", "--conj-sample"])
def test_retired_sampling_flags_are_usage_errors(g57_file, flag):
    res = run_cli("verify", "main2", g57_file, flag, "0")
    assert res.returncode == 1
    assert f"unrecognized arguments: {flag} 0" in res.stderr
    assert res.stdout == ""


def test_export_ring():
    res = run_cli("export", "--p", "3", "--n", "5")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == (
        "ring-model p=3 n=5\n"
        "additive-order: 3^4\n"
        "abelian-invariants: 9 9\n"
        "p*b_1 = 0 0 2 1\n"
        "p*b_2 = 0 0 0 2\n"
        "p*b_3 = 0 0 0 0\n"
        "p*b_4 = 0 0 0 0\n"
        "theta*b_1 = 1 1 0 0\n"
        "theta*b_2 = 0 1 1 0\n"
        "theta*b_3 = 0 0 1 1\n"
        "theta*b_4 = 0 0 0 1\n")
    # the group file of the reference group has one route: `build`
    for model in ("ring", "pc"):
        res = run_cli("export", "--model", model, "--p", "3", "--n", "5")
        assert res.returncode == 1
        assert f"unrecognized arguments: --model {model}" in res.stderr
        assert res.stdout == ""


@pytest.mark.parametrize("argv, code", [
    (["analyze", "{missing}"], 4),
    (["analyze", "{directory}"], 4),
    (["verify", "main1", "{missing}"], 4),
    (["verify", "main1", "{directory}"], 4),
    (["build", "--p", "3", "--n", "5", "-o", "{missing}"], 1),
    (["build", "--p", "3", "--n", "5", "-o", "{directory}"], 1),
    (["export", "--p", "3", "--n", "5", "-o", "{missing}"], 1),
    (["export", "--p", "3", "--n", "5", "-o", "{directory}"], 1),
], ids=[f"{verb}-{path}" for verb in ("analyze", "verify", "build", "export")
        for path in ("missing", "directory")])
def test_bad_paths_exit_with_their_documented_code(tmp_path, argv, code):
    # an unreadable input is bad input (4), reported on stdout; an output
    # path that cannot be written is a usage error (1), one line on stderr
    paths = {"missing": str(tmp_path / "missing" / "g.grp"), "directory": str(tmp_path)}
    argv = [a.format(**paths) for a in argv]
    res = run_cli(*argv)
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    message = res.stdout if code == 4 else res.stderr
    assert re.fullmatch(r"(bad input|error): [^\n]*\n", message)
    assert argv[-1] in message
    assert (res.stderr if code == 4 else res.stdout) == ""


SELFTEST_CHECKS = ["construction", "maximal-class", "cross-model", "sigma",
                   "derivation-monoid", "cocycle-law", "s-fixing-family",
                   "metabelian-driver"]


def test_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0
    assert res.stdout == "".join(f"selftest {name}: pass\n"
                                 for name in [*SELFTEST_CHECKS, "result"])


@pytest.mark.parametrize("fault, wrong, second_only", [
    ("evaluate", (0, 0, 0, 0, 1), False),
    ("evaluate", (1, 1, 0, 0, 0), False),
    ("evaluate", (2, 1, 1, 1, 1), False),
    ("evaluate", (1, 1, 0, 0, 0), True),
    ("bullet", None, False),
    ("build_H", "moves s", False),
    ("build_H", "fails", False),
], ids=["evaluate-a5", "evaluate-a1a2", "evaluate-a1^2a2a3a4a5",
        "evaluate-a1a2-of-d2", "bullet", "build_H-moves-s", "build_H-fails"])
def test_selftest_catches_planted_faults(monkeypatch, capsys, fault, wrong, second_only):
    # the selftest's exact checks must see a derivation wrong on a single
    # element of its 3^5 (for both derivations, or only for the second,
    # which is 1 on a_1), a bullet without its composition term, and an
    # s-fixing family that moves s or failed its certificate
    from pcmax import autom, derivations

    owner = derivations
    if fault == "evaluate":
        right = derivations.evaluate

        def planted(d, g):
            value = right(d, g)
            if g != wrong or (second_only and not d.u.is_identity()):
                return value
            return d.pres.multiply(value, d.pres.generators[-1])

        failing = "cocycle-law"
    elif fault == "bullet":
        planted = derivations.add  # bullet without its composition term
        failing = "derivation-monoid"
    else:
        right = autom.build_H

        def planted(pres, profile):
            if wrong == "moves s":
                return autom.certify_family(pres, profile, profile.r)
            return right(pres, profile)._replace(passed=False)

        owner, failing = autom, "s-fixing-family"
    monkeypatch.setattr(owner, fault, planted)
    assert pcmax.cli.main(["selftest"]) == 2
    assert capsys.readouterr().out == "".join(
        f"selftest {name}: {'FAIL' if name in (failing, 'result') else 'pass'}\n"
        for name in [*SELFTEST_CHECKS, "result"])
