"""Group file round trips and the command-line interface, including exit
codes and byte-identical reports."""

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import pcmax
from pcmax import groupfile
from pcmax.errors import PresentationError
from pcmax.pcgroup import PcPresentation


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "pcmax.cli", *args],
        capture_output=True, text=True, **kw)


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
                                  "power 2 : 0 0 0 0 0", "comm 3 1 : 0 0 0 1 0"])
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

    def tail(start):
        # zero below index `start`, anything in [0, p) from there on
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


def test_analyze_builds_lower_central_series_once(nonmetabelian58, tmp_path,
                                                  monkeypatch, capsys):
    # the 5^8 fixture's series is certified from its tails; the "wide-top"
    # group is not of maximal class, so its series is computed, once
    from pcmax import cli

    calls = []
    series = PcPresentation.lower_central_series

    def counting(self):
        calls.append(self)
        return series(self)

    monkeypatch.setattr(PcPresentation, "lower_central_series", counting)
    path = tmp_path / "nm58.grp"
    groupfile.dump(nonmetabelian58.pres, path)
    assert cli.main(["analyze", str(path)]) == 0
    assert "degree-of-commutativity: 2" in capsys.readouterr().out
    assert len(calls) == 0

    wide_top = PcPresentation(5, 4, [(0,) * 4] * 4, {(2, 1): (0, 0, 1, 0)})
    groupfile.dump(wide_top, path)
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.split("\n")[3:] == [
        "order: 5^4",
        "consistency: pass (20 overlaps)",
        "series-order-exponents: 4 1 0",
        "nilpotency-class: 2",
        "maximal-class: no (nilpotency class 2 != 3)",
        "standard-chain: no",
        "",
    ]
    assert len(calls) == 1


def test_verify_metabelian_pass(g57_file):
    res = run_cli("verify", "metabelian", g57_file)
    assert res.returncode == 0
    assert "result: pass" in res.stdout


def test_verify_main1_metabelian_branch(g57_file):
    res = run_cli("verify", "main1", g57_file)
    assert res.returncode == 0
    assert "achieved-exponent: 10" in res.stdout
    assert "required-exponent: 8" in res.stdout


def test_verify_refusal_exit_3(g66_file):
    res = run_cli("verify", "main1", g66_file)
    assert res.returncode == 3
    assert "refused" in res.stdout


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


def test_usage_error_exit_1():
    res = run_cli("verify", "not-a-theorem", "nowhere.grp")
    assert res.returncode == 1
    res = run_cli("frobnicate")
    assert res.returncode == 1


def test_missing_file_exit_4():
    res = run_cli("analyze", "/nonexistent/file.grp")
    assert res.returncode == 4


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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pcmax.__file__)))
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    codes, modules = json.loads(res.stderr)
    assert codes == [0] * len(runs)
    assert "dataclasses" not in modules
    if verb == "analyze":
        assert not set(NOT_FOR_ANALYZE) & set(modules)
    else:
        assert "pcmax.autom" in modules
    # the selftest runs a driver but prints no digest; the others print one
    assert ("hashlib" in modules) == (verb != "selftest")


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
    res = run_cli("export", "--model", "ring", "--p", "3", "--n", "5")
    assert res.returncode == 0
    assert "additive-order: 3^4" in res.stdout
    assert "p*b_1" in res.stdout


def test_export_pc_matches_build(tmp_path):
    a = run_cli("export", "--model", "pc", "--p", "3", "--n", "5")
    b = run_cli("build", "--p", "3", "--n", "5")
    assert a.stdout == b.stdout


def test_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0
    assert "selftest result: pass" in res.stdout
