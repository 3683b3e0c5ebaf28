"""Tests of the benchmark itself: python3 -m pytest perfbench

The binding test runs every workload once under tracing and takes about
half a minute; the others are quick.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# bindings made with `from .x import f` that must be traced where they are bound
LISTED_BINDINGS = [
    "autom:make_derivation", "autom:check_homomorphism", "autom:build_profile",
    "autom:build_blackburn_pc", "autom:kernel_contains",
    "derivations:check_homomorphism",
    "cli:build_profile", "cli:validate_maximal_class",
    "search:build_profile", "search:validate_maximal_class",
]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    t.module_of.update({"outer": "autom", "inner": "homs", "multiply": "pcgroup",
                        "failing": "derivations"})

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        leaf_w()
        leaf_w()
        clock.now += 3.0

    def failing():
        clock.now += 0.5
        raise ValueError("no")

    def outer():
        clock.now += 4.0
        inner_w()
        with pytest.raises(ValueError):
            failing_w()

    leaf_w = t.wrap("multiply", leaf)
    inner_w = t.wrap("inner", inner)
    failing_w = t.wrap("failing", failing)
    t.wrap("outer", outer)()

    stats, module_self, raised = layers.summarize([t.records()])
    assert stats["outer"] == {"calls": 1, "s": 11.5, "self_s": 4.0}
    assert stats["inner"] == {"calls": 1, "s": 7.0, "self_s": 5.0}
    assert stats["multiply"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert raised[("failing", "ValueError")] == 1
    assert sum(module_self.values()) == pytest.approx(11.5)
    assert [a[:3] for a in t.records()["aggregates"]] == [["multiply", "inner", 2]]
    outer_span, inner_span = t.spans[0], t.spans[1]
    assert outer_span[3] is None and inner_span[3] == 0


def test_same_name_nesting_counts_outer_span_once():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    t.module_of["f"] = "autom"

    def f(depth):
        clock.now += 1.0
        if depth:
            f_w(depth - 1)

    f_w = t.wrap("f", f)
    f_w(2)
    stats = layers.summarize([t.records()])[0]
    assert stats["f"] == {"calls": 3, "s": 3.0, "self_s": 3.0}


def test_install_patches_every_binding_and_restores():
    from pcmax import autom, cli, derivations, homs, pcgroup, search

    originals = {"autom": autom.make_derivation, "derivations": derivations.check_homomorphism,
                 "multiply": pcgroup.PcPresentation.multiply}
    restore = tracer.install(tracer.Tracer())
    try:
        for site in LISTED_BINDINGS:
            module, name = site.split(":")
            bound = getattr({"autom": autom, "cli": cli, "derivations": derivations,
                             "search": search}[module], name)
            assert hasattr(bound, "__wrapped__"), site
        assert homs.GroupMap.then.__wrapped__ is not None
    finally:
        restore()
    assert autom.make_derivation is originals["autom"]
    assert derivations.check_homomorphism is originals["derivations"]
    assert pcgroup.PcPresentation.multiply is originals["multiply"]


def test_every_listed_binding_records_a_call(tmp_path):
    sites = {}
    for name, setup in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        t = tracer.Tracer()
        restore = tracer.install(t)
        try:
            inputs = setup(DEFAULT_SEED, workdir)
        finally:
            restore()
        calls = dict(t.site_calls)
        runner = run.Runner(workdir, time.perf_counter() + 600)
        for i, command in enumerate(inputs.commands):
            out = workdir / f"trace-{i}.json"
            res = run.gated(runner.run(command.argv, out), command)
            assert not res["problems"], (command.argv, res["problems"])
            for site, n in json.loads(out.read_text())["site_calls"].items():
                calls[site] = calls.get(site, 0) + n
        sites[name] = calls
    missing = [s for s in LISTED_BINDINGS
               if not any(calls.get(s, 0) for calls in sites.values())]
    assert not missing, missing


REPORT = """driver: main2
input-digest: sha256:abc
profile-order: 5^7
check family-commutes: pass (exhaustive)
check bound: pass (2(n-t) = 6 >= 4)
achieved-exponent: 6
required-exponent: 4
result: pass
"""


def test_gate_checks_fields_not_bytes():
    expect = {"driver": "main2", "input-digest": "sha256:abc", "achieved-exponent": "6"}
    assert gate.check("verify", 0, REPORT, expect) == []
    reworded = REPORT.replace("(exhaustive)", "(certificate: basis pairs)")
    assert gate.check("verify", 0, reworded, expect) == []
    assert gate.check("verify", 2, REPORT, expect)
    assert gate.check("verify", 0, REPORT.replace("result: pass", "result: FAIL"), expect)
    assert gate.check("verify", 0, REPORT.replace("bound: pass", "bound: FAIL"), expect)
    assert gate.check("verify", 0, REPORT.replace("required-exponent: 4",
                                                  "required-exponent: 7"), {})
    assert gate.check("verify", 0, REPORT, {**expect, "input-digest": "sha256:def"})
    assert gate.check("selftest", 0, "selftest a: pass\nselftest result: pass\n", {}) == []
    assert gate.check("selftest", 0, "selftest a: FAIL\nselftest result: pass\n", {})


def test_reference_expectations_match_the_closed_forms():
    assert gate.reference_profile(5, 7) == {"order": "5^7", "class": "6", "l": "4",
                                            "r": "2", "t": "4", "metabelian": "True"}
    assert gate.series_exponents(5) == "5 3 2 1 0"
    exp = gate.verify_expectations("main1", 5, 7, gate.reference_profile(5, 7))
    assert (exp["achieved-exponent"], exp["required-exponent"]) == ("10", "8")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert spec["paths"] == [HERE.name]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "reference-5-7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
