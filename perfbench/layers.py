"""Per-layer metrics computed from the records of `tracer.Tracer`.

Names follow the package modules.  `X.calls` counts calls, `X.s` is the
time spent inside X with its children (outermost call of a name only),
`X.self_s` excludes the time of traced children, and `<module>.self_s`
sums the self time of every traced callable of the module.  The module
self times plus `cli.startup_s` account for the traced pass; the remainder
(process exit and writing the trace) is `1 - trace.coverage` of it.
"""

from __future__ import annotations

from collections import Counter, defaultdict

MODULES = ("pcgroup", "maxclass", "derivations", "homs", "autom", "blackburn",
           "groupfile", "cli")


def summarize(records_list):
    """Merge trace records: per-name {calls, s, self_s}, module self time
    and exceptions raised per (name, type)."""
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    raised = Counter()
    module_of = {}
    for rec in records_list:
        module_of.update(rec["module_of"])
        spans = rec["spans"]
        for name, start, end, parent, self_s, exc in spans:
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += self_s
            if exc:
                raised[(name, exc)] += 1
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                st["s"] += end - start
        for name, parent, calls, total, self_s in rec["aggregates"]:
            st = stats[name]
            st["calls"] += calls
            st["self_s"] += self_s
            if parent != name:
                st["s"] += total
    module_self = Counter()
    for name, st in stats.items():
        module_self[module_of[name]] += st["self_s"]
    return stats, module_self, raised


# (metric, unit) in report order; units: count, s, us, ratio
PER_LAYER = [
    ("pcgroup.self_s", "s"),
    ("multiply.calls", "count"), ("multiply.self_s", "s"), ("multiply.mean_us", "us"),
    ("invert.calls", "count"), ("invert.self_s", "s"), ("invert.mean_us", "us"),
    ("commutator.calls", "count"), ("commutator.self_s", "s"),
    ("conjugate.calls", "count"), ("power.calls", "count"),
    ("consistency_check.calls", "count"), ("consistency_check.s", "s"),
    ("lower_central_series.calls", "count"), ("lower_central_series.s", "s"),
    ("subgroup_from_generators.calls", "count"), ("subgroup_from_generators.s", "s"),
    ("centralizer_mod.calls", "count"), ("centralizer_mod.s", "s"),
    ("pcgroup.invert_over_multiply", "ratio"),
    ("maxclass.self_s", "s"),
    ("build_profile.calls", "count"), ("build_profile.s", "s"),
    ("compute_G1.s", "s"), ("degree_of_commutativity.s", "s"),
    ("verify_exponent_relations.s", "s"),
    ("derivations.self_s", "s"),
    ("make_derivation.calls", "count"), ("make_derivation.s", "s"),
    ("kernel_contains.calls", "count"), ("kernel_contains.s", "s"),
    ("derivations.validation_failed", "count"),
    ("homs.self_s", "s"),
    ("check_homomorphism.calls", "count"), ("check_homomorphism.s", "s"),
    ("GroupMap.then.calls", "count"), ("GroupMap.then.s", "s"),
    ("GroupMap.evaluate.calls", "count"), ("certify_automorphism.calls", "count"),
    ("autom.self_s", "s"),
    ("phi.calls", "count"), ("h_cap_inn_check.s", "s"),
    ("invert_automorphism.calls", "count"), ("invert_automorphism.s", "s"),
    ("autom.phi_per_claimed_pair", "ratio"),
    ("blackburn.self_s", "s"),
    ("build_blackburn_pc.calls", "count"), ("build_blackburn_pc.s", "s"),
    ("cross_model_check.s", "s"),
    ("search_nonmetabelian.s", "s"), ("search.candidates_tried", "count"),
    ("search.hit_ratio", "ratio"),
    ("groupfile.self_s", "s"), ("groupfile.loads.s", "s"),
    ("cli.self_s", "s"),
    ("cli.analyze.s", "s"), ("cli.verify.s", "s"), ("cli.selftest.s", "s"),
    ("cli.startup_s", "s"),
    ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
]


def layer_metrics(pass_records, setup_records, *, traced_wall_s, untraced_wall_s,
                  startup_s, claimed_pairs, candidates_tried) -> dict:
    """Every PER_LAYER metric.  `pass_records` are the traces of one traced
    pass, `setup_records` the trace of one traced set-up (where the fixture
    search runs); `startup_s` is the summed time from spawning each command
    to entering the pcmax command line."""
    stats, module_self, raised = summarize(pass_records)
    search_stats = summarize(setup_records)[0]

    def get(name, field):
        return stats[name][field] if name in stats else 0

    def mean_us(name):
        calls = get(name, "calls")
        return get(name, "s") / calls * 1e6 if calls else 0.0

    values = {f"{m}.self_s": module_self[m] for m in MODULES}
    for metric, _unit in PER_LAYER:
        if metric in values:
            continue
        name, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s"):
            values[metric] = get(name, field)
    values.update({
        "multiply.mean_us": mean_us("multiply"),
        "invert.mean_us": mean_us("invert"),
        "pcgroup.invert_over_multiply":
            mean_us("invert") / mean_us("multiply") if mean_us("multiply") else 0.0,
        "derivations.validation_failed": raised[("make_derivation", "ValidationFailed")],
        "autom.phi_per_claimed_pair":
            get("phi", "calls") / claimed_pairs if claimed_pairs else 0.0,
        "search_nonmetabelian.s": search_stats["search_nonmetabelian"]["s"]
        if "search_nonmetabelian" in search_stats else 0.0,
        "search.candidates_tried": candidates_tried,
        "search.hit_ratio": 1 / candidates_tried if candidates_tried else 0.0,
        "groupfile.loads.s": get("loads", "s"),
        "cli.startup_s": startup_s,
        "trace.traced_wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": (startup_s + sum(module_self.values())) / traced_wall_s,
    })
    return {metric: values[metric] for metric, _unit in PER_LAYER}
