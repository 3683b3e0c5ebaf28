"""Span tracing of the pcmax package from outside it.

`install` wraps public functions and methods of the pcmax modules in place,
so the package itself carries no tracing code.  A function imported into
several modules with `from .x import f` is patched in every namespace that
binds it, each binding with its own wrapper, so that a call is recorded
whichever binding it goes through (`Tracer.site_calls` counts per binding).

Two kinds of record are kept in memory and written out by `dump`:

* spans, one per call: name, start, end, parent span and self time;
* aggregates for the hot element operations, which run millions of times
  in one pass: per (name, parent name) the call count, total time and self
  time.

Self time is a call's duration minus the time its traced children cover.
The collector `_collect` is never wrapped: it is the innermost loop and a
wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Traced callables per module.  Dotted names are methods, patched on the
# class.  AGGREGATED names are hot enough to be kept as aggregates only.
TRACED = {
    "pcgroup": [
        "PcPresentation.multiply", "PcPresentation.invert",
        "PcPresentation.power", "PcPresentation.conjugate",
        "PcPresentation.commutator", "PcPresentation.consistency_check",
        "PcPresentation.lower_central_series",
        "PcPresentation.subgroup_from_generators",
        "PcPresentation.centralizer_mod", "PcPresentation.quotient_by_term",
        "Subgroup.contains", "Subgroup.is_abelian", "Subgroup.is_normal",
        "Subgroup.random_element",
    ],
    "maxclass": [
        "validate_maximal_class", "compute_G1", "degree_of_commutativity",
        "standard_generators", "build_profile", "verify_exponent_relations",
        "conjugacy_facts", "require_theorem_hypotheses",
    ],
    "blackburn": [
        "build_blackburn_pc", "build_m_presentation", "sigma", "verify_sigma",
        "cross_model_check", "module_derivation_from_polynomial",
    ],
    "derivations": [
        "make_derivation", "one_plus", "kernel_contains", "kernel_of",
        "evaluate", "add", "negate", "bullet", "check_lemma_down",
    ],
    "homs": [
        "check_homomorphism", "inner_automorphism", "certify_automorphism",
        "GroupMap.then", "GroupMap.evaluate",
    ],
    "autom": [
        "phi", "build_H", "h_cap_inn_check", "verify_thm_metabelian",
        "verify_thm_main1", "verify_thm_main2", "invert_automorphism",
    ],
    "search": ["search_nonmetabelian"],
    "groupfile": ["loads", "load", "dumps", "dump"],
}

AGGREGATED = frozenset({
    "multiply", "invert", "power", "conjugate", "commutator",
    "Subgroup.contains", "Subgroup.is_abelian", "Subgroup.is_normal",
    "Subgroup.random_element", "GroupMap.evaluate", "evaluate",
})


def span_name(qualname: str) -> str:
    """Metric name of a traced callable: PcPresentation methods go by their
    bare name, other methods by Class.method."""
    cls, _, attr = qualname.rpartition(".")
    return attr if cls == "PcPresentation" else qualname


class Tracer:
    """In-memory span and aggregate store with a stack of open calls.

    An open call is a list [name, child_time, span_id]; span_id is None for
    aggregated calls.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.spans = []           # (name, start, end, parent_id, self_s, raised)
        self.aggregates = {}      # (name, parent name) -> [calls, total_s, self_s]
        self.site_calls = Counter()
        self.module_of = {}       # span name -> module

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def span(self, name, fn, site=None):
        """Wrap fn so each call is one span record."""
        stack, clock, spans, sites = self.stack, self.clock, self.spans, self.site_calls
        parent_span = self._parent_span

        def wrapper(*args, **kwargs):
            if site is not None:
                sites[site] += 1
            parent = stack[-1] if stack else None
            span_id = len(spans)
            spans.append(None)
            frame = [name, 0.0, span_id]
            parent_id = parent_span()
            stack.append(frame)
            raised = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans[span_id] = (name, start, end, parent_id,
                                  end - start - frame[1], raised)

        return _named(wrapper, fn)

    def aggregate(self, name, fn, site=None):
        """Wrap fn so calls are summed per (name, parent name)."""
        stack, clock, agg, sites = self.stack, self.clock, self.aggregates, self.site_calls

        def wrapper(*args, **kwargs):
            if site is not None:
                sites[site] += 1
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                key = (name, None)
                if parent is not None:
                    parent[1] += dt
                    key = (name, parent[0])
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]

        return _named(wrapper, fn)

    def wrap(self, name, fn, site=None):
        if name in AGGREGATED:
            return self.aggregate(name, fn, site)
        return self.span(name, fn, site)

    def records(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[name, parent, *vals]
                           for (name, parent), vals in self.aggregates.items()],
            "site_calls": dict(self.site_calls),
            "module_of": dict(self.module_of),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def _named(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Patch every traced callable of the imported pcmax package; returns a
    function that puts the originals back.

    Methods are replaced on their class.  A module-level function is
    replaced in its defining module and in every other pcmax module whose
    namespace binds the same object, each binding getting its own wrapper
    keyed by the binding module in `site_calls` as "module:function".
    """
    import importlib

    modules = {name: importlib.import_module(f"pcmax.{name}")
               for name in (*TRACED, "cli")}
    patched = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for module_name, qualnames in TRACED.items():
        module = modules[module_name]
        for qualname in qualnames:
            name = span_name(qualname)
            tracer.module_of[name] = module_name
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                patch(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            for binder_name, binder in modules.items():
                if binder.__dict__.get(qualname) is original:
                    patch(binder, qualname, tracer.wrap(
                        name, original, site=f"{binder_name}:{qualname}"))

    def restore():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore


def main(argv=None) -> int:
    """Child process entry: run the pcmax command line under one root span
    named cli.<verb> and write the trace.

        python3 tracer.py TRACE_OUT -- <pcmax arguments>
    """
    out, sep, *cli_args = sys.argv[1:] if argv is None else argv
    if sep != "--" or not cli_args:
        raise SystemExit("usage: tracer.py TRACE_OUT -- <pcmax arguments>")
    tracer = Tracer()
    install(tracer)
    from pcmax import cli

    root = f"cli.{cli_args[0]}"
    tracer.module_of[root] = "cli"
    code = tracer.span(root, cli.main)(cli_args)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
