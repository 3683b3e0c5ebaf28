"""Benchmark of the pcmax command line: time to a certified verdict.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--out RESULTS.json]

`all` runs every workload of BENCHMARK.json.

Load is a closed loop with one client: each command runs in a fresh
`python3 -m pcmax.cli` process, one after another, with the CLI's default
budgets.  A pass runs a workload's commands once; passes repeat until
`--seconds` have been measured (at least one pass).  Every verdict goes
through the gate in gate.py.  End-to-end metrics (`--trace 0`):

    wall_s       median over passes of the pass's summed command wall time
    setup_s      median time to make the inputs (set up at least three
                 times, and until one second has been spent)
    peak_rss_mb  median over passes of the largest child peak RSS, read
                 per child from wait4
    pass_share   commands that passed the gate / commands attempted

`--trace 1` sets up once, traced, instead of timing set-ups, adds one
traced pass after the untraced ones (commands run through tracer.py) and
reports the per-layer metrics of layers.py instead; the untraced pass
gives the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 when the package
source or its inputs cannot be made; the run prints no result then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import layers
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DEADLINE_S = 170        # a run must end within 180 s
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 3, 1.0, 200

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_share", "ratio")]


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_revision": git_revision(), "calibration_s": calibration_s()}


def git_revision() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """Median time of a fixed integer loop; moves with the host, not pcmax."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs pcmax commands as child processes under one run deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, argv, trace_out: Path | None = None) -> dict:
        if trace_out is None:
            cmd = [sys.executable, "-m", "pcmax.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), "--", *argv]
        out_path = self.workdir / "stdout.txt"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"argv": argv, "start": start, "wall_s": end - start,
                "rss_mb": usage.ru_maxrss / 1024, "returncode": proc.returncode,
                "stdout": out_path.read_text(encoding="utf-8", errors="replace")}


def gated(result: dict, command) -> dict:
    result["problems"] = gate.check(command.kind, result["returncode"],
                               result["stdout"], command.expect)
    return result


def claimed_pairs(results) -> int:
    """|target|^2 summed over the families the verify reports claim:
    G_2 on main1's metabelian branch, A = G_r on its other branch and G_t
    on main2."""
    total = 0
    for res in results:
        f = gate.parse_fields(res["stdout"])
        if f.get("driver") not in ("main1", "main2") or "profile-order" not in f:
            continue
        p, n = (int(x) for x in f["profile-order"].split("^"))
        if f["driver"] == "main2":
            start = int(f["profile-t"])
        elif f["profile-metabelian"] == "True":
            start = 2
        else:
            start = int(f["profile-r"])
        total += p ** (2 * (n - start))
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(setup, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(setup, seed, seconds, trace, workdir) -> dict:
    runner = Runner(workdir, time.perf_counter() + RUN_DEADLINE_S)
    setup_times = []
    setup_tracer = tracer.Tracer() if trace else None
    if trace:
        # the per-layer figures need one traced set-up and no timed ones
        restore = tracer.install(setup_tracer)
        try:
            start = time.perf_counter()
            inputs = setup(seed, workdir)
            setup_times.append(time.perf_counter() - start)
        finally:
            restore()
    while not trace and (len(setup_times) < MIN_SETUPS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS)):
        start = time.perf_counter()
        inputs = setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)

    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        results = [gated(runner.run(c.argv), c) for c in inputs.commands]
        passes.append(results)
        measured += sum(r["wall_s"] for r in results)
    pass_walls = [sum(r["wall_s"] for r in p) for p in passes]
    all_results = [r for p in passes for r in p]
    out = {
        "setup_times_s": setup_times,
        "pass_walls_s": pass_walls,
        "commands": all_results,
        "metrics": {
            "wall_s": statistics.median(pass_walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
        },
    }
    if trace:
        out["traced_commands"] = _trace(inputs, setup_tracer, runner, workdir, out)
        all_results = all_results + out["traced_commands"]
    attempted = len(all_results)
    failed = sum(1 for r in all_results if r["problems"])
    out["attempted"], out["failed"] = attempted, failed
    out["metrics"]["pass_share"] = (attempted - failed) / attempted
    return out


def _trace(inputs, setup_tracer, runner, workdir, out) -> list:
    """One traced pass, each command a child running under tracer.py."""
    records, results, startup = [], [], 0.0
    for i, command in enumerate(inputs.commands):
        trace_out = workdir / f"trace-{i}.json"
        res = gated(runner.run(command.argv, trace_out), command)
        results.append(res)
        rec = json.loads(trace_out.read_text())
        records.append(rec)
        root = next(s for s in rec["spans"] if s[3] is None and s[0].startswith("cli."))
        startup += root[1] - res["start"]
    out["layer_metrics"] = layers.layer_metrics(
        records, [setup_tracer.records()],
        traced_wall_s=sum(r["wall_s"] for r in results),
        untraced_wall_s=out["metrics"]["wall_s"], startup_s=startup,
        claimed_pairs=claimed_pairs(results),
        candidates_tried=inputs.candidates_tried)
    return results


def report(name: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the human-readable lines of one workload; return its metrics
    as the JSON result gives them."""
    m = res["metrics"]
    fail_share = res["failed"] / res["attempted"]
    print(f"workload {name} seed {seed}: wall_s {m['wall_s']:.3f} s, "
          f"setup_s {m['setup_s']:.4f} s, peak_rss_mb {m['peak_rss_mb']:.1f} MB, "
          f"fail_share {fail_share:.3f} ratio ({res['failed']}/{res['attempted']}); "
          f"{len(res['pass_walls_s'])} pass(es), {len(res['setup_times_s'])} set-ups")
    for r in res["commands"] + res.get("traced_commands", []):
        verdict = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
        print(f"  pcmax {' '.join(r['argv'])}: {r['wall_s']:.3f} s, "
              f"{r['rss_mb']:.1f} MB, {verdict}")
    if not trace:
        return {k: {"value": m[k], "unit": unit} for k, unit in END_TO_END}
    lm = res["layer_metrics"]
    for metric, unit in layers.PER_LAYER:
        print(f"  {metric} {lm[metric]:.6g} {unit}")
    return {k: {"value": lm[k], "unit": unit} for k, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every measurement to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "pcmax" / "cli.py").is_file():
        print(f"error: no pcmax package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    # a terminated run still kills and reaps its running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    host = host_facts()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host["calibration_end_s"] = calibration_s()
    metrics = {}
    for name, res in results.items():
        shown = report(name, args.seed, res, bool(args.trace))
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    print("host: " + json.dumps(host))
    if args.out:
        for res in results.values():
            for r in res["commands"] + res.get("traced_commands", []):
                r.pop("stdout")
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results}, fh, indent=1)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
