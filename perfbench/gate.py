"""The verdict gate: is one pcmax command's output a correct verdict?

Reports are checked field by field, never byte for byte, so that rewording
a check's detail text does not fail the gate.  Expected values come from
the workload: closed forms in (p, n) for the reference groups, values
pinned for the searched fixtures, and for `input-digest` the sha256 of the
group file (pinned for the fixtures).
"""

from __future__ import annotations

import math
import re


def parse_fields(stdout: str) -> dict:
    """First value of each `key: value` line; `check X: ...` keys keep the
    `check X` prefix."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value.strip()
    return fields


def reference_profile(p: int, n: int) -> dict:
    """Profile of the metabelian reference group of order p^n: G_1 is
    abelian, so l = n - 3, r = 2 and t = max(2, ceil((n + 1) / 2))."""
    l = n - 3
    return {"order": f"{p}^{n}", "class": str(n - 1), "l": str(l),
            "r": str(n - l - 1), "t": str(max(n - l - 1, (n + 2) // 2)),
            "metabelian": "True"}


def series_exponents(n: int) -> str:
    """Orders of the lower central series terms of a group of maximal class."""
    return " ".join(str(e) for e in [n] + list(range(n - 2, -1, -1)))


def verify_expectations(driver: str, p: int, n: int, profile: dict) -> dict:
    """Fields a verify report must carry."""
    expect = {"driver": driver, **{f"profile-{k}": v for k, v in profile.items()}}
    l, t = int(profile["l"]), int(profile["t"])
    if driver == "main1":
        metabelian = profile["metabelian"] == "True"
        expect["achieved-exponent"] = str(2 * (n - 2) if metabelian else n + l)
        expect["required-exponent"] = str(math.ceil((3 * n - 2 * p + 5) / 2))
    elif driver == "main2":
        expect["achieved-exponent"] = str(2 * (n - t))
        expect["required-exponent"] = str(n - 2 * p + 7)
    return expect


def analyze_expectations(p: int, n: int, profile: dict) -> dict:
    return {"order": f"{p}^{n}", "series-order-exponents": series_exponents(n),
            "nilpotency-class": str(n - 1), "maximal-class": "yes",
            "standard-chain": "yes", "degree-of-commutativity": profile["l"],
            "r": profile["r"], "t": profile["t"],
            "metabelian": "yes" if profile["metabelian"] == "True" else "no"}


def check(kind: str, returncode: int, stdout: str, expect: dict) -> list:
    """Problems with one command's verdict; empty when it passes the gate."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    fields = parse_fields(stdout)
    for key, value in expect.items():
        if fields.get(key) != value:
            problems.append(f"{key}: expected {value!r}, got {fields.get(key)!r}")
    if kind == "verify":
        if fields.get("result") != "pass":
            problems.append(f"result: {fields.get('result')!r}")
        failed = [k for k, v in fields.items()
                  if k.startswith("check ") and v.split(" ", 1)[0] != "pass"]
        problems.extend(f"{k}: not pass" for k in failed)
        try:
            achieved = int(fields["achieved-exponent"])
            required = int(fields["required-exponent"])
        except (KeyError, ValueError):
            problems.append("achieved/required exponent missing")
        else:
            if achieved < required:
                problems.append(f"achieved exponent {achieved} < required {required}")
    elif kind == "analyze":
        if not re.match(r"pass \(\d+ overlaps\)$", fields.get("consistency", "")):
            problems.append(f"consistency: {fields.get('consistency')!r}")
    elif kind == "selftest":
        lines = [ln for ln in stdout.splitlines() if ln.startswith("selftest ")]
        if "selftest result: pass" not in lines:
            problems.append("selftest result is not pass")
        problems.extend(f"{ln!r}" for ln in lines if not ln.endswith(": pass"))
    return problems
