"""Correctness of one experiment's summary: its asserted bounds and a
comparison of its observed values with committed reference values.

Operations per summary: one per asserted bound (it must pass with a finite
observed value) plus one reference comparison.  The comparison passes when
the assertion names and bounds equal the reference's and every observed
value v satisfies |v - ref| <= RTOL * |ref| + ATOL.  RTOL sits well above
float64 roundoff amplified by the fits and differences that produce the
observed values, and far below any change in what they measure; ATOL covers
values that are themselves roundoff residuals (martingale and
biorthogonality errors near 1e-15).  A NaN never passes.
"""

from __future__ import annotations

import hashlib
import json
import math

RTOL = 1e-9
ATOL = 1e-12


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def reference_entry(cfg: dict, summary: dict) -> dict:
    """What the reference file stores for one experiment run."""
    return {
        "experiment": cfg["experiment"],
        "config_sha256": config_digest(cfg),
        "assertions": [[a["name"], a["bound"], a["observed"]] for a in summary["assertions"]],
    }


def reference_problems(cfg: dict, summary: dict, ref: dict) -> list:
    """Reasons the summary disagrees with the reference; empty when it agrees."""
    if ref["config_sha256"] != config_digest(cfg):
        return ["config differs from the one the reference was made with"]
    got = summary["assertions"]
    if [(a["name"], a["bound"]) for a in got] != [(n, b) for n, b, _ in ref["assertions"]]:
        return ["assertion names or bounds differ from the reference"]
    problems = []
    for a, (name, _, expected) in zip(got, ref["assertions"]):
        obs = a["observed"]
        if not (math.isfinite(obs) and abs(obs - expected) <= RTOL * abs(expected) + ATOL):
            problems.append(f"{name}: observed {obs!r}, reference {expected!r}")
    return problems


def count_operations(cfg: dict, summary: dict, ref: dict):
    """(attempted, failed, problems) for one experiment's summary."""
    problems = [f"{a['name']}: assertion failed (observed {a['observed']!r}, bound {a['bound']!r})"
                for a in summary["assertions"]
                if not (a["pass"] and math.isfinite(a["observed"]))]
    failed = len(problems)
    ref_problems = reference_problems(cfg, summary, ref)
    failed += bool(ref_problems)
    return len(summary["assertions"]) + 1, failed, problems + ref_problems
