"""The benchmark's pinned configs: perfbench/reference.json stores the sha256 of every
experiment config its workloads run, so an edit to a default config fails every
reference comparison of the benchmark.  This test makes such an edit fail here first.
It only reads the perfbench files."""

import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, executed from its source (no bytecode is cached)."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads, reference = load("workloads"), load("reference")
PINNED = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("variant", range(workloads.N_VARIANTS))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_configs_match_the_pinned_digests(name, variant):
    cfgs = workloads.workload_configs(name, variant)
    pinned = PINNED[name][str(variant)]
    assert [c["experiment"] for c in cfgs] == [e["experiment"] for e in pinned]
    assert [reference.config_digest(c) for c in cfgs] == [e["config_sha256"] for e in pinned]
