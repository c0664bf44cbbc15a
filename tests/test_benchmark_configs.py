"""The benchmark's pinned configs and outputs: perfbench/reference.json stores the sha256
of every experiment config its workloads run and the names, bounds and observed values of
their assertions, so an edit to a default config, or a bound that moves by one ulp, fails
every reference comparison of the benchmark.  These tests make such a change fail here
first.  They only read the perfbench files."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, executed from its source (no bytecode is cached)."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads, reference = load("workloads"), load("reference")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
PINNED = REFERENCE["workloads"]
RUN_VARIANT_0 = """import sys
from pathlib import Path
src, perfbench, name, out = sys.argv[1:]
sys.path[:0] = [src, perfbench]
from splinelab.experiments import run_experiment
from workloads import workload_configs
for i, cfg in enumerate(workload_configs(name, 0)):
    run_experiment(cfg, out_dir=Path(out) / str(i), quiet=True)
"""


@pytest.mark.parametrize("variant", range(workloads.N_VARIANTS))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_configs_match_the_pinned_digests(name, variant):
    cfgs = workloads.workload_configs(name, variant)
    pinned = PINNED[name][str(variant)]
    assert [c["experiment"] for c in cfgs] == [e["experiment"] for e in pinned]
    assert [reference.config_digest(c) for c in cfgs] == [e["config_sha256"] for e in pinned]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_outputs_match_the_reference(name, tmp_path):
    # variant 0 of every workload, run as the benchmark runs it: in a fresh interpreter
    # that writes no bytecode, with the reference's BLAS thread count; every assertion
    # must pass and match the reference's names and bounds exactly
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(REFERENCE["blas_threads"]))
    subprocess.run([sys.executable, "-B", "-c", RUN_VARIANT_0, str(ROOT / "src"),
                    str(PERFBENCH), name, str(tmp_path)], env=env, check=True)
    problems = {}
    for i, (cfg, ref) in enumerate(zip(workloads.workload_configs(name, 0), PINNED[name]["0"],
                                       strict=True)):
        summary = json.loads((tmp_path / str(i) / f"{cfg['experiment']}.summary.json").read_text())
        _, failed, found = reference.count_operations(cfg, summary, ref)
        if failed:
            problems[f"{cfg['experiment']}[{i}]"] = found
    assert problems == {}
