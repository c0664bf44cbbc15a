"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import PER_LAYER  # noqa: E402
from reference import ATOL, RTOL, count_operations, reference_entry  # noqa: E402
from spans import Tracer, loglog_slope  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_span_tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    clock = FakeClock()
    tr = Tracer(clock=clock)
    for t, op, name in [(0, "begin", "m.A"), (1, "begin", "m.B"), (2, "begin", "m.C"),
                        (3, "end", None), (4, "end", None), (5, "begin", "m.D"),
                        (9, "end", None), (10, "end", None)]:
        clock.now = float(t)
        tr.begin(name) if op == "begin" else tr.end()
    self_s = {n: st.self_s for n, st in tr.stats.items()}
    total_s = {n: st.total_s for n, st in tr.stats.items()}
    assert self_s == {"m.A": 3.0, "m.B": 2.0, "m.C": 1.0, "m.D": 4.0}
    assert total_s == {"m.A": 10.0, "m.B": 3.0, "m.C": 1.0, "m.D": 4.0}
    assert sum(self_s.values()) == total_s["m.A"]


def test_repeated_calls_accumulate_and_errors_count_per_module():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    for start in (0.0, 10.0):
        clock.now = start
        tr.begin("m.f")
        clock.now = start + 2.0
        tr.end()
    tr.begin("other.g")
    tr.end(error=True)
    assert (tr.stats["m.f"].calls, tr.stats["m.f"].self_s) == (2, 4.0)
    assert tr.errors == {"other": 1}


def _fake_package():
    a = types.ModuleType("pkg.a")
    b = types.ModuleType("pkg.b")
    exec("def leaf(x):\n    return 2 * x\n"
         "def boom():\n    raise ValueError('no')\n"
         "class K:\n    def meth(self, x):\n        return leaf(x)\n"
         "    @staticmethod\n    def make():\n        return K()\n", a.__dict__)
    # b imports leaf by name and keeps it in a dispatch dict, as experiments.RUNNERS does
    b.leaf = a.leaf
    b.TABLE = {"leaf": a.leaf}
    exec("def top(x):\n    return leaf(x) + TABLE['leaf'](x)\n", b.__dict__)
    return a, b


def test_install_wraps_rebinds_and_uninstall_restores():
    a, b = _fake_package()
    originals = (a.leaf, b.leaf, b.TABLE["leaf"], a.K.__dict__["meth"])
    tr = Tracer(probes={"a.leaf": lambda args, out: {"x": args["x"]}})
    tr.install([a, b])
    assert b.top(3) == 12
    assert a.K.make().meth(1) == 2
    with pytest.raises(ValueError):
        a.boom()
    assert tr.stats["b.top"].calls == 1
    assert tr.stats["a.leaf"].calls == 3
    assert tr.stats["a.leaf"].sums["x"] == 7
    assert tr.stats["a.K.make"].calls == tr.stats["a.K.meth"].calls == 1
    assert tr.errors == {"a": 1}
    tr.uninstall()
    assert (a.leaf, b.leaf, b.TABLE["leaf"], a.K.__dict__["meth"]) == originals
    assert isinstance(a.K.__dict__["make"], staticmethod)


def test_slope_fit_recovers_power_laws():
    sizes = [6 * 2 ** j for j in range(10)]                 # 6 .. 3072
    times = [1e-5 + 4e-9 * n ** 2.2 for n in sizes]       # fixed overhead, then n^2.2
    assert loglog_slope(sizes, times) == pytest.approx(2.2, abs=0.05)
    exact = [3e-6 * n for n in sizes for _ in range(3)]
    assert loglog_slope([n for n in sizes for _ in range(3)], exact) == pytest.approx(1.0)


def test_slope_fit_needs_three_sizes():
    assert loglog_slope([10, 20, 20], [1.0, 2.0, 3.0]) == 0.0
    assert loglog_slope([], []) == 0.0


def _summary(observed):
    return {"assertions": [
        {"name": "ratio", "bound": 1.0, "observed": observed[0], "pass": observed[0] <= 1.0},
        {"name": "residual", "bound": 1e-9, "observed": observed[1], "pass": True},
    ]}


CFG = {"experiment": "covering", "seed": 4004, "depth": 8, "params": {}}


def test_reference_comparison_accepts_roundoff():
    ref = reference_entry(CFG, _summary([0.5, 3e-16]))
    attempted, failed, _ = count_operations(CFG, _summary([0.5 * (1 + 4e-15), 7e-16]), ref)
    assert (attempted, failed) == (3, 0)


def test_reference_comparison_flags_perturbed_value():
    ref = reference_entry(CFG, _summary([0.5, 3e-16]))
    perturbed = 0.5 * (1 + 10 * RTOL) + ATOL
    attempted, failed, problems = count_operations(CFG, _summary([perturbed, 3e-16]), ref)
    assert (attempted, failed) == (3, 1)
    assert "ratio" in problems[0]


def test_reference_comparison_flags_nan():
    ref = reference_entry(CFG, _summary([0.5, 3e-16]))
    # a NaN observed value fails its assertion even if marked as passing, and the comparison
    attempted, failed, _ = count_operations(CFG, _summary([0.5, math.nan]), ref)
    assert (attempted, failed) == (3, 2)


def test_reference_comparison_flags_changed_config():
    ref = reference_entry(CFG, _summary([0.5, 3e-16]))
    cfg = dict(CFG, seed=4005)
    assert count_operations(cfg, _summary([0.5, 3e-16]), ref)[1] == 1


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_workload_configs_follow_the_seed():
    from workloads import N_VARIANTS, WORKLOADS, workload_configs

    for name in WORKLOADS:
        assert workload_configs(name, 3) == workload_configs(name, 3)
        assert workload_configs(name, 3) == workload_configs(name, 3 + N_VARIANTS)
        assert workload_configs(name, 3) != workload_configs(name, 4)
