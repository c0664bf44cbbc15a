import ast
import json
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splinelab import density_catalog
from splinelab.cli import main as cli_main
from splinelab.experiments import (
    EXPERIMENT_NAMES,
    check_config,
    default_config,
    load_config,
    run_experiment,
)

from conftest import decay_monotone_per_distance


def small_config(name):
    """Scaled-down configs so the whole matrix stays fast in CI."""
    cfg = default_config(name)
    if name == "decay":
        cfg["depth"] = 6
        cfg["params"]["orders"] = [1, 2, 3]
        cfg["params"]["n_seeds"] = 3
    elif name == "shadrin":
        cfg["depth"] = 5
        cfg["params"]["orders"] = [1, 2]
        cfg["params"]["n_seeds"] = 2
        cfg["params"]["tensor_check"]["depth"] = 2
    elif name == "weaktype":
        cfg["params"]["q_values"] = [0.5]
        cfg["params"]["cases"] = [
            {"d": 1, "depth": 6, "orders": [2], "n_spikes": 3,
             "rule": {"name": "random-atom-bisect", "p_split": 0.7,
                      "split_range": [0.35, 0.65], "base_atoms": 2}},
        ]
    elif name == "covering":
        cfg["params"]["n_seeds"] = 3
        cfg["params"]["q_values"] = [0.5]
        cfg["params"]["t_points"] = 8
        cfg["params"]["cases"] = [
            {"d": 1, "depth": 6, "K": 2,
             "rule": {"name": "random-atom-bisect", "p_split": 0.7,
                      "split_range": [0.35, 0.65], "base_atoms": 2}},
            {"d": 2, "depth": 4, "K": 2,
             "rule": {"name": "random-atom-bisect", "p_split": 0.7,
                      "split_range": [0.35, 0.65], "base_atoms": 2}},
        ]
    elif name == "converge":
        cfg["params"]["n_probes"] = 60
        cfg["params"]["catalog"] = ["smooth-sine"]
        cfg["params"]["cases"] = [
            {"d": 1, "depth": 7, "orders": [2]},
            {"d": 2, "depth": 5, "orders": [2, 2]},
        ]
        cfg["params"]["tol"] = 5e-3
    elif name == "singular":
        cfg["depth"] = 8
        cfg["params"]["n_probes"] = 15
    elif name == "nondense":
        cfg["params"]["n_probes"] = 6
        cfg["params"]["cases"] = [
            {"d": 1, "depth": 10, "orders": [2], "v_tolerance": 0.25,
             "rules": [{"name": "frozen-on-subinterval", "frozen": [0.5, 1.0],
                        "fraction": 0.9}]},
        ]
    return cfg


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_experiment_runs_green_and_writes_artifacts(name, tmp_path):
    out = tmp_path / name
    code = run_experiment(small_config(name), out_dir=out, quiet=True)
    assert code == 0
    assert (out / f"{name}.csv").exists()
    assert (out / f"{name}.summary.json").exists()
    assert (out / f"{name}.meta.json").exists()
    summary = json.loads((out / f"{name}.summary.json").read_text())
    assert summary["experiment"] == name
    assert summary["pass"] is True
    assert summary["assertions"]
    for entry in summary["assertions"]:
        assert set(entry) == {"name", "bound", "observed", "pass"}
    meta = json.loads((out / f"{name}.meta.json").read_text())
    assert "timestamp" in meta and "numpy" in meta
    assert meta["config"]["seed"] == small_config(name)["seed"]
    # the BLAS, its thread variables, null where unset, the thread counts in effect of
    # numpy's and scipy's OpenBLAS, and whether the run could set them; meta.json only
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    counts = {key: meta["blas"][key] for key in ("numpy_threads", "scipy_threads")}
    set_ = {key: meta["blas"][key] for key in ("numpy_threads_set", "scipy_threads_set")}
    assert meta["blas"] == {"name": blas["name"], "version": blas["version"],
                            **{var: os.environ.get(var) for var in threads}, **counts, **set_}
    assert all(c is None or (isinstance(c, int) and c >= 1) for c in counts.values())
    assert all(isinstance(v, bool) for v in set_.values())
    # the CPUs of the process's affinity cap the case pool; meta.json only
    assert meta["cpus"] == len(os.sched_getaffinity(0))
    for suffix in (".csv", ".summary.json"):
        assert "BLAS" not in (out / f"{name}{suffix}").read_text().upper()
        assert "cpus" not in (out / f"{name}{suffix}").read_text()


def _src_pythonpath():
    return os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))


def test_meta_records_the_blas_threads_in_effect(tmp_path):
    # each run reads its own count back from numpy's and scipy's OpenBLAS at write time:
    # one thread, which the run set, whatever the variable says; the process gets the
    # variable's count back when the run returns
    run = ("import sys\n"
           "from splinelab.experiments import _OPENBLAS, _openblas, default_config, "
           "run_experiment\n"
           "cfg = default_config('decay')\n"
           "cfg['depth'], cfg['params']['orders'], cfg['params']['n_seeds'] = 4, [2], 1\n"
           "code = run_experiment(cfg, out_dir=sys.argv[1], quiet=True)\n"
           "print(*(_openblas(p, f'scipy_openblas_get_num_threads{s}')() for p, s in _OPENBLAS))\n"
           "sys.exit(code)\n")
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-c", run, str(out)], capture_output=True,
                              text=True, timeout=300, env=dict(
                                  os.environ, PYTHONPATH=_src_pythonpath(),
                                  OPENBLAS_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        blas = json.loads((out / "decay.meta.json").read_text())["blas"]
        assert (blas["OPENBLAS_NUM_THREADS"], blas["numpy_threads"], blas["scipy_threads"],
                blas["numpy_threads_set"], blas["scipy_threads_set"]) == (threads, 1, 1, True, True)
        assert done.stdout.split() == [threads, threads]


def test_meta_records_a_blas_thread_count_that_could_not_be_set(tmp_path, monkeypatch):
    # without a setter the run leaves that library's count alone and says so
    import splinelab.experiments as experiments

    real = experiments._openblas
    monkeypatch.setattr(experiments, "_openblas", lambda package, symbol: None if (
        package is np and "_set_" in symbol) else real(package, symbol))
    assert run_experiment(small_config("decay"), out_dir=tmp_path, quiet=True) == 0
    blas = json.loads((tmp_path / "decay.meta.json").read_text())["blas"]
    assert (blas["numpy_threads_set"], blas["scipy_threads_set"]) == (False, True)


def test_converge_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the default converge config writes different d2_k3x3 rows on 1 and 2 threads
    # unless the run holds the BLAS at one thread
    run = ("import sys\n"
           "from splinelab.experiments import default_config, run_experiment\n"
           "sys.exit(run_experiment(default_config('converge'), out_dir=sys.argv[1], "
           "quiet=True))\n")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-c", run, str(out)], capture_output=True,
                              text=True, timeout=300, env=dict(
                                  os.environ, PYTHONPATH=_src_pythonpath(),
                                  OPENBLAS_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        written.append([(out / f"converge{ext}").read_bytes()
                        for ext in (".csv", ".summary.json")])
    assert written[0] == written[1]


def _hold_cpus(monkeypatch, n):
    """Make the CPU affinity that `_map_cases` reads hold n CPUs; returns the list that
    records each case pool's `map` call in this process."""
    from concurrent.futures import ProcessPoolExecutor

    maps = []
    real = ProcessPoolExecutor.map
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(ProcessPoolExecutor, "map",
                        lambda pool, *a, **kw: maps.append(a) or real(pool, *a, **kw))
    return maps


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_outputs_byte_identical_across_runs(name, tmp_path, monkeypatch):
    # shadrin, decay and covering map their cases over two forked workers in the first
    # run and in the parent in the second, held to one CPU; the other runners are serial
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = small_config(name)
    maps = _hold_cpus(monkeypatch, 2)
    assert run_experiment(cfg, out_dir=out_a, quiet=True) == 0
    assert len(maps) == (name in ("shadrin", "decay", "covering"))
    _hold_cpus(monkeypatch, 1)
    assert run_experiment(cfg, out_dir=out_b, quiet=True) == 0
    assert len(maps) == (name in ("shadrin", "decay", "covering"))
    assert [json.loads((out / f"{name}.meta.json").read_text())["cpus"]
            for out in (out_a, out_b)] == [2, 1]
    for suffix in (".csv", ".summary.json"):
        fa = (out_a / f"{name}{suffix}").read_bytes()
        fb = (out_b / f"{name}{suffix}").read_bytes()
        assert fa == fb


def _assert_no_child_processes():
    import multiprocessing

    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_case_pool_fails_closed_and_leaves_no_process(tmp_path, monkeypatch):
    # a case that raises in a worker raises from run_experiment, and neither a failed
    # nor a passing run leaves a worker or an unreaped child behind
    maps = _hold_cpus(monkeypatch, 2)
    decay = small_config("decay")
    decay["depth"] = 1
    decay["params"]["orders"] = [1, 4]   # order 4 needs 2 * 4 functions; depth 1 has fewer
    covering = small_config("covering")
    covering["params"]["t_points"] = 0
    for i, (cfg, error) in enumerate([(decay, "needs a richer final level"),
                                      (covering, "empty threshold grid")], start=1):
        with pytest.raises(ValueError, match=error):
            run_experiment(cfg, out_dir=tmp_path / "fail", quiet=True)
        assert len(maps) == i
        assert not (tmp_path / "fail").exists()
        _assert_no_child_processes()
    assert run_experiment(small_config("decay"), out_dir=tmp_path / "pass", quiet=True) == 0
    assert len(maps) == 3
    _assert_no_child_processes()


def test_a_dead_worker_raises_and_leaves_no_process():
    # a worker that dies mid-case, here by os._exit, makes the case pool raise
    # BrokenProcessPool instead of waiting forever for its result, and the other
    # workers are stopped and reaped.  The pool runs in a process of its own session,
    # so that a hang can be killed whole, workers included.
    run = ("import multiprocessing, os\n"
           "os.sched_getaffinity = lambda pid: {0, 1}\n"
           "from splinelab.experiments import _map_cases\n"
           "try:\n"
           "    _map_cases(lambda i: os._exit(3) if i == 1 else i, [0, 1, 2, 3])\n"
           "except Exception as exc:\n"
           "    print(type(exc).__name__)\n"
           "print(multiprocessing.active_children())\n"
           "try:\n"
           "    os.waitpid(-1, os.WNOHANG)\n"
           "except ChildProcessError:\n"
           "    print('reaped')\n")
    proc = subprocess.Popen([sys.executable, "-c", run], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env=dict(os.environ, PYTHONPATH=_src_pythonpath()))
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the run hung after a worker died")
    assert proc.returncode == 0, err
    assert out.split() == ["BrokenProcessPool", "[]", "reaped"]


def test_importing_the_experiments_leaves_multiprocessing_unloaded():
    # _map_cases imports multiprocessing and concurrent.futures when it first forks,
    # so set-up does not pay for them
    done = subprocess.run(
        [sys.executable, "-c", "import sys, splinelab.experiments; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=_src_pythonpath()))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_seed_changes_data(tmp_path):
    cfg = small_config("covering")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=out_a, quiet=True)
    cfg["seed"] = cfg["seed"] + 1
    run_experiment(cfg, out_dir=out_b, quiet=True)
    assert (out_a / "covering.csv").read_bytes() != (out_b / "covering.csv").read_bytes()


def test_malformed_config_reports_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"experiment": "covering", "seed": 1}')
    with pytest.raises(ValueError, match="depth"):
        load_config(path)
    path.write_text('{"experiment": "covering", "seed": 1, "depth": 2 "params": {}}')
    with pytest.raises(ValueError, match="line"):
        load_config(path)
    path.write_text('{"experiment": "unknown", "seed": 1, "depth": 2, "params": {}}')
    with pytest.raises(ValueError, match="unknown"):
        load_config(path)


def test_cli_runs_config_and_overrides(tmp_path):
    cfg = small_config("decay")
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli_main(["decay", "--config", str(path), "--out", str(out),
                     "--seed", "4242", "--depth", "7", "--quiet"])
    assert code == 0
    meta = json.loads((out / "decay.meta.json").read_text())
    assert (meta["config"]["seed"], meta["config"]["depth"]) == (4242, 7)


@pytest.mark.parametrize("name", ["weaktype", "covering", "converge", "nondense"])
def test_cli_rejects_depth_where_cases_set_it(name, capsys):
    # --depth once ran these unchanged: each case reads its own depth
    assert cli_main([name, "--depth", "3", "--quiet"]) == 2
    assert f"error: --depth does not apply to {name}" in capsys.readouterr().err


def test_cli_exits_2_on_a_config_that_fails_the_check(tmp_path, capsys):
    # this once ended in a traceback and exit 1, the code of a failed assertion
    cfg = small_config("decay")
    cfg["params"]["sample_per_atom"] = cfg["params"].pop("samples_per_atom")
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["decay", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: decay params: missing 'samples_per_atom'; unknown 'sample_per_atom'\n")


def test_shadrin_tensor_check_is_2d():
    # the runner once built a 2-d check whatever d and orders said
    for tc in ({"d": 3, "depth": 2, "orders": [2, 2, 2]}, {"d": 2, "depth": 2, "orders": [2]}):
        cfg = small_config("shadrin")
        cfg["params"]["tensor_check"] = tc
        with pytest.raises(ValueError, match="shadrin tensor_check needs d = 2 and two orders"):
            run_experiment(cfg, quiet=True)


def test_cli_rejects_mismatched_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(small_config("decay")))
    code = cli_main(["covering", "--config", str(path), "--quiet"])
    assert code == 2


def test_cli_rejects_missing_config(tmp_path):
    code = cli_main(["decay", "--config", str(tmp_path / "nope.json"), "--quiet"])
    assert code == 2


@pytest.mark.parametrize("name, key, value", [
    ("covering", "cases", []), ("decay", "orders", []),
    ("covering", "q_values", []), ("decay", "n_seeds", 0)])
def test_run_that_asserts_nothing_fails(tmp_path, name, key, value):
    # all([]) once passed each of these with exit 0 and not one assertion made
    cfg = small_config(name)
    cfg["params"][key] = value
    with pytest.raises(ValueError, match=f"^{name}: the run made no assertions"):
        run_experiment(cfg, out_dir=tmp_path, quiet=True)
    assert list(tmp_path.iterdir()) == []


def test_cli_exits_2_on_a_value_error_while_running(tmp_path, capsys):
    # a rule the runner rejects once ended in a traceback and exit 1, the code
    # of a failed assertion; so did a run that asserted nothing
    cfg = small_config("nondense")
    cfg["params"]["cases"][0]["rules"][0]["base_atoms"] = 8
    path = tmp_path / "nondense.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["nondense", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown frozen-on-subinterval rule keys ['base_atoms']\n")
    cfg = small_config("decay")
    cfg["params"]["orders"] = []
    path.write_text(json.dumps(cfg))
    assert cli_main(["decay", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: decay: the run made no assertions")


@pytest.mark.parametrize("name, edit, message", [
    ("covering", lambda p: p.update(t_points=0, n_seeds=1), "empty threshold grid"),
    ("weaktype", lambda p: p["cases"][0].update(n_spikes=0), "n_spikes must be an integer >= 1"),
], ids=["covering-t_points-0", "weaktype-n_spikes-0"])
def test_cli_exits_2_on_a_run_that_would_check_nothing(tmp_path, capsys, name, edit, message):
    # "t_points": 0 once exited 0, every covering check passing at an observed 0.0
    cfg = small_config(name)
    edit(cfg["params"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert cli_main([name, "--config", str(path), "--quiet"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, key", [
    ("weaktype", lambda p: p["cases"][0].update(rule={"name": "point-targeted"}), "target"),
    ("nondense", lambda p: p["cases"][0]["rules"][0].pop("frozen"), "frozen"),
    ("singular", lambda p: p["measure"]["density"].pop("name"), "name"),
    ("singular", lambda p: p["measure"].update(density={"name": "spike", "hi": [0.6]}), "lo"),
    ("singular", lambda p: p["measure"].update(density={"name": "spike", "lo": [0.2]}), "hi"),
    ("singular", lambda p: p["measure"]["diracs"][0].pop("location"), "location"),
    ("singular", lambda p: p["measure"]["diracs"][0].pop("mass"), "mass"),
    ("singular", lambda p: p["measure"]["diracs"][0].update(weight=5), "weight"),
], ids=["rule-target", "rule-frozen", "density-name", "spike-lo", "spike-hi",
        "dirac-location", "dirac-mass", "dirac-unknown"])
def test_cli_exits_2_naming_a_missing_or_unknown_rule_or_measure_key(tmp_path, capsys,
                                                                     name, edit, key):
    # a missing key once raised KeyError, a traceback and exit 1; an unknown
    # Dirac key was ignored and the run passed
    cfg = small_config(name)
    edit(cfg["params"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert cli_main([name, "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("name, edit, message", [
    ("nondense", lambda p: p["cases"][0]["rules"][0].update(frozen=0.5),
     "frozen-on-subinterval rule key 'frozen' must be a pair of finite reals, got 0.5"),
    ("weaktype", lambda p: p["cases"][0].update(
        rule={"name": "point-targeted", "target": [0.3, 0.4]}),
     "point-targeted rule key 'target' must be a finite real, got [0.3, 0.4]"),
    ("weaktype", lambda p: p["cases"][0].update(rule={"name": "point-targeted", "target": None}),
     "point-targeted rule key 'target' must be a finite real, got None"),
    ("singular", lambda p: p["measure"].update(density={"name": "spike", "lo": [0.5], "hi": [0.2]}),
     "density 'spike' needs lo < hi on every axis, got lo=[0.5], hi=[0.2]"),
    ("singular", lambda p: p["measure"].update(density={"name": "spike", "lo": [0.3], "hi": [0.3]}),
     "density 'spike' needs lo < hi on every axis, got lo=[0.3], hi=[0.3]"),
], ids=["frozen-scalar", "target-pair", "target-none", "spike-lo-above-hi", "spike-lo-at-hi"])
def test_cli_exits_2_on_a_rule_value_or_spike_box_of_the_wrong_kind(tmp_path, capsys, name,
                                                                     edit, message):
    # each once raised TypeError (the rules) or built a density of negative or
    # infinite height (the spikes); the rules ended in a traceback and exit 1
    cfg = small_config(name)
    edit(cfg["params"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert cli_main([name, "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("density, message", [
    ({"name": "sigmoid", "center": float("inf")},
     "density 'sigmoid' parameter 'center' must be finite, got [inf]"),
    ({"name": "singular", "center": [float("inf")]},
     "density 'singular' parameter 'center' must be finite, got [inf]"),
    ({"name": "spike", "lo": [0.2], "hi": [0.6], "height": float("nan")},
     "density 'spike' parameter 'height' must be finite, got [nan]"),
], ids=["sigmoid-center", "singular-center", "spike-height"])
def test_cli_exits_2_on_a_non_finite_density_parameter(tmp_path, capsys, density, message):
    # each once ran: the first two on a density of all zeros
    cfg = small_config("singular")
    cfg["params"]["measure"]["density"] = density
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["singular", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_nonzero_exit_when_assertion_fails():
    cfg = small_config("decay")
    cfg["params"]["q_max"] = 1e-9  # impossible cap: q_hat > 0 for k >= 2
    assert run_experiment(cfg, quiet=True) == 1


def test_function_catalog_rejects_misspelt_parameters():
    # the grid functions the experiments name by string come from density_catalog,
    # which checks the ones that are not densities by the same contract
    assert density_catalog("smooth-exp", 1, center=[0.5])(0.5) == 1.0
    with pytest.raises(ValueError, match=r"density 'smooth-exp' parameters \['centre'\]"):
        density_catalog("smooth-exp", 1, centre=[0.5])
    with pytest.raises(ValueError, match=r"density 'sigmoid' parameters \['steep'\]"):
        density_catalog("sigmoid", 1, steep=5.0)
    with pytest.raises(ValueError, match="unknown density 'gauss'"):
        density_catalog("gauss", 1)


def _key_paths(name) -> list:
    """(name, parent path, key) of every key the config check walks in a default config."""
    cfg = default_config(name)
    p = cfg["params"]
    nodes = [("config", cfg), ("params", p)]
    nodes += [(f"params.cases[{i}]", case) for i, case in enumerate(p.get("cases", ()))]
    nodes += [("params.tensor_check", p["tensor_check"])] if "tensor_check" in p else []
    return [(name, where, key) for where, node in nodes for key in node]


def _node(cfg, where):
    if where == "config":
        return cfg
    for part in re.split(r"[.\[\]]+", where.rstrip("]")):
        cfg = cfg[int(part)] if part.isdigit() else cfg[part]
    return cfg


# keys some but not all of nondense's default cases hold
OPTIONAL_KEYS = {("nondense", "params.cases[1]", "sequence_depth"),
                 ("nondense", "params.cases[1]", "function")}
# misspellings that once ran with a second default and returned 0, or raised a
# bare KeyError; any other key is misspelt with a suffix
MISSPELT = {("decay", "params", "samples_per_atom"): "sample_per_atom",
            ("nondense", "params", "n_probes"): "n_probe",
            ("nondense", "params", "delta_tol"): "delta_tols",
            ("covering", "params.cases[1]", "K"): "k_level",
            ("shadrin", "params.tensor_check", "orders"): "order"}


@pytest.mark.parametrize("name, where, key",
                         [path for name in EXPERIMENT_NAMES for path in _key_paths(name)])
def test_config_check_names_each_key_path(name, where, key):
    # a dropped key once fell back to a second default (covering's K = 2 and
    # 20 thresholds, converge's 8 quadrature points) or raised a bare KeyError
    cfg = default_config(name)
    node = _node(cfg, where)
    value = node.pop(key)
    if (name, where, key) in OPTIONAL_KEYS:
        check_config(cfg)
        # a case that lacks the key may name it
        small = small_config(name)
        small["params"]["cases"][0][key] = value
        assert run_experiment(small, quiet=True) == 0
    else:
        prefix = "config" if key == "experiment" else f"{name} {where}"
        with pytest.raises(ValueError, match=re.escape(f"{prefix}: missing '{key}'")):
            run_experiment(cfg, quiet=True)
    node[key] = value
    misspelt = MISSPELT.get((name, where, key), key + "_x")
    node[misspelt] = value
    with pytest.raises(ValueError, match=re.escape(f"{name} {where}: unknown '{misspelt}'")):
        run_experiment(cfg, quiet=True)


@pytest.mark.parametrize("name, where, key, bad, what", [
    ("decay", "config", "depth", 5.9, "an integer"),
    ("decay", "params", "n_seeds", 1.5, "an integer"),
    ("covering", "params.cases[1]", "K", 2.2, "an integer"),
    ("covering", "params", "t_points", 3.7, "an integer"),
    ("covering", "config", "seed", True, "an integer"),
    ("shadrin", "params.tensor_check", "depth", 3.0, "an integer"),
    ("converge", "params.cases[0]", "orders", [2.5], "an integer"),
    ("converge", "params", "tol", "1e-3", "a real number"),
    ("weaktype", "params", "q_values", [0.3, None], "a real number"),
    ("weaktype", "params", "q_values", 0.5, "a list"),
])
def test_config_check_rejects_values_of_the_wrong_kind(name, where, key, bad, what):
    # truncated values once ran and passed: depth 5.9 ran at depth 5, a covering
    # case with K = 2.2 and 3.7 thresholds exited 0
    cfg = default_config(name)
    _node(cfg, where)[key] = bad
    path = f"{name} {where}.{key}" if where != "config" else f"{name} config.{key}"
    if isinstance(bad, list) and not isinstance(bad[-1], str):
        path += f"[{len(bad) - 1}]"
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected {what}")):
        check_config(cfg)


def test_config_check_takes_integers_for_reals_and_leaves_rules_to_the_spec():
    cfg = small_config("converge")
    cfg["params"]["tol"] = 1
    cfg["params"]["interval"] = [0, 1]
    check_config(cfg)
    # a rule dict is checked where it is read: 2.7 base atoms once built 2
    cfg = small_config("covering")
    cfg["params"]["cases"][0]["rule"]["base_atoms"] = 2.7
    check_config(cfg)
    with pytest.raises(ValueError, match="base_atoms must be an integer >= 1"):
        run_experiment(cfg, quiet=True)


def test_covering_builds_one_maximal_field_per_seed_and_q(tmp_path, monkeypatch):
    import splinelab.maximal as maximal

    calls = []
    real = maximal.level_sum_field

    def counted(q, masses, n, into=None):
        calls.append(n)
        return real(q, masses, n, into=into)

    monkeypatch.setattr(maximal, "level_sum_field", counted)
    # `calls` lives in this process: map the seeds here, not in workers
    _hold_cpus(monkeypatch, 1)
    cfg = small_config("covering")
    p = cfg["params"]
    assert run_experiment(cfg, out_dir=tmp_path, quiet=True) == 0
    levels_per_field = sum(int(c["depth"]) - int(c["K"]) + 1 for c in p["cases"])
    assert len(calls) == int(p["n_seeds"]) * len(p["q_values"]) * levels_per_field


def test_weaktype_builds_each_spike_and_projector_once(tmp_path, monkeypatch):
    # one density per spike serves the measure, the sequence and the HL integrand,
    # and the decay bound reads the first sequence's finest projector
    import splinelab.experiments as experiments
    from splinelab.projector import TensorProjector

    spikes, levels = [], []
    real_catalog, real_for_level = experiments.density_catalog, TensorProjector.for_level

    def catalog(name, d, **params):
        spikes.append(name)
        return real_catalog(name, d, **params)

    def for_level(F, n, orders):
        levels.append(n)
        return real_for_level(F, n, orders)

    monkeypatch.setattr(experiments, "density_catalog", catalog)
    monkeypatch.setattr(TensorProjector, "for_level", staticmethod(for_level))
    cfg = default_config("weaktype")
    cases = cfg["params"]["cases"]
    assert run_experiment(cfg, out_dir=tmp_path, quiet=True) == 0
    assert spikes == ["spike"] * sum(c["n_spikes"] for c in cases)
    assert len(levels) == sum(c["n_spikes"] * c["depth"] for c in cases)


def test_decay_monotone_check_matches_the_per_distance_loop(monkeypatch):
    # profiles with bumps below, at and above the relative 1e-9 and entries
    # around PROFILE_FLOOR; each check equals the loop over distances
    import splinelab.experiments as experiments

    rng = np.random.default_rng(23)
    made = []

    def bumpy(gs, nx_per_atom):
        prof = real(gs, nx_per_atom=nx_per_atom)
        n = len(prof.values)
        vals = 0.6 ** np.arange(n)
        bumps = rng.choice(n, 2)
        vals[bumps] = vals[bumps - 1] * rng.choice([1.0, 1 + 5e-10, 1 + 2e-9, 1.5], 2)
        vals[rng.integers(n // 2, n):] = rng.choice([0.0, 5e-15, 1e-14, 3e-14])
        made.append(vals)
        return replace(prof, values=vals)

    real = experiments.decay_profile
    monkeypatch.setattr(experiments, "decay_profile", bumpy)
    # `made` and the rng live in this process: map the cases here, not in workers
    _hold_cpus(monkeypatch, 1)
    cfg = small_config("decay")
    cfg["params"]["n_seeds"] = 12
    _, log, _ = experiments.run_decay(cfg)
    checks = [a.passed for a in log.items if a.name.startswith("decay_monotone")]
    ks = [k for k in cfg["params"]["orders"] for _ in range(12)]
    assert checks == [decay_monotone_per_distance(v, k) for v, k in zip(made, ks)]
    assert 0 < sum(checks) < len(checks)


@pytest.mark.parametrize("name, extra", [("decay", 0), ("shadrin", 1)])
def test_one_filtration_build_per_seed(tmp_path, monkeypatch, name, extra):
    # each seed's filtration serves every order; shadrin adds its 2-d tensor check
    import splinelab.experiments as experiments

    calls = []
    real = experiments.build_filtration

    def counted(spec):
        calls.append((spec.d, spec.seed))
        return real(spec)

    monkeypatch.setattr(experiments, "build_filtration", counted)
    cfg = small_config(name)
    p = cfg["params"]
    assert len(p["orders"]) > 1
    assert run_experiment(cfg, out_dir=tmp_path, quiet=True) == 0
    seeds = [(1, int(cfg["seed"]) + s) for s in range(int(p["n_seeds"]))]
    assert calls == seeds + [(2, int(cfg["seed"]))] * extra


def _referenced_names(tree) -> set:
    """Names read in `tree`, leaving out what a def or class says about its own name."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and node.id not in own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def test_public_names_have_a_caller():
    # a re-export must be used by the library, a script or the acceptance
    # criteria; an import statement alone is not a use
    root = Path(__file__).resolve().parents[1]
    pkg = root / "src" / "splinelab"
    init = ast.parse((pkg / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "scripts").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    used = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in sources))
    assert exported
    assert sorted(exported - used) == []


# defaulted parameters that no library, script, benchmark or acceptance call sets
UNSET_OPTIONS_KEPT = {
    # tests pass a command line; the console entry point passes none
    ("main", "argv"),
}


def _is_dataclass(node) -> bool:
    return any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)


def _defaulted_options(tree) -> list:
    """(callee name, option, position) of every defaulted parameter of a public
    function or method and every defaulted field of a public dataclass.

    A constructor or dataclass field is named after its class; positions do
    not count self, and keyword-only parameters have none.
    """
    found = []

    def params(fn, name, skip):
        args = (fn.args.posonlyargs + fn.args.args)[skip:]
        first = len(args) - len(fn.args.defaults)
        found.extend((name, a.arg, i) for i, a in enumerate(args) if i >= first)
        found.extend((name, a.arg, None)
                     for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params(node, node.name, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        fields = [st for st in node.body if isinstance(st, ast.AnnAssign)
                  and "ClassVar" not in ast.unparse(st.annotation)] if _is_dataclass(node) else []
        found.extend((node.name, st.target.id, i)
                     for i, st in enumerate(fields) if st.value is not None)
        for st in node.body:
            if isinstance(st, ast.FunctionDef) and (st.name == "__init__"
                                                    or not st.name.startswith("_")):
                static = any(ast.unparse(d) == "staticmethod" for d in st.decorator_list)
                params(st, node.name if st.name == "__init__" else st.name, 0 if static else 1)
    return found


def _call_settings(tree) -> set:
    """(callee name, keyword) and (callee name, number of positional arguments) of
    every call; "**" stands for a keyword splat, inf for a positional one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            out.update((name, kw.arg or "**") for kw in node.keywords)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            out.add((name, math.inf if star else len(node.args)))
    return out


def test_options_have_a_caller():
    # every option of the public API must be set by some call in the library,
    # a script, the benchmark or the acceptance criteria; a default nobody
    # overrides is a constant, and a value only tests set is test-only API
    root = Path(__file__).resolve().parents[1]
    pkg = root / "src" / "splinelab"
    options = [o for p in sorted(pkg.glob("*.py"))
               for o in _defaulted_options(ast.parse(p.read_text()))]
    traffic = sorted(pkg.glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    traffic += sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    calls = set().union(*(_call_settings(ast.parse(p.read_text())) for p in traffic))
    counts = {n for name, n in calls if not isinstance(n, str)}

    def is_set(name, option, pos):
        return (name, option) in calls or (name, "**") in calls or (
            pos is not None and any((name, n) in calls for n in counts if n > pos))

    assert len(options) > len(UNSET_OPTIONS_KEPT)
    unset = {(name, option) for name, option, pos in options if not is_set(name, option, pos)}
    assert sorted(unset - UNSET_OPTIONS_KEPT) == []
    assert unset >= UNSET_OPTIONS_KEPT


def test_compare_outputs_reports_changes_and_structure(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"

    def write(name, value, assertion="a"):
        d = tmp_path / name
        d.mkdir()
        (d / "x.csv").write_text(f"case,value\nc1,{value}\nc2,2.0\n")
        summary = {"assertions": [{"name": assertion, "observed": value, "bound": 1.0,
                                   "pass": True}], "findings": {"top": value}}
        (d / "x.summary.json").write_text(json.dumps(summary))
        return str(d)

    def run(a, b):
        out = subprocess.run([sys.executable, str(script), a, b], capture_output=True, text=True)
        return out.returncode, out.stdout.splitlines()

    base = write("base", 0.5)
    code, lines = run(base, write("same", 0.5))
    assert code == 0 and lines[1].split() == ["x", "2"] + ["0.00e+00"] * 4 + ["identical"]
    code, lines = run(base, write("moved", 0.25))
    assert code == 0 and lines[1].split() == ["x", "2", "2.50e-01", "5.00e-01",
                                              "2.50e-01", "5.00e-01", "differ"]
    code, lines = run(base, write("renamed", 0.5, assertion="b"))
    assert code == 1 and lines[-1] == "MISMATCH x.summary.json: assertion names differ"


@pytest.mark.parametrize("script", sorted(
    (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_every_script_imports(script):
    # a package name that a script reads, private ones too, breaks the script only when
    # it runs.  Importing runs no main, as each is guarded, and runs in an interpreter
    # of its own, as time_kernels sets OPENBLAS_NUM_THREADS when imported
    load = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('script', sys.argv[1])\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n")
    path = os.pathsep.join(filter(None, [str(script.parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-B", "-c", load, str(script)], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert out.returncode == 0, out.stderr
