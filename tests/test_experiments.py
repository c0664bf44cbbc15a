import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_outputs_byte_identical_across_runs(name, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = small_config(name)
    assert run_experiment(cfg, out_dir=out_a, quiet=True) == 0
    assert run_experiment(cfg, out_dir=out_b, quiet=True) == 0
    for suffix in (".csv", ".summary.json"):
        fa = (out_a / f"{name}{suffix}").read_bytes()
        fb = (out_b / f"{name}{suffix}").read_bytes()
        assert fa == fb


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

    def counted(q, masses, n):
        calls.append(n)
        return real(q, masses, n)

    monkeypatch.setattr(maximal, "level_sum_field", counted)
    cfg = small_config("covering")
    p = cfg["params"]
    assert run_experiment(cfg, out_dir=tmp_path, quiet=True) == 0
    levels_per_field = sum(int(c["depth"]) - int(c["K"]) + 1 for c in p["cases"])
    assert len(calls) == int(p["n_seeds"]) * len(p["q_values"]) * levels_per_field


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
