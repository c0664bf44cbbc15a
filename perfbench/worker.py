"""One benchmark process: import splinelab, run a workload, check its outputs.

Started by run.py in a fresh interpreter with the BLAS thread count already
pinned in the environment.  Prints one JSON object as its last stdout line.

Untraced mode runs whole passes of the workload until their wall times add
up to `--seconds` and reports each pass's wall time.  Traced mode runs
one untraced pass, then one pass with every public splinelab function and
method wrapped in spans, and reports the per-layer metrics.  Every pass after
the first must write CSV and summary files byte-identical to the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"


def import_and_configure(workload: str, seed: int):
    """Timed set-up: import splinelab and generate the workload's configs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from splinelab import experiments
    from workloads import workload_configs

    cfgs = workload_configs(workload, seed)
    return experiments, cfgs, time.perf_counter() - t0


def run_pass(experiments, cfgs, out_dir: Path) -> dict:
    """Run every config once; wall time spans the first call to the last return.

    `run_experiment` is looked up on the module at call time, so a traced
    pass goes through its wrapper."""
    errors = {}
    t0 = time.perf_counter()
    for i, cfg in enumerate(cfgs):
        try:
            experiments.run_experiment(cfg, out_dir=out_dir / str(i), quiet=True)
        except Exception:
            errors[i] = traceback.format_exc()
    wall = time.perf_counter() - t0
    outputs = {}
    for i, cfg in enumerate(cfgs):
        if i not in errors:
            base = out_dir / str(i) / cfg["experiment"]
            outputs[i] = (Path(f"{base}.csv").read_bytes(),
                          Path(f"{base}.summary.json").read_bytes())
    return {"wall": wall, "errors": errors, "outputs": outputs}


def check_pass(cfgs, refs, result, first=None):
    """(attempted, failed) for one pass; `first` is the pass it must reproduce."""
    from reference import count_operations

    attempted = failed = 0
    for i, (cfg, ref) in enumerate(zip(cfgs, refs)):
        name = f"{cfg['experiment']}[{i}]"
        n_ops = len(ref["assertions"]) + 1 + (first is not None)
        if i in result["errors"]:
            print(f"{name}: raised\n{result['errors'][i]}", file=sys.stderr)
            attempted += n_ops
            failed += n_ops
            continue
        summary = json.loads(result["outputs"][i][1])
        a, f, problems = count_operations(cfg, summary, ref)
        if first is not None:
            a += 1
            if first["outputs"].get(i) != result["outputs"][i]:
                f += 1
                problems.append("CSV or summary bytes differ from the first pass")
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
        attempted += a
        failed += f
    return attempted, failed


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def traced_pass(experiments, cfgs, out_dir: Path):
    import splinelab
    from layers import MODULES, SLOPE_SPANS, layer_values, make_probes
    from spans import Tracer
    from splinelab.projector import GramSystem

    modules = [splinelab] + [sys.modules[f"splinelab.{m}"] for m in MODULES]
    tracer = Tracer(probes=make_probes(), keep_calls=SLOPE_SPANS)
    # construction is where GramSystem factorizes, so it gets a span of its own
    tracer.install(modules, extra_methods=[(GramSystem, "__init__")])
    try:
        result = run_pass(experiments, cfgs, out_dir)
    finally:
        tracer.uninstall()
    return result, layer_values(tracer, result["wall"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True, help="directory for experiment outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    experiments, cfgs, setup_s = import_and_configure(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import variant

    with open(REFERENCE_FILE) as fh:
        refs = json.load(fh)["workloads"][args.workload][str(variant(args.seed))]
    if len(refs) != len(cfgs):
        raise SystemExit(f"reference has {len(refs)} experiments, workload has {len(cfgs)}")

    first = run_pass(experiments, cfgs, args.out / "pass0")
    attempted, failed = check_pass(cfgs, refs, first)
    walls = [first["wall"]]
    layers = None
    if args.trace:
        traced, layers = traced_pass(experiments, cfgs, args.out / "traced")
        a, f = check_pass(cfgs, refs, traced, first=first)
        attempted, failed = attempted + a, failed + f
        layers["trace.overhead_frac"] = traced["wall"] / first["wall"] - 1.0
    else:
        while sum(walls) < args.seconds:
            nxt = run_pass(experiments, cfgs, args.out / f"pass{len(walls)}")
            a, f = check_pass(cfgs, refs, nxt, first=first)
            attempted, failed = attempted + a, failed + f
            walls.append(nxt["wall"])
    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "machine": machine_facts(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
