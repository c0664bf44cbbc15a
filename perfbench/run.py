"""splinelab benchmark: time to a verified result on three workloads.

    python3 perfbench/run.py --workload dual-decay --seed 0 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory and
must hold `src/splinelab`.  Each run starts fresh worker processes with the
BLAS thread count pinned, prints a line with the machine facts, then one
JSON line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of a pass over the workload's experiments,
               from the first run_experiment call to the last return
  setup_s      median over SETUP_PROBES fresh processes (and the worker) of
               importing splinelab and generating the workload's configs
  peak_rss_mb  peak resident memory of the worker process
--trace 1 reports the per-layer metrics of a traced pass (see layers.py).

An operation is one asserted bound of an experiment's summary, one
comparison with the committed reference values (reference.py), and, for
every pass after the first, one byte comparison of its CSV and summary with
the first pass's.  An experiment that raises fails all its operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1                  # steadiest on a shared box; never above nproc
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
DEADLINE_S = 170.0


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV_VARS})
    return env


def run_worker(args, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    # run() kills and reaps the child if the deadline passes
    proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "splinelab" / "__init__.py").is_file():
        print(f"error: no splinelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        setups = [] if args.trace else [
            run_worker(args, work_dir, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        res = run_worker(args, work_dir, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layer_rows(res)}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [res["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"machine": res["machine"], "passes": len(res["walls"])}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def layer_rows(res: dict):
    from layers import PER_LAYER

    values = dict(res["layers"])
    values["machine.nproc"] = res["machine"]["nproc"]
    values["machine.blas_threads"] = res["machine"]["blas_threads"]
    return [(name, values[name], unit) for name, unit in PER_LAYER]


if __name__ == "__main__":
    sys.exit(main())
