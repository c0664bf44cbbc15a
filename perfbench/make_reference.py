"""Regenerate reference.json: observed values of every workload variant.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each config of each variant once, with the benchmark's BLAS pinning,
and refuses to write if any asserted bound fails.  Workloads not named keep
their existing entries.  Run it only on a commit whose numbers are trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BLAS_THREADS, ROOT, pinned_env  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS  # noqa: E402

OUT = HERE / "reference.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    os.environ.update(pinned_env())   # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    from reference import reference_entry
    from splinelab.experiments import run_experiment
    from workloads import workload_configs

    doc = json.loads(OUT.read_text()) if OUT.exists() else {"workloads": {}}
    doc["blas_threads"] = BLAS_THREADS
    work_dir = ROOT / ".perfbench_tmp" / f"reference-{os.getpid()}"
    failures = 0
    try:
        for name in args.workload or WORKLOADS:
            per_variant = {}
            for v in range(N_VARIANTS):
                entries = []
                for i, cfg in enumerate(workload_configs(name, v)):
                    out = work_dir / f"{name}-{v}-{i}"
                    run_experiment(cfg, out_dir=out, quiet=True)
                    summary = json.loads((out / f"{cfg['experiment']}.summary.json").read_text())
                    if not summary["pass"]:
                        failures += 1
                        print(f"{name} variant {v} {cfg['experiment']}: assertion failed",
                              file=sys.stderr)
                    entries.append(reference_entry(cfg, summary))
                per_variant[str(v)] = entries
                print(f"{name} variant {v} done", file=sys.stderr, flush=True)
            doc["workloads"][name] = per_variant
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if failures:
        print(f"{failures} experiments failed; reference not written", file=sys.stderr)
        return 1
    OUT.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
