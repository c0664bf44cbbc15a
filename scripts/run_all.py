#!/usr/bin/env python3
"""Run every experiment with its built-in default config.

    python scripts/run_all.py --out results/ [--quiet]

Writes <name>.csv, <name>.summary.json, <name>.meta.json per experiment,
prints each experiment's wall time and the total, and exits nonzero if any
asserted bound fails.
"""

import argparse
import sys
import time

from splinelab.experiments import EXPERIMENT_NAMES, default_config, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--only", nargs="*", choices=EXPERIMENT_NAMES,
                        help="subset of experiments to run")
    args = parser.parse_args()
    names = args.only or EXPERIMENT_NAMES
    failures = []
    total = 0.0
    for name in names:
        t0 = time.perf_counter()
        code = run_experiment(default_config(name), out_dir=args.out, quiet=args.quiet)
        elapsed = time.perf_counter() - t0
        total += elapsed
        status = "ok" if code == 0 else "FAILED"
        print(f"{name:>10}: {status} ({elapsed:.2f}s)")
        if code != 0:
            failures.append(name)
    print(f"{'total':>10}: {total:.2f}s")
    if failures:
        print(f"failed experiments: {', '.join(failures)}")
        return 1
    print(f"all {len(names)} experiments passed; artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
