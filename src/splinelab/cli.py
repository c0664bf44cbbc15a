"""Command-line entry point: one subcommand per experiment.

    splinelab covering --out results/ --seed 4004
    splinelab decay --config my_decay.json --out results/ --depth 6

Without --config the fully explicit built-in default config runs; --seed and
--depth override the config fields (experiments with cases reject --depth).
Exit status: 0 iff every asserted bound holds, 1 if one fails, 2 on a bad
config or on a ValueError raised while the experiment runs.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENT_NAMES, default_config, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinelab",
        description="spline orthoprojector and maximal-function experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENT_NAMES:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", help="JSON config file (defaults are built in)")
        sp.add_argument("--out", help="output directory for csv/json artifacts")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--depth", type=int, help="override the config depth")
        sp.add_argument("--quiet", action="store_true", help="suppress per-assertion lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config(args.experiment)
        if cfg["experiment"] != args.experiment:
            raise ValueError(f"config is for {cfg['experiment']!r}, "
                             f"subcommand is {args.experiment!r}")
        if args.depth is not None and "cases" in cfg["params"]:
            raise ValueError(f"--depth does not apply to {args.experiment}: "
                             "each of its cases sets its own depth")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.depth is not None:
        cfg["depth"] = args.depth
    try:
        return run_experiment(cfg, out_dir=args.out, quiet=args.quiet)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
