#!/usr/bin/env python3
"""Compare the outputs of two run_all.py output directories.

    python scripts/compare_outputs.py A B

For every experiment with a <name>.summary.json in A or B, prints the row
count and the largest absolute and relative change over the numeric cells of
<name>.csv, the same over the summary's observed values (each assertion's
`observed` and every number under `findings`), and whether both files are
byte-identical.  The relative change of a pair (a, b) is |a - b| / max(|a|, |b|).

Exits 1 when the two directories do not hold the same structure: an
experiment missing on one side, different CSV columns, row counts or
non-numeric cells, different assertion names, or different finding keys.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Changes:
    """Running maxima of absolute and relative change over pairs of numbers."""

    def __init__(self):
        self.abs = 0.0
        self.rel = 0.0

    def add(self, a: float, b: float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        scale = max(abs(a), abs(b))
        self.abs = max(self.abs, diff)
        self.rel = max(self.rel, diff / scale if math.isfinite(diff) else math.inf)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(path_a: Path, path_b: Path, problems: list) -> tuple:
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    changes = Changes()
    if rows_a[:1] != rows_b[:1]:
        problems.append(f"{path_a.name}: columns differ")
        return len(rows_a) - 1, changes
    if len(rows_a) != len(rows_b):
        problems.append(f"{path_a.name}: {len(rows_a) - 1} rows vs {len(rows_b) - 1}")
        return len(rows_a) - 1, changes
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for ca, cb in zip(ra, rb):
            a, b = _number(ca), _number(cb)
            if a is not None and b is not None:
                changes.add(a, b)
            elif ca != cb:
                problems.append(f"{path_a.name}: row {r} has {ca!r} vs {cb!r}")
    return len(rows_a) - 1, changes


def _numbers(tree, prefix=""):
    """(key path, value) for every number in a JSON tree."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _numbers(v, f"{prefix}/{k}")
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _numbers(v, f"{prefix}/{i}")
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield prefix, float(tree)


def compare_summary(path_a: Path, path_b: Path, problems: list) -> Changes:
    sa, sb = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    changes = Changes()
    names_a = [e["name"] for e in sa.get("assertions", [])]
    names_b = [e["name"] for e in sb.get("assertions", [])]
    if names_a != names_b:
        problems.append(f"{path_a.name}: assertion names differ")
    else:
        for ea, eb in zip(sa["assertions"], sb["assertions"]):
            changes.add(float(ea["observed"]), float(eb["observed"]))
    fa, fb = dict(_numbers(sa.get("findings", {}))), dict(_numbers(sb.get("findings", {})))
    if fa.keys() != fb.keys():
        problems.append(f"{path_a.name}: finding keys differ")
    else:
        for key in fa:
            changes.add(fa[key], fb[key])
    return changes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="first output directory")
    ap.add_argument("b", type=Path, help="second output directory")
    args = ap.parse_args()
    names_a = {p.name[: -len(".summary.json")] for p in args.a.glob("*.summary.json")}
    names_b = {p.name[: -len(".summary.json")] for p in args.b.glob("*.summary.json")}
    problems = [f"{name}: only in {args.a if name in names_a else args.b}"
                for name in sorted(names_a ^ names_b)]
    print(f"{'experiment':>10} {'rows':>6} {'csv_abs':>9} {'csv_rel':>9} "
          f"{'sum_abs':>9} {'sum_rel':>9}  bytes")
    for name in sorted(names_a & names_b):
        csv_a, csv_b = args.a / f"{name}.csv", args.b / f"{name}.csv"
        sum_a, sum_b = args.a / f"{name}.summary.json", args.b / f"{name}.summary.json"
        if not (csv_a.exists() and csv_b.exists()):
            problems.append(f"{name}.csv: missing on one side")
            continue
        rows, cc = compare_csv(csv_a, csv_b, problems)
        sc = compare_summary(sum_a, sum_b, problems)
        same = all(pa.read_bytes() == pb.read_bytes()
                   for pa, pb in ((csv_a, csv_b), (sum_a, sum_b)))
        print(f"{name:>10} {rows:>6} {cc.abs:>9.2e} {cc.rel:>9.2e} {sc.abs:>9.2e} {sc.rel:>9.2e}  "
              f"{'identical' if same else 'differ'}")
    for p in problems:
        print(f"MISMATCH {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
