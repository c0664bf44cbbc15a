#!/usr/bin/env python3
"""Time the 1-D dual kernels at three depths and fit their scaling exponents.

    python scripts/time_kernels.py > kernels.json

Times `GramSystem.duals_at` on the points of one decay block (the
DECAY_BLOCK_ATOMS atoms from the middle of the mesh, NORM_SAMPLES_PER_ATOM
points each, solved on all rows), `decay_profile`, the kernel columns of
`operator_norm_1d` (its edge-checked windowed solve for every block of
NORM_BLOCK_ATOMS x-atoms, without the y-integral) and `operator_norm_1d`
itself, for orders 2-5 at depths 8, 9 and 10 of a
random-bisection mesh (3 base atoms, every atom split at a random fraction in
[0.35, 0.65], seed SEED: 384, 768 and 1,536 atoms).  Each time is the
median of REPEATS calls.  Prints JSON with every timing and, per kernel and
order, the slope of log(seconds) against log(dim).  BLAS runs on one thread
unless OPENBLAS_NUM_THREADS is set.
"""

import json
import os
import platform
import statistics
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from splinelab import FiltrationSpec, SplineSpace1D, build_filtration  # noqa: E402
from splinelab.bspline import atom_chebyshev  # noqa: E402
from splinelab.projector import (  # noqa: E402
    DECAY_BLOCK_ATOMS,
    NORM_BLOCK_ATOMS,
    NORM_SAMPLES_PER_ATOM,
    NORM_WINDOW_ATOMS,
    GramSystem,
    _basis_columns,
    _kernel_columns,
    decay_profile,
    operator_norm_1d,
)

KERNELS = ("duals_at", "decay_profile", "kernel_columns", "operator_norm_1d")

DEPTHS = (8, 9, 10)
ORDERS = (2, 3, 4, 5)
REPEATS = 3    # calls per timing; the median is reported
SEED = 0       # mesh seed


def median_seconds(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_blocks(gs, cheb):
    """The (a0, a1, X) arguments of _kernel_columns for every block of operator_norm_1d."""
    n, k = gs.space.partition.n_atoms, gs.space.order
    first, vals = gs.space.eval_basis_many(cheb.ravel())
    blocks = []
    for a0 in range(0, n, NORM_BLOCK_ATOMS):
        a1 = min(a0 + NORM_BLOCK_ATOMS, n)
        xs = slice(a0 * NORM_SAMPLES_PER_ATOM, a1 * NORM_SAMPLES_PER_ATOM)
        blocks.append((a0, a1, _basis_columns(first[xs], vals[xs], a0, a1 + k - 1)))
    return blocks


def main():
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 3}
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=max(DEPTHS),
                                        rules=[rule], seed=SEED))
    rows = []
    for depth in DEPTHS:
        part = F.axes[0].level(depth)
        for k in ORDERS:
            gs = GramSystem(SplineSpace1D(part, k))
            cheb = atom_chebyshev(part, NORM_SAMPLES_PER_ATOM)
            a0 = part.n_atoms // 2
            xs = cheb[a0:a0 + DECAY_BLOCK_ATOMS].ravel()
            blocks = kernel_blocks(gs, cheb)
            kernels = {
                "duals_at": lambda: gs.duals_at(xs),
                "decay_profile": lambda: decay_profile(gs),
                "kernel_columns": lambda: [_kernel_columns(gs, *b) for b in blocks],
                "operator_norm_1d": lambda: operator_norm_1d(gs),
            }
            for name, fn in kernels.items():
                rows.append({"kernel": name, "k": k, "depth": depth, "atoms": part.n_atoms,
                             "dim": gs.dimension, "seconds": median_seconds(fn)})
    exponents = {}
    for name in KERNELS:
        exponents[name] = {}
        for k in ORDERS:
            pts = [(r["dim"], r["seconds"]) for r in rows if r["kernel"] == name and r["k"] == k]
            dims, secs = np.array(pts).T
            exponents[name][str(k)] = round(float(np.polyfit(np.log(dims), np.log(secs), 1)[0]), 3)
    out = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "settings": {"seed": SEED, "repeats": REPEATS, "depths": list(DEPTHS),
                     "orders": list(ORDERS), "decay_block_atoms": DECAY_BLOCK_ATOMS,
                     "norm_block_atoms": NORM_BLOCK_ATOMS,
                     "norm_window_atoms": NORM_WINDOW_ATOMS},
        "timings": rows,
        "exponents": exponents,
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
