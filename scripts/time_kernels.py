#!/usr/bin/env python3
"""Time the Gram system, the 1-D dual kernels, the maximal level sums, the density reductions,
the moment restriction, make_sequence and build_filtration at three depths
each and fit their scaling exponents.

    python scripts/time_kernels.py > kernels.json

Times `GramSystem(space)`, which assembles the Gram band and factors it
(banded Cholesky), `GramSystem.duals_at` on the points of one decay block (the
SOLVE_BLOCK_ATOMS atoms from the middle of the mesh, NORM_SAMPLES_PER_ATOM
points each, solved on all rows), `decay_profile`, the kernel columns of
`operator_norm_1d` (the dual values of every block of SOLVE_BLOCK_ATOMS
x-atoms from its edge-checked windowed solve, without the y-integral) and
`operator_norm_1d` itself, for orders 2-5 at depths 8, 9 and 10 of a
random-bisection mesh (3 base atoms, every atom split at a random fraction in
[0.35, 0.65], seed SEED: 768, 1,536 and 3,072 atoms).

For the maximal machinery it times, in d = 1 and d = 2 on the
random-bisection mesh of the maximal-covering benchmark (1 base atom,
2^depth atoms per axis; depths MAXIMAL_DEPTHS[d]):
  level_sum_field  the finest level's sum, its axis kernels applied one
                   row block of CACHE_BLOCK_BYTES at a time;
  maximal_field    max over levels 2..depth, once for each q in Q_VALUES on
                   one compiled measure: one seed of the covering experiment;
each with the tracemalloc peak of one call and the bytes of what it returns
(for maximal_field, of one field).
For the per-atom quadrature it times, in d = 2 on the same mesh at depths
QUADRATURE_DEPTHS (2^depth atoms per axis), two density reductions and the
restriction of moments, none of them separable:
  compile_masses   the masses of the covering experiment's random measure
                   (its clipped affine density, 4 points per atom, and its
                   Diracs, drawn with seed SEED), which the constructor
                   builds on every level; its result bytes are those of all
                   levels, which the masses keep;
  basis_moments    the moments against the finest basis of order (2, 2)
                   that make_sequence takes from a measure with
                   MOMENT_POINTS points per atom, as in the singular
                   experiment;
  restrict         those moments restricted by the knot-insertion maps onto
                   the level below, the largest restriction that
                   make_sequence makes.
Each of these also reports the tracemalloc peak of one call and the bytes of
what it returns: the quadrature evaluates its integrand one slab at a time
and scatters each slab into the result, so the peak less the result is a few
slabs at every depth (a slab holds at least one axis-0 atom, 1 MB of nodes
at depth 9).
For the projections it times, in d = 2 on the same mesh at depths
PROJECTION_DEPTHS, with orders (2, 2) and (3, 3):
  spline_projection  P_n g_{n+1}, the projection of a spline of the finest
                     level n + 1 onto level n, as verify_martingale_property
                     makes it;
with the tracemalloc peak of one call and the bytes of its result: the
nodes stream through in blocks, so the peak less the result is about the
first axis's output and a few blocks of CONTRACT_BLOCK_POINTS nodes.
For the basis values it times, in d = 1 on the same mesh at depths
EVAL_DEPTHS, with order EVAL_ORDER:
  eval_basis_many  the basis values at MOMENT_AXIS_POINTS Gauss nodes per
                   atom, the axis table of a one-axis basis_moments;
with the tracemalloc peak of one call and the bytes of its result; the de
Boor recursion runs in blocks of points, so the peak is about the result.
For the smooth-exp function, a SeparableFunction, it times in d = 2 and
d = 3 on the same mesh at the depths of SEQUENCE_DEPTHS, with order 3 on
every axis and 4 points per atom, as in the converge experiment:
  basis_moments  the moments against the finest basis;
  make_sequence  g_1, ..., g_N;
each for two forms of the same function: the separable source, which
basis_moments integrates axis by axis, and the plain lambda *x: f(*x),
which it evaluates on the node grid slab by slab.  Each row has the
tracemalloc peak of one call and the bytes of its result (of the finest
coefficients for make_sequence).  The density rows above are not separable,
so they time the slab route alone.
For the filtrations it times build_filtration in d = 1 for two rules, each
at the three depths of FILTRATION_RULES: uniform-bisect-all as in the shadrin
experiment (3 jittered base atoms, 192, 768 and 3,072 atoms) and
random-atom-bisect as in the decay experiment (2 base atoms, p_split 0.7).

For set-up it runs `import splinelab.experiments` in IMPORT_PROBES fresh
interpreters with OPENBLAS_NUM_THREADS=1 and reports, under "import", the
median time of the import statement and the median peak resident memory
(ru_maxrss) of the interpreter after it.  This row is what the benchmark's
setup_s measures, less the workload's config generation, which takes
milliseconds.

Each time is the median of REPEATS calls (FILTRATION_REPEATS for the
filtrations, which take milliseconds).  Prints JSON with every timing and
the slope of log(seconds) against log(dim), per kernel and order for the
dual kernels, per kernel and d (dim = atoms per axis) for the maximal and
quadrature ones, and per rule (dim = atoms of the last level) for
build_filtration; the smooth-exp rows have a slope per kernel and form in d = 2.
BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from splinelab import (FiltrationSpec, HybridMeasure, SplineSpace1D,  # noqa: E402
                       TensorProjector, atom_quadrature, build_filtration, compile_masses,
                       density_catalog, make_sequence, maximal_field)
from splinelab.bspline import (CACHE_BLOCK_BYTES, atom_chebyshev, basis_moments,  # noqa: E402
                               restrict)
from splinelab.experiments import _random_nonnegative_measure  # noqa: E402
from splinelab.maximal import level_sum_field  # noqa: E402
from splinelab.measures import source_moments  # noqa: E402
from splinelab.projector import (  # noqa: E402
    NORM_SAMPLES_PER_ATOM,
    NORM_WINDOW_ATOMS,
    SOLVE_BLOCK_ATOMS,
    GramSystem,
    _kernel_blocks,
    decay_profile,
    operator_norm_1d,
)

KERNELS = ("gram_system", "duals_at", "decay_profile", "kernel_columns", "operator_norm_1d")
MAXIMAL_KERNELS = ("level_sum_field", "maximal_field")
QUADRATURE_KERNELS = ("compile_masses", "basis_moments", "restrict")
PROJECTION_KERNELS = ("spline_projection",)
PROJECTION_ORDERS = ((2, 2), (3, 3))
SEQUENCE_KERNELS = ("basis_moments", "make_sequence")
SEQUENCE_FORMS = ("separable", "lambda")

DEPTHS = (8, 9, 10)
ORDERS = (2, 3, 4, 5)
MAXIMAL_DEPTHS = {1: (10, 11, 12), 2: (7, 8, 9)}
Q_VALUES = (0.3, 0.5, 0.8)
QUADRATURE_DEPTHS = (7, 8, 9)
MOMENT_POINTS = 16
PROJECTION_DEPTHS = (7, 8, 9)
EVAL_DEPTHS = (10, 12, 14)
EVAL_ORDER = 3
MOMENT_AXIS_POINTS = 4
SEQUENCE_DEPTHS = {2: (6, 7, 8), 3: (5,)}
FILTRATION_RULES = {   # rule, depths
    "uniform-bisect-all": ({"name": "uniform-bisect-all", "base_atoms": 3, "base_jitter": 0.5},
                           (6, 8, 10)),
    "random-atom-bisect": ({"name": "random-atom-bisect", "p_split": 0.7,
                            "split_range": [0.35, 0.65], "base_atoms": 2}, (8, 10, 12)),
}
REPEATS = 3    # calls per timing; the median is reported
FILTRATION_REPEATS = 21
IMPORT_PROBES = 7    # fresh interpreters for the import row
SEED = 0       # mesh seed
IMPORT_PROBE = ("import resource, time\n"
                "t0 = time.perf_counter()\n"
                "import splinelab.experiments\n"
                "print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


def median_seconds(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slope(pts):
    """Least-squares slope of log(seconds) against log(dim) over (dim, seconds) pairs."""
    dims, secs = np.array(pts).T
    return round(float(np.polyfit(np.log(dims), np.log(secs), 1)[0]), 3)


def maximal_rows():
    """Timings and memory peaks of one finest level sum and of a three-q maximal field."""
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 1}
    rows = []
    for d, depths in MAXIMAL_DEPTHS.items():
        theta = HybridMeasure(d=d, density=lambda *g: 1.0 + 0.5 * np.sin(3 * sum(g)),
                              diracs=[(np.full(d, 0.3), np.array([1.0]))], density_quad_points=4)
        for depth in depths:
            F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=depth,
                                                rules=[rule] * d, seed=SEED))
            masses = compile_masses(theta, F)
            kernels = {
                "level_sum_field": lambda: level_sum_field(0.5, masses, depth),
                "maximal_field": lambda: [maximal_field(q, masses, K=2).values
                                          for q in Q_VALUES][-1],
            }
            for name, fn in kernels.items():
                peak, out = traced_peak(fn)
                rows.append({"kernel": name, "d": d, "depth": depth,
                             "dim": F.axes[0].level(depth).n_atoms,
                             "seconds": median_seconds(fn), "peak_bytes": peak,
                             "result_bytes": out.nbytes})
    return rows


def traced_peak(fn):
    """(tracemalloc peak of one call of fn, its result)."""
    tracemalloc.start()
    out = fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, out


def all_levels(masses):
    """The mass tensors of every level, which a CompiledMasses keeps."""
    return [masses.level_masses(n) for n in range(1, masses.F.n_levels + 1)]


def quadrature_rows():
    """Timings and memory peaks of the two density reductions and of the restriction
    at three d=2 depths."""
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 1}

    def density(*g):
        return 1.0 + 0.5 * np.sin(3 * sum(g))

    covering = _random_nonnegative_measure(np.random.default_rng(SEED), 2, (0.0, 1.0))
    moments = HybridMeasure(d=2, density=density, density_quad_points=MOMENT_POINTS)
    rows = []
    for depth in QUADRATURE_DEPTHS:
        F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=depth,
                                            rules=[rule] * 2, seed=SEED))
        fine = [SplineSpace1D(ax.level(depth), 2) for ax in F.axes]
        coarse = [SplineSpace1D(ax.level(depth - 1), 2) for ax in F.axes]
        b = source_moments(moments, fine)
        kernels = {
            "compile_masses": lambda: all_levels(compile_masses(covering, F)),
            "basis_moments": lambda: source_moments(moments, fine),
            "restrict": lambda: restrict(b, fine, coarse),
        }
        for name, fn in kernels.items():
            peak, out = traced_peak(fn)
            rows.append({"kernel": name, "d": 2, "depth": depth,
                         "dim": fine[0].partition.n_atoms,
                         "seconds": median_seconds(fn), "peak_bytes": peak,
                         "result_bytes": (sum(a.nbytes for a in out)
                                          if isinstance(out, list) else out.nbytes)})
    return rows


def projection_rows():
    """Timings and memory peaks of P_n g_{n+1}, d = 2, at the depths of PROJECTION_DEPTHS
    for each pair of PROJECTION_ORDERS."""
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 1}
    theta = HybridMeasure(d=2, density=lambda *g: 1.0 + 0.5 * np.sin(3 * sum(g)),
                          density_quad_points=4)
    rows = []
    for depth in PROJECTION_DEPTHS:
        F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=depth,
                                            rules=[rule] * 2, seed=SEED))
        for orders in PROJECTION_ORDERS:
            fine = TensorProjector.for_level(F, depth, orders)
            coarse = TensorProjector.for_level(F, depth - 1, orders)
            g_fine = fine.project(theta)
            fn = lambda: coarse.project(g_fine).coeffs
            peak, out = traced_peak(fn)
            rows.append({"kernel": "spline_projection", "d": 2, "orders": list(orders),
                         "depth": depth, "dim": fine.spaces[0].partition.n_atoms,
                         "seconds": median_seconds(fn), "peak_bytes": peak,
                         "result_bytes": out.nbytes})
    return rows


def eval_rows():
    """Timings and memory peaks of eval_basis_many at MOMENT_AXIS_POINTS Gauss nodes per
    atom, d = 1, order EVAL_ORDER, at the depths of EVAL_DEPTHS."""
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 1}
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=max(EVAL_DEPTHS),
                                        rules=[rule], seed=SEED))
    rows = []
    for depth in EVAL_DEPTHS:
        part = F.axes[0].level(depth)
        space = SplineSpace1D(part, EVAL_ORDER)
        nodes = atom_quadrature(part, MOMENT_AXIS_POINTS).nodes
        fn = lambda: space.eval_basis_many(nodes)[1]
        peak, out = traced_peak(fn)
        rows.append({"kernel": "eval_basis_many", "d": 1, "k": EVAL_ORDER, "depth": depth,
                     "dim": part.n_atoms, "points": nodes.size,
                     "seconds": median_seconds(fn), "peak_bytes": peak,
                     "result_bytes": out.nbytes})
    return rows


def sequence_rows():
    """Timings and memory peaks of the smooth-exp moments and make_sequence, separable
    and as a plain lambda, order 3 on every axis, at SEQUENCE_DEPTHS."""
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 1}
    rows = []
    for d, depths in SEQUENCE_DEPTHS.items():
        f = density_catalog("smooth-exp", d)
        forms = {"separable": f, "lambda": lambda *x: f(*x)}
        for depth in depths:
            F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=depth,
                                                rules=[rule] * d, seed=SEED))
            fine = [SplineSpace1D(ax.level(depth), 3) for ax in F.axes]
            for form, source in forms.items():
                kernels = {
                    "basis_moments": lambda: basis_moments(source, fine, 4),
                    "make_sequence": lambda: make_sequence(
                        F, source, (3,) * d, quad_points=4).level(depth).coeffs,
                }
                for name, fn in kernels.items():
                    peak, out = traced_peak(fn)
                    rows.append({"kernel": name, "form": form, "d": d, "depth": depth,
                                 "dim": F.axes[0].level(depth).n_atoms,
                                 "seconds": median_seconds(fn), "peak_bytes": peak,
                                 "result_bytes": out.nbytes})
    return rows


def filtration_rows():
    """Timings of build_filtration in d = 1 for each rule of FILTRATION_RULES at its depths."""
    rows = []
    for name, (rule, depths) in FILTRATION_RULES.items():
        for depth in depths:
            spec = FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=depth, rules=[rule],
                                  seed=SEED)
            atoms = build_filtration(spec).axes[0].level(depth).n_atoms
            rows.append({"kernel": "build_filtration", "rule": name, "depth": depth,
                         "dim": atoms, "seconds": median_seconds(
                             lambda: build_filtration(spec), FILTRATION_REPEATS)})
    return rows


def import_row():
    """Median import time and peak resident memory of `import splinelab.experiments` in
    IMPORT_PROBES fresh interpreters with one BLAS thread (ru_maxrss is in KiB on Linux)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probes = [subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
              for _ in range(IMPORT_PROBES)]
    return {"probes": IMPORT_PROBES,
            "seconds": statistics.median(float(t) for t, _ in probes),
            "maxrss_mb": statistics.median(int(kib) for _, kib in probes) / 1024}


def main():
    rule = {"name": "random-atom-bisect", "p_split": 1.0,
            "split_range": [0.35, 0.65], "base_atoms": 3}
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=max(DEPTHS),
                                        rules=[rule], seed=SEED))
    rows = []
    for depth in DEPTHS:
        part = F.axes[0].level(depth)
        for k in ORDERS:
            space = SplineSpace1D(part, k)
            gs = GramSystem(space)
            cheb = atom_chebyshev(part, NORM_SAMPLES_PER_ATOM)
            a0 = part.n_atoms // 2
            xs = cheb[a0:a0 + SOLVE_BLOCK_ATOMS].ravel()
            kernels = {
                "gram_system": lambda: GramSystem(space),
                "duals_at": lambda: gs.duals_at(xs),
                "decay_profile": lambda: decay_profile(gs),
                "kernel_columns": lambda: sum(1 for _ in _kernel_blocks(gs, NORM_SAMPLES_PER_ATOM)),
                "operator_norm_1d": lambda: operator_norm_1d(gs),
            }
            for name, fn in kernels.items():
                rows.append({"kernel": name, "k": k, "depth": depth, "atoms": part.n_atoms,
                             "dim": gs.dimension, "seconds": median_seconds(fn)})
    exponents = {
        name: {str(k): slope([(r["dim"], r["seconds"]) for r in rows
                              if r["kernel"] == name and r["k"] == k]) for k in ORDERS}
        for name in KERNELS}
    mrows = maximal_rows()
    exponents.update({
        name: {f"d{d}": slope([(r["dim"], r["seconds"]) for r in mrows
                               if r["kernel"] == name and r["d"] == d]) for d in MAXIMAL_DEPTHS}
        for name in MAXIMAL_KERNELS})
    qrows = quadrature_rows()
    exponents.update({
        name: {"d2": slope([(r["dim"], r["seconds"]) for r in qrows if r["kernel"] == name])}
        for name in QUADRATURE_KERNELS})
    prows = projection_rows()
    exponents.update({
        name: {f"d2_k{orders[0]}x{orders[1]}": slope([
            (r["dim"], r["seconds"]) for r in prows
            if r["kernel"] == name and r["orders"] == list(orders)])
            for orders in PROJECTION_ORDERS}
        for name in PROJECTION_KERNELS})
    erows = eval_rows()
    exponents["eval_basis_many"] = {"d1": slope([(r["dim"], r["seconds"]) for r in erows])}
    srows = sequence_rows()
    exponents["smooth-exp"] = {
        f"{name}_{form}": {"d2": slope([(r["dim"], r["seconds"]) for r in srows
                                        if (r["kernel"], r["form"], r["d"]) == (name, form, 2)])}
        for name in SEQUENCE_KERNELS for form in SEQUENCE_FORMS}
    frows = filtration_rows()
    exponents["build_filtration"] = {
        name: slope([(r["dim"], r["seconds"]) for r in frows if r["rule"] == name])
        for name in FILTRATION_RULES}
    out = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "settings": {"seed": SEED, "repeats": REPEATS, "depths": list(DEPTHS),
                     "orders": list(ORDERS), "solve_block_atoms": SOLVE_BLOCK_ATOMS,
                     "norm_window_atoms": NORM_WINDOW_ATOMS,
                     "maximal_depths": {f"d{d}": list(v) for d, v in MAXIMAL_DEPTHS.items()},
                     "q_values": list(Q_VALUES),
                     "cache_block_bytes": CACHE_BLOCK_BYTES,
                     "quadrature_depths": list(QUADRATURE_DEPTHS),
                     "moment_points": MOMENT_POINTS,
                     "projection_depths": list(PROJECTION_DEPTHS),
                     "projection_orders": [list(o) for o in PROJECTION_ORDERS],
                     "eval_depths": list(EVAL_DEPTHS), "eval_order": EVAL_ORDER,
                     "moment_axis_points": MOMENT_AXIS_POINTS,
                     "sequence_depths": {f"d{d}": list(v) for d, v in SEQUENCE_DEPTHS.items()},
                     "filtration_depths": {name: list(depths)
                                           for name, (_, depths) in FILTRATION_RULES.items()},
                     "filtration_repeats": FILTRATION_REPEATS},
        "import": import_row(),
        "timings": rows + mrows + qrows + prows + erows + srows + frows,
        "exponents": exponents,
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
