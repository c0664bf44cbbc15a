"""The splinelab layers the traced run measures, and its per-layer metrics.

Span names are `<module>.<function>` or `<module>.<Class>.<method>`.  The
probes below turn one call's arguments and result into counts; every count
is computed from array shapes or file sizes, never timed.  `PER_LAYER` lists
the reported metrics in the order of BENCHMARK.json's `per_layer`.
"""

from __future__ import annotations

import os
import weakref
from itertools import count

import numpy as np

from spans import loglog_slope

MODULES = ("filtration", "bspline", "projector", "measures", "maximal",
           "sequences", "nondense", "experiments")

# spans whose per-call (duration, dimension, order) feed the scaling fits
SLOPE_SPANS = ("projector.operator_norm_1d", "projector.decay_profile",
               "projector.GramSystem.__init__")


def _space_counts(space) -> dict:
    return {"dimension": space.dimension, "order": space.order}


def _gram_init(a, out):
    space = a["space"]
    return dict(_space_counts(space),
                key=(space.partition.breakpoints.tobytes(), space.order))


def _operator_norm(a, out):
    space = a["gs"].space
    dim = space.dimension
    # orders >= 2 form the dense inverse Gram, dim x dim float64
    return dict(_space_counts(space), inverse_bytes=8 * dim * dim if space.order > 1 else 0)


def _moment_tensor(a, out):
    from splinelab.bspline import DEFAULT_QUAD_POINTS

    tp = a["self"]
    g = a["g"] if a["g"] is not None else max(max(tp.orders), DEFAULT_QUAD_POINTS)
    parts = a["quad_partitions"] or [s.partition for s in tp.spaces]
    return {"nodes": int(np.prod([p.n_atoms * g for p in parts]))}


class _Serials:
    """Stable serial number per live object, so ids reused after garbage
    collection are never mistaken for the same object."""

    def __init__(self):
        self._ids = weakref.WeakKeyDictionary()
        self._next = count()

    def __call__(self, obj) -> int:
        if obj not in self._ids:
            self._ids[obj] = next(self._next)
        return self._ids[obj]


def make_probes() -> dict:
    masses_serial = _Serials()

    def level_sum_field(a, out):
        masses, n = a["masses"], a["n"]
        F = masses.F
        sizes = [F.axes[ell].level(n).n_atoms for ell in range(F.d)]
        return {"key": (masses_serial(masses), n, float(a["q"])),
                # one dense n_l x n_l float64 kernel per axis
                "kernel_bytes": sum(8 * s * s for s in sizes)}

    def write_outputs(a, out):
        base = os.path.join(os.fspath(a["out_dir"]), a["name"])
        return {"bytes": sum(os.path.getsize(base + ext)
                             for ext in (".csv", ".summary.json", ".meta.json"))}

    return {
        "bspline.SplineSpace1D.eval_basis_many": lambda a, out: {"points": int(np.size(a["xs"]))},
        "bspline.TensorSpline.eval_many": lambda a, out: {"points": int(out.shape[0])},
        "projector.GramSystem.__init__": _gram_init,
        "projector.GramSystem.solve":
            lambda a, out: {"rhs_columns": int(np.prod(np.shape(a["rhs"])[1:]))},
        "projector.operator_norm_1d": _operator_norm,
        "projector.decay_profile": lambda a, out: _space_counts(a["gs"].space),
        "projector.TensorProjector.moment_tensor": _moment_tensor,
        "maximal.level_sum_field": level_sum_field,
        "experiments.write_outputs": write_outputs,
    }


# (metric prefix, span, quantities).  Quantities: calls, self_s, a probe count,
# distinct_ratio (distinct keys / calls), s_per_point (inclusive time per
# evaluated point) and slope (log-log fit of inclusive per-call time on
# dimension, over the calls of the highest spline order present).
_SPANS = [
    ("filtration.build_filtration", "filtration.build_filtration", ["self_s"]),
    ("bspline.eval_basis_many", "bspline.SplineSpace1D.eval_basis_many",
     ["calls", "points", "self_s", "s_per_point"]),
    ("bspline.TensorSpline.eval_many", "bspline.TensorSpline.eval_many", ["points", "self_s"]),
    ("projector.GramSystem", "projector.GramSystem.__init__",
     [("factorizations", "calls"), "distinct_ratio", ("init_self_s", "self_s"),
      ("init_slope", "slope")]),
    ("projector.GramSystem.solve", "projector.GramSystem.solve",
     ["calls", "rhs_columns", "self_s"]),
    ("projector.operator_norm_1d", "projector.operator_norm_1d",
     ["self_s", "slope", "inverse_bytes"]),
    ("projector.decay_profile", "projector.decay_profile", ["self_s", "slope"]),
    ("projector.moment_tensor", "projector.TensorProjector.moment_tensor", ["self_s", "nodes"]),
    ("projector.solve_coefficients", "projector.TensorProjector.solve_coefficients", ["self_s"]),
    ("projector.project_measure", "projector.TensorProjector.project_measure", ["self_s"]),
    ("measures.compile_masses", "measures.compile_masses", ["self_s"]),
    ("measures.CompiledMasses.level_masses", "measures.CompiledMasses.level_masses", ["self_s"]),
    ("maximal.level_sum_field", "maximal.level_sum_field",
     ["calls", "self_s", "distinct_ratio", "kernel_bytes"]),
    ("maximal.maximal_field", "maximal.maximal_field", ["self_s"]),
    ("maximal.superlevel_measure", "maximal.superlevel_measure", ["calls", "self_s"]),
    ("maximal.covering_series_bound", "maximal.covering_series_bound", ["self_s"]),
    ("sequences.make_sequence", "sequences.make_sequence", ["self_s"]),
    ("sequences.verify_martingale_property", "sequences.verify_martingale_property", ["self_s"]),
    ("sequences.convergence_probe", "sequences.convergence_probe", ["self_s"]),
    ("sequences.sample_probe_points", "sequences.sample_probe_points", ["self_s"]),
    ("nondense.detect_v_sets", "nondense.detect_v_sets", ["self_s"]),
    ("nondense.limit_dual_table", "nondense.limit_dual_table", ["self_s"]),
    ("experiments.run_experiment", "experiments.run_experiment", ["self_s"]),
    ("experiments.write_outputs", "experiments.write_outputs", ["self_s", "bytes"]),
]

_UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio", "s_per_point": "s/point",
          "slope": "ratio", "points": "count", "rhs_columns": "count", "nodes": "count",
          "inverse_bytes": "bytes", "kernel_bytes": "bytes", "bytes": "bytes"}


def _layer_table():
    table = []
    for prefix, span, quantities in _SPANS:
        for q in quantities:
            label, q = q if isinstance(q, tuple) else (q, q)
            table.append((f"{prefix}.{label}", span, q, _UNITS[q]))
    for mod in MODULES:
        table.append((f"{mod}.self_s", mod, "module_self_s", "s"))
        table.append((f"{mod}.self_share", mod, "module_self_share", "ratio"))
        table.append((f"{mod}.errors", mod, "module_errors", "count"))
    return table


# (metric, span or module, quantity, unit)
LAYER_METRICS = _layer_table()
RUN_METRICS = [("trace.overhead_frac", "ratio"), ("machine.nproc", "count"),
               ("machine.blas_threads", "count")]
PER_LAYER = [(m, unit) for m, _, _, unit in LAYER_METRICS] + RUN_METRICS


def layer_values(tracer, traced_wall_s: float) -> dict:
    """Per-layer metric values from a finished traced pass."""
    module_self = {mod: 0.0 for mod in MODULES}
    for name, st in tracer.stats.items():
        module_self[name.split(".", 1)[0]] += st.self_s
    out = {}
    for metric, span, q, _ in LAYER_METRICS:
        st = tracer.stats.get(span)
        if q == "module_self_s":
            v = module_self[span]
        elif q == "module_self_share":
            v = module_self[span] / traced_wall_s
        elif q == "module_errors":
            v = tracer.errors[span]
        elif st is None:
            v = 0
        elif q == "calls":
            v = st.calls
        elif q == "self_s":
            v = st.self_s
        elif q == "distinct_ratio":
            v = len(st.keys) / st.calls
        elif q == "s_per_point":
            v = st.total_s / st.sums["points"] if st.sums["points"] else 0.0
        elif q == "slope":
            top = max(c["order"] for _, c in st.per_call)
            calls = [(d, c["dimension"]) for d, c in st.per_call if c["order"] == top]
            v = loglog_slope([s for _, s in calls], [d for d, _ in calls])
        else:
            v = st.sums[q]
        out[metric] = v
    return out
