"""Experiment runners: decay, shadrin, weaktype, covering, converge, singular, nondense.

Each experiment consumes a fully explicit config (every parameter, seed, and
depth spelled out), writes `<name>.csv` (long-format data), a
`<name>.summary.json` with per-assertion pass/fail, and `<name>.meta.json`
with versions, the BLAS with its thread variables and the thread counts in
effect, and a timestamp.  A run holds numpy's and scipy's bundled OpenBLAS
at one thread, so outputs are deterministic for a fixed config and seed:
data files are byte-identical across runs and thread settings (the
timestamp lives only in the meta file).
The exit status is zero iff every asserted bound holds.
"""

from __future__ import annotations

import csv
import ctypes
import itertools
import json
import numbers
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bspline import SplineSpace1D, _basis_columns, atom_chebyshev, atom_quadrature
from .filtration import (AtomSet, FiltrationSpec, TensorFiltration, _require_int,
                         atom_range_gap, build_filtration)
from .maximal import (
    covering_constant,
    covering_report,
    hl_weak_type_ratio,
    maximal_field,
    weak_series_total,
)
from .measures import HybridMeasure, compile_masses, density_catalog, measure_from_config
from .nondense import detect_v_sets, frozen_subspace, limit_dual_table
from .projector import (PROFILE_FLOOR, GramSystem, TensorProjector, decay_profile,
                        operator_norm_inf)
from .sequences import convergence_probe, make_sequence, sample_probe_points, verify_martingale_property

@dataclass
class Assertion:
    name: str
    bound: float
    observed: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "observed": self.observed,
            "pass": self.passed,
        }


class AssertionLog:
    def __init__(self):
        self.items = []

    def check_le(self, name: str, observed: float, bound: float) -> bool:
        ok = bool(observed <= bound)
        self.items.append(Assertion(name, float(bound), float(observed), ok))
        return ok

    def check_true(self, name: str, flag: bool) -> bool:
        self.items.append(Assertion(name, 1.0, 1.0 if flag else 0.0, bool(flag)))
        return bool(flag)

    @property
    def all_pass(self) -> bool:
        return all(a.passed for a in self.items)


# ---------------------------------------------------------------------------
# individual experiments


def _filtration(cfg_rule, d, interval, depth, seed) -> TensorFiltration:
    spec = FiltrationSpec(d=d, interval=tuple(interval), n_levels=depth,
                          rules=cfg_rule, seed=seed)
    return build_filtration(spec)


def _seed_filtrations(cfg: dict, depth: int) -> list:
    """(seed, 1-d filtration) for each of the n_seeds seeds from cfg["seed"] on."""
    p = cfg["params"]
    seeds = range(int(cfg["seed"]), int(cfg["seed"]) + int(p["n_seeds"]))
    return [(seed, _filtration([dict(p["rule"])], 1, p["interval"], depth, seed))
            for seed in seeds]


def run_decay(cfg: dict):
    p = cfg["params"]
    depth = int(cfg["depth"])
    rows = [("seed", "level", "k", "s", "max_value", "q_hat", "c_hat")]
    log = AssertionLog()
    q_cap = float(p["q_max"])
    worst_q, worst_resid = {}, {}
    seeds = _seed_filtrations(cfg, depth)
    for k in p["orders"]:
        for seed, F in seeds:
            space = SplineSpace1D(F.axes[0].level(depth), int(k))
            if space.dimension < 2 * int(k):
                raise ValueError("decay experiment needs a richer final level; increase depth")
            prof = decay_profile(GramSystem(space), nx_per_atom=int(p["samples_per_atom"]))
            for s, v in zip(prof.distances, prof.values):
                rows.append((seed, depth, int(k), int(s), v, prof.q_hat, prof.c_hat))
            worst_q[int(k)] = max(worst_q.get(int(k), 0.0), prof.q_hat)
            worst_resid[int(k)] = max(worst_resid.get(int(k), 0.0), prof.fit_residual)
            vals = prof.values[int(k):]
            mono_ok = np.all(vals[1:] <= np.maximum(vals[:-1] * (1 + 1e-9), PROFILE_FLOOR))
            log.check_true(f"decay_monotone_beyond_k_k{k}_seed{seed}", mono_ok)
    for k, q in sorted(worst_q.items()):
        log.check_le(f"q_hat_below_cap_k{k}", q, q_cap)
    return rows, log, {"worst_q_hat": worst_q, "worst_fit_residual": worst_resid}


def _dense_tensor_norm_2d(tp: TensorProjector, nx: int = 6, ny: int = 6) -> float:
    """Direct 2-d kernel norm on a small space, without using factorization.

    Assembles |K(x, y)| = |K1(x1,y1) K2(x2,y2)| on full sample/quadrature
    grids and integrates in both y variables jointly; the product path must
    reproduce this to roundoff.
    """
    mats = []
    for gs in tp.grams:
        space = gs.space
        part = space.partition
        xs = atom_chebyshev(part, nx).ravel()
        rule = atom_quadrature(part, ny)
        ys = rule.nodes.ravel()
        wy = rule.weights.ravel()
        D = gs.duals_at(xs)                       # (dim, n_x)
        B = _basis_columns(*space.eval_basis_many(ys), 0, space.dimension).T   # (n_y, dim)
        mats.append((B @ D, wy))                  # kernel K(x, y) on the grid
    (K1, w1), (K2, w2) = mats
    # integral over (y1, y2) of |K1(x1,y1)| |K2(x2,y2)| for every (x1, x2)
    I1 = w1 @ np.abs(K1)                          # (n_x1,)
    K2abs = w2 @ np.abs(K2)                       # (n_x2,)
    return float(np.max(np.outer(I1, K2abs)))


def run_shadrin(cfg: dict):
    p = cfg["params"]
    depth = int(cfg["depth"])
    rows = [("seed", "level", "k", "s", "max_value", "q_hat", "c_hat")]
    log = AssertionLog()
    k1_tol = float(p["k1_tol"])
    var_bound = float(p["variation_bound"])
    nx = int(p["samples_per_atom"])
    ny = int(p["quad_per_atom"])
    window = int(p["window"])
    tc = p["tensor_check"]
    if int(tc["d"]) != 2 or len(tc["orders"]) != 2:  # the dense oracle is 2-d only
        raise ValueError(f"shadrin tensor_check needs d = 2 and two orders, got {tc}")
    seeds = _seed_filtrations(cfg, depth)
    for k in p["orders"]:
        for seed, F in seeds:
            norms = []
            for n in range(1, depth + 1):
                tp = TensorProjector.for_level(F, n, int(k))
                est = operator_norm_inf(tp, nx_per_atom=nx, ny_per_atom=ny, window=window)
                norms.append(est.value)
                # norm sweeps share the decay CSV schema; s and the fit columns are idle
                rows.append((seed, n, int(k), 0, est.value, float("nan"), float("nan")))
            norms = np.asarray(norms)
            if int(k) == 1:
                log.check_le(
                    f"k1_norm_is_one_seed{seed}", float(np.max(np.abs(norms - 1.0))), k1_tol
                )
            else:
                spread = float((norms.max() - norms.min()) / norms.max())
                log.check_le(f"depth_variation_k{k}_seed{seed}", spread, var_bound)
    F2 = _filtration([dict(p["rule"]), dict(p["rule"])], 2, p["interval"],
                     int(tc["depth"]), int(cfg["seed"]))
    tp2 = TensorProjector.for_level(F2, int(tc["depth"]), tuple(tc["orders"]))
    est = operator_norm_inf(tp2, nx_per_atom=6, ny_per_atom=6, window=window)
    direct = _dense_tensor_norm_2d(tp2, nx=6, ny=6)
    log.check_le("tensor_norm_equals_axis_product", float(abs(est.value - direct)),
                 float(p["tensor_tol"]))
    return rows, log, {}


def _exact_weak_ratio(values: np.ndarray, vols: np.ndarray) -> float:
    """sup over t > 0 of t * vol{field > t} for an atomwise-constant field."""
    v = values.ravel()
    w = vols.ravel()
    order = np.argsort(v)[::-1]
    v_sorted = v[order]
    cum = np.cumsum(w[order])          # vol{field >= v_sorted[j]}
    pos = v_sorted > 0
    if not pos.any():
        return 0.0
    return float(np.max(v_sorted[pos] * cum[pos]))


def run_weaktype(cfg: dict):
    p = cfg["params"]
    rows = [("case", "q", "spike", "operator", "ratio", "bound")]
    log = AssertionLog()
    rng = np.random.default_rng(int(cfg["seed"]))
    for case in p["cases"]:
        d = int(case["d"])
        depth = int(case["depth"])
        orders = tuple(case["orders"])
        F = _filtration([dict(case["rule"])] * d, d, p["interval"], depth, int(cfg["seed"]))
        shape = F.level_shape(depth)
        vols = F.atom_volumes(depth)
        spikes = []
        for _ in range(_require_int("n_spikes", case["n_spikes"], 1)):
            idx = tuple(int(rng.integers(0, s)) for s in shape)
            rect = F.atom_rectangle(depth, idx)
            spikes.append(density_catalog("spike", d, lo=rect.lo, hi=rect.hi))
        case_id = f"d{d}"
        # intrinsic maximal operator on spike measures, for each q
        spike_masses = [compile_masses(HybridMeasure(d=d, density=f, density_quad_points=4), F)
                        for f in spikes]
        for q in p["q_values"]:
            bound = covering_constant(float(q), d) * weak_series_total(float(q), d)
            for si, masses in enumerate(spike_masses):
                field_ = maximal_field(float(q), masses, K=1)
                ratio = _exact_weak_ratio(field_.values, vols)  # ||f||_1 = 1
                rows.append((case_id, float(q), si, "M", ratio, bound))
                log.check_le(f"weaktype_M_{case_id}_q{q}_spike{si}", ratio, bound)
        # maximal function of the spline projectors, bound via measured decay;
        # q_hat = 0 (order 1) takes q = 0.25 and no q_hat factor
        seqs = [make_sequence(F, f, orders, quad_points=max(orders)) for f in spikes]
        tp_fine = seqs[0].projectors[-1]
        profiles = [decay_profile(gs) for gs in tp_fine.grams]
        q_hat = max(pr.q_hat for pr in profiles)
        q_use = q_hat or 0.25
        c_k = float(np.prod([max(pr.c_env, 1.0) for pr in profiles])) * float(np.prod(orders))
        bound_p = (c_k * (q_hat ** -float(sum(orders)) if q_hat else 1.0)
                   * covering_constant(q_use, d) * weak_series_total(q_use, d))
        sample_pts = [0.5 * (s.partition.breakpoints[:-1] + s.partition.breakpoints[1:])
                      for s in tp_fine.spaces]
        for si, seq in enumerate(seqs):
            sup_field = np.zeros(shape)
            for pn in seq.splines:
                vals = np.linalg.norm(pn.eval_grid(sample_pts), axis=-1)
                sup_field = np.maximum(sup_field, vals)
            ratio = _exact_weak_ratio(sup_field, vols)
            rows.append((case_id, q_use, si, "supPn", ratio, bound_p))
            log.check_le(f"weaktype_supPn_{case_id}_spike{si}", ratio, bound_p)
        # Hardy-Littlewood baseline, d = 1 only
        if d == 1:
            part = F.axes[0].level(depth)
            t_grid = np.logspace(-2, 3, 40)
            for si, f in enumerate(spikes):
                ratio, _ = hl_weak_type_ratio(f, part, t_grid, g=4)
                rows.append((case_id, 0.0, si, "HL", ratio, 3.0))
                log.check_le(f"weaktype_HL_spike{si}", ratio, 3.0 * (1 + 1e-12))
    return rows, log, {}


def run_covering(cfg: dict):
    p = cfg["params"]
    rows = [("case", "q", "seed", "t", "lhs_volume", "rhs_bound", "ratio")]
    log = AssertionLog()
    overall = 0.0
    for case in p["cases"]:
        for s_i in range(int(p["n_seeds"])):
            seed = int(cfg["seed"]) + s_i
            overall = max(overall, _covering_seed(p, case, seed, rows, log))
    return rows, log, {"max_ratio": overall}


def _covering_seed(p, case, seed, rows, log) -> float:
    """One seed of run_covering: append its rows and checks, return its largest ratio.

    Each q's field and report are freed before the next q's field is built,
    and the seed's filtration and masses on return, so one seed's masses and
    one field at a time are alive: building a field, with its running max and
    the level's axis products, sets the experiment's peak memory.
    """
    d, depth, K = int(case["d"]), int(case["depth"]), int(case["K"])
    rng = np.random.default_rng(seed)
    F = _filtration([dict(case["rule"])] * d, d, p["interval"], depth, seed)
    theta = _random_nonnegative_measure(rng, d, p["interval"])
    masses = compile_masses(theta, F)
    B = _random_atom_block(rng, K, F.level_shape(K))
    top = 0.0
    for q in p["q_values"]:
        field_ = maximal_field(float(q), masses, K=K)
        report = covering_report(field_, B, _log_t_grid(field_, int(p["t_points"])))
        cols = (report.t_grid, report.lhs_volumes, report.rhs_bounds, report.ratios)
        rows.extend((f"d{d}", float(q), seed) + row for row in zip(*cols))
        top = max(top, report.max_ratio)
        log.check_le(f"covering_d{d}_q{q}_seed{seed}", report.max_ratio, 1.0)
        del field_, report
    return top


def _log_t_grid(field_, n_points):
    # the maximum is positive: each _random_nonnegative_measure has a Dirac of mass >= 0.3
    top = np.log10(float(field_.values.max()))
    return np.logspace(top - 3, top + 0.3, n_points)


def _random_nonnegative_measure(rng, d, interval):
    lo, hi = float(interval[0]), float(interval[1])
    c = float(rng.uniform(0.2, 1.5))
    slope = rng.uniform(-0.8, 0.8, size=d) * c

    def dens(*grids):
        out = c
        for ell, gax in enumerate(grids):
            out = out + slope[ell] * (np.asarray(gax) - lo) / (hi - lo)
        # out is a fresh array of the grids' broadcast shape: clip it in place
        return np.maximum(out, 0.0, out=out)

    n_diracs = int(rng.integers(1, 4))
    diracs = []
    for _ in range(n_diracs):
        loc = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=d)
        diracs.append((loc, float(rng.uniform(0.3, 2.0))))
    return HybridMeasure(d=d, density=dens, diracs=diracs, density_quad_points=4)


def _random_atom_block(rng, level, shape):
    ranges = []
    for s in shape:
        w = int(rng.integers(1, max(2, s // 2 + 1)))
        start = int(rng.integers(0, s - w + 1))
        ranges.append(range(start, start + w))
    return AtomSet(level=level, members=frozenset(itertools.product(*ranges)))


def run_converge(cfg: dict):
    p = cfg["params"]
    rows = [("case", "function", "level", "max_error", "fraction_below_tol")]
    log = AssertionLog()
    tol = float(p["tol"])
    for case in p["cases"]:
        d = int(case["d"])
        depth = int(case["depth"])
        orders = tuple(case["orders"])
        F = _filtration([{"name": "uniform-bisect-all"}] * d, d, p["interval"], depth,
                        int(cfg["seed"]))
        for fname in p["catalog"]:
            f = density_catalog(fname, d)
            seq = make_sequence(F, f, orders, quad_points=int(p["quad_points"]))
            probe = convergence_probe(
                seq, reference=f, n_points=int(p["n_probes"]), seed=int(cfg["seed"]),
                final_tol=tol,
            )
            for n in range(1, seq.n_levels + 1):
                below = float(np.mean(probe.errors[n - 1] < tol))
                rows.append((f"d{d}_k{'x'.join(map(str, orders))}", fname, n,
                             float(probe.errors[n - 1].max()), below))
            mart = verify_martingale_property(seq, n_probe=100, seed=int(cfg["seed"]))
            log.check_le(f"martingale_d{d}_{fname}", mart, 1e-9)
            log.check_le(f"converge_d{d}_{fname}_fraction", 1.0 - probe.fraction_below_tol, 0.0)
    return rows, log, {}


def run_singular(cfg: dict):
    p = cfg["params"]
    rows = [("probe", "level", "total_error", "dirac_value", "distance", "conv_volume")]
    log = AssertionLog()
    d = int(p["d"])
    depth = int(cfg["depth"])
    orders = tuple(p["orders"])
    F = _filtration([{"name": "uniform-bisect-all"}] * d, d, p["interval"], depth,
                    int(cfg["seed"]))
    theta = measure_from_config(p["measure"], d)
    sing = HybridMeasure(d=d, diracs=theta.diracs)
    seq = make_sequence(F, theta, orders)
    # keep probes a few finest atoms away from the Diracs: the finite-depth
    # remnant there is quantified by the decay-slope check below instead
    widest = max(float(F.axes[ell].level(depth).widths.max()) for ell in range(d))
    exclusion = [(loc, 16 * widest) for loc, _ in theta.diracs]
    points = sample_probe_points(F, int(p["n_probes"]), seed=int(cfg["seed"]),
                                 exclude=exclusion)
    probe = convergence_probe(seq, reference=theta.density, points=points,
                              final_tol=float(p["tol"]))
    log.check_le("density_limit_fraction", 1.0 - probe.fraction_below_tol, 0.0)
    mart = verify_martingale_property(seq, n_probe=100, seed=int(cfg["seed"]))
    log.check_le("martingale_property", mart, 1e-9)
    # Dirac part: pointwise geometric decay at the probes
    prof = decay_profile(seq.projectors[-1].grams[0])
    x0 = np.asarray(theta.diracs[0][0], float)
    n_pts = len(points)
    dirac_vals = np.empty((depth, n_pts))
    dists = np.zeros((depth, n_pts), dtype=int)
    convs = np.ones((depth, n_pts))
    for n, g_n in enumerate(make_sequence(F, sing, orders).splines, start=1):
        dirac_vals[n - 1] = np.linalg.norm(g_n.eval_many(points), axis=-1)
        for ell in range(d):
            part = F.axes[ell].level(n)
            i_x0 = part.atom_index_of(x0[ell])
            dist, hull = atom_range_gap(part.breakpoints, part.atom_index_of(points[:, ell]),
                                        i_x0, i_x0)
            dists[n - 1] += dist
            convs[n - 1] *= hull
        for j in range(n_pts):
            rows.append((j, n, float(probe.errors[n - 1][j]),
                         float(dirac_vals[n - 1, j]), int(dists[n - 1, j]), convs[n - 1, j]))
    slopes = []
    for j in range(n_pts):
        scaled = dirac_vals[:, j] * convs[:, j]
        good = scaled > 1e-250
        ss = dists[good, j].astype(float)
        if good.sum() >= 3 and ss[-1] > ss[0]:
            slopes.append(np.polyfit(ss, np.log(scaled[good]), 1)[0])
    slope = float(np.median(slopes))
    target = float(np.log(prof.q_hat))
    log.check_le("dirac_decay_slope_within_20pct", float(abs(slope - target)),
                 0.2 * abs(target))
    return rows, log, {"median_slope": slope, "log_q_hat": target}


def run_nondense(cfg: dict):
    p = cfg["params"]
    rows = [("case", "quantity", "index", "level", "value")]
    log = AssertionLog()
    delta_tol = float(p["delta_tol"])
    limit_tol = float(p["limit_tol"])
    for case in p["cases"]:
        d = int(case["d"])
        depth = int(case["depth"])
        seq_depth = int(case.get("sequence_depth", depth))
        orders = tuple(case["orders"])
        rules = [dict(r) for r in case["rules"]]
        cid = f"d{d}"
        # limit-dual assertions live on axis 1 alone; the same rule and seed
        # reproduce the d-dimensional build's first axis level by level
        F1 = _filtration([rules[0]], 1, p["interval"], depth, int(cfg["seed"]))
        v_sets = detect_v_sets(F1.axes[0], float(case["v_tolerance"]))
        log.check_true(f"{cid}_v_interval_found", len(v_sets) >= 1)
        if not v_sets:
            continue
        V = v_sets[0]
        rows.append((cid, "v_interval_lo", 0, depth, V.interval.lo))
        rows.append((cid, "v_interval_hi", 0, depth, V.interval.hi))
        rng = np.random.default_rng(int(cfg["seed"]))
        iv = V.interval
        probes1 = iv.lo + (iv.hi - iv.lo) * rng.uniform(0.05, 0.95, int(p["n_probes"]))
        table = limit_dual_table(F1.axes[0], V, orders[0], probes1)
        for r, gap in enumerate(table.oracle_gap):
            for li, n in enumerate(table.levels):
                rows.append((cid, f"dual_r{r}", r, int(n),
                             float(np.max(np.abs(table.values[li, r])))))
            log.check_le(f"{cid}_oracle_gap_r{r}", float(gap), limit_tol)
            log.check_true(f"{cid}_limit_decay_estimate_r{r}", bool(table.decay_ok[r]))
        worst_delta = float(table.deltas[-1].max()) if len(table.deltas) else 0.0
        log.check_le(f"{cid}_cauchy_delta_final", worst_delta, delta_tol)
        # martingale sequence limit on the frozen region vs the clamped oracle;
        # the frozen atom is wide, so the finest-grid rule needs real order here
        F = _filtration(rules, d, p["interval"], seq_depth, int(cfg["seed"]))
        f = density_catalog(case.get("function", "smooth-exp"), d)
        seq = make_sequence(F, f, orders, quad_points=10)
        limit_space = frozen_subspace(F.axes[0], V, orders[0])
        # the other axes (none in d = 1) are probed uniformly on their deepest spaces
        probe_pts = np.column_stack([probes1, rng.uniform(0.05, 0.95, (len(probes1), d - 1))])
        tp_limit = TensorProjector([limit_space] + [
            SplineSpace1D(F.axes[ell].level(seq_depth), orders[ell]) for ell in range(1, d)])
        oracle = tp_limit.project(f, g=10)
        final_vals = seq.level(seq_depth).eval_many(probe_pts)
        oracle_vals = oracle.eval_many(probe_pts)
        gap = float(np.max(np.linalg.norm(final_vals - oracle_vals, axis=-1)))
        rows.append((cid, "sequence_vs_clamped_oracle", 0, seq_depth, gap))
        log.check_le(f"{cid}_sequence_limit_matches_oracle", gap, limit_tol)
    return rows, log, {}


RUNNERS = {
    "decay": run_decay,
    "shadrin": run_shadrin,
    "weaktype": run_weaktype,
    "covering": run_covering,
    "converge": run_converge,
    "singular": run_singular,
    "nondense": run_nondense,
}
EXPERIMENT_NAMES = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# configs and IO


def default_config(name: str) -> dict:
    """Fully explicit default config for each experiment."""
    base_rule = {"name": "random-atom-bisect", "p_split": 0.7,
                 "split_range": [0.35, 0.65], "base_atoms": 2}
    if name == "decay":
        return {
            "experiment": "decay",
            "seed": 1001,
            "depth": 8,
            "params": {
                "orders": [1, 2, 3, 4],
                "n_seeds": 20,
                "interval": [0.0, 1.0],
                "rule": base_rule,
                "samples_per_atom": 8,
                "q_max": 0.99,
            },
        }
    if name == "shadrin":
        return {
            "experiment": "shadrin",
            "seed": 2002,
            "depth": 10,
            "params": {
                "orders": [1, 2, 3, 4],
                "n_seeds": 20,
                "interval": [0.0, 1.0],
                "rule": {"name": "uniform-bisect-all", "base_atoms": 3, "base_jitter": 0.5},
                "samples_per_atom": 8,
                "quad_per_atom": 8,
                "window": 64,
                "variation_bound": 0.05,
                "k1_tol": 1e-12,
                "tensor_tol": 1e-9,
                "tensor_check": {"d": 2, "depth": 3, "orders": [2, 2]},
            },
        }
    if name == "weaktype":
        return {
            "experiment": "weaktype",
            "seed": 3003,
            "depth": 8,
            "params": {
                "interval": [0.0, 1.0],
                "q_values": [0.3, 0.5, 0.8],
                "cases": [
                    {"d": 1, "depth": 8, "orders": [2], "n_spikes": 8, "rule": base_rule},
                    {"d": 2, "depth": 5, "orders": [2, 2], "n_spikes": 4, "rule": base_rule},
                ],
            },
        }
    if name == "covering":
        return {
            "experiment": "covering",
            "seed": 4004,
            "depth": 8,
            "params": {
                "interval": [0.0, 1.0],
                "q_values": [0.3, 0.5, 0.8],
                "n_seeds": 30,
                "t_points": 20,
                "cases": [
                    {"d": 1, "depth": 8, "K": 2, "rule": base_rule},
                    {"d": 2, "depth": 7, "K": 2, "rule": base_rule},
                ],
            },
        }
    if name == "converge":
        return {
            "experiment": "converge",
            "seed": 5005,
            "depth": 8,
            "params": {
                "interval": [0.0, 1.0],
                "n_probes": 500,
                "tol": 1e-3,
                "quad_points": 4,
                "catalog": ["smooth-sine", "smooth-exp", "polynomial"],
                "cases": [
                    {"d": 1, "depth": 8, "orders": [2]},
                    {"d": 1, "depth": 8, "orders": [3]},
                    {"d": 2, "depth": 8, "orders": [2, 2]},
                    {"d": 2, "depth": 8, "orders": [3, 3]},
                ],
            },
        }
    if name == "singular":
        return {
            "experiment": "singular",
            "seed": 6006,
            "depth": 10,
            "params": {
                "d": 1,
                "orders": [2],
                "interval": [0.0, 1.0],
                "n_probes": 40,
                "tol": 1e-3,
                "measure": {
                    "density": {"name": "polynomial", "degree": 2, "scale": 1.0},
                    "diracs": [{"location": [0.3], "mass": [1.0]}],
                },
            },
        }
    if name == "nondense":
        return {
            "experiment": "nondense",
            "seed": 7007,
            "depth": 10,
            "params": {
                "interval": [0.0, 1.0],
                "delta_tol": 1e-8,
                "limit_tol": 1e-6,
                "n_probes": 16,
                "cases": [
                    {
                        "d": 1,
                        "depth": 10,
                        "orders": [2],
                        "v_tolerance": 0.25,
                        "rules": [{"name": "frozen-on-subinterval", "frozen": [0.5, 1.0],
                                   "fraction": 0.9}],
                    },
                    {
                        "d": 2,
                        "depth": 10,
                        "sequence_depth": 7,
                        "orders": [2, 2],
                        "v_tolerance": 0.25,
                        "function": "smooth-exp",
                        "rules": [
                            {"name": "frozen-on-subinterval", "frozen": [0.5, 1.0],
                             "fraction": 0.9},
                            {"name": "uniform-bisect-all"},
                        ],
                    },
                ],
            },
        }
    raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")


def _format_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_outputs(name: str, cfg: dict, rows, log: AssertionLog, extra: dict,
                  out_dir, threads_set=()) -> None:
    """Write the CSV, summary and meta files; `threads_set` names the packages
    ("numpy", "scipy") whose OpenBLAS the run held at one thread."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    summary = {
        "experiment": name,
        "params": cfg["params"],
        "seeds": [cfg["seed"]],
        "depth": cfg["depth"],
        "assertions": [a.as_dict() for a in log.items],
        "pass": log.all_pass,
        "findings": extra,
    }
    with open(out / f"{name}.summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    meta = {
        "package": "splinelab",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
    }
    meta["scipy"] = scipy.__version__
    # output bits depend on the BLAS and its thread count; unset variables are null,
    # and so is the count of a library that is not loaded or lacks the getter
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta["blas"] = {"name": blas.get("name"), "version": blas.get("version"), **{
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    for package, suffix in _OPENBLAS:
        get = _openblas(package, f"scipy_openblas_get_num_threads{suffix}")
        meta["blas"][f"{package.__name__}_threads"] = None if get is None else int(get())
        meta["blas"][f"{package.__name__}_threads_set"] = package.__name__ in threads_set
    with open(out / f"{name}.meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


# the OpenBLAS builds that numpy (the products) and scipy (dpbtrf, dtbtrs) bundle, with
# the suffix of their symbols
_OPENBLAS = ((np, "64_"), (scipy, ""))


@cache
def _openblas(package, symbol: str):
    """`symbol` of the OpenBLAS that `package` bundles in its `.libs` directory, from the
    loaded library; None where no such library is loaded or it lacks the symbol.  Both
    are loaded once this module is imported (scipy's by `projector`), so the answer is
    looked up once per process."""
    libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            return getattr(ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD), symbol)
        except (OSError, AttributeError):
            continue
    return None


@contextmanager
def _one_blas_thread():
    """Hold each bundled OpenBLAS at one thread for the block and restore its previous
    count after it; yields the names of the packages whose count was set.  Where the
    library or its getter or setter is missing, the count stays as it was.

    Products split across threads sum in another order, so with more than one
    thread the last bits of an output could depend on the thread count."""
    restore = {}
    for package, suffix in _OPENBLAS:
        get, put = (_openblas(package, f"scipy_openblas_{verb}_num_threads{suffix}")
                    for verb in ("get", "set"))
        if get is not None and put is not None:
            restore[package.__name__] = (put, int(get()))
            put(1)
    try:
        yield set(restore)
    finally:
        for put, count in restore.values():
            put(count)


def _check_entries(where: str, given, default: dict, optional=()) -> None:
    """Check the keys of `given` against `default`, and each value by `_check_value`."""
    if not isinstance(given, dict):
        raise ValueError(f"{where}: expected an object, got {type(given).__name__}")
    problems = [f"{what} {', '.join(map(repr, sorted(keys)))}" for what, keys in (
        ("missing", set(default) - set(given) - set(optional)),
        ("unknown", set(given) - set(default))) if keys]
    if problems:
        raise ValueError(f"{where}: {'; '.join(problems)}")
    for key, value in given.items():
        _check_value(f"{where}.{key}", value, default[key])


def _check_value(where: str, value, want) -> None:
    """An integer where the default `want` is an int, a real number where it is a float
    (bool neither), a list of such where it is a list; dicts have their own checks."""
    if isinstance(want, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        for i, v in enumerate(value):
            _check_value(f"{where}[{i}]", v, want[0])
    elif isinstance(want, (int, float)) and (isinstance(value, bool) or not isinstance(
            value, numbers.Integral if isinstance(want, int) else numbers.Real)):
        kind = "an integer" if isinstance(want, int) else "a real number"
        raise ValueError(f"{where}: expected {kind}, got {value!r}")


def check_config(cfg) -> None:
    """Raise ValueError naming the path of a key that `cfg` lacks or its experiment's
    default config does not have, or of a value of another kind than the default's,
    in the top level, `params`, each `cases` entry or `tensor_check`.  A case may lack
    only keys that some default case lacks (its values are checked against the first
    default case with the key); rule and measure dicts are checked by `FiltrationSpec`
    and `measure_from_config`."""
    if not isinstance(cfg, dict) or "experiment" not in cfg:
        raise ValueError("config: missing 'experiment'")
    name = cfg["experiment"]
    default = default_config(name)
    _check_entries(f"{name} config", cfg, default)
    params, known = cfg["params"], default["params"]
    _check_entries(f"{name} params", params, known)
    if "tensor_check" in known:
        _check_entries(f"{name} params.tensor_check", params["tensor_check"],
                       known["tensor_check"])
    if "cases" in known:
        case_default = {k: v for case in reversed(known["cases"]) for k, v in case.items()}
        always = set.intersection(*(set(case) for case in known["cases"]))
        for i, case in enumerate(params["cases"]):
            _check_entries(f"{name} params.cases[{i}]", case, case_default,
                           set(case_default) - always)


def load_config(path) -> dict:
    """Read a JSON config file and check it with `check_config`."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {path}: line {exc.lineno}: {exc.msg}") from exc
    check_config(cfg)
    return cfg


def run_experiment(config: dict, out_dir=None, quiet: bool = False) -> int:
    """Check a config dict, run its experiment and return the exit code.

    The run, outputs included, holds the bundled OpenBLAS builds at one thread
    (`_one_blas_thread`), so its bytes do not depend on the thread count.

    Raises ValueError when the run asserted nothing, as a config with an empty
    loop list or no seeds does: a run that tests nothing cannot pass.
    """
    check_config(config)
    name = config["experiment"]
    with _one_blas_thread() as threads_set:
        rows, log, extra = RUNNERS[name](config)
        if not log.items:
            raise ValueError(f"{name}: the run made no assertions; "
                             "an empty loop list or n_seeds = 0 leaves nothing to check")
        if out_dir is not None:
            write_outputs(name, config, rows, log, extra, out_dir, threads_set)
    if not quiet:
        for a in log.items:
            status = "PASS" if a.passed else "FAIL"
            print(f"[{status}] {name}: {a.name} (observed {a.observed:.6g}, bound {a.bound:.6g})")
        print(f"{name}: {'all assertions passed' if log.all_pass else 'ASSERTION FAILURES'}")
    return 0 if log.all_pass else 1
