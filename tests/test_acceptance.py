"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import numpy as np

from splinelab import (
    AtomSet,
    FiltrationSpec,
    GramSystem,
    HybridMeasure,
    SplineSpace1D,
    TensorProjector,
    atom_quadrature,
    build_filtration,
    compile_masses,
    convergence_probe,
    covering_constant,
    covering_report,
    decay_profile,
    density_catalog,
    detect_v_sets,
    frozen_subspace,
    limit_dual_table,
    make_sequence,
    maximal_field,
    operator_norm_inf,
    sample_probe_points,
    verify_martingale_property,
    weak_series_total,
)
from splinelab.experiments import (
    _dense_tensor_norm_2d,
    _exact_weak_ratio,
)
from splinelab.maximal import hl_weak_type_ratio
from splinelab.projector import operator_norm_1d

from conftest import collocation_matrix


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def random_spaces(order, n_seeds=20, max_dim=256):
    """Seeded random nested partitions with dimensions up to max_dim."""
    out = []
    for seed in range(n_seeds):
        spec = FiltrationSpec(
            d=1,
            interval=(0.0, 1.0),
            n_levels=7,
            rules=[{"name": "random-atom-bisect", "p_split": 0.7,
                    "split_range": [0.35, 0.65], "base_atoms": 2}],
            seed=1000 + seed,
        )
        F = build_filtration(spec)
        space = SplineSpace1D(F.axes[0].level(7), order)
        assert space.dimension <= max_dim
        out.append(space)
    return out


def test_criterion_1_biorthogonality():
    worst = 0.0
    for k in (1, 2, 3, 4):
        for space in random_spaces(k):
            gs = GramSystem(space)
            rule = atom_quadrature(space.partition, k + 1)
            duals = gs.duals_at(rule.nodes.ravel())
            B = collocation_matrix(space, rule.nodes)
            M = (B * rule.weights.ravel()[:, None]).T @ duals.T
            worst = max(worst, float(np.abs(M - np.eye(space.dimension)).max()))
    _report(1, "biorthogonality", worst <= 1e-10,
            f"max |int N_i N*_j - delta_ij| = {worst:.3e} (bound 1e-10)")


def test_criterion_2_partition_of_unity():
    rng = np.random.default_rng(77)
    worst_sum, worst_neg = 0.0, 0.0
    for k in (1, 2, 3, 4):
        for space in random_spaces(k, n_seeds=5):
            xs = rng.uniform(1e-12, 1.0, 10_000)
            _, vals = space.eval_basis_many(xs)
            worst_sum = max(worst_sum, float(np.abs(vals.sum(axis=1) - 1.0).max()))
            worst_neg = min(worst_neg, float(vals.min()))
    ok = worst_sum <= 1e-12 and worst_neg >= -1e-14
    _report(2, "partition of unity", ok,
            f"max |sum - 1| = {worst_sum:.3e} (bound 1e-12), min value = {worst_neg:.3e}")


def _shadrin_filtration(seed, depth=10):
    spec = FiltrationSpec(
        d=1,
        interval=(0.0, 1.0),
        n_levels=depth,
        rules=[{"name": "uniform-bisect-all", "base_atoms": 3, "base_jitter": 0.5}],
        seed=2000 + seed,
    )
    return build_filtration(spec)


def test_criterion_3_uniform_boundedness():
    k1_err = 0.0
    for seed in range(20):
        F = _shadrin_filtration(seed, depth=6)
        for n in (1, 3, 6):
            gs = GramSystem(SplineSpace1D(F.axes[0].level(n), 1))
            k1_err = max(k1_err, abs(operator_norm_1d(gs) - 1.0))
    worst_spread = 0.0
    for k in (2, 3, 4):
        for seed in range(20):
            F = _shadrin_filtration(seed)
            norms = []
            for n in range(1, 11):
                gs = GramSystem(SplineSpace1D(F.axes[0].level(n), k))
                norms.append(operator_norm_1d(gs))
            norms = np.asarray(norms)
            worst_spread = max(worst_spread, float((norms.max() - norms.min()) / norms.max()))
    F2 = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=3,
                                         rules=[{"name": "uniform-bisect-all",
                                                 "base_atoms": 2, "base_jitter": 0.4}],
                                         seed=42))
    tensor_err = 0.0
    for orders in ((2, 2), (3, 2), (4, 3)):
        tp = TensorProjector.for_level(F2, 3, orders)
        est = operator_norm_inf(tp, nx_per_atom=6, ny_per_atom=6)
        direct = _dense_tensor_norm_2d(tp, nx=6, ny=6)
        tensor_err = max(tensor_err, abs(est.value - direct))
    ok = k1_err <= 1e-12 and worst_spread < 0.05 and tensor_err <= 1e-9
    _report(3, "uniform L1 boundedness", ok,
            f"k=1 norm error {k1_err:.2e} (1e-12); depth spread {worst_spread:.4f} (<0.05); "
            f"tensor vs product {tensor_err:.2e} (1e-9)")


def test_criterion_4_dual_geometric_decay():
    worst_q, worst_resid = 0.0, 0.0
    mono_ok = True
    for k in (1, 2, 3, 4):
        for space in random_spaces(k):
            prof = decay_profile(GramSystem(space))
            worst_q = max(worst_q, prof.q_hat)
            worst_resid = max(worst_resid, prof.fit_residual)
            for s in range(k, len(prof.values) - 1):
                if prof.values[s + 1] > prof.floor:
                    mono_ok &= prof.values[s + 1] <= prof.values[s] * (1 + 1e-9)
    ok = worst_q < 0.99 and mono_ok
    _report(4, "dual geometric decay", ok,
            f"max fitted q_hat = {worst_q:.4f} (< 0.99), profile monotone beyond k: {mono_ok}, "
            f"max fit residual (log scale, reported) = {worst_resid:.3f}")


def test_criterion_5_covering_bound_constant():
    rule = {"name": "random-atom-bisect", "p_split": 0.7,
            "split_range": [0.35, 0.65], "base_atoms": 2}
    worst = 0.0
    cases = [(1, 8), (2, 7)]
    for d, depth in cases:
        for s_i in range(30):
            seed = 3000 + s_i
            rng = np.random.default_rng(seed)
            F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0),
                                                n_levels=depth, rules=[dict(rule)] * d,
                                                seed=seed))
            c = float(rng.uniform(0.2, 1.5))
            diracs = [(rng.uniform(0.05, 0.95, d), float(rng.uniform(0.3, 2.0)))
                      for _ in range(int(rng.integers(1, 4)))]
            theta = HybridMeasure(
                d=d,
                density=lambda *g, c=c: np.broadcast_arrays(*g)[0] * 0.0 + c,
                diracs=diracs,
                density_quad_points=4,
            )
            masses = compile_masses(theta, F)
            shape_K = F.level_shape(2)
            start = tuple(int(rng.integers(0, s)) for s in shape_K)
            stop = tuple(int(rng.integers(a + 1, s + 1)) for a, s in zip(start, shape_K))
            members = frozenset(
                tuple(idx[ell] + start[ell] for ell in range(d))
                for idx in np.ndindex(*(b - a for a, b in zip(start, stop)))
            )
            B = AtomSet(level=2, members=members)
            for q in (0.3, 0.5, 0.8):
                field_ = maximal_field(q, masses, K=2)
                top = float(field_.values.max())
                t_grid = np.logspace(np.log10(top) - 3, np.log10(top) + 0.3, 20)
                rep = covering_report(field_, B, t_grid)
                worst = max(worst, rep.max_ratio)
                assert rep.violations == []
    _report(5, "covering bound with proof constant", worst <= 1.0,
            f"max LHS/RHS ratio over d in {{1,2}}, q in {{0.3,0.5,0.8}}, 30 seeds, "
            f"20-point t grids = {worst:.4f} (<= 1)")


def test_criterion_6_weak_type_constants():
    results = []
    for d, depth, orders in ((1, 8, (2,)), (2, 5, (2, 2))):
        F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=depth))
        shape = F.level_shape(depth)
        vols = F.atom_volumes(depth)
        rng = np.random.default_rng(600 + d)
        spikes = []
        for _ in range(6 if d == 1 else 4):
            idx = tuple(int(rng.integers(0, s)) for s in shape)
            spikes.append(F.atom_rectangle(depth, idx))
        # intrinsic maximal operator against the derived constant
        for q in (0.3, 0.5, 0.8):
            bound = covering_constant(q, d) * weak_series_total(q, d)
            for rect in spikes:
                theta = HybridMeasure(
                    d=d,
                    density=density_catalog("spike", d, lo=rect.lo, hi=rect.hi),
                    density_quad_points=4,
                )
                field_ = maximal_field(q, compile_masses(theta, F), K=1)
                ratio = _exact_weak_ratio(field_.values, vols)
                results.append(("M", d, q, ratio, bound, ratio <= bound))
        # maximal function of the projectors, constant from the measured decay
        tp_fine = TensorProjector.for_level(F, depth, orders)
        profs = [decay_profile(gs) for gs in tp_fine.grams]
        q_hat = max(pr.q_hat for pr in profs)
        c_k = (float(np.prod([max(pr.c_env, 1.0) for pr in profs]))
               * float(np.prod(orders)) * q_hat ** (-float(sum(orders))))
        bound_p = c_k * covering_constant(q_hat, d) * weak_series_total(q_hat, d)
        finest_parts = [s.partition for s in tp_fine.spaces]
        centers = [0.5 * (fp.breakpoints[:-1] + fp.breakpoints[1:]) for fp in finest_parts]
        grids = np.meshgrid(*centers, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        for rect in spikes:
            f = density_catalog("spike", d, lo=rect.lo, hi=rect.hi)
            sup_field = np.zeros(shape)
            for pn in make_sequence(F, f, orders, quad_points=max(orders)).splines:
                vals = np.linalg.norm(pn.eval_many(pts), axis=-1).reshape(shape)
                sup_field = np.maximum(sup_field, vals)
            ratio = _exact_weak_ratio(sup_field, vols)
            results.append(("supPn", d, q_hat, ratio, bound_p, ratio <= bound_p))
        if d == 1:
            part = F.axes[0].level(depth)
            t_grid = np.logspace(-2, 3, 50)
            for rect in spikes:
                f = density_catalog("spike", 1, lo=rect.lo, hi=rect.hi)
                ratio, _ = hl_weak_type_ratio(f, part, t_grid, g=4)
                results.append(("HL", 1, 0.0, ratio, 3.0, ratio <= 3.0 + 1e-12))
    ok = all(r[-1] for r in results)
    worst = {}
    for op, d, q, ratio, bound, _ in results:
        key = op
        worst[key] = max(worst.get(key, 0.0), ratio / bound)
    _report(6, "weak-type (1,1) constants", ok,
            "max ratio/bound by operator: "
            + ", ".join(f"{k}={v:.3f}" for k, v in sorted(worst.items())))


def test_criterion_7_martingale_property():
    worst = 0.0
    cases = []
    F1 = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    theta = HybridMeasure(
        d=1,
        density=lambda x: 1.0 + 0.5 * np.sin(4 * x),
        diracs=[(np.array([0.61]), np.array([0.5]))],
        density_quad_points=8,
    )
    cases.append((F1, theta, (2,)))
    cases.append((F1, lambda x: np.exp(-3 * x) * np.sin(6 * x), (3,)))
    cases.append((F1, HybridMeasure(d=1, diracs=[(np.array([0.37]), np.array([1.0]))]), (1,)))
    F2 = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=5))
    cases.append((F2, lambda x, y: np.sin(2 * x) * np.cos(y) + x, (2, 2)))
    theta2 = HybridMeasure(
        d=2,
        density=lambda x, y: 1.0 + x * y,
        diracs=[(np.array([0.3, 0.7]), np.array([1.0]))],
        density_quad_points=6,
    )
    cases.append((F2, theta2, (3, 2)))
    Fr = build_filtration(FiltrationSpec(
        d=1, interval=(0.0, 1.0), n_levels=7,
        rules=[{"name": "random-atom-bisect", "p_split": 0.7,
                "split_range": [0.35, 0.65], "base_atoms": 2}], seed=99))
    cases.append((Fr, lambda x: np.abs(x - 0.51) ** -0.4, (4,)))
    for F, source, orders in cases:
        seq = make_sequence(F, source, orders)
        worst = max(worst, verify_martingale_property(seq, n_probe=150, seed=11))
    _report(7, "martingale spline property", worst <= 1e-9,
            f"max sampled ||P_n g_n+1 - g_n|| = {worst:.3e} (bound 1e-9)")


def test_criterion_8_convergence_dense_and_hybrid():
    # smooth catalog on dense dyadic filtrations
    frac_ok = True
    worst_err = 0.0
    for d, orders in ((1, (2,)), (1, (3,)), (2, (2, 2)), (2, (3, 3))):
        F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=8))
        for fname in ("smooth-sine", "smooth-exp"):
            f = density_catalog(fname, d)
            tp = TensorProjector.for_level(F, 8, orders)
            pn = tp.project(f, g=4)
            pts = sample_probe_points(F, 500, seed=800 + d)
            vals = pn.eval_many(pts)[:, 0]
            ref = f(*[pts[:, ell] for ell in range(d)])
            err = np.abs(vals - ref)
            worst_err = max(worst_err, float(err.max()))
            frac_ok &= bool(np.all(err < 1e-3))
    # hybrid measure: trajectories converge to the density away from the Dirac
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    dens = lambda x: 1.0 + x ** 2
    x0 = 0.3
    theta = HybridMeasure(d=1, density=dens,
                          diracs=[(np.array([x0]), np.array([1.0]))],
                          density_quad_points=8)
    seq = make_sequence(F, theta, (2,))
    pts = sample_probe_points(F, 500, seed=801, exclude=[([x0], 16 / 2 ** 8)])
    probe = convergence_probe(seq, reference=dens, points=pts, final_tol=1e-3)
    hybrid_ok = probe.fraction_below_tol == 1.0
    # Dirac-part decay slope against the measured dual decay rate
    space_fine = SplineSpace1D(F.axes[0].level(8), 2)
    prof = decay_profile(GramSystem(space_fine))
    sing = HybridMeasure(d=1, diracs=[(np.array([x0]), np.array([1.0]))])
    sub = pts[:40]
    slopes = []
    from splinelab import atom_of

    for j in range(len(sub)):
        svals, scaled = [], []
        for n in range(1, 9):
            tp = TensorProjector.for_level(F, n, (2,))
            val = float(np.linalg.norm(tp.project(sing).eval_many([sub[j]])[0]))
            i_x0, _ = atom_of(F, n, [x0])
            i_y, _ = atom_of(F, n, sub[j])
            s = abs(i_x0[0] - i_y[0])
            bp = F.axes[0].level(n).breakpoints
            conv = bp[max(i_x0[0], i_y[0]) + 1] - bp[min(i_x0[0], i_y[0])]
            if val * conv > 1e-250:
                svals.append(s)
                scaled.append(val * conv)
        if len(svals) >= 3 and svals[-1] > svals[0]:
            slopes.append(np.polyfit(np.asarray(svals, float), np.log(scaled), 1)[0])
    slope = float(np.median(slopes))
    target = float(np.log(prof.q_hat))
    slope_ok = abs(slope - target) <= 0.2 * abs(target)
    ok = frac_ok and hybrid_ok and slope_ok
    _report(8, "pointwise convergence", ok,
            f"smooth max error at depth 8 = {worst_err:.2e} (<1e-3, all 500 probes); "
            f"hybrid fraction below tol = {probe.fraction_below_tol:.3f}; "
            f"dirac log-slope {slope:.3f} vs log q_hat {target:.3f} (within 20%)")


def test_criterion_9_nondense_limits():
    worst_delta, worst_gap = 0.0, 0.0
    # d = 1: limit duals and sequence limit on the frozen interval
    for d in (1, 2):
        rules = [{"name": "frozen-on-subinterval", "frozen": [0.5, 1.0], "fraction": 0.9}]
        if d == 2:
            rules.append({"name": "uniform-bisect-all"})
        F1 = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=10,
                                             rules=[rules[0]]))
        V = detect_v_sets(F1.axes[0], 0.25)[0]
        probes1 = np.linspace(0.52, 0.99, 16)
        table = limit_dual_table(F1.axes[0], V, 2, probes1)  # one frozen atom, k = 2: r = 0, 1
        worst_delta = max(worst_delta, float(table.deltas[-1].max()))
        worst_gap = max(worst_gap, float(table.oracle_gap.max()))
        seq_depth = 10 if d == 1 else 7
        F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0),
                                            n_levels=seq_depth, rules=rules))
        f = density_catalog("smooth-exp", d)
        seq = make_sequence(F, f, (2,) * d, quad_points=10)
        limit_space = frozen_subspace(F.axes[0], V, 2)
        spaces = [limit_space] + [SplineSpace1D(F.axes[ell].level(seq_depth), 2)
                                  for ell in range(1, d)]
        oracle = TensorProjector(spaces).project(f, g=10)
        rng = np.random.default_rng(900 + d)
        pts = np.column_stack([probes1] +
                              [rng.uniform(0.05, 0.95, len(probes1)) for _ in range(d - 1)])
        gap = float(np.max(np.abs(seq.level(seq_depth).eval_many(pts)
                                  - oracle.eval_many(pts))))
        worst_gap = max(worst_gap, gap)
        # the sequence has stabilized on the frozen atoms: Cauchy tail there
        tail = float(np.max(np.abs(seq.level(seq_depth).eval_many(pts)
                                   - seq.level(seq_depth - 1).eval_many(pts))))
        if d == 1:
            worst_gap = max(worst_gap, tail)
    ok = worst_delta <= 1e-8 and worst_gap <= 1e-6
    _report(9, "non-dense filtration limits", ok,
            f"max limit-dual Cauchy delta at depth 10 = {worst_delta:.3e} (1e-8); "
            f"max frozen-region limit gap = {worst_gap:.3e} (1e-6)")


def test_criterion_10_determinism(tmp_path):
    from splinelab.experiments import EXPERIMENT_NAMES, run_experiment
    from test_experiments import small_config

    mismatched = []
    for name in EXPERIMENT_NAMES:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        cfg = small_config(name)
        run_experiment(cfg, out_dir=out_a, quiet=True)
        run_experiment(cfg, out_dir=out_b, quiet=True)
        for suffix in (".csv", ".summary.json"):
            if ((out_a / f"{name}{suffix}").read_bytes()
                    != (out_b / f"{name}{suffix}").read_bytes()):
                mismatched.append(name + suffix)
    _report(10, "determinism", not mismatched,
            "byte-identical CSV and summary JSON for all experiments"
            + (f"; mismatches: {mismatched}" if mismatched else ""))
