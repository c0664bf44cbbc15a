import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded

from splinelab import (
    FiltrationSpec,
    HybridMeasure,
    Partition1D,
    SplineSpace1D,
    TensorProjector,
    TensorSpline,
    atom_quadrature,
    basis_moments,
    build_filtration,
    decay_profile,
    operator_norm_inf,
)
from splinelab.experiments import _dense_tensor_norm_2d
from splinelab.bspline import CONTRACT_BLOCK_POINTS, _basis_columns, atom_chebyshev
from splinelab import measures, projector
from splinelab.projector import (
    NORM_EDGE_TOL,
    NORM_SAMPLES_PER_ATOM,
    SOLVE_BLOCK_ATOMS,
    GramSystem,
    _kernel_blocks,
    operator_norm_1d,
)

from conftest import (
    add_at_gram_band,
    collocation_matrix,
    dense_dual_matrix,
    dense_gram,
    dense_moments,
    dense_operator_norm_1d,
    dense_spline_projection,
    full_length_duals,
    graded_filtration,
    jittered_partition,
    nested_loop_gram_band,
    node_grid_values,
    restricted_projection,
    per_atom_decay_profile,
    per_block_operator_norm_1d,
    random_filtration,
    whole_array_spline_projection,
)


def test_gram_k1_diagonal_of_atom_lengths():
    gs = GramSystem(SplineSpace1D(Partition1D([0.0, 0.3, 0.7, 1.0]), 1))
    np.testing.assert_allclose(dense_gram(gs), np.diag([0.3, 0.4, 0.3]), atol=1e-15)


def test_gram_k2_uniform_interior_row():
    h = 0.25
    gs = GramSystem(SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2))
    G = dense_gram(gs)
    np.testing.assert_allclose(G[2, 1:4], [h / 6, 2 * h / 3, h / 6], atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_gram_row_sums_are_basis_integrals(k):
    for part in (random_filtration(1, n_levels=5).axes[0].level(5),
                 graded_filtration(1).axes[0].level(34)):
        space = SplineSpace1D(part, k)
        gs = GramSystem(space)
        want = basis_moments(np.ones_like, [space], k)[:, 0]
        np.testing.assert_allclose(dense_gram(gs) @ np.ones(space.dimension), want, atol=1e-14)
        # the slice sums of the band make the np.add.at scatter's sums in its order
        assert np.array_equal(gs.band, add_at_gram_band(space))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_gram_band_diagonals_scatter_as_the_nested_loop(k):
    # one scatter per band diagonal adds every entry's atom terms in the nested (r, c)
    # loop's order, bit for bit, on jittered uniform, random and point-targeted meshes
    rules = ({"name": "uniform-bisect-all", "base_atoms": 3, "base_jitter": 0.5},
             {"name": "random-atom-bisect", "p_split": 0.7, "split_range": [0.35, 0.65],
              "base_atoms": 2},
             {"name": "point-targeted", "target": 0.37})
    for seed, rule in itertools.product((0, 1), rules):
        depth = 30 if rule["name"] == "point-targeted" else 7
        ax = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=depth,
                                             rules=[rule], seed=seed)).axes[0]
        for n in (1, 2, depth // 2, depth):
            space = SplineSpace1D(ax.level(n), k)
            assert np.array_equal(GramSystem(space).band, nested_loop_gram_band(space)), (rule, n)


def test_dual_k1_is_scaled_indicator():
    space = SplineSpace1D(Partition1D([0.0, 0.25, 1.0]), 1)
    gs = GramSystem(space)
    D = gs.duals_at(np.array([0.1, 0.9]))
    assert D[0, 0] == pytest.approx(4.0)
    assert D[1, 0] == 0.0
    assert D[1, 1] == pytest.approx(1.0 / 0.75)


def test_dual_biorthogonality_by_quadrature():
    # integral of N_i N*_j recomputed through dual point values, not G^-1 G
    for k in (2, 3, 4):
        F = random_filtration(k, n_levels=6)
        space = SplineSpace1D(F.axes[0].level(6), k)
        gs = GramSystem(space)
        rule = atom_quadrature(space.partition, k + 1)
        duals = gs.duals_at(rule.nodes.ravel())          # (dim, P)
        B = collocation_matrix(space, rule.nodes)        # (P, dim)
        M = (B * rule.weights.ravel()[:, None]).T @ duals.T
        err = np.abs(M - np.eye(space.dimension)).max()
        assert err <= 1e-10


def test_dual_matches_dense_inverse_oracle():
    for k in (2, 3):
        space = SplineSpace1D(Partition1D(np.linspace(0, 1, 9)), k)
        gs = GramSystem(space)
        Ginv = dense_dual_matrix(gs)
        xs = np.random.default_rng(0).uniform(1e-9, 1, 31)
        B = collocation_matrix(space, xs)
        want = Ginv @ B.T
        got = gs.duals_at(xs)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_degenerate_partition_raises():
    bad = Partition1D([0.0, 1e-320, 1.0])  # far below any sane width floor
    with pytest.raises(ValueError, match="degenerate"):
        GramSystem(SplineSpace1D(bad, 2))


@pytest.mark.parametrize("row, col, entry", [(0, 5, np.nan), (2, 3, np.inf), (2, 4, -1.0)])
def test_gram_factorization_fails_closed(row, col, entry, monkeypatch):
    # a NaN or an inf entry fails the finite check, a negative pivot fails dpbtrf
    # (info > 0); the constructor raises, the projector built on it too, and the band
    # handed in is left as it was
    space = SplineSpace1D(Partition1D(np.linspace(0.0, 1.0, 9)), 3)
    band = projector._assemble_gram_band(space)
    band[row, col] = entry
    kept = band.copy()
    monkeypatch.setattr(projector, "_assemble_gram_band", lambda s: band)
    for build in (GramSystem, lambda s: TensorProjector([s, s])):
        with pytest.raises(ValueError, match="^Gram factorization failed; the partition has "
                                             "a degenerate atom$"):
            build(space)
    assert np.array_equal(band, kept, equal_nan=True)


def test_import_loads_no_scipy_linalg():
    # projector takes dpbtrf and dtbtrs from scipy's compiled LAPACK wrappers, whose
    # package scipy.linalg (and with it numpy.f2py) a fresh interpreter never imports;
    # importing scipy.linalg afterwards finds the same routines
    heavy = ["scipy.linalg", "scipy._lib._array_api", "numpy.f2py"]
    code = ("import sys\nimport splinelab, splinelab.experiments, splinelab.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
            "import scipy.linalg.lapack\nfrom splinelab import projector as p\n"
            "print(p.dpbtrf is scipy.linalg.lapack.dpbtrf, p.dtbtrs is scipy.linalg.lapack.dtbtrs)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "True True"]


def test_gram_factor_is_cholesky_banded():
    # the same LAPACK routines as scipy.linalg, from the same module: the factor equals
    # cholesky_banded's bit for bit and dtbtrs is scipy.linalg.lapack's own object
    rng = np.random.default_rng(7)
    parts = [random_filtration(int(rng.integers(2 ** 16)), n_levels=7).axes[0].level(7),
             _graded_partition(0.0), _graded_partition(0.37)]
    for part, k in itertools.product(parts, range(1, 7)):
        gs = GramSystem(SplineSpace1D(part, k))
        assert np.array_equal(gs._chol, scipy.linalg.cholesky_banded(gs.band, lower=False))
    assert projector.dtbtrs is scipy.linalg.lapack.dtbtrs
    assert projector.dpbtrf is scipy.linalg.lapack.dpbtrf


def test_project_reproduces_splines():
    F = random_filtration(2, d=2, n_levels=4)
    tp = TensorProjector.for_level(F, 3, (2, 3))
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=tuple(tp.dims))
    ts = TensorSpline(tp.spaces, coeffs)
    back = tp.project(ts)
    pts = rng.uniform(1e-6, 1, (200, 2))
    np.testing.assert_allclose(back.eval_many(pts), ts.eval_many(pts), atol=1e-10)


# P of a spline source against the dense oracle, and against the callable route on
# ungraded meshes, relative to the largest coefficient: each integrates exactly with the
# same nodes, and they differ in the order of their sums (up to 2.2e-13 seen, d = 3 graded)
SPLINE_PROJECTION_RTOL = 1e-12


def assert_close_coefficients(got, want, label=""):
    """Coefficients equal to SPLINE_PROJECTION_RTOL times the largest of `want`."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=SPLINE_PROJECTION_RTOL * np.abs(want).max(), err_msg=label)


def _common_refinement_route(tp, ts):
    """P ts by projecting ts as a callable, with g the largest order, on the
    per-axis union of both breakpoint sets: the same exact quadrature, taken
    through the node grid, the basis moments and their restriction."""
    g = max(max(tp.orders), max(s.order for s in ts.spaces))
    quad = [Partition1D(np.union1d(mine.partition.breakpoints, theirs.partition.breakpoints))
            for mine, theirs in zip(tp.spaces, ts.spaces)]
    return restricted_projection(tp, lambda *grids: ts.eval_grid([np.ravel(a) for a in grids]),
                                 quad, g)


def test_project_of_a_coarser_spline_is_the_callable_route():
    F = random_filtration(11, d=2, n_levels=5)
    rng = np.random.default_rng(12)
    coarse = TensorProjector.for_level(F, 2, (3, 3))
    ts = TensorSpline(coarse.spaces, rng.normal(size=coarse.dims + (2,)))
    tp = TensorProjector.for_level(F, 4, (2, 3))
    got = tp.project(ts).coeffs
    assert_close_coefficients(got, _common_refinement_route(tp, ts).coeffs)
    assert_close_coefficients(got, dense_spline_projection(tp, ts))


def _spline_projection_cases(d):
    """(label, source level's axes, target level's axes) pairs: coarser to finer, finer to
    coarser, non-nested meshes, and both directions on meshes graded to the 1e-9 floor."""
    n = 5 if d < 3 else 3
    A, B = random_filtration(3, d=d, n_levels=n), random_filtration(4, d=d, n_levels=n)
    G = graded_filtration(d)
    fine, mid = G.n_levels, (20 if d < 3 else 26)
    levels = {"coarser to finer": (A, 2, A, n), "finer to coarser": (A, n, A, 2),
              "non-nested": (A, n, B, n - 1), "graded, coarser to finer": (G, mid, G, fine),
              "graded, finer to coarser": (G, fine, G, mid)}
    return {label: ([ax.level(ns) for ax in Fs.axes], [ax.level(nt) for ax in Ft.axes])
            for label, (Fs, ns, Ft, nt) in levels.items()}


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spline_projection_matches_dense_oracle(d, m):
    # orders 1-6 on both sides: every pair in d = 1, six shifted tuples per case above
    rng = np.random.default_rng(10 * d + m)
    if d == 1:
        pairs = [((ks,), (kt,)) for ks in range(1, 7) for kt in range(1, 7)]
    else:
        pairs = [(tuple((s + ell) % 6 + 1 for ell in range(d)),
                  tuple((s + 3 + 2 * ell) % 6 + 1 for ell in range(d))) for s in range(6)]
    for label, (source_parts, target_parts) in _spline_projection_cases(d).items():
        for source_orders, target_orders in pairs:
            spaces = [SplineSpace1D(p, k) for p, k in zip(source_parts, source_orders)]
            dims = tuple(s.dimension for s in spaces)
            ts = TensorSpline(spaces, rng.normal(size=dims if m == 1 else dims + (m,)))
            tp = TensorProjector([SplineSpace1D(p, k) for p, k in zip(target_parts, target_orders)])
            got = tp.project(ts)
            assert got.coeffs.shape == tp.dims + (m,)
            assert_close_coefficients(got.coeffs, dense_spline_projection(tp, ts),
                                      f"{label}, orders {source_orders} -> {target_orders}")


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_streamed_spline_projection_bit_exact_against_whole_array_oracle(d, m):
    # orders 1-4, mixed across axes, from a fine mesh onto its every-other-breakpoint
    # coarsening, the reverse, and onto an unrelated mesh of the same interval; axis 0
    # has 400 atoms, so its nodes span 4 to 25 blocks of CONTRACT_BLOCK_POINTS
    rng = np.random.default_rng(20 + 10 * d + m)
    atoms = (400, 12, 6)[:d]
    assert atoms[0] > 3 * CONTRACT_BLOCK_POINTS
    fine = [jittered_partition(rng, n) for n in atoms]
    coarse = [Partition1D(p.breakpoints[::2]) for p in fine]
    other = [jittered_partition(rng, n - 3) for n in atoms]
    if d == 1:
        pairs = [((ks,), (kt,)) for ks in range(1, 5) for kt in range(1, 5)]
    else:
        pairs = [(tuple((s + ell) % 4 + 1 for ell in range(d)),
                  tuple((s + 1 + 2 * ell) % 4 + 1 for ell in range(d))) for s in range(4)]
    for label, (source, target) in {"nested, finer to coarser": (fine, coarse),
                                     "nested, coarser to finer": (coarse, fine),
                                     "non-nested": (fine, other)}.items():
        for source_orders, target_orders in pairs:
            spaces = [SplineSpace1D(p, k) for p, k in zip(source, source_orders)]
            ts = TensorSpline(spaces, rng.normal(size=tuple(s.dimension for s in spaces) + (m,)))
            tp = TensorProjector([SplineSpace1D(p, k) for p, k in zip(target, target_orders)])
            np.testing.assert_array_equal(tp.project(ts).coeffs,
                                          whole_array_spline_projection(tp, ts),
                                          err_msg=f"{label}, {source_orders} -> {target_orders}")


def test_spline_projection_holds_one_block_of_nodes():
    # P_8 g_9 in d = 2, orders (3, 3), 512 x 512 atoms: axis 0 has 1,536 nodes and 514
    # columns, so one whole (nodes x columns) array would take 6.3 MB; blocks of
    # CONTRACT_BLOCK_POINTS nodes keep the peak near the first axis's output and the result
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=9))
    fine = TensorProjector.for_level(F, 9, (3, 3))
    coarse = TensorProjector.for_level(F, 8, (3, 3))
    ts = TensorSpline(fine.spaces, np.random.default_rng(9).normal(size=fine.dims))
    tracemalloc.start()
    try:
        got = coarse.project(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.coeffs.shape == coarse.dims + (1,)
    assert peak < ts.coeffs.nbytes + got.coeffs.nbytes + 2_000_000


def test_project_of_a_spline_builds_no_node_grid(monkeypatch):
    # the spline route collocates per axis: no tensor-grid evaluation, no basis
    # reduction of a node grid, no knot-insertion map
    F = random_filtration(11, d=2, n_levels=5)
    ts = TensorProjector.for_level(F, 5, (3, 2)).project(lambda x, y: np.sin(x + 2 * y))

    def forbidden(*args, **kwargs):
        raise AssertionError("the node-grid route was taken")

    monkeypatch.setattr(TensorSpline, "eval_grid", forbidden)
    monkeypatch.setattr(measures, "basis_moments", forbidden)
    monkeypatch.setattr(SplineSpace1D, "refinement", forbidden)
    tp = TensorProjector.for_level(F, 3, (2, 3))
    assert tp.project(ts).coeffs.shape == tp.dims + (1,)


def test_project_of_a_spline_rejects_other_dimensions_and_intervals():
    F1 = random_filtration(5, d=1, n_levels=3)
    F2 = random_filtration(5, d=2, n_levels=3)
    tp1, tp2 = TensorProjector.for_level(F1, 2, 2), TensorProjector.for_level(F2, 2, 2)
    flat = TensorSpline(tp1.spaces, np.ones(tp1.dims))
    square = TensorSpline(tp2.spaces, np.ones(tp2.dims))
    with pytest.raises(ValueError, match="2-dimensional spline .* onto a 1-dimensional space"):
        tp1.project(square)
    with pytest.raises(ValueError, match="1-dimensional spline .* onto a 2-dimensional space"):
        tp2.project(flat)
    wide = SplineSpace1D(Partition1D([0.0, 0.5, 2.0]), 2)
    with pytest.raises(ValueError, match=r"axis 1: the spline lives on \(0.0, 2.0\], "
                                         r"the projector on \(0.0, 1.0\]"):
        tp2.project(TensorSpline([tp2.spaces[0], wide], np.ones((tp2.dims[0], 3))))


def test_project_rejects_options_it_would_ignore(dyadic_1d):
    tp = TensorProjector.for_level(dyadic_1d, 2, 2)
    ts = tp.project(lambda x: x)
    theta = HybridMeasure(d=1, density=lambda x: x)
    with pytest.raises(ValueError, match="HybridMeasure source .* takes no g"):
        tp.project(theta, g=4)
    with pytest.raises(ValueError, match="TensorSpline source .* takes no g"):
        tp.project(ts, g=4)


def test_project_k1_is_atomwise_average(dyadic_1d):
    tp = TensorProjector.for_level(dyadic_1d, 1, 1)
    ts = tp.project(lambda x: x, g=4)
    np.testing.assert_allclose(ts.coeffs.ravel(), [0.25, 0.75], atol=1e-15)


def test_projection_idempotent():
    F = random_filtration(5, n_levels=5)
    tp = TensorProjector.for_level(F, 5, 3)
    f = lambda x: np.sin(3 * x) + x ** 2
    once = tp.project(f, g=8)
    twice = tp.project(once)
    pts = np.random.default_rng(1).uniform(1e-6, 1, 300)
    np.testing.assert_allclose(
        twice.eval_many(pts[:, None]), once.eval_many(pts[:, None]), atol=1e-10
    )


def test_projector_self_adjoint():
    F = random_filtration(6, n_levels=4)
    tp = TensorProjector.for_level(F, 4, 2)
    rng = np.random.default_rng(3)
    f = lambda x: np.sin(2 * np.pi * x)
    g_ = lambda x: np.exp(x)
    rule = atom_quadrature(tp.spaces[0].partition, 12)
    xs, w = rule.nodes.ravel(), rule.weights.ravel()
    Pf = tp.project(f, g=12).eval_many(xs[:, None])[:, 0]
    Pg = tp.project(g_, g=12).eval_many(xs[:, None])[:, 0]
    lhs = float((w * Pf * g_(xs)).sum())
    rhs = float((w * f(xs) * Pg).sum())
    assert abs(lhs - rhs) <= 1e-10


def test_nested_projection_identity():
    # P_n P_m = P_n for n <= m: project a deep-level projection back down
    F = random_filtration(8, n_levels=6)
    f = lambda x: np.cos(2.3 * x) + 0.5 * x
    tp_deep = TensorProjector.for_level(F, 6, 3)
    tp_coarse = TensorProjector.for_level(F, 2, 3)
    pm = tp_deep.project(f, g=10)
    pn_pm = tp_coarse.project(pm)
    pn = restricted_projection(tp_coarse, f, [F.axes[0].level(6)], 10)
    pts = np.random.default_rng(4).uniform(1e-6, 1, 400)[:, None]
    np.testing.assert_allclose(pn_pm.eval_many(pts), pn.eval_many(pts), atol=1e-9)
    # a spline source from a finer level is the callable route and the dense oracle
    assert_close_coefficients(pn_pm.coeffs, _common_refinement_route(tp_coarse, pm).coeffs)
    assert_close_coefficients(pn_pm.coeffs, dense_spline_projection(tp_coarse, pm))


def test_kronecker_consistency_small_2d():
    # the 2-D case plus one 3-D input, each against a dense Kronecker Gram solve
    cases = [
        (2, (2, 2), lambda x, y: np.sin(2 * x + 0.3) * np.cos(1.7 * y) + x * y),
        (3, (2, 3, 1), lambda x, y, z: np.sin(2 * x + 0.3) * np.cos(1.7 * y) + x * y * z),
    ]
    for d, orders, f in cases:
        F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=3))
        tp = TensorProjector.for_level(F, 3, orders)
        ts = tp.project(f, g=6)
        # oracle: dense Kronecker Gram solve
        G = functools.reduce(np.kron, [dense_gram(gs) for gs in tp.grams])
        parts = [s.partition for s in tp.spaces]
        b = dense_moments(parts, 6, tp.spaces, node_grid_values(parts, 6, f))[..., 0]
        c = np.linalg.solve(G, b.ravel()).reshape(b.shape)
        np.testing.assert_allclose(ts.coeffs[..., 0], c, atol=1e-10)


def test_project_density_measure_matches_function():
    F = random_filtration(9, n_levels=4)
    tp = TensorProjector.for_level(F, 4, 2)
    f = lambda x: 1.0 + 0.5 * np.cos(x)
    theta = HybridMeasure(d=1, density=f, density_quad_points=16)
    a = tp.project(theta)
    b = tp.project(f, g=16)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_project_dirac_k1(dyadic_1d):
    tp = TensorProjector.for_level(dyadic_1d, 2, 1)
    theta = HybridMeasure(d=1, diracs=[(np.array([0.3]), np.array([1.0]))])
    ts = tp.project(theta)
    want = np.zeros(4)
    want[1] = 4.0  # 1 / |atom| on the atom containing 0.3
    np.testing.assert_allclose(ts.coeffs.ravel(), want, atol=1e-14)


def test_project_dirac_outside_domain(dyadic_1d):
    tp = TensorProjector.for_level(dyadic_1d, 2, 1)
    theta = HybridMeasure(d=1, diracs=[(np.array([1.3]), np.array([1.0]))])
    with pytest.raises(ValueError):
        tp.project(theta)


def test_non_finite_integrand_rejected(dyadic_1d):
    tp = TensorProjector.for_level(dyadic_1d, 3, 2)
    with pytest.raises(ValueError, match="non-finite"):
        tp.project(lambda x: np.where(x > 0.5, np.inf, x))


def test_project_dirac_decay_matches_dense_oracle():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=5))
    tp = TensorProjector.for_level(F, 5, 2)
    x0 = 0.3017
    theta = HybridMeasure(d=1, diracs=[(np.array([x0]), np.array([1.0]))])
    ts = tp.project(theta)
    space = tp.spaces[0]
    Ginv = dense_dual_matrix(tp.grams[0])
    first, vals = space.eval_basis_many([x0])
    nvec = np.zeros(space.dimension)
    nvec[first[0] : first[0] + 2] = vals[0]
    want = Ginv @ nvec
    np.testing.assert_allclose(ts.coeffs.ravel(), want, atol=1e-12)
    ys = np.random.default_rng(0).uniform(1e-9, 1, 64)
    got = ts.eval_many(ys[:, None])[:, 0]
    ref = collocation_matrix(space, ys) @ want
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_operator_norm_k1_exactly_one():
    for seed in range(3):
        F = random_filtration(seed, n_levels=6)
        tp = TensorProjector.for_level(F, 6, 1)
        est = operator_norm_inf(tp)
        assert abs(est.value - 1.0) <= 1e-12


def test_operator_norm_tensor_is_product():
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=3))
    tp = TensorProjector.for_level(F, 3, (2, 3))
    est = operator_norm_inf(tp, nx_per_atom=6, ny_per_atom=6)
    assert est.value == pytest.approx(est.per_axis[0] * est.per_axis[1], rel=1e-14)
    direct = _dense_tensor_norm_2d(tp, nx=6, ny=6)
    assert abs(est.value - direct) <= 1e-9


def test_operator_norm_window_truncation_consistent():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=6))
    space = SplineSpace1D(F.axes[0].level(6), 2)
    gs = GramSystem(space)
    full = operator_norm_1d(gs, window=10_000)
    windowed = operator_norm_1d(gs, window=48)
    assert abs(full - windowed) <= 1e-12


def test_decay_profile_k1_is_degenerate():
    F = random_filtration(0, n_levels=4)
    gs = GramSystem(SplineSpace1D(F.axes[0].level(4), 1))
    prof = decay_profile(gs)
    assert prof.q_hat == 0.0
    assert np.all(prof.values[1:] == 0.0)


def test_decay_profile_k2_uniform_ratio():
    # tridiagonal inverse decay ratio for uniform hats is 2 - sqrt(3)
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 33)), 2)
    prof = decay_profile(GramSystem(space))
    assert prof.q_hat < 1.0
    assert abs(prof.q_hat - (2 - np.sqrt(3))) < 0.05
    assert prof.values[0] > 0


def test_decay_profile_envelope_dominates():
    for seed in range(5):
        F = random_filtration(seed, n_levels=6)
        for k in (2, 3, 4):
            space = SplineSpace1D(F.axes[0].level(6), k)
            prof = decay_profile(GramSystem(space))
            assert prof.q_hat < 0.99
            good = prof.values > prof.floor
            assert np.all(
                prof.values[good] <= prof.envelope(prof.distances[good]) * (1 + 1e-12)
            )


def test_decay_profile_monotone_beyond_k():
    for seed in range(20):
        F = random_filtration(seed, n_levels=6)
        for k in (2, 3):
            space = SplineSpace1D(F.axes[0].level(6), k)
            prof = decay_profile(GramSystem(space))
            vals = prof.values
            for s in range(k, len(vals) - 1):
                if vals[s + 1] > prof.floor:
                    assert vals[s + 1] <= vals[s] * (1 + 1e-9)


def test_decay_profile_needs_room():
    space = SplineSpace1D(Partition1D([0.0, 1.0]), 3)
    with pytest.raises(ValueError):
        decay_profile(GramSystem(space))


def test_decay_q_hat_below_one_fifty_seeds():
    # 50 seeded random nested partitions, every order up to 4
    for seed in range(50):
        F = random_filtration(100 + seed, n_levels=6)
        for k in (1, 2, 3, 4):
            space = SplineSpace1D(F.axes[0].level(6), k)
            prof = decay_profile(GramSystem(space))
            assert prof.q_hat < 1.0


def _graded_partition(target, n_levels=34):
    """Bisection toward `target` until the atoms reach the 1e-9 width floor."""
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=n_levels,
                                        rules=[{"name": "point-targeted", "target": target}]))
    return F.axes[0].level(n_levels)


def _record_windows(gs):
    """Wrap gs.solve so that each call appends its row range (lo, hi) to the returned list."""
    solve, windows = gs.solve, []

    def recording_solve(rhs, lo, hi):
        windows.append((lo, hi))
        return solve(rhs, lo, hi)

    gs.solve = recording_solve
    return windows


def _geometric_partition(ratio, n_atoms):
    """Atom widths growing by `ratio` from left to right."""
    bp = np.concatenate([[0.0], np.cumsum(ratio ** np.arange(n_atoms))])
    return Partition1D(bp / bp[-1])


def _check_kernel_columns(part, k):
    """Block dual values against the dense inverse; returns whether a window widened."""
    gs = GramSystem(SplineSpace1D(part, k))
    Ginv = dense_dual_matrix(gs)
    dim, n_atoms = gs.dimension, part.n_atoms
    first, vals = gs.space.eval_basis_many(atom_chebyshev(part, NORM_SAMPLES_PER_ATOM).ravel())
    solves = _record_windows(gs)
    widened = False
    blocks = _kernel_blocks(gs, NORM_SAMPLES_PER_ATOM)
    for b, (a0, a1, D, lo) in enumerate(blocks):
        assert (a0, a1) == (b * SOLVE_BLOCK_ATOMS, min((b + 1) * SOLVE_BLOCK_ATOMS, n_atoms))
        hi = lo + len(D)
        assert solves[-1] == (lo, hi)
        widened |= len(solves) > 1
        solves.clear()
        cols = np.arange(a0, a1 + k - 1)
        xs = slice(a0 * NORM_SAMPLES_PER_ATOM, a1 * NORM_SAMPLES_PER_ATOM)
        X = _basis_columns(first[xs], vals[xs], a0, a1 + k - 1)
        assert np.max(np.abs(D - Ginv[lo:hi, cols] @ X)) <= 1e-13 * np.abs(Ginv).max()
        # the rows left out carry kernel mass below the tolerance: checked on a
        # full-length solve, whose small entries keep their relative accuracy
        full = GramSystem.solve(gs, np.eye(dim)[:, cols]) @ X
        out = np.r_[0:lo, hi:dim]
        bp = part.breakpoints
        supp = bp[np.minimum(out, n_atoms - 1) + 1] - bp[np.maximum(out - k + 1, 0)]
        assert np.all(np.abs(full[out]).max(axis=1, initial=0.0) * supp <= NORM_EDGE_TOL)
    assert b == -(-n_atoms // SOLVE_BLOCK_ATOMS) - 1
    return widened


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_kernel_columns_match_dense_inverse(seed):
    # orders 2-6 on a 256-atom random mesh, where the windows are interior,
    # and on a mesh graded to the width floor, where one window spans it
    rng = np.random.default_rng(seed)
    parts = [random_filtration(seed, n_levels=7, p_split=1.0).axes[0].level(7),
             _graded_partition(float(rng.uniform(0, 1)))]
    assert min(parts[1].widths) < 2e-9
    for part, k in itertools.product(parts, (2, 3, 4, 5, 6)):
        _check_kernel_columns(part, k)


def test_kernel_columns_widen_on_a_geometric_mesh():
    # widths growing by 20% per atom slow the decay toward the wide end
    # beyond what the start radius allows for at order 4
    assert _check_kernel_columns(_geometric_partition(1.2, 101), 4)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_duals_at_bit_exact_against_full_length_solve(seed):
    # orders 1-5 on a random and a floor-graded mesh; point sets whose smallest
    # first active index f0 is 0, a mid-range index and dim - k, breakpoints included
    rng = np.random.default_rng(seed)
    parts = [random_filtration(seed, n_levels=6).axes[0].level(6),
             _graded_partition(float(rng.uniform(0, 1)))]
    assert min(parts[1].widths) < 2e-9
    for part, k in itertools.product(parts, (1, 2, 3, 4, 5)):
        space = SplineSpace1D(part, k)
        gs = GramSystem(space)
        bp = part.breakpoints
        n_atoms = part.n_atoms
        for a_lo in (0, int(rng.integers(1, n_atoms - 1)), n_atoms - 1):
            atoms = rng.integers(a_lo, n_atoms, 40)
            interior = bp[atoms] + (bp[atoms + 1] - bp[atoms]) * rng.uniform(0.05, 0.95, 40)
            xs = np.concatenate([[bp[a_lo] + 0.5 * (bp[a_lo + 1] - bp[a_lo])], interior,
                                 bp[a_lo + 1:]])
            # with clamped knots the first active basis on atom a is a
            assert space.eval_basis_many(xs)[0].min() == a_lo
            assert np.array_equal(gs.duals_at(xs), full_length_duals(gs, xs))
            # the same trimmed solve serves right-hand sides with trailing axes
            rhs = rng.standard_normal((space.dimension, 3, 2))
            rhs[:a_lo] = 0.0
            want = cho_solve_banded((gs._chol, False), rhs.reshape(space.dimension, -1))
            assert np.array_equal(gs.solve(rhs), want.reshape(rhs.shape))
        assert space.dimension - k == n_atoms - 1
        assert gs.duals_at(np.array([])).shape == (space.dimension, 0)


def test_solve_row_range():
    rng = np.random.default_rng(5)
    gs = GramSystem(SplineSpace1D(random_filtration(5, n_levels=6).axes[0].level(6), 4))
    dim = gs.dimension
    rhs = rng.standard_normal((dim, 7))
    want = cho_solve_banded((gs._chol, False), rhs)
    assert np.array_equal(gs.solve(rhs, 0, dim), want)
    assert np.array_equal(gs.solve(rhs), want)
    for lo, hi in ((4, 4), (9, 3), (-1, dim), (0, dim + 1)):
        with pytest.raises(ValueError, match="row range"):
            gs.solve(np.zeros((max(hi - lo, 0), 2)), lo, hi)
    # the right-hand side holds exactly the rows of the range
    with pytest.raises(ValueError, match="row range"):
        gs.solve(rhs, 3, dim)
    bad = rng.standard_normal((dim - 5, 2))
    bad[4, 1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        gs.solve(bad, 3, dim - 2)


@pytest.mark.parametrize("block", [8, 16, 64])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_uniform=st.integers(384, 640))
def test_windowed_decay_profile_bit_exact_against_per_atom_oracle(block, seed, n_uniform):
    # meshes of 384+ atoms put the windows' edges inside the domain; the
    # graded meshes are smaller than one window, so each of their blocks is
    # solved on all rows; every block size gives the per-atom solves' profile
    # bit for bit
    big = [random_filtration(seed, n_levels=8, p_split=1.0).axes[0].level(8),
           Partition1D(np.linspace(0.0, 1.0, n_uniform + 1))]
    graded = [_graded_partition(t) for t in (0.0, 0.37, 1.0)]
    for part, k in itertools.product(big + graded, range(1, 7)):
        gs = GramSystem(SplineSpace1D(part, k))
        windows = _record_windows(gs)
        for nx in (3, 8):
            windows.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(projector, "SOLVE_BLOCK_ATOMS", block)
                got = decay_profile(gs, nx_per_atom=nx)
            want = per_atom_decay_profile(gs, nx_per_atom=nx)
            assert np.array_equal(got.distances, want.distances)
            assert np.array_equal(got.values, want.values)
            assert got.q_hat == want.q_hat
            assert got.c_hat == want.c_hat
            assert got.c_env == want.c_env
            assert got.fit_residual == want.fit_residual
            n_blocks = -(-part.n_atoms // block)
            if part.n_atoms >= 384:
                assert 0 < windows[0][1] < gs.dimension
                # the start radius grows with the order, so no block is solved twice
                assert len(windows) == n_blocks
            else:
                assert windows == [(0, gs.dimension)] * n_blocks


def test_widened_decay_windows_bit_exact_against_per_atom_oracle():
    # a start radius a quarter as wide makes every interior window fail its
    # edge check, so each block is solved again on a wider window
    part = random_filtration(3, n_levels=7, p_split=1.0).axes[0].level(7)
    for k in (2, 4, 6):
        gs = GramSystem(SplineSpace1D(part, k))
        windows = _record_windows(gs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projector, "EDGE_BITS_PER_ORDER", 4 * projector.EDGE_BITS_PER_ORDER)
            got = decay_profile(gs, nx_per_atom=3)
        assert len(windows) > -(-part.n_atoms // SOLVE_BLOCK_ATOMS)
        want = per_atom_decay_profile(gs, nx_per_atom=3)
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.values, want.values)
        assert got.q_hat == want.q_hat
        assert got.c_hat == want.c_hat
        assert got.c_env == want.c_env
        assert got.fit_residual == want.fit_residual


def test_operator_norm_matches_dense_inverse_oracle():
    # per-level norms through the band agree with the dense-inverse path
    cases = [(random_filtration(seed, n_levels=7).axes[0], 7) for seed in range(3)]
    cases.append((build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=6))
                  .axes[0], 6))
    for (axis, depth), k in itertools.product(cases, (1, 2, 3, 4, 5, 6)):
        for n in range(1, depth + 1):
            gs = GramSystem(SplineSpace1D(axis.level(n), k))
            for window in (0, 3, 64, 10_000):
                got = operator_norm_1d(gs, window=window)
                want = dense_operator_norm_1d(gs, window=window)
                assert abs(got - want) <= 1e-13 * want
    for target, k in itertools.product((0.0, 0.3, 1.0), (1, 2, 3, 4, 5, 6)):
        gs = GramSystem(SplineSpace1D(_graded_partition(target), k))
        for window in (0, 3, 64, 10_000):
            got = operator_norm_1d(gs, nx_per_atom=6, ny_per_atom=6, window=window)
            want = dense_operator_norm_1d(gs, 6, 6, window=window)
            assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("mesh", ["random", "uniform", "graded", "geometric"])
def test_operator_norm_bit_exact_against_per_block_oracle(mesh):
    # the per-space set-up and the edge test on D = Z @ X keep every window,
    # solve and product of the per-block loop; the geometric mesh widens windows
    parts = {
        "random": [random_filtration(seed, n_levels=7).axes[0].level(7) for seed in (0, 1)],
        "uniform": [Partition1D(np.linspace(0.0, 1.0, 201))],
        "graded": [_graded_partition(t) for t in (0.0, 0.37, 1.0)],
        "geometric": [_geometric_partition(1.2, 101)],
    }[mesh]
    for part, k in itertools.product(parts, (2, 3, 4, 5, 6)):
        gs = GramSystem(SplineSpace1D(part, k))
        for window, nx in itertools.product((0, 3, 64), (6, 8)):
            got = operator_norm_1d(gs, nx_per_atom=nx, ny_per_atom=nx, window=window)
            assert got == per_block_operator_norm_1d(gs, nx, nx, window)


def _inject_nan(gs, call, row):
    """Wrap gs.solve so that its `call`-th result (from 1) has a NaN in `row`, column 0."""
    solve, calls = gs.solve, []

    def nan_solve(rhs, lo, hi):
        y = solve(rhs, lo, hi)
        calls.append((lo, hi))
        if len(calls) == call:
            y[row, 0] = np.nan
        return y

    gs.solve = nan_solve


@pytest.mark.parametrize("row", [0, 40, -1])
def test_kernel_and_decay_fail_closed_on_nan_duals(row):
    # a NaN in one windowed solve, in the first, a middle and the last row of
    # its window: Python's max() dropped it from the kernel norm (2.541372654175782,
    # the clean value) and decay_profile trimmed it as if below the floor
    part = Partition1D(np.linspace(0.0, 1.0, 129))
    gs = GramSystem(SplineSpace1D(part, 3))
    assert operator_norm_1d(gs) == 2.541372654175782
    _inject_nan(gs, 3, row)
    with pytest.raises(ValueError, match=r"x-atoms \[32, 48\) are not finite"):
        operator_norm_1d(gs)
    gs = GramSystem(SplineSpace1D(part, 3))
    assert decay_profile(gs).q_hat == 0.4551157743055659
    _inject_nan(gs, 1, row)
    with pytest.raises(ValueError, match=rf"x-atoms \[0, {SOLVE_BLOCK_ATOMS}\) are not finite"):
        decay_profile(gs)


def test_kernel_arguments_fail_closed():
    # a negative window once failed inside sliding_window_view, and zero
    # samples per atom with "cannot reshape" or "zero-size array"
    F = random_filtration(2, n_levels=5)
    gs = GramSystem(SplineSpace1D(F.axes[0].level(5), 3))
    tp = TensorProjector.for_level(F, 5, 3)
    for bad in (0, -1, 2.5, 8.0, "8", None, True):
        for name in ("nx_per_atom", "ny_per_atom"):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                operator_norm_1d(gs, **{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                operator_norm_inf(tp, **{name: bad})
        with pytest.raises(ValueError, match="nx_per_atom must be an integer >= 1"):
            decay_profile(gs, nx_per_atom=bad)
    for bad in (-1, -5, 1.5, None):
        with pytest.raises(ValueError, match="window must be an integer >= 0"):
            operator_norm_1d(gs, window=bad)
        with pytest.raises(ValueError, match="window must be an integer >= 0"):
            operator_norm_inf(tp, window=bad)
    # the k = 1 path checks its arguments too
    gs1 = GramSystem(SplineSpace1D(F.axes[0].level(5), 1))
    with pytest.raises(ValueError, match="window must be an integer >= 0"):
        operator_norm_1d(gs1, window=-5)
    assert operator_norm_1d(gs, nx_per_atom=np.int64(2), window=0) > 1.0


def test_decay_profile_bit_exact_against_per_atom_oracle():
    parts = [random_filtration(seed, n_levels=7).axes[0].level(7) for seed in range(4)]
    parts.append(Partition1D(np.linspace(0.0, 1.0, 200)))
    parts += [_graded_partition(t) for t in (0.0, 0.37, 1.0)]
    for part, k in itertools.product(parts, (1, 2, 3, 4)):
        gs = GramSystem(SplineSpace1D(part, k))
        for nx in (3, 8):
            got = decay_profile(gs, nx_per_atom=nx)
            want = per_atom_decay_profile(gs, nx_per_atom=nx)
            assert np.array_equal(got.distances, want.distances)
            assert np.array_equal(got.values, want.values)
            assert got.q_hat == want.q_hat
            assert got.c_hat == want.c_hat
            assert got.c_env == want.c_env
            assert got.fit_residual == want.fit_residual
