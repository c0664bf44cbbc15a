import tracemalloc

import numpy as np
import pytest

from splinelab import (
    FiltrationSpec,
    HybridMeasure,
    MartingaleSplineSequence,
    SplineSpace1D,
    TensorProjector,
    TensorSpline,
    build_filtration,
    convergence_probe,
    density_catalog,
    make_sequence,
    sample_probe_points,
    verify_martingale_property,
)
from splinelab import measures

from conftest import (dense_moments, graded_filtration, l1_norms, median_decay_rate,
                      node_grid_values, random_filtration, restricted_projection,
                      total_variation)


def assert_same_level(seq, n, direct):
    """make_sequence's level n against a projection with the finest quadrature: the
    same moments, restricted by the same map at the two finest levels, and by the
    maps composed level by level against the one-step map below them."""
    got, want = seq.level(n).coeffs, direct.coeffs
    if n >= seq.n_levels - 1:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_source_in_first_space_is_constant_sequence(dyadic_1d):
    tp1 = TensorProjector.for_level(dyadic_1d, 1, 2)
    rng = np.random.default_rng(0)
    f = TensorSpline(tp1.spaces, rng.normal(size=3))
    pts = sample_probe_points(dyadic_1d, 100, seed=1)
    base = f.eval_many(pts)
    for n in range(1, 5):
        g_n = TensorProjector.for_level(dyadic_1d, n, 2).project(f)
        np.testing.assert_allclose(g_n.eval_many(pts), base, atol=1e-11)


def test_density_source_matches_projection(dyadic_1d):
    dens = lambda x: 1.0 + 0.5 * np.sin(4 * x)
    theta = HybridMeasure(d=1, density=dens, density_quad_points=8)
    seq = make_sequence(dyadic_1d, theta, 2)
    finest = [dyadic_1d.axes[0].level(dyadic_1d.n_levels)]
    for n in (1, 2, 3):
        tp = TensorProjector.for_level(dyadic_1d, n, 2)
        direct = restricted_projection(tp, dens, finest, 8)
        np.testing.assert_allclose(seq.level(n).coeffs, direct.coeffs, atol=1e-13)


def test_dirac_sequence_k1_dyadic(dyadic_1d):
    x0 = 0.37
    theta = HybridMeasure(d=1, diracs=[(np.array([x0]), np.array([1.0]))])
    seq = make_sequence(dyadic_1d, theta, 1)
    norms = l1_norms(seq)
    for n in range(1, 6):
        part = dyadic_1d.axes[0].level(n)
        j = int(part.atom_index_of(np.array([x0]))[0])
        coeffs = seq.level(n).coeffs.ravel()
        want = np.zeros(part.n_atoms)
        want[j] = 2.0 ** n  # 1 / |A_n(x0)|
        np.testing.assert_allclose(coeffs, want, atol=1e-12)
        assert norms[n - 1] == pytest.approx(1.0, rel=1e-12)


def test_martingale_property_small(dyadic_1d):
    theta = HybridMeasure(
        d=1,
        density=lambda x: np.exp(x),
        diracs=[(np.array([0.61]), np.array([0.5]))],
        density_quad_points=8,
    )
    seq = make_sequence(dyadic_1d, theta, 3)
    err = verify_martingale_property(seq, n_probe=150, seed=2)
    assert err <= 1e-9


def test_martingale_property_detects_corruption(dyadic_1d):
    seq = make_sequence(dyadic_1d, lambda x: np.sin(2 * x), 2)
    seq.splines[2].coeffs[4] += 1e-3
    err = verify_martingale_property(seq, n_probe=200, seed=3)
    assert err >= 1e-4


def test_non_finite_coefficients_fail_the_martingale_check():
    # a NaN level used to pass: TensorSpline took it, and max(worst, nan) drops it
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=4))
    seq = make_sequence(F, lambda x: np.sin(3 * x), 2)
    assert verify_martingale_property(seq) < 1e-12
    coeffs = seq.level(1).coeffs.copy()
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = coeffs.copy()
        corrupt[0, 0] = bad
        with pytest.raises(ValueError, match="coefficients are not finite"):
            TensorSpline(seq.level(1).spaces, corrupt)
    # coefficients changed in place after construction: a compared level gives NaN,
    # and a projected one stops the Gram solve
    seq.level(1).coeffs[0, 0] = np.nan
    assert np.isnan(verify_martingale_property(seq))
    seq.level(1).coeffs[0, 0] = coeffs[0, 0]
    seq.level(4).coeffs[0, 0] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        verify_martingale_property(seq)


def test_martingale_property_k1_dirac_exact(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.37]), np.array([1.0]))])
    seq = make_sequence(dyadic_1d, theta, 1)
    err = verify_martingale_property(seq, n_probe=100, seed=4)
    assert err <= 1e-12


def test_sequence_factorizes_each_level_once(dyadic_2d, monkeypatch):
    # make_sequence factorizes one Gram matrix per level and axis, and the
    # martingale check projects with the projectors the sequence keeps
    from splinelab.projector import GramSystem

    built = []
    init = GramSystem.__init__

    def counted(self, space):
        built.append(space)
        init(self, space)

    monkeypatch.setattr(GramSystem, "__init__", counted)
    seq = make_sequence(dyadic_2d, lambda x, y: np.sin(2 * x) * y, (2, 3))
    assert len(built) == dyadic_2d.d * dyadic_2d.n_levels
    built.clear()
    assert verify_martingale_property(seq, n_probe=50, seed=6) <= 1e-12
    assert built == []


def test_probe_points_avoid_breakpoints(dyadic_2d):
    pts = sample_probe_points(dyadic_2d, 500, seed=5)
    assert pts.shape == (500, 2)
    for ell in range(2):
        bps = np.unique(np.concatenate(
            [lvl.breakpoints for lvl in dyadic_2d.axes[ell].levels]
        ))
        gaps = np.abs(pts[:, ell][:, None] - bps[None, :]).min(axis=1)
        assert gaps.min() > 1e-9


def test_convergence_continuous_function():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    f = lambda x: np.sin(2 * np.pi * x)
    seq = make_sequence(F, f, 2, quad_points=4)
    probe = convergence_probe(seq, reference=f, n_points=200, seed=6, final_tol=1e-3)
    assert probe.fraction_below_tol == 1.0
    assert median_decay_rate(probe.errors) < -1.0  # roughly h^2 per level halving


def test_convergence_hybrid_measure_to_density():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    dens = lambda x: 1.0 + x ** 2
    theta = HybridMeasure(
        d=1,
        density=dens,
        diracs=[(np.array([0.3]), np.array([1.0]))],
        density_quad_points=8,
    )
    seq = make_sequence(F, theta, 2)
    # the Dirac remnant at finite depth dominates within a few finest atoms
    # of x0; probes keep a 16-atom exclusion radius around it
    pts = sample_probe_points(F, 120, seed=7, exclude=[([0.3], 16 / 2 ** 8)])
    probe = convergence_probe(seq, reference=dens, points=pts, final_tol=1e-3)
    assert probe.fraction_below_tol == 1.0


def test_convergence_deepest_level_reference():
    F = random_filtration(5, n_levels=6)
    seq = make_sequence(F, lambda x: np.cos(3 * x), 3, quad_points=4)
    deepest = seq.level(seq.n_levels)
    # levels 1..N-1 against the deepest level, the oracle for the limit
    coarser = MartingaleSplineSequence(F=F, splines=seq.splines[:-1],
                                       projectors=seq.projectors[:-1])
    probe = convergence_probe(coarser, reference=lambda x: deepest.eval_many(x[:, None]),
                              n_points=100, seed=8, final_tol=5e-2)
    assert probe.fraction_below_tol == 1.0
    assert median_decay_rate(probe.errors) < 0.0


def test_singular_integrable_source_l1_bounded():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    f = lambda x: np.abs(x - 0.5) ** -0.4
    seq = make_sequence(F, f, 2, quad_points=16)
    norms = l1_norms(seq)
    assert np.all(np.isfinite(norms))
    # uniform L1 bound: projections of an L1 function stay bounded by C ||f||_1
    assert norms.max() <= 10 * norms[0]
    probe = convergence_probe(seq, reference=f, n_points=150, seed=9, final_tol=5e-2)
    far = np.abs(probe.points[:, 0] - 0.5) > 0.1
    assert np.all(probe.errors[-1][far] < 5e-2)


def test_vector_valued_sequence(dyadic_1d):
    theta = HybridMeasure(
        d=1,
        density=lambda x: np.stack([np.ones_like(x), x], axis=-1),
        m=2,
        density_quad_points=4,
    )
    seq = make_sequence(dyadic_1d, theta, 2)
    assert seq.m == 2
    err = verify_martingale_property(seq, n_probe=50, seed=10)
    assert err <= 1e-10


def test_make_sequence_rejects_junk(dyadic_1d):
    with pytest.raises(ValueError):
        make_sequence(dyadic_1d, object(), 2)
    # a measure integrates with its own density rule, so quad_points would be ignored
    with pytest.raises(ValueError, match="takes no g"):
        make_sequence(dyadic_1d, HybridMeasure(d=1, density=lambda x: x), 2, quad_points=4)


def test_make_sequence_rejects_zero_quad_points(dyadic_1d):
    # as project(g=0) does, instead of falling back to the default rule
    with pytest.raises(ValueError, match="quadrature points g must be an integer >= 1"):
        make_sequence(dyadic_1d, lambda x: x, 2, quad_points=0)
    with pytest.raises(ValueError, match="quadrature points g must be an integer >= 1"):
        TensorProjector.for_level(dyadic_1d, 2, 2).project(lambda x: x, g=0)


def test_l1_uniform_boundedness_via_measured_norm():
    from splinelab.projector import GramSystem, operator_norm_1d
    from splinelab import SplineSpace1D

    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=6))
    theta = HybridMeasure(
        d=1,
        density=lambda x: 1.0 + 0.5 * np.sin(7 * x),
        diracs=[(np.array([0.42]), np.array([0.8]))],
        density_quad_points=8,
    )
    seq = make_sequence(F, theta, 2)
    tv = total_variation(theta, F, 6).exact_value
    shadrin_c = max(
        operator_norm_1d(GramSystem(SplineSpace1D(F.axes[0].level(n), 2)))
        for n in range(1, 7)
    )
    assert l1_norms(seq).max() <= tv * shadrin_c * (1 + 1e-9)


def test_probe_points_gap_wider_than_atoms_raises():
    # on (0, 1e-9] every point lies within the 1e-9 gap of a breakpoint
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1e-9), n_levels=3))
    with pytest.raises(ValueError, match="farther than gap"):
        sample_probe_points(F, 10)


def test_probe_points_exclude_covering_domain_raises(dyadic_1d):
    with pytest.raises(ValueError, match="rejection rounds"):
        sample_probe_points(dyadic_1d, 10, exclude=[([0.5], 1.0)])


@pytest.mark.parametrize("entry", [([0.3], 0.1), ([0.3, 0.4, 0.5], 0.1), ([0.3, np.nan], 0.1),
                                   ([0.3, np.inf], 0.1), ([0.3, 0.4], -0.1),
                                   ([0.3, 0.4], np.nan), ([0.3, 0.4], np.inf)])
def test_probe_points_check_each_exclude_entry(dyadic_2d, entry):
    # a 1-coordinate point in d = 2 was broadcast, a negative radius accepted, and a NaN
    # ran every rejection round before blaming the gap
    good = ([0.7, 0.2], 0.0)
    assert sample_probe_points(dyadic_2d, 5, exclude=[good]).shape == (5, 2)
    with pytest.raises(ValueError, match=r"exclude entry 1 .* needs 2 finite coordinates "
                                         r"and a finite radius >= 0"):
        sample_probe_points(dyadic_2d, 5, exclude=[good, entry])


@pytest.mark.parametrize("n_points", [0, -3, 2.0, True, None])
def test_probe_points_need_a_positive_integer_count(dyadic_1d, n_points):
    with pytest.raises(ValueError, match="n_points must be an integer >= 1"):
        sample_probe_points(dyadic_1d, n_points)


def test_empty_probe_sets_fail_closed(dyadic_1d):
    # an empty probe used to give fraction_below_tol = nan, and verify_martingale_property
    # died inside numpy reducing an empty array
    seq = make_sequence(dyadic_1d, lambda x: np.sin(3 * x), 2)
    f = lambda x: np.sin(3 * x)
    with pytest.raises(ValueError, match="n_points must be an integer >= 1"):
        convergence_probe(seq, f, n_points=0)
    with pytest.raises(ValueError, match="n_points must be an integer >= 1"):
        verify_martingale_property(seq, n_probe=0)
    for points in (np.empty((0, 1)), [], [[0.3], [np.nan]], [[np.inf]]):
        with pytest.raises(ValueError, match="non-empty and finite"):
            convergence_probe(seq, f, points=points)
    assert convergence_probe(seq, f, points=[[0.3]]).fraction_below_tol in (0.0, 1.0)


def _mixed_measure(d, m):
    """Density plus two Diracs in d dimensions with m-valued masses."""
    def dens(*grids):
        return 1.0 + 0.5 * np.sin(3 * sum(grids))

    diracs = [(np.full(d, 0.37), np.arange(1.0, m + 1.0)), (np.full(d, 0.81), np.full(m, 0.5))]
    return HybridMeasure(d=d, density=dens, diracs=diracs, m=m, density_quad_points=5)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_measure_sequence_levels_equal_per_level_projection(d, m):
    F = random_filtration(11 + d, d=d, n_levels=4)
    theta = _mixed_measure(d, m)
    orders = (2, 3)[:d]
    seq = make_sequence(F, theta, orders)
    finest = [ax.level(F.n_levels) for ax in F.axes]
    assert seq.m == m
    for n in range(1, F.n_levels + 1):
        tp = TensorProjector.for_level(F, n, orders)
        assert_same_level(seq, n, restricted_projection(tp, theta, finest))


@pytest.mark.parametrize("d", [1, 2])
def test_function_sequence_levels_equal_per_level_projection(d):
    F = random_filtration(21 + d, d=d, n_levels=4)
    f = lambda *xs: np.cos(2 * sum(xs)) + xs[0] ** 3
    orders = (3, 2)[:d]
    seq = make_sequence(F, f, orders, quad_points=6)
    finest = [ax.level(F.n_levels) for ax in F.axes]
    for n in range(1, F.n_levels + 1):
        tp = TensorProjector.for_level(F, n, orders)
        assert_same_level(seq, n, restricted_projection(tp, f, finest, 6))


def test_make_sequence_evaluates_source_once(dyadic_2d):
    calls = []

    def f(*grids):
        calls.append(1)
        return np.exp(grids[0]) * grids[1]

    make_sequence(dyadic_2d, f, 2)
    assert len(calls) == 1
    theta = HybridMeasure(d=2, density=f, diracs=[(np.array([0.3, 0.6]), np.array([1.0]))],
                          density_quad_points=4)
    calls.clear()
    make_sequence(dyadic_2d, theta, (2, 3))
    assert len(calls) == 1


def test_make_sequence_reduces_node_grid_once(dyadic_2d, monkeypatch):
    reduced = []
    reduce = measures.basis_moments

    def counting_reduce(*args, **kwargs):
        reduced.append(1)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(measures, "basis_moments", counting_reduce)
    seq = make_sequence(dyadic_2d, lambda x, y: np.exp(x) * y, 2)
    assert seq.n_levels == dyadic_2d.n_levels
    assert len(reduced) == 1
    theta = HybridMeasure(d=2, density=lambda x, y: 1.0 + x * y,
                          diracs=[(np.array([0.3, 0.6]), np.array([1.0]))])
    reduced.clear()
    make_sequence(dyadic_2d, theta, (2, 3))
    assert len(reduced) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_graded_moments_match_dense_collocation(d):
    # on meshes graded to the 1e-9 width floor, the coefficients of make_sequence
    # and of the finest moments restricted in one step equal the solve of dense
    # collocation moments at the same Gauss nodes to 1e-13 of the largest
    F = graded_filtration(d)
    orders = (3, 2)[:d]
    f = lambda *xs: 1.5 + np.sin(3 * sum(xs)) + xs[0] ** 2
    g = 4
    finest = [ax.level(F.n_levels) for ax in F.axes]
    vals = node_grid_values(finest, g, f)
    seq = make_sequence(F, f, orders, quad_points=g)
    for n in (1, F.n_levels // 2, F.n_levels):
        tp = seq.projectors[n - 1]
        want = tp.solve_coefficients(dense_moments(finest, g, tp.spaces, vals))
        for got in (seq.level(n).coeffs, restricted_projection(tp, f, finest, g).coeffs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                                       err_msg=f"level {n}")


def test_martingale_check_never_uses_the_refinement_map(monkeypatch):
    # P_n g_{n+1} is integrated on the common refinement, so the check tests the
    # knot-insertion restriction that built the sequence instead of restating it
    F = random_filtration(6, d=2, n_levels=4)
    theta = HybridMeasure(d=2, density=lambda x, y: 1.0 + x * y,
                          diracs=[(np.array([0.3, 0.6]), np.array([1.0]))])
    seq = make_sequence(F, theta, (2, 3))

    def forbidden(*args, **kwargs):
        raise AssertionError("the knot-insertion map was used")

    monkeypatch.setattr(SplineSpace1D, "refinement", forbidden)
    assert verify_martingale_property(seq, n_probe=50) < 1e-12
    assert seq.projectors[0].project(seq.level(4)).coeffs.shape == seq.level(1).coeffs.shape


def test_dirac_only_sequence_builds_no_grid(dyadic_2d, monkeypatch):
    reduced = []
    reduce = measures.basis_moments

    def counting_reduce(*args, **kwargs):
        reduced.append(1)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(measures, "basis_moments", counting_reduce)
    theta = HybridMeasure(d=2, diracs=[(np.array([0.3, 0.6]), np.array([1.0]))])
    seq = make_sequence(dyadic_2d, theta, 2)
    assert seq.n_levels == dyadic_2d.n_levels
    assert reduced == []


def test_l1_norms_of_affine_source(dyadic_1d):
    seq = make_sequence(dyadic_1d, lambda x: 1.0 + x, 2)
    norms = l1_norms(seq)
    assert len(norms) == seq.n_levels
    assert norms == pytest.approx(1.5, rel=1e-12)


def test_make_sequence_rejects_measure_of_wrong_dimension(dyadic_2d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.3]), np.array([1.0]))])
    with pytest.raises(ValueError, match="dimension"):
        make_sequence(dyadic_2d, theta, 2)


def test_source_moments_free_the_last_slab_before_the_scatter():
    # converge's d = 2, depth 8, orders (3, 3) case with 4 points per atom peaks at
    # 7.1 MB; the last slab's arrays kept alive through the scatter into the basis
    # add 0.6 MB, which the 10 MB bound of make_sequence does not see
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=8,
                                        rules=[{"name": "uniform-bisect-all"}] * 2, seed=5005))
    spaces = [SplineSpace1D(ax.level(8), 3) for ax in F.axes]
    f = density_catalog("smooth-exp", 2)
    tracemalloc.start()
    try:
        # a plain callable takes the slab route; the separable f would skip it
        b = measures.source_moments(lambda *g: f(*g), spaces, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7_400_000
    assert b.shape == (258, 258, 1)


def test_make_sequence_memory_is_bounded_by_slabs():
    # converge's d = 2, depth 8, orders (3, 3) case with 4 points per atom: 1,024^2
    # density nodes, whose values alone would take 8.4 MB; the slabs of the default
    # CACHE_BLOCK_BYTES keep the peak below 10 MB (16 MB with 2 ** 18 nodes a slab)
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=8,
                                        rules=[{"name": "uniform-bisect-all"}] * 2, seed=5005))
    f = density_catalog("smooth-exp", 2)
    tracemalloc.start()
    try:
        # a plain callable takes the slab route; the separable f would skip it
        seq = make_sequence(F, lambda *g: f(*g), (3, 3), quad_points=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    assert seq.level(8).coeffs.shape == (258, 258, 1)
