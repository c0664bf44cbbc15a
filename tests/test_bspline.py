import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    knot_vector,
)

from splinelab import bspline
from splinelab.bspline import _basis_columns, atom_chebyshev, restrict
from splinelab.measures import measure_from_config, source_moments

from conftest import (collocation_matrix, dense_atom_integrals, dense_moments, graded_filtration,
                      knot_span_basis, ndindex_eval_many, node_grid_values, random_filtration,
                      slab_sizes, symbolic_product_integral, two_pass_moments, wavy_values)


def test_knot_vector_k1():
    kv = knot_vector(Partition1D([0.0, 0.5, 1.0]), 1)
    assert kv.tolist() == [0.0, 0.5, 1.0]
    assert len(kv) - 1 == 2  # dimension = number of knots - order


def test_knot_vector_k2():
    kv = knot_vector(Partition1D([0.0, 0.5, 1.0]), 2)
    assert kv.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
    assert not kv.flags.writeable
    assert len(kv) - 2 == 3


def test_knot_vector_single_atom_k4():
    kv = knot_vector(Partition1D([0.0, 1.0]), 4)
    assert len(kv) - 4 == 4


def test_knot_vector_rejects_bad_order():
    with pytest.raises(ValueError):
        knot_vector(Partition1D([0.0, 1.0]), 0)


def test_eval_basis_hats_at_midpoint():
    space = SplineSpace1D(Partition1D([0.0, 0.5, 1.0]), 2)
    first, vals = space.eval_basis_many([0.25])
    assert first[0] == 0
    np.testing.assert_allclose(vals[0], [0.5, 0.5], atol=1e-15)


def test_eval_basis_k1_indicator():
    space = SplineSpace1D(Partition1D([0.0, 0.25, 0.5, 1.0]), 1)
    first, vals = space.eval_basis_many([0.1, 0.25, 0.3, 0.8])
    assert first.tolist() == [0, 0, 1, 2]
    np.testing.assert_allclose(vals, 1.0)


def test_eval_basis_outside_domain():
    space = SplineSpace1D(Partition1D([0.0, 1.0]), 2)
    with pytest.raises(ValueError):
        space.eval_basis_many([0.0])
    with pytest.raises(ValueError):
        space.eval_basis_many([1.5])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_partition_of_unity_and_nonnegativity(k):
    rng = np.random.default_rng(5)
    for seed in range(3):
        F = random_filtration(seed, n_levels=5)
        space = SplineSpace1D(F.axes[0].level(5), k)
        xs = rng.uniform(1e-12, 1.0, 10_000)
        _, vals = space.eval_basis_many(xs)
        assert vals.min() >= -1e-14
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)


def support(space, i):
    """(lo, hi) of the union of the atoms where basis i is nonzero."""
    lo, hi = space.support_atom_range(i)
    bp = space.partition.breakpoints
    return bp[lo], bp[hi + 1]


def test_support_k1_single_atom():
    space = SplineSpace1D(Partition1D([0.0, 0.25, 0.5, 1.0]), 1)
    assert support(space, 1) == (0.25, 0.5)


def test_support_interior_hat():
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2)
    assert support(space, 2) == (0.25, 0.75)


def test_support_clamped_first_basis_k3():
    # oracle: sweep evaluation marks the atoms where the basis is nonzero
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 3)
    coeffs = np.zeros(space.dimension)
    coeffs[0] = 1.0
    nonzero_atoms = []
    for a in range(space.partition.n_atoms):
        lo, hi = space.partition.breakpoints[a], space.partition.breakpoints[a + 1]
        xs = np.linspace(lo + 1e-9, hi, 37)
        first, vals = space.eval_basis_many(xs)
        y = np.zeros(len(xs))
        for r in range(space.order):
            y += vals[:, r] * coeffs[first + r]
        if np.abs(y).max() > 1e-13:
            nonzero_atoms.append(a)
    assert nonzero_atoms == [0]
    assert support(space, 0) == (0.0, 0.25)


def test_support_index_out_of_range():
    space = SplineSpace1D(Partition1D([0.0, 1.0]), 2)
    with pytest.raises(IndexError):
        space.support_atom_range(5)
    with pytest.raises(IndexError):
        space.support_atom_range(np.array([0, 1, 2]))
    with pytest.raises(IndexError):
        space.support_atom_range(np.array([[-1], [0]]))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_support_atom_range_of_an_index_array(k):
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 6)), k)
    i = np.arange(space.dimension)
    lo, hi = space.support_atom_range(i[:, None])
    assert lo.shape == hi.shape == (space.dimension, 1)
    assert [(int(a), int(b)) for a, b in zip(lo[:, 0], hi[:, 0])] == [
        space.support_atom_range(int(j)) for j in i]
    # the atoms where N_i is nonzero, read off the evaluated basis
    first, _ = space.eval_basis_many(0.5 * (space.partition.breakpoints[:-1]
                                            + space.partition.breakpoints[1:]))
    for j in i:
        atoms = np.flatnonzero((first <= j) & (j < first + k))
        assert (lo[j, 0], hi[j, 0]) == (atoms.min(), atoms.max())


def moments_1d(space, f, g=4):
    """Moments int f N_i over one space, by g-point quadrature on its own atoms."""
    return basis_moments(f, [space], g)[:, 0]


def test_integrate_constant_sums_to_length():
    space = SplineSpace1D(Partition1D([0.0, 0.3, 0.7, 1.0]), 3)
    b = moments_1d(space, lambda x: np.ones_like(x))
    assert abs(b.sum() - 1.0) <= 1e-14


def test_integrate_identity_k1():
    space = SplineSpace1D(Partition1D([0.0, 0.5, 1.0]), 1)
    b = moments_1d(space, lambda x: x)
    np.testing.assert_allclose(b, [0.125, 0.375], atol=1e-15)


def test_integrate_hat_products_against_symbolic_oracle():
    # uniform h = 1/4 hats: interior int N_i N_{i+1} = h/6, int N_i^2 = 2h/3
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2)
    h = 0.25
    assert abs(symbolic_product_integral(space, 2, 3) - h / 6) <= 1e-15
    assert abs(symbolic_product_integral(space, 2, 2) - 2 * h / 3) <= 1e-15
    coeffs = np.zeros(space.dimension)
    coeffs[2] = 1.0

    def basis2(x):
        first, vals = space.eval_basis_many(x)
        out = np.zeros(np.shape(x))
        for r in range(space.order):
            out += vals[..., r] * coeffs[first + r]
        return out

    b = moments_1d(space, basis2, g=2)
    for j in range(space.dimension):
        assert abs(b[j] - symbolic_product_integral(space, 2, j)) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadrature_matches_symbolic_on_uniform(k):
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 7)), k)
    rule = atom_quadrature(space.partition, k)
    _, vals = space.eval_basis_many(rule.nodes)
    for i in range(space.dimension):
        for j in range(max(0, i - k + 1), min(space.dimension, i + k)):
            ci = np.zeros(space.dimension)
            ci[i] = 1.0
            fi = np.zeros(rule.nodes.shape)
            first, va = space.eval_basis_many(rule.nodes)
            for r in range(k):
                fi += va[..., r] * ci[first + r]
            cj = np.zeros(space.dimension)
            cj[j] = 1.0
            fj = np.zeros(rule.nodes.shape)
            for r in range(k):
                fj += va[..., r] * cj[first + r]
            quad = float((rule.weights * fi * fj).sum())
            assert abs(quad - symbolic_product_integral(space, i, j)) <= 1e-13


def test_integrate_rejects_bad_g():
    space = SplineSpace1D(Partition1D([0.0, 1.0]), 2)
    with pytest.raises(ValueError):
        moments_1d(space, lambda x: x, g=0)


def test_tensor_constant_coefficients():
    spaces = [
        SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2),
        SplineSpace1D(Partition1D(np.linspace(0, 1, 4)), 3),
    ]
    ts = TensorSpline(spaces, np.full((5, 5), 2.5))
    pts = np.random.default_rng(0).uniform(1e-6, 1, (50, 2))
    np.testing.assert_allclose(ts.eval_many(pts), 2.5, atol=1e-13)


def test_tensor_rank_one_separates():
    spaces = [
        SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2),
        SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2),
    ]
    rng = np.random.default_rng(1)
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    ts = TensorSpline(spaces, np.outer(u, v))
    su = TensorSpline(spaces[:1], u)
    sv = TensorSpline(spaces[1:], v)
    pts = rng.uniform(1e-6, 1, (40, 2))
    np.testing.assert_allclose(
        ts.eval_many(pts)[:, 0],
        su.eval_many(pts[:, 0])[:, 0] * sv.eval_many(pts[:, 1])[:, 0],
        atol=1e-13,
    )


def test_tensor_vector_valued_componentwise():
    space = SplineSpace1D(Partition1D(np.linspace(0, 1, 5)), 2)
    coeffs = np.zeros((5, 2))
    coeffs[:, 0] = 3.0
    ts = TensorSpline([space], coeffs)
    assert ts.m == 2
    val = ts.eval_many([[0.37]])[0]
    np.testing.assert_allclose(val, [3.0, 0.0], atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1.0, exclude_min=False))
def test_partition_of_unity_property(x):
    space = SplineSpace1D(Partition1D([0.0, 0.2, 0.45, 0.8, 1.0]), 4)
    _, vals = space.eval_basis_many(np.array([x]))
    assert abs(vals.sum() - 1.0) <= 1e-12
    assert vals.min() >= -1e-14


def test_non_finite_points_rejected():
    space = SplineSpace1D(Partition1D([0.0, 0.5, 1.0]), 2)
    ts = TensorSpline([space, space], np.ones((3, 3)))
    with pytest.raises(ValueError):
        space.eval_basis_many([0.5, np.nan])
    with pytest.raises(ValueError):
        ts.eval_many([[0.5, 0.5], [np.nan, 0.5]])
    with pytest.raises(ValueError):
        ts.eval_grid([[0.5], [0.25, np.nan]])


def mesh_points(part, rng, n_random=200):
    """Random points of a partition's interval, every right breakpoint (where the
    half-open k = 1 values sit) and the midpoint of its narrowest atom."""
    bp = part.breakpoints
    narrowest = int(np.argmin(part.widths))
    return np.concatenate([rng.uniform(bp[0], bp[-1], n_random), bp[1:],
                           [0.5 * (bp[narrowest] + bp[narrowest + 1])]])


@pytest.mark.parametrize("graded", [False, True])
def test_eval_basis_atom_lookup_matches_knot_span_search(graded):
    # the span from Partition1D.atom_index_of is the knot-vector search's, bit for bit
    rng = np.random.default_rng(11)
    F = graded_filtration(3, seed=2) if graded else random_filtration(4, d=3, n_levels=7)
    for ax, k in itertools.product(F.axes, (1, 2, 3, 4)):
        space = SplineSpace1D(ax.level(ax.n_levels), k)
        xs = mesh_points(space.partition, rng)
        first, vals = space.eval_basis_many(xs)
        want_first, want_vals = knot_span_basis(space, xs)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(vals, want_vals)
        # the shape of xs carries over: a scalar and a (3, 2) block
        f0, v0 = space.eval_basis_many(xs[0])
        assert f0.shape == () and v0.shape == (k,) and f0 == first[0]
        f2, v2 = space.eval_basis_many(xs[:6].reshape(3, 2))
        np.testing.assert_array_equal(f2.ravel(), first[:6])
        np.testing.assert_array_equal(v2.reshape(6, k), vals[:6])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eval_many_matches_ndindex_loop_for_mixed_orders(d):
    # orders that differ between axes, on random and graded meshes, m = 1 and 3
    rng = np.random.default_rng(d)
    for F in (random_filtration(d, d=d, n_levels=5), graded_filtration(d, seed=1)):
        parts = [ax.level(F.n_levels) for ax in F.axes]
        # 300 points a coordinate: every breakpoint of that axis, the rest random
        pts = np.stack([rng.permutation(mesh_points(p, rng, 300 - len(p.breakpoints)))
                        for p in parts], axis=1)
        for orders in itertools.islice(itertools.product((1, 2, 3, 4), repeat=d), 0, None, d):
            spaces = [SplineSpace1D(p, k) for p, k in zip(parts, orders)]
            for m in (1, 3):
                coeffs = rng.normal(size=tuple(s.dimension for s in spaces) + (m,))
                ts = TensorSpline(spaces, coeffs)
                np.testing.assert_array_equal(ts.eval_many(pts), ndindex_eval_many(ts, pts))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_eval_grid_matches_eval_many(seed):
    # every order 1-4, d = 1-3 and m in {1, 3}, on random and on graded meshes
    rng = np.random.default_rng(seed)
    for d, graded in itertools.product((1, 2, 3), (False, True)):
        if graded:
            # bisection toward a target point until atoms reach the 1e-9 width floor
            rules = [{"name": "point-targeted", "target": float(t)} for t in rng.uniform(0, 1, d)]
            F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=34,
                                                rules=rules))
        else:
            F = random_filtration(seed, d=d, n_levels=4)
        axis_points = []
        for ax in F.axes:
            part = ax.level(F.n_levels)
            bp = part.breakpoints
            narrowest = int(np.argmin(part.widths))
            on_bp = rng.choice(bp[1:], size=min(3, len(bp) - 1), replace=False)
            axis_points.append(np.concatenate([
                rng.uniform(1e-12, 1.0, 3), on_bp, [0.5 * (bp[narrowest] + bp[narrowest + 1])]
            ]))
        pts = np.stack(np.meshgrid(*axis_points, indexing="ij"), axis=-1).reshape(-1, d)
        for k, m in itertools.product((1, 2, 3, 4), (1, 3)):
            spaces = [SplineSpace1D(ax.level(F.n_levels), k) for ax in F.axes]
            coeffs = rng.normal(size=tuple(s.dimension for s in spaces) + (m,))
            ts = TensorSpline(spaces, coeffs)
            grid = ts.eval_grid(axis_points)
            assert grid.shape == tuple(len(a) for a in axis_points) + (m,)
            values = ts.eval_many(pts)
            np.testing.assert_array_equal(values, ndindex_eval_many(ts, pts))
            np.testing.assert_allclose(grid.reshape(-1, m), values, rtol=0, atol=1e-13)
            if k == 1:
                # half-open atoms: a breakpoint takes the value of the atom it closes
                atoms = [np.searchsorted(s.partition.breakpoints, a, side="left") - 1
                         for s, a in zip(spaces, axis_points)]
                np.testing.assert_array_equal(grid, coeffs[np.ix_(*atoms)])


def test_tensor_quadrature_atom_integrals_exact_for_polynomials():
    F = random_filtration(17, d=2, n_levels=3)
    parts = [ax.level(3) for ax in F.axes]
    # degree 5 per axis is within reach of 3 Gauss points; the integrals over the
    # atoms are the moments against the order-1 basis, the atom indicators
    got = basis_moments(lambda x, y: np.stack([x ** 5 * y, np.ones_like(x * y)], axis=-1),
                        [SplineSpace1D(p, 1) for p in parts], 3)
    a, b = parts[0].breakpoints, parts[1].breakpoints
    want0 = np.multiply.outer(np.diff(a ** 6) / 6, np.diff(b ** 2) / 2)
    want1 = np.multiply.outer(np.diff(a), np.diff(b))
    assert got.shape == (parts[0].n_atoms, parts[1].n_atoms, 2)
    np.testing.assert_allclose(got[..., 0], want0, rtol=1e-12, atol=1e-16)
    np.testing.assert_allclose(got[..., 1], want1, rtol=1e-12, atol=1e-16)


def test_tensor_quadrature_moments_match_moment_tensor():
    F = random_filtration(18, d=2, n_levels=4)
    tp = TensorProjector.for_level(F, 2, (2, 3))
    finest = [SplineSpace1D(ax.level(4), k) for ax, k in zip(F.axes, tp.orders)]
    f = lambda x, y: np.sin(x + 2 * y)
    got = restrict(basis_moments(f, finest, 5), finest, tp.spaces)
    # oracle: b_ij = sum over the node grid of w_x w_y N_i(x) N_j(y) f(x, y)
    rules = [atom_quadrature(s.partition, 5) for s in finest]
    (x, wx), (y, wy) = [(r.nodes.ravel(), r.weights.ravel()) for r in rules]
    Bx, By = (collocation_matrix(s, nodes) for s, nodes in zip(tp.spaces, (x, y)))
    want = np.einsum("p,q,pi,qj,pq->ij", wx, wy, Bx, By, f(x[:, None], y[None, :]))
    assert got.shape == tp.dims + (1,)
    np.testing.assert_allclose(got[..., 0], want, rtol=1e-13, atol=1e-16)
    # partition of unity: the moments sum to the integral over I^2
    atoms = [SplineSpace1D(s.partition, 1) for s in finest]
    assert got.sum() == pytest.approx(basis_moments(f, atoms, 5).sum(), rel=1e-13)


def _graded_axes():
    """Axes of 34 levels graded to the 1e-9 width floor toward 1.0, 0.37 and 0.0."""
    return graded_filtration(3).axes


def _refinement_oracle(coarse, fine):
    """T[i][j] with N_j = sum_i T[i][j] M_i in exact rational arithmetic: Boehm's
    algorithm inserts the fine breakpoints missing from the coarse knots one at a
    time, acting on the coefficient rows of the identity."""
    k = coarse.order
    t = [Fraction(x) for x in coarse.knots]
    T = [[Fraction(int(i == j)) for j in range(coarse.dimension)] for i in range(coarse.dimension)]
    have = set(coarse.partition.breakpoints.tolist())
    for x in map(Fraction, (x for x in fine.partition.breakpoints.tolist() if x not in have)):
        mu = max(i for i in range(len(t) - 1) if t[i] <= x < t[i + 1])
        new = []
        for i in range(len(T) + 1):
            if i <= mu - k + 1:
                new.append(T[i])
            elif i > mu:
                new.append(T[i - 1])
            else:
                a = (x - t[i]) / (t[i + k - 1] - t[i])
                new.append([(1 - a) * p + a * q for p, q in zip(T[i - 1], T[i])])
        T, t = new, t[:mu + 1] + [x] + t[mu + 1:]
    assert t == [Fraction(x) for x in fine.knots]
    return T


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_refinement_matches_exact_knot_insertion(k):
    # on meshes graded to the floor toward 0.0, 0.37 and 1.0 the map is exact to
    # a few ulps of its entries, which lie in [0, 1] and sum to 1 along each row
    for axis in _graded_axes():
        fine = SplineSpace1D(axis.level(axis.n_levels), k)
        for n in (1, 17, axis.n_levels - 1, axis.n_levels):
            coarse = SplineSpace1D(axis.level(n), k)
            first, vals = coarse.refinement(fine)
            assert first.shape == (fine.dimension,) and vals.shape == (fine.dimension, k)
            assert np.all(np.diff(first) >= 0)
            got = _basis_columns(first, vals, 0, coarse.dimension).T
            want = np.array(_refinement_oracle(coarse, fine), dtype=float)
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps, (k, n)
            # N_j = sum_i T[i, j] M_i at scattered points
            xs = np.sort(np.random.default_rng(n).uniform(0.0, 1.0, 500))
            np.testing.assert_allclose(collocation_matrix(fine, xs) @ got,
                                       collocation_matrix(coarse, xs), rtol=0, atol=1e-15)


def test_refinement_rejects_missing_breakpoint_and_other_order():
    coarse = SplineSpace1D(Partition1D([0.0, 0.5, 1.0]), 2)
    with pytest.raises(ValueError, match="misses breakpoints"):
        coarse.refinement(SplineSpace1D(Partition1D([0.0, 0.3, 1.0]), 2))
    with pytest.raises(ValueError, match="misses breakpoints"):
        coarse.refinement(SplineSpace1D(Partition1D([0.0, 0.5, 1.0, 2.0]), 2))
    with pytest.raises(ValueError, match="order-3 space does not refine an order-2"):
        coarse.refinement(SplineSpace1D(Partition1D([0.0, 0.25, 0.5, 1.0]), 3))
    # restricting moments takes the same checks
    off = SplineSpace1D(Partition1D([0.0, 0.3, 1.0]), 2)
    with pytest.raises(ValueError, match="misses breakpoints"):
        restrict(np.ones((off.dimension, 1)), [off], [coarse])
    with pytest.raises(ValueError, match="zip"):     # one space per axis
        restrict(np.ones((coarse.dimension, coarse.dimension, 1)), [coarse] * 2, [coarse])


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_basis_moments_match_dense_moments(seed):
    # orders 1-5, g in {1, k-1, k, k+1, 16}, d = 1-3, finest moments restricted to a
    # random level of random meshes, with one axis optionally graded to the 1e-9
    # width floor: the finest reduction sums the same node terms as dense
    # collocation, and the restriction is exact to roundoff
    rng = np.random.default_rng(seed)
    for d, target in itertools.product((1, 2, 3), (None, 0.0, float(rng.uniform(0, 1)))):
        F = random_filtration(seed, d=d, n_levels=4 - d)
        axes = list(F.axes)
        if target is not None:
            G = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=34,
                                                rules=[{"name": "point-targeted",
                                                        "target": target}]))
            axes[int(rng.integers(d))] = G.axes[0]
        levels = [int(rng.integers(1, ax.n_levels + 1)) for ax in axes]
        finest_parts = [ax.level(ax.n_levels) for ax in axes]
        for g in (1, 2, 3, 4, 5, 6, 16):

            def f(*xs):
                return np.stack(np.broadcast_arrays(1.5 + np.sin(3 * sum(xs)), 1.0 + xs[0] ** 2),
                                axis=-1)

            vals = node_grid_values(finest_parts, g, f)
            for k in [k for k in range(1, 6) if g in (1, k - 1, k, k + 1, 16)]:
                finest = [SplineSpace1D(p, k) for p in finest_parts]
                spaces = [SplineSpace1D(ax.level(n), k) for ax, n in zip(axes, levels)]
                got = restrict(basis_moments(f, finest, g), finest, spaces)
                want = dense_moments(finest_parts, g, spaces, vals)
                np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("m", [1, 3])
def test_blocked_against_matches_dense_moments(m, monkeypatch):
    # the restriction contracts blocks of finest basis rows; blocks of 5 and 7 rows
    # end inside the supports of coarse basis functions; spaces from level 1 to the
    # finest, on axes graded to the 1e-9 floor toward 1.0 and 0.37
    F = graded_filtration(2)
    finest = [ax.level(F.n_levels) for ax in F.axes]
    f = wavy_values(m)
    for g, orders in ((3, (2, 3)), (4, (4, 1)), (6, (5, 6))):
        vals = node_grid_values(finest, g, f)
        fine = [SplineSpace1D(p, k) for p, k in zip(finest, orders)]
        moments = basis_moments(f, fine, g)
        for level in (1, 3, 20, F.n_levels):
            spaces = [SplineSpace1D(ax.level(level), k) for ax, k in zip(F.axes, orders)]
            want = dense_moments(finest, g, spaces, vals)
            for block in (5, 7, bspline.CONTRACT_BLOCK_POINTS):
                monkeypatch.setattr(bspline, "CONTRACT_BLOCK_POINTS", block)
                got = restrict(moments, fine, spaces)
                assert got.shape == tuple(s.dimension for s in spaces) + (m,)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(),
                                           err_msg=f"g={g}, level {level}, block {block}")


def test_against_forms_no_dense_collocation_matrix():
    # 1,024 atoms at order 2 and 2 nodes per atom: dimension 1,025 and 2,048 nodes,
    # whose dense collocation matrix would take 1,025 * 2,048 * 8 bytes = 16.8 MB;
    # the moments and their restriction onto 512 atoms stay far below that
    fine = SplineSpace1D(Partition1D(np.linspace(0.0, 1.0, 1025)), 2)
    coarse = SplineSpace1D(Partition1D(np.linspace(0.0, 1.0, 513)), 2)
    tracemalloc.start()
    try:
        b = basis_moments(lambda x: 1.0 + x, [fine], 2)
        c = restrict(b, [fine], [coarse])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert b.shape == (1025, 1) and c.shape == (513, 1)
    # partition of unity: both sum to int (1 + x)
    assert b.sum() == pytest.approx(1.5, rel=1e-13)
    assert c.sum() == pytest.approx(1.5, rel=1e-13)


def test_counts_fail_closed():
    # orders and point counts are integers >= 1; numpy integers pass, floats,
    # strings and bools raise instead of being truncated or read as 1
    p = Partition1D([0.0, 0.5, 1.0])
    for bad in (2.5, "3", True, 0, None):
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            SplineSpace1D(p, bad)
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            knot_vector(p, bad)
        with pytest.raises(ValueError, match="points g must be an integer >= 1"):
            atom_quadrature(p, bad)
        with pytest.raises(ValueError, match="points g must be an integer >= 1"):
            basis_moments(np.ones_like, [SplineSpace1D(p, 2)], bad)
        with pytest.raises(ValueError, match="points n must be an integer >= 1"):
            atom_chebyshev(p, bad)
        with pytest.raises(ValueError, match="density_quad_points must be an integer >= 1"):
            HybridMeasure(d=1, density_quad_points=bad)
    with pytest.raises(ValueError, match="points g must be an integer >= 1"):
        basis_moments(np.ones_like, [SplineSpace1D(p, 2)], 2.7)
    with pytest.raises(ValueError, match="density_quad_points must be an integer >= 1"):
        measure_from_config({"density_quad_points": 4.5}, 1)
    space = SplineSpace1D(p, np.int64(3))
    assert space.order == 3 and type(space.order) is int
    atoms = [SplineSpace1D(p, 1)]
    assert np.array_equal(basis_moments(np.ones_like, atoms, np.int32(2)),
                          basis_moments(np.ones_like, atoms, 2))
    assert measure_from_config({"density_quad_points": 4}, 1).density_quad_points == 4
    F = random_filtration(4, d=2, n_levels=3)
    assert TensorProjector.for_level(F, 2, np.int64(2)).orders == (2, 2)
    assert TensorProjector.for_level(F, 2, (np.int64(2), 3)).orders == (2, 3)
    with pytest.raises(ValueError, match="order must be an integer >= 1"):
        TensorProjector.for_level(F, 2, 2.0)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadrature_bit_identical_for_every_slab_size(d, m, monkeypatch):
    # a slab of axis-0 atoms yields exactly its own rows of every per-axis
    # contraction, so one atom per slab and a ragged last slab give the
    # single-slab reduction bit for bit, on meshes graded to the floor
    F = graded_filtration(d)
    finest = [ax.level(F.n_levels) for ax in F.axes]
    g = (6, 4, 3)[d - 1]
    spaces = [SplineSpace1D(p, k) for p, k in zip(finest, (3, 2, 1)[:d])]
    f = wavy_values(m)
    vals = node_grid_values(finest, g, f)
    want_integrals = dense_atom_integrals(finest, g, vals)
    assert want_integrals.shape == F.level_shape(F.n_levels) + (m,)
    sizes = slab_sizes(finest, g)
    monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", sizes.pop("one slab"))
    want_moments = basis_moments(f, spaces, g)
    np.testing.assert_allclose(want_moments, dense_moments(finest, g, spaces, vals), rtol=1e-13)
    atoms = [SplineSpace1D(p, 1) for p in finest]
    assert np.array_equal(basis_moments(f, atoms, g), want_integrals)
    for label, nbytes in sizes.items():
        monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", nbytes)
        assert np.array_equal(basis_moments(f, atoms, g), want_integrals), label
        assert np.array_equal(basis_moments(f, spaces, g), want_moments), label


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_pass_moments_keep_the_bits_of_the_two_passes(d, monkeypatch):
    # d = 1 at orders 1-4, and any axis-0 order with order-1 axes after it: the slabs run
    # from the last to the first, so every basis row adds its atoms' terms in the order of
    # one scatter of the whole grid, for one atom per slab, a ragged last slab and a
    # single slab, on a random mesh and on one graded to the 1e-9 width floor
    g = (5, 3, 2)[d - 1]
    for F in (random_filtration(10 + d, d=d, n_levels=(6, 4, 3)[d - 1]), graded_filtration(d)):
        finest = [ax.level(F.n_levels) for ax in F.axes]
        for k, m in itertools.product((1, 2, 3, 4), (1, 3)):
            spaces = [SplineSpace1D(finest[0], k)] + [SplineSpace1D(p, 1) for p in finest[1:]]
            f = wavy_values(m)
            for label, nbytes in slab_sizes(finest, g).items():
                monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", nbytes)
                assert np.array_equal(basis_moments(f, spaces, g),
                                      two_pass_moments(f, spaces, g)), (k, m, label)


@pytest.mark.parametrize("orders", [(1, 2), (2, 2), (4, 3), (1, 1, 3), (3, 2, 2)])
def test_one_pass_moments_near_the_two_passes_with_later_orders_above_1(orders, monkeypatch):
    # an axis l >= 1 of order >= 2 is scattered before axis 0 now, which moves the last
    # bit; entries that cancel are held to a floor relative to the largest moment
    d = len(orders)
    g = 3
    for F in (random_filtration(20 + d, d=d, n_levels=(4, 3)[d - 2]), graded_filtration(d)):
        finest = [ax.level(F.n_levels) for ax in F.axes]
        spaces = [SplineSpace1D(p, k) for p, k in zip(finest, orders)]
        for m in (1, 3):
            f = wavy_values(m)
            for label, nbytes in slab_sizes(finest, g).items():
                monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", nbytes)
                got, want = basis_moments(f, spaces, g), two_pass_moments(f, spaces, g)
                np.testing.assert_allclose(got, want, rtol=1e-14,
                                           atol=1e-15 * np.abs(want).max(), err_msg=label)


@pytest.mark.parametrize("d, atoms", [(2, 256), (3, 32)])
def test_moments_of_a_plain_callable_hold_no_local_tensor(d, atoms):
    # order 3 and 4 points per atom: the result takes 0.53 MB in d = 2 and 0.31 MB in
    # d = 3, while the local moments of the whole grid, (3 atoms)^d rows, would take
    # 4.7 MB and 7.1 MB; the peak stays below 3 MB
    space = SplineSpace1D(Partition1D(np.linspace(0.0, 1.0, atoms + 1)), 3)
    f = lambda *x: 1.5 + np.sin(3 * sum(x))     # noqa: E731
    tracemalloc.start()
    try:
        b = basis_moments(f, [space] * d, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.shape == (atoms + 2,) * d + (1,)
    assert peak < 3_000_000, peak


def counting(f, sizes):
    """f, recording the number of grid nodes of every call in `sizes`."""
    def wrapped(*grids):
        sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(x) for x in grids)))))
        return f(*grids)

    return wrapped


@pytest.mark.parametrize("slab", [None, 1, 50, 1000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_integrand_never_sees_more_than_a_slab(d, slab, monkeypatch):
    # the whole node grid (here up to 8x the default slab) is never evaluated at once;
    # a single axis-0 atom wider than the slab is the smallest unit
    if slab is not None:
        monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", 8 * slab)
    F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=(10, 8, 5)[d - 1]))
    parts, g = [ax.level(F.n_levels) for ax in F.axes], 4
    shape = [g * p.n_atoms for p in parts]
    bound = max(bspline.CACHE_BLOCK_BYTES // 8, g * int(np.prod(shape[1:])))
    total = int(np.prod(shape))
    spaces = [SplineSpace1D(p, 2) for p in parts]
    atoms = [SplineSpace1D(p, 1) for p in parts]
    for reduce in (lambda f: basis_moments(f, atoms, g),
                   lambda f: basis_moments(f, spaces, g)):
        sizes = []
        reduce(counting(wavy_values(3), sizes))
        assert max(sizes) <= bound and sum(sizes) == total
        assert len(sizes) > 1 or total <= bound


@pytest.mark.parametrize("d", [1, 2])
def test_quadrature_fails_closed_on_the_last_slab(d, monkeypatch):
    # a bad value or shape that only the last slab sees still raises; the slabs run
    # from the last axis-0 atom to the first, so the first atom's slab is the last;
    # 16 nodes are 4 atoms of 4 nodes in d = 1 and less than one atom in d = 2, so
    # the 16 atoms of axis 0 take 4 and 16 slabs
    monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", 8 * 16)
    F = build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=4))
    parts = [ax.level(4) for ax in F.axes]
    spaces = [SplineSpace1D(p, 2) for p in parts]
    atoms = [SplineSpace1D(p, 1) for p in parts]
    first = parts[0].breakpoints[1]

    def nan_at_start(*xs):
        return np.where(xs[0] < first, np.nan, wavy_values(1)(*xs))

    def short_at_start(*xs):
        out = wavy_values(1)(*xs)
        return out[:-1] if xs[0].min() < first else out

    for f, match in ((nan_at_start, "non-finite"), (short_at_start, "shape")):
        for reduce in (lambda f: basis_moments(f, atoms, 4),
                       lambda f: basis_moments(f, spaces, 4),
                       lambda f: source_moments(f, spaces)):
            sizes = []
            with pytest.raises(ValueError, match=match):
                reduce(counting(f, sizes))
            assert len(sizes) == {1: 4, 2: 16}[d]


def test_atom_chebyshev_points_on_each_atom():
    p = random_filtration(19, n_levels=4).axes[0].level(4)
    xs = atom_chebyshev(p, 5)
    lo, hi = p.breakpoints[:-1, None], p.breakpoints[1:, None]
    assert xs.shape == (p.n_atoms, 5)
    assert np.all((xs > lo) & (xs < hi))
    t = (2 * (xs - lo) / (hi - lo)) - 1
    # the Chebyshev nodes of the first kind are the roots of T_5
    np.testing.assert_allclose(np.cos(5 * np.arccos(np.clip(t, -1, 1))), 0.0, atol=1e-9)
