import itertools
import tracemalloc

import numpy as np
import pytest

from splinelab import (
    AtomSet,
    FiltrationSpec,
    HybridMeasure,
    Partition1D,
    build_filtration,
    compile_masses,
    covering_constant,
    covering_report,
    hl_maximal,
    maximal_field,
    superlevel_measure,
    covering_series_bound,
    weak_series_total,
)
from splinelab import bspline
from splinelab.maximal import (
    SERIES_MAX_TERMS,
    _axis_product,
    _spread,
    hl_weak_type_ratio,
    level_sum_field,
    weak_series_tail,
)

from conftest import (atom_distance, atom_set_from_mask, b_term, finest_grid_max_field, level_sum,
                      measure_of_atom, per_entry_axis_kernel, random_filtration,
                      spread_then_max_field, truncated, whole_level)


def lebesgue(d):
    def dens(*grids):
        return np.broadcast_arrays(*grids)[0] * 0.0 + 1.0

    return HybridMeasure(d=d, density=dens, density_quad_points=4)


def brute_level_sum(q, theta, F, n, x):
    """Direct double loop over atoms; the vectorized path must agree."""
    from splinelab import atom_of

    i, _ = atom_of(F, n, x)
    total = 0.0
    for idx in np.ndindex(*F.level_shape(n)):
        rect = F.atom_rectangle(n, idx)
        mass = measure_of_atom(theta, rect).value[0]
        s = atom_distance(F, n, idx, i)
        conv = 1.0
        for ell in range(F.d):
            bp = F.axes[ell].level(n).breakpoints
            conv *= bp[max(idx[ell], i[ell]) + 1] - bp[min(idx[ell], i[ell])]
        total += q ** s / conv * mass
    return total


def test_b_term_distance_zero_identity(dyadic_1d):
    theta = lebesgue(1)
    val = b_term(0.5, theta, dyadic_1d, 2, (1,), [0.3])
    assert val == pytest.approx(1.0, abs=1e-12)  # q^0 * |A| / |A|


def test_b_term_q_zero_off_atom(dyadic_1d):
    theta = lebesgue(1)
    assert b_term(0.0, theta, dyadic_1d, 2, (3,), [0.3]) == 0.0


def test_b_term_dirac_hull(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.05]), np.array([1.0]))])
    # level 3: h = 1/8; dirac in atom 0, x in atom s -> q^s / ((s+1) h)
    q, h = 0.5, 0.125
    for s in range(1, 6):
        x = [h * s + h / 2]
        val = b_term(q, theta, dyadic_1d, 3, (0,), x)
        assert val == pytest.approx(q ** s / ((s + 1) * h), rel=1e-12)


def test_b_term_rejects_signed(dyadic_1d):
    theta = HybridMeasure(d=1, density=lambda x: -np.ones_like(x), density_quad_points=2)
    with pytest.raises(ValueError):
        b_term(0.5, theta, dyadic_1d, 1, (0,), [0.3])


def test_level_sum_two_atom_case(dyadic_1d):
    # frozen oracle: atoms (0,.5], (.5,1], theta = lambda, q = 1/2:
    # own atom gives 1, the other gives (1/2) * (1/2) / 1 = 0.25
    theta = lebesgue(1)
    for x in ([0.2], [0.4999]):
        val = level_sum(0.5, theta, dyadic_1d, 1, x)
        assert val == pytest.approx(1.25, abs=1e-12)


def test_level_sum_dirac_single_term(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.05]), np.array([1.0]))])
    got = level_sum(0.7, theta, dyadic_1d, 3, [0.7])
    assert got == pytest.approx(b_term(0.7, theta, dyadic_1d, 3, (0,), [0.7]), rel=1e-12)


def test_level_sum_constant_on_atoms(dyadic_2d):
    theta = HybridMeasure(
        d=2,
        density=lambda x, y: 1.0 + 0.3 * np.sin(5 * x) * np.cos(3 * y),
        diracs=[(np.array([0.3, 0.6]), np.array([1.0]))],
        density_quad_points=4,
    )
    masses = compile_masses(theta, dyadic_2d)
    rect = dyadic_2d.atom_rectangle(2, (1, 2))
    xs = np.linspace(rect.lo[0], rect.hi[0], 5)[1:4]
    ys = np.linspace(rect.lo[1], rect.hi[1], 5)[1:4]
    vals = {level_sum(0.5, masses, dyadic_2d, 2, [x, y]) for x, y in zip(xs, ys)}
    assert max(vals) - min(vals) <= 1e-12


def test_level_sum_matches_brute_force():
    F = random_filtration(11, d=2, n_levels=3)
    theta = HybridMeasure(
        d=2,
        density=lambda x, y: 1.0 + x + 0 * y,
        diracs=[(np.array([0.4, 0.8]), np.array([0.7]))],
        density_quad_points=6,
    )
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for _ in range(3):
            x = rng.uniform(0.01, 0.99, 2)
            got = level_sum(0.6, theta, F, n, x)
            want = brute_level_sum(0.6, theta, F, n, x)
            assert got == pytest.approx(want, rel=1e-9)


def test_maximal_field_single_level(dyadic_1d):
    # K at the finest level of a filtration cut after level 2: one level's sums
    field1 = maximal_field(0.5, compile_masses(lebesgue(1), truncated(dyadic_1d, 2)), K=2)
    direct = level_sum_field(0.5, compile_masses(lebesgue(1), dyadic_1d), 2)
    np.testing.assert_allclose(field1.values, direct, atol=1e-14)


def test_maximal_field_monotone_in_depth(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.37]), np.array([1.0]))])
    prev = None
    for N in range(1, 6):
        f = maximal_field(0.5, compile_masses(theta, truncated(dyadic_1d, N)), K=1)
        values = _spread(f.values, dyadic_1d.parent_maps(5, N))
        if prev is not None:
            assert np.all(values >= prev - 1e-15)
        prev = values


def test_maximal_field_dirac_peak(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.37]), np.array([1.0]))])
    f = maximal_field(0.5, compile_masses(theta, dyadic_1d), K=1)
    finest = dyadic_1d.axes[0].level(5)
    j = int(finest.atom_index_of(np.array([0.37]))[0])
    assert f.values[j] == pytest.approx(1.0 / finest.widths[j], rel=1e-12)


def test_maximal_field_invalid_range(dyadic_1d):
    for K in (0, 3):
        with pytest.raises(ValueError, match="invalid level range"):
            maximal_field(0.5, compile_masses(lebesgue(1), truncated(dyadic_1d, 2)), K=K)


def test_superlevel_measure_basics(dyadic_1d):
    f = maximal_field(0.5, compile_masses(lebesgue(1), dyadic_1d), K=1)
    everywhere = whole_level(dyadic_1d)
    top = float(f.values.max())
    assert superlevel_measure(f, top * 1.01, everywhere) == 0.0
    assert superlevel_measure(f, 1e-12, everywhere) == pytest.approx(1.0)
    ts = np.linspace(1e-3, top * 1.1, 30)
    vols = [superlevel_measure(f, t, everywhere) for t in ts]
    assert all(a >= b - 1e-15 for a, b in zip(vols, vols[1:]))
    with pytest.raises(ValueError):
        superlevel_measure(f, 0.0, everywhere)


def test_covering_series_bound_saturated_set(dyadic_2d):
    theta = lebesgue(2)
    shape = dyadic_2d.level_shape(2)
    whole = atom_set_from_mask(2, np.ones(shape, dtype=bool))
    got = covering_series_bound(compile_masses(theta, dyadic_2d), whole, 0.5)
    # A_{K,s}(I^d) = I^d for every s: series is theta(I^d) * sum q^{s/2} (s+1)
    rho = np.sqrt(0.5)
    series = sum(rho ** s * (s + 1) for s in range(2000))
    assert got.total == pytest.approx(series, rel=1e-10)


def test_covering_series_bound_zero_measure(dyadic_1d):
    theta = HybridMeasure(d=1, density=lambda x: np.zeros_like(x), density_quad_points=2)
    B = AtomSet(level=2, members=frozenset({(0,)}))
    got = covering_series_bound(compile_masses(theta, dyadic_1d), B, 0.5)
    assert got.total == 0.0


def test_covering_series_bound_matches_brute_force(dyadic_1d):
    # d=1, level with 4 atoms, B = leftmost atom, theta = lambda
    theta = lebesgue(1)
    B = AtomSet(level=2, members=frozenset({(0,)}))
    got = covering_series_bound(compile_masses(theta, dyadic_1d), B, 0.49)
    rho = np.sqrt(0.49)
    # neighborhoods of the leftmost of 4 atoms: s atoms to the right
    want = sum(rho ** s * min((s + 1) * 0.25, 1.0) for s in range(6000))
    assert got.total == pytest.approx(want, rel=1e-10)
    assert got.tail <= 1e-10 * got.partial


def test_weak_series_tail_is_upper_bound():
    for q in (0.3, 0.5, 0.8):
        for d in (1, 2, 3):
            rho = np.sqrt(q)
            for R in (0, 3, 10):
                exact_tail = sum((s + 1) ** (d - 1) * rho ** s for s in range(R + 1, 4000))
                assert weak_series_tail(q, d)(R) >= exact_tail
    assert weak_series_tail(0.0, 2)(0) == 0.0
    # at d = 1 the general majorant takes c_eta = 1.0: the tail is eta^(R+1) / (1 - eta)
    for q in list(np.linspace(0.01, 0.99, 25)) + [1e-12, 0.999999, 1 - 1e-12]:
        eta = (1.0 + np.sqrt(q)) / 2.0
        for R in (-1, 0, 1, 3, 10, 100, 1000):
            assert weak_series_tail(q, 1)(R) == float(1.0 * eta ** (R + 1) / (1.0 - eta))


def test_weak_series_total_majorizes():
    for q, d in itertools.product((0.3, 0.8), (1, 2)):
        rho = np.sqrt(q)
        exact = sum((s + 1) ** (d - 1) * rho ** s for s in range(4000))
        tot = weak_series_total(q, d)
        assert exact <= tot <= exact * (1 + 1e-9)


def test_series_loops_raise_at_their_cap(dyadic_2d):
    # at q = 0.99999 both series need about 10^7 terms: weak_series_total
    # stopped silently after 100,001 of them, and covering_series_bound ran
    # for 16.6 s; both now raise at SERIES_MAX_TERMS, naming q and d
    with pytest.raises(ValueError, match=f"q = 0.99999, d = 2 .* SERIES_MAX_TERMS = "
                                         f"{SERIES_MAX_TERMS} terms"):
        weak_series_total(0.99999, 2)
    whole = atom_set_from_mask(2, np.ones(dyadic_2d.level_shape(2), dtype=bool))
    with pytest.raises(ValueError, match="q = 0.99999, d = 2 .* SERIES_MAX_TERMS"):
        covering_series_bound(compile_masses(lebesgue(2), dyadic_2d), whole, 0.99999)
    # a sum that converges within the cap is unchanged
    assert weak_series_total(0.99, 2) > 0.0


def test_covering_bound_holds_on_small_sweep():
    for seed in range(6):
        d = 1 + seed % 2
        F = random_filtration(seed, d=d, n_levels=5)
        rng = np.random.default_rng(seed)
        theta = HybridMeasure(
            d=d,
            density=lambda *g: np.broadcast_arrays(*g)[0] * 0.0 + 1.0,
            diracs=[(rng.uniform(0.1, 0.9, d), np.array([1.0]))],
            density_quad_points=4,
        )
        masses = compile_masses(theta, F)
        shape = F.level_shape(2)
        B = AtomSet(level=2, members=frozenset({tuple(0 for _ in shape)}))
        for q in (0.3, 0.8):
            field_ = maximal_field(q, masses, K=2)
            ts = np.logspace(-2, np.log10(field_.values.max() * 1.2), 12)
            rep = covering_report(field_, B, ts)
            assert rep.max_ratio <= 1.0
            assert rep.violations == []


def test_covering_dirac_far_from_B(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.95]), np.array([1.0]))])
    B = AtomSet(level=3, members=frozenset({(0,)}))
    masses = compile_masses(theta, dyadic_1d)
    field_ = maximal_field(0.5, masses, K=3)
    # far from the Dirac the field is small: LHS restricted to B vanishes for large t
    assert superlevel_measure(field_, 10.0, within=B) == 0.0
    rep = covering_report(field_, B, np.array([10.0, 100.0]))
    assert np.all(rep.lhs_volumes == 0.0)


def test_hl_maximal_constant():
    part = Partition1D(np.linspace(0, 1, 9))
    field = hl_maximal(np.full(8, 3.0 / 8), part)    # |f| = 3 on 8 atoms of width 1/8
    np.testing.assert_allclose(field, 3.0, atol=1e-13)


def test_hl_maximal_half_indicator():
    part = Partition1D([0.0, 0.5, 1.0])
    field = hl_maximal(np.array([0.5, 0.0]), part)   # |f| = indicator of (0, 1/2]
    np.testing.assert_allclose(field, [1.0, 0.5], atol=1e-13)


def test_hl_weak_type_constant_on_spikes():
    part = Partition1D(np.linspace(0, 1, 65))
    rng = np.random.default_rng(2)
    t_grid = np.logspace(-2, 2.5, 60)
    for _ in range(10):
        j = int(rng.integers(0, 64))
        lo, hi = part.breakpoints[j], part.breakpoints[j + 1]

        def spike(x, lo=lo, hi=hi):
            return ((x > lo) & (x <= hi)).astype(float) / (hi - lo)

        ratio, _ = hl_weak_type_ratio(spike, part, t_grid, g=4)
        assert ratio <= 3.0 + 1e-12


def test_reports_violation_rather_than_silence(dyadic_1d):
    # with a falsified constant the report must surface the failure
    theta = lebesgue(1)
    masses = compile_masses(theta, dyadic_1d)
    shape = F_shape = dyadic_1d.level_shape(1)
    B = atom_set_from_mask(1, np.ones(F_shape, dtype=bool))
    rep = covering_report(maximal_field(0.5, masses, K=1), B, np.array([1e-6]))
    assert rep.max_ratio <= 1.0
    fake = rep.lhs_volumes / (rep.rhs_bounds * 0 + 1e-9)
    assert fake.max() > 1.0  # sanity: the check is not vacuous


def test_spline_domination_by_level_sum():
    # ||P_n f(x)|| <= C_k * level_sum(q_hat, |f| dlambda, n, x) with
    # C_k = c_env * k * q_hat^{-k} from the measured decay profile
    from splinelab import SplineSpace1D, TensorProjector
    from splinelab.projector import GramSystem, decay_profile

    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=6))
    k = 2
    f = lambda x: np.sin(5 * x) - 0.3
    theta = HybridMeasure(d=1, density=lambda x: np.abs(f(x)), density_quad_points=8)
    masses = compile_masses(theta, F)
    rng = np.random.default_rng(0)
    xs = rng.uniform(1e-6, 1, 40)
    for n in (2, 4, 6):
        space = SplineSpace1D(F.axes[0].level(n), k)
        prof = decay_profile(GramSystem(space))
        c_k = prof.c_env * k * prof.q_hat ** (-k)
        tp = TensorProjector.for_level(F, n, k)
        pn = tp.project(f, g=8)
        vals = np.abs(pn.eval_many(xs[:, None])[:, 0])
        bounds = np.array([c_k * level_sum(prof.q_hat, masses, F, n, [x]) for x in xs])
        assert np.all(vals <= bounds * (1 + 1e-9))


def test_singular_part_quantitative_decay():
    # ||P_n nu_s(y)|| <= c_env * q_hat^{d_n - k + 1} / |conv(A(x0) u A(y))|
    from splinelab import SplineSpace1D, TensorProjector, atom_of
    from splinelab.projector import GramSystem, decay_profile

    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=7))
    k = 2
    x0 = 0.308
    sing = HybridMeasure(d=1, diracs=[(np.array([x0]), np.array([1.0]))])
    rng = np.random.default_rng(3)
    ys = rng.uniform(1e-6, 1, 50)
    for n in (3, 5, 7):
        space = SplineSpace1D(F.axes[0].level(n), k)
        prof = decay_profile(GramSystem(space))
        tp = TensorProjector.for_level(F, n, k)
        pn = tp.project(sing)
        vals = np.abs(pn.eval_many(ys[:, None])[:, 0])
        bp = F.axes[0].level(n).breakpoints
        i0, _ = atom_of(F, n, [x0])
        for y, v in zip(ys, vals):
            iy, _ = atom_of(F, n, [y])
            s = abs(iy[0] - i0[0])
            conv = bp[max(iy[0], i0[0]) + 1] - bp[min(iy[0], i0[0])]
            bound = prof.c_env * prof.q_hat ** max(s - k + 1, 0) / conv
            assert v <= bound * (1 + 1e-9)


def test_nan_density_rejected_before_covering_series():
    # a NaN total keeps covering_series_bound's stopping test false forever
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=3))
    theta = HybridMeasure(d=2, density=lambda x, y: np.full(np.broadcast(x, y).shape, np.nan))
    B = AtomSet(level=1, members=frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="non-finite"):
        covering_report(maximal_field(0.5, compile_masses(theta, F), K=1), B, [1.0, 10.0])


def test_non_finite_dirac_rejected_at_construction():
    # a NaN Dirac mass made covering_series_bound spin on a NaN partial sum;
    # the measure now refuses it before any series is summed
    with pytest.raises(ValueError, match="not finite"):
        HybridMeasure(d=2, diracs=[(np.array([0.3, 0.6]), np.array([np.nan]))])
    with pytest.raises(ValueError, match="not finite"):
        HybridMeasure(d=2, diracs=[(np.array([0.3, np.nan]), np.array([1.0]))])
    with pytest.raises(ValueError, match="not finite"):
        HybridMeasure(d=1, m=2, diracs=[(np.array([0.3]), np.array([1.0, np.inf]))])


@pytest.mark.parametrize("call", [lambda: covering_constant(0.5, 2.5),
                                  lambda: weak_series_total(0.5, 0),
                                  lambda: weak_series_total(0.5, True)],
                         ids=["covering_constant-2.5", "weak_series_total-0",
                              "weak_series_total-True"])
def test_series_constants_require_an_integer_dimension(call):
    # these once returned 689.2 and two numbers for dimensions no space has
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        call()


def test_covering_report_rejects_an_empty_threshold_grid(dyadic_1d):
    # an empty grid once gave max_ratio 0.0, a passing check that checked nothing
    B = AtomSet(level=2, members=frozenset({(0,), (1,)}))
    field_ = maximal_field(0.5, compile_masses(lebesgue(1), dyadic_1d), K=2)
    with pytest.raises(ValueError, match="empty threshold grid"):
        covering_report(field_, B, [])


def test_covering_bound_rejects_nan_threshold(dyadic_1d):
    theta = HybridMeasure(d=1, density=lambda x: np.ones_like(x))
    B = AtomSet(level=2, members=frozenset({(0,), (1,)}))
    field_ = maximal_field(0.5, compile_masses(theta, dyadic_1d), K=2)
    with pytest.raises(ValueError, match="threshold"):
        covering_report(field_, B, [np.nan, 1e-3])


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_superlevel_measure_rejects_non_positive_or_non_finite(dyadic_1d, t):
    field = maximal_field(0.5, compile_masses(lebesgue(1), dyadic_1d))
    with pytest.raises(ValueError, match="threshold"):
        superlevel_measure(field, t, whole_level(dyadic_1d))


@pytest.mark.parametrize("q", [np.nan, 1.5, -0.5, 1.0])
def test_invalid_q_rejected(q):
    # a NaN q once gave an all-NaN field whose superlevel volume read 0.0, and
    # the covering constant of q = 1.5 read -17.8
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=4))
    theta = lebesgue(1)
    for call in (lambda: covering_constant(q, 1),
                 lambda: maximal_field(q, compile_masses(theta, F)),
                 lambda: level_sum(q, theta, F, 2, [0.3]),
                 lambda: level_sum_field(q, compile_masses(theta, F), 2),
                 lambda: b_term(q, theta, F, 2, (1,), [0.3])):
        with pytest.raises(ValueError, match="q must lie"):
            call()


@pytest.mark.parametrize("q", [0.0, 0.3, 0.8])
def test_axis_kernel_matches_per_entry_oracle(q, monkeypatch):
    rng = np.random.default_rng(17)
    meshes = [np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))]) for n in (1, 2, 7, 40)]
    meshes += [random_filtration(s, n_levels=7).axes[0].level(7).breakpoints for s in (0, 1)]
    # halving the atom that holds 0.3 at every level grades the mesh down to the width floor
    graded = build_filtration(FiltrationSpec(
        d=1, interval=(0.0, 1.0), n_levels=40, rules=[{"name": "point-targeted", "target": 0.3}]))
    fine = graded.axes[0].level(40).breakpoints
    assert np.diff(fine).min() < 2e-9
    meshes.append(fine)
    meshes.append(np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 1.0, 150))]))
    for bp in meshes:
        n = len(bp) - 1
        part = Partition1D(bp)
        want = per_entry_axis_kernel(bp, q)
        # X as a d = 1 level sum contracts it (one column) and as the two axes of
        # a d = 2 one do (C and Fortran order); times the identity it is K itself
        X = rng.uniform(0.0, 1.0, (n, 5))
        operands = [X[:, :1], X, np.asfortranarray(X)]
        # blocks of 8 and of 16 rows, and one block of the whole kernel (blocks
        # are whole multiples of 8 rows); all but the three smallest meshes cross
        # at least three blocks of 8 rows
        assert n < 8 or n > 2 * 8
        for rows in (8, 16, -(-n // 8) * 8):
            monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", 8 * n * rows)
            assert np.array_equal(_axis_product(part, q, np.eye(n)), want)
            for Y in operands:
                assert np.array_equal(_axis_product(part, q, Y), want @ Y)


def test_maximal_field_holds_no_square_kernel():
    # three q on 2,048 finest atoms: a whole 2,048^2 kernel or conv-length
    # matrix takes 33.6 MB, and row blocks of CACHE_BLOCK_BYTES keep the traced
    # peak near 1.2 MB
    rule = {"name": "random-atom-bisect", "p_split": 1.0, "split_range": [0.35, 0.65],
            "base_atoms": 1}
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=11, rules=[rule],
                                        seed=0))
    assert F.level_shape(11) == (2048,)
    masses = compile_masses(HybridMeasure(
        d=1, density=lambda x: 1.0 + 0.5 * np.sin(3 * x),
        diracs=[(np.array([0.3]), np.array([1.0]))], density_quad_points=4), F)
    tracemalloc.start()
    try:
        for q in (0.3, 0.5, 0.8):
            maximal_field(q, masses, K=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("d, n_levels", [(1, 9), (2, 6), (3, 5)])
def test_maximal_field_maxes_in_place_as_a_fresh_level_sum_does(d, n_levels, monkeypatch):
    # the last axis product maxed into the running max block by block keeps every bit
    # of np.maximum with a whole level sum, with row blocks of 8 (several on the finest
    # levels) and with the default blocks
    F = random_filtration(40 + d, d=d, n_levels=n_levels)
    assert min(F.level_shape(n_levels)) > 2 * 8
    rng = np.random.default_rng(d)
    masses = compile_masses(HybridMeasure(
        d=d, density=lambda *g: 1.0 + 0.5 * np.sin(3 * g[0]) * np.broadcast_arrays(*g)[-1],
        diracs=[(rng.uniform(0.1, 0.9, d), np.array([0.8]))], density_quad_points=3), F)
    for block_bytes in (1, bspline.CACHE_BLOCK_BYTES):
        monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", block_bytes)
        for q in (0.0, 0.3, 0.8):
            for K in (1, 2):
                assert np.array_equal(maximal_field(q, masses, K=K).values,
                                      spread_then_max_field(q, masses, K))


def test_level_sum_field_into_refuses_a_layout_it_cannot_write_through():
    # the last axis must come to the front as a view of `into`, never a copy that
    # would swallow the writes
    F = random_filtration(3, d=3, n_levels=3)
    masses = compile_masses(lebesgue(3), F)
    running = np.zeros(F.level_shape(3), order="F")
    with pytest.raises(ValueError, match="copy"):
        level_sum_field(0.5, masses, 3, into=running)
    into = np.zeros(F.level_shape(3))
    assert level_sum_field(0.5, masses, 3, into=into) is into
    assert np.array_equal(into, level_sum_field(0.5, masses, 3))


def test_maximal_field_holds_no_level_sum_beside_the_running_max():
    # d = 2 at depth 9 (512^2 atoms): besides the masses, a field holds its running max,
    # the level's axis-0 product and two row blocks; a whole level sum beside the
    # running max would be a third field (2.1 MB)
    rule = {"name": "random-atom-bisect", "p_split": 1.0, "split_range": [0.35, 0.65],
            "base_atoms": 1}
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=9, rules=[rule] * 2,
                                        seed=0))
    assert F.level_shape(9) == (512, 512)
    theta = HybridMeasure(d=2, density=lambda x, y: 1.0 + 0.5 * np.sin(3 * (x + y)),
                          diracs=[(np.full(2, 0.3), np.array([1.0]))], density_quad_points=4)
    tracemalloc.start()
    try:
        masses = compile_masses(theta, F)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        field_ = maximal_field(0.5, masses, K=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slack = 750_000    # the block's diagonal part and the per-axis vectors
    assert peak < held + 2 * field_.values.nbytes + 2 * bspline.CACHE_BLOCK_BYTES + slack


def test_fields_on_a_shared_filtration_equal_fields_on_fresh_copies():
    # fields share the filtration and its partitions across q and measures;
    # sharing them must not change a bit
    def setup():
        F = random_filtration(9, d=2, n_levels=6)
        return F, [compile_masses(HybridMeasure(
            d=2, density=lambda x, y, c=c: c + x * np.broadcast_arrays(x, y)[1],
            diracs=[(np.array([0.3, 0.7]), np.array([c]))], density_quad_points=3), F)
            for c in (0.5, 2.0)]

    F, shared = setup()
    for q in (0.3, 0.5, 0.8):
        for i, masses in enumerate(shared):
            _, fresh = setup()
            assert np.array_equal(maximal_field(q, masses, K=2).values,
                                  maximal_field(q, fresh[i], K=2).values)


@pytest.mark.parametrize("d, n_levels, K, N_max",
                         [(1, 7, 2, 7), (1, 7, 3, 5), (2, 5, 2, 4), (3, 4, 2, 3)])
def test_maximal_field_matches_finest_grid_running_max(d, n_levels, K, N_max):
    # the sup truncated at level N_max is the field of the filtration cut there
    F = truncated(random_filtration(20 + d, d=d, n_levels=n_levels), N_max)
    rng = np.random.default_rng(d)
    theta = HybridMeasure(
        d=d,
        density=lambda *g: 1.0 + 0.5 * np.sin(3 * g[0]) * np.broadcast_arrays(*g)[-1],
        diracs=[(rng.uniform(0.1, 0.9, d), np.array([0.8]))],
        density_quad_points=3,
    )
    masses = compile_masses(theta, F)
    field_ = maximal_field(0.6, masses, K=K)
    assert np.array_equal(field_.values, finest_grid_max_field(0.6, masses, K))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spread_matches_ix_gather(d):
    # nested parent maps are nondecreasing runs, so repeating by the run lengths
    # is the np.ix_ gather bit for bit, for every pair of levels
    F = random_filtration(30 + d, d=d, n_levels=(8, 5, 4)[d - 1])
    N = F.n_levels
    rng = np.random.default_rng(d)
    for m in range(1, N + 1):
        values = rng.standard_normal(F.level_shape(m))
        for n in range(m, N + 1):
            maps = F.parent_maps(n, m)
            for v in (values, values > 0):
                got = _spread(v, maps)
                assert got.dtype == v.dtype and np.array_equal(got, v[np.ix_(*maps)])
    theta = HybridMeasure(d=d, density=lambda *g: 1.0 + 0.5 * np.sin(5 * sum(g)),
                          diracs=[(rng.uniform(0.1, 0.9, d), np.array([0.8]))],
                          density_quad_points=3)
    for Ft in (truncated(F, N - 1), F):
        masses = compile_masses(theta, Ft)
        vols = Ft.atom_volumes(Ft.n_levels)
        field_ = maximal_field(0.4, masses, K=1)
        assert np.array_equal(field_.values, finest_grid_max_field(0.4, masses, 1))
        top = field_.values.max()
        ts = np.logspace(np.log10(top) - 2, np.log10(top), 9)
        for K in (1, 2):
            mask = rng.random(Ft.level_shape(K)) < 0.5
            mask.flat[0] = True
            B = atom_set_from_mask(K, mask)
            sel = B.mask(Ft.level_shape(K))[np.ix_(*Ft.parent_maps(Ft.n_levels, K))]
            want = [vols[sel][field_.values[sel] > t].sum() for t in ts]
            assert np.array_equal(superlevel_measure(field_, ts, within=B), want)


def test_superlevel_measure_threshold_array_matches_scalar_loop():
    F = random_filtration(4, d=2, n_levels=5)
    masses = compile_masses(lebesgue(2), F)
    field_ = maximal_field(0.5, masses, K=2)
    top = field_.values.max()
    # a log grid plus thresholds equal to field values, where > and >= part ways
    ts = np.concatenate([np.logspace(np.log10(top) - 3, np.log10(top) + 0.3, 20),
                         np.unique(field_.values)[::25]])
    B = AtomSet(level=2, members=frozenset({(0, 0), (0, 1), (1, 1)}))
    vols = F.atom_volumes(F.n_levels)
    sel = B.mask(F.level_shape(2))[np.ix_(*F.parent_maps(F.n_levels, 2))]
    for within, inside in ((whole_level(F), True), (B, sel)):
        got = superlevel_measure(field_, ts, within=within)
        assert got.shape == ts.shape
        for t, v in zip(ts, got):
            scalar = superlevel_measure(field_, t, within=within)
            assert isinstance(scalar, float)
            assert v == scalar == float(vols[(field_.values > t) & inside].sum())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_superlevel_measure_threshold_array_rejects_bad_entry(dyadic_1d, bad):
    field_ = maximal_field(0.5, compile_masses(lebesgue(1), dyadic_1d))
    with pytest.raises(ValueError, match="threshold"):
        superlevel_measure(field_, np.array([1e-3, bad, 1.0]), whole_level(dyadic_1d))


def test_covering_report_reads_its_measure_and_levels_from_the_field(dyadic_2d):
    masses = compile_masses(lebesgue(2), dyadic_2d)
    B = AtomSet(level=2, members=frozenset({(1, 1), (1, 2)}))
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    field_ = maximal_field(0.5, masses, K=2)
    rep = covering_report(field_, B, ts)
    assert (rep.q, rep.K) == (0.5, 2)
    assert rep.series == covering_series_bound(masses, B, 0.5)
    assert np.array_equal(rep.lhs_volumes, superlevel_measure(field_, ts, within=B))
    assert np.array_equal(rep.ratios, rep.lhs_volumes / rep.rhs_bounds)
    assert rep.max_ratio == rep.ratios.max()
    # B must hold atoms of the field's level K
    with pytest.raises(ValueError, match="expected K=2"):
        covering_report(field_, AtomSet(level=3, members=frozenset({(0, 0)})), ts)


def _targeted_filtration(target):
    return build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=6, rules=[
        {"name": "point-targeted", "target": target, "base_atoms": 2}]))


def test_masses_carry_their_filtration_through_the_maximal_layer():
    # two filtrations with the same level shapes: a field or series that read
    # F from a second argument could mix them without any shape error
    F1, F2 = _targeted_filtration(0.1), _targeted_filtration(0.9)
    assert all(F1.level_shape(n) == F2.level_shape(n) for n in range(1, 7))
    theta = HybridMeasure(d=1, density=lambda x: np.ones_like(x),
                          diracs=[(np.array([0.07]), np.array([1.0]))], density_quad_points=4)
    m1, m2 = compile_masses(theta, F1), compile_masses(theta, F2)
    field_ = maximal_field(0.5, m1, K=2)
    assert field_.F is F1
    assert np.array_equal(field_.values, finest_grid_max_field(0.5, m1, 2))
    assert not np.allclose(field_.values, maximal_field(0.5, m2, K=2).values)
    # series oracle: theta of the level-2 atoms of F1 at each distance from B
    B = AtomSet(level=2, members=frozenset({(1,)}))
    at_dist = np.zeros(4)
    for j in range(4):
        at_dist[atom_distance(F1, 2, (j,), (1,))] += measure_of_atom(
            theta, F1.atom_rectangle(2, (j,))).value[0]
    covered = np.cumsum(at_dist)
    rho = np.sqrt(0.49)
    want = sum(rho ** s * covered[min(s, 3)] for s in range(6000))
    got = covering_series_bound(m1, B, 0.49)
    assert got.total == pytest.approx(want, rel=1e-10)
    assert got.tail <= 1e-10 * got.partial


@pytest.mark.parametrize("member", [(-1, -1), (1,), (7, 0)],
                         ids=["negative", "short", "past-end"])
def test_atom_set_outside_level_is_rejected(dyadic_2d, member):
    # numpy would wrap (-1, -1) to the last atom and read (1,) as a whole row;
    # (7, 0) is past the 4 x 4 level
    masses = compile_masses(lebesgue(2), dyadic_2d)
    field_ = maximal_field(0.5, masses, K=2)
    B = AtomSet(level=2, members=frozenset({member}))
    with pytest.raises(ValueError, match="outside the level shape"):
        covering_report(field_, B, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="outside the level shape"):
        covering_series_bound(masses, B, 0.5)
    with pytest.raises(ValueError, match="outside the level shape"):
        superlevel_measure(field_, 1.0, within=B)
