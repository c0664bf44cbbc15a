import numpy as np
import pytest

from splinelab import (
    FiltrationSpec,
    GramSystem,
    SplineSpace1D,
    build_filtration,
    detect_v_sets,
    frozen_subspace,
    limit_dual_table,
)

from splinelab import nondense
from splinelab.nondense import FINITE_DEPTH_NOTE

from conftest import collocation_matrix, dense_dual_matrix, per_atom_v_sets, random_filtration


def frozen_filtration(depth=10, fraction=0.9, frozen=(0.5, 1.0)):
    spec = FiltrationSpec(
        d=1,
        interval=(0.0, 1.0),
        n_levels=depth,
        rules=[{"name": "frozen-on-subinterval", "frozen": list(frozen),
                "fraction": fraction}],
    )
    return build_filtration(spec).axes[0]


def test_dyadic_has_no_v_intervals():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    assert detect_v_sets(F.axes[0], 0.01) == ()
    assert "finite" in FINITE_DEPTH_NOTE


def test_frozen_rule_yields_single_v_interval():
    f1 = frozen_filtration()
    v_sets = detect_v_sets(f1, 0.25)
    assert len(v_sets) == 1
    V = v_sets[0]
    assert (V.interval.lo, V.interval.hi) == (0.5, 1.0)
    assert V.left_accumulated          # breakpoints pile up at 1/2 from the left
    assert not V.right_accumulated     # 1 is the domain endpoint
    assert V.frozen_since_level == 1


def test_two_frozen_islands_detected():
    # hand-built filtration that never touches (0.25, 0.375] or (0.75, 0.875]
    from splinelab import Filtration1D, Partition1D

    islands = [(0.25, 0.375), (0.75, 0.875)]

    def frozen_atom(lo, hi):
        return any(lo >= a and hi <= b for a, b in islands)

    bp = np.array([0.0, 0.25, 0.375, 0.75, 0.875, 1.0])
    levels = []
    for _ in range(9):
        new = [bp[0]]
        for lo, hi in zip(bp[:-1], bp[1:]):
            if not frozen_atom(lo, hi):
                new.append(0.5 * (lo + hi))
            new.append(hi)
        bp = np.array(new)
        levels.append(Partition1D(bp))
    merged = Filtration1D(levels)
    v_sets = detect_v_sets(merged, 0.06)
    ivs = [(v.interval.lo, v.interval.hi) for v in v_sets]
    assert ivs == [(0.25, 0.375), (0.75, 0.875)]
    assert all(v.left_accumulated and v.right_accumulated for v in v_sets)


def test_ambiguous_widths_flagged():
    f1 = frozen_filtration(depth=6, fraction=0.5)
    # at depth 6 the refining widths are 0.5 * 2^-6 = 2^-7; pick a tolerance
    # just below the frozen width so it lands in the ambiguous band
    v_sets = detect_v_sets(f1, 0.3)
    assert len(v_sets) == 1
    assert v_sets[0].ambiguous_atoms  # 0.5 < 2 * 0.3


def test_v_sets_match_per_atom_oracle():
    # the runs of the frozen mask equal the atom-by-atom loop's, at random
    # tolerances, at each end atom's own width (a run that touches that end),
    # below every width (one run of all atoms) and above every width (none)
    rng = np.random.default_rng(11)
    meshes = [random_filtration(seed, n_levels=7).axes[0] for seed in range(4)]
    meshes += [frozen_filtration(depth=6, fraction=f, frozen=fz)
               for f, fz in ((0.5, (0.5, 1.0)), (0.3, (0.0, 0.25)), (0.5, (0.25, 0.75)))]
    seen = set()
    for f1 in meshes:
        w = f1.levels[-1].widths
        tols = [w[0], w[-1], 0.5 * w.min(), 2.0 * w.max()]
        tols += list(np.exp(rng.uniform(np.log(w.min()), np.log(w.max()), 8)))
        for tol in tols:
            got = detect_v_sets(f1, tol)
            assert got == per_atom_v_sets(f1, tol)
            assert all(type(a) is int for v in got for a in v.atom_range + v.ambiguous_atoms)
            assert all({type(v.left_accumulated), type(v.right_accumulated)} == {bool}
                       for v in got)
            n = f1.levels[-1].n_atoms
            seen |= {"none"} if not got else {"all"} if got[0].atom_range == (0, n - 1) else set()
            seen |= {"left" for v in got if v.atom_range[0] == 0}
            seen |= {"right" for v in got if v.atom_range[1] == n - 1}
            seen |= {"ambiguous" for v in got if v.ambiguous_atoms}
    assert seen == {"none", "all", "left", "right", "ambiguous"}


def test_tolerance_must_be_positive():
    # a NaN tolerance once returned an empty report: every width test was False
    f1 = frozen_filtration(depth=3)
    for tolerance in (0.0, np.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            detect_v_sets(f1, tolerance)


def test_frozen_subspace_is_clamped_on_v():
    f1 = frozen_filtration()
    V = detect_v_sets(f1, 0.25)[0]
    space = frozen_subspace(f1, V, 3)
    assert space.partition.breakpoints.tolist() == [0.5, 1.0]
    assert space.dimension == 3


def test_limit_dual_converges_to_clamped_oracle():
    # one more level buys a factor ~10 in the Cauchy deltas; k=3 duals are
    # stiffer near the corner and need the extra depth
    for k, depth in ((1, 10), (2, 10), (3, 12)):
        f1 = frozen_filtration(depth=depth, fraction=0.9)
        V = detect_v_sets(f1, 0.25)[0]
        probes = np.linspace(0.55, 0.99, 9)
        table = limit_dual_table(f1, V, k, probes)
        n_stable = 1 + k - 1  # one frozen atom
        assert table.values.shape == (len(table.levels), n_stable, len(probes))
        assert table.oracle_values.shape == (n_stable, len(probes))
        assert np.all(table.deltas[-1] <= 1e-8)
        assert np.all(table.oracle_gap <= 1e-6)
        # settling, not oscillating
        assert np.all(np.diff(table.deltas[3:], axis=0) <= 1e-12)


def test_limit_dual_constant_filtration_is_exact():
    # a filtration frozen everywhere from level 1: duals never change
    spec = FiltrationSpec(
        d=1,
        interval=(0.0, 1.0),
        n_levels=4,
        rules=[{"name": "frozen-on-subinterval", "frozen": [0.0, 1.0]}],
    )
    f1 = build_filtration(spec).axes[0]
    v_sets = detect_v_sets(f1, 0.2)
    assert len(v_sets) == 1
    V = v_sets[0]
    probes = np.array([0.3, 0.8])
    table = limit_dual_table(f1, V, 2, probes)
    assert np.max(np.abs(table.values - table.values[0])) == 0.0
    assert np.all(table.oracle_gap <= 1e-13)


def test_limit_dual_probes_must_be_inside():
    f1 = frozen_filtration()
    V = detect_v_sets(f1, 0.25)[0]
    with pytest.raises(ValueError):
        limit_dual_table(f1, V, 2, np.array([0.2]))


def test_limit_dual_decay_estimate_holds():
    spec = FiltrationSpec(
        d=1,
        interval=(0.0, 1.0),
        n_levels=12,
        rules=[{"name": "frozen-on-subinterval", "frozen": [0.25, 1.0],
                "fraction": 0.8}],
    )
    f1 = build_filtration(spec).axes[0]
    # pre-split the frozen region so the limit space has many atoms
    from splinelab import Filtration1D, Partition1D

    inner = np.linspace(0.25, 1.0, 13)
    levels = [Partition1D(np.union1d(lvl.breakpoints, inner)) for lvl in f1.levels]
    f1 = Filtration1D(levels)
    V = detect_v_sets(f1, 0.03)[0]
    assert (V.interval.lo, V.interval.hi) == (0.25, 1.0)
    probes = np.linspace(0.26, 0.99, 25)
    table = limit_dual_table(f1, V, 2, probes)
    assert table.decay_ok.shape == (13,)     # 12 frozen atoms, k = 2
    assert np.all(table.decay_ok)
    assert np.all(table.oracle_gap <= 1e-6)


def test_limit_oracle_matches_dense_inverse():
    f1 = frozen_filtration(depth=12, fraction=0.9)
    V = detect_v_sets(f1, 0.25)[0]
    probes = np.array([0.6, 0.75, 0.97])
    k = 2
    table = limit_dual_table(f1, V, k, probes)
    # independent oracle: dense inverse of the deepest level's full Gram
    space = SplineSpace1D(f1.level(12), k)
    gs = GramSystem(space)
    Ginv = dense_dual_matrix(gs)
    B = collocation_matrix(space, probes)
    a0 = int(np.searchsorted(space.partition.breakpoints, 0.5))
    deep_vals = (Ginv @ B.T)[a0 + 1]
    np.testing.assert_allclose(table.values[-1, 1], deep_vals, atol=1e-10)
    np.testing.assert_allclose(table.oracle_values[1], deep_vals, atol=1e-7)


def test_limit_dual_table_factorizes_each_gram_once(monkeypatch):
    # every stable index shares one factorization per tracked level and one
    # of the limit space
    built = []

    class CountingGramSystem(GramSystem):
        def __init__(self, space):
            built.append(space)
            super().__init__(space)

    monkeypatch.setattr(nondense, "GramSystem", CountingGramSystem)
    f1 = frozen_filtration()
    V = detect_v_sets(f1, 0.25)[0]
    table = limit_dual_table(f1, V, 3, np.linspace(0.55, 0.99, 5))
    assert table.values.shape[1] == 3
    assert V.frozen_since_level == 1
    assert len(built) == len(table.levels) + 1 == f1.n_levels + 1
