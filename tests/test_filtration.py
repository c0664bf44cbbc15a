import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splinelab import (
    FiltrationSpec,
    Interval,
    Partition1D,
    atom_of,
    build_filtration,
)
from splinelab.filtration import (Filtration1D, MIN_WIDTH_FRACTION, TensorFiltration,
                                  _base_breakpoints)

from conftest import (atom_distance, atom_set_from_mask, neighborhood, per_atom_refine,
                      random_filtration)


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_dyadic_levels(dyadic_1d):
    lvl1 = dyadic_1d.axes[0].level(1).breakpoints
    lvl2 = dyadic_1d.axes[0].level(2).breakpoints
    assert lvl1.tolist() == [0.0, 0.5, 1.0]
    assert lvl2.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_dyadic_2d_grid(dyadic_2d):
    for n in range(1, dyadic_2d.n_levels + 1):
        assert dyadic_2d.level_shape(n) == (2 ** n, 2 ** n)


def test_frozen_rule_keeps_one_atom():
    spec = FiltrationSpec(
        d=1,
        interval=(0.0, 1.0),
        n_levels=4,
        rules=[{"name": "frozen-on-subinterval", "frozen": [0.5, 1.0]}],
    )
    F = build_filtration(spec)
    for n in range(1, 5):
        bp = F.axes[0].level(n).breakpoints
        left = bp[bp <= 0.5]
        assert len(left) - 1 == 2 ** n          # 2^n atoms in (0, 1/2]
        assert bp[-2] == 0.5 and bp[-1] == 1.0  # single atom (1/2, 1]


def test_atom_of_half_open(dyadic_1d):
    idx, rect = atom_of(dyadic_1d, 1, [0.5])
    assert idx == (0,)
    assert (rect.lo, rect.hi) == ((0.0,), (0.5,))


def test_atom_of_2d(dyadic_2d):
    idx, _ = atom_of(dyadic_2d, 1, [0.3, 0.9])
    assert idx == (0, 1)


def test_atom_of_outside_domain(dyadic_1d):
    with pytest.raises(ValueError):
        atom_of(dyadic_1d, 1, [1.5])
    with pytest.raises(ValueError):
        atom_of(dyadic_1d, 1, [0.0])  # left endpoint excluded


def test_atom_lookup_fails_closed_on_non_finite_points(dyadic_2d):
    # NaN used to land in atom n_atoms, one past the last, and atom_of to raise IndexError
    part = Partition1D([0.0, 0.5, 1.0])
    for x in (np.nan, [0.3, np.nan], np.array([[0.7], [np.nan]]), np.inf, [-np.inf, 0.5]):
        with pytest.raises(ValueError, match="not finite"):
            part.atom_index_of(x)
    with pytest.raises(ValueError, match="not finite"):
        atom_of(dyadic_2d, 1, [np.nan, 0.3])
    assert part.atom_index_of(0.5) == 0 and part.atom_index_of([0.5, 1.0]).tolist() == [0, 1]


def test_atom_distance_examples(dyadic_2d, dyadic_1d):
    F3 = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=3))
    assert atom_distance(F3, 3, (2, 5), (4, 4)) == 3
    assert atom_distance(F3, 3, (2, 5), (2, 5)) == 0
    assert atom_distance(dyadic_1d, 3, (0,), (7,)) == 7
    with pytest.raises(IndexError):
        atom_distance(dyadic_1d, 1, (0,), (5,))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_atom_distance_triangle_inequality(a1, a2, b1, b2, c1, c2):
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=3))
    i, j, k = (a1, a2), (b1, b2), (c1, c2)
    assert atom_distance(F, 3, i, k) <= atom_distance(F, 3, i, j) + atom_distance(F, 3, j, k)


def test_neighborhood_cross(dyadic_2d):
    got = neighborhood(dyadic_2d, 2, (1, 1), 1)
    assert got.members == frozenset({(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)})


def test_neighborhood_radius_zero(dyadic_2d):
    x = [0.3, 0.9]
    idx, _ = atom_of(dyadic_2d, 2, x)
    got = neighborhood(dyadic_2d, 2, x, 0)
    assert got.members == frozenset({idx})


def test_neighborhood_saturation(dyadic_2d):
    shape = dyadic_2d.level_shape(2)
    whole = atom_set_from_mask(2, np.ones(shape, dtype=bool))
    got = neighborhood(dyadic_2d, 2, whole, 3)
    assert got.members == whole.members


def test_neighborhood_monotone_in_s(dyadic_2d):
    prev = frozenset()
    for s in range(5):
        cur = neighborhood(dyadic_2d, 2, (0, 3), s).members
        assert prev <= cur
        prev = cur


def test_check_nested(dyadic_2d):
    for ax in dyadic_2d.axes:
        for coarse, fine in zip(ax.levels, ax.levels[1:]):
            assert fine.refines(coarse)


def _graded(n):
    """Breakpoints 0, 1/2, 3/4, ..., 1 - 2**-(n-1), 1: widths halving toward 1."""
    return np.append(1.0 - 0.5 ** np.arange(n), 1.0)


_fine_breakpoints = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40, unique=True).map(np.unique),
    st.integers(1, 50).map(_graded),
).filter(lambda bp: len(bp) >= 2)


@settings(max_examples=300, deadline=None)
@given(fine=_fine_breakpoints, kind=st.sampled_from(["nested", "not-nested", "outside"]),
       data=st.data())
def test_refines_matches_isin(fine, kind, data):
    # refines searches the sorted breakpoints; np.isin is the reference
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(fine), max_size=len(fine))))
    keep[[0, -1]] = True
    coarse = fine[keep]
    if kind == "not-nested":
        a = data.draw(st.integers(0, len(fine) - 2))
        x = 0.5 * (fine[a] + fine[a + 1])
        assume(fine[a] < x < fine[a + 1])
        coarse = np.union1d(coarse, [x])
    elif kind == "outside":
        gap = data.draw(st.floats(1e-12, 1.0))
        coarse = (np.append(coarse, fine[-1] + gap) if data.draw(st.booleans())
                  else np.insert(coarse, 0, fine[0] - gap))
    got = Partition1D(fine).refines(Partition1D(coarse))
    assert got == bool(np.isin(coarse, fine).all()) == (kind == "nested")


def test_check_nested_detects_violation():
    levels = [Partition1D([0.0, 0.5, 1.0]), Partition1D([0.0, 1.0 / 3.0, 1.0])]
    with pytest.raises(ValueError, match="not nested"):
        Filtration1D(levels)


def test_refines_needs_the_same_interval():
    # a partition of (0, 2] holding every breakpoint of one of (0, 1] does not refine it,
    # nor the other way round
    wide, unit = Partition1D([0.0, 1.0, 2.0]), Partition1D([0.0, 1.0])
    assert not wide.refines(unit)
    assert not Partition1D([-1.0, 0.0, 1.0]).refines(unit)
    assert not unit.refines(wide)
    assert wide.refines(Partition1D([0.0, 2.0]))


def test_filtration_levels_share_one_interval():
    # levels on (0, 1] and (0, 2] are no filtration, whose interval is its first level's
    with pytest.raises(ValueError, match="not nested"):
        Filtration1D([Partition1D([0.0, 1.0]), Partition1D([0.0, 1.0, 2.0])])


def test_tensor_axes_share_one_interval():
    # the interval of a tensor filtration is every axis's: probes drawn from it cover all
    unit = Filtration1D([Partition1D([0.0, 1.0]), Partition1D([0.0, 0.5, 1.0])])
    wide = Filtration1D([Partition1D([0.0, 2.0]), Partition1D([0.0, 1.0, 2.0])])
    with pytest.raises(ValueError, match="same interval"):
        TensorFiltration([unit, wide])
    assert TensorFiltration([wide, wide]).interval == Interval(0.0, 2.0)


def test_parent_maps_need_a_coarser_level(dyadic_2d):
    for n, m in ((1, 3), (2, 3), (1, 4)):
        with pytest.raises(ValueError, match="m <= n"):
            dyadic_2d.parent_maps(n, m)
    assert [list(p) for p in dyadic_2d.parent_maps(2, 2)] == [[0, 1, 2, 3]] * 2


def test_single_level_vacuously_nested():
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=1))
    assert F.n_levels == 1
    assert Filtration1D(F.axes[0].levels).n_levels == 1


def test_levels_partition_exactly():
    for seed in range(5):
        F = random_filtration(seed, d=2, n_levels=5)
        for n in range(1, 6):
            vols = F.atom_volumes(n)
            assert abs(vols.sum() - 1.0) <= 1e-12


def test_refinement_children_unique_parent():
    F = random_filtration(3, d=1, n_levels=6)
    ax = F.axes[0]
    for n in range(1, 6):
        pm = ax.level(n + 1).parent_map(ax.level(n))
        assert np.all(np.diff(pm) >= 0)
        fine = ax.level(n + 1)
        coarse = ax.level(n)
        for j in range(fine.n_atoms):
            child = fine.atom(j)
            parent = coarse.atom(int(pm[j]))
            assert parent.lo <= child.lo and child.hi <= parent.hi


def test_min_width_floor_enforced():
    spec = FiltrationSpec(
        d=1,
        interval=(0.0, 1.0),
        n_levels=40,
        rules=[{"name": "point-targeted", "target": 1.0, "fraction": 0.9}],
    )
    F = build_filtration(spec)
    final = F.axes[0].level(40)
    assert final.widths.min() >= MIN_WIDTH_FRACTION * 0.999


# (rule, levels, branches of the per-atom oracle that the rule must reach)
REFINE_CASES = [
    ({"name": "uniform-bisect-all", "base_atoms": 3, "base_jitter": 0.2}, 8, set()),
    ({"name": "random-atom-bisect", "base_atoms": 2, "split_range": [0.2, 0.8]}, 10, set()),
    ({"name": "random-atom-bisect", "p_split": 0.05, "split_range": [0.1, 0.6]}, 12,
     {"fallback"}),
    ({"name": "point-targeted", "target": 0.0, "fraction": 0.25, "base_atoms": 2,
      "base_jitter": 0.3}, 40, {"floor"}),
    ({"name": "point-targeted", "target": 0.37, "base_atoms": 3}, 40, {"floor"}),
    ({"name": "point-targeted", "target": 1.0, "fraction": 0.9}, 34, {"floor"}),
    ({"name": "frozen-on-subinterval", "frozen": [0.3, 0.71], "fraction": 0.37}, 9, set()),
]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("rule, n_levels, branches", REFINE_CASES)
def test_refinement_bit_identical_to_per_atom_oracle(rule, n_levels, branches, d):
    for seed in range(4):
        spec = FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=n_levels, rules=[rule],
                              seed=seed)
        F = build_filtration(spec)
        floor = MIN_WIDTH_FRACTION * 1.0
        seen = set()
        for ax, ss in zip(F.axes, np.random.SeedSequence(seed).spawn(d)):
            rng = np.random.default_rng(ss)
            bp = _base_breakpoints(0.0, 1.0, rule, rng)
            for n in range(1, n_levels + 1):
                bp = per_atom_refine(bp, rule, rng, floor, seen)
                assert ax.level(n).breakpoints.tobytes() == bp.tobytes(), (seed, n)
        assert seen >= branches, seed


def test_build_deterministic_given_seed():
    a = random_filtration(9, d=2, n_levels=5)
    b = random_filtration(9, d=2, n_levels=5)
    for ax_a, ax_b in zip(a.axes, b.axes):
        for la, lb in zip(ax_a.levels, ax_b.levels):
            assert np.array_equal(la.breakpoints, lb.breakpoints)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2, rules=[{"name": "nope"}])


def test_rule_keys_the_rule_does_not_read_rejected():
    # a misspelt key once built silently with the rule's default
    with pytest.raises(ValueError, match=r"unknown random-atom-bisect rule keys \['base_atom', 'p_splt'\]"):
        FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2,
                       rules=[{"name": "random-atom-bisect", "p_splt": 1.0, "base_atom": 3}])
    # a key of another rule is not read either
    with pytest.raises(ValueError, match=r"unknown uniform-bisect-all rule keys \['target'\]"):
        FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2,
                       rules=[{"name": "uniform-bisect-all", "target": 0.3}])
    # the frozen rule's base atoms are the frozen interval and its complement
    frozen_keys = r"unknown frozen-on-subinterval rule keys \['base_atoms', 'base_jitter'\]"
    with pytest.raises(ValueError, match=frozen_keys):
        FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2,
                       rules=[{"name": "frozen-on-subinterval", "frozen": [0.5, 1.0],
                               "fraction": 0.9, "base_atoms": 8, "base_jitter": 0.5}])
    for rule in ({"name": "uniform-bisect-all", "base_atoms": 3, "base_jitter": 0.5},
                 {"name": "random-atom-bisect", "p_split": 1.0, "split_range": [0.4, 0.6]},
                 {"name": "point-targeted", "target": 0.3, "fraction": 0.25},
                 {"name": "frozen-on-subinterval", "frozen": [0.5, 1.0], "fraction": 0.9}):
        build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2, rules=[rule]))


@pytest.mark.parametrize("rule, key", [
    ({"name": "frozen-on-subinterval", "frozen": 0.5}, "frozen"),
    ({"name": "frozen-on-subinterval", "frozen": [0.5, np.inf]}, "frozen"),
    ({"name": "point-targeted", "target": [0.3, 0.4]}, "target"),
    ({"name": "point-targeted", "target": None}, "target"),
    ({"name": "point-targeted", "target": 0.3, "fraction": "0.5"}, "fraction"),
    ({"name": "random-atom-bisect", "p_split": np.nan}, "p_split"),
    ({"name": "random-atom-bisect", "split_range": [0.4]}, "split_range"),
    ({"name": "uniform-bisect-all", "base_jitter": True}, "base_jitter"),
], ids=["frozen-scalar", "frozen-inf", "target-pair", "target-none", "fraction-str",
        "p_split-nan", "split_range-short", "base_jitter-bool"])
def test_rule_values_of_the_wrong_kind_rejected(rule, key):
    # a scalar `frozen` once raised TypeError on unpacking at the build, and a
    # pair or None `target` TypeError in float()
    with pytest.raises(ValueError, match=f"rule key '{key}' must be a"):
        FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2, rules=[rule])


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        FiltrationSpec(d=1, interval=(1.0, 0.0), n_levels=2)


@pytest.mark.parametrize("bp", [[0.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, np.nan, 1.0]])
def test_partition_rejects_non_finite_breakpoints(bp):
    # inf once passed as an atom of infinite width: diff > 0 holds for it
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        Partition1D(bp)


def test_spec_counts_are_integers():
    # 1.5 dimensions, 2.9 levels or 2.7 base atoms were truncated, or True read as 1
    for key, bad in itertools.product(("d", "n_levels"), (0, 1.5, 2.0, True, "2")):
        args = dict(d=1, interval=(0.0, 1.0), n_levels=2) | {key: bad}
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
            FiltrationSpec(**args)
    spec = FiltrationSpec(d=np.int64(2), interval=(0.0, 1.0), n_levels=np.int64(3))
    assert (spec.d, spec.n_levels) == (2, 3) and type(spec.d) is type(spec.n_levels) is int
    for bad in (0, 2.7, 2.0, True):
        spec = FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2,
                              rules=[{"name": "uniform-bisect-all", "base_atoms": bad}])
        with pytest.raises(ValueError, match="base_atoms must be an integer >= 1"):
            build_filtration(spec)
    spec.rules[0]["base_atoms"] = np.int64(3)
    assert build_filtration(spec).axes[0].level(1).n_atoms == 6


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_atom_range_gap_matches_brute_force(seed):
    from splinelab.filtration import atom_range_gap

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    bp = np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 1.0, n)]))
    atoms = np.arange(n)
    for lo in range(n):
        for hi in range(lo, n):
            dist, hull = atom_range_gap(bp, atoms, lo, hi)
            for a in atoms:
                want = min(abs(a - j) for j in range(lo, hi + 1))
                first, last = min(a, lo), max(a, hi)
                assert dist[a] == want
                assert hull[a] == bp[last + 1] - bp[first]
                assert hull[a] == pytest.approx(sum(bp[j + 1] - bp[j] for j in range(first, last + 1)))
