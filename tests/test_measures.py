import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from splinelab import (
    FiltrationSpec,
    HybridMeasure,
    Rectangle,
    SplineSpace1D,
    build_filtration,
    compile_masses,
    density_catalog,
)
from splinelab import bspline, measures
from splinelab.measures import level_moments, measure_from_config, source_moments

from conftest import (dense_atom_integrals, graded_filtration, measure_of_atom, node_grid_values,
                      per_dirac_moments, random_filtration, scalar_variation, slab_sizes,
                      total_variation, wavy_values)


def unit_density(*grids):
    return np.broadcast_arrays(*grids)[0] * 0.0 + 1.0


@pytest.fixture
def mixed_measure():
    return HybridMeasure(
        d=1,
        density=unit_density,
        diracs=[(np.array([0.3]), np.array([2.0]))],
        density_quad_points=8,
    )


def test_measure_of_atom_with_dirac(mixed_measure):
    val = measure_of_atom(mixed_measure, Rectangle((0.0,), (0.5,)))
    assert val.value[0] == pytest.approx(2.5, abs=1e-14)


def test_measure_of_atom_without_dirac(mixed_measure):
    val = measure_of_atom(mixed_measure, Rectangle((0.5,), (1.0,)))
    assert val.value[0] == pytest.approx(0.5, abs=1e-14)


def test_dirac_at_breakpoint_belongs_to_left_atom():
    theta = HybridMeasure(d=1, diracs=[(np.array([0.5]), np.array([1.0]))])
    # only the atom whose right endpoint it is
    left = measure_of_atom(theta, Rectangle((0.0,), (0.5,)))
    right = measure_of_atom(theta, Rectangle((0.5,), (1.0,)))
    assert left.value[0] == 1.0 and right.value[0] == 0.0


def test_total_variation_nonnegative_density(dyadic_1d):
    theta = HybridMeasure(d=1, density=unit_density, density_quad_points=4)
    for level in (1, 3, 5):
        rep = total_variation(theta, dyadic_1d, level)
        assert rep.partition_sum == pytest.approx(1.0, abs=1e-12)
        assert rep.exact_value == pytest.approx(1.0, abs=1e-12)


def test_total_variation_pure_dirac(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.77]), np.array([2.0]))])
    for level in (1, 5):
        rep = total_variation(theta, dyadic_1d, level)
        assert rep.partition_sum == pytest.approx(2.0)
        assert rep.exact_value == pytest.approx(2.0)


def test_total_variation_signed_density(dyadic_1d):
    def signed(x):
        return np.where(x <= 0.5, 1.0, -1.0)

    theta = HybridMeasure(d=1, density=signed, density_quad_points=4)
    rep = total_variation(theta, dyadic_1d, 1)
    assert rep.partition_sum == pytest.approx(1.0, abs=1e-12)
    assert rep.exact_value == pytest.approx(1.0, abs=1e-12)


def test_total_variation_vector_lower_bound(dyadic_1d):
    def rotating(x):
        return np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=-1)

    theta = HybridMeasure(d=1, density=rotating, m=2, density_quad_points=8)
    sums = [total_variation(theta, dyadic_1d, lvl).partition_sum for lvl in (1, 2, 3, 4)]
    assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))
    assert sums[-1] <= total_variation(theta, dyadic_1d, 5).exact_value + 1e-12


def test_additivity_on_disjoint_atoms(dyadic_1d, mixed_measure):
    rect_a = dyadic_1d.atom_rectangle(3, (1,))
    rect_b = dyadic_1d.atom_rectangle(3, (5,))
    union = measure_of_atom(mixed_measure, [rect_a, rect_b]).value
    sep = measure_of_atom(mixed_measure, rect_a).value + measure_of_atom(mixed_measure, rect_b).value
    np.testing.assert_allclose(union, sep, atol=1e-12)


def children_sums(fine, maps):
    """Level-n tensor whose every entry is the float sum of its level-(n+1) children in
    `fine`, summed one axis after the other in index order (np.add.at is unbuffered)."""
    out = fine
    for ell, pm in enumerate(maps):
        moved = np.moveaxis(out, ell, 0)
        acc = np.zeros((pm[-1] + 1,) + moved.shape[1:])
        np.add.at(acc, pm, moved)
        out = np.moveaxis(acc, 0, ell)
    return out


def test_refinement_consistency_compiled():
    # every coarse mass is the float sum of its children, bit for bit, Diracs
    # included: one inside an atom and one on a level-2 breakpoint of every axis
    for d, n_levels in ((2, 5), (3, 4)):
        F = random_filtration(3, d=d, n_levels=n_levels)
        on_breakpoint = np.array([ax.level(2).breakpoints[1] for ax in F.axes])
        theta = HybridMeasure(
            d=d,
            density=lambda *g: 1.0 + g[0] * 0 + 0.5 * np.sin(3 * sum(g)),
            diracs=[(np.linspace(0.21, 0.63, d), np.array([1.5])),
                    (on_breakpoint, np.array([0.7]))],
            density_quad_points=3,
        )
        table = compile_masses(theta, F)
        density = compile_masses(replace(theta, diracs=[]), F).level_masses(n_levels)
        # the breakpoint Dirac sits in the finest atom its coordinates close on every axis
        idx = tuple(int(ax.level(n_levels).atom_index_of(x)) for ax, x in zip(F.axes, on_breakpoint))
        assert table.level_masses(n_levels)[idx] == density[idx] + 0.7
        want_total = density.sum() + 2.2
        for n in range(n_levels - 1, 0, -1):
            coarse = table.level_masses(n)
            assert np.array_equal(coarse, children_sums(table.level_masses(n + 1),
                                                        F.parent_maps(n + 1, n)))
            assert coarse.sum() == pytest.approx(want_total, rel=1e-13)
    for bad in (0, n_levels + 1, 2.0, True, "2"):
        with pytest.raises(ValueError, match="level must"):
            table.level_masses(bad)
    assert table.level_masses(np.int64(1)) is table.level_masses(1)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (1, 1), (2, 2), (3, 3), (3, 1)],
                         ids=lambda o: "-".join(map(str, o)))
def test_level_moments_restrict_level_by_level_from_the_finest(orders):
    # N tensors, finest first: the finest are source_moments, every coarser one
    # restrict of the one before, bit for bit, for a measure and for a function
    d = len(orders)
    F = random_filtration(7, d=d, n_levels=5)
    levels = [[SplineSpace1D(ax.level(n), k) for ax, k in zip(F.axes, orders)]
              for n in range(1, F.n_levels + 1)]
    theta = HybridMeasure(d=d, density=lambda *g: 1.0 + 0.5 * np.sin(3 * sum(g)),
                          diracs=[(np.linspace(0.21, 0.63, d), np.array([1.5]))],
                          density_quad_points=5)
    for source, g in ((theta, None), (lambda *g: np.cos(2 * sum(g)), 6)):
        got = list(level_moments(source, levels, g))
        assert len(got) == F.n_levels
        assert np.array_equal(got[0], source_moments(source, levels[-1], g))
        for n in range(F.n_levels - 1, 0, -1):
            b = got[F.n_levels - n]
            assert b.shape == tuple(s.dimension for s in levels[n - 1]) + (1,)
            assert np.array_equal(b, bspline.restrict(got[F.n_levels - n - 1], levels[n],
                                                      levels[n - 1]))


def test_compiled_masses_build_every_level_once(monkeypatch):
    # every level is built by the constructor: with restrict raising afterwards,
    # each level_masses(n) is still the same read-only array
    F = random_filtration(3, d=2, n_levels=5)
    table = compile_masses(HybridMeasure(d=2, density=lambda x, y: 1.0 + x * y,
                                         diracs=[([0.3, 0.6], 2.0)]), F)

    def refuse(*args):
        raise AssertionError("restrict called after construction")

    monkeypatch.setattr(bspline, "restrict", refuse)
    monkeypatch.setattr(measures, "restrict", refuse)
    for n in range(1, F.n_levels + 1):
        masses = table.level_masses(n)
        assert masses.shape == F.level_shape(n) and not masses.flags.writeable
        assert table.level_masses(n) is masses
        assert masses.sum() == pytest.approx(table.level_masses(F.n_levels).sum(), rel=1e-13)


class NegatedNorms(HybridMeasure):
    """A measure whose density norms come out negative, which no real norm does."""

    def density_norms(self, *grids):
        return -super().density_norms(*grids)


def test_negative_or_infinite_masses_raise_at_construction(dyadic_2d):
    with pytest.raises(ValueError, match="level 4 are negative or not finite"):
        compile_masses(NegatedNorms(d=2, density=unit_density), dyadic_2d)
    # a finite density whose integrals overflow: over atoms of width 100/16 the
    # finest masses of 1e307 are inf, and the level-2 sums of 1e306 are
    wide = build_filtration(FiltrationSpec(d=2, interval=(0.0, 100.0), n_levels=4))
    for c, level in ((1e307, 4), (1e306, 2)):
        theta = HybridMeasure(d=2, density=lambda x, y: np.full(np.broadcast(x, y).shape, c))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=f"level {level} are negative or not finite"):
            compile_masses(theta, wide)


def test_singularity_witness_shrinks():
    # atoms around the Dirac locations carry all singular mass but vanishing volume
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=8))
    theta = HybridMeasure(d=1, diracs=[(np.array([0.3]), np.array([1.0])),
                                       (np.array([0.9]), np.array([0.5]))])
    table = compile_masses(theta, F)
    prev_vol = np.inf
    for n in range(1, 9):
        masses = table.level_masses(n)
        carrier = masses > 0
        vols = F.atom_volumes(n)
        vol_D = float(vols[carrier].sum())
        assert float(masses[carrier].sum()) == pytest.approx(1.5)
        assert vol_D <= prev_vol + 1e-15
        prev_vol = vol_D
    assert prev_vol <= 2 * 2 ** -8 + 1e-12


def test_scalar_variation_of_vector_measure():
    theta = HybridMeasure(
        d=1,
        density=lambda x: np.stack([3 * np.ones_like(x), 4 * np.ones_like(x)], axis=-1),
        diracs=[(np.array([0.5]), np.array([0.6, 0.8]))],
        m=2,
    )
    var = scalar_variation(theta)
    assert var.m == 1
    val = measure_of_atom(var, Rectangle((0.0,), (1.0,)))
    assert val.value[0] == pytest.approx(5.0 + 1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 3])
def test_compiled_density_masses_equal_norm_of_values(dyadic_2d, m):
    # bit for bit the quadrature of the norm over the value axis: |g| for a
    # scalar measure, exact on atoms x < 1/4 where every square underflows,
    # and np.linalg.norm's sqrt of summed squares for m > 1
    F = dyadic_2d

    def dens(x, y):
        base = np.sin(7 * x) * np.exp(3 * y) * np.where(x < 0.25, 1e-170, 1.0)
        return np.stack([base * (j + 1) - j for j in range(m)], axis=-1)

    theta = HybridMeasure(d=2, density=dens, m=m, density_quad_points=5)
    parts = [ax.level(4) for ax in F.axes]
    g = node_grid_values(parts, 5, theta.density_values)
    vals = np.abs(g) if m == 1 else np.linalg.norm(g, axis=-1, keepdims=True)
    want = dense_atom_integrals(parts, 5, vals)[..., 0]
    assert np.array_equal(compile_masses(theta, F).level_masses(F.n_levels), want)
    assert m > 1 or want[0].min() > 0


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_compiled_masses_bit_identical_for_every_slab_size(d, m, monkeypatch):
    # |g| or ||g|| is taken inside each slab; one atom per slab, a ragged last
    # slab and a single slab all give the whole-grid masses bit for bit
    from splinelab import bspline

    F = graded_filtration(d)
    theta = HybridMeasure(d=d, density=wavy_values(m), m=m, density_quad_points=(6, 4, 2)[d - 1])
    parts, q = [ax.level(F.n_levels) for ax in F.axes], theta.density_quad_points
    g = node_grid_values(parts, q, theta.density_values)
    vals = np.abs(g) if m == 1 else np.linalg.norm(g, axis=-1, keepdims=True)
    want = dense_atom_integrals(parts, q, vals)[..., 0]
    for label, nbytes in slab_sizes(parts, q).items():
        monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", nbytes)
        assert np.array_equal(compile_masses(theta, F).level_masses(F.n_levels), want), label


def test_density_non_finite_on_the_last_slab_rejected(dyadic_2d, monkeypatch):
    from splinelab import bspline

    monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", 8 * 64)
    last = dyadic_2d.axes[0].level(4).breakpoints[-2]
    theta = HybridMeasure(d=2, density=lambda x, y: np.where(x > last, np.inf, x + y))
    with pytest.raises(ValueError, match="non-finite"):
        compile_masses(theta, dyadic_2d)


def _density_paths(theta, F):
    """The moments and the masses of theta on the finest level of F."""
    from splinelab.measures import source_moments

    spaces = [SplineSpace1D(ax.level(F.n_levels), 2) for ax in F.axes]
    return {"moments": lambda: source_moments(theta, spaces),
            "masses": lambda: compile_masses(theta, F)}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("path", ["moments", "masses"])
def test_non_finite_density_error_names_the_density(dyadic_2d, path, m, bad):
    def dens(x, y):
        v = np.where(x > 0.9, bad, x + y)
        return v if m == 1 else np.stack(np.broadcast_arrays(v, x, y), axis=-1)

    theta = HybridMeasure(d=2, density=dens, m=m)
    with pytest.raises(ValueError, match="density"):
        _density_paths(theta, dyadic_2d)[path]()


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("path", ["moments", "masses"])
def test_density_values_checked_for_finiteness_once(dyadic_2d, monkeypatch, path, m):
    # every node value of the density passes one isfinite test, on every slab
    from splinelab import bspline

    monkeypatch.setattr(bspline, "CACHE_BLOCK_BYTES", 8 * 64)
    theta = HybridMeasure(d=2, density=wavy_values(m), m=m, density_quad_points=3)
    nodes = int(np.prod(dyadic_2d.level_shape(dyadic_2d.n_levels))) * 3 ** 2
    checked = []
    real = np.isfinite

    def counted(a, *args, **kwargs):
        checked.append(np.size(a))
        return real(a, *args, **kwargs)

    run = _density_paths(theta, dyadic_2d)[path]
    monkeypatch.setattr(np, "isfinite", counted)
    run()
    monkeypatch.undo()
    # the moments check the m values of a node; the masses check its norm once,
    # for every m (an overflow of the summed squares raises from the FP flag);
    # each level of masses is then compared with 0 and inf once, not by isfinite
    per_node = {"moments": m, "masses": 1}[path]
    assert sum(checked) == nodes * per_node


@pytest.mark.parametrize("c", [1e-170, 1e200])
def test_scalar_density_masses_exact_where_squares_under_or_overflow(dyadic_2d, c):
    # sqrt(g^2) read a density of 1e-170 as 0 and one of 1e200 as inf
    theta = HybridMeasure(d=2, density=lambda x, y: np.full(np.broadcast(x, y).shape, c))
    F = dyadic_2d
    with np.errstate(all="raise"):
        masses = compile_masses(theta, F)
    assert np.allclose(masses.level_masses(F.n_levels), c * F.atom_volumes(F.n_levels),
                       rtol=1e-14, atol=0)
    assert masses.level_masses(1).sum() == pytest.approx(c, rel=1e-14)
    # a scalar Dirac mass of either size compiled to 0 or raised as inf
    with np.errstate(all="raise"):
        masses = compile_masses(HybridMeasure(d=2, diracs=[([0.3, 0.6], c)]), F)
    assert all(masses.level_masses(n).sum() == c for n in range(1, F.n_levels + 1))


def test_non_finite_compiled_masses_rejected(dyadic_2d):
    # ||g|| of a vector density of 1e200 overflows; compiling must fail, not return inf
    theta = HybridMeasure(d=2, m=2, density=lambda x, y: np.full(np.broadcast(x, y).shape + (2,), 1e200))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        compile_masses(theta, dyadic_2d)


def test_density_catalog_singular_integrable():
    dens = density_catalog("singular", 2, alpha=0.3, center=[0.5, 0.5])
    theta = HybridMeasure(d=2, density=dens, density_quad_points=8)
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=6))
    total = compile_masses(theta, F).level_masses(1).sum()
    assert np.isfinite(total)
    assert total > 0


def test_density_catalog_rejects_nonintegrable():
    with pytest.raises(ValueError):
        density_catalog("singular", 2, alpha=0.6)


def test_density_catalog_rejects_misspelt_parameters():
    assert density_catalog("polynomial", 1, degree=3)(np.array([0.5]))[0] == 0.125
    # a misspelt key would otherwise fall back to the default (degree 1, alpha 0.5)
    with pytest.raises(ValueError, match=r"density 'polynomial' parameters \['degre'\]"):
        density_catalog("polynomial", 1, degre=3)
    with pytest.raises(ValueError, match=r"density 'singular' parameters \['alpa'\]"):
        measure_from_config({"density": {"name": "singular", "alpa": 0.9}}, 1)
    with pytest.raises(ValueError, match="unknown density 'gauss'"):
        density_catalog("gauss", 1)


def test_density_parameters_fail_closed_when_built():
    # degree 2.5 once ran as 2 and True as 1, and a sigmoid axis 0.7 as 0
    for bad in (2.5, True, -1, "2"):
        with pytest.raises(ValueError, match="degree must be an integer >= 0"):
            density_catalog("polynomial", 1, degree=bad)
    for bad in (0.7, True, -1):
        with pytest.raises(ValueError, match="axis must be an integer >= 0"):
            density_catalog("sigmoid", 2, axis=bad)
    # an axis or a point of another length once built, then raised IndexError
    # at the first evaluation
    with pytest.raises(ValueError, match=r"density 'sigmoid' axis 2 outside 0\.\.1"):
        density_catalog("sigmoid", 2, axis=2)
    for name, key in (("singular", "center"), ("smooth-exp", "center"),
                      ("spike", "lo"), ("spike", "hi")):
        params = {"lo": [0.2, 0.2], "hi": [0.6, 0.6]} if name == "spike" else {}
        for bad in ([0.5], [0.5, 0.5, 0.5]):
            params[key] = bad
            with pytest.raises(ValueError, match=f"{name}' parameter '{key}' needs 2 coordinates"):
                density_catalog(name, 2, **params)
    # integers pass, numpy's too, and a scalar is one coordinate in d = 1
    assert density_catalog("polynomial", 1, degree=np.int64(0))(np.array([0.5]))[0] == 1.0
    x, y = np.array([0.2, 0.8]), np.array([0.8, 0.2])
    assert density_catalog("sigmoid", 2, axis=np.int64(1))(x, y)[1] < 1e-6
    assert density_catalog("spike", 1, lo=0.25, hi=0.5)(np.array([0.3]))[0] == 4.0


@pytest.mark.parametrize("name, key, value", [
    ("sigmoid", "center", np.inf),
    ("singular", "center", [np.inf, 0.3]),
    ("constant", "value", np.nan),
    ("polynomial", "scale", np.inf),
    ("sigmoid", "steepness", np.nan),
    ("smooth-sine", "amplitude", np.nan),
    ("smooth-sine", "frequency", -np.inf),
    ("smooth-sine", "offset", np.nan),
    ("smooth-exp", "center", [0.4, np.nan]),
    ("spike", "height", np.nan),
    ("singular", "alpha", np.nan),
], ids=lambda v: str(v))
def test_density_parameters_must_be_finite(name, key, value):
    # each was accepted; the sigmoid centred at inf and the singular density
    # centred at (inf, 0.3) evaluated to all zeros, and a NaN alpha passed the
    # alpha * d >= 1 test
    params = {"lo": [0.2, 0.2], "hi": [0.6, 0.6]} if name == "spike" else {}
    params[key] = value
    with pytest.raises(ValueError, match=f"density '{name}' parameter '{key}' must be finite"):
        density_catalog(name, 2, **params)


def test_negative_alpha_is_still_accepted():
    dens = density_catalog("singular", 2, alpha=-0.5, center=[0.5, 0.5])
    assert dens(np.array([1.0]), np.array([0.5]))[0] == pytest.approx(0.5 ** 0.5)


@pytest.mark.parametrize("lo, hi", [([0.5], [0.2]), ([0.3], [0.3]), ([0.2, 0.6], [0.6, 0.6])])
def test_spike_box_must_have_lo_below_hi(lo, hi):
    # lo > hi once built a zero function of height -3.3, and lo = hi divided by
    # zero with only a RuntimeWarning
    with pytest.raises(ValueError, match="density 'spike' needs lo < hi on every axis"):
        density_catalog("spike", len(lo), lo=lo, hi=hi)


def test_measure_from_config_round_trip():
    cfg = {
        "density": {"name": "constant", "value": 2.0},
        "diracs": [{"location": [0.25], "mass": [1.0]}],
        "density_quad_points": 4,
    }
    theta = measure_from_config(cfg, 1)
    val = measure_of_atom(theta, Rectangle((0.0,), (1.0,)))
    assert val.value[0] == pytest.approx(3.0, abs=1e-13)


def test_measure_config_rejects_unknown_keys():
    cfg = {"diracs": [{"location": [0.3], "mass": [1.0]}]}
    assert len(measure_from_config(cfg, 1).diracs) == 1
    # a misspelt key would otherwise drop the Diracs without a word
    with pytest.raises(ValueError, match=r"\['closed_atoms', 'dirac'\]"):
        measure_from_config({"dirac": cfg["diracs"], "closed_atoms": True}, 1)


def test_compiled_boundary_dirac_counts_once(dyadic_1d):
    theta = HybridMeasure(d=1, diracs=[(np.array([0.5]), np.array([1.0]))])
    open_masses = compile_masses(theta, dyadic_1d)
    for n in range(1, 6):
        mo = open_masses.level_masses(n)
        assert mo.sum() == pytest.approx(1.0)
        # the atom whose right endpoint 0.5 is
        part = dyadic_1d.axes[0].level(n)
        assert mo[int(part.atom_index_of(np.array([0.5]))[0])] == 1.0


def dirac_locations(partitions, rng):
    """Diracs that share atoms: five in one atom, two at one point, and some on
    breakpoints, on every axis at once or on one axis only."""
    inside = np.stack([rng.uniform(p.breakpoints[j], p.breakpoints[j + 1], 5) for p, j in
                       zip(partitions, [rng.integers(p.n_atoms) for p in partitions])], axis=1)
    on_bp = np.stack([rng.choice(p.breakpoints[1:], 4) for p in partitions], axis=1)
    mixed = rng.uniform(0.01, 1.0, (4, len(partitions)))
    mixed[:, 0] = on_bp[:, 0]
    spread = rng.uniform(0.01, 1.0, (6, len(partitions)))
    return np.concatenate([inside, spread[:1], on_bp, mixed, spread, inside[2:3]])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dirac_moments_match_the_per_dirac_loop(d):
    # one scatter of the tensor-basis table adds every entry's terms in Dirac order, bit
    # for bit, into moments that are a strided view when a non-separable density came first
    rng = np.random.default_rng(30 + d)
    strided = False
    for F in (random_filtration(d, d=d, n_levels=4), graded_filtration(d, seed=3)):
        parts = [ax.level(F.n_levels) for ax in F.axes]
        locations = dirac_locations(parts, rng)
        for k, m in itertools.product((1, 2, 3, 4), (1, 3)):
            spaces = [SplineSpace1D(p, k) for p in parts]
            density = (density_catalog("smooth-sine", d) if (k + m) % 4 == 2
                       else None if (k + m) % 4 == 0 else wavy_values(m))
            masses = rng.normal(size=(len(locations), m)) * 10.0 ** rng.integers(-6, 6, (len(
                locations), 1))
            theta = HybridMeasure(d=d, m=m, density=density, density_quad_points=2,
                                  diracs=list(zip(locations, masses)))
            b = source_moments(theta, spaces)
            np.testing.assert_array_equal(b, per_dirac_moments(theta, spaces))
            strided |= not source_moments(replace(theta, diracs=[]), spaces).flags.c_contiguous
    assert strided == (d > 1)


def test_sixteen_thousand_diracs_match_the_per_dirac_loop():
    # as many Diracs as a Cantor measure of depth 14, about four to an atom of 4,096
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=12))
    rng = np.random.default_rng(14)
    bp = F.axes[0].level(12).breakpoints
    locations = np.concatenate([rng.uniform(1e-9, 1.0, 16_384 - 512), rng.choice(bp[1:], 512)])
    theta = HybridMeasure(d=1, diracs=[([x], 2.0 ** -14 * (1 + x)) for x in locations])
    for k in (1, 2):
        spaces = [SplineSpace1D(F.axes[0].level(12), k)]
        np.testing.assert_array_equal(source_moments(theta, spaces),
                                      per_dirac_moments(theta, spaces))


def test_measure_dimensions_fail_closed():
    # d and m are integers >= 1: 2.5 is not truncated to 2, True is not read as 1
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        measure_from_config({"m": 2.5}, 1)
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        HybridMeasure(d=1, m=True)
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        HybridMeasure(d=2.5)
    for bad in (0, True, "1", None):
        with pytest.raises(ValueError, match="d must be an integer >= 1"):
            HybridMeasure(d=bad)
    theta = HybridMeasure(d=np.int64(2), m=np.int64(2))
    assert (theta.d, theta.m) == (2, 2) and type(theta.d) is type(theta.m) is int
    assert measure_from_config({"m": np.int64(2)}, 1).m == 2
    assert measure_from_config({}, 1).m == 1
    F = build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=2))
    for theta in (HybridMeasure(d=2), HybridMeasure(d=2, diracs=[([0.5, 0.5], 1.0)])):
        with pytest.raises(ValueError, match="measure dimension 2 != domain dimension 1"):
            compile_masses(theta, F)


def test_compile_masses_memory_is_bounded_by_slabs():
    # 512 x 512 finest atoms, 4 points per atom: 4.2 million density nodes, whose
    # values alone would take 33.6 MB; the masses take 2.1 MB, and the slabs of
    # the default CACHE_BLOCK_BYTES keep the peak below 4 MB (9.1 MB with slabs of 2 ** 18
    # nodes, each slab's values alive across the next, and level N a copy of the
    # finest masses; 6.5 MB with the order-1 axes copied through mode_apply)
    rule = {"name": "random-atom-bisect", "p_split": 1.0, "split_range": [0.35, 0.65],
            "base_atoms": 1}
    F = build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=9,
                                        rules=[rule] * 2, seed=0))
    assert F.level_shape(9) == (512, 512)
    theta = HybridMeasure(d=2, density=lambda *g: 1.0 + 0.5 * np.sin(3 * sum(g)),
                          density_quad_points=4)
    tracemalloc.start()
    try:
        masses = compile_masses(theta, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    finest = masses.level_masses(9)
    assert finest.shape == (512, 512) and masses.level_masses(9) is finest
