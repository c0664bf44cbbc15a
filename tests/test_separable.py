"""Product-form sources: moments integrated axis by axis against the slab route."""

import numpy as np
import pytest

from splinelab import (FiltrationSpec, HybridMeasure, SeparableFunction, SplineSpace1D,
                       build_filtration, compile_masses, density_catalog, make_sequence,
                       verify_martingale_property)
from splinelab.bspline import basis_moments, restrict
from splinelab.measures import source_moments

from conftest import graded_filtration, random_filtration

SEPARABLE = {   # every separable catalog entry, each with parameters off its defaults
    "constant": lambda d: {"value": 2.5},
    "polynomial": lambda d: {"degree": 2, "scale": 1.5},
    "sigmoid": lambda d: {"axis": d - 1, "center": 0.45, "steepness": 20.0},
    "smooth-sine": lambda d: {"amplitude": 0.8, "frequency": 1.5, "offset": 0.7},
    "smooth-exp": lambda d: {},
    "spike": lambda d: {"lo": [0.2] * d, "hi": [0.6] * d},
}


def uniform_filtration(d, n_levels):
    return build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=n_levels))


MESHES = {   # name -> d -> filtration; the graded one reaches the 1e-9 width floor
    "uniform": lambda d: uniform_filtration(d, (5, 3)[d - 2]),
    "random": lambda d: random_filtration(11, d=d, n_levels=(4, 2)[d - 2]),
    "graded": lambda d: graded_filtration(d),
}


def on_the_slabs(f):
    """f as a plain callable, which basis_moments evaluates on the node grid."""
    return lambda *grids: f(*grids)


def finest_spaces(F, k):
    return [SplineSpace1D(ax.level(F.n_levels), k) for ax in F.axes]


def assert_close_to(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("d", [2, 3])
def test_separable_moments_match_the_slab_route(d, mesh):
    F = MESHES[mesh](d)
    g = 4 if d == 2 else 2
    for name, params in SEPARABLE.items():
        f = density_catalog(name, d, **params(d))
        assert isinstance(f, SeparableFunction)
        for k in (1, 2, 3, 4):
            spaces = finest_spaces(F, k)
            assert_close_to(basis_moments(f, spaces, g), basis_moments(on_the_slabs(f), spaces, g))


@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_separable_density_with_diracs_matches_the_slab_route(mesh):
    F = MESHES[mesh](2)
    diracs = [(np.array([0.3, 0.6]), np.array([1.0])), (np.array([0.71, 0.2]), -0.5)]
    for name, params in SEPARABLE.items():
        dens = density_catalog(name, 2, **params(2))
        for k in (1, 2, 3, 4):
            spaces = finest_spaces(F, k)
            theta, plain = (HybridMeasure(d=2, density=f, diracs=diracs, density_quad_points=5)
                            for f in (dens, on_the_slabs(dens)))
            assert_close_to(source_moments(theta, spaces), source_moments(plain, spaces))


@pytest.mark.parametrize("d", [2, 3])
def test_compiled_spike_masses_are_additive_across_levels(d):
    F = random_filtration(5, d=d, n_levels=(5, 3)[d - 2])
    # a box of finest atoms, as weaktype's spikes, holds its unit mass to roundoff
    box = [F.atom_rectangle(F.n_levels, (i,) * d) for i in (1, 4)]
    spike = density_catalog("spike", d, lo=box[0].lo, hi=box[1].hi)
    masses, plain = (compile_masses(HybridMeasure(d=d, density=f, density_quad_points=4), F)
                     for f in (spike, on_the_slabs(spike)))
    for n in range(1, F.n_levels + 1):
        assert_close_to(masses.level_masses(n), plain.level_masses(n))
    # every coarser level is the exact sum of its children, bit for bit
    for n in range(1, F.n_levels):
        atoms = [[SplineSpace1D(ax.level(level), 1) for ax in F.axes] for level in (n, n + 1)]
        assert np.array_equal(masses.level_masses(n),
                              restrict(masses.level_masses(n + 1), atoms[1], atoms[0]))
    assert masses.level_masses(1).sum() == pytest.approx(1.0, rel=1e-13)


def test_masses_of_a_signed_separable_density_are_its_variation():
    # |c| prod |phi|: the sine changes sign, and a negative coefficient too
    F = uniform_filtration(2, 4)
    f = SeparableFunction([(-2.0, [lambda x: np.sin(7 * x), lambda y: y - 0.5])])
    masses, plain = (compile_masses(HybridMeasure(d=2, density=dens, density_quad_points=6), F)
                     for dens in (f, on_the_slabs(f)))
    assert np.all(masses.level_masses(4) >= 0)
    assert_close_to(masses.level_masses(4), plain.level_masses(4))


def test_non_finite_separable_moments_raise():
    spaces = finest_spaces(uniform_filtration(2, 3), 2)

    def nan_above_half(x):
        return np.where(x > 0.5, np.nan, 1.0)

    def huge(x):
        return np.full(np.shape(x), 1e200)

    with pytest.raises(ValueError, match="non-finite"):
        basis_moments(SeparableFunction([(1.0, [huge, nan_above_half])]), spaces, 4)
    # each axis's moments are finite (about 1e199), their products are not
    with pytest.raises(ValueError, match="moments of .* are not finite"):
        basis_moments(SeparableFunction([(1.0, [huge, huge])]), spaces, 4)


def test_separable_function_fails_closed():
    with pytest.raises(ValueError, match="one factor per axis"):
        SeparableFunction([(1.0, [np.cos]), (1.0, [np.cos, np.sin])])
    with pytest.raises(ValueError, match="finite"):
        SeparableFunction([(np.inf, [np.cos, np.sin])])
    spaces = finest_spaces(uniform_filtration(2, 3), 2)
    with pytest.raises(ValueError, match="3 axes"):
        basis_moments(SeparableFunction([(1.0, [np.cos] * 3)]), spaces, 4)
    with pytest.raises(ValueError, match="not scalar"):
        basis_moments(SeparableFunction([(1.0, [np.cos, lambda y: np.stack([y, y], -1)])]),
                      spaces, 4)


@pytest.mark.parametrize("d", [2, 3])
def test_factors_see_only_their_own_axis_nodes(d):
    F = random_filtration(2, d=d, n_levels=4)
    spaces, g = finest_spaces(F, 3), 5
    sizes = [[] for _ in range(d)]

    def counted(ell):
        def phi(x):
            sizes[ell].append(np.size(x))
            return np.cos(x + ell)

        return phi

    f = SeparableFunction([(1.0, [counted(ell) for ell in range(d)]),
                           (0.5, [counted(ell) for ell in range(d)])])
    basis_moments(f, spaces, g)
    for ell, space in enumerate(spaces):
        # one evaluation per term, on the g nodes of every atom of axis ell alone
        assert sizes[ell] == [g * space.partition.n_atoms] * 2


def parent_closures(d):
    """The closures the separable catalog entries replaced, with the parameters of
    SEPARABLE."""
    c, degree = 1.5, 2
    center, steep = 0.45, 20.0
    amp, freq, offset = 0.8, 1.5, 0.7
    lo, hi = np.array([0.2] * d), np.array([0.6] * d)
    height = 1.0 / np.prod(hi - lo)

    def poly(*grids):
        out = c
        for gax in grids:
            out = out * np.asarray(gax) ** degree
        return out

    def sine(*grids):
        out = amp
        for ell, gax in enumerate(grids):
            out = out * np.sin(2 * np.pi * freq * np.asarray(gax) + 0.3 * (ell + 1))
        return out + offset

    def gauss(*grids):
        r2 = sum((np.asarray(gr) - 0.4) ** 2 for gr in grids)
        return np.exp(-4.0 * r2)

    def spike(*grids):
        inside = np.ones(np.broadcast_shapes(*(np.shape(gr) for gr in grids)), dtype=bool)
        for ell, gax in enumerate(grids):
            inside &= (np.asarray(gax) > lo[ell]) & (np.asarray(gax) <= hi[ell])
        return np.where(inside, height, 0.0)

    return {
        "constant": lambda *grids: np.broadcast_arrays(*grids)[0] * 0.0 + 2.5,
        "polynomial": poly,
        "sigmoid": lambda *grids: 0.5 * (1 + np.tanh(steep * (np.asarray(grids[-1]) - center))),
        "smooth-sine": sine,
        "smooth-exp": gauss,
        "spike": spike,
    }


def test_one_dimensional_catalog_values_are_the_parent_closures_bit_for_bit():
    xs = np.concatenate([np.linspace(0.0, 1.0, 1001), [0.2, 0.6, 0.4, 0.45]])
    closures = parent_closures(1)
    for name, params in SEPARABLE.items():
        got = density_catalog(name, 1, **params(1))(xs)
        want = closures[name](xs)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_three_dimensional_sequence_of_smooth_exp_is_a_martingale():
    F = uniform_filtration(3, 5)    # 32^3 finest atoms
    seq = make_sequence(F, density_catalog("smooth-exp", 3), (2, 2, 2))
    assert seq.level(5).coeffs.shape == (33, 33, 33, 1)
    assert verify_martingale_property(seq, n_probe=100) <= 1e-12
