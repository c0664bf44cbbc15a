"""Finitely additive measures on the atom algebra: density plus finite Dirac list.

A HybridMeasure represents theta = g dlambda^d + sum_j m_j delta_{x_j} with an
integrable density g (possibly vector valued in R^m) and finitely many point
masses.  This is exactly the class needed to exercise the convergence theory:
the density is the absolutely continuous part, the Dirac list is singular to
Lebesgue measure, and the Lebesgue split is explicit in the representation.

Dirac membership follows the half-open atom convention: a Dirac on a
breakpoint belongs to the atom that the breakpoint closes.  The Dirac terms
of the moments are one scatter of the tensor-basis table that spline values
gather from (`bspline._point_basis`), Dirac by Dirac, so every moment adds
its Diracs in their order.

source_moments is the one route from a measure or a function to moments
against a spline basis, and the one caller of `bspline.basis_moments`.
level_moments is the one level chain: it reduces a source once on the finest
level and restricts level by level (`bspline.restrict`, whose one caller it
is).  Martingale sequences run it on their order-k spaces, compiled masses on
the order-1 spaces (the atom indicators); projections run source_moments on
their own spaces.  The catalog returns its product-form entries as
`bspline.SeparableFunction`s, which that route integrates axis by axis as a
function or as the density of a scalar measure; a variation ||g|| takes the
route of every other density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bspline import (DEFAULT_QUAD_POINTS, GENERAL_QUAD_POINTS, SeparableFunction,
                      SplineSpace1D, _point_basis, _require_int, _shaped_values, basis_moments,
                      restrict)
from .filtration import TensorFiltration


@dataclass
class HybridMeasure:
    """density g (callable on coordinate grids, or None) plus Dirac masses."""

    d: int
    density: object = None
    diracs: list = field(default_factory=list)
    m: int = 1
    density_quad_points: int = GENERAL_QUAD_POINTS

    def __post_init__(self):
        # dimensions fail closed: 2.5 and True are not truncated or read as 1
        self.d = _require_int("d", self.d, 1)
        self.m = _require_int("m", self.m, 1)
        _require_int("density_quad_points", self.density_quad_points, 1)
        cleaned = []
        for location, mass in self.diracs:
            loc = np.atleast_1d(np.asarray(location, dtype=float))
            if loc.shape != (self.d,):
                raise ValueError(f"Dirac location {location} has wrong dimension")
            mv = np.atleast_1d(np.asarray(mass, dtype=float))
            if mv.shape == (1,) and self.m > 1:
                mv = np.full(self.m, mv[0])
            if mv.shape != (self.m,):
                raise ValueError(f"Dirac mass shape {mv.shape} != (m={self.m},)")
            if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(mv))):
                raise ValueError(f"Dirac at {location} with mass {mass} is not finite")
            cleaned.append((loc, mv))
        self.diracs = cleaned

    def density_values(self, *grids) -> np.ndarray:
        """Density on coordinate grids, shape (..., m); the quadrature rejects NaN and inf."""
        base = np.broadcast_shapes(*(np.shape(g) for g in grids))
        if self.density is None:
            return np.zeros(base + (self.m,))
        out = _shaped_values(self.density(*grids), base, "density")
        if out.shape[-1] == 1 and self.m > 1:
            out = np.repeat(out, self.m, axis=-1)
        if out.shape[-1] != self.m:
            raise ValueError(f"density returned m={out.shape[-1]}, measure has m={self.m}")
        return out

    def density_norms(self, *grids) -> np.ndarray:
        """||g|| over the value axis on coordinate grids, shape (..., 1)."""
        vals = self.density_values(*grids)
        if vals.shape[-1] == 1:
            # |g| is exact; sqrt(g^2) equals it bit for bit unless g^2 under- or overflows
            return np.abs(vals)
        # ||g|| with np.linalg.norm's arithmetic (sqrt of the summed squares),
        # but one temporary instead of three; the quadrature tests the norms for
        # NaN and inf, and an overflow of finite squares raises from its flag
        try:
            with np.errstate(over="raise"):
                sq = np.add.reduce(np.square(vals), axis=-1, keepdims=True)
        except FloatingPointError:
            raise ValueError("||g|| of the density is not finite: its summed squares "
                             "overflow") from None
        return np.sqrt(sq, out=sq)


def source_moments(source, spaces, g: int = None) -> np.ndarray:
    """Moments b_i = int prod_l N_{i_l} dsource over `spaces`, shape (dim_1, ..., dim_d, m).

    The one route from a source to moments, run on a projector's own spaces
    or on the finest spaces of `level_moments` (`basis_moments`, with Gauss
    rules on the atoms of `spaces`).  A
    HybridMeasure integrates its density (if any) with its own
    density_quad_points and adds N_i(x_j) m_j for each Dirac (x_j, m_j);
    given g it raises ValueError.  A SeparableFunction density of a scalar
    measure (m = 1) goes to basis_moments as it is, which integrates it axis
    by axis; any other density goes through `density_values`.  A callable
    f(X_1, ..., X_d) is integrated with g points per atom, max(k,
    DEFAULT_QUAD_POINTS) when g is None.  A spline is no source here.
    """
    if isinstance(source, HybridMeasure):
        if g is not None:
            raise ValueError("a HybridMeasure source fixes its own quadrature; it takes no g")
        if source.d != len(spaces):
            raise ValueError(f"measure dimension {source.d} != domain dimension {len(spaces)}")
        if source.density is None:
            b = np.zeros(tuple(s.dimension for s in spaces) + (source.m,))
        elif isinstance(source.density, SeparableFunction) and source.m == 1:
            b = basis_moments(source.density, spaces, source.density_quad_points)
        else:
            b = basis_moments(source.density_values, spaces, source.density_quad_points)
        if source.diracs:
            flat, w = _point_basis(spaces, np.array([x for x, _ in source.diracs]))
            terms = w.T[..., None] * np.array([mass for _, mass in source.diracs])[:, None]
            # Dirac-major, so each entry adds in Dirac order; unraveled before the
            # transpose: numpy 2.4 misreads an (n, 1) view of n > 8,192
            np.add.at(b, tuple(i.T for i in np.unravel_index(flat, b.shape[:-1])), terms)
        return b
    if not callable(source):
        raise ValueError(f"unsupported source type {type(source)!r}")
    k = max(s.order for s in spaces)
    return basis_moments(source, spaces, max(k, DEFAULT_QUAD_POINTS) if g is None else g)


def level_moments(source, levels, g: int = None):
    """Moments of `source` on every level, finest first: levels[n-1] lists the spaces of
    level n, each nested in the next.  Level N gets `source_moments`, and every coarser
    level the exact restriction T_n^T of the one before (`restrict`), so the source is
    reduced once and each level is built once."""
    b = source_moments(source, levels[-1], g)
    yield b
    for fine, coarse in zip(levels[:0:-1], levels[-2::-1]):
        b = restrict(b, fine, coarse)
        yield b


# ---------------------------------------------------------------------------
# compiled per-atom masses


class CompiledMasses:
    """theta evaluated on every atom of every level of a filtration.

    The masses are those of the scalar variation ||g|| dlambda^d + sum_j
    ||m_j|| delta_{x_j}, so they are nonnegative scalars for vector-valued
    theta too; a scalar m_j gives |m_j|, whose square could overflow.  Atoms
    are the order-1 spline space, whose T_n^T sums the children of every
    atom axis by axis: the constructor builds the order-1 spaces of every
    level once and takes every level from `level_moments`, so finite
    additivity and refinement consistency hold bit for bit and all levels
    together cost O(finest).  Each level is checked once to lie in
    [0, inf), which a NaN fails too, and kept read-only.
    """

    def __init__(self, theta: HybridMeasure, F: TensorFiltration):
        self.F = F
        variation = HybridMeasure(
            d=theta.d, density=None if theta.density is None else theta.density_norms,
            diracs=[(x, np.abs(mass) if theta.m == 1 else np.linalg.norm(mass))
                    for x, mass in theta.diracs],
            density_quad_points=theta.density_quad_points)
        atoms = [[SplineSpace1D(ax.level(n), 1) for ax in F.axes]
                 for n in range(1, F.n_levels + 1)]
        levels = []
        for n, b in zip(range(F.n_levels, 0, -1), level_moments(variation, atoms)):
            masses = b[..., 0]
            if not np.all((masses >= 0) & (masses < np.inf)):
                raise ValueError(f"compiled masses at level {n} are negative or not finite")
            masses.flags.writeable = False
            levels.append(masses)
        self._levels = tuple(levels[::-1])

    def level_masses(self, n: int) -> np.ndarray:
        """Mass tensor at level n in 1..N."""
        if _require_int("level", n, 1) > len(self._levels):
            raise ValueError(f"level must lie in 1..{len(self._levels)}, got {n!r}")
        return self._levels[n - 1]


def compile_masses(theta: HybridMeasure, F: TensorFiltration) -> CompiledMasses:
    return CompiledMasses(theta, F)


# ---------------------------------------------------------------------------
# density catalog


def reject_leftover_params(what: str, params: dict) -> None:
    """Raise ValueError naming the parameters no branch popped, so a misspelt key cannot pass."""
    if params:
        raise ValueError(f"unknown {what} parameters {sorted(params)}")


def _pop_point(what: str, params: dict, key: str, d: int, default=None) -> np.ndarray:
    """params[key], or `default` when given, as d coordinates; ValueError when the key is
    missing without a default, holds another number of coordinates or one that is not
    finite."""
    if key not in params and default is None:
        raise ValueError(f"{what} needs parameter {key!r}")
    x = np.atleast_1d(np.asarray(params.pop(key, default), dtype=float))
    if x.shape != (d,):
        raise ValueError(f"{what} parameter {key!r} needs {d} coordinates, got {x.tolist()}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} parameter {key!r} must be finite, got {x.tolist()}")
    return x


def _pop_real(what: str, params: dict, key: str, default) -> float:
    """params[key], or `default` when the key is missing, as one finite float."""
    return float(_pop_point(what, params, key, 1, default)[0])


def _ones(x):
    return np.ones(np.shape(x))


def density_catalog(name: str, d: int, **params):
    """Named grid callables, the densities of measures and the functions experiments
    project; parameters are recorded by the caller.

    constant: value c
    polynomial: prod_l x_l^{degree} scaled by c
    singular: ||x - x0||^(-alpha) with alpha*d < 1 (integrable)
    sigmoid: steep tanh step across a hyperplane x_l = c (indicator-like)
    smooth-sine: amplitude * prod_l sin(2 pi frequency x_l + 0.3 (l + 1)) + offset
    smooth-exp: exp(-4 ||x - center||^2)
    spike: constant height on the box (lo, hi], 0 elsewhere (unit mass by default)

    Every entry but `singular` is a product of one-axis factors and comes as a
    SeparableFunction (`smooth-sine` with two terms, the product and the
    offset), whose moments are integrated axis by axis; `singular` is a plain
    closure.  In d = 1 each takes the values of the closure it replaced bit
    for bit, and in d >= 2 all but `smooth-exp` (a product of exponentials
    instead of the exponential of a sum) do too.

    Each branch pops the parameters it reads; any left over, like an unknown
    name, raise ValueError, so that a misspelt key cannot fall back to a default.
    So does a missing spike bound, a spike box with lo >= hi on some axis, a
    point of another length than d, a parameter or coordinate that is not
    finite, a non-integer degree or axis, or an axis outside 0..d-1.
    """
    what = f"density {name!r}"
    if name == "constant":
        c = _pop_real(what, params, "value", 1.0)
        reject_leftover_params(what, params)
        return SeparableFunction([(c, [_ones] * d)], "constant")
    if name == "polynomial":
        degree = _require_int("degree", params.pop("degree", 1), 0)
        c = _pop_real(what, params, "scale", 1.0)
        reject_leftover_params(what, params)

        def power(x):
            return np.asarray(x) ** degree

        return SeparableFunction([(c, [power] * d)], "poly")
    if name == "singular":
        alpha = _pop_real(what, params, "alpha", 0.5 / d)
        x0 = _pop_point(what, params, "center", d, [0.5] * d)
        reject_leftover_params(what, params)
        if alpha * d >= 1:
            raise ValueError(f"alpha*d = {alpha * d} >= 1 is not integrable")

        def singular(*grids):
            r2 = sum((np.asarray(g) - x0[ell]) ** 2 for ell, g in enumerate(grids))
            r2 = np.maximum(r2, 1e-300)
            return r2 ** (-alpha / 2)

        return singular
    if name == "sigmoid":
        axis = _require_int("axis", params.pop("axis", 0), 0)
        center = _pop_real(what, params, "center", 0.5)
        steep = _pop_real(what, params, "steepness", 50.0)
        reject_leftover_params(what, params)
        if axis >= d:
            raise ValueError(f"{what} axis {axis} outside 0..{d - 1}")

        def step(x):
            return 0.5 * (1 + np.tanh(steep * (np.asarray(x) - center)))

        return SeparableFunction([(1.0, [step if ell == axis else _ones for ell in range(d)])],
                                 "sigmoid")
    if name == "smooth-sine":
        amp = _pop_real(what, params, "amplitude", 1.0)
        freq = _pop_real(what, params, "frequency", 1.0)
        offset = _pop_real(what, params, "offset", 0.0)
        reject_leftover_params(what, params)
        waves = [lambda x, phase=0.3 * (ell + 1): np.sin(2 * np.pi * freq * np.asarray(x) + phase)
                 for ell in range(d)]
        return SeparableFunction([(amp, waves), (offset, [_ones] * d)], "sine")
    if name == "smooth-exp":
        center = _pop_point(what, params, "center", d, [0.4] * d)
        reject_leftover_params(what, params)
        bumps = [lambda x, c=c: np.exp(-4.0 * (np.asarray(x) - c) ** 2) for c in center]
        return SeparableFunction([(1.0, bumps)], "gauss")
    if name == "spike":
        lo = _pop_point(what, params, "lo", d)
        hi = _pop_point(what, params, "hi", d)
        if not np.all(lo < hi):
            raise ValueError(f"{what} needs lo < hi on every axis, got lo={lo.tolist()}, "
                             f"hi={hi.tolist()}")
        height = _pop_real(what, params, "height", 1.0 / np.prod(hi - lo))
        reject_leftover_params(what, params)
        boxes = [lambda x, a=a, b=b: ((np.asarray(x) > a) & (np.asarray(x) <= b)).astype(float)
                 for a, b in zip(lo, hi)]
        return SeparableFunction([(height, boxes)], "spike")
    raise ValueError(f"unknown density {name!r}")


MEASURE_CONFIG_KEYS = ("density", "diracs", "m", "density_quad_points")
DIRAC_CONFIG_KEYS = ("location", "mass")


def measure_from_config(cfg: dict, d: int) -> HybridMeasure:
    """HybridMeasure from a config dict: named density plus explicit Dirac list.

    Raises ValueError naming any key outside MEASURE_CONFIG_KEYS, a density
    without a name, or a Dirac entry whose keys are not DIRAC_CONFIG_KEYS, so
    that a misspelt key cannot silently drop part of the measure.
    """
    unknown = sorted(set(cfg) - set(MEASURE_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown measure config keys {unknown}; "
                         f"expected a subset of {list(MEASURE_CONFIG_KEYS)}")
    density = None
    quad = cfg.get("density_quad_points", GENERAL_QUAD_POINTS)
    if cfg.get("density"):
        spec = dict(cfg["density"])
        if "name" not in spec:
            raise ValueError("measure density needs key 'name'")
        density = density_catalog(spec.pop("name"), d, **spec)
    diracs = []
    for j, e in enumerate(cfg.get("diracs", [])):
        problems = [f"{what} keys {sorted(keys)}" for what, keys in (
            ("missing", set(DIRAC_CONFIG_KEYS) - set(e)),
            ("unknown", set(e) - set(DIRAC_CONFIG_KEYS))) if keys]
        if problems:
            raise ValueError(f"dirac {j}: {'; '.join(problems)}")
        diracs.append((np.asarray(e["location"], float), np.asarray(e["mass"], float)))
    return HybridMeasure(
        d=d,
        density=density,
        diracs=diracs,
        m=cfg.get("m", 1),
        density_quad_points=quad,
    )
