"""Finitely additive measures on the atom algebra: density plus finite Dirac list.

A HybridMeasure represents theta = g dlambda^d + sum_j m_j delta_{x_j} with an
integrable density g (possibly vector valued in R^m) and finitely many point
masses.  This is exactly the class needed to exercise the convergence theory:
the density is the absolutely continuous part, the Dirac list is singular to
Lebesgue measure, and the Lebesgue split is explicit in the representation.

Dirac membership follows the half-open atom convention: a Dirac on a
breakpoint belongs to the atom that the breakpoint closes.

source_moments is the one route from a measure or a function to moments
against a spline basis, and the one caller of `bspline.basis_moments`:
projections run it on their finest spaces, compiled masses on the order-1
spaces (the atom indicators) of the finest level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bspline import (DEFAULT_QUAD_POINTS, GENERAL_QUAD_POINTS, SplineSpace1D, _require_int,
                      _shaped_values, basis_moments, restrict)
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
    or on the finest spaces of a sequence or of compiled masses
    (`basis_moments`, with Gauss rules on the atoms of `spaces`), where
    `restrict` gives every coarser nested level.  A
    HybridMeasure integrates its density (if any) with its own
    density_quad_points and adds N_i(x_j) m_j for each Dirac (x_j, m_j);
    given g it raises ValueError.  A callable f(X_1, ..., X_d) is integrated
    with g points per atom, max(k, DEFAULT_QUAD_POINTS) when g is None.  A
    spline is no source here.
    """
    if isinstance(source, HybridMeasure):
        if g is not None:
            raise ValueError("a HybridMeasure source fixes its own quadrature; it takes no g")
        if source.d != len(spaces):
            raise ValueError(f"measure dimension {source.d} != domain dimension {len(spaces)}")
        if source.density is None:
            b = np.zeros(tuple(s.dimension for s in spaces) + (source.m,))
        else:
            b = basis_moments(source.density_values, spaces, source.density_quad_points)
        if source.diracs:
            locations = np.array([location for location, _ in source.diracs])
            basis = [s.eval_basis_many(locations[:, ell]) for ell, s in enumerate(spaces)]
            for j, (_, mass) in enumerate(source.diracs):
                w = reduce(np.multiply.outer, [vals[j] for _, vals in basis])
                sl = tuple(slice(first[j], first[j] + s.order)
                           for (first, _), s in zip(basis, spaces))
                b[sl] += np.multiply.outer(w, mass)
        return b
    if not callable(source):
        raise ValueError(f"unsupported source type {type(source)!r}")
    k = max(s.order for s in spaces)
    return basis_moments(source, spaces, max(k, DEFAULT_QUAD_POINTS) if g is None else g)


# ---------------------------------------------------------------------------
# compiled per-atom masses


class CompiledMasses:
    """theta evaluated on every atom of every level of a filtration.

    The masses are those of the scalar variation ||g|| dlambda^d + sum_j
    ||m_j|| delta_{x_j}, so they are nonnegative scalars for vector-valued
    theta too.  Atoms are the order-1 spline space: the finest-level masses
    are the order-1 `source_moments` of that measure, and each coarser level
    n is built once, on first use, by `restrict` from level n + 1 alone,
    which sums the children of every atom axis by axis.  So finite
    additivity and refinement consistency hold bit for bit and all
    levels together cost O(finest).  Every tensor is read-only.
    """

    def __init__(self, theta: HybridMeasure, F: TensorFiltration):
        self.F = F
        variation = HybridMeasure(
            d=theta.d, density=None if theta.density is None else theta.density_norms,
            diracs=[(x, np.linalg.norm(mass)) for x, mass in theta.diracs],
            density_quad_points=theta.density_quad_points)
        nl = F.n_levels
        self._levels = {nl: self._checked(source_moments(variation, self._atoms(nl))[..., 0], nl)}

    def _atoms(self, n: int) -> list:
        """The order-1 spaces of level n, whose basis is the atom indicators."""
        return [SplineSpace1D(ax.level(n), 1) for ax in self.F.axes]

    @staticmethod
    def _checked(out, n):
        if not np.all(np.isfinite(out)):
            raise ValueError(f"compiled masses at level {n} are not finite")
        out.flags.writeable = False
        return out

    def level_masses(self, n: int) -> np.ndarray:
        """Mass tensor at level n in 1..N, computed once from level n + 1 and cached."""
        nl = self.F.n_levels
        if _require_int("level", n, 1) > nl:
            raise ValueError(f"level must lie in 1..{nl}, got {n!r}")
        if n not in self._levels:
            self._levels[n] = self._checked(
                restrict(self.level_masses(n + 1), self._atoms(n + 1), self._atoms(n)), n)
        return self._levels[n]


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
    missing without a default or holds another number of coordinates."""
    if key not in params and default is None:
        raise ValueError(f"{what} needs parameter {key!r}")
    x = np.atleast_1d(np.asarray(params.pop(key, default), dtype=float))
    if x.shape != (d,):
        raise ValueError(f"{what} parameter {key!r} needs {d} coordinates, got {x.tolist()}")
    return x


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

    Each branch pops the parameters it reads; any left over, like an unknown
    name, raise ValueError, so that a misspelt key cannot fall back to a default.
    So does a missing spike bound, a spike box with lo >= hi on some axis, a
    point of another length than d, a non-integer degree or axis, or an axis
    outside 0..d-1.
    """
    what = f"density {name!r}"
    if name == "constant":
        c = float(params.pop("value", 1.0))
        reject_leftover_params(what, params)
        return lambda *grids: np.broadcast_arrays(*grids)[0] * 0.0 + c
    if name == "polynomial":
        degree = _require_int("degree", params.pop("degree", 1), 0)
        c = float(params.pop("scale", 1.0))
        reject_leftover_params(what, params)

        def poly(*grids):
            out = c
            for gax in grids:
                out = out * np.asarray(gax) ** degree
            return np.broadcast_arrays(out, *grids)[0] if np.isscalar(out) else out

        return poly
    if name == "singular":
        alpha = float(params.pop("alpha", 0.5 / d))
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
        center = float(params.pop("center", 0.5))
        steep = float(params.pop("steepness", 50.0))
        reject_leftover_params(what, params)
        if axis >= d:
            raise ValueError(f"{what} axis {axis} outside 0..{d - 1}")

        def sigmoid(*grids):
            vals = 0.5 * (1 + np.tanh(steep * (np.asarray(grids[axis]) - center)))
            return np.broadcast_arrays(vals, *grids)[0]

        return sigmoid
    if name == "smooth-sine":
        amp = float(params.pop("amplitude", 1.0))
        freq = float(params.pop("frequency", 1.0))
        offset = float(params.pop("offset", 0.0))
        reject_leftover_params(what, params)

        def sine(*grids):
            out = amp
            for ell, gax in enumerate(grids):
                out = out * np.sin(2 * np.pi * freq * np.asarray(gax) + 0.3 * (ell + 1))
            return out + offset

        return sine
    if name == "smooth-exp":
        center = _pop_point(what, params, "center", d, [0.4] * d)
        reject_leftover_params(what, params)

        def gauss(*grids):
            r2 = sum((np.asarray(g) - center[ell]) ** 2 for ell, g in enumerate(grids))
            return np.exp(-4.0 * r2)

        return gauss
    if name == "spike":
        lo = _pop_point(what, params, "lo", d)
        hi = _pop_point(what, params, "hi", d)
        # written so that NaN fails the test too
        if not np.all(lo < hi):
            raise ValueError(f"{what} needs lo < hi on every axis, got lo={lo.tolist()}, "
                             f"hi={hi.tolist()}")
        height = float(params.pop("height", 1.0 / np.prod(hi - lo)))
        reject_leftover_params(what, params)

        def spike(*grids):
            inside = np.ones(np.broadcast_shapes(*(np.shape(g) for g in grids)), dtype=bool)
            for ell, gax in enumerate(grids):
                inside &= (np.asarray(gax) > lo[ell]) & (np.asarray(gax) <= hi[ell])
            return np.where(inside, height, 0.0)

        return spike
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
