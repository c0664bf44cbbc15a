"""Martingale spline sequences and pointwise convergence probes.

A sequence (g_n) with P_n g_{n+1} = g_n generalizes a martingale: for order 1
the projector is the conditional expectation.  Here g_n is produced either by
projecting a fixed function f level by level (g_n = P_n f) or from a hybrid
measure nu via g_n = sum_i (int N_{n,i} d nu) N*_{n,i}; both satisfy the
martingale spline identity because the spaces are nested and the moment of a
coarse B-spline against nu is level independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import TensorQuadrature, TensorSpline, as_value_array
from .filtration import TensorFiltration
from .measures import HybridMeasure
from .projector import TensorProjector

PROBE_BREAKPOINT_GAP = 1e-9  # probe points stay this far from every breakpoint
PROBE_MAX_ROUNDS = 1000      # rejection rounds before sample_probe_points gives up


@dataclass
class MartingaleSplineSequence:
    F: TensorFiltration
    orders: tuple
    splines: list              # TensorSpline per level, index n-1
    source_kind: str           # "function" | "measure" | "spline"
    m: int = 1

    @property
    def n_levels(self) -> int:
        return len(self.splines)

    def level(self, n: int) -> TensorSpline:
        return self.splines[n - 1]


def make_sequence(F: TensorFiltration, source, orders, N_max: int = None,
                  quad_points: int = None) -> MartingaleSplineSequence:
    """Build g_1, ..., g_{N_max} from a function or a HybridMeasure source.

    Density and function moments are integrated on the finest-level partition
    with a fixed rule, which makes the discrete moments exactly additive
    across levels: the produced sequence satisfies P_n g_{n+1} = g_n to
    roundoff regardless of how rough the source is.  The source is evaluated
    once on that grid and reduced once to per-atom Lagrange moments; each
    level then only multiplies them by its small per-axis collocation
    matrices and solves.
    """
    if N_max is None:
        N_max = F.n_levels
    if isinstance(orders, int):
        orders = (orders,) * F.d
    finest = [ax.level(F.n_levels) for ax in F.axes]
    projectors = [TensorProjector.for_level(F, n, orders) for n in range(1, N_max + 1)]
    if isinstance(source, TensorSpline):
        kind = "spline"
        splines = [tp.project_spline(source) for tp in projectors]
    else:
        moments = m = None
        diracs = ()
        if isinstance(source, HybridMeasure):
            if source.d != F.d:
                raise ValueError(f"measure dimension {source.d} != filtration dimension {F.d}")
            kind, m, diracs = "measure", source.m, source.diracs
            if source.density is not None:
                quad = TensorQuadrature(finest, source.density_quad_points)
                moments = quad.lagrange_moments(source.density_values(*quad.grids), orders)
        elif callable(source):
            # the finest grid already resolves the source, so max(k, 4) points
            # per finest atom is the workhorse rule here
            kind = "function"
            quad = TensorQuadrature(finest, quad_points or max(max(orders), 4))
            moments = quad.lagrange_moments(quad.values(source), orders)
        else:
            raise ValueError(f"unsupported source type {type(source)!r}")
        splines = [tp.project_values(moments, m=m, diracs=diracs) for tp in projectors]
    return MartingaleSplineSequence(
        F=F,
        orders=tuple(orders),
        splines=splines,
        source_kind=kind,
        m=splines[0].m,
    )


def sample_probe_points(F: TensorFiltration, n_points: int, seed: int = 0,
                        gap: float = PROBE_BREAKPOINT_GAP,
                        exclude=None) -> np.ndarray:
    """Uniform points of I^d, rejected near any breakpoint of any level.

    Almost-everywhere statements cannot be probed on the grid itself, where
    the half-open conventions matter; rejection keeps every coordinate at
    least `gap` away from every breakpoint.  `exclude` is an optional list of
    (point, radius) pairs, used to keep probes away from Dirac locations whose
    finite-depth remnant would otherwise dominate a convergence measurement.
    Raises ValueError when `gap` leaves no room on some axis, or when fewer
    than n_points survive PROBE_MAX_ROUNDS rounds of rejection.
    """
    rng = np.random.default_rng(seed)
    iv = F.interval
    all_bps = [
        np.unique(np.concatenate([lvl.breakpoints for lvl in ax.levels]))
        for ax in F.axes
    ]
    for ell, bps in enumerate(all_bps):
        if not np.any(np.diff(bps) > 2 * gap):
            raise ValueError(
                f"no point of axis {ell} lies farther than gap={gap} from every breakpoint"
            )
    exclude = [
        (np.atleast_1d(np.asarray(pt, dtype=float)), float(rad)) for pt, rad in (exclude or [])
    ]
    out = np.empty((n_points, F.d))
    got, rounds = 0, 0
    while got < n_points:
        if rounds == PROBE_MAX_ROUNDS:
            raise ValueError(
                f"only {got} of {n_points} probe points survived {rounds} rejection rounds; "
                "`gap` and `exclude` leave too little of the domain"
            )
        rounds += 1
        cand = iv.lo + (iv.hi - iv.lo) * rng.random((2 * (n_points - got) + 8, F.d))
        ok = np.ones(len(cand), dtype=bool)
        for ell in range(F.d):
            j = np.searchsorted(all_bps[ell], cand[:, ell])
            left = np.abs(cand[:, ell] - all_bps[ell][np.clip(j - 1, 0, None)])
            right = np.abs(all_bps[ell][np.clip(j, None, len(all_bps[ell]) - 1)] - cand[:, ell])
            ok &= (left > gap) & (right > gap)
        for pt, rad in exclude:
            ok &= np.abs(cand - pt[None, :]).max(axis=1) > rad
        cand = cand[ok]
        take = min(len(cand), n_points - got)
        out[got : got + take] = cand[:take]
        got += take
    return out


def verify_martingale_property(seq: MartingaleSplineSequence, n_probe: int = 200,
                               seed: int = 0) -> float:
    """max over n and probe points of ||P_n g_{n+1}(y) - g_n(y)||."""
    if seq.n_levels < 2:
        raise ValueError("need at least two levels")
    pts = sample_probe_points(seq.F, n_probe, seed=seed)
    worst = 0.0
    for n in range(1, seq.n_levels):
        tp = TensorProjector.for_level(seq.F, n, seq.orders)
        proj = tp.project_spline(seq.level(n + 1))
        err = np.linalg.norm(proj.eval_many(pts) - seq.level(n).eval_many(pts), axis=-1)
        worst = max(worst, float(err.max()))
    return worst


@dataclass
class ConvergenceProbe:
    """Per-point error trajectories ||g_n(y) - ref(y)|| for seeded probe points."""

    points: np.ndarray            # (n_points, d)
    errors: np.ndarray            # (n_levels, n_points)
    reference_kind: str
    final_tol: float
    fraction_below_tol: float


def convergence_probe(seq: MartingaleSplineSequence, reference=None, points=None,
                      n_points: int = 200, seed: int = 0,
                      final_tol: float = 1e-3) -> ConvergenceProbe:
    """Track ||g_n(y) - g_ref(y)|| at probe points across levels.

    `reference` may be a callable (the known limit), a TensorSpline, or None,
    in which case the deepest-level spline serves as the oracle for the
    projection onto the closure of the union of the spaces.
    """
    if points is None:
        points = sample_probe_points(seq.F, n_points, seed=seed)
    points = np.asarray(points, dtype=float)
    if reference is None:
        ref_vals = seq.level(seq.n_levels).eval_many(points)
        kind = "deepest-level"
        n_use = seq.n_levels - 1
    elif isinstance(reference, TensorSpline):
        ref_vals = reference.eval_many(points)
        kind = "spline"
        n_use = seq.n_levels
    else:
        raw = reference(*[points[:, ell] for ell in range(seq.F.d)])
        ref_vals = as_value_array(raw, (len(points),), "reference")
        kind = "callable"
        n_use = seq.n_levels
    errors = np.empty((n_use, len(points)))
    for n in range(1, n_use + 1):
        vals = seq.level(n).eval_many(points)
        errors[n - 1] = np.linalg.norm(vals - ref_vals, axis=-1)
    final = errors[-1]
    frac = float(np.mean(final < final_tol))
    return ConvergenceProbe(
        points=points,
        errors=errors,
        reference_kind=kind,
        final_tol=final_tol,
        fraction_below_tol=frac,
    )
