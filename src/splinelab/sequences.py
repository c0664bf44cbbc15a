"""Martingale spline sequences and pointwise convergence probes.

A sequence (g_n) with P_n g_{n+1} = g_n generalizes a martingale: for order 1
the projector is the conditional expectation.  Here g_n is produced either by
projecting a fixed function f level by level (g_n = P_n f) or from a hybrid
measure nu via g_n = sum_i (int N_{n,i} d nu) N*_{n,i}; both satisfy the
martingale spline identity because the spaces are nested: every coarse
B-spline is a fixed combination of finer ones, N_{n,j} = sum_i T_n[i, j]
N_{n+1,i} (knot insertion), so the moments of level n are T_n^T times those
of level n + 1.  A sequence keeps the projector P_n of every level, so
checking P_n g_{n+1} = g_n factorizes no Gram matrix again; the check
integrates g_{n+1} on the common refinement, never through T_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import TensorSpline, _require_int, as_value_array
from .filtration import TensorFiltration
from .measures import level_moments
from .projector import TensorProjector

PROBE_BREAKPOINT_GAP = 1e-9  # probe points stay this far from every breakpoint
PROBE_MAX_ROUNDS = 1000      # rejection rounds before sample_probe_points gives up


@dataclass
class MartingaleSplineSequence:
    F: TensorFiltration
    splines: list              # TensorSpline per level, index n-1
    projectors: list           # TensorProjector per level, index n-1

    @property
    def orders(self) -> tuple:
        return self.projectors[-1].orders

    @property
    def m(self) -> int:
        return self.splines[0].m

    @property
    def n_levels(self) -> int:
        return len(self.splines)

    def level(self, n: int) -> TensorSpline:
        return self.splines[n - 1]


def make_sequence(F: TensorFiltration, source, orders,
                  quad_points: int = None) -> MartingaleSplineSequence:
    """Build g_1, ..., g_N on every level of F from a function or a HybridMeasure.

    The source is evaluated once, at the Gauss nodes of the finest level,
    and reduced against the finest basis, Dirac terms included: a function
    with `quad_points` points per finest atom, max(k, DEFAULT_QUAD_POINTS) by
    default, a measure with its own density rule.  Each coarser level's
    moments are the exact restriction b_n = T_n^T b_{n+1}, so P_n g_{n+1} =
    g_n holds to roundoff however rough the source is; `level_moments` yields
    them finest first, and each level's projector, kept with the sequence,
    solves.
    """
    projectors = [TensorProjector.for_level(F, n, orders) for n in range(1, F.n_levels + 1)]
    splines = [TensorSpline(tp.spaces, tp.solve_coefficients(b)) for tp, b in zip(
        projectors[::-1], level_moments(source, [tp.spaces for tp in projectors], quad_points))]
    splines.reverse()
    return MartingaleSplineSequence(F=F, splines=splines, projectors=projectors)


def sample_probe_points(F: TensorFiltration, n_points: int, seed: int = 0,
                        exclude=None) -> np.ndarray:
    """Uniform points of I^d, rejected near any breakpoint of the finest level,
    which holds those of every coarser nested level.

    Almost-everywhere statements cannot be probed on the grid itself, where
    the half-open conventions matter; rejection keeps every coordinate more
    than PROBE_BREAKPOINT_GAP away from every breakpoint.  `exclude` is an
    optional list of (point, radius) pairs, used to keep probes away from
    Dirac locations whose finite-depth remnant would otherwise dominate a
    convergence measurement.  Raises ValueError when n_points is not an
    integer >= 1, when an `exclude` entry has other than d finite coordinates
    or a radius that is not finite and >= 0, when the gap leaves no room on
    some axis, or when fewer than n_points survive PROBE_MAX_ROUNDS rounds of
    rejection.
    """
    _require_int("n_points", n_points, 1)
    rng = np.random.default_rng(seed)
    iv = F.interval
    all_bps = [ax.levels[-1].breakpoints for ax in F.axes]
    for ell, bps in enumerate(all_bps):
        if not np.any(np.diff(bps) > 2 * PROBE_BREAKPOINT_GAP):
            raise ValueError(
                f"no point of axis {ell} lies farther than gap={PROBE_BREAKPOINT_GAP} "
                "from every breakpoint"
            )
    exclude = [
        (np.atleast_1d(np.asarray(pt, dtype=float)), float(rad)) for pt, rad in (exclude or [])
    ]
    for j, (pt, rad) in enumerate(exclude):
        # written so that NaN fails the test too
        if pt.shape != (F.d,) or not np.all(np.isfinite(pt)) or not 0 <= rad < np.inf:
            raise ValueError(f"exclude entry {j} ({pt.tolist()}, {rad}) needs {F.d} finite "
                             "coordinates and a finite radius >= 0")
    out = np.empty((n_points, F.d))
    got, rounds = 0, 0
    while got < n_points:
        if rounds == PROBE_MAX_ROUNDS:
            raise ValueError(
                f"only {got} of {n_points} probe points survived {rounds} rejection rounds; "
                "the breakpoint gap and `exclude` leave too little of the domain"
            )
        rounds += 1
        cand = iv.lo + (iv.hi - iv.lo) * rng.random((2 * (n_points - got) + 8, F.d))
        ok = np.ones(len(cand), dtype=bool)
        for ell in range(F.d):
            j = np.searchsorted(all_bps[ell], cand[:, ell])
            left = np.abs(cand[:, ell] - all_bps[ell][np.clip(j - 1, 0, None)])
            right = np.abs(all_bps[ell][np.clip(j, None, len(all_bps[ell]) - 1)] - cand[:, ell])
            ok &= (left > PROBE_BREAKPOINT_GAP) & (right > PROBE_BREAKPOINT_GAP)
        for pt, rad in exclude:
            ok &= np.abs(cand - pt[None, :]).max(axis=1) > rad
        cand = cand[ok]
        take = min(len(cand), n_points - got)
        out[got : got + take] = cand[:take]
        got += take
    return out


def verify_martingale_property(seq: MartingaleSplineSequence, n_probe: int = 200,
                               seed: int = 0) -> float:
    """max over n and probe points of ||P_n g_{n+1}(y) - g_n(y)||; NaN when a level
    evaluates to NaN at a probe (its coefficients were changed after construction)."""
    if seq.n_levels < 2:
        raise ValueError("need at least two levels")
    pts = sample_probe_points(seq.F, n_probe, seed=seed)
    worst = 0.0
    for n in range(1, seq.n_levels):
        proj = seq.projectors[n - 1].project(seq.level(n + 1))
        err = np.linalg.norm(proj.eval_many(pts) - seq.level(n).eval_many(pts), axis=-1)
        worst = np.maximum(worst, err.max())   # unlike max(), keeps a NaN
    return float(worst)


@dataclass
class ConvergenceProbe:
    """Per-point error trajectories ||g_n(y) - ref(y)|| for seeded probe points."""

    points: np.ndarray            # (n_points, d)
    errors: np.ndarray            # (n_levels, n_points)
    fraction_below_tol: float     # share of points whose deepest-level error is below final_tol


def convergence_probe(seq: MartingaleSplineSequence, reference, points=None,
                      n_points: int = 200, seed: int = 0,
                      final_tol: float = 1e-3) -> ConvergenceProbe:
    """Track ||g_n(y) - reference(y)|| at probe points across levels.

    `reference` is the known limit, called as reference(y_1, ..., y_d) on the
    probe coordinates.  Raises ValueError when `points` is empty or not
    finite: an empty probe would report a fraction of nan.
    """
    if points is None:
        points = sample_probe_points(seq.F, n_points, seed=seed)
    points = np.asarray(points, dtype=float)
    if points.size == 0 or not np.isfinite(points).all():
        raise ValueError(f"probe points must be non-empty and finite, got shape {points.shape}")
    raw = reference(*[points[:, ell] for ell in range(seq.F.d)])
    ref_vals = as_value_array(raw, (len(points),), "reference")
    errors = np.empty((seq.n_levels, len(points)))
    for n in range(1, seq.n_levels + 1):
        vals = seq.level(n).eval_many(points)
        errors[n - 1] = np.linalg.norm(vals - ref_vals, axis=-1)
    frac = float(np.mean(errors[-1] < final_tol))
    return ConvergenceProbe(points=points, errors=errors, fraction_below_tol=frac)
