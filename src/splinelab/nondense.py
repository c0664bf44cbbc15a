"""Non-dense filtrations: frozen-region detection and limit dual B-splines.

Where a filtration stops refining, the breakpoints have no accumulation
points and the spline spaces restricted to that region stabilize.  On a
frozen interval V whose endpoints are approached by breakpoints from outside,
the restricted B-splines converge to the clamped basis over V's own
sub-partition, and their duals converge to the duals of that clamped space:
the coupling through the Gram matrix dies off with the shrinking atoms next
to V.  That clamped space is used here as the computable limit oracle.

Any finite run can only classify a region as "frozen so far"; that caveat,
FINITE_DEPTH_NOTE, holds for every report of the tolerance-based classifier
below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import SplineSpace1D
from .filtration import Filtration1D, Interval, Partition1D, atom_range_gap
from .projector import GramSystem, decay_profile

FINITE_DEPTH_NOTE = (
    "classification is tolerance-based on a finite filtration: atoms are only "
    "known to be frozen so far, not in the limit"
)


@dataclass(frozen=True)
class VInterval:
    """One maximal interval free of (finite-depth) breakpoint accumulation."""

    interval: Interval
    atom_range: tuple            # inclusive final-level atom index range
    left_accumulated: bool       # breakpoints accumulate at the left endpoint (from outside)
    right_accumulated: bool
    frozen_since_level: int      # first level at which the sub-partition stopped changing
    ambiguous_atoms: tuple       # final-level atom indices with width within 2x tolerance


def detect_v_sets(f1: Filtration1D, tolerance: float) -> tuple:
    """Maximal frozen intervals of one axis at the final level, a tuple of VIntervals.

    Final-level atoms with width below `tolerance` count as refining (their
    breakpoints are accumulating); maximal runs of persistent atoms form the
    candidate V-intervals.  Each endpoint is classified by whether refining
    atoms touch it from outside.  A fully refining filtration yields no
    intervals.
    """
    if not tolerance > 0:    # NaN fails too
        raise ValueError("tolerance must be positive")
    final = f1.levels[-1]
    widths = final.widths
    frozen = widths >= tolerance
    ambiguous = frozen & (widths < 2 * tolerance)
    bp = final.breakpoints
    # maximal runs [j0, j1] of frozen atoms: a run's neighbours are not frozen
    intervals = []
    for j0, j1 in np.flatnonzero(np.diff(np.r_[0, frozen, 0])).reshape(-1, 2) - (0, 1):
        iv = Interval(bp[j0], bp[j1 + 1])
        intervals.append(
            VInterval(
                interval=iv,
                atom_range=(int(j0), int(j1)),
                left_accumulated=bool(j0 > 0),
                right_accumulated=bool(j1 + 1 < final.n_atoms),
                frozen_since_level=_frozen_since(f1, iv),
                ambiguous_atoms=tuple((j0 + np.flatnonzero(ambiguous[j0:j1 + 1])).tolist()),
            )
        )
    return tuple(intervals)


def _frozen_since(f1: Filtration1D, iv: Interval) -> int:
    """First level whose breakpoints inside [lo, hi] already equal the final ones."""
    final_inside = _breakpoints_inside(f1.levels[-1], iv)
    for n in range(1, f1.n_levels + 1):
        inside = _breakpoints_inside(f1.level(n), iv)
        if np.array_equal(inside, final_inside):
            return n
    return f1.n_levels


def _breakpoints_inside(p: Partition1D, iv: Interval) -> np.ndarray:
    bp = p.breakpoints
    return bp[(bp >= iv.lo) & (bp <= iv.hi)]


def frozen_subspace(f1: Filtration1D, V: VInterval, order: int) -> SplineSpace1D:
    """The limit spline space on a frozen interval: the clamped space over its
    final-level atoms.

    Breakpoints piling up at an endpoint from outside act like a knot of full
    multiplicity there in the limit, which is exactly the clamped boundary.
    """
    iv = V.interval
    inside = _breakpoints_inside(f1.levels[-1], iv)
    if len(inside) < 2 or inside[0] != iv.lo or inside[-1] != iv.hi:
        raise ValueError(f"interval ({iv.lo}, {iv.hi}] is not breakpoint-aligned "
                         "at the final level")
    return SplineSpace1D(Partition1D(inside), order)


@dataclass
class LimitDualTable:
    """Per-level dual values at probes inside a frozen interval, with their limit.

    The bases whose support meets V keep a stable count across the tracked
    levels (atoms of V plus order - 1); r indexes them from the leftmost.
    `values[l, r, p]` is N*_{n_l, r}(probe_p), and `deltas[l, r]` the
    sup-difference over the probes between levels l and l + 1.
    `oracle_values[r, p]` holds the duals of the clamped limit space and
    `oracle_gap[r]` their sup distance from the last level.  `decay_ok[r]`
    tests the limit estimate |N*_r(y)| * |conv(A(y) u E_r)| <= c_env *
    q_hat^{d(A(y), E_r)} with constants fitted on the limit space itself.
    """

    levels: np.ndarray
    values: np.ndarray
    deltas: np.ndarray
    oracle_values: np.ndarray
    oracle_gap: np.ndarray
    decay_ok: np.ndarray


def limit_dual_table(f1: Filtration1D, V: VInterval, order: int, probes) -> LimitDualTable:
    """Track every dual B-spline anchored to a frozen interval across levels.

    Probes must lie inside V.  Levels before the interval froze are skipped:
    the stable indexing only exists once the sub-partition has stopped
    changing.  Each level factorizes its Gram matrix and solves for the duals
    at the probes once, for every stable index at once.
    """
    iv = V.interval
    probes = np.asarray(probes, dtype=float)
    if np.any(probes <= iv.lo) or np.any(probes > iv.hi):
        raise ValueError("probes must lie inside the frozen interval")
    n_stable = V.atom_range[1] - V.atom_range[0] + order
    levels = np.arange(V.frozen_since_level, f1.n_levels + 1)
    values = np.empty((len(levels), n_stable, len(probes)))
    for li, n in enumerate(levels):
        space = SplineSpace1D(f1.level(n), order)
        a0 = _first_v_atom(space.partition, iv)
        # stable set: bases i = a0 .. a0 + n_stable - 1 (supports meeting V)
        values[li] = GramSystem(space).duals_at(probes)[a0:a0 + n_stable]
    limit_space = frozen_subspace(f1, V, order)
    limit_gs = GramSystem(limit_space)
    oracle = limit_gs.duals_at(probes)
    profile = decay_profile(limit_gs) if limit_space.dimension >= 2 * order else None
    return LimitDualTable(
        levels=levels,
        values=values,
        deltas=np.max(np.abs(np.diff(values, axis=0)), axis=2),
        oracle_values=oracle,
        oracle_gap=np.max(np.abs(values[-1] - oracle), axis=1),
        decay_ok=_limit_decay_ok(limit_space, probes, oracle, profile),
    )


def _first_v_atom(p: Partition1D, iv: Interval) -> int:
    """Index of the first atom of p inside (lo, hi]."""
    j = int(np.searchsorted(p.breakpoints, iv.lo, side="left"))
    if p.breakpoints[j] != iv.lo:
        raise ValueError("frozen interval is not breakpoint-aligned")
    return j


def _limit_decay_ok(space, probes, dual_vals, profile) -> np.ndarray:
    """Per basis r, whether the limit duals dual_vals[r] at the probes lie under
    the fitted envelope."""
    if profile is None or profile.q_hat == 0.0:
        return np.ones(len(dual_vals), dtype=bool)
    p = space.partition
    lo, hi = space.support_atom_range(np.arange(len(dual_vals))[:, None])
    dist, conv = atom_range_gap(p.breakpoints, p.atom_index_of(probes), lo, hi)
    return np.all(np.abs(dual_vals) * conv <= profile.envelope(dist) * (1 + 1e-9), axis=1)
