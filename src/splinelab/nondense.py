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
from .projector import DecayProfile, GramSystem, decay_profile

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


@dataclass(frozen=True)
class VSetReport:
    tolerance: float
    intervals: tuple


def detect_v_sets(f1: Filtration1D, tolerance: float) -> VSetReport:
    """Maximal frozen intervals of one axis at the final level.

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
    bp = final.breakpoints
    intervals = []
    j = 0
    n = final.n_atoms
    while j < n:
        if not frozen[j]:
            j += 1
            continue
        j0 = j
        while j < n and frozen[j]:
            j += 1
        j1 = j - 1
        iv = Interval(bp[j0], bp[j1 + 1])
        left_acc = j0 > 0 and not frozen[j0 - 1]
        right_acc = j1 + 1 < n and not frozen[j1 + 1]
        ambiguous = tuple(
            int(a) for a in range(j0, j1 + 1) if tolerance <= widths[a] < 2 * tolerance
        )
        intervals.append(
            VInterval(
                interval=iv,
                atom_range=(j0, j1),
                left_accumulated=left_acc,
                right_accumulated=right_acc,
                frozen_since_level=_frozen_since(f1, iv),
                ambiguous_atoms=ambiguous,
            )
        )
    return VSetReport(tolerance=tolerance, intervals=tuple(intervals))


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

    `values[l, p]` is N*_{n_l, r}(probe_p) for the stable basis index r; deltas
    are sup-differences between consecutive levels.  The oracle row holds the
    duals of the clamped limit space, and the decay check tests the limit
    estimate |N*_r(y)| * |conv(A(y) u E_r)| <= c_env * q_hat^{d(A(y), E_r)}
    with constants fitted on the limit space itself.
    """

    V: VInterval
    order: int
    r: int
    probes: np.ndarray
    levels: np.ndarray
    values: np.ndarray
    deltas: np.ndarray
    oracle_values: np.ndarray
    oracle_gap: float
    profile: DecayProfile
    decay_ok: bool
    decay_margin: float


def limit_dual_table(f1: Filtration1D, V: VInterval, order: int, r: int,
                     probes) -> LimitDualTable:
    """Track the dual B-splines anchored to a frozen interval across levels.

    The bases whose support meets V keep a stable count (atoms of V plus
    order - 1); r indexes them from the leftmost.  Probes must lie inside V.
    Levels before the interval froze are skipped: the stable indexing only
    exists once the sub-partition has stopped changing.
    """
    iv = V.interval
    probes = np.asarray(probes, dtype=float)
    if np.any(probes <= iv.lo) or np.any(probes > iv.hi):
        raise ValueError("probes must lie inside the frozen interval")
    n_v_atoms = V.atom_range[1] - V.atom_range[0] + 1
    n_stable = n_v_atoms + order - 1
    if not 0 <= r < n_stable:
        raise IndexError(
            f"stable index {r} out of range [0, {n_stable}): basis never meets the interval"
        )
    levels = np.arange(V.frozen_since_level, f1.n_levels + 1)
    values = np.empty((len(levels), len(probes)))
    for li, n in enumerate(levels):
        space = SplineSpace1D(f1.level(n), order)
        gs = GramSystem(space)
        a0 = _first_v_atom(space.partition, iv)
        # stable set: bases i = a0 .. a0 + n_stable - 1 (supports meeting V)
        values[li] = gs.duals_at(probes)[a0 + r]
    deltas = np.max(np.abs(np.diff(values, axis=0)), axis=1) if len(levels) > 1 else np.array([])
    limit_space = frozen_subspace(f1, V, order)
    limit_gs = GramSystem(limit_space)
    oracle = limit_gs.duals_at(probes)[r]
    oracle_gap = float(np.max(np.abs(values[-1] - oracle)))
    profile = decay_profile(limit_gs) if limit_space.dimension >= 2 * order else None
    decay_ok, margin = _check_limit_decay(limit_space, probes, r, oracle, profile)
    return LimitDualTable(
        V=V,
        order=order,
        r=r,
        probes=probes,
        levels=levels,
        values=values,
        deltas=deltas,
        oracle_values=oracle,
        oracle_gap=oracle_gap,
        profile=profile,
        decay_ok=decay_ok,
        decay_margin=margin,
    )


def _first_v_atom(p: Partition1D, iv: Interval) -> int:
    """Index of the first atom of p inside (lo, hi]."""
    j = int(np.searchsorted(p.breakpoints, iv.lo, side="left"))
    if p.breakpoints[j] != iv.lo:
        raise ValueError("frozen interval is not breakpoint-aligned")
    return j


def _check_limit_decay(space, probes, r, dual_vals, profile):
    """Limit-dual decay estimate at the probes, against the fitted envelope."""
    if profile is None or profile.q_hat == 0.0:
        return True, float("inf")
    p = space.partition
    lo, hi = space.support_atom_range(r)
    dist, conv = atom_range_gap(p.breakpoints, p.atom_index_of(probes), lo, hi)
    lhs = np.abs(dual_vals) * conv
    rhs = profile.envelope(dist)
    margin = float(np.min(np.where(lhs > 0, rhs / np.maximum(lhs, 1e-300), np.inf)))
    return bool(np.all(lhs <= rhs * (1 + 1e-9))), margin
