"""Intrinsic maximal machinery: level sums, maximal fields, weak-type verification.

For a nonnegative finitely additive measure theta on the atom algebra, the
basic building block is

    b_n(q, theta, A, x) = q^{d_n(A, A_n(x))} / |conv(A u A_n(x))| * theta(A),

where d_n is the l1 atom-index distance and conv(S) the smallest axis-parallel
rectangle containing S.  The level sum over all atoms A is constant on each
level-n atom, and the maximal field of the level sums, the sup over n >= K
truncated at the finest level N, is therefore exactly representable on the
finest grid: superlevel-set volumes carry no sampling error.

Both the kernel weight q^{|i-j|_1} and the conv volume factorize over axes, so
a level sum is a sequence of per-axis matrix contractions of the level's mass
tensor rather than a double loop over atom pairs.  A per-axis kernel is the
Toeplitz powers q^|a-b| divided by the outer hull lengths H[a, b] =
max(bp[a+1] - bp[b], bp[b+1] - bp[a]); `_axis_product` builds and applies it
one row block of at most bspline.CACHE_BLOCK_BYTES (the cache budget of the
quadrature slabs too) at a time, so neither H nor the kernel is ever held
whole.  A level that fits one block makes the BLAS call of a whole kernel;
above that, on OpenBLAS with one thread, d = 1 and atom counts that are
powers of two keep every bit, and a 292 x 292 field moves by 1.3e-15.

The running max over levels is carried coarse to fine (the level n-1 maximum
is spread to level-n atoms and level n's sums are maxed into it), so it ends
on the finest grid; max and spread are exact, so the field does not depend on
that order.  Each level's last axis product is maxed into the running max one
row block at a time, so no level-sum tensor is formed beside it.  Parent maps
of nested levels are nondecreasing runs, so a spread is one np.repeat per
axis by the run lengths (`_spread`), not a fancy-index gather.

The covering-bound verification uses the explicit proof constant
2^d * (2/(1-sqrt(q)))^d and a rigorously bounded truncation tail, so the
asserted inequality is a true upper bound after truncation.

Every entry point takes the measure as a CompiledMasses table, which carries
the filtration it was compiled on: a field, its series and its report read F
from the masses and cannot be handed a second, disagreeing copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import bspline
from .bspline import GENERAL_QUAD_POINTS, SplineSpace1D, mode_apply
from .filtration import AtomSet, Partition1D, TensorFiltration, _require_int, l1_distance_grid
from .measures import CompiledMasses, source_moments

SERIES_REL_TOL = 1e-12   # truncation: rigorous tail below this fraction of the partial sum
SERIES_MAX_TERMS = 100_000   # a series not within SERIES_REL_TOL after this many terms raises


def _check_q(q: float) -> None:
    # written so that NaN fails the test too
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")


def _axis_product(part: Partition1D, q: float, X: np.ndarray, into=None) -> np.ndarray:
    """K @ X for K[a, b] = q^|a-b| / conv-length of atoms a..b on one axis; with
    `into`, an (n, X.shape[1]) array laid out as the transpose of a C-ordered
    one, max(into, K @ X) in place in `into` instead.

    The d-dimensional b-term kernel is the tensor product of these per-axis
    matrices, since both q^{|i-j|_1} and |conv| factorize over axes.  Each
    block of K's rows, the largest whole multiple of 8 rows within
    bspline.CACHE_BLOCK_BYTES (at least 8: odd row counts change the bits of
    OpenBLAS's matrix-vector product), is built into one reused buffer and
    multiplied into the same rows of the result.  The buffer gets H[a, b] =
    bp[max(a, b) + 1] - bp[min(a, b)], one rounded subtraction per entry:
    hi[a] - lo[b] left of the block's diagonal part, hi[b] - lo[a] right of
    it, the larger of the two on it.  The Toeplitz rows q^|a-b|, a read-only
    strided view (strides (-s, s) from the 1) of the 2n - 1 powers
    [q^(n-1), ..., q, 1, q, ..., q^(n-1)], are then divided into it in place.
    With `into`, each block's product goes to a second reused buffer, by the
    same BLAS call, and is maxed into the block's rows of `into`, so K @ X is
    never held whole.  The max takes both through their transposes, so that
    numpy walks `into` in its memory order: in the order of the untransposed
    views it writes with a stride of a whole row, about 3x slower.
    """
    lo, hi = part.breakpoints[:-1], part.breakpoints[1:]
    n = len(lo)
    powers = np.power(q, np.arange(n))
    sym = np.concatenate([powers[:0:-1], powers])
    s = sym.strides[0]
    toe = as_strided(sym[n - 1:], shape=(n, n), strides=(-s, s), writeable=False)
    rows = min(n, max(8, bspline.CACHE_BLOCK_BYTES // (8 * n) // 8 * 8))
    buf = np.empty((rows, n))
    out = np.empty((n, X.shape[1])) if into is None else into
    prod = None if into is None else np.empty((rows, X.shape[1]))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        K = buf[:r1 - r0]
        np.subtract(hi[r0:r1, None], lo[:r1], out=K[:, :r1])
        np.subtract(hi[r1:], lo[r0:r1, None], out=K[:, r1:])
        diag = K[:, r0:r1]
        np.maximum(diag, np.subtract(hi[r0:r1], lo[r0:r1, None]), out=diag)
        np.divide(toe[r0:r1], K, out=K)
        if into is None:
            np.matmul(K, X, out=out[r0:r1])
        else:
            dst = out[r0:r1].T
            np.maximum(dst, np.matmul(K, X, out=prod[:r1 - r0]).T, out=dst)
    return out


def _spread(values: np.ndarray, maps) -> np.ndarray:
    """values over coarse atoms spread onto finer ones: values[np.ix_(*maps)] for parent maps.

    A parent map of nested partitions is nondecreasing, a run of equal
    entries per coarse atom, so the gather is one np.repeat per axis by the
    run lengths.
    """
    for ell, pm in enumerate(maps):
        values = np.repeat(values, np.bincount(pm), axis=ell)
    return values


def level_sum_field(q: float, masses: CompiledMasses, n: int, into=None) -> np.ndarray:
    """Level-n sums of b-terms as a tensor over level-n atoms (exact); the masses are
    nonnegative, which CompiledMasses checks once per level.

    With `into`, a C-ordered array of the level's shape, the sums are maxed into
    it in place and `into` is returned: the last axis product writes through
    `into` with that axis in front and the others flattened, which C order
    makes a view for every d (any other layout that would need a copy raises).
    """
    _check_q(q)
    ops = [partial(_axis_product, ax.level(n), q) for ax in masses.F.axes]
    if into is not None:
        ops[-1] = partial(ops[-1], into=into.reshape(-1, into.shape[-1], copy=False).T)
    field = mode_apply(masses.level_masses(n), ops)
    return field if into is None else into


@dataclass
class MaximalField:
    """Running maximum of level sums over n from K to the finest level, on the finest grid."""

    masses: CompiledMasses
    q: float
    K: int
    values: np.ndarray          # shape = finest level_shape

    @property
    def F(self) -> TensorFiltration:
        return self.masses.F


def maximal_field(q: float, masses: CompiledMasses, K: int = 1) -> MaximalField:
    """Exact maximal field max_{K <= n <= N} sum_A b_n(q, theta, A, .) on masses.F.

    N is the finest level of masses.F; the truncation there is the only
    difference from the ideal sup over all n >= K.
    """
    F = masses.F
    if not 1 <= K <= F.n_levels:
        raise ValueError(f"invalid level range [{K}, {F.n_levels}] within 1..{F.n_levels}")
    out = level_sum_field(q, masses, K)
    for n in range(K + 1, F.n_levels + 1):
        # running max over levels K..n, on level-n atoms, in place in the fresh spread
        out = _spread(out, F.parent_maps(n, n - 1))
        level_sum_field(q, masses, n, into=out)
    return MaximalField(masses=masses, q=q, K=K, values=out)


def superlevel_measure(Mf: MaximalField, t, within: AtomSet):
    """Exact Lebesgue volume of {M > t} intersected with an atom set.

    `t` is one threshold (the volume is returned as a float) or an array of
    thresholds (an array of volumes of the same shape is returned); the
    volume tensor and the atom-set selection are built once for all of them.
    """
    ts = np.asarray(t, dtype=float)
    # written so that NaN fails the test too
    if not np.all((ts > 0) & (ts < np.inf)):
        raise ValueError(f"threshold must be positive and finite, got {t}")
    F = Mf.F
    sel = _spread(within.mask(F.level_shape(within.level)),
                  F.parent_maps(F.n_levels, within.level))
    # the volumes of the selected atoms alone, each the product of its widths in axis order
    idx = np.nonzero(sel)
    vols = reduce(np.multiply, [ax.level(F.n_levels).widths[i] for ax, i in zip(F.axes, idx)])
    vals = Mf.values[idx]
    out = np.array([vols[vals > s].sum() for s in ts.ravel()]).reshape(ts.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the covering bound (weak-type inequality with explicit proof constant)


def weak_series_tail(q: float, d: int):
    """The map R -> rigorous upper bound for sum_{s > R} q^{s/2} (s+1)^{d-1}.

    Majorize (s+1)^{d-1} rho^s by C_eta eta^s with rho = sqrt(q) and
    eta = (1+rho)/2 < 1; the remaining geometric tail is summed in closed
    form, so the result is a true upper bound for every R >= -1.  The
    constants depend on q and d only and are computed once per map, not
    once per term of the series that the callers sum.
    """
    _check_q(q)
    _require_int("d", d, 1)
    if q == 0.0:
        return lambda R: 0.0
    rho = np.sqrt(q)
    eta = (1.0 + rho) / 2.0
    r = rho / eta
    s_star = (d - 1) / np.log(1.0 / r) - 1.0     # -1 at d = 1, so c_eta = 1.0 there
    cands = {0, int(np.floor(s_star)), int(np.ceil(s_star))}
    c_eta = max((s + 1) ** (d - 1) * r ** s for s in cands if s >= 0)
    return lambda R: float(c_eta * eta ** (R + 1) / (1.0 - eta))


def weak_series_total(q: float, d: int) -> float:
    """Upper bound for sum_{s >= 0} q^{s/2} (s+1)^{d-1} (partial sum + tail).

    The covering series with covered mass 1 at every distance.  Raises
    ValueError when the tail is still above SERIES_REL_TOL of the partial
    sum after SERIES_MAX_TERMS terms (q too close to 1).
    """
    return _truncated_series(q, d, np.ones(1)).total


def covering_constant(q: float, d: int) -> float:
    """The proof constant 2^d * (2 / (1 - sqrt(q)))^d of the covering bound."""
    _check_q(q)
    _require_int("d", d, 1)
    return float(2 ** d * (2.0 / (1.0 - np.sqrt(q))) ** d)


@dataclass(frozen=True)
class SeriesBound:
    """Truncated series plus a rigorous tail bound (total = partial + tail)."""

    partial: float
    tail: float

    @property
    def total(self) -> float:
        return self.partial + self.tail


def covering_series_bound(masses: CompiledMasses, B: AtomSet, q: float) -> SeriesBound:
    """sum_s q^{s/2} (s+1)^{d-1} theta(A_{K,s}(B)) with K = B.level, truncated with a tail bound.

    The sum runs at least to the grid diameter and on until the tail is below
    SERIES_REL_TOL of the partial sum.  The tail is bounded by theta(I^d)
    times the rigorous bound on the remaining series and is added to the
    partial sum, so the reported total majorizes the infinite series.  A sum
    that has not stopped after SERIES_MAX_TERMS terms raises ValueError.
    """
    if len(B) == 0:
        raise ValueError("empty atom set")
    F, K = masses.F, B.level
    M = masses.level_masses(K)
    shape = F.level_shape(K)
    dist = l1_distance_grid(shape, np.argwhere(B.mask(shape)))
    # theta(A_{K,s}(B)) for every s up to the grid diameter, by cumulative sums
    mass_at_dist = np.bincount(dist.ravel(), weights=M.ravel())
    return _truncated_series(q, F.d, np.cumsum(mass_at_dist))


def _truncated_series(q: float, d: int, covered: np.ndarray) -> SeriesBound:
    """sum_s q^{s/2} (s+1)^{d-1} covered[min(s, S)] with S = len(covered) - 1.

    `covered` is nondecreasing; terms s >= S all use its total covered[S],
    which also scales the rigorous tail bound.  The sum runs at least to S.
    """
    tail_after = weak_series_tail(q, d)
    rho, smax, total = np.sqrt(q), len(covered) - 1, float(covered[-1])
    partial, s = 0.0, 0
    while True:
        partial += rho ** s * (s + 1) ** (d - 1) * covered[min(s, smax)]
        tail = tail_after(s) * total
        if s >= smax and (tail <= SERIES_REL_TOL * partial or partial == 0.0):
            return SeriesBound(partial=float(partial), tail=float(tail))
        if s + 1 == SERIES_MAX_TERMS:
            raise ValueError(f"series for q = {q}, d = {d} has a tail above SERIES_REL_TOL = "
                             f"{SERIES_REL_TOL} of its sum after SERIES_MAX_TERMS = "
                             f"{SERIES_MAX_TERMS} terms")
        s += 1


@dataclass
class WeakTypeReport:
    """LHS/RHS sweep of the covering inequality over a threshold grid."""

    q: float
    K: int
    constant: float
    t_grid: np.ndarray
    lhs_volumes: np.ndarray
    rhs_bounds: np.ndarray
    ratios: np.ndarray           # lhs / rhs per threshold, 0 where rhs vanishes
    series: SeriesBound
    max_ratio: float
    violations: list


def covering_report(field_: MaximalField, B: AtomSet, t_grid) -> WeakTypeReport:
    """Check |B n {M_K theta > t}| <= constant / t * series for every t.

    q, K and the measure are the field's; B must be a set of level-K atoms.
    Violations are collected and reported, never silently dropped.  An empty
    t_grid, which would check nothing, raises ValueError.
    """
    F, q, K = field_.F, field_.q, field_.K
    if B.level != K:
        raise ValueError(f"atom set at level {B.level}, expected K={K}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("empty threshold grid: the covering report would check nothing")
    series = covering_series_bound(field_.masses, B, q)
    const = covering_constant(q, F.d)
    lhs = superlevel_measure(field_, t_grid, within=B)
    rhs = const * series.total / t_grid
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, lhs / rhs, 0.0)
    violations = [
        {"t": float(t), "lhs": float(l), "rhs": float(r)}
        for t, l, r in zip(t_grid, lhs, rhs)
        if l > r
    ]
    return WeakTypeReport(
        q=q,
        K=K,
        constant=const,
        t_grid=t_grid,
        lhs_volumes=lhs,
        rhs_bounds=rhs,
        ratios=ratios,
        series=series,
        max_ratio=float(ratios.max()),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Hardy-Littlewood baseline (d = 1)


def hl_maximal(per_atom: np.ndarray, partition: Partition1D) -> np.ndarray:
    """Hardy-Littlewood maximal field over breakpoint-delimited intervals.

    `per_atom` holds the integral of |f| over every atom.  Returns one value
    per atom: the sup over all intervals J = (t_a, t_b] containing the atom of
    the average of |f| over J.  Restricting J to breakpoint-delimited
    intervals makes the field atomwise constant (and a function of the atom
    integrals alone); it is dominated by the unrestricted maximal function,
    so the classical 3/t weak-type bound applies to it as well.
    """
    bp = partition.breakpoints
    P = np.concatenate([[0.0], np.cumsum(per_atom)])
    n = partition.n_atoms
    # avg[a, b] over (bp[a], bp[b]]; suffix max over b then prefix max over a
    with np.errstate(divide="ignore", invalid="ignore"):
        widths = bp[None, :] - bp[:, None]
        avg = np.where(widths > 0, (P[None, :] - P[:, None]) / np.where(widths > 0, widths, 1.0), -np.inf)
    # M[i] = max over a <= i, b >= i+1 of avg[a, b]
    best_right = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
    prefix = np.maximum.accumulate(best_right, axis=0)
    return prefix[np.arange(n), np.arange(1, n + 1)]


def hl_weak_type_ratio(f, partition: Partition1D, t_grid, g: int = GENERAL_QUAD_POINTS):
    """max over t of t * |{M_HL f > t}| / ||f||_1 on the breakpoint grid.

    |f| is integrated over every atom once (its order-1 moments), with g points
    per atom; the maximal field and ||f||_1 both come from those integrals.
    """
    per_atom = source_moments(lambda x: np.abs(f(x)), [SplineSpace1D(partition, 1)], g)[:, 0]
    field_ = hl_maximal(per_atom, partition)
    l1 = float(per_atom.sum())
    widths = partition.widths
    ratios = []
    for t in np.asarray(t_grid, dtype=float):
        vol = float(widths[field_ > t].sum())
        ratios.append(t * vol / l1 if l1 > 0 else 0.0)
    return float(np.max(ratios)), np.asarray(ratios)

