"""Gram systems, dual B-splines, orthoprojectors, and the dual decay profile.

The L2 orthoprojector onto a spline space is P f = sum_i <f, N_i> N*_i with
(N*_i) the biorthogonal system; in coefficients that is one banded SPD solve
G c = b per axis.  Dual functions are never materialized: a single banded
solve of G y = N(x) yields the values N*_i(x) for every i at once.  Every
solve G y = b is the two triangular sweeps U^T z = b, U y = z of G = U^T U,
run with LAPACK's dtbtrs, the forward one once over all columns and only on
the rows from the first nonzero row down.  dpbtrs, the routine behind
cho_solve_banded, makes the same two dtbsv sweeps per column, and the rows it
adds to the forward sweep are exact zeros, which contribute only zero
products to every later row; so the values equal those of the full-length
solve bit for bit.  A
solve may also be confined to a row range [lo, hi): the dual decay profile
and the kernel norm solve each block of x-atoms on a window of rows around
it, since the duals decay geometrically away from x; the window widens until
its edge rows hold nothing above a stated tolerance.  The edge test reads
the edge rows of the matrix the block keeps anyway (its duals for the decay
profile, the dual values D = Z @ X for the kernel norm), with the basis
supports set up once per space, so a block costs one solve, the kernel
norm's one product and one edge test; a non-finite edge or block value
raises ValueError.

TensorProjector.project is the one entry point of the tensor projector: it
takes a function, a hybrid measure or a spline of another level.  A
function or a measure goes the one moment route, which compiled masses
share (measures.source_moments): it is reduced against this level's basis
and the Dirac terms are added.  Sequences reduce once on the finest level
and carry the moments onto coarser nested spaces by knot insertion
(bspline.restrict).  A spline needs no node grid: each axis collocates its
coefficients at Gauss nodes of the common refinement and contracts the
weighted values into the target basis block by block, one mode product per
axis.  That route never uses knot insertion, so the martingale check
P_n g_{n+1} = g_n tests the restriction.

Tensor-product spaces have Gram matrix G_1 x ... x G_d (never assembled);
projection applies per-axis banded solves along each tensor mode, and the
L1->L1 operator norm (the Linf norm of the symmetric kernel) factorizes as
the product of the per-axis norms.  The 1-D kernel norm solves for the duals
of each block of basis functions on a window of rows, as the decay profile
does; neither G^-1 nor a band of it is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .bspline import (
    SplineSpace1D,
    TensorSpline,
    _basis_columns,
    _collocate,
    _contract_points,
    _require_int,
    _scatter_atoms,
    atom_chebyshev,
    atom_quadrature,
    mode_apply,
)
from .filtration import Partition1D, TensorFiltration, atom_range_gap
from .measures import source_moments

PROFILE_FLOOR = 1e-14        # decay-profile entries at or below this are roundoff noise;
                             # decay_profile sets them to 0, so its windowed solves need
                             # only match the full solve above it
DECAY_EDGE_TOL = PROFILE_FLOOR * 2.0 ** -53   # decay windows widen until their edges are below
NORM_SAMPLES_PER_ATOM = 8    # Chebyshev points per atom for kernel-norm estimation
NORM_WINDOW_ATOMS = 64       # upper bound on the kernel truncation radius, in atoms
NORM_EDGE_TOL = 2.0 ** -60   # kernel windows widen until their edges are below (the norm is >= 1)
SOLVE_BLOCK_ATOMS = 16       # x-atoms per edge-checked windowed solve (operator_norm_1d,
                             # decay_profile); the sweeps run column by column and each forward
                             # sweep starts at or above the column's first nonzero row, so every
                             # column equals its own solve on the same rows, for any block size;
                             # smaller blocks have narrower windows and fewer LAPACK row-columns
EDGE_BITS_PER_ORDER = 3      # windows start k * log2(1/tol) / 3 atoms wide: order-k duals lose
                             # about 3.6 / k bits per atom on uniform meshes


class GramSystem:
    """Banded Cholesky-factorized Gram matrix of one spline space."""

    def __init__(self, space: SplineSpace1D):
        self.space = space
        self.band = _assemble_gram_band(space)
        try:
            self._chol = cholesky_banded(self.band, lower=False)
        except (np.linalg.LinAlgError, ValueError) as exc:
            # non-positive pivot or inf/nan entries: an atom fell below the width floor
            raise ValueError(
                "Gram factorization failed; the partition has a degenerate atom"
            ) from exc

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def solve(self, rhs: np.ndarray, lo: int = 0, hi: int = None) -> np.ndarray:
        """Solve G y = rhs on rows [lo, hi), all rows by default; rhs may carry trailing axes.

        rhs holds rows lo..hi-1 of a right-hand side that is zero outside
        them, and the result holds the same rows of y.  Its rows above f0, the
        first row nonzero in any column, are exactly zero, so the forward sweep
        U^T z = rhs runs once over all columns on rows [max(lo, f0), hi) only.
        The back sweep U y = z then runs on [lo, hi), in place.  Over all
        rows this is the full solve; an interior hi drops z below hi, which
        perturbs y by an amount that decays geometrically with the distance
        from row hi.
        """
        rhs = np.asarray(rhs, dtype=float)
        hi = self.dimension if hi is None else hi
        if not 0 <= lo < hi <= self.dimension or rhs.shape[0] != hi - lo:
            raise ValueError(f"row range [{lo}, {hi}) with {rhs.shape[0]} right-hand-side rows "
                             f"does not fit a Gram system of dimension {self.dimension}")
        flat = rhs.reshape(rhs.shape[0], -1)
        if flat.shape[1] == 0:
            return np.zeros(rhs.shape)    # dtbtrs with no right-hand side corrupts the heap
        if not np.isfinite(flat).all():
            raise ValueError("right-hand side of the Gram solve is not finite")
        chol = self._chol[:, lo:hi]
        f0 = int(np.argmax(flat.any(axis=1)))    # 0 for an all-zero right-hand side
        y = np.zeros(flat.shape, order="F")
        y[f0:], info = dtbtrs(chol[:, f0:], flat[f0:], trans="T")
        if info == 0:
            y, info = dtbtrs(chol, y, overwrite_b=True)
        if info != 0:
            raise ValueError(f"banded triangular solve failed (LAPACK info {info})")
        return y.reshape(rhs.shape)

    def duals_at(self, xs) -> np.ndarray:
        """Matrix D with D[i, p] = N*_i(xs[p]), via one banded solve."""
        first, vals = self.space.eval_basis_many(np.asarray(xs, dtype=float).ravel())
        return self.solve(_basis_columns(first, vals, 0, self.dimension))


def _edge_checked_solve(gs: GramSystem, a0: int, a1: int, tol: float, rhs, mass,
                        rows=lambda y: y):
    """Solve for the x-atoms [a0, a1) on the narrowest row window whose edges vanish.

    The window [lo, hi) is [a0 - w, a1 + k - 1 + w) clamped to [0, dim), and
    rhs(lo, hi) gives its rows of a right-hand side that is zero outside them.
    rows(y) turns the solution y into R, the matrix the caller keeps (y
    itself by default), with row i - lo for basis function i, and the edge
    test reads R: w starts at k * log2(1/tol) / EDGE_BITS_PER_ORDER atoms and
    doubles while mass(R[i - lo], i) exceeds tol on the k rows i nearest an
    interior edge (i a slice); a window of all rows has no edge left to test.
    A non-finite edge mass raises ValueError.  Returns (R, lo, hi).
    """
    k, dim = gs.space.order, gs.dimension
    w = int(np.ceil(k * -np.log2(tol) / EDGE_BITS_PER_ORDER))
    while True:
        lo, hi = max(a0 - w, 0), min(a1 + k - 1 + w, dim)
        R = rows(gs.solve(rhs(lo, hi), lo, hi))
        top = [mass(R[e - lo:e - lo + k], slice(e, e + k)).max()     # NaN if any is NaN
               for e, interior in ((lo, lo > 0), (hi - k, hi < dim)) if interior]
        if not np.isfinite(top).all():
            raise ValueError(f"dual values of x-atoms [{a0}, {a1}) are not finite")
        if all(t <= tol for t in top):
            return R, lo, hi
        w *= 2


def _assemble_gram_band(space: SplineSpace1D) -> np.ndarray:
    """Upper banded storage of G_{ij} = int N_i N_j; g = k Gauss points are exact.  Band
    diagonal o adds entries (r, r + o) of the per-atom k x k blocks (`_scatter_atoms`)."""
    k = space.order
    rule = atom_quadrature(space.partition, k)
    with np.errstate(over="ignore", invalid="ignore"):
        # subnormal atom widths overflow the recursion; the factorization's
        # finite check turns that into the degenerate-partition error
        _, vals = space.eval_basis_many(rule.nodes)      # (n_atoms, g, k)
    wv = vals * rule.weights[:, :, None]
    blocks = np.einsum("agr,agc->arc", vals, wv)         # per-atom k x k Gram blocks
    ab = np.zeros((k, space.dimension))
    for o in range(k):
        _scatter_atoms(np.diagonal(blocks, o, 1, 2), ab[k - 1 - o, o:])
    return ab


# ---------------------------------------------------------------------------
# tensor projector


class TensorProjector:
    """Orthoprojector onto a tensor-product spline space, in Kronecker form."""

    def __init__(self, spaces):
        self.spaces = tuple(spaces)
        self.grams = tuple(GramSystem(s) for s in self.spaces)
        self.orders = tuple(s.order for s in self.spaces)

    @property
    def dims(self) -> tuple:
        return tuple(s.dimension for s in self.spaces)

    @staticmethod
    def for_level(F: TensorFiltration, n: int, orders) -> "TensorProjector":
        if np.ndim(orders) == 0:
            orders = (orders,) * F.d
        if len(orders) != F.d:
            raise ValueError(f"need one order per axis, got {orders} for d={F.d}")
        spaces = [SplineSpace1D(F.axes[ell].level(n), orders[ell]) for ell in range(F.d)]
        return TensorProjector(spaces)

    def solve_coefficients(self, b: np.ndarray) -> np.ndarray:
        """Solve (G_1 x ... x G_d) c = b by per-axis banded solves along each mode."""
        return mode_apply(b, [gs.solve for gs in self.grams])

    def project(self, source, g: int = None) -> TensorSpline:
        """P source as a TensorSpline, for a callable, a HybridMeasure or a TensorSpline.

        A callable f(X_1, ..., X_d) on broadcastable coordinate arrays may
        return values of shape (...,) or (..., m); P reproduces it exactly when
        it lies in the space.  A measure theta gives sum_i (int N_i dtheta) N*_i.
        Both are reduced against this level's basis, as `source_moments`
        describes.

        A spline is integrated exactly and axis by axis, never on the
        d-dimensional node grid and never through the knot-insertion map: on
        each axis its coefficients are collocated at g Gauss points per atom
        of the common refinement of both partitions, g the largest order of
        either spline, and the weighted values are contracted into this
        level's basis; the solve follows.  Its dimension and every axis
        interval must match this projector's.

        Only a callable takes g; a g that would be ignored raises ValueError.
        """
        if not isinstance(source, TensorSpline):
            return TensorSpline(self.spaces,
                                self.solve_coefficients(source_moments(source, self.spaces, g)))
        if g is not None:
            raise ValueError("a TensorSpline source fixes its own quadrature; it takes no g")
        if source.d != len(self.spaces):
            raise ValueError(f"a {source.d}-dimensional spline cannot be projected onto "
                             f"a {len(self.spaces)}-dimensional space")
        for ell, (mine, theirs) in enumerate(zip(self.spaces, source.spaces)):
            if theirs.interval != mine.interval:
                raise ValueError(f"axis {ell}: the spline lives on ({theirs.interval.lo}, "
                                 f"{theirs.interval.hi}], the projector on "
                                 f"({mine.interval.lo}, {mine.interval.hi}]")
        g = max(self.orders + tuple(s.order for s in source.spaces))
        ops = [partial(_spline_axis_moments, mine, theirs, g)
               for mine, theirs in zip(self.spaces, source.spaces)]
        return TensorSpline(self.spaces, self.solve_coefficients(mode_apply(source.coeffs, ops)))


def _spline_axis_moments(mine: SplineSpace1D, theirs: SplineSpace1D, g: int, X) -> np.ndarray:
    """Rows b[i] = int N_i sum_j X[j] M_j over one axis, N the basis of `mine`, M of `theirs`.

    Exact: g-point Gauss on every atom of the common refinement of both
    partitions, where both are polynomials of order at most g.  The spline
    is collocated at the nodes by banded rows and contracted into N block by
    block; no (dimension x nodes) matrix is formed.
    """
    rule = atom_quadrature(Partition1D(np.union1d(mine.partition.breakpoints,
                                                  theirs.partition.breakpoints)), g)
    nodes = rule.nodes.ravel()
    values = _collocate(*theirs.eval_basis_many(nodes), X)
    values *= rule.weights.ravel()[:, None]
    return _contract_points(*mine.eval_basis_many(nodes), mine.dimension, values)


# ---------------------------------------------------------------------------
# operator norm


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Sampled estimate of sup_x int |K(x, y)| dy (not a bound; see operator_norm_1d)."""

    value: float
    per_axis: tuple


def operator_norm_1d(gs: GramSystem, nx_per_atom: int = NORM_SAMPLES_PER_ATOM,
                     ny_per_atom: int = NORM_SAMPLES_PER_ATOM,
                     window: int = NORM_WINDOW_ATOMS) -> float:
    """sup_x int |K(x,y)| dy for K(x,y) = sum_i N_i(y) N*_i(x), sampled.

    x ranges over nx Chebyshev points per atom and the y-integral uses
    per-atom Gauss-Legendre, so the result is an estimate, not a bound either
    way: K(x, .) changes sign inside atoms, so the quadrature of |K(x, .)| can
    overshoot at a fixed x, and the interior samples miss the domain
    endpoints, where the supremum sits on many meshes of order k >= 3.

    _kernel_blocks gives, per block of SOLVE_BLOCK_ATOMS x-atoms [a0, a1),
    N*_i(x) at the block's x samples on the block's solve window [lo, hi),
    and k overlapping rows of that give K at each y-node.  The y-integral runs
    over the y-atoms [max(a0 - window, lo), min(a1 + window, hi - k + 1)):
    `window` is an upper bound, and past the solve window the kernel is below
    NORM_EDGE_TOL, so the mass left out is below 2**-58 times the result.
    For a small window the result depends on SOLVE_BLOCK_ATOMS.  A non-finite
    block integral raises ValueError.
    """
    _require_int("nx_per_atom", nx_per_atom, 1)
    _require_int("ny_per_atom", ny_per_atom, 1)
    _require_int("window", window, 0)
    space = gs.space
    k = space.order
    p = space.partition
    n_atoms = p.n_atoms
    yrule = atom_quadrature(p, ny_per_atom)
    if k == 1:
        # diagonal Gram: the kernel column at x is the indicator of A(x)
        # scaled by 1/|A(x)|, so the integral is the weight sum over A(x)
        return float((yrule.weights.sum(axis=1) / gs.band[0]).max())
    _, yV = space.eval_basis_many(yrule.nodes.ravel())
    yVr = yV.reshape(n_atoms, ny_per_atom, k)
    wy = yrule.weights.ravel()
    buf = np.empty(0)     # kernel values, reused across blocks
    best = 0.0
    for a0, a1, D, lo in _kernel_blocks(gs, nx_per_atom):
        yb0, yb1 = max(a0 - window, lo), min(a1 + window, lo + len(D) - k + 1)
        # y-atom b reads rows b..b+k-1 of D, through a view of overlapping row windows
        rows = np.ndarray((yb1 - yb0, k, D.shape[1]), D.dtype, D, (yb0 - lo) * D.strides[0],
                          (D.strides[0],) + D.strides)
        n = (yb1 - yb0) * ny_per_atom * D.shape[1]
        buf = buf if buf.size >= n else np.empty(n)
        K = np.matmul(yVr[yb0:yb1], rows, out=buf[:n].reshape(yb1 - yb0, ny_per_atom, -1))
        np.abs(K, out=K)
        S = wy[yb0 * ny_per_atom:yb1 * ny_per_atom] @ K.reshape(-1, D.shape[1])
        s = float(S.max())
        if not np.isfinite(s):
            raise ValueError(f"kernel integrals of x-atoms [{a0}, {a1}) are not finite")
        best = max(best, s)
    return best


def _kernel_blocks(gs: GramSystem, nx_per_atom: int):
    """(a0, a1, D, lo) per block of SOLVE_BLOCK_ATOMS x-atoms [a0, a1): D[i - lo, x] = N*_i(x).

    x runs over the block's nx_per_atom Chebyshev points per atom, i over the
    block's edge-checked row window [lo, lo + len(D)).  One solve G Z = E for
    the identity columns of the block's basis functions N_a0, ..., N_{a1+k-2}
    gives their dual columns, and D = Z @ X with X their collocation matrix.
    The window's edge rows hold max_x |N*_i(x)| |supp N_i| <= NORM_EDGE_TOL,
    tested on the rows of D itself with the supports set up once per space.
    """
    space = gs.space
    k, dim = space.order, space.dimension
    p = space.partition
    n_atoms = p.n_atoms
    first, vals = space.eval_basis_many(atom_chebyshev(p, nx_per_atom).ravel())
    s0, s1 = space.support_atom_range(np.arange(dim))
    supp = p.breakpoints[s1 + 1] - p.breakpoints[s0]     # |supp N_i|

    for a0 in range(0, n_atoms, SOLVE_BLOCK_ATOMS):
        a1 = min(a0 + SOLVE_BLOCK_ATOMS, n_atoms)
        xs = slice(a0 * nx_per_atom, a1 * nx_per_atom)
        X = _basis_columns(first[xs], vals[xs], a0, a1 + k - 1)
        D, lo, _ = _edge_checked_solve(
            gs, a0, a1, NORM_EDGE_TOL, lambda lo, hi: np.eye(hi - lo, X.shape[0], lo - a0),
            lambda D, i: np.abs(D).max(axis=1) * supp[i], lambda Z: Z @ X)
        yield a0, a1, D, lo


def operator_norm_inf(tp: TensorProjector, nx_per_atom: int = NORM_SAMPLES_PER_ATOM,
                      ny_per_atom: int = NORM_SAMPLES_PER_ATOM,
                      window: int = NORM_WINDOW_ATOMS) -> OperatorNormEstimate:
    """Kernel norm of the tensor projector; factorizes over axes."""
    per_axis = tuple(
        operator_norm_1d(gs, nx_per_atom, ny_per_atom, window) for gs in tp.grams
    )
    return OperatorNormEstimate(value=float(np.prod(per_axis)), per_axis=per_axis)


# ---------------------------------------------------------------------------
# geometric decay of the dual functions


@dataclass(frozen=True)
class DecayProfile:
    """Per-distance envelope of |N*_i(x)| * |conv(supp N_i u A(x))|.

    `values[s]` is the maximum over sampled x and all i at atom distance s
    between supp N_i and A(x), or 0 where that maximum is at or below the
    roundoff floor; `values` ends at the last entry above the floor.
    q_hat/c_hat come from a log-linear fit over the entries above the floor;
    c_env rescales c_hat so that values[s] <= c_env * q_hat**s holds for
    every entry (an envelope, used whenever a true upper bound is needed).
    """

    distances: np.ndarray
    values: np.ndarray
    q_hat: float
    c_hat: float
    c_env: float
    fit_residual: float
    floor: ClassVar[float] = PROFILE_FLOOR

    def envelope(self, s) -> np.ndarray:
        return self.c_env * self.q_hat ** np.asarray(s, dtype=float)


def decay_profile(gs: GramSystem, nx_per_atom: int = NORM_SAMPLES_PER_ATOM) -> DecayProfile:
    """Measure the geometric decay of the dual B-splines of one space.

    Each block of SOLVE_BLOCK_ATOMS x-atoms is solved for by one
    _edge_checked_solve, with tolerance DECAY_EDGE_TOL on vmax * conv_len read
    from the edge rows of the block's duals, so the work per x is O(window),
    not O(dim); the support atom ranges are taken once per space.  Entries at
    or below PROFILE_FLOOR are set to 0 before the fit, and a non-finite dual
    value raises ValueError (np.maximum would store it and the fit would
    trim it as if it were below the floor).

    Why the entries above the floor equal those of the full solve: the
    right-hand side is zero on the rows before lo, so the forward sweep is
    exact on the window.  The rows before lo are left out; they lie beyond an
    edge whose entries are at most PROFILE_FLOOR * 2**-53 and decay further,
    so the floor would zero them anyway.  The back sweep, started at hi
    instead of dim, misses the terms of the rows from hi on; the error is of
    the size of the edge entries and decays geometrically toward the block,
    while the entries grow, so well before an entry exceeds PROFILE_FLOOR the
    error is below half an ulp and rounds away, and from k equal rows on
    every row equals the full solve's bit for bit.  The tests check this
    against one full-length solve per atom on meshes where the windows are
    interior, and with a narrower start window that has to widen.
    """
    _require_int("nx_per_atom", nx_per_atom, 1)
    space = gs.space
    k = space.order
    p = space.partition
    n_atoms = p.n_atoms
    dim = space.dimension
    if dim < 2 * k:
        raise ValueError(f"space dimension {dim} too small for a decay profile (need >= {2 * k})")
    first, vals = space.eval_basis_many(atom_chebyshev(p, nx_per_atom).ravel())
    s0, s1 = space.support_atom_range(np.arange(dim))
    prof = np.zeros(n_atoms + k)
    for a0 in range(0, n_atoms, SOLVE_BLOCK_ATOMS):
        a = np.arange(a0, min(a0 + SOLVE_BLOCK_ATOMS, n_atoms))
        pts = slice(a0 * nx_per_atom, (a[-1] + 1) * nx_per_atom)

        def weighted(D, i):
            """Per (row of basis slice i, atom of a): distance, and max |N*_i| over the
            atom's samples * conv_len."""
            vmax = np.abs(D).reshape(len(D), len(a), nx_per_atom).max(axis=2)
            dist, conv_len = atom_range_gap(p.breakpoints, a, s0[i, None], s1[i, None])
            return dist, vmax * conv_len

        D, lo, hi = _edge_checked_solve(
            gs, a0, a[-1] + 1, DECAY_EDGE_TOL,
            lambda lo, hi: _basis_columns(first[pts], vals[pts], lo, hi),
            lambda D, i: weighted(D, i)[1])
        dist, pv = weighted(D, slice(lo, hi))
        if not np.isfinite(pv).all():
            raise ValueError(f"dual values of x-atoms [{a0}, {a[-1] + 1}) are not finite")
        np.maximum.at(prof, dist.ravel(), pv.ravel())
    prof[prof <= PROFILE_FLOOR] = 0.0
    return _fit_profile(prof)


def _fit_profile(prof: np.ndarray) -> DecayProfile:
    """Log-linear fit and envelope of a per-distance profile (trailing zeros cut)."""
    nz = np.flatnonzero(prof > 0)
    smax = nz[-1] if len(nz) else 0
    distances = np.arange(smax + 1)
    values = prof[: smax + 1]
    good = values > PROFILE_FLOOR
    if good.sum() >= 2:
        slope, intercept = np.polyfit(distances[good], np.log(values[good]), 1)
        q_hat = float(np.exp(slope))
        c_hat = float(np.exp(intercept))
        resid = float(
            np.sqrt(np.mean((np.log(values[good]) - (slope * distances[good] + intercept)) ** 2))
        )
    else:
        # k=1: duals live on a single atom, the profile vanishes beyond s=0
        q_hat, c_hat, resid = 0.0, float(values[0]), 0.0
    if q_hat > 0:
        c_env = float(np.max(values[good] / q_hat ** distances[good]))
    else:
        c_env = float(values[0])
    return DecayProfile(
        distances=distances,
        values=values,
        q_hat=q_hat,
        c_hat=c_hat,
        c_env=c_env,
        fit_residual=resid,
    )

