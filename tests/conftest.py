from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded

from splinelab import (AtomSet, Filtration1D, FiltrationSpec, HybridMeasure, Partition1D,
                       Rectangle, SplineSpace1D, TensorFiltration, TensorSpline, atom_of,
                       atom_quadrature, build_filtration, compile_masses)
from splinelab import bspline
from splinelab.bspline import (_atom_einsum, _basis_columns, _de_boor, as_value_array,
                               atom_chebyshev, mode_apply, restrict)
from splinelab.filtration import Interval, atom_range_gap, l1_distance_grid
from splinelab.maximal import _check_q, level_sum_field
from splinelab.measures import CompiledMasses, source_moments
from splinelab.nondense import VInterval, _frozen_since
from splinelab.projector import (EDGE_BITS_PER_ORDER, NORM_EDGE_TOL, PROFILE_FLOOR,
                                 SOLVE_BLOCK_ATOMS, _fit_profile)


@pytest.fixture
def dyadic_1d():
    return build_filtration(FiltrationSpec(d=1, interval=(0.0, 1.0), n_levels=5))


@pytest.fixture
def dyadic_2d():
    return build_filtration(FiltrationSpec(d=2, interval=(0.0, 1.0), n_levels=4))


def random_filtration(seed, d=1, n_levels=6, p_split=0.7, jitter=(0.35, 0.65)):
    spec = FiltrationSpec(
        d=d,
        interval=(0.0, 1.0),
        n_levels=n_levels,
        rules=[{"name": "random-atom-bisect", "p_split": p_split,
                "split_range": list(jitter), "base_atoms": 2}] * d,
        seed=seed,
    )
    return build_filtration(spec)


# ---------------------------------------------------------------------------
# independent oracles


def per_atom_refine(bp, rule, rng, floor, seen):
    """One refinement step, one atom at a time: the loop that the array step in
    filtration._refine_once replaced, with the same draws in the same order.

    Adds "floor" to the set `seen` when a chosen atom is too narrow to split
    and "fallback" when random-atom-bisect chose no atom and takes the widest.
    """
    def split(j, fraction):
        lo, hi = bp[j], bp[j + 1]
        width = hi - lo
        if width < 2 * floor:
            seen.add("floor")
            return
        point = lo + fraction * width
        new_points.append(min(max(point, lo + floor), hi - floor))

    name = rule["name"]
    widths = np.diff(bp)
    new_points = []
    if name == "uniform-bisect-all":
        for j in range(len(widths)):
            split(j, 0.5)
    elif name == "random-atom-bisect":
        p_split = float(rule.get("p_split", 0.7))
        lo_f, hi_f = rule.get("split_range", (0.5, 0.5))
        chosen = rng.random(len(widths)) < p_split
        if not chosen.any():
            seen.add("fallback")
            chosen[int(np.argmax(widths))] = True
        fracs = lo_f + (hi_f - lo_f) * rng.random(len(widths))
        for j in np.flatnonzero(chosen):
            split(j, fracs[j])
    elif name == "point-targeted":
        j = int(np.searchsorted(bp, float(rule["target"]), side="left")) - 1
        split(min(max(j, 0), len(widths) - 1), float(rule.get("fraction", 0.5)))
    else:
        flo, fhi = rule["frozen"]
        for j in range(len(widths)):
            if not (bp[j] >= flo and bp[j + 1] <= fhi):
                split(j, float(rule.get("fraction", 0.5)))
    return np.sort(np.concatenate([bp, np.array(new_points)]))


def per_atom_v_sets(f1, tolerance):
    """The maximal frozen intervals found atom by atom: the loop that the run
    search of nondense.detect_v_sets replaced, neighbour tests included."""
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
        intervals.append(VInterval(
            interval=iv,
            atom_range=(j0, j1),
            left_accumulated=j0 > 0 and not frozen[j0 - 1],
            right_accumulated=j1 + 1 < n and not frozen[j1 + 1],
            frozen_since_level=_frozen_since(f1, iv),
            ambiguous_atoms=tuple(
                a for a in range(j0, j1 + 1) if tolerance <= widths[a] < 2 * tolerance),
        ))
    return tuple(intervals)


def add_at_gram_band(space):
    """Upper Gram band assembled by np.add.at, one entry of the k x k atom blocks at a
    time: the scatter that the slice sums of projector._assemble_gram_band replaced."""
    k, p = space.order, space.partition
    rule = atom_quadrature(p, k)
    _, vals = space.eval_basis_many(rule.nodes)
    blocks = np.einsum("agr,agc->arc", vals, vals * rule.weights[:, :, None])
    ab = np.zeros((k, space.dimension))
    atoms = np.arange(p.n_atoms)
    for r in range(k):
        for c in range(r, k):
            np.add.at(ab[k - 1 + r - c], atoms + c, blocks[:, r, c])
    return ab


def nested_loop_gram_band(space):
    """Upper Gram band added one (r, c) entry of the k x k atom blocks at a time, one
    slice per entry: the nested loop that the band-diagonal scatter of
    projector._assemble_gram_band replaced."""
    k, p = space.order, space.partition
    rule = atom_quadrature(p, k)
    _, vals = space.eval_basis_many(rule.nodes)
    blocks = np.einsum("agr,agc->arc", vals, vals * rule.weights[:, :, None])
    ab = np.zeros((k, space.dimension))
    for r in range(k):
        for c in range(r, k):
            ab[k - 1 + r - c, c:c + p.n_atoms] += blocks[:, r, c]
    return ab


def two_pass_moments(f, spaces, g):
    """basis_moments of a source that is not separable by the two passes that its one
    pass replaced: the per-atom local moments, prod_l (atoms_l k_l) rows, reduced slab
    by slab from the first slab to the last, then scattered into the basis axis by axis,
    order-1 axes left alone."""
    nodes, mats = [], []
    for space in spaces:
        rule = atom_quadrature(space.partition, g)
        _, vals = space.eval_basis_many(rule.nodes)
        nodes.append(rule.nodes)
        mats.append(np.ascontiguousarray(np.swapaxes(vals * rule.weights[..., None], 1, 2)))
    d = len(nodes)
    n_atoms = nodes[0].shape[0]
    shape = tuple(x.size for x in nodes)
    step = max(1, bspline.CACHE_BLOCK_BYTES // 8 // (g * int(np.prod(shape[1:]))))
    grid = [x.reshape((1,) * ell + (-1,) + (1,) * (d - 1 - ell)) for ell, x in enumerate(nodes)]
    ops = [None] + [lambda X, A=A: _atom_einsum(A, X) for A in mats[1:]]
    local = None
    for a0 in range(0, n_atoms, step):
        a1 = min(a0 + step, n_atoms)
        x0 = grid[0][a0 * g:a1 * g]
        head = mode_apply(as_value_array(f(x0, *grid[1:]), x0.shape[:1] + shape[1:]),
                          [lambda X, A=mats[0][a0:a1]: _atom_einsum(A, X)])
        rows = len(head)
        if rows == 1 < n_atoms:
            head = np.concatenate([head, np.zeros_like(head)])
        reduced = mode_apply(head, ops)[:rows]
        if local is None:
            per_atom = rows // (a1 - a0)
            local = np.empty((n_atoms * per_atom,) + reduced.shape[1:])
        local[a0 * per_atom:a0 * per_atom + rows] = reduced

    def scatter(k, X):
        rows = X.reshape(-1, k, X.shape[1])
        out = np.zeros((len(rows) + k - 1, X.shape[1]))
        for r in range(k):
            out[r:r + len(rows)] += rows[:, r]
        return out

    return mode_apply(local, [(lambda X, k=s.order: scatter(k, X)) if s.order > 1 else None
                              for s in spaces])


def knot_span_basis(space, xs):
    """eval_basis_many by a search of the knot vector: the span T[mu] < x <= T[mu + 1]
    from searchsorted on the clamped knots, clipped to [k - 1, dim - 1], that the atom
    lookup of SplineSpace1D.eval_basis_many replaced."""
    k, T = space.order, space.knots
    flat = np.ravel(np.asarray(xs, dtype=float))
    mu = np.clip(np.searchsorted(T, flat, side="left") - 1, k - 1, space.dimension - 1)
    return mu - (k - 1), _de_boor(T, mu, k, lambda j: flat)


def ndindex_eval_many(ts, points):
    """TensorSpline.eval_many term by term over np.ndindex of the orders, each weight a
    product of the axis values from 1.0 in axis order: the loop that the tensor-basis
    table of bspline._point_basis replaced."""
    pts = np.asarray(points, dtype=float)
    basis = [space.eval_basis_many(pts[:, ell]) for ell, space in enumerate(ts.spaces)]
    out = np.zeros((len(pts), ts.m))
    for multi in np.ndindex(*(s.order for s in ts.spaces)):
        idx = tuple(first + r for (first, _), r in zip(basis, multi))
        w = np.ones(len(pts))
        for (_, vals), r in zip(basis, multi):
            w = w * vals[:, r]
        out += w[:, None] * ts.coeffs[idx]
    return out


def per_dirac_moments(theta, spaces):
    """source_moments of a HybridMeasure with its Diracs added one at a time, each as the
    outer product of its axis values and its mass on its k_1 x ... x k_d block: the loop
    that the scatter of the tensor-basis table replaced."""
    b = source_moments(replace(theta, diracs=[]), spaces)
    locations = np.array([x for x, _ in theta.diracs])
    basis = [s.eval_basis_many(locations[:, ell]) for ell, s in enumerate(spaces)]
    for j, (_, mass) in enumerate(theta.diracs):
        w = reduce(np.multiply.outer, [vals[j] for _, vals in basis])
        block = tuple(slice(first[j], first[j] + s.order) for (first, _), s in zip(basis, spaces))
        b[block] += np.multiply.outer(w, mass)
    return b


def decay_monotone_per_distance(values, k):
    """run_decay's monotonicity check distance by distance, the loop its array
    comparison replaced: no entry beyond k exceeds its predecessor by more than a
    relative 1e-9 unless both lie at or below PROFILE_FLOOR."""
    for s in range(k, len(values) - 1):
        if values[s + 1] > max(values[s] * (1 + 1e-9), PROFILE_FLOOR):
            return False
    return True


def piecewise_poly(space, coeffs, atom):
    """Exact polynomial of one spline on one atom via Chebyshev interpolation.

    Interpolating a degree k-1 polynomial at k nodes reproduces it exactly,
    so the returned Polynomial is the spline's restriction to the atom with
    no quadrature involved.
    """
    k = space.order
    lo, hi = space.partition.breakpoints[atom], space.partition.breakpoints[atom + 1]
    nodes = lo + (hi - lo) * (np.cos((2 * np.arange(k) + 1) * np.pi / (2 * k)) + 1) / 2
    first, vals = space.eval_basis_many(nodes)
    ys = np.zeros(len(nodes))
    for r in range(k):
        ys += vals[:, r] * np.asarray(coeffs)[first + r]
    return np.polynomial.Polynomial.fit(nodes, ys, deg=k - 1).convert()


def symbolic_product_integral(space, i, j):
    """int N_i N_j by exact piecewise polynomial interpolation (no quadrature).

    On each atom the product is a polynomial of degree 2k-2, so interpolating
    it at 2k-1 Chebyshev points reproduces it exactly; the antiderivative of
    the interpolant gives the integral without any quadrature rule.
    """
    bp = space.partition.breakpoints
    k = space.order
    dim = space.dimension

    def basis_values(idx, xs):
        first, vals = space.eval_basis_many(xs)
        out = np.zeros(len(xs))
        for r in range(k):
            out += vals[:, r] * (first + r == idx)
        return out

    total = 0.0
    for a in range(space.partition.n_atoms):
        lo, hi = bp[a], bp[a + 1]
        npts = 2 * k - 1
        nodes = lo + (hi - lo) * (np.cos((2 * np.arange(npts) + 1) * np.pi / (2 * npts)) + 1) / 2
        ys = basis_values(i, nodes) * basis_values(j, nodes)
        p = np.polynomial.Polynomial.fit(nodes, ys, deg=npts - 1)
        anti = p.integ()
        total += anti(hi) - anti(lo)
    return total


def dense_dual_matrix(gs):
    """Dense inverse-Gram oracle: row i holds the coefficients of N*_i."""
    return np.linalg.inv(dense_gram(gs))


def dense_operator_norm_1d(gs, nx_per_atom=8, ny_per_atom=8, window=64):
    """Kernel-norm oracle reading a dense inverse Gram (one solve against I).

    Truncates the y-integral per block of SOLVE_BLOCK_ATOMS x-atoms, as the
    library does, so the two agree to roundoff at every window.
    """
    space = gs.space
    k = space.order
    p = space.partition
    n_atoms = p.n_atoms
    dim = space.dimension
    lo, hi = p.breakpoints[:-1], p.breakpoints[1:]
    j = np.arange(nx_per_atom)
    cheb = np.cos((2 * j + 1) * np.pi / (2 * nx_per_atom))
    xs_all = 0.5 * (hi - lo)[:, None] * cheb + 0.5 * (hi + lo)[:, None]
    yrule = atom_quadrature(p, ny_per_atom)
    if k == 1:
        return float((yrule.weights.sum(axis=1) / gs.band[0]).max())
    xfirst, xV = space.eval_basis_many(xs_all.ravel())
    _, yV = space.eval_basis_many(yrule.nodes.ravel())
    yVr = yV.reshape(n_atoms, ny_per_atom, k)
    wy = yrule.weights
    Ginv = cho_solve_banded((gs._chol, False), np.eye(dim), check_finite=False)
    best = 0.0
    for a0 in range(0, n_atoms, SOLVE_BLOCK_ATOMS):
        a1 = min(a0 + SOLVE_BLOCK_ATOMS, n_atoms)
        xsl = slice(a0 * nx_per_atom, a1 * nx_per_atom)
        ya0 = max(0, a0 - window)
        ya1 = min(n_atoms, a1 + window)
        rows = np.arange(ya0, min(ya1 + k - 1, dim))
        Dsub = np.zeros((len(rows), xsl.stop - xsl.start))
        for r in range(k):
            Dsub += Ginv[np.ix_(rows, xfirst[xsl] + r)] * xV[xsl, r][None, :]
        Dwin = np.lib.stride_tricks.sliding_window_view(Dsub, k, axis=0)
        vals = np.einsum("ugr,uxr->ugx", yVr[ya0:ya1], Dwin[: ya1 - ya0])
        S = np.einsum("ug,ugx->x", wy[ya0:ya1], np.abs(vals))
        best = max(best, float(S.max()))
    return best


def per_block_operator_norm_1d(gs, nx_per_atom=8, ny_per_atom=8, window=64):
    """Kernel-norm oracle: the block loop that projector._kernel_blocks replaced.

    Per block of SOLVE_BLOCK_ATOMS x-atoms it builds the identity right-hand
    side and the collocation matrix X afresh, and its edge test recomputes
    z @ X for the k rows nearest each interior edge, with the support of each
    row from SplineSpace1D.support_atom_range.  Windows, solves and the
    y-integral are those of operator_norm_1d, so the two agree bit for bit.
    """
    space = gs.space
    k, dim = space.order, space.dimension
    p = space.partition
    n_atoms = p.n_atoms
    bp = p.breakpoints
    yrule = atom_quadrature(p, ny_per_atom)
    if k == 1:
        return float((yrule.weights.sum(axis=1) / gs.band[0]).max())
    xfirst, xV = space.eval_basis_many(atom_chebyshev(p, nx_per_atom).ravel())
    _, yV = space.eval_basis_many(yrule.nodes.ravel())
    yVr = yV.reshape(n_atoms, ny_per_atom, k)
    wy = yrule.weights.ravel()

    def mass(z, X, i):
        lo, hi = space.support_atom_range(i)
        return np.abs(z @ X).max(axis=1) * (bp[hi + 1] - bp[lo])

    best = 0.0
    for a0 in range(0, n_atoms, SOLVE_BLOCK_ATOMS):
        a1 = min(a0 + SOLVE_BLOCK_ATOMS, n_atoms)
        xsl = slice(a0 * nx_per_atom, a1 * nx_per_atom)
        X = _basis_columns(xfirst[xsl], xV[xsl], a0, a1 + k - 1)
        w = int(np.ceil(k * -np.log2(NORM_EDGE_TOL) / EDGE_BITS_PER_ORDER))
        while True:
            lo, hi = max(a0 - w, 0), min(a1 + k - 1 + w, dim)
            Z = gs.solve(np.eye(hi - lo, X.shape[0], lo - a0), lo, hi)
            if ((lo == 0 or (mass(Z[:k], X, np.arange(lo, lo + k)) <= NORM_EDGE_TOL).all())
                    and (hi == dim
                         or (mass(Z[-k:], X, np.arange(hi - k, hi)) <= NORM_EDGE_TOL).all())):
                break
            w *= 2
        yb0, yb1 = max(a0 - window, lo), min(a1 + window, hi - k + 1)
        D = (Z @ X)[yb0 - lo:]
        rows = np.lib.stride_tricks.as_strided(
            D, (yb1 - yb0, k, D.shape[1]), (D.strides[0],) + D.strides, writeable=False)
        K = np.abs(np.matmul(yVr[yb0:yb1], rows))
        S = wy[yb0 * ny_per_atom:yb1 * ny_per_atom] @ K.reshape(-1, D.shape[1])
        best = max(best, float(S.max()))
    return best


# atoms per full-length solve of per_atom_decay_profile
ORACLE_CHUNK_ATOMS = 64


def full_length_duals(gs, xs):
    """Dual-value oracle: dense collocation matrix, one full-length LAPACK dpbtrs solve."""
    return cho_solve_banded((gs._chol, False), collocation_matrix(gs.space, xs).T)


def per_atom_decay_profile(gs, nx_per_atom=8):
    """Decay-profile oracle: full-length dual solves at every atom's samples,
    entries at or below PROFILE_FLOOR set to 0, then the library's fit.

    The atoms go ORACLE_CHUNK_ATOMS at a time into one full-length solve;
    dpbtrs solves each right-hand side on its own, so this equals one solve
    per atom bit for bit."""
    space = gs.space
    k = space.order
    n_atoms = space.partition.n_atoms
    dim = space.dimension
    bp = space.partition.breakpoints
    sup_lo = np.maximum(np.arange(dim) - (k - 1), 0)[:, None]
    sup_hi = np.minimum(np.arange(dim), n_atoms - 1)[:, None]
    j = np.arange(nx_per_atom)
    cheb = np.cos((2 * j + 1) * np.pi / (2 * nx_per_atom))
    prof = np.zeros(n_atoms + k)
    for a0 in range(0, n_atoms, ORACLE_CHUNK_ATOMS):
        a = np.arange(a0, min(a0 + ORACLE_CHUNK_ATOMS, n_atoms))
        lo, hi = bp[a, None], bp[a + 1, None]
        xs = 0.5 * (hi - lo) * cheb + 0.5 * (hi + lo)
        D = np.abs(full_length_duals(gs, xs.ravel()))
        vmax = D.reshape(dim, len(a), nx_per_atom).max(axis=2)
        dist = np.where(
            (a >= sup_lo) & (a <= sup_hi),
            0,
            np.minimum(np.abs(a - sup_lo), np.abs(a - sup_hi)),
        )
        conv_len = bp[np.maximum(sup_hi, a) + 1] - bp[np.minimum(sup_lo, a)]
        np.maximum.at(prof, dist, vmax * conv_len)
    prof[prof <= PROFILE_FLOOR] = 0.0
    return _fit_profile(prof)


def per_entry_conv_lengths(bp):
    """Conv-length oracle: entry by entry, bp[max(a,b)+1] - bp[min(a,b)]."""
    n = len(bp) - 1
    conv = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            conv[a, b] = bp[max(a, b) + 1] - bp[min(a, b)]
    return conv


def per_entry_axis_kernel(bp, q):
    """Axis-kernel oracle: entry by entry, q^|a-b| / (bp[max(a,b)+1] - bp[min(a,b)]).

    The powers are taken by one np.power call over the distance matrix, as
    numpy's vectorized power may differ from Python's ** in the last ulp.
    """
    n = len(bp) - 1
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.power(q, dist) / per_entry_conv_lengths(bp)


def collocation_matrix(space, xs):
    """Dense collocation matrix B with B[p, i] = N_i(xs[p]), xs flattened."""
    return _basis_columns(*space.eval_basis_many(np.ravel(xs)), 0, space.dimension).T


def dense_spline_projection(tp, ts):
    """P ts by dense algebra: per axis the cross-Gram M[i, j] = int N_i M_j (N the basis of
    tp, M of ts) from dense collocation at k_max Gauss points per atom of the common
    refinement, and the dense Gram G; the Kronecker factors G^-1 M act by one einsum."""
    g = max(tp.orders + tuple(s.order for s in ts.spaces))
    factors = []
    for mine, theirs, gs in zip(tp.spaces, ts.spaces, tp.grams):
        rule = atom_quadrature(Partition1D(np.union1d(mine.partition.breakpoints,
                                                      theirs.partition.breakpoints)), g)
        nodes, w = rule.nodes.ravel(), rule.weights.ravel()
        cross = collocation_matrix(mine, nodes).T @ (w[:, None] * collocation_matrix(theirs, nodes))
        factors.append(np.linalg.solve(dense_gram(gs), cross))
    src, dst = "abcdefgh"[:ts.d], "ABCDEFGH"[:ts.d]
    spec = ",".join(f"{D}{s}" for D, s in zip(dst, src)) + f",{src}z->{dst}z"
    return np.einsum(spec, *factors, ts.coeffs, optimize=True)


def finest_grid_max_field(q, masses, K):
    """Running-max oracle on masses.F: level sums spread onto the finest grid, maxed there."""
    F = masses.F
    out = None
    for n in range(K, F.n_levels + 1):
        S_fine = level_sum_field(q, masses, n)[np.ix_(*F.parent_maps(F.n_levels, n))]
        out = S_fine if out is None else np.maximum(out, S_fine)
    return out


def restricted_projection(tp, source, partitions, g=None) -> TensorSpline:
    """P source on tp's spaces with the moments taken over finer `partitions` (one per
    axis, tp's orders) and restricted onto tp's spaces in one step."""
    fine = [SplineSpace1D(p, k) for p, k in zip(partitions, tp.orders, strict=True)]
    b = restrict(source_moments(source, fine, g), fine, tp.spaces)
    return TensorSpline(tp.spaces, tp.solve_coefficients(b))


def truncated(F, n_levels):
    """The filtration of the first n_levels levels of F."""
    return TensorFiltration([Filtration1D(ax.levels[:n_levels]) for ax in F.axes])


def whole_level(F, n=1) -> AtomSet:
    """Every atom of level n of F."""
    return AtomSet(level=n, members=frozenset(np.ndindex(*F.level_shape(n))))


def dense_gram(gs):
    """Dense Gram matrix of a GramSystem, unpacked from its upper band storage."""
    k, dim = gs.space.order, gs.dimension
    G = np.zeros((dim, dim))
    for off in range(k):
        row = gs.band[k - 1 - off]
        idx = np.arange(off, dim)
        G[idx - off, idx] = row[off:]
        G[idx, idx - off] = row[off:]
    return G


# ---------------------------------------------------------------------------
# per-atom definitions the compiled and vectorized library paths must agree with


@dataclass(frozen=True)
class MeasureValue:
    value: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.value, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ValueError("measure values must be finite")
        object.__setattr__(self, "value", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


def rectangle_contains(rect, x) -> bool:
    """Whether x lies in the half-open rectangle prod_l (lo_l, hi_l]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return bool(np.all((np.asarray(rect.lo) < x) & (x <= np.asarray(rect.hi))))


def atom_set_from_mask(level, mask) -> AtomSet:
    """The AtomSet of the True entries of a boolean tensor over a level."""
    return AtomSet(level=level, members=frozenset(tuple(int(v) for v in idx)
                                                  for idx in np.argwhere(mask)))


def measure_of_atom(theta, A) -> MeasureValue:
    """theta(A) for a rectangle or list of rectangles."""
    rects = A if isinstance(A, (list, tuple)) else [A]
    total = np.zeros(theta.m)
    for rect in rects:
        if not isinstance(rect, Rectangle):
            raise ValueError("atoms must be given as Rectangle objects")
        total += _density_integral(theta, rect)
        for loc, mass in theta.diracs:
            if rectangle_contains(rect, loc):
                total += mass
    return MeasureValue(total)


def _density_integral(theta, rect):
    if theta.density is None:
        return np.zeros(theta.m)
    # a rectangle is a one-atom partition of every axis
    parts = [Partition1D([rect.lo[ell], rect.hi[ell]]) for ell in range(theta.d)]
    g = theta.density_quad_points
    values = node_grid_values(parts, g, theta.density_values)
    return dense_atom_integrals(parts, g, values).reshape(theta.m)


def atom_distance(F, n, i, j) -> int:
    """l1 distance between atom indices at level n."""
    i = tuple(int(v) for v in i)
    j = tuple(int(v) for v in j)
    shape = F.level_shape(n)
    for idx in (i, j):
        if len(idx) != F.d or any(not 0 <= v < s for v, s in zip(idx, shape)):
            raise IndexError(f"atom index {idx} out of range for level shape {shape}")
    return int(sum(abs(a - b) for a, b in zip(i, j)))


def neighborhood(F, n, seed, s) -> AtomSet:
    """All level-n atoms within l1 index distance s of the seed.

    The seed may be a point of I^d, a single atom index tuple, or an AtomSet
    at level n.  Monotone in s by construction.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    shape = F.level_shape(n)
    if isinstance(seed, AtomSet):
        if seed.level != n:
            raise ValueError(f"seed AtomSet at level {seed.level}, expected {n}")
        seeds = list(seed.members)
    elif isinstance(seed, tuple) and all(isinstance(v, (int, np.integer)) for v in seed):
        seeds = [tuple(int(v) for v in seed)]
    else:
        index, _ = atom_of(F, n, seed)
        seeds = [index]
    return atom_set_from_mask(n, l1_distance_grid(shape, seeds) <= s)


def b_term(q, theta, F, n, A, x) -> float:
    """b_n(q, theta, A, x) = q^{d_n(A, A_n(x))} / |conv(A u A_n(x))| * theta(A)."""
    _check_q(q)
    i, _ = atom_of(F, n, x)
    rect = F.atom_rectangle(n, tuple(int(v) for v in A))
    value = measure_of_atom(theta, rect).value
    if theta.m != 1 or value[0] < 0:
        raise ValueError(
            "b_term requires a nonnegative scalar measure; pass the scalar variation instead"
        )
    s = atom_distance(F, n, A, i)
    conv = 1.0
    for ell in range(F.d):
        conv *= atom_range_gap(F.axes[ell].level(n).breakpoints, i[ell], A[ell], A[ell])[1]
    return float(q ** s / conv * value[0])


def level_sum(q, theta, F, n, x) -> float:
    """sum over level-n atoms A of b_n(q, theta, A, x), read off the level-sum field."""
    masses = theta if isinstance(theta, CompiledMasses) else compile_masses(theta, F)
    i, _ = atom_of(F, n, x)
    return float(level_sum_field(q, masses, n)[i])


@dataclass(frozen=True)
class TotalVariationReport:
    """Partition sum at one level plus the exact value of the representation."""

    level: int
    partition_sum: float
    exact_value: float


def total_variation(theta, F, level) -> TotalVariationReport:
    """sum over level-n atoms of ||theta(A)||, and the exact |theta|(I^d).

    For a nonnegative scalar measure the partition sum equals theta(I^d) at
    every level; for signed or vector measures it is a lower bound that
    increases with the level.  The exact value of the hybrid representation is
    int ||g|| dlambda + sum ||mass||, computed by quadrature.
    """
    rects = [F.atom_rectangle(level, idx) for idx in np.ndindex(*F.level_shape(level))]
    partition_sum = float(sum(measure_of_atom(theta, r).norm for r in rects))
    return TotalVariationReport(level=level, partition_sum=partition_sum,
                                exact_value=_exact_variation(theta, F))


def _exact_variation(theta, F) -> float:
    total = float(sum(np.linalg.norm(mass) for _, mass in theta.diracs))
    if theta.density is not None:
        # integrate ||g|| on the finest grid: the masses of the density alone
        density_only = replace(scalar_variation(theta), diracs=[])
        total += float(compile_masses(density_only, F).level_masses(F.n_levels).sum())
    return total


def scalar_variation(theta) -> HybridMeasure:
    """Nonnegative scalar measure ||g|| dlambda + sum ||m_j|| delta_{x_j}."""
    if theta.density is None:
        dens = None
    else:
        def dens(*grids):
            return np.linalg.norm(theta.density_values(*grids), axis=-1)

    diracs = [(loc, float(np.linalg.norm(mass))) for loc, mass in theta.diracs]
    return HybridMeasure(
        d=theta.d,
        density=dens,
        diracs=diracs,
        m=1,
        density_quad_points=theta.density_quad_points,
    )


def l1_norms(seq) -> np.ndarray:
    """int ||g_n|| d lambda^d for every level of a martingale spline sequence."""
    return np.array([_l1_norm(ts) for ts in seq.splines])


def _l1_norm(ts, g=8) -> float:
    """int ||g_n|| d lambda^d by per-atom quadrature on the spline's own grid."""
    parts = [s.partition for s in ts.spaces]
    vals = np.linalg.norm(ts.eval_grid(node_axes(parts, g)), axis=-1, keepdims=True)
    return float(dense_atom_integrals(parts, g, vals).sum())


def node_axes(partitions, g) -> list:
    """The g Gauss-Legendre nodes of every atom, axis by axis: the node grid of the
    g-point quadrature on `partitions`."""
    return [atom_quadrature(p, g).nodes.ravel() for p in partitions]


def node_grid_values(partitions, g, f) -> np.ndarray:
    """f on the whole g-point node grid of `partitions`, checked and shaped (n_1, ..., n_d, m)."""
    axes = node_axes(partitions, g)
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    return as_value_array(f(*grids), tuple(len(x) for x in axes), "integrand")


def dense_atom_integrals(partitions, g, values) -> np.ndarray:
    """Per-atom integrals of g-point node-grid values on `partitions`, each axis contracted
    on the whole grid."""
    weights = [atom_quadrature(p, g).weights for p in partitions]
    return mode_apply(values, [
        lambda X, w=w: np.einsum("ag,agr->ar", w, X.reshape(w.shape + (-1,))) for w in weights])


def graded_filtration(d, seed=0):
    """d axes of about 34 atoms each, graded to the 1e-9 width floor toward 1.0,
    0.37 and 0.0 respectively."""
    rules = [{"name": "point-targeted", "target": t, "base_atoms": 2, "base_jitter": 0.3}
             for t in (1.0, 0.37, 0.0)[:d]]
    return build_filtration(FiltrationSpec(d=d, interval=(0.0, 1.0), n_levels=34,
                                           rules=rules, seed=seed))


def slab_sizes(partitions, g) -> dict:
    """CACHE_BLOCK_BYTES values (8 bytes a node) that cut the g-point node grid of
    `partitions` into one axis-0 atom per slab, into slabs whose last one is ragged,
    and into a single slab."""
    per_atom = g * int(np.prod([g * p.n_atoms for p in partitions[1:]]))
    n = partitions[0].n_atoms
    ragged = next(s for s in range(2, n) if n % s)
    return {"one atom": 8, "ragged": 8 * (ragged * per_atom + per_atom // 2),
            "one slab": 8 * n * per_atom}


def wavy_values(m):
    """A smooth integrand: scalar for m = 1 (no value axis), else m = 3 values
    of mixed sign and scale."""
    def f(*xs):
        base = 1.5 + np.sin(3 * sum(xs))
        if m == 1:
            return base
        return np.stack(np.broadcast_arrays(base, 1.0 + xs[0] ** 2, np.exp(-xs[-1]) - 0.5),
                        axis=-1)

    return f


def dense_moments(partitions, g, spaces, values) -> np.ndarray:
    """Moments int values prod_l N_{i_l} by dense collocation over the whole g-point node
    grid of `partitions`, which refine the partitions of `spaces`."""
    ops = []
    for space, p in zip(spaces, partitions, strict=True):
        rule = atom_quadrature(p, g)
        # fold the weights into the collocation matrix of each axis
        W = collocation_matrix(space, rule.nodes.ravel()) * rule.weights.ravel()[:, None]
        ops.append(W.T.__matmul__)
    return mode_apply(values, ops)


def median_decay_rate(errors: np.ndarray) -> float:
    """Median over points of the slope of log(error) against level."""
    n_levels, n_points = errors.shape
    if n_levels < 2:
        return 0.0
    slopes = []
    lv = np.arange(n_levels)
    for j in range(n_points):
        e = errors[:, j]
        good = e > 1e-300
        if good.sum() >= 2:
            slopes.append(np.polyfit(lv[good], np.log(e[good]), 1)[0])
    return float(np.median(slopes)) if slopes else 0.0
