"""Clamped B-spline spaces over one partition, tensor products, and quadrature.

The order-k space over a partition consists of the piecewise polynomials of
order k (degree k-1) on its atoms with k-2 continuous derivatives globally.
Clamped knot vectors (boundary breakpoints repeated k times, interior simple)
realize exactly that space; for k=1 the basis degenerates to the atom
indicators.  Breakpoint evaluation follows the half-open atom convention:
`eval_basis_many` takes the knot span of a point from its atom,
`Partition1D.atom_index_of`, so for k=1 a breakpoint value is taken from the
atom whose right endpoint it is; for k >= 2 the spline is continuous and the
convention is invisible.  The tensor functions active at points are
tabulated once (`_point_basis`): spline values gather from that table, and
Dirac moments (`measures.source_moments`) scatter into the basis through it.

Integrals over I^d go through `basis_moments`, which takes its per-atom
Gauss rules from the partitions of the spaces it is given.  A source in
product form, a `SeparableFunction` sum_t c_t prod_l phi_{t,l}(x_l), is
integrated axis by axis in d >= 2: its moments are the sums of the scaled
outer products of the one-axis moments of its factors (Fubini on the tensor
Gauss rule), so it costs sum_l (atoms_l g) factor evaluations instead of
prod_l.  Any other integrand is evaluated one slab of whole axis-0 atoms at
a time, and each slab is contracted and scattered into the basis on every
axis before the next, so its memory is bounded by CACHE_BLOCK_BYTES and by
what it returns, never by the node grid or its local moments.  A slab is
sized so that its temporaries stay in L2 (cache blocking, Lam, Rothberg &
Wolf, ASPLOS 1991); the result is the same bit for bit for every slab size.
Moments take one route: a source is reduced against the finest basis
(`basis_moments`), and a coarser nested basis N, with
N_j = sum_i T[i, j] M_i in the finest basis M (knot insertion,
`SplineSpace1D.refinement`), gets T^T times those moments (`restrict`).
That contraction, like the projection of a spline onto another level, runs
per axis over blocks of CONTRACT_BLOCK_POINTS sorted rows
(`_contract_points`), never through a dense matrix.  Atoms take this route
as order 1: its moments are the atom integrals, and its T^T sums children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .filtration import Interval, Partition1D, _require_int

DEFAULT_QUAD_POINTS = 4      # per-atom Gauss-Legendre points for spline integrands
GENERAL_QUAD_POINTS = 16     # fixed rule for integrands that are not splines
CACHE_BLOCK_BYTES = 512 * 1024  # most bytes of one blocked temporary: a slab of integrand
                                # values in basis_moments (8 bytes a node) or a row block of an
                                # axis kernel in maximal.  The few alive at once fit a 2 MB L2,
                                # where 2 MB blocks spilled to L3; the moments do not depend on it
CONTRACT_BLOCK_POINTS = 128  # points per dense collocation block in _contract_points: with a
                             # point in every atom a block has at most this + k - 1 rows


def knot_vector(p: Partition1D, k: int) -> np.ndarray:
    """Clamped knot vector of order k over the partition p (read-only)."""
    k = _require_int("order", k, 1)
    bp = p.breakpoints
    knots = np.concatenate([np.full(k - 1, bp[0]), bp, np.full(k - 1, bp[-1])])
    knots.flags.writeable = False
    return knots


class SplineSpace1D:
    """Order-k spline space over one partition, with the clamped B-spline basis."""

    def __init__(self, partition: Partition1D, order: int):
        self.partition = partition
        self.order = _require_int("order", order, 1)
        self.knots = knot_vector(partition, self.order)

    @property
    def dimension(self) -> int:
        return self.partition.n_atoms + self.order - 1

    @property
    def interval(self) -> Interval:
        return self.partition.interval

    def eval_basis_many(self, xs):
        """Values of the (at most k) nonzero basis functions at each point.

        Parameters:
            xs : array of finite points in (a, b]

        Returns:
            first : (n,) int array, index of the first active basis function
            values : (n, k) array, values of basis functions first..first+k-1;
                nonnegative and summing to 1 at every point
        """
        k = self.order
        flat = np.asarray(xs, dtype=float).ravel()
        # atom j of x, (t_{j-1}, t_j], is the knot span T[j + k - 1] < x <= T[j + k]
        first = self.partition.atom_index_of(flat)
        N = _de_boor(self.knots, first + (k - 1), k, lambda j: flat)
        return first.reshape(np.shape(xs)), N.reshape(np.shape(xs) + (k,))

    def refinement(self, fine: "SplineSpace1D"):
        """(first, vals) as from eval_basis_many: row i of the map T with N_j = sum_i T[i, j] M_i,
        N the basis of self and M of `fine`, holds vals[i, r] at column first[i] + r.

        Row i is the de Boor triangle of the span t_mu <= tau_i < t_{mu+1}, its
        step j evaluated at the fine knot tau_{i+j}: the blossom at tau_{i+1},
        ..., tau_{i+k-1} (the Oslo algorithm).  Raises ValueError when the
        orders differ or `fine`'s partition does not refine self's.
        """
        k = self.order
        if fine.order != k:
            raise ValueError(f"an order-{fine.order} space does not refine an order-{k} space")
        if not fine.partition.refines(self.partition):
            raise ValueError("the fine partition misses breakpoints of the coarse one")
        n, tau = fine.dimension, fine.knots
        mu = np.searchsorted(self.knots, tau[:n], side="right") - 1
        return mu - (k - 1), _de_boor(self.knots, mu, k, lambda j: tau[j:j + n])

    def support_atom_range(self, i):
        """Inclusive atom index range (lo, hi) where basis i is nonzero; i may be an index array."""
        i = np.asarray(i)
        if np.any((i < 0) | (i >= self.dimension)):
            raise IndexError(f"basis index {i} out of range [0, {self.dimension})")
        return np.maximum(i - (self.order - 1), 0), np.minimum(i, self.partition.n_atoms - 1)


def _de_boor(T, mu, k: int, x) -> np.ndarray:
    """(n, k) de Boor triangles over the knot spans mu of T, step j evaluated at x(j):
    B-spline values when x(j) is the same for every j, knot-insertion rows when
    x(j) are the fine knots tau_{i+j} (SplineSpace1D.refinement)."""
    n = len(mu)
    N = np.zeros((n, k))
    N[:, 0] = 1.0
    for j in range(1, k):
        xj = x(j)
        saved = np.zeros(n)
        for r in range(j):
            left = xj - T[mu + 1 - j + r]
            right = T[mu + 1 + r] - xj
            denom = right + left
            mask = denom > 0
            temp = np.where(mask, N[:, r] / np.where(mask, denom, 1.0), 0.0)
            N[:, r] = saved + right * temp
            saved = left * temp
        N[:, j] = saved
    return N


@dataclass(frozen=True)
class QuadratureRule:
    """Per-atom Gauss-Legendre nodes and weights, exact for degree <= 2g-1."""

    nodes: np.ndarray    # (n_atoms, g)
    weights: np.ndarray  # (n_atoms, g)


@lru_cache(maxsize=None)
def _gauss_legendre(g: int):
    """The g-point Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights)."""
    rule = np.polynomial.legendre.leggauss(g)
    for a in rule:
        a.flags.writeable = False
    return rule


def atom_quadrature(p: Partition1D, g: int) -> QuadratureRule:
    ref_nodes, ref_weights = _gauss_legendre(_require_int("quadrature points g", g, 1))
    lo = p.breakpoints[:-1][:, None]
    hi = p.breakpoints[1:][:, None]
    nodes = 0.5 * (hi - lo) * ref_nodes + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * np.broadcast_to(ref_weights, nodes.shape)
    return QuadratureRule(nodes=nodes, weights=weights)


def atom_chebyshev(p: Partition1D, n: int) -> np.ndarray:
    """The n Chebyshev points of the first kind on every atom of p: (n_atoms, n)."""
    n = _require_int("Chebyshev points n", n, 1)
    cheb = np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))
    lo, hi = p.breakpoints[:-1, None], p.breakpoints[1:, None]
    return 0.5 * (hi - lo) * cheb + 0.5 * (hi + lo)


class SeparableFunction:
    """A source in product form, f(x) = sum_t c_t prod_l phi_{t,l}(x_l).

    `terms` lists the pairs (c_t, factors_t): a finite real c_t and one
    callable per axis, which maps an array of axis-l coordinates to values of
    its shape.  Called on coordinate grids, f is any other grid callable: each
    term is c_t times its factors in axis order, and the terms are added in
    order.  `basis_moments` integrates it axis by axis in d >= 2.
    """

    def __init__(self, terms, name: str = "separable"):
        self.terms = tuple((c, tuple(factors)) for c, factors in terms)
        if not self.terms or len({len(factors) for _, factors in self.terms}) != 1:
            raise ValueError("a separable function needs terms with one factor per axis each")
        if not all(math.isfinite(c) for c, _ in self.terms):
            raise ValueError(f"separable coefficients must be finite, got "
                             f"{[c for c, _ in self.terms]}")
        self.d = len(self.terms[0][1])
        self.__name__ = name

    def __call__(self, *grids):
        if len(grids) != self.d:
            raise ValueError(f"{self.__name__} takes {self.d} coordinates, got {len(grids)}")
        total = None
        for c, factors in self.terms:
            out = c
            for phi, x in zip(factors, grids):
                out = out * phi(x)
            total = out if total is None else total + out
        return total


def basis_moments(f, spaces, g: int) -> np.ndarray:
    """Moments b_i = int f(X_1, ..., X_d) prod_l N_{i_l}, shape (dim_1, ..., dim_d, m), by
    the g-point Gauss-Legendre rule on every atom of the partitions of `spaces`;
    for order 1 they are the integrals over the atoms.

    Only N_a, ..., N_{a+k-1} are nonzero on atom a, so each axis is
    contracted per atom by w N of shape (atoms, k, g), built contiguous (a
    transposed view slows einsum severalfold), and the k local rows of each
    atom are added into the basis (`_scatter_atoms`).  A SeparableFunction in
    d >= 2 takes this one-axis route factor by factor (`_separable_moments`).
    Any other f is reduced in one pass over slabs of whole axis-0 atoms (about
    CACHE_BLOCK_BYTES / 8 nodes), so neither the node grid nor its local
    moments are ever held: a slab's values are checked for shape, NaN and inf
    and contracted on axis 0, every later axis is contracted and scattered
    (`_contract_atoms`), and the slab's rows are scattered into the result.
    The slabs run from the last to the first, so a basis row that two slabs
    share adds its terms in order of r ascending, as one scatter of the whole
    grid does; in d = 1 and on order-1 axes the moments are those of
    contracting the whole grid, then scattering, bit for bit, for every slab
    size.  An axis l >= 1 of order k >= 2 is scattered before axis 0, which
    moves the moments by a few ulps.  Two guards keep a slab's rows those of
    the whole grid: every axis is contracted by einsum, not gemm
    (`_atom_einsum`), and a slab left with a single row on axis 0 is padded.
    """
    if isinstance(f, SeparableFunction) and len(spaces) > 1:
        return _separable_moments(f, spaces, g)
    nodes, mats = [], []
    for space in spaces:
        rule = atom_quadrature(space.partition, g)
        _, vals = space.eval_basis_many(rule.nodes)                           # (atoms, g, k)
        nodes.append(rule.nodes)
        mats.append(np.ascontiguousarray(np.swapaxes(vals * rule.weights[..., None], 1, 2)))
    d = len(nodes)
    n_atoms, g = nodes[0].shape
    shape = tuple(x.size for x in nodes)
    step = max(1, CACHE_BLOCK_BYTES // 8 // (g * math.prod(shape[1:])))
    grid = [x.reshape((1,) * ell + (-1,) + (1,) * (d - 1 - ell)) for ell, x in enumerate(nodes)]
    ops = [None] + [partial(_contract_atoms, A) for A in mats[1:]]   # axis 0 is done
    where = f"integrand {getattr(f, '__name__', '')}".strip()   # errors name f
    out = None
    for a0 in reversed(range(0, n_atoms, step)):
        a1 = min(a0 + step, n_atoms)
        x0 = grid[0][a0 * g:a1 * g]
        # one expression, so that a slab's values are freed before the next slab's
        head = mode_apply(as_value_array(f(x0, *grid[1:]), x0.shape[:1] + shape[1:], where),
                          [partial(_atom_einsum, mats[0][a0:a1])])
        rows = len(head)
        if rows == 1 < n_atoms:
            # With one row left on axis 0, mode_apply would pass the later
            # axes views of another memory layout than the whole grid's, and
            # einsum sums in another order on those.  A zero row keeps the
            # whole grid's layout; it is dropped again below.
            head = np.concatenate([head, np.zeros_like(head)])
        reduced = mode_apply(head, ops)[:rows]
        if out is None:
            out = np.zeros((spaces[0].dimension,) + reduced.shape[1:])
        _scatter_atoms(reduced.reshape((a1 - a0, -1) + reduced.shape[1:]),
                       out[a0:a1 + spaces[0].order - 1])
    return out


def _separable_moments(f: SeparableFunction, spaces, g: int) -> np.ndarray:
    """basis_moments of f = sum_t c_t prod_l phi_{t,l}: the sum over t of c_t times the
    outer product of the one-axis moments basis_moments(phi_{t,l}, [spaces[l]], g), which
    check each factor's shape and values.  The tensor Gauss rule is a product of the
    axis rules, so this is the same sum as on the node grid, in another order.  Raises
    ValueError when a factor is not scalar or the moments are not finite."""
    if f.d != len(spaces):
        raise ValueError(f"{f.__name__} has {f.d} axes, the spaces {len(spaces)}")
    total = None
    for c, factors in f.terms:
        axes = [basis_moments(phi, [space], g) for phi, space in zip(factors, spaces)]
        if any(b.shape[1] != 1 for b in axes):
            raise ValueError(f"a factor of {f.__name__} is not scalar")
        with np.errstate(over="ignore", invalid="ignore"):
            term = reduce(np.multiply.outer, [b[:, 0] for b in axes[1:]], c * axes[0][:, 0])
            total = term if total is None else total + term
    if not np.all(np.isfinite(total)):
        raise ValueError(f"moments of {f.__name__} are not finite")
    return total[..., None]


def _atom_einsum(M, X) -> np.ndarray:
    """Rows M[a] @ X[a g:(a + 1) g] per atom a, stacked: (atoms * k, r); by einsum, which
    rounds every column alike, where gemm rounds one by its position among the columns."""
    return np.einsum("akg,agr->akr", M, X.reshape(M.shape[0], M.shape[2], -1)).reshape(
        -1, X.shape[1])


def _contract_atoms(M, X) -> np.ndarray:
    """Basis rows of one axis, (atoms + k - 1, r): the local rows of `_atom_einsum`
    scattered into a zero block."""
    out = np.zeros((M.shape[0] + M.shape[1] - 1, X.shape[1]))
    _scatter_atoms(_atom_einsum(M, X).reshape(M.shape[0], M.shape[1], -1), out)
    return out


def _scatter_atoms(local, out) -> None:
    """out[a + r] += local[a, r] in place, r ascending: the one scatter of the k local rows
    of each atom, local (atoms, k, ...), into basis rows, out (atoms + k - 1, ...)."""
    for r in range(local.shape[1]):
        out[r:r + len(local)] += local[:, r]


def restrict(moments, fine_spaces, coarse_spaces) -> np.ndarray:
    """Moments against fine bases restricted exactly to nested coarse ones: T^T along each
    axis, T from `SplineSpace1D.refinement`.  Axes whose spaces coincide are left alone
    (T = I there, which its rounded rows miss by an ulp)."""
    return mode_apply(moments, [
        None if (f.partition, f.order) == (c.partition, c.order)
        else partial(_contract_points, *c.refinement(f), c.dimension)
        for f, c in zip(fine_spaces, coarse_spaces, strict=True)])


def mode_apply(tensor, ops) -> np.ndarray:
    """Apply ops[l] along axis l of `tensor` for every l (the n-mode product).

    ops[l] maps an (n_l, r) array to an (n'_l, r) array, where r collects all
    other axes; axes past len(ops), such as a trailing value axis, ride along,
    and so does an axis whose op is None, without a copy.  Every per-axis
    operation on Kronecker-structured tensors goes through here but one:
    `maximal._spread` repeats atoms with np.repeat, which keeps the C layout
    that the in-place running max of `maximal_field` needs.

    ops[l] gets a strided view of `out`, not a contiguous copy, so the last
    bit of a contraction can depend on the shapes of the other axes: the
    kernel numpy picks, and the order in which it sums, follow the view's
    strides.  A scalar density and the same density as component 0 of an
    m = 3 density differ by up to 3.3e-16.  This is the accepted behaviour:
    contiguous copies would move outputs by about 1e-16, which needs the
    reference outputs regenerated first, and would add one copy per axis.
    """
    out = np.asarray(tensor, dtype=float)
    for ell, op in enumerate(ops):
        if op is None:
            continue
        moved = np.moveaxis(out, ell, 0)
        res = op(moved.reshape(moved.shape[0], -1))
        out = np.moveaxis(res.reshape(res.shape[:1] + moved.shape[1:]), 0, ell)
    return out


def _basis_columns(first, vals, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the dense collocation matrix B[i, p] = N_i(x_p), in Fortran order:
    column p holds vals[p, r] at row first[p] + r (eval_basis_many's output)."""
    n, k = vals.shape
    b = np.zeros((hi - lo, n), order="F")
    b[first[:, None] - lo + np.arange(k), np.arange(n)[:, None]] = vals
    return b


def _contract_points(first, vals, dim: int, X) -> np.ndarray:
    """B @ X for the collocation matrix B[i, p] = N_i(x_p) of a dimension-dim space,
    never formed; (first, vals) is eval_basis_many at the points x, or the rows of a
    knot-insertion map, whose B is T^T.

    A block of CONTRACT_BLOCK_POINTS consecutive points touches only the basis
    rows [min first, max first + k) of its points, [first[p0], first[p1 - 1] + k)
    for sorted points, so each block multiplies that small dense part of B with
    its rows of X and adds the product into those rows.
    """
    k = vals.shape[1]
    out = np.zeros((dim, X.shape[1]))
    for p0 in range(0, len(first), CONTRACT_BLOCK_POINTS):
        f = first[p0:p0 + CONTRACT_BLOCK_POINTS]
        lo, hi = f.min(), f.max() + k
        out[lo:hi] += _basis_columns(f, vals[p0:p0 + len(f)], lo, hi) @ X[p0:p0 + len(f)]
    return out


def _collocate(first, vals, C):
    """Rows sum_r vals[p, r] * C[first[p] + r]: banded collocation, never formed densely.
    Each term is scaled in the array that gathers it, so two (points, columns) arrays
    are alive at a time."""
    out = C[first]
    out *= vals[:, :1]
    for r in range(1, vals.shape[1]):
        term = C[first + r]
        term *= vals[:, r:r + 1]
        out += term
    return out


def _point_basis(spaces, points):
    """The K = prod_l k_l tensor basis functions active at each of the (n, d) points, in
    np.ndindex order: flat indices into the dimensions of `spaces` and values multiplied
    in axis order, both (K, n), one contiguous row a term for the gather of eval_many."""
    n = len(points)
    flat, w = np.zeros((1, n), dtype=np.intp), np.ones((1, n))
    for ell, s in enumerate(spaces):
        first, vals = s.eval_basis_many(points[:, ell])
        flat = (flat[:, None] * s.dimension + first + np.arange(s.order)[:, None]).reshape(-1, n)
        # a contiguous copy: broadcasting against the transposed view is several times slower
        w = (w[:, None] * np.ascontiguousarray(vals.T)).reshape(-1, n)
    return flat, w


class TensorSpline:
    """Tensor-product spline with values in R^m.

    Coefficients are stored as a tensor of shape (dim_1, ..., dim_d, m); the
    value at x is sum_i coeffs[i] * prod_l N_{i_l}(x_l).  NaN or inf
    coefficients raise ValueError.
    """

    def __init__(self, spaces, coeffs):
        self.spaces = tuple(spaces)
        coeffs = np.asarray(coeffs, dtype=float)
        dims = tuple(s.dimension for s in self.spaces)
        if coeffs.shape == dims:
            coeffs = coeffs[..., None]
        if coeffs.ndim != len(dims) + 1 or coeffs.shape[: len(dims)] != dims:
            raise ValueError(f"coefficient shape {coeffs.shape} incompatible with {dims}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("spline coefficients are not finite")
        self.coeffs = coeffs

    @property
    def d(self) -> int:
        return len(self.spaces)

    @property
    def m(self) -> int:
        return self.coeffs.shape[-1]

    def eval_many(self, points) -> np.ndarray:
        """Evaluate at points given as an (n, d) array; returns (n, m)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.d == 1 else pts[None, :]
        if pts.shape[1] != self.d:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {self.d}")
        flat, w = _point_basis(self.spaces, pts)
        coeffs = self.coeffs.reshape(-1, self.m)
        out = np.zeros((len(pts), self.m))
        for r in range(len(w)):
            out += w[r, :, None] * coeffs[flat[r]]
        return out

    def eval_grid(self, axis_points) -> np.ndarray:
        """Evaluate on the tensor grid of per-axis points; returns (n_1, ..., n_d, m)."""
        if len(axis_points) != self.d:
            raise ValueError(f"got points for {len(axis_points)} axes, expected {self.d}")
        ops = []
        for space, xs in zip(self.spaces, axis_points):
            first, vals = space.eval_basis_many(np.ravel(xs))
            ops.append(partial(_collocate, first, vals))
        return mode_apply(self.coeffs, ops)


def as_value_array(out, base_shape, where: str = "function") -> np.ndarray:
    """Normalize a callable's output to shape base_shape + (m,); reject NaN and inf."""
    out = _shaped_values(out, base_shape, where)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{where} returned non-finite values")
    return out


def _shaped_values(out, base_shape, where: str) -> np.ndarray:
    """as_value_array without the finiteness check, for values that a quadrature checks."""
    out = np.asarray(out, dtype=float)
    base_shape = tuple(base_shape)
    if out.shape == base_shape:
        out = out[..., None]
    elif out.ndim != len(base_shape) + 1 or out.shape[:-1] != base_shape:
        raise ValueError(
            f"{where} returned shape {out.shape}, expected {base_shape} or {base_shape} + (m,)"
        )
    return out
