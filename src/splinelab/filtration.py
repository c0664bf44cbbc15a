"""Nested interval partitions of a box (a,b]^d and their atom lattice.

All atoms are half-open rectangles prod_l (lo_l, hi_l]; a point x belongs to an
atom iff lo < x <= hi componentwise.  A filtration is a sequence of partitions,
one per level, where every breakpoint of level n is also a breakpoint of level
n+1.  All axes are refined in lockstep, so a single level index addresses the
whole tensor grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

# refinement never creates an atom thinner than this fraction of |I|
MIN_WIDTH_FRACTION = 1e-9


def _require_int(name: str, value, least: int) -> int:
    """value as an int; fail closed unless it is an integer (numpy's too, bool not) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _is_finite_real(value) -> bool:
    """Whether value is a finite real number (numpy's too, bool not)."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating))
            and bool(np.isfinite(value)))


@dataclass(frozen=True)
class Interval:
    """Half-open interval (lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval: lo={self.lo} >= hi={self.hi}")


@dataclass(frozen=True)
class Rectangle:
    """Axis-parallel half-open rectangle prod_l (lo_l, hi_l]."""

    lo: tuple
    hi: tuple


class Partition1D:
    """Finite partition of (a, b] into atoms (t_{j-1}, t_j]."""

    def __init__(self, breakpoints):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0)):
            raise ValueError("breakpoints must be finite and strictly increasing")
        bp = bp.copy()
        bp.flags.writeable = False
        self.breakpoints = bp

    @property
    def n_atoms(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def interval(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def atom(self, j: int) -> Interval:
        if not 0 <= j < self.n_atoms:
            raise IndexError(f"atom index {j} out of range [0, {self.n_atoms})")
        return Interval(self.breakpoints[j], self.breakpoints[j + 1])

    def atom_index_of(self, x) -> np.ndarray:
        """Index of the atom (lo, hi] containing x; ValueError unless x is finite, in (a, b]."""
        x = np.asarray(x, dtype=float)
        bp = self.breakpoints
        # written so that NaN fails the test too
        if not np.all((x > bp[0]) & (x <= bp[-1])):
            raise ValueError(f"point outside ({bp[0]}, {bp[-1]}] or not finite")
        # searchsorted 'left': first index with bp[idx] >= x, so atom (bp[idx-1], bp[idx]]
        return np.searchsorted(bp, x, side="left") - 1

    def refines(self, coarser: "Partition1D") -> bool:
        """Whether every breakpoint of `coarser` is one of self's (both are sorted)."""
        fine = self.breakpoints
        at = np.minimum(np.searchsorted(fine, coarser.breakpoints), len(fine) - 1)
        return bool(np.array_equal(fine[at], coarser.breakpoints))

    def parent_map(self, coarser: "Partition1D") -> np.ndarray:
        """For each atom of self, the index of the atom of `coarser` containing it."""
        right = self.breakpoints[1:]
        return np.searchsorted(coarser.breakpoints, right, side="left") - 1

    def __eq__(self, other):
        return isinstance(other, Partition1D) and np.array_equal(
            self.breakpoints, other.breakpoints
        )

    def __repr__(self):
        return f"Partition1D({self.n_atoms} atoms on ({self.breakpoints[0]}, {self.breakpoints[-1]}])"


class Filtration1D:
    """Increasing sequence of partitions of one interval, levels n = 1..N."""

    def __init__(self, levels):
        levels = list(levels)
        if not levels:
            raise ValueError("need at least one level")
        for coarse, fine in zip(levels, levels[1:]):
            if not fine.refines(coarse):
                raise ValueError("levels are not nested")
        self.levels = tuple(levels)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def interval(self) -> Interval:
        return self.levels[0].interval

    def level(self, n: int) -> Partition1D:
        """Partition at level n (1-based, per the usual indexing of filtrations)."""
        if not 1 <= n <= self.n_levels:
            raise ValueError(f"level {n} outside [1, {self.n_levels}]")
        return self.levels[n - 1]


class TensorFiltration:
    """d-fold tensor product of per-axis filtrations, refined in lockstep."""

    def __init__(self, axes):
        axes = tuple(axes)
        if not axes:
            raise ValueError("need at least one axis")
        n = axes[0].n_levels
        if any(ax.n_levels != n for ax in axes):
            raise ValueError("all axes must share the same number of levels")
        self.axes = axes

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def n_levels(self) -> int:
        return self.axes[0].n_levels

    @property
    def interval(self) -> Interval:
        return self.axes[0].interval

    def level_shape(self, n: int) -> tuple:
        return tuple(ax.level(n).n_atoms for ax in self.axes)

    def atom_rectangle(self, n: int, index) -> Rectangle:
        los, his = [], []
        for ell, j in enumerate(index):
            iv = self.axes[ell].level(n).atom(int(j))
            los.append(float(iv.lo))
            his.append(float(iv.hi))
        return Rectangle(tuple(los), tuple(his))

    def atom_volumes(self, n: int) -> np.ndarray:
        """Tensor of atom volumes at level n, shape = level_shape(n)."""
        return reduce(np.multiply.outer, [ax.level(n).widths for ax in self.axes])

    def parent_maps(self, n: int, m: int) -> list:
        """Per axis, map from level-n atom index to the index of its level-m parent (m <= n)."""
        return [ax.level(n).parent_map(ax.level(m)) for ax in self.axes]


@dataclass(frozen=True)
class AtomSet:
    """A set of atom indices at one level."""

    level: int
    members: frozenset

    def __post_init__(self):
        for idx in self.members:
            if not isinstance(idx, tuple):
                raise ValueError("atom indices must be tuples")

    def __len__(self):
        return len(self.members)

    def mask(self, shape) -> np.ndarray:
        """Boolean tensor of the members over a level of the given shape.

        Raises ValueError for a member of the wrong arity or with an index
        outside 0..shape-1 on some axis, instead of letting numpy wrap a
        negative index or select a whole slice.
        """
        shape = tuple(shape)
        out = np.zeros(shape, dtype=bool)
        for idx in self.members:
            if len(idx) != len(shape) or not all(0 <= i < s for i, s in zip(idx, shape)):
                raise ValueError(f"atom index {idx} outside the level shape {shape}")
            out[idx] = True
        return out


# ---------------------------------------------------------------------------
# construction


def _choose_random(bp, widths, rule, rng):
    lo_f, hi_f = rule.get("split_range", (0.5, 0.5))
    chosen = rng.random(len(widths)) < float(rule.get("p_split", 0.7))
    if not chosen.any():
        chosen[int(np.argmax(widths))] = True
    return chosen, lo_f + (hi_f - lo_f) * rng.random(len(widths))


def _choose_target(bp, widths, rule, rng):
    chosen = np.zeros(len(widths), dtype=bool)
    j = int(np.searchsorted(bp, float(rule["target"]), side="left")) - 1
    chosen[min(max(j, 0), len(widths) - 1)] = True
    return chosen, float(rule.get("fraction", 0.5))


# refinement rules: the keys each must have and may have besides name, and its
# chooser(bp, widths, rule, rng), which returns a mask of the atoms to split in one
# step and the fraction of the width at which to split them, a scalar or one per atom
REFINEMENT_RULES = {
    "uniform-bisect-all": ((), ("base_atoms", "base_jitter"),
                           lambda bp, widths, rule, rng: (np.ones(len(widths), bool), 0.5)),
    "random-atom-bisect": ((), ("base_atoms", "base_jitter", "p_split", "split_range"),
                           _choose_random),
    "point-targeted": (("target",), ("base_atoms", "base_jitter", "fraction"), _choose_target),
    "frozen-on-subinterval": (("frozen",), ("fraction",), lambda bp, widths, rule, rng: (
        (bp[:-1] < rule["frozen"][0]) | (bp[1:] > rule["frozen"][1]),
        float(rule.get("fraction", 0.5)))),
}


@dataclass
class FiltrationSpec:
    """Everything needed to build a TensorFiltration reproducibly."""

    d: int
    interval: tuple
    n_levels: int
    rules: list = field(default_factory=lambda: [{"name": "uniform-bisect-all"}])
    seed: int = 0

    def __post_init__(self):
        self.d = _require_int("d", self.d, 1)
        self.n_levels = _require_int("n_levels", self.n_levels, 1)
        a, b = self.interval
        if not a < b:
            raise ValueError(f"invalid interval: lo={a} >= hi={b}")
        if isinstance(self.rules, dict):
            self.rules = [self.rules]
        if len(self.rules) == 1 and self.d > 1:
            self.rules = [dict(self.rules[0]) for _ in range(self.d)]
        if len(self.rules) != self.d:
            raise ValueError(f"need one rule per axis, got {len(self.rules)} for d={self.d}")
        for rule in self.rules:
            name = rule.get("name")
            if name not in REFINEMENT_RULES:
                raise ValueError(f"unknown rule {name!r}; expected one of {tuple(REFINEMENT_RULES)}")
            required, optional, _ = REFINEMENT_RULES[name]
            missing = set(required) - set(rule)
            if missing:
                raise ValueError(f"{name} rule needs keys {sorted(missing)}")
            unread = set(rule) - {"name", *required, *optional}
            if unread:
                raise ValueError(f"unknown {name} rule keys {sorted(unread)}")
            for key in ("target", "fraction", "p_split", "base_jitter"):
                if key in rule and not _is_finite_real(rule[key]):
                    raise ValueError(f"{name} rule key {key!r} must be a finite real, "
                                     f"got {rule[key]!r}")
            for key in ("frozen", "split_range"):
                pair = rule.get(key)
                if key in rule and not (isinstance(pair, (list, tuple, np.ndarray))
                                        and len(pair) == 2 and all(map(_is_finite_real, pair))):
                    raise ValueError(f"{name} rule key {key!r} must be a pair of finite reals, "
                                     f"got {pair!r}")


def _base_breakpoints(a, b, rule, rng):
    if rule["name"] == "frozen-on-subinterval":
        flo, fhi = rule["frozen"]
        if not (a <= flo < fhi <= b):
            raise ValueError(f"frozen interval ({flo}, {fhi}] not inside ({a}, {b}]")
        pts = sorted({a, flo, fhi, b})
        return np.array(pts, dtype=float)
    base_atoms = _require_int("base_atoms", rule.get("base_atoms", 1), 1)
    jitter = float(rule.get("base_jitter", 0.0))
    if not 0.0 <= jitter < 1.0:
        raise ValueError("base_jitter must lie in [0, 1)")
    if jitter > 0.0:
        w = 1.0 + jitter * (2.0 * rng.random(base_atoms) - 1.0)
        bp = np.concatenate([[0.0], np.cumsum(w)]) / w.sum()
        return a + (b - a) * bp
    return np.linspace(a, b, base_atoms + 1)


def _refine_once(bp, rule, rng, floor):
    """Split the atoms the rule chooses at lo + fraction * width, clamped to
    [lo + floor, hi - floor]; atoms narrower than 2 * floor stay whole."""
    lo, hi = bp[:-1], bp[1:]
    widths = hi - lo
    chosen, fraction = REFINEMENT_RULES[rule["name"]][2](bp, widths, rule, rng)
    split = chosen & (widths >= 2 * floor)
    lo, hi = lo[split], hi[split]
    points = np.minimum(np.maximum(lo + (fraction * widths)[split], lo + floor), hi - floor)
    return np.sort(np.concatenate([bp, points]))


def build_filtration(spec: FiltrationSpec) -> TensorFiltration:
    """Build the tensor filtration described by `spec`; deterministic given spec.seed."""
    a, b = float(spec.interval[0]), float(spec.interval[1])
    floor = MIN_WIDTH_FRACTION * (b - a)
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.d)
    axes = []
    for ell in range(spec.d):
        rng = np.random.default_rng(seeds[ell])
        rule = spec.rules[ell]
        bp = _base_breakpoints(a, b, rule, rng)
        levels = []
        for _ in range(spec.n_levels):
            bp = _refine_once(bp, rule, rng, floor)
            levels.append(Partition1D(bp))
        axes.append(Filtration1D(levels))
    return TensorFiltration(axes)


# ---------------------------------------------------------------------------
# queries


def atom_of(F: TensorFiltration, n: int, x):
    """The unique level-n atom containing x; returns (index tuple, Rectangle)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (F.d,):
        raise ValueError(f"point has wrong dimension: {x.shape} vs d={F.d}")
    index = tuple(int(F.axes[ell].level(n).atom_index_of(x[ell])) for ell in range(F.d))
    return index, F.atom_rectangle(n, index)


def atom_range_gap(bp: np.ndarray, atom, lo, hi):
    """Atom-index distance from `atom` to the range lo..hi (0 inside it), and the
    length of the smallest breakpoint interval covering both.  Arguments broadcast.
    """
    dist = np.maximum(lo - atom, 0) + np.maximum(atom - hi, 0)
    return dist, bp[np.maximum(hi, atom) + 1] - bp[np.minimum(lo, atom)]


def l1_distance_grid(shape, seeds) -> np.ndarray:
    """Tensor of l1 index distances to the nearest seed index (multi-source)."""
    big = int(np.sum(shape)) + 1
    dist = np.full(shape, big, dtype=np.int64)
    for idx in seeds:
        dist[tuple(idx)] = 0
    # two-pass min-plus transform per axis computes the exact separable l1 distance
    for ax in range(len(shape)):
        dist = np.ascontiguousarray(np.moveaxis(dist, ax, 0))
        flat = dist.reshape(dist.shape[0], -1)
        for p in range(1, flat.shape[0]):
            np.minimum(flat[p], flat[p - 1] + 1, out=flat[p])
        for p in range(flat.shape[0] - 2, -1, -1):
            np.minimum(flat[p], flat[p + 1] + 1, out=flat[p])
        dist = np.moveaxis(dist, 0, ax)
    return np.ascontiguousarray(dist)
