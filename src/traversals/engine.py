"""Executing traversal definitions: enumeration, location, squaring.

All three follow one integer table compiled from the rule
(:class:`_Table`).  A state is the running transform, a
:class:`~.notation.SignedPermutation` whose ``reverse`` flag is the
direction, interned to a small integer id the first time it is reached.
Its row lists, in visit order, each child's centre offset (the state
applied to the child's centre) and state id (the state composed with the
child's entry).  A rule's table is compiled once and kept on the rule
object (:func:`_table`), so repeated calls on one rule share its rows.
Enumeration walks the table depth first; location and squaring descend
it one child per level.  All arithmetic is exact; the emitted points are
integers on a lattice where one lowest-level cell is two units wide, so
cube-tile centres land on odd coordinates in corner origin mode.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterator

from .notation import SignedPermutation, TraversalDefinition, Vector
from .notation import _cube_symmetries, _lattice

__all__ = [
    "Path",
    "NotCubicError",
    "NotSymmetricError",
    "ORIGIN_MODES",
    "cell_units",
    "iter_path",
    "iter_squared_path",
    "generate_path",
    "generate_full_path",
    "locate",
    "squared_path",
    "find_reversal_symmetry",
    "squared_definition",
]

ORIGIN_MODES = ("centre", "corner", "first", "last")


class NotCubicError(ValueError):
    """The operation needs a rule that fills the full cube grid."""


class NotSymmetricError(ValueError):
    """The rule has no reversal symmetry, so its square is not self-similar."""


@dataclass(frozen=True)
class Path:
    """An enumerated traversal: integer points in visit order.

    ``cell_units`` is the width of one lowest-level cell on the point
    lattice (2 unless the rule has off-grid centres).
    """

    points: tuple[tuple[int, ...], ...]
    dimension: int
    scale: int
    depth: int
    origin: str
    cell_units: int = 2

    def __len__(self) -> int:
        return len(self.points)

    def cell_indices(self) -> tuple[tuple[int, ...], ...]:
        """Points converted to 0-based per-axis cell indices (corner origin)."""
        if self.origin != "corner":
            raise ValueError("cell indices are defined for corner-origin paths")
        w = self.cell_units
        return tuple(tuple(x // w for x in p) for p in self.points)


class _Table:
    """A rule compiled to integers: the state table every descent follows.

    A state is a :class:`SignedPermutation` whose ``reverse`` flag is the
    direction; ``states[i]`` is the state with id ``i`` and the root, the
    identity, has id 0.  ``row(i)`` lists, for each child in visit order,
    its centre offset on the rule's lattice (a first-level cell is
    ``2 * m`` wide) and its state id; rows are built when a state is
    first reached.
    """

    def __init__(self, defn: TraversalDefinition):
        self.d, self.s, self.n = defn.dimension, defn.scale, len(defn.entries)
        unit, self.centres = _lattice(2 * self.s, defn.centres)
        self.m = unit // (2 * self.s)
        self.children = list(zip(self.centres, defn.entries))
        self.states: list[SignedPermutation] = []
        self.rows: list = []  # by state id: the row, or None until reached
        self._ids: dict = {}
        self._lock = threading.Lock()
        self.root = self._intern(SignedPermutation.identity(self.d))

    def _intern(self, state: SignedPermutation) -> int:
        i = self._ids.get(state)
        if i is None:
            with self._lock:
                i = self._ids.get(state)
                if i is None:
                    i = len(self.states)
                    self.states.append(state)
                    self.rows.append(None)
                    self._ids[state] = i
        return i

    def row(self, i: int) -> list:
        """(centre offset at unit scale, state id) of each child of state
        ``i``, in visit order."""
        r = self.rows[i]
        if r is None:
            t = self.states[i]
            kids = self.children[::-1] if t.reverse else self.children
            r = self.rows[i] = [(t.apply(c), self._intern(t.compose(e))) for c, e in kids]
        return r

    def descend(self, digits):
        """Centred-frame point (a list of d ints) and state id of the cell
        reached from the root.

        ``digits`` are the visit positions, top level first; the point
        is on the lattice where a cell of that level is ``2*m`` wide.
        The descent collects the offset of each of the L levels and sums
        each axis once: the point is the sum over levels of the offset
        times ``s**(L-1)``, ..., ``s**0``.
        """
        i, rows, offsets = self.root, self.rows, []
        for k in digits:
            off, i = (rows[i] or self.row(i))[k]
            offsets.append(off)
        if not offsets:
            return [0] * self.d, i
        powers = _powers(self.s, len(offsets))
        return [sum(map(mul, column, powers)) for column in zip(*offsets)], i


@functools.lru_cache(maxsize=64)
def _powers(s: int, n: int) -> tuple[int, ...]:
    """``s**(n-1), ..., s, 1``: the weights of the levels of an n-level descent."""
    return tuple([s**e for e in range(n - 1, -1, -1)])


def _table(defn: TraversalDefinition) -> _Table:
    """The rule's compiled table, built on first use and kept on the rule
    object (outside its fields; see :mod:`.notation`)."""
    t = defn.__dict__.get("_table")
    if t is None:
        t = defn.__dict__["_table"] = _Table(defn)
    return t


# The walk expands the lowest levels under a node into one block of at
# most this many leaf offsets (at least one level), built once per state.
_BLOCK_POINTS = 64


def cell_units(defn: TraversalDefinition) -> int:
    """Width of one lowest-level cell on the point lattice of the rule."""
    return 2 * _table(defn).m


def iter_path(
    defn: TraversalDefinition, depth: int, origin: str = "centre"
) -> Iterator[tuple[int, ...]]:
    """Stream the lattice points of the traversal in visit order.

    ``origin`` translates the points as in :func:`generate_full_path`.
    The walk follows the rule's state table (see :class:`_Table`), whose
    rows are built the first time a state is met and kept with the rule.
    The lowest levels come from a block of leaf offsets per state, built
    once per call, so a point costs one tuple addition, and memory stays
    O(depth) plus the rows of the states met.
    The shift of ``origin`` is taken from the rule: ``first``/``last``
    descend through the first/last child, ``corner`` takes the per-axis
    minimum over the refinement levels.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if origin not in ORIGIN_MODES:
        raise ValueError(f"unknown origin mode {origin!r}")
    table = _table(defn)
    d, s, n, m, row = table.d, table.s, table.n, table.m, table.row
    blocks: dict = {}

    leaf_levels = min(depth, 1)
    while leaf_levels < depth and n ** (leaf_levels + 1) <= _BLOCK_POINTS:
        leaf_levels += 1

    def block(state):
        """Per-axis columns of the leaf offsets under a block root."""
        b = blocks.get(state)
        if b is None:
            pts = [((0,) * d, state)]
            for level in range(leaf_levels, 0, -1):
                f = s ** (level - 1)
                pts = [
                    (tuple(x + f * o for x, o in zip(c, off)), child)
                    for c, st in pts
                    for off, child in row(st)
                ]
            b = blocks[state] = tuple(zip(*(c for c, _ in pts)))
        return b

    if origin == "corner":
        # Per-axis extremes of the subtree of height e in the root frame;
        # a child's subtree is the one of height e - 1 under its entry.
        lo = hi = (0,) * d
        for e in range(depth):
            f = s**e
            lows, highs = [], []
            for c, entry in table.children:
                a, b = entry.apply(lo), entry.apply(hi)
                lows.append([f * x + min(u, v) for x, u, v in zip(c, a, b)])
                highs.append([f * x + max(u, v) for x, u, v in zip(c, a, b)])
            lo = tuple(map(min, zip(*lows)))
            hi = tuple(map(max, zip(*highs)))
        start = tuple(m - x for x in lo)
    elif origin == "centre":
        start = (0,) * d
    else:
        k = 0 if origin == "first" else n - 1
        start = tuple(-x for x in table.descend([k] * depth)[0])

    def emit(base, state):
        return zip(*[map(add, itertools.repeat(x), col) for x, col in zip(base, block(state))])

    # The walk starts one frame above the root, whose only child is the
    # root, so a path of one leaf block is emitted like every other block.
    leaf_f = s**leaf_levels
    stack = [(iter([((0,) * d, table.root)]), start, s**depth)]
    while stack:
        children, base, f = stack[-1]
        for off, child in children:
            c = tuple(x + f * o for x, o in zip(base, off))
            if f == leaf_f:
                yield from emit(c, child)
            else:
                stack.append((iter(row(child)), c, f // s))
                break
        else:
            stack.pop()


def generate_path(defn: TraversalDefinition, depth: int) -> Path:
    """The traversal at the given refinement depth, centred on the origin."""
    points = tuple(iter_path(defn, depth))
    return Path(points, defn.dimension, defn.scale, depth, "centre", cell_units(defn))


def generate_full_path(
    defn: TraversalDefinition, depth: int, origin: str = "corner"
) -> Path:
    """Enumerate the path translated according to the origin mode.

    ``corner`` puts the lexicographically smallest corner of the tile
    bounding box at the origin, ``first``/``last`` the first/last point,
    and ``centre`` leaves the exact centred frame untouched.
    """
    points = tuple(iter_path(defn, depth, origin))
    return Path(points, defn.dimension, defn.scale, depth, origin, cell_units(defn))


def locate(
    defn: TraversalDefinition,
    t: Fraction,
    depth: int,
    side: str = "plus",
) -> Vector:
    """Exact centre of the depth-level cell whose parameter segment holds t.

    ``side='plus'`` breaks ties towards later cells (t in [0,1)),
    ``side='minus'`` towards earlier cells (t in (0,1]).  Follows the
    base-D digits of the cell index down the rule's state table: O(depth)
    row lookups, no enumeration.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    D = len(defn.entries)
    N = D**depth
    if side == "plus":
        if not 0 <= p < q:
            raise ValueError("plus side needs t in [0, 1)")
        i = p * N // q
    elif side == "minus":
        if not 0 < p <= q:
            raise ValueError("minus side needs t in (0, 1]")
        i = -(-p * N // q) - 1
    else:
        raise ValueError("side must be 'plus' or 'minus'")

    digits = [0] * depth
    for e in range(depth - 1, -1, -1):
        i, digits[e] = divmod(i, D)
    table = _table(defn)
    pos, _ = table.descend(digits)
    unit = 2 * table.m * defn.scale**depth
    return tuple(Fraction(x, unit) for x in pos)


def _require_cubic(defn: TraversalDefinition) -> None:
    if not defn.fills_cube:
        raise NotCubicError("this operation needs a cube-filling rule")


def iter_squared_path(
    defn: TraversalDefinition, depth: int
) -> Iterator[tuple[int, ...]]:
    """Stream the points of :func:`squared_path` in visit order.

    The depth-``depth`` path is held in memory (one point per cell of a
    coordinate axis of the square); the depth ``d * depth`` path that
    selects from it is streamed.
    """
    _require_cubic(defn)
    if depth < 1:
        raise ValueError("squared paths need depth >= 1")
    w = cell_units(defn)
    xs = tuple(iter_path(defn, depth, "corner"))
    for qp in iter_path(defn, defn.dimension * depth, "corner"):
        yield tuple(itertools.chain.from_iterable([xs[x // w] for x in qp]))


def squared_path(defn: TraversalDefinition, depth: int) -> Path:
    """Apply the traversal to each coordinate of its own image.

    Produces the d*d-dimensional point sequence: the path at depth
    ``d * depth`` supplies, per point, d cell indices that each select a
    point of the depth-``depth`` path; the selected coordinate groups
    are concatenated.
    """
    points = tuple(iter_squared_path(defn, depth))
    d = defn.dimension
    return Path(points, d * d, defn.scale, depth, "corner", cell_units(defn))


def find_reversal_symmetry(
    defn: TraversalDefinition,
) -> SignedPermutation | None:
    """A cube symmetry mapping the traversal onto its own reverse.

    Returns a signed permutation sigma with ``sigma(path[k]) ==
    path[n-1-k]`` for every point of the depth-2 path (confirmed at
    depth 3), or None when no such symmetry exists.
    """
    _require_cubic(defn)
    d = defn.dimension
    pts2 = generate_path(defn, 2).points
    pts3 = None
    n = len(pts2)
    first, last = pts2[0], pts2[-1]
    for cand in _cube_symmetries(d):
        if cand.apply(first) != last:
            continue
        if all(cand.apply(pts2[k]) == pts2[n - 1 - k] for k in range(n)):
            if pts3 is None:
                pts3 = generate_path(defn, 3).points
            n3 = len(pts3)
            if all(
                cand.apply(pts3[k]) == pts3[n3 - 1 - k] for k in range(n3)
            ):
                return cand
    return None


def _plus_with_sign(base: int, b: int) -> int:
    return base + b if b > 0 else -(base - b)


def squared_definition(defn: TraversalDefinition) -> TraversalDefinition:
    """Self-similar rule for the squared traversal, in d*d dimensions.

    Requires the rule to be symmetric (reversal-free after rewriting
    every reversed entry through the reversal symmetry σ).  Each entry of
    the result combines the accumulated depth-d transform with the
    first-level entries selected by the cell's coordinates.  The cells
    and transforms come from a depth-d descent of the rule's own table,
    where a reversed state ``rot`` stands for the forward copy ``rot∘σ``.
    """
    _require_cubic(defn)
    sigma = find_reversal_symmetry(defn)
    if sigma is None:
        raise NotSymmetricError("the rule is not symmetric; squaring is not self-similar")
    d, s = defn.dimension, defn.scale
    D = len(defn.entries)
    forward = [e.compose(sigma) if e.reverse else e for e in defn.entries]
    low_sigma = [f.compose(sigma) for f in forward]
    centres = defn.centres
    table = _table(defn)
    w, corner = 2 * table.m, table.m * D  # D = s**d cells per axis at depth d

    sq_entries: list[SignedPermutation] = []
    sq_centres: list[Vector] = []
    for seq in itertools.product(range(D), repeat=d):
        pos, i = table.descend(seq)
        state = table.states[i]
        acc = (state.compose(sigma) if state.reverse else state).entries
        x = [(v + corner) // w for v in pos]  # 0-based cells
        ent = [0] * (d * d)
        for j in range(d):
            pj = acc[j]
            mcell = x[abs(pj) - 1]
            low = forward[mcell] if pj > 0 else low_sigma[mcell]
            base = (abs(pj) - 1) * d
            for j2 in range(d):
                ent[j * d + j2] = _plus_with_sign(base, low.entries[j2])
        sq_entries.append(SignedPermutation._of(tuple(ent)))
        cvec: list[Fraction] = []
        for j in range(d):
            cvec.extend(centres[x[j]])
        sq_centres.append(tuple(cvec))
    return TraversalDefinition.from_centres(sq_entries, sq_centres, scale=s)
