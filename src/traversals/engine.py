"""Executing traversal definitions: enumeration, location, squaring.

All three follow one integer table compiled from the rule
(:class:`_Table`).  A state is the running transform, a
:class:`~.notation.SignedPermutation` whose ``reverse`` flag is the
direction, interned to a small integer id the first time it is reached.
Its row lists, in visit order, each child's centre offset (the state
applied to the child's centre) and state id (the state composed with the
child's entry).  A rule's table is compiled once and kept on the rule
object (:func:`_table`), so repeated calls on one rule share its rows.
Enumeration walks the table depth first, down to blocks of the lowest
levels that are built once per state as per-axis columns (the most
levels whose block holds at most ``_BLOCK_MAX`` points); location
descends it one child per level, and squaring expands it one whole
level at a time down to depth d.  All arithmetic is
exact; the emitted points are integers on a lattice where one
lowest-level cell is two units wide, so cube-tile centres land on odd
coordinates in corner origin mode.  With ``cells`` the walk emits
0-based cell indices instead, from blocks of cell offsets, so no point
is converted after it is built; the squared path selects its coordinate
groups by the cells of such a walk.
"""

from __future__ import annotations

import functools
import itertools
import threading
from fractions import Fraction
from operator import add, eq, itemgetter, mul
from typing import Iterator

from .notation import Move, SignedPermutation, TraversalDefinition, Vector
from .notation import _Frozen, _lattice, _symmetries_mapping

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


class Path(_Frozen):
    """An enumerated traversal: integer points in visit order.

    ``cell_units`` is the width of one lowest-level cell on the point
    lattice (2 unless the rule has off-grid centres).  Frozen like a
    dataclass (see :class:`~.notation._Frozen`).
    """

    _fields = ("points", "dimension", "scale", "depth", "origin", "cell_units")
    points: tuple[tuple[int, ...], ...]
    dimension: int
    scale: int
    depth: int
    origin: str
    cell_units: int

    def __init__(self, points, dimension, scale, depth, origin, cell_units=2):
        self._set(points, dimension, scale, depth, origin, cell_units)

    def __len__(self) -> int:
        return len(self.points)

    def cell_indices(self) -> tuple[tuple[int, ...], ...]:
        """Points converted to 0-based per-axis cell indices (corner origin)."""
        if self.origin != "corner":
            raise ValueError("cell indices are defined for corner-origin paths")
        return tuple(zip(*_cell_columns(self)))


def _cell_columns(path: Path) -> Iterator[list[int]]:
    """The cell coordinates of a held path, one column per axis and one
    entry per position: each point floor-divided by the cell width."""
    w = path.cell_units
    points = path.points
    for j in range(len(points[0]) if points else 0):
        yield [p[j] // w for p in points]


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
        # Per child: its centre padded for signed indices (axis k at k,
        # its negation at -k), a picker of its entry's signed indices, and
        # its reverse flag.
        self._kids = [
            (_signed(c), _picker(e.entries), e.reverse) for c, e in self.children
        ]
        self.states: list[SignedPermutation] = []
        self.rows: list = []  # by state id: the row, or None until reached
        self._ids: dict = {}  # (entries, reverse) -> state id
        self._offsets: dict = {}  # each child offset met, to itself
        self._lock = threading.Lock()
        self.root = self._intern((tuple(range(1, self.d + 1)), False))

    def _intern(self, key: tuple) -> int:
        i = self._ids.get(key)
        if i is None:
            with self._lock:
                i = self._ids.get(key)
                if i is None:
                    i = len(self.states)
                    self.states.append(SignedPermutation._of(*key))
                    self.rows.append(None)
                    self._ids[key] = i
        return i

    def row(self, i: int) -> list:
        """(centre offset at unit scale, state id) of each child of state
        ``i``, in visit order.

        A child's offset is the state applied to its centre, the centre's
        items at the signed indices of the state's inverse; its next state
        is the state composed with its entry, the state's items at the
        signed indices of the entry.
        """
        r = self.rows[i]
        if r is None:
            t = self.states[i]
            offset, entries = _picker(t.inverse().entries), _signed(t.entries)
            kids = self._kids[::-1] if t.reverse else self._kids
            intern, rev = self._intern, t.reverse
            offsets = [offset(c) for c, _, _ in kids]
            r = self.rows[i] = list(zip(
                map(self._offsets.setdefault, offsets, offsets),  # one tuple per offset
                [intern((pick(entries), rev ^ flip)) for _, pick, flip in kids],
            ))
        return r

    def descend(self, digits):
        """Centred-frame point (a list of d ints) and state id of the cell
        reached from the root.

        ``digits`` are the visit positions, top level first; the point
        is on the lattice where a cell of that level is ``2*m`` wide.
        The point is the sum over the L levels of each level's offset
        times ``s**(L-1)``, ..., ``s**0``, summed per axis over the top
        1 to ``_CHUNK`` levels, then over each further ``_CHUNK`` levels
        added by Horner's rule, so it holds O(L) ints at any depth.
        """
        i, rows, offsets = self.root, self.rows, []
        for k in digits:
            off, i = (rows[i] or self.row(i))[k]
            offsets.append(off)
        if not offsets:
            return [0] * self.d, i
        s, n = self.s, len(offsets)
        top = (n - 1) % _CHUNK + 1  # the levels above the full chunks
        powers = _powers(s, top)  # map stops at the shorter: the top levels only
        pos = [sum(map(mul, column, powers)) for column in zip(*offsets)]
        for k in range(top, n, _CHUNK):
            powers = _powers(s, _CHUNK)
            f = s * powers[0]
            chunk = zip(*offsets[k : k + _CHUNK])
            pos = [x * f + sum(map(mul, column, powers)) for x, column in zip(pos, chunk)]
        return pos, i


def _signed(v) -> tuple:
    """``v`` padded for signed 1-based indices: item ``k`` is ``v[k-1]``
    and item ``-k`` is ``-v[k-1]``."""
    return (0, *v, *[-x for x in reversed(v)])


def _picker(indices):
    """The function taking a sequence to the tuple of its items at
    ``indices``."""
    if len(indices) == 1:
        k = indices[0]
        return lambda v: (v[k],)
    return itemgetter(*indices)


# Levels summed at a time by _Table.descend: its weight tables hold at
# most _CHUNK powers, so the cache holds O(_CHUNK**2) bits at any depth.
_CHUNK = 64


@functools.lru_cache(maxsize=64)
def _powers(s: int, n: int) -> tuple[int, ...]:
    """``s**(n-1), ..., s, 1``: the weights of n levels of a descent."""
    return tuple([s**e for e in range(n - 1, -1, -1)])


def _require_int_depth(depth) -> None:
    """Refuse a depth that is not an ``int`` (a bool included): any other
    number would make inexact geometry or walk a depth it does not name."""
    if type(depth) is not int:
        raise ValueError(f"depth must be an int, got {depth!r}")


def _table(defn: TraversalDefinition) -> _Table:
    """The rule's compiled table, built on first use and kept on the rule
    object (outside its fields; see :mod:`.notation`)."""
    t = defn.__dict__.get("_table")
    if t is None:
        t = defn.__dict__["_table"] = _Table(defn)
    return t


# The walk expands the lowest levels under a node into one block of leaf
# offsets, built once per state as per-axis columns (see _columns): the
# most levels (at least one) whose block holds at most _BLOCK_MAX points.
# A rule with 8 children gets three levels (512 points), Peano at d = 3
# two (729).  The cap is there for rules with many states: a rule with 32
# children keeps one level, as its blocks over all its states (7 680 for
# Maehara at d = 5) would otherwise hold millions of points.  A rule with
# one child keeps one level too, as a further level adds no points.
_BLOCK_MAX = 729


def _columns(table: _Table, state: int, levels: int, below: list) -> tuple:
    """Per-axis columns of the leaf offsets ``levels`` levels under state
    ``state``, in visit order, on the lattice of the lowest level.

    A block is the blocks one level lower under the state's children,
    each shifted by the child's offset times ``s ** (levels - 1)``.  The
    lower blocks are kept in ``below[h]`` by state, for each height
    ``h < levels``; the block itself is the caller's to keep.
    """
    if levels == 0:
        return ((0,),) * table.d
    row = table.rows[state] or table.row(state)
    if levels == 1:
        return tuple(zip(*[off for off, _ in row]))
    f, lower = table.s ** (levels - 1), below[levels - 1]
    subs = []
    for off, child in row:
        sub = lower.get(child)
        if sub is None:
            sub = lower[child] = _columns(table, child, levels - 1, below)
        subs.append((off, sub))
    return tuple(
        tuple(itertools.chain.from_iterable(
            [map(add, itertools.repeat(f * off[a]), sub[a]) for off, sub in subs]
        ))
        for a in range(table.d)
    )


def cell_units(defn: TraversalDefinition) -> int:
    """Width of one lowest-level cell on the point lattice of the rule."""
    return 2 * _table(defn).m


def iter_path(
    defn: TraversalDefinition, depth: int, origin: str = "centre", *, cells: bool = False
) -> Iterator[tuple[int, ...]]:
    """Stream the lattice points of the traversal in visit order.

    ``origin`` translates the points as in :func:`generate_full_path`.
    With ``cells`` (corner origin only) each point is replaced by the
    0-based per-axis indices of its cell, ``x // cell_units(defn)``.
    The walk follows the rule's state table (see :class:`_Table`), whose
    rows are built the first time a state is met and kept with the rule.
    The lowest levels come from a block of leaf offsets per state, built
    once per call as per-axis columns from the blocks one level lower
    (:func:`_columns`), so a point costs one tuple addition, and memory
    stays O(depth) plus the rows and blocks of the states met.  A block
    spans the most levels whose block holds at most ``_BLOCK_MAX`` points
    (at least one level, at most the depth, and one level when the
    rule has one entry).  Cell blocks are kept per
    state and per residue of the block root modulo the cell width ``w``,
    since ``(base + x) // w == base // w + (base % w + x) // w``; this is
    exact for every rule, including those whose points are off the cell
    centres.
    The shift of ``origin`` is taken from the rule: ``first``/``last``
    descend through the first/last child, ``corner`` takes the per-axis
    minimum over the refinement levels.
    """
    _require_int_depth(depth)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if origin not in ORIGIN_MODES:
        raise ValueError(f"unknown origin mode {origin!r}")
    if cells and origin != "corner":
        raise ValueError("cell indices are defined for corner-origin paths")
    table = _table(defn)
    d, s, n, m, row = table.d, table.s, table.n, table.m, table.row
    w = 2 * m
    leaf_levels = min(depth, 1)
    while leaf_levels < depth and 1 < n and n ** (leaf_levels + 1) <= _BLOCK_MAX:
        leaf_levels += 1

    blocks: dict = {}  # by state, or with cells by (state, *root residues)
    below: list = [{} for _ in range(leaf_levels)]  # lower blocks, for _columns

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
        """The points, or with ``cells`` the cells, of the block at ``base``."""
        key = (state, *[x % w for x in base]) if cells else state
        cols = blocks.get(key)
        if cols is None:
            cols = _columns(table, state, leaf_levels, below)
            if cells:
                # the cell offsets from a root at these residues modulo w
                cols = tuple(tuple(map(w.__rfloordiv__, map(r.__add__, col))) for r, col in zip(key[1:], cols))
            blocks[key] = cols
        if cells:
            base = [x // w for x in base]
        return zip(*[map(add, itertools.repeat(x), col) for x, col in zip(base, cols)])

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
    _require_int_depth(depth)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if not isinstance(t, Fraction):
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

    # The digits of i, top level first.  Below the top _CHUNK digits, i
    # is cut from its low end into pieces of _CHUNK digits, the chunks of
    # _Table.descend, by divmod with D**_CHUNK, and each piece into digits
    # by divmod with D: each division of the long index takes _CHUNK
    # digits off it, where one per digit would make the time grow with
    # the square of the depth.
    digits = [0] * depth
    end = depth
    while end > _CHUNK:
        i, piece = divmod(i, D**_CHUNK)
        for e in range(end - 1, end - _CHUNK - 1, -1):
            piece, digits[e] = divmod(piece, D)
        end -= _CHUNK
    for e in range(end - 1, -1, -1):
        i, digits[e] = divmod(i, D)
    table = _table(defn)
    pos, _ = table.descend(digits)
    unit = 2 * table.m * defn.scale**depth
    return tuple(Fraction(x, unit) for x in pos)


def _require_cubic(defn: TraversalDefinition) -> None:
    if not defn.fills_cube:
        raise NotCubicError("this operation needs a cube-filling rule")


def iter_squared_path(
    defn: TraversalDefinition, depth: int, *, cells: bool = False
) -> Iterator[tuple[int, ...]]:
    """Stream the points of :func:`squared_path` in visit order.

    The depth-``depth`` path is held in memory (one point per cell of a
    coordinate axis of the square, or its cell indices with ``cells``);
    the depth ``d * depth`` path that selects from it is walked in cell
    indices and streamed.
    """
    _require_int_depth(depth)
    _require_cubic(defn)
    if depth < 1:
        raise ValueError("squared paths need depth >= 1")
    xs = tuple(iter_path(defn, depth, "corner", cells=cells))
    for cell in iter_path(defn, defn.dimension * depth, "corner", cells=True):
        yield sum(map(xs.__getitem__, cell), ())


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
    pts2 = tuple(iter_path(defn, 2))
    pts3 = None
    for cand in _symmetries_mapping(defn.dimension, pts2, pts2[::-1]):
        if pts3 is None:
            pts3 = tuple(iter_path(defn, 3))
        if all(map(eq, map(cand.apply, pts3), reversed(pts3))):
            return cand
    return None


def squared_definition(defn: TraversalDefinition) -> TraversalDefinition:
    """Self-similar rule for the squared traversal, in d*d dimensions.

    Requires the rule to be symmetric (reversal-free after rewriting
    every reversed entry through the reversal symmetry σ).  Each entry of
    the result combines the accumulated depth-d transform with the
    first-level entries selected by the cell's coordinates.  The cells
    and transforms come from expanding the rule's own table one whole
    level at a time down to depth d (D + D² + … + D^d row reads), where a
    reversed state ``rot`` stands for the forward copy ``rot∘σ``.  Each
    move comes from integer cell differences on the table's lattice:
    axis k of coordinate group j steps by the difference of the group's
    first-level centres over the cell width ``2*m``.  The result is built
    from these derived parts unchecked (``TraversalDefinition._of``,
    ``SignedPermutation._of``, ``Move._of``).
    """
    _require_cubic(defn)
    sigma = find_reversal_symmetry(defn)
    if sigma is None:
        raise NotSymmetricError("the rule is not symmetric; squaring is not self-similar")
    d, s = defn.dimension, defn.scale
    D = len(defn.entries)
    centres, table = defn.centres, _table(defn)
    lattice = table.centres  # the first-level centres, cells 2*m wide
    w, corner = 2 * table.m, table.m * D  # D = s**d cells per axis at depth d

    # items[p, c]: coordinate group j's entry items when the state's
    # signed axis j is p and that axis selects first-level cell c.
    items = {}
    for c, e in enumerate(defn.entries):
        fwd = e.compose(sigma) if e.reverse else e
        for a in range(1, d + 1):
            base = (a - 1) * d
            for p, low in ((a, fwd), (-a, fwd.compose(sigma))):
                items[p, c] = [base + b if b > 0 else b - base for b in low.entries]

    level = [((0,) * d, table.root)]
    for _ in range(d):
        level = [
            ([x * s + o for x, o in zip(pos, off)], child)
            for pos, i in level
            for off, child in table.row(i)
        ]

    forward: dict = {}  # state id -> entries of its forward copy
    group_steps: dict = {}  # (group, previous cell, cell) -> the group's steps
    sq_entries: list[SignedPermutation] = []
    sq_centres: list[Vector] = []
    sq_moves: list[Move] = []
    prev = None
    for pos, i in level:
        x = [(v + corner) // w for v in pos]  # 0-based cells
        acc = forward.get(i)
        if acc is None:
            state = table.states[i]
            acc = forward[i] = (state.compose(sigma) if state.reverse else state).entries
        ent = []
        for p in acc:
            ent += items[p, x[abs(p) - 1]]
        sq_entries.append(SignedPermutation._of(tuple(ent), False))
        sq_centres.append(tuple(itertools.chain.from_iterable(map(centres.__getitem__, x))))
        if prev is not None:
            steps = []  # ascending axes, one sign per axis: canonical
            for j, a, b in zip(range(d), prev, x):
                if a == b:
                    continue
                g = group_steps.get((j, a, b))
                if g is None:
                    g = group_steps[j, a, b] = []
                    for k, (u, v) in enumerate(zip(lattice[a], lattice[b]), j * d + 1):
                        n = (v - u) // w
                        g += [k if n > 0 else -k] * abs(n)
                steps += g
            sq_moves.append(Move._of(tuple(steps)))
        prev = x
    return TraversalDefinition._of(
        d * d, s, tuple(sq_entries), tuple(sq_moves), s, tuple(sq_centres)
    )
