"""Squaring: a traversal applied to each coordinate of its own image.

:mod:`.engine` resolves these names on first use (PEP 562), so a process
that never squares never compiles this module.  The squared path selects
coordinate groups of a held walk by the cells of a deeper walk
(:func:`iter_squared_path`); the squared rule expands the rule's state
table (:class:`~.engine._Table`) one whole level at a time down to depth
d (:func:`squared_definition`).
"""

from __future__ import annotations

import itertools
from operator import eq
from typing import Iterator

from .engine import (
    NotCubicError,
    NotSymmetricError,
    Path,
    _require_int_depth,
    _table,
    cell_units,
    iter_path,
)
from .notation import Move, SignedPermutation, TraversalDefinition, Vector, _symmetries_mapping


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
