"""The property checks that take a rule.

:mod:`.analysis` resolves these names on first use (PEP 562).  Two read
only the rule's first level: the base pattern of its moves and the
reflected-Gray rank law.  The others read the walk as a stream
(``iter_path(..., "corner", cells=True)``), so their memory does not
grow with the path: palindromicity, straight jumping and facet order
read its cells, and continuity its corner points, whose steps also show
offsets within a cell.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .analysis import PropertyReport
from .engine import _require_int_depth, cell_units, iter_path
from .generators import _pattern
from .notation import TraversalDefinition, _symmetries_mapping


def check_base_pattern(defn: TraversalDefinition) -> str:
    """Classify the move list: 'G2', 'G3', 'ZigZag' or 'Other'."""
    d = defn.dimension
    moves = defn.moves
    if len(defn.entries) == 2**d:
        for name in ("G2", "ZigZag"):
            if moves == _pattern(name, d)[0].moves:
                return name
    if len(defn.entries) == 3**d and moves == _pattern("G3", d)[0].moves:
        return "G3"
    return "Other"


def check_continuity(
    defn: TraversalDefinition, depth: int, *, kind: str = ""
) -> PropertyReport:
    """Every step of the corner-origin path must be a face step, as
    :func:`~.analysis.adjacency_profile` counts them.

    Reads the walk's points pairwise and stops at the first other step,
    whose positions are the witness of the failure.  It reads points, not
    cells: on a rule whose points sit off the cell centres, a step between
    face-neighbouring cells can be shorter or longer than one cell.
    """
    w = cell_units(defn)
    points = iter_path(defn, depth, "corner")
    for k, (a, b) in enumerate(itertools.pairwise(points)):
        if [abs(x - y) for x, y in zip(a, b) if x != y] != [w]:
            return PropertyReport(
                "continuity", kind, defn.dimension, depth, "fails", (k, k + 1)
            )
    return PropertyReport("continuity", kind, defn.dimension, depth, "holds")


def _facet_pairs(d: int):
    """Pairs of level-1 cells sharing a facet, as (low cell, axis)."""
    for low in range(2**d):
        bits = [(low >> j) & 1 for j in range(d)]
        for axis in range(d):
            if bits[axis] == 0:
                yield low, axis


def palindromic_on_cells(
    cells: Iterable[tuple[int, ...]], d: int, depth: int, *, kind=""
) -> PropertyReport:
    """Palindromicity of an explicit cell visit order (scale-2 cube).

    For each facet between two level-1 cells, the visit sequences of the
    depth-level cells touching the facet from either side must be exact
    reverses of each other, position by position across the facet.  One
    pass over ``cells`` (any iterable) builds all the facet sequences.
    Depth 0 has no level-1 cells to compare.
    """
    _require_int_depth(depth)
    if depth < 1:
        raise ValueError("palindromicity is checked at depth >= 1")
    half = 2**depth // 2  # cells per axis in one level-1 cell
    # facet_seqs[level1 * d + axis]: the cells of level-1 cell `level1`
    # on its facet across `axis` (coordinate half - 1 or half), in visit
    # order and with that axis projected out
    facet_seqs: list[list[tuple[int, ...]]] = [[] for _ in range(d << d)]
    for c in cells:
        level1 = 0
        for j in range(d):
            if c[j] >= half:
                level1 |= 1 << j
        for j in range(d):
            if c[j] == half - 1 or c[j] == half:
                facet_seqs[level1 * d + j].append(c[:j] + c[j + 1:])

    for low, axis in _facet_pairs(d):
        high = low | (1 << axis)
        sa = facet_seqs[low * d + axis]
        sb = facet_seqs[high * d + axis]
        if sa != sb[::-1]:
            # the first position where they differ; when one sequence is
            # a reversed prefix of the other, the end of the shorter one
            common = min(len(sa), len(sb))
            k = next(
                (k for k in range(common) if sa[k] != sb[len(sb) - 1 - k]), common
            )
            return PropertyReport(
                "palindromic", kind, d, depth, "fails", (low, high, axis + 1, k)
            )
    return PropertyReport("palindromic", kind, d, depth, "holds")


def check_palindromic(
    defn: TraversalDefinition, depth: int, *, kind: str = ""
) -> PropertyReport:
    """Palindromicity of the rule's depth-``depth`` path (see
    :func:`palindromic_on_cells`); depth 0 has no level-1 cells to compare."""
    _require_int_depth(depth)
    if depth < 1:
        raise ValueError("palindromicity is checked at depth >= 1")
    if defn.scale != 2 or not defn.fills_cube:
        raise ValueError("palindromicity is checked on scale-2 cube rules")
    cells = iter_path(defn, depth, "corner", cells=True)
    return palindromic_on_cells(cells, defn.dimension, depth, kind=kind)


def check_straight_jumping(
    defn: TraversalDefinition, depth: int, *, kind: str = ""
) -> PropertyReport:
    """Consecutive cells must differ in exactly one coordinate axis."""
    cells = iter_path(defn, depth, "corner", cells=True)
    for k, (a, b) in enumerate(itertools.pairwise(cells)):
        if sum(x != y for x, y in zip(a, b)) != 1:
            return PropertyReport(
                "straight-jumping", kind, defn.dimension, depth, "fails", (k, k + 1)
            )
    return PropertyReport("straight-jumping", kind, defn.dimension, depth, "holds")


def check_facet_order(
    defn_d: TraversalDefinition,
    defn_dminus1: TraversalDefinition,
    facet: tuple[int, int],
    depth: int,
    *,
    kind: str = "",
) -> PropertyReport:
    """Facet restriction must reproduce the lower-dimensional traversal.

    ``facet`` is (axis, side) with 1-based axis and side -1 (low) or +1
    (high).  The cells on that facet, in visit order and with the facet
    axis projected out, must equal the depth-level path of
    ``defn_dminus1`` under one cube symmetry, searched exhaustively.
    """
    axis, side = facet
    d = defn_d.dimension
    if type(axis) is not int or not 1 <= axis <= d:
        raise ValueError(f"facet axis {axis!r} must be an int in 1..{d}")
    if type(side) is not int or side not in (-1, 1):
        raise ValueError(f"facet side {side!r} must be -1 or +1")
    if defn_dminus1.dimension != d - 1:
        raise ValueError("the comparison rule must have one dimension less")
    _require_int_depth(depth)
    n_side = defn_d.scale**depth
    boundary = n_side - 1 if side > 0 else 0

    def centred(c):  # odd lattice, symmetric about 0
        return tuple(2 * x - (n_side - 1) for x in c)

    seq = [
        centred(x for j, x in enumerate(c) if j != axis - 1)
        for c in iter_path(defn_d, depth, "corner", cells=True)
        if c[axis - 1] == boundary
    ]
    target = [centred(c) for c in iter_path(defn_dminus1, depth, "corner", cells=True)]
    if len(seq) != len(target):
        return PropertyReport(
            "facet-order", kind, d, depth, "inconclusive", (axis, side)
        )
    if next(_symmetries_mapping(d - 1, seq, target), None) is None:
        return PropertyReport("facet-order", kind, d, depth, "fails", (axis, side))
    return PropertyReport("facet-order", kind, d, depth, "holds")


def check_well_folded_rank(
    defn: TraversalDefinition, *, kind: str = ""
) -> PropertyReport:
    """First-level centres must follow the reflected-Gray rank law.

    For scale-2 cube rules: reading centre signs as bits (positive = 1,
    axis j is bit j-1) the i-th entry must encode gray(i-1), the
    reflected binary Gray code ``(i-1) ^ ((i-1) >> 1)``.
    """
    d = defn.dimension
    if defn.scale != 2 or not defn.fills_cube:
        raise ValueError("the rank law applies to scale-2 cube rules")
    for i, c in enumerate(defn.centres):
        bits = 0
        for j, x in enumerate(c):
            if x > 0:
                bits |= 1 << j
        gray = i ^ (i >> 1)
        if bits != gray:
            return PropertyReport(
                "well-folded-rank", kind, d, 1, "fails", (i + 1, bits, gray)
            )
    return PropertyReport("well-folded-rank", kind, d, 1, "holds")
