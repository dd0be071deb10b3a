"""The property checks that take a held :class:`~.engine.Path`.

:mod:`.analysis` resolves these names on first use (PEP 562).  The step
counts of :func:`adjacency_profile` read the path's points; dominance,
bounding boxes and section components read its cells, taken from one
conversion (:func:`~.engine._cell_columns`), and components and
dominance number them in one table (:class:`_CellTable`).  Section
component counts come from one offline sweep (see
:class:`SectionAuditor`), exact for every section, at
O((n + Q) log n) for n points and Q sections plus one walk of a
spanning-tree path for each of the O(n·d) edges between positions.
Section bounding boxes come from a second offline sweep over the cell
columns that keeps a monotonic minimum and maximum stack per axis (see
:func:`max_bbox_ratio`), exact at O(n·d + Q·d log n).  Dominance is
exact over all cell pairs: when the first-visited cells fill their
bounding box, each cell's number is compared with those of its lower
face-neighbours, O(m·d) for m cells; other cell sets, and boxes that
fail, go to a scan over all pairs in visit order, which reports the
first failing pair (see :func:`check_dominance`).

Tile paths over simplices may visit one bounding box several times;
component counting collapses all visits of a box onto one node, so the
audit follows the box geometry of the underlying tiling.
"""

from __future__ import annotations

import array
import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator

from .analysis import AdjacencyProfile, PropertyReport
from .engine import Path, _cell_columns


def adjacency_profile(path: Path) -> AdjacencyProfile:
    """Classify consecutive steps of a cube path.

    A step is a face step when exactly one axis changes by one cell
    width and all others are unchanged; everything else is a jump.
    ``max_jump`` is the largest Chebyshev distance in cell units.
    """
    pts = path.points
    w = path.cell_units
    face = other = 0
    widest = 0  # largest Chebyshev distance in point units
    first_jump = None
    for k in range(len(pts) - 1):
        a, b = pts[k], pts[k + 1]
        diffs = [abs(x - y) for x, y in zip(a, b)]
        step = max(diffs)
        if step > widest:
            widest = step
        if step == w and sum(1 for x in diffs if x) == 1:
            face += 1
        else:
            other += 1
            if first_jump is None:
                first_jump = (k, k + 1)
    return AdjacencyProfile(face, other, Fraction(widest, w), first_jump)


class _CellTable:
    """The cells of a held path, numbered.  A cell's key is its
    mixed-radix number, ``axes`` giving ``(stride, radix, lowest)`` per
    axis, each radix the width of the axis's range, so that any integer
    path has one key per cell; ``base`` is the key of the range box's
    lowest corner.
    ``keys`` holds each position's key and ``ids`` numbers the keys in
    first-visit order.  The columns are read one at a time, so that the
    checks that number cells never hold them all.
    """

    def __init__(self, path: Path):
        keys = [0] * len(path.points)
        self.axes = []
        stride = 1
        for col in _cell_columns(path):
            lo = min(col)
            radix = max(col) - lo + 1
            keys = [k + c * stride for k, c in zip(keys, col)]
            self.axes.append((stride, radix, lo))
            stride *= radix
        self.keys = keys
        self.base = sum(lo * stride for stride, _, lo in self.axes)
        self.ids = dict.fromkeys(keys)
        for i, k in enumerate(self.ids):
            self.ids[k] = i


class SectionAuditor:
    """Prepared component-count queries over one path.

    Builds the cell table and face-adjacency structure once; each call
    to :meth:`counts` then answers all its sections in one offline sweep
    over the path positions.  Repeated visits to one cell collapse onto
    one node.
    """

    def __init__(self, path: Path):
        table = _CellTable(path)
        ids, base, axes = table.ids, table.base, table.axes
        self._cell_of_pos = array.array("i", map(ids.__getitem__, table.keys))
        del table  # its keys, before the adjacency grows
        get = ids.get
        indptr = array.array("i", [0])
        adj = array.array("i")
        for k in ids:
            r = k - base
            for stride, radix, _ in axes:
                c = r // stride % radix
                if c:
                    nb = get(k - stride)
                    if nb is not None:
                        adj.append(nb)
                if c + 1 < radix:
                    nb = get(k + stride)
                    if nb is not None:
                        adj.append(nb)
            indptr.append(len(adj))
        self.n_cells = len(ids)
        self._indptr = indptr
        self._adj = adj
        self.length = len(path.points)

    def counts(self, sections: Iterable[tuple[int, int]]) -> array.array:
        a = array.array("i")
        b = array.array("i")
        for lo, hi in sections:
            if type(lo) is not int or type(hi) is not int:  # a bool included
                raise ValueError(f"section ({lo!r}, {hi!r}) has a bound that is not an int")
            if not 0 <= lo <= hi < self.length:
                raise ValueError(f"section ({lo}, {hi}) out of range")
            a.append(lo)
            b.append(hi)
        return _section_counts(self._cell_of_pos, self._indptr, self._adj, a, b)

    def count(self, a: int, b: int) -> int:
        return self.counts([(a, b)])[0]


def _by_upper_end(n: int, upper_ends: Iterable[int]):
    """Sections bucketed by upper end, one linked list per position: ``first[b]``
    is the last section ending at b and ``after[s]`` the one before s (-1: none)."""
    first = array.array("i", [-1]) * n
    after = array.array("i")
    for s, b in enumerate(upper_ends):
        after.append(first[b])
        first[b] = s
    return first, after


def _section_counts(cell_of_pos, indptr, adj, sections_a, sections_b):
    """Component counts of the sections [a, b] by one sweep over b.

    The vertices are path positions.  Position b gets an edge to the
    previous visit of its cell and, for each face-adjacent cell visited
    since then, to that cell's last visit; an edge's weight is its lower
    end.  Within any section these edges connect the positions exactly
    as face adjacency connects their cells, with O(d) edges per position
    even on paths that revisit cells.  A forest of parent pointers keeps
    F_b, a maximum spanning forest of the edges whose upper end is at
    most b.  The edges of F_b of weight >= a then span the section
    [a, b], which therefore has
    (b - a + 1) - #{e in F_b : weight(e) >= a} components; a Fenwick
    tree counts F_b's edges by weight.

    Each position p holds ``parent[p]`` (-1 at a root) and
    ``weight[p]``, the weight of its edge to its parent.  The root of
    each tree is its last position, which is also its root in a
    union-find over positions, so b is the root of its tree while its
    edges are added.  An edge (q, b) whose ends lie in two trees links
    them: q's tree is everted at q, by reversing the parent pointers
    from q to its root, and q hangs under b.  An edge within b's tree
    closes a cycle: the walk from q up to b finds the cycle's lightest
    edge, and if that is lighter than q it is cut, the part cut off is
    everted at q, and q hangs under b.  The cost is the union-find plus
    one walk of a tree path per edge, not O(log n): on every family and
    fixed curve of the paper the walks average 4.5-48 parent steps per
    position (d = 2 and 3), and on one-level serpentines 6-11; a path
    that spirals inwards ring by ring walks about a ring's length per
    position, about five times its side.
    """
    n = len(cell_of_pos)
    first, after = _by_upper_end(n, sections_b)
    parent = [-1] * n
    weight = [0] * n
    # union-find over positions: the components of F_b, which a swap of
    # one forest edge for another never changes
    comp = list(range(n))
    fenwick = [0] * (n + 1)  # forest edges by weight
    forest = 0
    last_visit = array.array("i", [-1]) * (len(indptr) - 1)  # per cell
    out = array.array("i", bytes(4 * len(sections_a)))
    for b in range(max(sections_b, default=-1) + 1):
        c = cell_of_pos[b]
        prev = last_visit[c]
        last_visit[c] = b
        lower = [prev] if prev >= 0 else []
        for k in range(indptr[c], indptr[c + 1]):
            q = last_visit[adj[k]]
            if q > prev:
                lower.append(q)
        for q in lower:
            r = q
            while comp[r] != r:
                comp[r] = r = comp[comp[r]]
            if r != b:  # r is the root of q's tree, as b is of b's
                comp[r] = b
                forest += 1
                top = r  # evert q's whole tree
            else:  # find the lightest edge of the cycle
                w = q
                top = -1
                x = q
                while x != b:
                    if weight[x] < w:
                        w = weight[x]
                        top = x
                    x = parent[x]
                if top < 0:
                    continue
                i = w + 1
                while i <= n:
                    fenwick[i] -= 1
                    i += i & -i
            # Reverse the pointers from q up to top, which drops top's
            # edge to its parent, and hang q under b.
            x = q
            p = parent[x]
            w = weight[x]
            while x != top:
                y = parent[p]
                v = weight[p]
                parent[p] = x
                weight[p] = w
                x = p
                p = y
                w = v
            parent[q] = b
            weight[q] = q
            i = q + 1
            while i <= n:
                fenwick[i] += 1
                i += i & -i
        s = first[b]
        while s >= 0:
            a = sections_a[s]
            count = b - a + 1 - forest
            i = a
            while i:
                count += fenwick[i]
                i -= i & -i
            out[s] = count
            s = after[s]
    return out


def component_count(path: Path, a: int, b: int) -> int:
    """Connected components of cells path[a..b] under face adjacency."""
    return SectionAuditor(path).count(a, b)


def _seeded_sections(n: int, count: int, seed: int) -> Iterator[tuple[int, int]]:
    """``count`` sections (a, b), 0 <= a <= b < n, drawn from ``seed``.

    Each end is drawn as ``Random.randrange(n)`` draws it, by rejection
    on ``getrandbits(n.bit_length())``, without its per-call checks.
    """
    if n < 1:
        raise ValueError("no section of an empty path")
    draw = random.Random(seed).getrandbits
    k = n.bit_length()
    for _ in range(count):
        a = draw(k)
        while a >= n:
            a = draw(k)
        b = draw(k)
        while b >= n:
            b = draw(k)
        yield (a, b) if a <= b else (b, a)


def section_component_audit(
    path: Path, n_sections: int, seed: int
) -> tuple[int, int]:
    """Max and total component count over seeded random sections.

    ``n_sections`` must be an ``int`` (not a bool) of at least 1.
    """
    if type(n_sections) is not int or n_sections < 1:
        raise ValueError(f"n_sections must be at least 1, got {n_sections!r}")
    auditor = SectionAuditor(path)
    counts = auditor.counts(_seeded_sections(auditor.length, n_sections, seed))
    return max(counts), sum(counts)


def check_dominance(path: Path, *, kind: str = "") -> PropertyReport:
    """Coordinate-wise domination must imply a later visit.

    Exact over all cell pairs; cells are taken at their first visit.
    When the cells exactly fill their bounding box, the product order on
    the box is generated by unit steps, so dominance holds iff every
    cell comes after each of its lower face-neighbours: O(m·d) for m
    cells.  Otherwise, or when that test fails, a scan over all pairs in
    visit order, O(m²), finds the first failing pair.  The witness of a
    failure is (dominated cell, earlier cell).
    """
    table = _CellTable(path)
    d = path.dimension
    if _box_dominance(table):
        return PropertyReport("dominance", kind, d, path.depth, "holds")
    ids, base, axes = table.ids, table.base, table.axes
    del table  # its keys, before the first-visit keys are decoded
    cells = [tuple((k - base) // stride % radix + lo for stride, radix, lo in axes) for k in ids]
    for i, a in enumerate(cells):
        for b in itertools.islice(cells, i + 1, None):
            # b visited after a; fails if b is dominated by a (cells are distinct)
            if all(x >= y for x, y in zip(a, b)):
                return PropertyReport("dominance", kind, d, path.depth, "fails", (b, a))
    return PropertyReport("dominance", kind, d, path.depth, "holds")


def _box_dominance(table: _CellTable) -> bool:
    """True if the cells of ``table`` exactly fill their bounding box and
    each one comes after its lower face-neighbours: in a filled box, the
    neighbour one step down axis j is the key ``stride`` below."""
    ids = table.ids
    return len(ids) == math.prod(radix for _, radix, _ in table.axes) and all(
        ids[k - stride] < i
        for k, i in ids.items()
        for stride, radix, _ in table.axes
        if (k - table.base) // stride % radix
    )


def max_bbox_ratio(
    path: Path,
    max_section_count: int | None = 10000,
    seed: int = 0,
) -> Fraction:
    """Worst bounding-box volume per visited cell over curve sections.

    All contiguous sections are checked when the path has at most 512
    points (or when ``max_section_count`` is None); longer paths are
    sampled with the seeded generator.  Both go through one offline
    sweep over the sections' upper ends (see :func:`_max_bbox_ratio`),
    O(n·d + Q·d log n) time for n points, d axes and Q sections.  Exact
    rational result.  ``max_section_count`` must be None or an ``int``
    (not a bool) of at least 1.
    """
    if max_section_count is not None and (type(max_section_count) is not int or max_section_count < 1):
        raise ValueError(
            f"max_section_count must be at least 1 or None, got {max_section_count!r}"
        )
    columns = list(_cell_columns(path))
    n = len(path.points)
    if max_section_count is None or n <= 512:
        return _max_bbox_ratio(columns, lambda b: range(b + 1))
    lower = array.array("i")
    upper = array.array("i")
    for a, b in _seeded_sections(n, max_section_count, seed):
        lower.append(a)
        upper.append(b)
    first, after = _by_upper_end(n, upper)

    def sampled(b):
        s = first[b]
        while s >= 0:
            yield lower[s]
            s = after[s]

    return _max_bbox_ratio(columns, sampled)


def _max_bbox_ratio(columns, lower_ends) -> Fraction:
    """Largest box volume / length over sections [a, b] of cell ``columns``.

    ``lower_ends(b)`` gives the lower ends a of the sections whose upper
    end is b.  Sweeps b along the path.  Per axis, two monotonic stacks
    hold the positions p <= b whose coordinate is below (above) every
    later one up to b; the box of [a, b] on that axis spans the
    coordinates at the first stacked positions >= a, found by bisection.
    O(n·d + Q·d log n) time and O(n·d) memory.  The best ratio is kept
    as an integer pair and compared by cross-multiplying.
    """
    axes = [(coords, array.array("i"), array.array("i")) for coords in columns]
    best_vol, best_len = 0, 1
    for b in range(len(columns[0]) if columns else 0):
        for coords, mins, maxs in axes:
            x = coords[b]
            while mins and coords[mins[-1]] >= x:
                mins.pop()
            mins.append(b)
            while maxs and coords[maxs[-1]] <= x:
                maxs.pop()
            maxs.append(b)
        for a in lower_ends(b):
            vol = 1
            for coords, mins, maxs in axes:
                vol *= (
                    coords[maxs[bisect_left(maxs, a)]]
                    - coords[mins[bisect_left(mins, a)]]
                    + 1
                )
            length = b - a + 1
            if vol * best_len > best_vol * length:
                best_vol, best_len = vol, length
    return Fraction(best_vol, best_len)
