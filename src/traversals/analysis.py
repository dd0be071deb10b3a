"""Finite-depth verification of traversal properties.

Every check here works on enumerated paths (or definitions, enumerating
internally) and returns either raw numbers or a
:class:`PropertyReport` whose failing verdicts always carry a
reproducible witness.  "Touching" means sharing a (d-1)-facet
throughout; corner contact counts as a jump.

Tile paths over simplices may visit one bounding box several times;
component counting collapses all visits of a box onto one node, so the
audit follows the box geometry of the underlying tiling.  Section
component counts come from one offline sweep over the path (see
:class:`SectionAuditor`), exact for every section at
O((n·d + Q) log n) for n points and Q sections.  Section bounding
boxes come from a second offline sweep that keeps a monotonic minimum
and maximum stack per axis (see :func:`max_bbox_ratio`), exact at
O(n·d + Q·d log n).  Dominance is exact over all cell pairs: when the
first-visited cells fill their bounding box it is decided by comparing
each cell with its lower face-neighbours, O(m·d) for m cells; other
cell sets, and boxes that fail, go to a scan over all pairs in visit
order, which reports the first failing pair (see
:func:`check_dominance`).
"""

from __future__ import annotations

import array
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .engine import Path, generate_full_path
from .generators import gen_base_pattern
from .notation import TraversalDefinition, _cube_symmetries

KERNEL_BACKEND = "python"

__all__ = [
    "PropertyReport",
    "AdjacencyProfile",
    "SectionAuditor",
    "KERNEL_BACKEND",
    "check_base_pattern",
    "adjacency_profile",
    "component_count",
    "section_component_audit",
    "check_palindromic",
    "palindromic_on_cells",
    "check_dominance",
    "check_straight_jumping",
    "check_facet_order",
    "max_bbox_ratio",
    "check_well_folded_rank",
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check at one depth."""

    name: str
    kind: str
    dimension: int
    depth: int
    verdict: str  # 'holds' | 'fails' | 'inconclusive'
    witness: tuple = ()

    def line(self) -> str:
        parts = [self.name, self.kind or "-", str(self.dimension), str(self.depth), self.verdict]
        parts.extend(str(w) for w in self.witness)
        return " ".join(parts)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True)
class AdjacencyProfile:
    face_steps: int
    other_steps: int
    max_jump: Fraction  # Chebyshev distance in cell widths
    first_jump: tuple[int, int] | None = None


def check_base_pattern(defn: TraversalDefinition) -> str:
    """Classify the move list: 'G2', 'G3', 'ZigZag' or 'Other'."""
    d = defn.dimension
    moves = defn.moves
    if len(defn.entries) == 2**d:
        if moves == gen_base_pattern(2, d):
            return "G2"
        from .generators import _zigzag_pattern

        if moves == _zigzag_pattern(d):
            return "ZigZag"
    if len(defn.entries) == 3**d and moves == gen_base_pattern(3, d):
        return "G3"
    return "Other"


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


class SectionAuditor:
    """Prepared component-count queries over one path.

    Builds the cell table and face-adjacency structure once; each call
    to :meth:`counts` then answers all its sections in one offline sweep
    over the path positions.  Repeated visits to one cell collapse onto
    one node.
    """

    def __init__(self, path: Path):
        w = path.cell_units
        ids: dict[tuple[int, ...], int] = {}
        cell_of_pos = array.array("i")
        cells: list[tuple[int, ...]] = []
        for p in path.points:
            key = tuple(x // w for x in p)
            i = ids.get(key)
            if i is None:
                i = len(cells)
                ids[key] = i
                cells.append(key)
            cell_of_pos.append(i)
        indptr = array.array("i", [0])
        adj = array.array("i")
        for key in cells:
            for axis in range(len(key)):
                for delta in (-1, 1):
                    nb = ids.get(key[:axis] + (key[axis] + delta,) + key[axis + 1:])
                    if nb is not None:
                        adj.append(nb)
            indptr.append(len(adj))
        self.n_cells = len(cells)
        self._cell_of_pos = cell_of_pos
        self._indptr = indptr
        self._adj = adj
        self.length = len(path.points)

    def counts(self, sections: Iterable[tuple[int, int]]) -> array.array:
        a = array.array("i")
        b = array.array("i")
        for lo, hi in sections:
            if not 0 <= lo <= hi < self.length:
                raise ValueError(f"section ({lo}, {hi}) out of range")
            a.append(lo)
            b.append(hi)
        return _section_counts(self._cell_of_pos, self._indptr, self._adj, a, b)

    def count(self, a: int, b: int) -> int:
        return self.counts([(a, b)])[0]


def _section_counts(cell_of_pos, indptr, adj, sections_a, sections_b):
    """Component counts of the sections [a, b] by one sweep over b.

    The vertices are path positions.  Position b gets an edge to the
    previous visit of its cell and, for each face-adjacent cell visited
    since then, to that cell's last visit; an edge's weight is its lower
    end.  Within any section these edges connect the positions exactly
    as face adjacency connects their cells, with O(d) edges per position
    even on paths that revisit cells.  A link-cut tree (Sleator & Tarjan,
    1983) keeps F_b, a maximum spanning forest of the edges whose upper
    end is at most b.  The edges of F_b of weight >= a then span the
    section [a, b], which therefore has
    (b - a + 1) - #{e in F_b : weight(e) >= a} components; a Fenwick
    tree counts F_b's edges by weight.

    Each edge (q, b) costs at most two accesses.  Between two trees it
    is linked under q's node, with b's node everted first unless b has
    no edge yet.  Within one tree, q's node is everted and b's node
    accessed, so b's splay tree is the cycle's path and its least-key
    node the lightest edge e.  If e is lighter than q, e is cut out of
    that path; the part holding q's node keeps it as its root and e as
    its path parent, so e becomes the new edge by hanging under b's node,
    with no further evert.  The node fields live in Python lists, not
    arrays: a list read returns the int object it holds, where an array
    read boxes a new one, and the kernel does little else.
    """
    n = len(cell_of_pos)
    n_sections = len(sections_a)
    # sections bucketed by upper end, as one linked list per position
    first = array.array("i", [-1]) * n
    after = array.array("i", bytes(4 * n_sections))
    for s in range(n_sections):
        after[s] = first[sections_b[s]]
        first[sections_b[s]] = s

    # Link-cut tree: position p is node p + 1, forest edges take nodes
    # n + 1 .. 2n - 1, node 0 is null.  key is an edge's weight (n for
    # the other nodes); low[x] is the least-key node of x's splay
    # subtree; up is the splay parent or, at a splay root, the path
    # parent; flip marks a subtree whose left and right are swapped.
    size = 2 * n
    left = [0] * size
    right = [0] * size
    up = [0] * size
    flip = [0] * size
    key = [n] * size
    low = list(range(size))

    def splay(x):
        chain = [x]
        y = x
        p = up[y]
        while left[p] == y or right[p] == y:
            chain.append(p)
            y = p
            p = up[y]
        for y in reversed(chain):  # push pending flips down to x
            if flip[y]:
                l = left[y]
                r = right[y]
                left[y] = r
                right[y] = l
                flip[l] ^= 1
                flip[r] ^= 1
                flip[y] = 0
        while True:
            p = up[x]
            is_left = left[p] == x
            if not is_left and right[p] != x:
                break
            g = up[p]
            if left[g] == p:
                order = (p, x) if is_left else (x, x)  # zig-zig or zig-zag
            elif right[g] == p:
                order = (x, x) if is_left else (p, x)
            else:
                order = (x,)  # zig: p is the root
            for y in order:  # rotate y over its parent p
                p = up[y]
                g = up[p]
                if left[g] == p:
                    left[g] = y
                elif right[g] == p:
                    right[g] = y
                up[y] = g
                if left[p] == y:
                    c = right[y]
                    left[p] = c
                    right[y] = p
                else:
                    c = left[y]
                    right[p] = c
                    left[y] = p
                if c:
                    up[c] = p
                up[p] = y
                low[y] = low[p]  # y's subtree is p's old one
                m = p
                k = key[p]
                z = low[left[p]]
                if key[z] < k:
                    m = z
                    k = key[z]
                z = low[right[p]]
                if key[z] < k:
                    m = z
                low[p] = m

    def access(x):  # make root..x one splay tree, with x at its root
        last = 0
        y = x
        while y:
            splay(y)
            right[y] = last
            m = y
            k = key[y]
            z = low[left[y]]
            if key[z] < k:
                m = z
                k = key[z]
            z = low[last]
            if key[z] < k:
                m = z
            low[y] = m
            last = y
            y = up[y]
        splay(x)

    # union-find over positions: the components of F_b, which a swap of
    # one forest edge for another never changes
    comp = list(range(n))
    fenwick = [0] * (n + 1)  # forest edges by weight
    forest = 0
    spare = n + 1  # next unused edge node
    last_visit = array.array("i", [-1]) * (len(indptr) - 1)  # per cell
    out = array.array("i", bytes(4 * n_sections))
    for b in range(n):
        c = cell_of_pos[b]
        prev = last_visit[c]
        last_visit[c] = b
        lower = [prev] if prev >= 0 else []
        for k in range(indptr[c], indptr[c + 1]):
            q = last_visit[adj[k]]
            if q > prev:
                lower.append(q)
        v = b + 1
        single = True  # v has no edge yet
        for q in lower:
            u = q + 1
            r = q
            while comp[r] != r:
                comp[r] = r = comp[comp[r]]
            if r != b:  # b's root is b itself until its first edge
                comp[r] = b
                e = spare
                spare += 1
                forest += 1
                key[e] = q
                up[e] = u
                if not single:
                    access(v)
                    flip[v] ^= 1  # v becomes the root of its tree
                up[v] = e
                single = False
            else:
                access(u)
                flip[u] ^= 1  # u becomes the root of its tree
                access(v)  # the splay tree of v is now the path u..v
                e = low[v]
                w = key[e]
                if w >= q:
                    continue
                # Cut e out of the path.  Its left part keeps u as the
                # root of its tree and e as its path parent, so e becomes
                # the new edge by hanging under v.
                splay(e)
                up[right[e]] = 0
                left[e] = right[e] = 0
                key[e] = q
                low[e] = e
                up[e] = v
                i = w + 1
                while i <= n:
                    fenwick[i] -= 1
                    i += i & -i
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
    """``count`` sections (a, b), 0 <= a <= b < n, drawn from ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.randrange(n)
        b = rng.randrange(n)
        yield (a, b) if a <= b else (b, a)


def section_component_audit(
    path: Path, n_sections: int, seed: int
) -> tuple[int, int]:
    """Max and total component count over seeded random sections."""
    auditor = SectionAuditor(path)
    counts = auditor.counts(_seeded_sections(auditor.length, n_sections, seed))
    return max(counts), sum(counts)


def _facet_pairs(d: int):
    """Pairs of level-1 cells sharing a facet, as (low cell, axis)."""
    for low in range(2**d):
        bits = [(low >> j) & 1 for j in range(d)]
        for axis in range(d):
            if bits[axis] == 0:
                yield low, axis


def palindromic_on_cells(
    cells: Sequence[tuple[int, ...]], d: int, depth: int, *, kind=""
) -> PropertyReport:
    """Palindromicity of an explicit cell visit order (scale-2 cube).

    For each facet between two level-1 cells, the visit sequences of the
    depth-level cells touching the facet from either side must be exact
    reverses of each other, position by position across the facet.  One
    pass over ``cells`` builds all the facet sequences.
    """
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
    if defn.scale != 2 or not defn.fills_cube:
        raise ValueError("palindromicity is checked on scale-2 cube rules")
    path = generate_full_path(defn, depth, "corner")
    return palindromic_on_cells(
        path.cell_indices(), defn.dimension, depth, kind=kind
    )


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
    seen: dict[tuple[int, ...], int] = {}
    w = path.cell_units
    for k, p in enumerate(path.points):
        seen.setdefault(tuple(x // w for x in p), k)
    cells = list(seen)  # in visit order
    d = path.dimension
    if _box_dominance(cells):
        return PropertyReport("dominance", kind, d, path.depth, "holds")
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            a, b = cells[i], cells[j]
            # b visited after a; fails if b is dominated by a
            if all(x >= y for x, y in zip(a, b)) and a != b:
                return PropertyReport(
                    "dominance", kind, d, path.depth, "fails", (b, a)
                )
    return PropertyReport("dominance", kind, d, path.depth, "holds")


def _box_dominance(cells: Sequence[tuple[int, ...]]) -> bool:
    """True if ``cells`` (distinct, in visit order) exactly fill their
    bounding box and each one comes after its lower face-neighbours.

    Cells are numbered by their offset in the box, so the neighbour one
    step down axis j is ``stride`` places back and each test is one list
    read.
    """
    axes = []  # (lowest coordinate, stride) per axis
    volume = 1
    for coords in zip(*cells):
        lo = min(coords)
        axes.append((lo, volume))
        volume *= max(coords) - lo + 1
    if volume != len(cells):
        return False
    offsets = [0] * len(cells)
    visit = [0] * volume  # visit rank by box offset
    for t, c in enumerate(cells):
        i = 0
        for x, (lo, stride) in zip(c, axes):
            i += (x - lo) * stride
        offsets[t] = i
        visit[i] = t
    for t, c in enumerate(cells):
        i = offsets[t]
        for x, (lo, stride) in zip(c, axes):
            if lo < x and visit[i - stride] > t:
                return False
    return True


def check_straight_jumping(
    defn: TraversalDefinition, depth: int, *, kind: str = ""
) -> PropertyReport:
    """Consecutive cells must differ in exactly one coordinate axis."""
    path = generate_full_path(defn, depth, "corner")
    cells = path.cell_indices()
    for k in range(len(cells) - 1):
        changed = sum(1 for x, y in zip(cells[k], cells[k + 1]) if x != y)
        if changed != 1:
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
    if defn_dminus1.dimension != d - 1:
        raise ValueError("the comparison rule must have one dimension less")
    n_side = defn_d.scale**depth
    cells = generate_full_path(defn_d, depth, "corner").cell_indices()
    boundary = n_side - 1 if side > 0 else 0
    seq = [
        tuple(x for j, x in enumerate(c) if j != axis - 1)
        for c in cells
        if c[axis - 1] == boundary
    ]
    target = generate_full_path(defn_dminus1, depth, "corner").cell_indices()
    if len(seq) != len(target):
        return PropertyReport(
            "facet-order", kind, d, depth, "inconclusive", (axis, side)
        )

    def centred(c):  # odd lattice, symmetric about 0
        return tuple(2 * x - (n_side - 1) for x in c)

    seq_c = [centred(c) for c in seq]
    tgt_c = [centred(c) for c in target]
    for g in _cube_symmetries(d - 1):
        if g.apply(seq_c[0]) != tgt_c[0]:
            continue
        if all(g.apply(a) == b for a, b in zip(seq_c, tgt_c)):
            return PropertyReport("facet-order", kind, d, depth, "holds")
    return PropertyReport("facet-order", kind, d, depth, "fails", (axis, side))


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
    rational result.
    """
    w = path.cell_units
    cells = [tuple(x // w for x in p) for p in path.points]
    n = len(cells)
    if max_section_count is None or n <= 512:
        return _max_bbox_ratio(cells, lambda b: range(b + 1))
    # sampled sections bucketed by upper end, as one linked list per position
    first = array.array("i", [-1]) * n
    after = array.array("i")
    lower = array.array("i")
    for a, b in _seeded_sections(n, max_section_count, seed):
        after.append(first[b])
        first[b] = len(lower)
        lower.append(a)

    def sampled(b):
        s = first[b]
        while s >= 0:
            yield lower[s]
            s = after[s]

    return _max_bbox_ratio(cells, sampled)


def _max_bbox_ratio(cells, lower_ends) -> Fraction:
    """Largest box volume / length over sections [a, b] of ``cells``.

    ``lower_ends(b)`` gives the lower ends a of the sections whose upper
    end is b.  Sweeps b along the path.  Per axis, two monotonic stacks
    hold the positions p <= b whose coordinate is below (above) every
    later one up to b; the box of [a, b] on that axis spans the
    coordinates at the first stacked positions >= a, found by bisection.
    O(n·d + Q·d log n) time and O(n·d) memory.  The best ratio is kept
    as an integer pair and compared by cross-multiplying.
    """
    axes = [(coords, array.array("i"), array.array("i")) for coords in zip(*cells)]
    best_vol, best_len = 0, 1
    for b in range(len(cells)):
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


def check_well_folded_rank(
    defn: TraversalDefinition, *, kind: str = ""
) -> PropertyReport:
    """First-level centres must follow the reflected-Gray rank law.

    For scale-2 cube rules: reading centre signs as bits (positive = 1,
    axis j is bit j-1) the i-th entry must encode gray(i-1).
    """
    from .bitmatrix import gray

    d = defn.dimension
    if defn.scale != 2:
        raise ValueError("the rank law applies to scale-2 rules")
    for i, c in enumerate(defn.centres):
        bits = 0
        for j, x in enumerate(c):
            if x > 0:
                bits |= 1 << j
        if bits != gray(i):
            return PropertyReport(
                "well-folded-rank", kind, d, 1, "fails", (i + 1, bits, gray(i))
            )
    return PropertyReport("well-folded-rank", kind, d, 1, "holds")
