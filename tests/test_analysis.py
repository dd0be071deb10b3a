"""Property checks against the claimed behaviour of each family."""

import array
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from traversals.analysis import (
    KERNEL_BACKEND,
    AdjacencyProfile,
    PropertyReport,
    SectionAuditor,
    _box_dominance,
    _seeded_sections,
    adjacency_profile,
    check_base_pattern,
    check_dominance,
    check_facet_order,
    check_palindromic,
    check_straight_jumping,
    check_well_folded_rank,
    component_count,
    max_bbox_ratio,
    palindromic_on_cells,
    section_component_audit,
)
from traversals.engine import Path, generate_full_path
from traversals.generators import (
    FIXED_NAMES,
    BetaUndefinedError,
    TraversalKind,
    builtin_fixed,
    gen_z,
    generate,
)


def path_of(kind, d, depth):
    return generate_full_path(generate(kind, d), depth, "corner")


def family_paths(origin="corner"):
    """Every family at d = 2 and d = 3, depths 0..3 (the scale-3 families
    at d = 3 to depth 2), then the five fixed curves at depths 1..2."""
    for d in (2, 3):
        for kind in TraversalKind:
            try:
                defn = generate(kind, d)
            except BetaUndefinedError:
                continue
            for depth in range(3 if defn.scale == 3 and d == 3 else 4):
                yield kind.value, generate_full_path(defn, depth, origin)
    for name in FIXED_NAMES:
        for depth in (1, 2):
            yield name, generate_full_path(builtin_fixed(name), depth, origin)


def cell_path(cells):
    """A path through explicit cells, one point unit per cell."""
    return Path(tuple(cells), len(cells[0]), 2, 1, "centre", 1)


# -- base pattern ------------------------------------------------------


def test_base_pattern_classification():
    assert check_base_pattern(generate("u", 4)) == "G2"
    assert check_base_pattern(generate("coil", 3)) == "G3"
    assert check_base_pattern(gen_z(3)) == "ZigZag"
    assert check_base_pattern(builtin_fixed("meander2d")) == "Other"
    assert check_base_pattern(generate("hill-z", 3)) == "Other"


# -- adjacency ---------------------------------------------------------


def test_butz_depth_three_has_no_jumps():
    assert adjacency_profile(path_of("butz", 3, 3)).other_steps == 0


def test_z_depth_two_jumps():
    prof = adjacency_profile(path_of("z", 2, 2))
    assert prof.other_steps > 0
    assert prof.max_jump > 1


def test_inside_out_jump_depth_threshold():
    assert adjacency_profile(path_of("inside-out", 3, 2)).other_steps == 0
    assert adjacency_profile(path_of("inside-out", 3, 3)).other_steps > 0


def test_face_steps_count_all_steps_for_continuous_curves():
    prof = adjacency_profile(path_of("harmonious", 2, 3))
    assert prof.face_steps == 4**3 - 1
    assert prof.max_jump == 1


def fraction_adjacency_profile(path: Path) -> AdjacencyProfile:
    """The profile with one Fraction per step, kept as its oracle."""
    pts = path.points
    w = path.cell_units
    face = other = 0
    max_jump = Fraction(0)
    first_jump = None
    for k in range(len(pts) - 1):
        a, b = pts[k], pts[k + 1]
        diffs = [abs(x - y) for x, y in zip(a, b)]
        max_jump = max(max_jump, Fraction(max(diffs), w))
        if max(diffs) == w and sum(1 for x in diffs if x) == 1:
            face += 1
        else:
            other += 1
            if first_jump is None:
                first_jump = (k, k + 1)
    return AdjacencyProfile(face, other, max_jump, first_jump)


def test_adjacency_profile_matches_fraction_oracle():
    for kind, p in family_paths():
        prof = adjacency_profile(p)
        assert prof == fraction_adjacency_profile(p), (kind, p.dimension, p.depth)
        assert isinstance(prof.max_jump, Fraction)


# -- components --------------------------------------------------------


def test_whole_path_is_one_component():
    for kind in ("z", "gray", "harmonious"):
        p = path_of(kind, 3, 2)
        assert component_count(p, 0, len(p.points) - 1) == 1


def test_single_cell_section():
    p = path_of("z", 3, 2)
    assert component_count(p, 5, 5) == 1


def test_z_sections_have_at_most_two_components():
    for d in (2, 3):
        p = path_of("z", d, 3)
        mx, _ = section_component_audit(p, 3000, seed=41)
        assert mx <= 2


def test_gray_sections_can_split_into_more_components():
    p = path_of("gray", 3, 3)
    mx, _ = section_component_audit(p, 3000, seed=41)
    assert mx > 2


def test_maehara_sections_at_most_two_components():
    p = generate_full_path(generate("maehara", 3), 3, "corner")
    mx, _ = section_component_audit(p, 3000, seed=17)
    assert mx <= 2


def test_auditor_counts_duplicate_cells_once():
    polya = generate_full_path(builtin_fixed("polya2d"), 1, "corner")
    auditor = SectionAuditor(polya)
    # positions 1 and 2 share one box
    assert auditor.count(1, 2) == 1


def union_find_counts(auditor, sections):
    """The stamped union-find the sweep replaced, kept as its oracle."""
    cell_of_pos = auditor._cell_of_pos
    indptr = auditor._indptr
    adj = auditor._adj
    sections_a = [a for a, _ in sections]
    sections_b = [b for _, b in sections]
    n_cells = auditor.n_cells
    parent = [0] * n_cells
    stamp = [-1] * n_cells
    out = array.array("i", bytes(4 * len(sections_a)))
    for sec in range(len(sections_a)):
        a = sections_a[sec]
        b = sections_b[sec]
        comps = 0
        for p in range(a, b + 1):
            c = cell_of_pos[p]
            if stamp[c] == sec:
                continue
            stamp[c] = sec
            parent[c] = c
            comps += 1
            for idx in range(indptr[c], indptr[c + 1]):
                nb = adj[idx]
                if stamp[nb] != sec:
                    continue
                r1 = c
                while parent[r1] != r1:
                    parent[r1] = parent[parent[r1]]
                    r1 = parent[r1]
                r2 = nb
                while parent[r2] != r2:
                    parent[r2] = parent[parent[r2]]
                    r2 = parent[r2]
                if r1 != r2:
                    parent[r1] = r2
                    comps -= 1
        out[sec] = comps
    return out


def test_section_sweep_matches_union_find():
    # every section of the multi-visit simplex paths and small cube paths
    exhaustive = [
        generate_full_path(builtin_fixed(name), 2, "corner")
        for name in ("polya2d", "sub8", "palindromic_tetra", "prism3d", "meander2d")
    ]
    exhaustive += [path_of("maehara", 2, 3), path_of("hill-z", 2, 3),
                   path_of("inside-out", 3, 2)]
    for p in exhaustive:
        auditor = SectionAuditor(p)
        n = auditor.length
        sections = [(a, b) for a in range(n) for b in range(a, n)]
        assert auditor.counts(sections) == union_find_counts(auditor, sections)
    # seeded sections of longer paths
    rng = random.Random(20240601)
    for kind in ("z", "gray", "maehara"):
        auditor = SectionAuditor(path_of(kind, 3, 3))
        n = auditor.length
        sections = [tuple(sorted((rng.randrange(n), rng.randrange(n))))
                    for _ in range(3000)]
        assert auditor.counts(sections) == union_find_counts(auditor, sections), kind


@st.composite
def walk_paths(draw):
    """Walks of up to 60 positions in d = 1..3: unit steps, which link
    positions, mixed with jumps, which leave gaps and return to visited
    cells; coordinates go negative."""
    d = draw(st.integers(1, 3))
    w = draw(st.integers(1, 3))
    box = st.tuples(*[st.integers(-3, 3)] * d)
    cell = draw(box)
    cells = [cell]
    for _ in range(draw(st.integers(0, 59))):
        if draw(st.integers(0, 3)):
            axis = draw(st.integers(0, d - 1))
            step = draw(st.sampled_from((-1, 1)))
            cell = cell[:axis] + (cell[axis] + step,) + cell[axis + 1:]
        else:
            cell = draw(st.sampled_from(cells) | box)
        cells.append(cell)
    points = tuple(tuple(x * w for x in c) for c in cells)
    return Path(points, d, 2, 1, "centre", w)


@settings(max_examples=60, deadline=None)
@given(walk_paths())
def test_section_sweep_matches_union_find_on_walks(p):
    auditor = SectionAuditor(p)
    n = auditor.length
    sections = [(a, b) for a in range(n) for b in range(a, n)]
    assert auditor.counts(sections) == union_find_counts(auditor, sections)


# -- palindromic --------------------------------------------------------


@pytest.mark.parametrize("kind", ["double-gray", "inside-out"])
@pytest.mark.parametrize("d", [2, 3])
def test_palindromic_families(kind, d):
    assert check_palindromic(generate(kind, d), 3).holds


def test_u_is_not_palindromic():
    report = check_palindromic(generate("u", 2), 2, kind="u")
    assert report.line() == "palindromic u 2 2 fails 0 1 1 0"


def test_harmonious_palindromic_witness():
    report = check_palindromic(generate("harmonious", 3), 4, kind="harmonious")
    assert report.line() == "palindromic harmonious 3 4 fails 0 2 2 0"


def test_palindromic_facet_sequences_of_unequal_length_fail():
    """A visit order that is not a permutation of the grid can leave the
    two sides of a facet with sequences of different lengths; the shorter
    one matching the longer one reversed is still a failure, witnessed at
    the end of the shorter one."""
    assert palindromic_on_cells([(0,), (1,), (1,)], 1, 1).line() == (
        "palindromic - 1 1 fails 0 1 1 1"
    )
    cells = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 1)]
    assert palindromic_on_cells(cells, 2, 1).line() == (
        "palindromic - 2 1 fails 0 2 2 1"
    )


# -- dominance ----------------------------------------------------------


def test_z_dominance_holds_exhaustively():
    assert check_dominance(path_of("z", 3, 2)).holds


def test_u_dominance_fails_with_witness():
    report = check_dominance(path_of("u", 2, 1))
    assert report.verdict == "fails"
    dominated, earlier = report.witness
    assert all(x <= y for x, y in zip(dominated, earlier))


def test_single_cell_dominance_vacuous():
    assert check_dominance(path_of("z", 2, 0)).holds


def scan_dominance(path: Path, *, kind: str = "") -> PropertyReport:
    """The scan over all cell pairs that the box test leads, kept as its
    oracle."""
    seen: dict[tuple[int, ...], int] = {}
    w = path.cell_units
    for k, p in enumerate(path.points):
        seen.setdefault(tuple(x // w for x in p), k)
    cells = sorted(seen, key=seen.get)  # visit order
    d = path.dimension
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            a, b = cells[i], cells[j]
            # b visited after a; fails if b is dominated by a
            if all(x >= y for x, y in zip(a, b)) and a != b:
                return PropertyReport(
                    "dominance", kind, d, path.depth, "fails", (b, a)
                )
    return PropertyReport("dominance", kind, d, path.depth, "holds")


def first_cells(path):
    seen = {}
    for p in path.points:
        seen.setdefault(tuple(x // path.cell_units for x in p), None)
    return list(seen)


def fills_box(cells):
    volume = 1
    for coords in zip(*cells):
        volume *= max(coords) - min(coords) + 1
    return volume == len(cells)


@pytest.mark.parametrize("origin", ["corner", "centre"])
def test_dominance_matches_pair_scan(origin):
    lowest = boxes = 0
    for kind, p in family_paths(origin):
        report = check_dominance(p, kind=kind)
        expected = scan_dominance(p, kind=kind)
        assert report.line() == expected.line(), (kind, p.dimension, p.depth)
        cells = first_cells(p)
        if fills_box(cells):  # the box test alone decides
            assert _box_dominance(cells) == expected.holds
            boxes += 1
        lowest = min(lowest, *map(min, cells))
    assert boxes >= 100
    assert (lowest < 0) == (origin == "centre")


@pytest.mark.parametrize("cells", [
    [(0, 0), (1, 0), (0, 1), (1, 1), (3, 0)],  # a gap: holds
    [(0, 0), (2, 0), (1, 0)],  # a gap filled late: fails
    [(0, 0), (1, 0), (0, 1)],  # an L: holds
    [(1, 0), (0, 0), (0, 1)],  # an L: fails
    [(1, 1), (0, 0)],  # two corners of a box: fails
    [(1, 1, 1), (0, 0, 0), (1, 0, 1), (0, 1, 0)],  # no box in 3-d: fails
    [(0, 0), (1, 0), (0, 0), (0, 1), (1, 1), (1, 0)],  # revisits: holds
    [(0, 1), (0, 0), (0, 1), (1, 1), (1, 0)],  # revisits: fails
    [(-1, -1), (-1, 0), (0, -1), (0, 0)],  # a box below zero: holds
    [(0, 0), (-1, 0), (0, -1), (-1, -1)],  # a box below zero: fails
    [(1, 0), (0, 0), (1, 1), (0, 1)],  # a box: fails
    [(2,), (0,), (1,)],  # a box: fails
    [(0,), (1,), (2,)],  # a box: holds
])
def test_dominance_on_hand_made_cells(cells):
    p = cell_path(cells)
    assert check_dominance(p).line() == scan_dominance(p).line()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-2, 1)] * d), min_size=1, max_size=20)))
def test_dominance_matches_pair_scan_on_cell_lists(cells):
    p = cell_path(cells)
    assert check_dominance(p).line() == scan_dominance(p).line()


@st.composite
def box_orders(draw):
    """The cells of a box of 1..3 cells per axis, possibly below zero, in
    lexicographic order (dominance holds) or shuffled (it mostly fails)."""
    d = draw(st.integers(1, 3))
    ranges = []
    for _ in range(d):
        lo = draw(st.integers(-2, 1))
        ranges.append(range(lo, lo + draw(st.integers(1, 3))))
    cells = list(itertools.product(*ranges))
    return cells if draw(st.booleans()) else draw(st.permutations(cells))


@settings(max_examples=150, deadline=None)
@given(box_orders())
def test_dominance_on_box_orders_gives_the_scan_witness(cells):
    p = cell_path(cells)
    report = check_dominance(p)
    assert report.line() == scan_dominance(p).line()
    assert _box_dominance(cells) == report.holds


def test_z_depth_four_dominance_holds():
    p = path_of("z", 3, 4)
    assert len(p.points) == 4096
    assert check_dominance(p).line() == "dominance - 3 4 holds"
    assert _box_dominance(first_cells(p))


# -- straight jumping ------------------------------------------------------


def test_gray_and_double_gray_straight_jump():
    assert check_straight_jumping(generate("gray", 3), 2).holds
    assert check_straight_jumping(generate("double-gray", 3), 2).holds


def test_z_is_not_straight_jumping():
    assert check_straight_jumping(gen_z(2), 2).verdict == "fails"


# -- facet orders ------------------------------------------------------------


def test_harmonious_facet_recursion_exception():
    h3, h2 = generate("harmonious", 3), generate("harmonious", 2)
    verdicts = {}
    for axis in (1, 2, 3):
        for side in (-1, 1):
            verdicts[(axis, side)] = check_facet_order(
                h3, h2, (axis, side), 3
            ).verdict
    assert verdicts[(1, 1)] == "fails"  # facet with midpoint (1/2, 0, 0)
    del verdicts[(1, 1)]
    assert set(verdicts.values()) == {"holds"}


def test_peano_family_facet_recursion_everywhere():
    for kind in ("peano", "coil", "half-coil", "meurthe"):
        d3, d2 = generate(kind, 3), generate(kind, 2)
        for axis in (1, 2, 3):
            for side in (-1, 1):
                assert check_facet_order(d3, d2, (axis, side), 2).holds, (
                    kind,
                    axis,
                    side,
                )


def test_z_facet_restriction_is_lower_dimensional_z():
    z3, z2 = gen_z(3), gen_z(2)
    assert check_facet_order(z3, z2, (1, -1), 2).holds


# -- bounding boxes ------------------------------------------------------------


def test_single_cell_ratio_is_one():
    p = path_of("alfa", 2, 0)
    assert max_bbox_ratio(p) == 1


def test_alfa_beta_bbox_bound():
    for kind in ("alfa", "beta"):
        p = path_of(kind, 3, 2)
        ratio = max_bbox_ratio(p, None)
        assert isinstance(ratio, Fraction)
        assert ratio <= 4, (kind, ratio)


def test_z_bbox_ratio_exceeds_bound():
    p = path_of("z", 3, 2)
    assert max_bbox_ratio(p, None) > 4


def point_scan_bbox_ratio(
    path: Path,
    max_section_count: int | None = 10000,
    seed: int = 0,
) -> Fraction:
    """The point-by-point scan the bbox sweep replaced, kept as its oracle."""
    w = path.cell_units
    cells = [tuple(x // w for x in p) for p in path.points]
    n = len(cells)
    d = path.dimension
    best = Fraction(0)
    if max_section_count is None or n <= 512:
        for a in range(n):
            lo = list(cells[a])
            hi = list(cells[a])
            for b in range(a, n):
                c = cells[b]
                for j in range(d):
                    if c[j] < lo[j]:
                        lo[j] = c[j]
                    elif c[j] > hi[j]:
                        hi[j] = c[j]
                vol = 1
                for j in range(d):
                    vol *= hi[j] - lo[j] + 1
                r = Fraction(vol, b - a + 1)
                if r > best:
                    best = r
    else:
        for a, b in _seeded_sections(n, max_section_count, seed):
            lo = list(cells[a])
            hi = list(cells[a])
            for k in range(a, b + 1):
                c = cells[k]
                for j in range(d):
                    if c[j] < lo[j]:
                        lo[j] = c[j]
                    elif c[j] > hi[j]:
                        hi[j] = c[j]
            vol = 1
            for j in range(d):
                vol *= hi[j] - lo[j] + 1
            r = Fraction(vol, b - a + 1)
            if r > best:
                best = r
    return best


def test_bbox_sweep_matches_point_scan():
    # every section: cube paths, simplex and fixed shapes that revisit boxes
    exhaustive = [path_of(kind, 3, 2) for kind in ("alfa", "beta", "z")]
    exhaustive += [path_of("z", 1, 5), path_of("maehara", 2, 3)]
    exhaustive += [generate_full_path(builtin_fixed(name), 2, "corner")
                   for name in ("polya2d", "meander2d")]
    for p in exhaustive:
        assert max_bbox_ratio(p, None) == point_scan_bbox_ratio(p, None)
    # the largest path checked exhaustively by default (512 points)
    p = path_of("z", 3, 3)
    assert len(p.points) == 512
    assert max_bbox_ratio(p) == point_scan_bbox_ratio(p)
    # seeded sections of longer paths
    for kind, d, depth in (("harmonious", 3, 4), ("maehara", 2, 5), ("peano", 2, 3)):
        p = path_of(kind, d, depth)
        assert len(p.points) > 512
        for seed in range(5):
            assert max_bbox_ratio(p, 300, seed) == point_scan_bbox_ratio(p, 300, seed), (
                kind, seed)


@st.composite
def synthetic_paths(draw):
    """Short paths with repeated cells and negative coordinates."""
    d = draw(st.integers(1, 3))
    w = draw(st.integers(1, 3))
    cells = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=40))
    points = tuple(
        tuple(x * w + draw(st.integers(0, w - 1)) for x in c) for c in cells
    )
    return Path(points, d, 2, 1, "centre", w)


@settings(max_examples=50)
@given(synthetic_paths())
def test_bbox_sweep_matches_point_scan_on_synthetic_paths(p):
    ratio = max_bbox_ratio(p, None)
    assert ratio == point_scan_bbox_ratio(p, None)
    assert isinstance(ratio, Fraction)


# -- well-folded rank law --------------------------------------------------------


def test_well_folded_rank_families():
    assert check_well_folded_rank(generate("harmonious", 5)).holds
    assert check_well_folded_rank(generate("u", 1)).holds
    assert check_well_folded_rank(gen_z(3)).verdict == "fails"


def test_well_folded_rank_law_for_every_g2_family():
    folded = ("u", "gray", "double-gray", "inside-out",
              "base-camp", "harmonious", "alfa", "butz")
    for kind in folded:
        for d in (1, 2, 3, 4, 5):
            assert check_well_folded_rank(generate(kind, d)).holds, (kind, d)
    for d in (3, 4, 5):
        assert check_well_folded_rank(generate("beta", d)).holds, d


def test_report_line_format():
    rep = check_well_folded_rank(generate("u", 3), kind="u")
    assert rep.line() == "well-folded-rank u 3 1 holds"


def test_backend_is_reported():
    assert KERNEL_BACKEND == "python"
