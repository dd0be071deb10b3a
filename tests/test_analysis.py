"""Property checks against the claimed behaviour of each family."""

import array
import contextlib
import itertools
import random
import signal
from fractions import Fraction

try:
    import resource
except ImportError:  # not a POSIX platform
    resource = None

import pytest
from conftest import UNEVEN_RULES
from hypothesis import given, settings, strategies as st

from traversals import _path_checks, _rule_checks
from traversals._path_checks import _box_dominance, _CellTable, _seeded_sections
from traversals.analysis import (
    KERNEL_BACKEND,
    AdjacencyProfile,
    PropertyReport,
    SectionAuditor,
    adjacency_profile,
    check_base_pattern,
    check_continuity,
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
from traversals.engine import Path, generate_full_path, iter_path
from traversals.notation import parse_definition
from traversals.generators import (
    FIXED_NAMES,
    BetaUndefinedError,
    TraversalKind,
    builtin_fixed,
    gen_z,
    generate,
)


TEST_TIME_LIMIT_S = 60
TEST_MEMORY_MARGIN = 2**30  # bytes of address space a test may add


@pytest.fixture(autouse=True)
def bounded():
    """Fail a test that runs over ``TEST_TIME_LIMIT_S`` or grows the
    address space by more than ``TEST_MEMORY_MARGIN``, instead of letting
    it hang or exhaust memory: in a forest of parent pointers that
    holds a cycle, the section kernel's walk to the root never ends.
    The alarm needs SIGALRM and the cap Linux; elsewhere each is left out."""
    with contextlib.ExitStack() as stack:
        if hasattr(signal, "SIGALRM"):

            def expire(signum, frame):
                raise TimeoutError(f"the test ran over {TEST_TIME_LIMIT_S} s")

            before = signal.signal(signal.SIGALRM, expire)
            signal.alarm(TEST_TIME_LIMIT_S)
            stack.callback(signal.signal, signal.SIGALRM, before)
            stack.callback(signal.alarm, 0)
        try:  # Linux: /proc gives the address space in pages
            with open("/proc/self/statm") as f:
                cap = int(f.read().split()[0]) * resource.getpagesize() + TEST_MEMORY_MARGIN
            soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        except (OSError, AttributeError):  # no /proc, or resource is None
            cap = None
        if cap is not None and (soft == resource.RLIM_INFINITY or cap < soft):
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
            stack.callback(resource.setrlimit, resource.RLIMIT_AS, (soft, hard))
        yield


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
    assert prof == AdjacencyProfile(8, 7, Fraction(3), (1, 2))
    assert type(prof.max_jump) is Fraction


def test_inside_out_jump_depth_threshold():
    assert adjacency_profile(path_of("inside-out", 3, 2)).other_steps == 0
    assert adjacency_profile(path_of("inside-out", 3, 3)).other_steps > 0


def test_face_steps_count_all_steps_for_continuous_curves():
    prof = adjacency_profile(path_of("harmonious", 2, 3))
    assert prof.face_steps == 4**3 - 1
    assert prof.max_jump == 1


def test_continuity_reads_points_not_cells():
    # The centres sit a quarter cell off-centre, so the first step is half
    # a cell wide although its two cells are face neighbours.
    rule = parse_definition(UNEVEN_RULES[3])
    cells = list(iter_path(rule, 1, "corner", cells=True))
    assert cells == [(0,), (1,)]
    assert check_continuity(rule, 1).witness == (0, 1)


def test_continuity_stops_at_the_first_jump(monkeypatch):
    taken = []

    def counted(*args, **kwargs):
        for p in iter_path(*args, **kwargs):
            taken.append(p)
            yield p

    monkeypatch.setattr(_rule_checks, "iter_path", counted)
    report = check_continuity(gen_z(2), 11, kind="z")
    assert report.line() == "continuity z 2 11 fails 1 2"
    assert len(taken) == 3


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


@pytest.mark.parametrize("n_sections", [0, -3])
def test_section_audit_rejects_a_count_below_one(monkeypatch, n_sections):
    # A count of 0 used to fail with "max() arg is an empty sequence".
    p = path_of("z", 3, 4)
    monkeypatch.setattr(_path_checks, "SectionAuditor", None)  # nothing is prepared
    with pytest.raises(ValueError) as info:
        section_component_audit(p, n_sections, seed=41)
    assert str(info.value) == f"n_sections must be at least 1, got {n_sections}"


@pytest.mark.parametrize("n_sections", [2.5, True, "3"])
def test_section_audit_rejects_a_count_that_is_not_an_int(n_sections):
    # 2.5 used to raise a bare TypeError, True audited one section and "3"
    # failed with "'<' not supported".
    p = path_of("z", 3, 3)
    with pytest.raises(ValueError) as info:
        section_component_audit(p, n_sections, seed=1)
    assert str(info.value) == f"n_sections must be at least 1, got {n_sections!r}"


@pytest.mark.parametrize("section", [(1.0, 2), (0, 2.0), (True, 3), (0, True), ("1", 2)])
def test_a_section_bound_that_is_not_an_int_is_refused(section):
    # (1.0, 2) used to raise a bare TypeError and (True, 3) was counted
    # as (1, 3).
    p = path_of("z", 2, 2)
    want = f"section ({section[0]!r}, {section[1]!r}) has a bound that is not an int"
    with pytest.raises(ValueError) as info:
        SectionAuditor(p).counts([(0, 1), section])
    assert str(info.value) == want
    with pytest.raises(ValueError) as info:
        component_count(p, *section)
    assert str(info.value) == want


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
    """The stamped union-find the sweep replaced, kept as its oracle.

    The sections are taken in order of their ends.  While the lower end
    stays the same, one union-find grows from each section to the next,
    so every section of a path of n positions takes O(n**2) unions, not
    O(n**3); each lower end starts a new one."""
    cell_of_pos = auditor._cell_of_pos.tolist()
    indptr = auditor._indptr.tolist()
    adj = auditor._adj.tolist()
    n_cells = auditor.n_cells
    parent = [0] * n_cells
    stamp = [-1] * n_cells  # the lower end of the union-find holding the cell
    out = array.array("i", bytes(4 * len(sections)))
    lo = -1
    for sec in sorted(range(len(sections)), key=sections.__getitem__):
        a, b = sections[sec]
        if a != lo:
            lo, end, comps = a, a, 0
        for p in range(end, b + 1):
            c = cell_of_pos[p]
            if stamp[c] == a:
                continue
            stamp[c] = a
            parent[c] = c
            comps += 1
            for idx in range(indptr[c], indptr[c + 1]):
                nb = adj[idx]
                if stamp[nb] != a:
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
        end = b + 1
        out[sec] = comps
    return out


def every_section(auditor):
    n = auditor.length
    return [(a, b) for a in range(n) for b in range(a, n)]


def exhaustive_sweep_paths():
    """The multi-visit simplex paths and small cube paths whose every
    section the sweep tests check: Z at d = 4 and the paths of 512
    positions close many cycles in the sweep's forest."""
    exhaustive = [
        generate_full_path(builtin_fixed(name), 2, "corner")
        for name in ("polya2d", "sub8", "palindromic_tetra", "prism3d", "meander2d")
    ]
    return exhaustive + [path_of("maehara", 2, 3), path_of("hill-z", 2, 3),
                         path_of("inside-out", 3, 2), path_of("z", 4, 2),
                         *(path_of(kind, 3, 3) for kind in ("z", "gray", "maehara"))]


def test_section_sweep_matches_union_find():
    # every section of the multi-visit simplex paths and small cube paths
    for p in exhaustive_sweep_paths():
        auditor = SectionAuditor(p)
        sections = every_section(auditor)
        assert auditor.counts(sections) == union_find_counts(auditor, sections)
    # seeded sections of longer paths
    rng = random.Random(20240601)
    for kind in ("z", "gray", "maehara"):
        auditor = SectionAuditor(path_of(kind, 3, 3))
        n = auditor.length
        sections = [tuple(sorted((rng.randrange(n), rng.randrange(n))))
                    for _ in range(3000)]
        assert auditor.counts(sections) == union_find_counts(auditor, sections), kind


@pytest.mark.parametrize("kind, d, depth", [("z", 4, 3), ("maehara", 3, 3)])
def test_section_sweep_matches_union_find_on_seeded_sections(kind, d, depth):
    """The audit's own draw, in its order and with its repeats.  Z at
    d = 4 is a long path that is not face-continuous, and Maehara
    revisits cells; the union-find takes about 5 s on Z."""
    auditor = SectionAuditor(path_of(kind, d, depth))
    sections = list(_seeded_sections(auditor.length, 20000, 5))
    assert auditor.counts(sections) == union_find_counts(auditor, sections)


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


@settings(max_examples=100, deadline=None)
@given(walk_paths())
def test_section_sweep_matches_union_find_on_walks(p):
    auditor = SectionAuditor(p)
    sections = every_section(auditor)
    assert auditor.counts(sections) == union_find_counts(auditor, sections)


# -- the preparation the cell numbers replaced -----------------------------


def old_auditor_tables(path):
    """The tuple-keyed preparation of :class:`SectionAuditor` that
    mixed-radix cell numbers replaced, kept verbatim as its oracle:
    (n_cells, cell_of_pos, indptr, adj)."""
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
    return len(cells), cell_of_pos, indptr, adj


def serpentine(d, side):
    """The one-level serpentine (boustrophedon) of the cube of ``side``
    cells per axis: each layer is the serpentine of one dimension less,
    run backwards in every other layer."""
    cells = [()]
    for _ in range(d):
        cells = [(i,) + c for i in range(side) for c in (cells[::-1] if i % 2 else cells)]
    return cell_path(cells)


def spiral(side):
    """The square of ``side`` cells per axis, walked inwards ring by ring.
    Each position of a ring meets the ring outside it about a ring's
    length back, so the kernel's tree paths are about as long as a ring."""
    cells = []
    lo, hi = 0, side - 1
    while lo <= hi:
        ring = [(x, lo) for x in range(lo, hi + 1)] + [(hi, y) for y in range(lo + 1, hi + 1)]
        if lo < hi:
            ring += [(x, hi) for x in range(hi - 1, lo - 1, -1)]
            ring += [(lo, y) for y in range(hi - 1, lo, -1)]
        cells += ring
        lo, hi = lo + 1, hi - 1
    return cell_path(cells)


def test_serpentine_and_spiral_are_face_continuous():
    for p, side, d in [(serpentine(3, 5), 5, 3), (serpentine(2, 40), 40, 2), (spiral(12), 12, 2)]:
        assert sorted(p.points) == sorted(itertools.product(range(side), repeat=d))
        assert adjacency_profile(p).other_steps == 0


@pytest.mark.parametrize("p", [serpentine(3, 5), spiral(12)], ids=["serpentine-3-5", "spiral-12"])
def test_section_sweep_matches_union_find_on_long_tree_paths(p):
    auditor = SectionAuditor(p)
    sections = every_section(auditor)
    assert auditor.counts(sections) == union_find_counts(auditor, sections)


@pytest.mark.parametrize(
    "p", [serpentine(3, 12), serpentine(2, 40), spiral(64), path_of("harmonious", 3, 4)],
    ids=["serpentine-3-12", "serpentine-2-40", "spiral-64", "harmonious-3-4"],
)
def test_every_section_of_a_face_continuous_path_is_one_component(p):
    """Every step of a face-continuous path joins face-adjacent cells, so
    each of its sections is one component: an exact count where the
    union-find takes 5-6 s on 20 000 sections of 4096 positions.  On the
    spiral and the serpentines the kernel's tree paths are long."""
    assert adjacency_profile(p).other_steps == 0
    auditor = SectionAuditor(p)
    assert set(auditor.counts(_seeded_sections(auditor.length, 20000, 5))) == {1}


def assert_same_tables(p):
    """Same ids in first-visit order and the same neighbours per cell as
    the tuple-keyed preparation."""
    n_cells, cell_of_pos, indptr, adj = old_auditor_tables(p)
    auditor = SectionAuditor(p)
    assert auditor.n_cells == n_cells and auditor.length == len(p.points)
    assert auditor._cell_of_pos == cell_of_pos
    assert auditor._indptr == indptr
    for c in range(n_cells):
        got = auditor._adj[auditor._indptr[c]:auditor._indptr[c + 1]]
        assert set(got) == set(adj[indptr[c]:indptr[c + 1]]), c


@settings(max_examples=100, deadline=None)
@given(walk_paths())
def test_cell_numbers_match_the_tuple_keys_on_walks(p):
    assert_same_tables(p)


@pytest.mark.parametrize("origin", ["corner", "centre"])
def test_cell_numbers_match_the_tuple_keys_on_family_paths(origin):
    for _, p in family_paths(origin):
        assert_same_tables(p)


def test_cell_numbers_of_an_empty_path():
    auditor = SectionAuditor(Path((), 2, 2, 0, "corner"))
    assert (auditor.n_cells, auditor.length) == (0, 0)
    assert list(auditor._indptr) == [0] and not auditor._adj
    assert auditor.counts([]) == array.array("i")


@pytest.mark.parametrize("seed", [0, 1, 20240601])
def test_seeded_sections_draw_as_randrange(seed):
    for n in range(1, 601):
        rng = random.Random(seed + n)
        want = []
        for _ in range(25):
            a, b = rng.randrange(n), rng.randrange(n)
            want.append((min(a, b), max(a, b)))
        assert list(_seeded_sections(n, 25, seed + n)) == want, n


def test_seeded_sections_refuse_an_empty_path():
    with pytest.raises(ValueError, match="empty path"):
        next(_seeded_sections(0, 1, 0))


# -- palindromic --------------------------------------------------------


@pytest.mark.parametrize("kind", ["double-gray", "inside-out"])
@pytest.mark.parametrize("d", [2, 3])
def test_palindromic_families(kind, d):
    assert check_palindromic(generate(kind, d), 3).holds


def test_u_is_not_palindromic():
    report = check_palindromic(generate("u", 2), 2, kind="u")
    assert report.line() == "palindromic u 2 2 fails 0 1 1 0"


@pytest.mark.parametrize("depth", [0, -1])
def test_palindromic_check_refuses_a_depth_below_one(depth):
    # the depth before the scale: Peano's scale 3 is refused too
    for defn in (generate("harmonious", 3), generate("peano", 2)):
        with pytest.raises(ValueError, match=r"^palindromicity is checked at depth >= 1$"):
            check_palindromic(defn, depth)


@pytest.mark.parametrize("depth", [0, -1])
def test_palindromic_cells_refuse_a_depth_below_one(depth):
    # used to answer "palindromic - 2 0 fails 1 3 2 0", at -1 with a float half
    with pytest.raises(ValueError, match=r"^palindromicity is checked at depth >= 1$"):
        palindromic_on_cells([(0, 0), (0, 1), (1, 1), (1, 0)], 2, depth)


def test_palindromic_check_refuses_a_rule_that_does_not_fill_the_cube():
    with pytest.raises(ValueError, match=r"^palindromicity is checked on scale-2 cube rules$"):
        check_palindromic(generate("hill-z", 3), 2)


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
            assert _box_dominance(_CellTable(p)) == expected.holds
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
    assert _box_dominance(_CellTable(p)) == report.holds


def test_z_depth_four_dominance_holds():
    p = path_of("z", 3, 4)
    assert len(p.points) == 4096
    assert check_dominance(p).line() == "dominance - 3 4 holds"
    assert _box_dominance(_CellTable(p))


# -- straight jumping ------------------------------------------------------


def test_gray_and_double_gray_straight_jump():
    assert check_straight_jumping(generate("gray", 3), 2).holds
    assert check_straight_jumping(generate("double-gray", 3), 2).holds


def test_z_is_not_straight_jumping():
    assert check_straight_jumping(gen_z(2), 2).verdict == "fails"


def test_a_repeated_cell_is_not_a_straight_jump():
    # tiles 2 and 3 of Hill-Z d=2 share a box: the step changes no axis
    report = check_straight_jumping(generate("hill-z", 2), 1)
    assert report.line() == "straight-jumping - 2 1 fails 1 2"
    # points 1 and 2 differ, 4 and 6 units, but lie in the one cell 1
    report = check_straight_jumping(parse_definition(UNEVEN_RULES[3]), 2)
    assert report.line() == "straight-jumping - 1 2 fails 1 2"


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


def test_facet_order_of_unequal_lengths_is_inconclusive():
    # 81 facet cells of Peano d=3 against the 16 of Harmonious d=2
    report = check_facet_order(generate("peano", 3), generate("harmonious", 2), (1, 1), 2)
    assert report.line() == "facet-order - 3 2 inconclusive 1 1"


@pytest.mark.parametrize("facet,message", [
    ((1, 0), "facet side 0 must be -1 or +1"),  # was read as the low side
    ((1, 5), "facet side 5 must be -1 or +1"),  # was read as the high side
    ((4, 1), "facet axis 4 must be an int in 1..3"),  # was an IndexError
    ((0, 1), "facet axis 0 must be an int in 1..3"),  # read axis -1 before
], ids=["side 0", "side 5", "axis 4", "axis 0"])
def test_facet_order_rejects_a_bad_facet_before_any_walk(facet, message, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(_rule_checks, "iter_path", no_walk)
    with pytest.raises(ValueError) as info:
        check_facet_order(gen_z(3), gen_z(2), facet, 2)
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: SectionAuditor(path_of("z", 2, 1)).counts([(0, 4)]), "section (0, 4) out of range"),
    (lambda: SectionAuditor(path_of("z", 2, 1)).counts([(2, 1)]), "section (2, 1) out of range"),
    (lambda: SectionAuditor(path_of("z", 2, 1)).counts([(-1, 0)]), "section (-1, 0) out of range"),
    (lambda: check_facet_order(gen_z(3), gen_z(3), (1, 1), 2),
     "the comparison rule must have one dimension less"),
    (lambda: check_facet_order(gen_z(3), gen_z(1), (1, -1), 2),
     "the comparison rule must have one dimension less"),
], ids=["past the end", "reversed", "below zero", "same dimension", "two less"])
def test_refusals_that_name_their_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message



@pytest.mark.parametrize("depth", [2.0, 1.5, True, "2"], ids=repr)
def test_every_depth_taking_check_refuses_a_depth_that_is_not_an_int(depth, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    z3, z2 = gen_z(3), gen_z(2)
    message = f"^depth must be an int, got {depth!r}$"
    with pytest.raises(ValueError, match=message):
        check_straight_jumping(z3, depth)  # refused by the walk it reads
    monkeypatch.setattr(_rule_checks, "iter_path", no_walk)
    for call in (
        lambda: check_palindromic(z3, depth),
        lambda: palindromic_on_cells([(0, 0, 0)], 3, depth),
        lambda: check_facet_order(z3, z2, (1, -1), depth),
    ):
        with pytest.raises(ValueError, match=message):
            call()


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


@pytest.mark.parametrize("count", [0, -3])
def test_bbox_ratio_rejects_a_section_count_below_one(count):
    # Both used to return Fraction(0), a ratio of no section at all.
    p = path_of("z", 3, 4)
    with pytest.raises(ValueError) as info:
        max_bbox_ratio(p, count)
    assert str(info.value) == f"max_section_count must be at least 1 or None, got {count}"


@pytest.mark.parametrize("depth", [2, 4])
@pytest.mark.parametrize("count", [2.5, True, "3"])
def test_bbox_ratio_rejects_a_section_count_that_is_not_an_int(count, depth):
    # On the 64-point path 2.5 used to check every section and return 16;
    # on the 4096-point path it raised a bare TypeError.
    p = path_of("z", 3, depth)
    with pytest.raises(ValueError) as info:
        max_bbox_ratio(p, count)
    assert str(info.value) == f"max_section_count must be at least 1 or None, got {count!r}"


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


@settings(max_examples=100, deadline=None)
@given(synthetic_paths())
def test_dominance_matches_pair_scan_on_synthetic_paths(p):
    """Cell widths 1-3, points off their cell's lowest corner, repeated
    cells and negative coordinates; where the cells fill their box, the
    box test alone decides."""
    expected = scan_dominance(p)
    assert check_dominance(p).line() == expected.line()
    if fills_box(first_cells(p)):
        assert _box_dominance(_CellTable(p)) == expected.holds


@settings(max_examples=100, deadline=None)
@given(synthetic_paths())
def test_cell_numbers_match_the_tuple_keys_on_synthetic_paths(p):
    assert_same_tables(p)


# -- well-folded rank law --------------------------------------------------------


def test_well_folded_rank_families():
    assert check_well_folded_rank(generate("harmonious", 5)).holds
    assert check_well_folded_rank(generate("u", 1)).holds
    assert check_well_folded_rank(gen_z(3)).verdict == "fails"


@pytest.mark.parametrize("name", ["hill-z", "maehara", "peano", *FIXED_NAMES])
def test_well_folded_rank_refuses_a_rule_that_is_not_a_scale_2_cube(name):
    # Hill-Z d=3 used to fail with witness (3, 1, 3), from a law stated
    # for cube rules.
    defn = builtin_fixed(name) if name in FIXED_NAMES else generate(name, 3)
    with pytest.raises(ValueError, match=r"^the rank law applies to scale-2 cube rules$"):
        check_well_folded_rank(defn)


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
