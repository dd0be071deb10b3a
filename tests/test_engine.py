"""Path enumeration, point location, symmetry and squaring."""

import contextlib
import functools
import io
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm
from operator import sub

import pytest
from conftest import UNEVEN_RULES, differential_rules

from traversals import cli, engine
from traversals._squaring import _require_cubic
from traversals.engine import (
    ORIGIN_MODES,
    NotCubicError,
    NotSymmetricError,
    Path,
    _columns,
    _table,
    cell_units,
    find_reversal_symmetry,
    generate_full_path,
    generate_path,
    iter_path,
    iter_squared_path,
    locate,
    squared_definition,
    squared_path,
)
from traversals.generators import (
    FIXED_NAMES,
    BetaUndefinedError,
    TraversalKind,
    builtin_fixed,
    gen_harmonious,
    gen_z,
    generate,
)
from traversals.notation import (
    SignedPermutation,
    TraversalDefinition,
    _cube_symmetries,
    _symmetries_mapping,
    format_definition,
    parse_definition,
)

F = Fraction


def _scaled_centres(defn: TraversalDefinition) -> tuple[list[tuple[int, ...]], int]:
    """Centres as integer vectors on the 2*scale*m lattice, plus m."""
    den = lcm(1, *(x.denominator for c in defn.centres for x in c))
    m = lcm(den, 2 * defn.scale) // (2 * defn.scale)
    unit = 2 * defn.scale * m
    scaled = [tuple(x.numerator * (unit // x.denominator) for x in c) for c in defn.centres]
    return scaled, m


def test_table_lattice_is_the_scaled_centres_lattice():
    """The table's lattice comes from ``notation._lattice``; the former
    ``engine._scaled_centres``, kept above verbatim as the oracle of the
    tests below, computed the same integers."""
    rules = 0
    for label, defn in differential_rules():
        table = _table(defn)
        centres, m = _scaled_centres(defn)
        assert table.m == m, label
        assert [tuple(c) for c in table.centres] == centres, label
        rules += 1
    assert rules == 120


# -- enumeration -------------------------------------------------------


def test_depth_zero_is_single_origin_point():
    defn = gen_harmonious(2)
    assert generate_path(defn, 0).points == ((0, 0),)
    assert generate_full_path(defn, 0, "first").points == ((0, 0),)


def test_hilbert_level_one_corner():
    # the first move of the pattern runs along axis 1
    path = generate_full_path(gen_harmonious(2), 1, "corner")
    assert path.points == ((1, 1), (3, 1), (3, 3), (1, 3))


def test_u_level_one_corner():
    path = generate_full_path(generate("u", 2), 1, "corner")
    assert path.points == ((1, 1), (3, 1), (3, 3), (1, 3))


def test_corner_mode_minimum_is_half_cell():
    for kind in ("z", "hill-z", "harmonious", "peano"):
        defn = generate(kind, 3)
        path = generate_full_path(defn, 2, "corner")
        half = path.cell_units // 2
        for j in range(3):
            assert min(p[j] for p in path.points) == half


def test_first_mode_starts_at_zero():
    path = generate_full_path(generate("butz", 3), 2, "first")
    assert path.points[0] == (0, 0, 0)


def test_last_mode_ends_at_zero():
    path = generate_full_path(generate("butz", 3), 2, "last")
    assert path.points[-1] == (0, 0, 0)


def test_path_length_and_bijectivity():
    for kind in ("z", "u", "gray", "double-gray", "inside-out", "harmonious"):
        defn = generate(kind, 3)
        for depth in (1, 2):
            path = generate_full_path(defn, depth, "corner")
            assert len(path.points) == 8**depth
            cells = path.cell_indices()
            assert len(set(cells)) == len(cells)
            n = 2**depth
            assert set(cells) == {
                (i, j, k)
                for i in range(n)
                for j in range(n)
                for k in range(n)
            }


def test_iter_path_streams_the_same_points():
    defn = generate("gray", 2)
    assert tuple(iter_path(defn, 2)) == generate_path(defn, 2).points


def test_z_order_matches_rank_order():
    from traversals.bitmatrix import CoordinateMatrix, rank_of_cell

    cells = generate_full_path(gen_z(2), 2, "corner").cell_indices()
    ranks = [
        rank_of_cell("z", CoordinateMatrix.from_cell(c, 2)).value for c in cells
    ]
    assert ranks == sorted(ranks)


def test_simplex_paths_emit_duplicate_points_in_order():
    polya = builtin_fixed("polya2d")
    pts = generate_full_path(polya, 1, "corner").points
    assert pts == ((1, 1), (3, 1), (3, 1), (3, 3))


# -- locate -------------------------------------------------------------


def test_locate_zero_is_first_cell():
    defn = gen_harmonious(2)
    for depth in (1, 2, 3):
        assert locate(defn, F(0), depth, "plus") == _centred_point(defn, depth, 0)


def test_locate_one_minus_side_is_last_cell():
    defn = gen_harmonious(2)
    for depth in (1, 2, 3):
        pts = generate_path(defn, depth).points
        got = locate(defn, F(1), depth, "minus")
        assert _scale(got, defn, depth) == pts[-1]


def _centred_point(defn, depth, index):
    pts = generate_path(defn, depth).points
    unit = 2 * defn.scale**depth
    return tuple(F(x, unit) for x in pts[index])


def _scale(vec, defn, depth):
    unit = 2 * defn.scale**depth
    return tuple(int(x * unit) for x in vec)


@pytest.mark.parametrize("kind", ["z", "gray", "harmonious", "meurthe", "maehara"])
def test_locate_segment_midpoints_match_path(kind):
    import random

    rng = random.Random(5)
    defn = generate(kind, 2)
    D = len(defn.entries)
    for depth in (1, 2, 3):
        pts = generate_path(defn, depth).points
        n = D**depth
        for i in rng.sample(range(n), min(12, n)):
            t = F(2 * i + 1, 2 * n)
            for side in ("plus", "minus"):
                got = locate(defn, t, depth, side)
                assert _scale(got, defn, depth) == pts[i], (kind, depth, i, side)


def test_locate_sides_differ_only_on_boundaries():
    defn = generate("gray", 2)
    # t = 1/4 is the boundary between cells 4 and 5 at depth 1
    lo = locate(defn, F(1, 4), 1, "minus")
    hi = locate(defn, F(1, 4), 1, "plus")
    pts = generate_path(defn, 1).points
    assert _scale(lo, defn, 1) == pts[0 + 0]  # inside first quadrant block
    assert lo != hi


def test_locate_rejects_out_of_domain():
    defn = gen_z(2)
    with pytest.raises(ValueError):
        locate(defn, F(1), 2, "plus")
    with pytest.raises(ValueError):
        locate(defn, F(0), 2, "minus")
    with pytest.raises(ValueError):
        locate(defn, F(3, 2), 2, "plus")
    for side in ("plus", "minus"):
        with pytest.raises(ValueError, match="depth must be non-negative"):
            locate(defn, F(1, 3), -1, side)
    # the integer range checks reject what the Fraction ones did, alike
    for t, depth, side in ((F(-1, 3), 2, "plus"), (F(1), 2, "plus"), (F(0), 2, "minus"),
                           (F(4, 3), 2, "minus"), (F(1, 2), 2, "middle")):
        with pytest.raises(ValueError) as want:
            fraction_locate(defn, t, depth, side)
        with pytest.raises(ValueError) as got:
            locate(defn, t, depth, side)
        assert str(got.value) == str(want.value)


def test_locate_meander_published_value():
    mea = builtin_fixed("meander2d")
    target = (F(2, 9) - F(1, 2), F(1, 3) - F(1, 2))
    for k in range(1, 9):
        c = locate(mea, F(17, 324), k, "plus")
        hw = F(1, 2 * 3**k)
        assert all(abs(t - x) <= hw for t, x in zip(target, c)), k


# -- reversal symmetry -----------------------------------------------------


def test_hilbert_symmetry_is_the_mirror_swapping_endpoints():
    sigma = find_reversal_symmetry(gen_harmonious(2))
    assert sigma == SignedPermutation((1, -2))


def test_cube_symmetries_keep_their_order():
    # find_reversal_symmetry returns the first match in this order
    assert [g.entries for g in _cube_symmetries(2)] == [
        (1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1)
    ]
    assert len(set(_cube_symmetries(3))) == 48


def test_symmetries_mapping_keeps_the_cube_symmetry_order():
    # src -> dst pairs met by several symmetries, and by none
    cases = [
        (2, [(0, 0)], [(0, 0)]),
        (2, [(1, 1)], [(1, 1)]),
        (2, [(1, 1), (-1, 1)], [(1, 1), (1, -1)]),
        (3, [(1, 1, 0)], [(0, -1, 1)]),
        (3, [(1, 2, 3), (1, 2, 3)], [(3, 2, 1), (1, 2, 3)]),
    ]
    for d, src, dst in cases:
        want = [g for g in _cube_symmetries(d) if [g.apply(v) for v in src] == dst]
        assert list(_symmetries_mapping(d, src, dst)) == want
    assert len(list(_symmetries_mapping(2, [(0, 0)], [(0, 0)]))) == 8


def defined_reversal_symmetry(defn):
    """The definition, kept as the oracle of the search: the first cube
    symmetry in ``_cube_symmetries`` order that maps the depth-3 path onto
    its reverse point by point, or None when there is none."""
    pts = generate_path(defn, 3).points
    back = pts[::-1]
    for g in _cube_symmetries(defn.dimension):
        if all(g.apply(p) == q for p, q in zip(pts, back)):
            return g
    return None


CUBE_FILLING = [
    (kind.value, d)
    for d in (2, 3, 4)
    for kind in TraversalKind
    if (kind, d) != (TraversalKind.BETA_HILBERT, 2) and generate(kind, d).fills_cube
]


@pytest.mark.parametrize("kind,d", CUBE_FILLING)
def test_reversal_symmetry_matches_its_definition(kind, d):
    defn = generate(kind, d)
    assert find_reversal_symmetry(defn) == defined_reversal_symmetry(defn)


def test_reversal_symmetry_of_meander_matches_its_definition():
    defn = builtin_fixed("meander2d")
    assert find_reversal_symmetry(defn) is defined_reversal_symmetry(defn) is None


def test_gray_code_is_asymmetric():
    assert find_reversal_symmetry(generate("gray", 2)) is None


def test_u_traversal_is_symmetric():
    assert find_reversal_symmetry(generate("u", 2)) is not None


def test_reversal_symmetry_needs_cube_filling_rule():
    with pytest.raises(NotCubicError):
        find_reversal_symmetry(builtin_fixed("polya2d"))


def test_meander_is_asymmetric():
    assert find_reversal_symmetry(builtin_fixed("meander2d")) is None


def test_symmetry_property_holds_pointwise():
    for kind in ("u", "inside-out", "harmonious", "coil", "half-coil"):
        defn = generate(kind, 2)
        sigma = find_reversal_symmetry(defn)
        assert sigma is not None, kind
        pts = generate_path(defn, 2).points
        n = len(pts)
        assert all(sigma.apply(pts[k]) == pts[n - 1 - k] for k in range(n))


# -- squaring ----------------------------------------------------------------


def test_squared_path_needs_cube_filling_rule():
    with pytest.raises(NotCubicError):
        squared_path(builtin_fixed("polya2d"), 1)


def test_squared_path_visits_every_four_cube_cell_once():
    for kind in ("u", "inside-out", "harmonious"):
        pts = squared_path(generate(kind, 2), 1).points
        assert len(pts) == 16
        assert len(set(pts)) == 16
        assert {x for p in pts for x in p} == {1, 3}


def test_squared_definitions_match_printed_forms(golden):
    sq_io = squared_definition(generate("inside-out", 2))
    assert format_definition(sq_io) == golden("squared_inside-out_d2.txt")
    sq_h = squared_definition(gen_harmonious(2))
    assert format_definition(sq_h) == golden("squared_hilbert_d2.txt")


def test_squared_definition_reproduces_squared_path():
    for kind in ("inside-out", "harmonious", "u"):
        defn = generate(kind, 2)
        sq = squared_definition(defn)
        for depth in (1, 2):
            assert (
                generate_full_path(sq, depth, "corner").points
                == squared_path(defn, depth).points
            ), (kind, depth)


def test_squared_meander_is_not_self_similar():
    with pytest.raises(NotSymmetricError):
        squared_definition(builtin_fixed("meander2d"))
    with pytest.raises(NotSymmetricError):
        squared_definition(generate("gray", 2))


def test_squared_coil_certificate_scale_three():
    # the squaring construction also works on the 3^d subdivision
    for kind in ("coil", "half-coil"):
        defn = generate(kind, 2)
        sq = squared_definition(defn)
        assert sq.dimension == 4
        assert sq.scale == 3
        assert len(sq.entries) == 81
        assert (
            generate_full_path(sq, 1, "corner").points
            == squared_path(defn, 1).points
        ), kind


def test_squared_z_matches_direct_four_dimensional_z():
    """Squaring 2-d Z gives 4-d Z up to renaming the axes."""
    import itertools

    sq = squared_path(gen_z(2), 1).points
    direct = generate_full_path(gen_z(4), 1, "corner").points
    for perm in itertools.permutations(range(4)):
        mapped = [tuple(p[perm[j]] for j in range(4)) for p in sq]
        if mapped == list(direct):
            return
    raise AssertionError("no axis relabeling matches")


def test_squared_hilbert_depth_one_is_face_connected():
    pts = squared_path(gen_harmonious(2), 1).points
    for a, b in zip(pts, pts[1:]):
        diffs = [abs(x - y) for x, y in zip(a, b)]
        assert sum(diffs) == 2 and max(diffs) == 2


def test_continuity_transfer_to_the_square():
    """A face-connected rule stays face-connected after squaring."""
    from traversals.analysis import adjacency_profile

    for kind in ("harmonious", "coil", "half-coil"):
        defn = generate(kind, 2)
        base = adjacency_profile(generate_full_path(defn, 3, "corner"))
        assert base.other_steps == 0
        sq = squared_path(defn, 1)
        assert adjacency_profile(sq).other_steps == 0


def test_exponent_beyond_two_not_offered():
    # squaring composes once; no cubing API exists
    import traversals.engine as eng

    assert not hasattr(eng, "cubed_path")


# -- structural self-similarity ------------------------------------------


def _all_test_definitions():
    from traversals.generators import FIXED_NAMES, builtin_fixed

    for kind in ("z", "u", "gray", "double-gray", "inside-out", "hill-z",
                 "maehara", "base-camp", "harmonious", "alfa", "butz"):
        for d in (2, 3):
            yield f"{kind} d={d}", generate(kind, d)
    yield "beta d=3", generate("beta", 3)
    for kind in ("peano", "coil", "half-coil", "meurthe"):
        yield f"{kind} d=2", generate(kind, 2)
    for name in FIXED_NAMES:
        yield name, builtin_fixed(name)


def test_depth_two_blocks_are_transformed_depth_one_paths():
    """Every entry means what the engine executes.

    Block i of the depth-2 path must be the depth-1 path mapped through
    entry i's signed permutation, translated to its centre, and run
    backwards when the entry is reversed.  This pins the semantics of
    every definition entry against the recursive enumeration, for every
    family and every bundled curve.
    """
    for label, defn in _all_test_definitions():
        n = len(defn.entries)
        s = defn.scale
        one = generate_path(defn, 1).points
        two = generate_path(defn, 2).points
        centres, _ = _scaled_centres(defn)
        for i, entry in enumerate(defn.entries):
            block = two[i * n : (i + 1) * n]
            image = [entry.apply(p) for p in one]
            if entry.reverse:
                image.reverse()
            base = centres[i]
            expected = tuple(
                tuple(s * b + q for b, q in zip(base, p)) for p in image
            )
            assert block == expected, (label, i)


# -- the walk against the recursion it replaced ------------------------------


def recursive_iter_path(defn, depth):
    """The recursive enumeration the table-driven walk replaced, kept
    verbatim as its oracle."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    d, s = defn.dimension, defn.scale
    centres, _ = _scaled_centres(defn)
    perms = [e.entries for e in defn.entries]
    flips = [e.reverse for e in defn.entries]
    n = len(defn.entries)
    order_fwd = range(n)
    order_rev = range(n - 1, -1, -1)

    def rec(cx, rot, h, e):
        if e == 0:
            yield cx
            return
        f = s ** (e - 1)
        for i in (order_fwd if h == 1 else order_rev):
            ci = centres[i]
            child = list(cx)
            for j, p in enumerate(rot):
                v = ci[j]
                if p > 0:
                    child[p - 1] += f * v
                else:
                    child[-p - 1] -= f * v
            pi = perms[i]
            nrot = tuple(
                (rot[p - 1] if p > 0 else -rot[-p - 1]) for p in pi
            )
            yield from rec(tuple(child), nrot, -h if flips[i] else h, e - 1)

    ident = tuple(range(1, d + 1))
    yield from rec((0,) * d, ident, 1, depth)


def recursive_generate_path(defn, depth):
    """The ``generate_path`` over the recursion, kept verbatim."""
    _, m = _scaled_centres(defn)
    points = tuple(recursive_iter_path(defn, depth))
    return Path(points, defn.dimension, defn.scale, depth, "centre", 2 * m)


def shifted_full_path(defn, depth, origin="corner"):
    """The materialise-then-shift ``generate_full_path``, kept verbatim."""
    if origin not in ORIGIN_MODES:
        raise ValueError(f"unknown origin mode {origin!r}")
    base = recursive_generate_path(defn, depth)
    pts = base.points
    d = defn.dimension
    if origin == "centre":
        return base
    if origin == "corner":
        half = base.cell_units // 2
        shift = tuple(min(p[j] for p in pts) - half for j in range(d))
    elif origin == "first":
        shift = pts[0]
    else:
        shift = pts[-1]
    moved = tuple(tuple(x - s for x, s in zip(p, shift)) for p in pts)
    return Path(moved, d, defn.scale, depth, origin, base.cell_units)


def materialised_squared_path(defn, depth):
    """The squaring over two materialised paths, kept verbatim."""
    if depth < 1:
        raise ValueError("squared paths need depth >= 1")
    d = defn.dimension
    x = shifted_full_path(defn, depth)
    q = shifted_full_path(defn, d * depth)
    xs = x.points
    w = q.cell_units
    out = []
    for qp in q.points:
        p = []
        for xi in qp:
            p.extend(xs[xi // w])
        out.append(tuple(p))
    return Path(tuple(out), d * d, defn.scale, depth, "corner", x.cell_units)


def _cli_cells(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--cells"]) == 0
    lines = out.getvalue().splitlines()[1:]
    return tuple(tuple(int(x) for x in line.split()) for line in lines)


def _differential_cases(tmp_path):
    """(label, CLI source arguments, rule): every family for d = 1..4,
    every bundled curve and the uneven rules."""
    for kind in TraversalKind:
        for d in range(1, 5):
            try:
                defn = generate(kind, d)
            except BetaUndefinedError:
                continue
            yield f"{kind.value} d={d}", [kind.value, str(d)], defn
    for name in FIXED_NAMES:
        yield name, [name], builtin_fixed(name)
    for i, text in enumerate(UNEVEN_RULES):
        rule = tmp_path / f"uneven{i}.txt"
        rule.write_text(text)
        yield text, [str(rule)], parse_definition(text)


def _check_walk(label, source, defn, depth):
    want = {origin: shifted_full_path(defn, depth, origin) for origin in ORIGIN_MODES}
    for origin, path in want.items():
        assert tuple(iter_path(defn, depth, origin)) == path.points, (label, depth, origin)
        assert generate_full_path(defn, depth, origin) == path, (label, depth, origin)
    assert generate_path(defn, depth) == want["centre"], label
    cells = want["corner"].cell_indices()
    assert _cli_cells(["path", *source, "--depth", str(depth)]) == cells, (label, depth)


def test_walk_matches_recursive_enumeration(tmp_path):
    cases = 0
    for label, source, defn in _differential_cases(tmp_path):
        for depth in (0, 1, 2):
            _check_walk(label, source, defn, depth)
            cases += 1
    assert cases > 190


def test_walk_matches_recursive_enumeration_at_depth_four():
    _check_walk("harmonious d=3", ["harmonious", "3"], generate("harmonious", 3), 4)


@pytest.mark.parametrize("kind,d,depths", [
    ("harmonious", 2, (1, 2, 3, 4)),
    ("z", 2, (1, 2, 3, 4)),
    ("inside-out", 2, (1, 2, 3, 4)),
    ("gray", 2, (1, 2)),
    ("peano", 2, (1, 2)),
    ("harmonious", 3, (1, 2)),
    ("inside-out", 3, (1,)),
])
def test_streamed_square_matches_materialised_square(kind, d, depths):
    """Points, and at depths 1-2 cells, of the square walked in cells."""
    defn = generate(kind, d)
    w = cell_units(defn)
    for depth in depths:
        want = materialised_squared_path(defn, depth)
        assert squared_path(defn, depth) == want, (kind, d, depth)
        assert tuple(iter_squared_path(defn, depth)) == want.points
        if depth <= 2:
            cells = [tuple(x // w for x in p) for p in want.points]
            assert list(iter_squared_path(defn, depth, cells=True)) == cells, (kind, d, depth)


CELL_WALK_RULES = list(differential_rules())


def _cell_walk_depths(defn):
    """Depths 0-4 whose paths have at most 4096 points."""
    return [depth for depth in range(5) if len(defn.entries) ** depth <= 4096]


@pytest.mark.parametrize("label,defn", CELL_WALK_RULES, ids=[label for label, _ in CELL_WALK_RULES])
def test_cell_walk_matches_floor_divided_point_walk(label, defn):
    """``cells=True`` against the conversion it replaced, ``x // w`` of
    each point of the corner walk, on every rule (one test each) at depths
    0-4 (paths of at most 4096 points)."""
    w = cell_units(defn)
    for depth in _cell_walk_depths(defn):
        want = [tuple(x // w for x in p) for p in iter_path(defn, depth, "corner")]
        assert list(iter_path(defn, depth, "corner", cells=True)) == want, (label, depth)
    assert sum(len(_cell_walk_depths(r)) for _, r in CELL_WALK_RULES) > 400


def test_cell_walk_needs_corner_origin():
    message = "^cell indices are defined for corner-origin paths$"
    for origin in ("centre", "first", "last"):
        with pytest.raises(ValueError, match=message):
            next(iter_path(generate("z", 2), 1, origin, cells=True))
        path = generate_full_path(generate("z", 2), 2, origin)
        assert len(path) == 16
        with pytest.raises(ValueError, match=message):
            path.cell_indices()


def test_walk_rejects_bad_arguments():
    defn = generate("z", 2)
    with pytest.raises(ValueError):
        next(iter_path(defn, -1))
    with pytest.raises(ValueError):
        next(iter_path(defn, 1, "middle"))
    with pytest.raises(ValueError, match="squared paths need depth >= 1"):
        next(iter_squared_path(defn, 0))


def test_leaf_blocks_span_the_most_levels_within_the_cap(monkeypatch):
    """A block spans the most levels whose block holds at most
    ``_BLOCK_MAX`` points, at least one and at most the depth, in both
    the point walk and the cell walk."""
    heights = []
    columns = engine._columns

    def spy(table, state, levels, below):
        heights.append(levels)
        return columns(table, state, levels, below)

    monkeypatch.setattr(engine, "_columns", spy)
    for kind, d, depth, want in (
        ("z", 1, 10, 9), ("peano", 1, 7, 6), ("z", 2, 5, 4), ("z", 3, 4, 3),
        ("peano", 2, 4, 3), ("peano", 3, 3, 2), ("z", 4, 3, 2), ("maehara", 5, 2, 1),
        ("z", 10, 1, 1), ("z", 3, 2, 2), ("peano", 3, 1, 1), ("z", 2, 0, 0),
    ):
        for cells in (False, True):
            heights.clear()
            list(iter_path(generate(kind, d), depth, "corner", cells=cells))
            assert max(heights) == want, (kind, d, depth, cells)


def test_a_rule_of_one_entry_walks_to_any_depth():
    """A level of a one-entry rule adds no points, so its leaf block stays
    one level high and the block builder does not recurse once per level."""
    one = parse_definition("[1 2}")
    far = -(2**5000 - 1)  # -(1 + 2 + ... + 2**4999): the low tile of every level
    assert list(iter_path(one, 5000)) == [(far, far)]
    assert generate_path(one, 5000).points == ((far, far),)
    corner = generate_full_path(one, 5000)
    assert corner.points == ((1, 1),) and corner.cell_indices() == ((0, 0),)
    assert list(iter_path(one, 5000, "corner", cells=True)) == [(0, 0)]


def test_walk_matches_the_recursion_at_every_block_size(monkeypatch):
    """One-level blocks, blocks of at most 81 points, the default cap and
    blocks of the whole path give the recursion's points in every origin
    mode, and its cells, on every rule at depths 0-4 (paths of at most
    1024 points).  Over the child counts of the rules, these caps give
    every block height from one level to the whole path."""
    caps = (1, 81, engine._BLOCK_MAX, 10**9)
    cases = 0
    for label, defn in differential_rules():
        w = cell_units(defn)
        for depth in range(5):
            if len(defn.entries) ** depth > 1024:
                break
            centre = list(recursive_iter_path(defn, depth))
            low = [min(col) - w // 2 for col in zip(*centre)]
            want = {
                "centre": centre,
                "corner": [tuple(map(sub, p, low)) for p in centre],
                "first": [tuple(map(sub, p, centre[0])) for p in centre],
                "last": [tuple(map(sub, p, centre[-1])) for p in centre],
            }
            cells = [tuple(x // w for x in p) for p in want["corner"]]
            for cap in caps:
                monkeypatch.setattr(engine, "_BLOCK_MAX", cap)
                for origin in ORIGIN_MODES:
                    got = list(iter_path(defn, depth, origin))
                    assert got == want[origin], (label, depth, origin, cap)
                got = list(iter_path(defn, depth, "corner", cells=True))
                assert got == cells, (label, depth, cap)
            cases += 1
    assert cases > 440


# -- rows and blocks against the code they replaced --------------------------


def apply_compose_row(table, i):
    """``_Table.row`` as it was when it built each child with
    ``SignedPermutation.apply`` and ``.compose``, kept verbatim as the
    oracle (it gives the next state itself, not its id)."""
    t = table.states[i]
    kids = table.children[::-1] if t.reverse else table.children
    return [(t.apply(c), t.compose(e)) for c, e in kids]


def point_blocks(table, leaf_levels, cells=False):
    """The ``block()`` of ``iter_path`` as it was when it built each block
    point by point, kept verbatim as the oracle."""
    d, s, row, w = table.d, table.s, table.row, 2 * table.m
    blocks: dict = {}

    def block(key):
        """Per-axis columns under a block root: the leaf offsets of the
        state ``key[0]``, or with ``cells`` their cell offsets from a root
        whose coordinates are ``key[1:]`` modulo ``w``."""
        b = blocks.get(key)
        if b is None:
            pts = [((0,) * d, key[0])]
            for level in range(leaf_levels, 0, -1):
                f = s ** (level - 1)
                pts = [
                    (tuple(x + f * o for x, o in zip(c, off)), child)
                    for c, st in pts
                    for off, child in row(st)
                ]
            b = tuple(zip(*(c for c, _ in pts)))
            if cells:
                b = tuple(tuple(map(w.__rfloordiv__, map(r.__add__, col))) for r, col in zip(key[1:], b))
            blocks[key] = b
        return b

    return block


@functools.lru_cache(maxsize=1)
def compared_states():
    """(label, table, state ids) per differential rule: every state
    reachable from the root when there are at most 1000 (all rules up to
    d = 4, the fixed curves, the uneven and golden rules), else the 64
    nearest the root, breadth first (the eight rules at d = 5 and 6,
    whose 18 M (state, child) pairs would take minutes)."""
    out = []
    for label, defn in differential_rules():
        table, i = _table(defn), 0
        while i < len(table.states) <= 1000:
            table.row(i)
            i += 1
        states = range(len(table.states)) if i == len(table.states) else range(64)
        out.append((label, table, states))
    return out


def test_integer_rows_match_apply_compose_rows():
    full = 0
    for label, table, states in compared_states():
        for i in states:
            want = apply_compose_row(table, i)
            got = [(off, table.states[j]) for off, j in table.row(i)]
            assert got == want, (label, i)
            assert all(type(off) is tuple for off, _ in got), label
        assert table.states[table.root] == SignedPermutation.identity(table.d), label
        assert len(set(table.states)) == len(table.states), label
        offsets = [off for i in states for off, _ in table.row(i)]
        assert len(set(map(id, offsets))) == len(set(offsets)), label  # equal ones shared
        full += len(states) == len(table.states)
    assert full == 112


def test_column_blocks_match_point_blocks():
    """Blocks of one level on every compared state; blocks of every height
    up to ``_BLOCK_MAX`` points on the four states nearest the root."""
    for label, table, states in compared_states():
        for h in range(5):
            if table.n**h > engine._BLOCK_MAX:
                break
            want, below = point_blocks(table, h), [{} for _ in range(h)]
            for i in states if h <= 1 else states[:4]:
                got = _columns(table, i, h, below)
                assert [list(col) for col in got] == [list(col) for col in want((i,))], (label, h, i)


# -- locate and squaring against the Fraction descents they replaced ------


def fraction_locate(
    defn: TraversalDefinition,
    t: Fraction,
    depth: int,
    side: str = "plus",
):
    """The ``locate`` over ``Fraction`` centres and composed transforms
    that the integer descent replaced, kept verbatim as its oracle."""
    t = Fraction(t)
    D = len(defn.entries)
    N = D**depth
    if side == "plus":
        if not 0 <= t < 1:
            raise ValueError("plus side needs t in [0, 1)")
        i = (t * N).__floor__() + 1
    elif side == "minus":
        if not 0 < t <= 1:
            raise ValueError("minus side needs t in (0, 1]")
        i = -((-t * N).__floor__())
    else:
        raise ValueError("side must be 'plus' or 'minus'")

    d, s = defn.dimension, defn.scale
    centre = [Fraction(0)] * d
    rot = SignedPermutation.identity(d)
    scale = Fraction(1)
    for level in range(depth, 0, -1):
        z = D ** (level - 1)
        b = -(-i // z)  # ceil
        entry = defn.entries[b - 1]
        i = b * z - i + 1 if entry.reverse else i - (b - 1) * z
        step = rot.apply(defn.centres[b - 1])
        for j in range(d):
            centre[j] += scale * step[j]
        rot = rot.compose(entry)
        scale /= s
    return tuple(centre)


def linear_locate(defn: TraversalDefinition, t: Fraction, depth: int, side: str = "plus"):
    """``locate`` in time linear in the depth, as the oracle of deep
    descents: the cell index's digits by ``divmod``, one
    ``SignedPermutation.apply`` and ``.compose`` per digit on the rule's
    centres over one common denominator, and the levels summed by
    Horner's rule.  It shares no table and no halving with ``locate``."""
    t = Fraction(t)
    D, d, s = len(defn.entries), defn.dimension, defn.scale
    N = D**depth
    i = (t * N).__floor__() if side == "plus" else -((-t * N).__floor__()) - 1
    digits = []
    for _ in range(depth):
        i, k = divmod(i, D)
        digits.append(k)
    q = lcm(1, *(x.denominator for c in defn.centres for x in c))
    centres = [tuple(x.numerator * (q // x.denominator) for x in c) for c in defn.centres]
    rot = SignedPermutation.identity(d)
    pos = [0] * d
    for k in reversed(digits):
        c = D - 1 - k if rot.reverse else k
        pos = [x * s + o for x, o in zip(pos, rot.apply(centres[c]))]
        rot = rot.compose(defn.entries[c])
    return tuple(Fraction(s * x, q * s**depth) for x in pos)


def _plus_with_sign(base: int, b: int) -> int:
    return base + b if b > 0 else -(base - b)


def fraction_squared_definition(defn: TraversalDefinition) -> TraversalDefinition:
    """The ``squared_definition`` over ``Fraction`` centres and composed
    transforms, kept verbatim as the oracle of the integer descent."""
    _require_cubic(defn)
    sigma = find_reversal_symmetry(defn)
    if sigma is None:
        raise NotSymmetricError("the rule is not symmetric; squaring is not self-similar")
    d, s = defn.dimension, defn.scale
    D = len(defn.entries)
    forward = [
        e if not e.reverse else SignedPermutation(e.compose(sigma).entries)
        for e in defn.entries
    ]
    low_sigma = [f.compose(sigma) for f in forward]
    centres = defn.centres
    half = Fraction(1, 2)

    sq_entries: list[SignedPermutation] = []
    sq_centres: list = []
    for seq in itertools.product(range(D), repeat=d):
        acc = SignedPermutation.identity(d)
        centre = [Fraction(0)] * d
        scale = Fraction(1)
        for m in seq:
            step = acc.apply(centres[m])
            for j in range(d):
                centre[j] += scale * step[j]
            acc = acc.compose(forward[m])
            scale /= s
        x = [int((centre[j] + half) * D) for j in range(d)]  # 0-based cells
        ent = [0] * (d * d)
        for j in range(d):
            pj = acc.entries[j]
            mcell = x[abs(pj) - 1]
            low = forward[mcell] if pj > 0 else low_sigma[mcell]
            base = (abs(pj) - 1) * d
            for j2 in range(d):
                ent[j * d + j2] = _plus_with_sign(base, low.entries[j2])
        sq_entries.append(SignedPermutation(tuple(ent)))
        cvec: list[Fraction] = []
        for j in range(d):
            cvec.extend(centres[x[j]])
        sq_centres.append(tuple(cvec))
    return TraversalDefinition.from_centres(sq_entries, sq_centres, scale=s)


def _check_locate(label, defn, depth, rng):
    """Both sides at cell midpoints and at the ends of cell segments: every
    cell of up to 16, else both end cells and 14 seeded others."""
    n = len(defn.entries) ** depth
    cells = range(n) if n <= 16 else [0, n - 1, *(rng.randrange(1, n - 1) for _ in range(14))]
    for i in cells:
        for t, side in ((F(2 * i + 1, 2 * n), "plus"), (F(2 * i + 1, 2 * n), "minus"),
                        (F(i, n), "plus"), (F(i + 1, n), "minus")):
            want = fraction_locate(defn, t, depth, side)
            assert repr(locate(defn, t, depth, side)) == repr(want), (label, depth, t, side)


def test_locate_matches_fraction_locate(tmp_path):
    rng = random.Random(11)
    cases = 0
    for label, _, defn in _differential_cases(tmp_path):
        for depth in (0, 1, 2, 3):
            _check_locate(label, defn, depth, rng)
            cases += 1
    for label, defn in (("harmonious d=3", generate("harmonious", 3)),
                        ("peano d=3", generate("peano", 3)),
                        ("meander2d", builtin_fixed("meander2d"))):
        _check_locate(label, defn, 20, rng)
    assert cases > 250


def _square_outcome(f, defn):
    """What ``f(defn)`` gives: the ``repr`` of the square's fields but its
    centres, the centres and the types of their coordinates (as strict as
    their ``repr``, at a tenth of the cost on 19 683 nine-dimensional
    centres); or the type and text of the ``ValueError`` it raises."""
    try:
        sq = f(defn)
    except ValueError as exc:
        return type(exc), str(exc)
    parts = repr((sq.dimension, sq.scale, sq.entries, sq.moves, sq.step_den))
    return parts, sq.centres, {type(x) for c in sq.centres for x in c}


def _squaring_rules():
    """(label, rule): every family rule at d = 1..3 and every fixed curve."""
    for kind in TraversalKind:
        for d in (1, 2, 3):
            try:
                yield f"{kind.value} d={d}", generate(kind, d)
            except BetaUndefinedError:
                continue
    for name in FIXED_NAMES:
        yield name, builtin_fixed(name)


@pytest.mark.parametrize("defn", [pytest.param(defn, id=label) for label, defn in _squaring_rules()])
def test_squared_definition_matches_fraction_squaring(defn):
    """The same square, with ``Fraction`` centres, or the same error.
    The dimensions at which each family squares are pinned by
    ``_SQUARED_AT`` in ``test_notation.py``."""
    want = _square_outcome(fraction_squared_definition, defn)
    assert _square_outcome(squared_definition, defn) == want
    if len(want) == 3:
        assert want[2] == {Fraction}


# -- every differential rule, and the cached table ----------------------------


def test_locate_matches_fraction_locate_on_every_differential_rule():
    rng = random.Random(12)
    cases = 0
    for label, defn in differential_rules():
        for depth in (0, 1, 2, 3, 9):
            n = len(defn.entries) ** depth
            for _ in range(3):
                i = rng.randrange(n)
                for t, side in ((F(2 * i + 1, 2 * n), "plus"), (F(i, n), "plus"),
                                (F(2 * i + 1, 2 * n), "minus"), (F(i + 1, n), "minus")):
                    want = fraction_locate(defn, t, depth, side)
                    assert repr(locate(defn, t, depth, side)) == repr(want), (label, depth, t)
        assert cell_units(defn) == 2 * _scaled_centres(defn)[1], label
        cases += 1
    assert cases == 120


def _outcome(f, *args):
    """``repr`` of what ``f(*args)`` returns, or the type and text of the
    ``ValueError`` it raises."""
    try:
        return repr(f(*args))
    except ValueError as exc:
        return type(exc), str(exc)


def test_locate_matches_fraction_locate_for_every_form_of_t():
    """Every differential rule at depths 0..12, both sides, with ``t`` a
    ``Fraction``, an ``int``, a ``float`` and a ``str``: the same point,
    or the same error."""
    rng = random.Random(19)
    cases = 0
    for label, defn in differential_rules():
        for depth in range(13):
            n = len(defn.entries) ** depth
            i = rng.randrange(n)
            mid = F(2 * i + 1, 2 * n)
            for t in (mid, float(mid), str(F(i, n)), 0, 1, 2.0):
                for side in ("plus", "minus"):
                    want = _outcome(fraction_locate, defn, t, depth, side)
                    assert _outcome(locate, defn, t, depth, side) == want, (label, depth, t, side)
                    cases += 1
    assert cases == 120 * 13 * 12


def composed_state(defn, digits):
    """The state under the visit positions ``digits``: the entries they
    pick composed from the identity, read backwards under a reversed
    state."""
    acc, n = SignedPermutation.identity(defn.dimension), len(defn.entries)
    for k in digits:
        acc = acc.compose(defn.entries[n - 1 - k if acc.reverse else k])
    return acc


def test_locate_matches_fraction_locate_on_seeded_digits():
    """The cell of four seeded digit strings per depth 0..6 on every
    differential rule, found through ``_Table.descend``, and the state
    ``descend`` reaches: the entries the digits pick, composed."""
    rng = random.Random(13)
    for label, defn in differential_rules():
        table = _table(defn)
        for depth in range(7):
            for _ in range(4):
                digits = [rng.randrange(table.n) for _ in range(depth)]
                i = 0
                for k in digits:
                    i = i * table.n + k
                t = F(2 * i + 1, 2 * table.n**depth)
                assert locate(defn, t, depth) == fraction_locate(defn, t, depth), (label, depth, i)
                _, state = table.descend(i, depth)
                assert table.states[state] == composed_state(defn, digits), (label, digits)
        for depth in (0, 1):
            pos, _ = table.descend(table.n**depth - 1, depth)
            assert type(pos) is list and len(pos) == table.d, (label, depth)


def test_descend_joins_its_halves_across_the_split_points():
    """A seeded cell at levels 31-33, 63-65 and 127-129 on every
    differential rule, on both sides of the depths where
    ``_Table.descend`` splits its index in halves: the state it reaches
    is the entries the digits pick, composed, and its point is
    ``fraction_locate``'s.  Started one level down, under the state of a
    first digit, it reaches the state of all the digits."""
    rng = random.Random(31)
    for label, defn in differential_rules():
        table = _table(defn)
        for levels in (31, 32, 33, 63, 64, 65, 127, 128, 129):
            digits = [rng.randrange(table.n) for _ in range(levels)]
            i = functools.reduce(lambda a, k: a * table.n + k, digits, 0)
            pos, state = table.descend(i, levels)
            assert table.states[state] == composed_state(defn, digits), (label, levels)
            unit = 2 * table.m * defn.scale**levels
            t = F(2 * i + 1, 2 * table.n**levels)
            assert tuple(F(x, unit) for x in pos) == fraction_locate(defn, t, levels), (label, levels)
            _, first = table.descend(digits[0], 1)
            _, state = table.descend(i % table.n ** (levels - 1), levels - 1, first)
            assert table.states[state] == composed_state(defn, digits), (label, levels)


def test_last_origin_shift_matches_fraction_locate_across_the_split_points():
    """The first point of a ``last``-origin walk is the first cell's
    centre less the last cell's, both from ``fraction_locate``, on the
    uneven rules, Harmonious and Maehara at d=3 and SUB8, at depths on
    both sides of where ``_Table.descend`` splits the last index."""
    rules = [(text, parse_definition(text)) for text in UNEVEN_RULES]
    rules += [("harmonious d=3", generate("harmonious", 3)), ("maehara d=3", generate("maehara", 3)),
              ("sub8", builtin_fixed("sub8"))]
    for label, defn in rules:
        for depth in (0, 1, 31, 32, 33, 34, 35, 64, 65):
            unit = cell_units(defn) * defn.scale**depth
            first, last = fraction_locate(defn, 0, depth), fraction_locate(defn, 1, depth, "minus")
            want = tuple(unit * (a - b) for a, b in zip(first, last))
            assert next(iter_path(defn, depth, "last")) == want, (label, depth)


def test_locate_matches_fraction_locate_across_leaf_splits():
    """The last cell and a seeded one at every depth 0..200, where
    ``_Table.descend`` splits the index in halves zero to three times
    deep, against ``fraction_locate`` and ``linear_locate``, which so
    check each other; then 16 000 levels deep on harmonious d=2 against
    ``linear_locate`` alone, as ``fraction_locate``'s cost is quadratic
    in the depth."""
    rng = random.Random(21)
    rules = [("harmonious d=2", generate("harmonious", 2)), ("harmonious d=3", generate("harmonious", 3)),
             ("peano d=2", generate("peano", 2)), ("peano d=3", generate("peano", 3)),
             ("meander2d", builtin_fixed("meander2d")), (UNEVEN_RULES[3], parse_definition(UNEVEN_RULES[3]))]
    for label, defn in rules:
        for depth in range(201):
            n = len(defn.entries) ** depth
            for t in (F(n - 1, n), F(2 * rng.randrange(n) + 1, 2 * n)):
                want = fraction_locate(defn, t, depth)
                assert linear_locate(defn, t, depth) == want, (label, depth, t)
                assert locate(defn, t, depth) == want, (label, depth, t)
    h = generate("harmonious", 2)
    for t in (F(1, 3), F(rng.randrange(4**16000), 4**16000)):
        assert locate(h, t, 16000) == linear_locate(h, t, 16000), t


def test_derived_permutations_equal_their_checked_rebuilds():
    """The cube symmetries, the states a depth-2 walk meets, ``compose``,
    ``inverse``, ``reversed``, ``transformed`` and the squared entries."""
    rng, built = random.Random(3), []
    for d in range(1, 5):
        built += _cube_symmetries(d)
    for _, defn in differential_rules():
        table = _table(defn)
        assert len(list(iter_path(defn, 2))) == len(defn) ** 2
        p, q = rng.choices(table.states, k=2)
        built += table.states + [p.compose(q), p.inverse(), *defn.reversed().entries]
        built += defn.transformed(p).entries
    for kind, d in (("z", 2), ("peano", 2), ("harmonious", 3), ("inside-out", 3)):
        built += squared_definition(generate(kind, d)).entries
    assert [p for p in built if SignedPermutation(p.entries, p.reverse) != p] == []


def test_one_rule_object_serves_every_operation_like_fresh_ones():
    """The rule's cached table is shared by ``locate``, ``iter_path``,
    ``cell_units`` and the squaring descent."""
    defn = generate("harmonious", 3)
    assert any(e.reverse for e in defn.entries)
    t = F(5, 17)

    def run(rule):
        return (
            locate(rule, t, 6),
            tuple(iter_path(rule, 2, "first")),
            format_definition(squared_definition(rule)),
            locate(rule, t, 12, "minus"),
            tuple(iter_path(rule, 3, "corner")),
            cell_units(rule),
        )

    want = [
        locate(generate("harmonious", 3), t, 6),
        tuple(iter_path(generate("harmonious", 3), 2, "first")),
        format_definition(squared_definition(generate("harmonious", 3))),
        locate(generate("harmonious", 3), t, 12, "minus"),
        tuple(iter_path(generate("harmonious", 3), 3, "corner")),
        cell_units(generate("harmonious", 3)),
    ]
    assert list(run(defn)) == want
    assert list(run(defn)) == want
    table = _table(defn)
    assert table is _table(defn)
    assert table.states[table.root] == SignedPermutation.identity(3)


def test_cached_table_leaves_equality_hash_repr_and_pickle_alone():
    import copy
    import pickle

    fresh = generate("peano", 3)
    defn = generate("peano", 3)
    before = (hash(defn), repr(defn))
    locate(defn, F(1, 3), 8)
    assert defn.fills_cube
    assert "_table" in vars(defn)
    assert (hash(defn), repr(defn)) == before
    assert defn == fresh and fresh == defn
    for back in (pickle.loads(pickle.dumps(defn)), copy.deepcopy(defn), copy.copy(defn)):
        assert back == defn
        assert repr(back) == repr(defn)
        assert "_table" not in vars(back)
        assert locate(back, F(1, 3), 8) == locate(fresh, F(1, 3), 8)


def test_table_interns_only_the_states_it_meets():
    defn = generate("harmonious", 6)
    locate(defn, F(1, 3), 2)
    table = _table(defn)
    built = [r for r in table.rows if r is not None]
    assert len(built) == 2  # one row per level descended
    assert len(table.states) <= 1 + 2 * len(defn.entries)


class _YieldingDict(dict):
    """A dict that lets other threads run between a lookup and its
    caller's next step, to widen any window between looking a state up
    and interning it."""

    def get(self, key, default=None):
        found = super().get(key, default)
        time.sleep(1e-4)
        return found


def test_threads_sharing_a_rule_intern_each_state_once():
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    ts = [F(k, 211) for k in range(211)]
    want = [locate(generate("butz", 4), t, 9) for t in ts]
    defn = generate("butz", 4)
    table = _table(defn)
    table._ids = _YieldingDict(table._ids)
    start = threading.Barrier(8)

    def work(k):
        start.wait(timeout=60)
        return [locate(defn, t, 9) for t in ts[k:] + ts[:k]]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            runs = list(pool.map(work, range(8), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for k, got in enumerate(runs):
        assert got == want[k:] + want[:k]
    assert len(set(table.states)) == len(table.states)
    assert all(table._ids[st.entries, st.reverse] == i for i, st in enumerate(table.states))


# -- deep locate: memory and time ---------------------------------------------


def _locate_peak(defn, depth):
    tracemalloc.start()
    try:
        locate(defn, F(1, 3), depth)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_locate_memory_grows_linearly():
    """Doubling the depth at most about doubles the peak: the halves of
    a descent hold O(depth) ints between them, whatever the depth."""
    defn = generate("harmonious", 2)
    locate(defn, F(1, 3), 30)  # the table's rows, built once
    small, large = _locate_peak(defn, 4000), _locate_peak(defn, 8000)
    assert large <= 2.5 * small, (small, large)


def per_digit_locate(defn, t, depth):
    """``locate`` on the plus side, taking the index apart by one
    division per digit and descending one level per digit, each level's
    offset added to the point by Horner's rule: the timing reference."""
    D = len(defn.entries)
    i = t.numerator * D**depth // t.denominator
    digits = [0] * depth
    for e in range(depth - 1, -1, -1):
        i, digits[e] = divmod(i, D)
    table = _table(defn)
    pos, state = [0] * table.d, table.root
    for k in digits:
        off, state = table.descend(k, 1, state)
        pos = [x * table.s + o for x, o in zip(pos, off)]
    unit = 2 * table.m * defn.scale**depth
    return tuple(F(x, unit) for x in pos)


def test_deep_locate_takes_a_fraction_of_the_per_digit_time():
    """The halving descent takes half the index off with each division;
    one division per digit makes the time grow with the square of the
    depth."""
    h = generate("harmonious", 2)

    def best(find):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            find(h, F(1, 3), 16000)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert 3 * best(locate) < best(per_digit_locate)


@pytest.mark.parametrize("depth", [2.0, 1.5, True, "2"], ids=repr)
def test_every_depth_taking_entry_refuses_a_depth_that_is_not_an_int(depth):
    h, z = generate("harmonious", 2), generate("z", 2)
    calls = [
        lambda: next(iter_path(h, depth)),
        lambda: next(iter_path(z, depth, "corner", cells=True)),
        lambda: next(iter_squared_path(z, depth)),
        lambda: generate_path(h, depth),
        lambda: generate_full_path(h, depth),
        lambda: squared_path(z, depth),
        lambda: locate(h, F(1, 3), depth),
        lambda: locate(h, F(1, 3), depth, "minus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^depth must be an int, got {depth!r}$"):
            call()
