"""The sixteen families against their printed forms and stated rules."""

from importlib import resources
from math import comb

import pytest

from traversals.engine import generate_full_path
from traversals.generators import (
    BetaUndefinedError,
    FIXED_NAMES,
    TraversalKind,
    builtin_fixed,
    gen_base_pattern,
    gen_maehara,
    gen_maehara_recursive,
    generate,
)
from traversals.notation import Move, format_definition, parse_definition

ALL_D3_GOLDENS = [
    ("z", "z_d3.txt"),
    ("u", "u_d3.txt"),
    ("gray", "gray_d3.txt"),
    ("double-gray", "double-gray_d3.txt"),
    ("inside-out", "inside-out_d3.txt"),
    ("hill-z", "hill-z_d3.txt"),
    ("maehara", "maehara_d3.txt"),
    ("base-camp", "base-camp_d3.txt"),
    ("harmonious", "harmonious_d3.txt"),
    ("alfa", "alfa_d3.txt"),
    ("beta", "beta_d3.txt"),
    ("butz", "butz_d3.txt"),
    ("peano", "peano_d3.txt"),
    ("coil", "coil_d3.txt"),
    ("half-coil", "half-coil_d3.txt"),
    ("meurthe", "meurthe_d3.txt"),
]


@pytest.mark.parametrize("kind,fname", ALL_D3_GOLDENS)
def test_printed_three_dimensional_definitions(kind, fname, golden):
    assert format_definition(generate(kind, 3)) == golden(fname)


# -- base patterns -------------------------------------------------------


def test_g2_patterns():
    assert gen_base_pattern(2, 1) == (Move((1,)),)
    assert gen_base_pattern(2, 3) == tuple(
        Move((s,)) for s in (1, 2, -1, 3, 1, -2, -1)
    )


def test_g3_pattern_two_dimensions():
    assert gen_base_pattern(3, 2) == tuple(
        Move((s,)) for s in (1, 1, 2, -1, -1, 2, 1, 1)
    )


def test_base_pattern_lengths():
    for d in range(1, 7):
        assert len(gen_base_pattern(2, d)) == 2**d - 1
    for d in range(1, 5):
        assert len(gen_base_pattern(3, d)) == 3**d - 1


def test_well_folded_kinds_follow_g2():
    for kind in ("u", "gray", "double-gray", "inside-out", "base-camp",
                 "harmonious", "alfa", "butz"):
        for d in range(1, 7):
            assert generate(kind, d).moves == gen_base_pattern(2, d), (kind, d)
    for d in range(3, 7):
        assert generate("beta", d).moves == gen_base_pattern(2, d)


def test_peano_family_follows_g3():
    for kind in ("peano", "coil", "half-coil", "meurthe"):
        for d in range(1, 5):
            assert generate(kind, d).moves == gen_base_pattern(3, d), (kind, d)


# -- Z ---------------------------------------------------------------------


def test_z_one_dimension():
    assert format_definition(generate("z", 1)) == "[1} 1 [1}"


def test_z_two_dimensions():
    defn = generate("z", 2)
    assert all(e.is_identity() and not e.reverse for e in defn.entries)
    assert defn.moves == (Move((1,)), Move((-1, 2)), Move((1,)))


def test_quadrant_kinds_use_identity_permutations():
    for kind in ("z", "u", "gray", "double-gray", "inside-out"):
        for d in (1, 2, 3, 4):
            for e in generate(kind, d).entries:
                assert e.unsigned() == tuple(range(1, d + 1)), (kind, d)


# -- simplex kinds -----------------------------------------------------------


def test_hill_z_two_dimensions():
    assert format_definition(generate("hill-z", 2)) == "[1 2} 1 [1 2} [2 1} 2 [1 2}"


def test_hill_z_entry_multiplicities_are_binomial():
    for d in (2, 3, 4, 5):
        defn = generate("hill-z", d)
        counts = {}
        for c in defn.centres:
            counts[c] = counts.get(c, 0) + 1
        by_ones = sorted(counts.items(), key=lambda kv: sum(x > 0 for x in kv[0]))
        assert [n for _, n in by_ones] == [comb(d, h) for h in range(d + 1)]


def test_hill_z_centre_sign_rows_d3():
    # sorting the binary digits of i-1 gives the published sign rows
    signs = [
        tuple(1 if x > 0 else -1 for x in c) for c in generate("hill-z", 3).centres
    ]
    assert signs == [
        (-1, -1, -1),
        (1, -1, -1),
        (1, -1, -1),
        (1, 1, -1),
        (1, -1, -1),
        (1, 1, -1),
        (1, 1, -1),
        (1, 1, 1),
    ]


def test_hill_z_move_row_d3():
    moves = [tuple(m.steps) for m in generate("hill-z", 3).moves]
    assert moves == [(1,), (), (2,), (-2,), (2,), (), (3,)]


def test_hill_z_has_no_reflections_or_reversals():
    for d in (1, 2, 3, 4):
        for e in generate("hill-z", d).entries:
            assert all(v > 0 for v in e.entries)
            assert not e.reverse


def test_maehara_one_and_two_dimensions(golden):
    assert format_definition(gen_maehara(1)) == golden("maehara_d1.txt")
    assert format_definition(gen_maehara(2)) == golden("maehara_d2.txt")


def test_maehara_recursive_equals_direct():
    for d in range(1, 7):
        assert gen_maehara_recursive(d) == gen_maehara(d), d


def test_maehara_two_dimensional_is_the_polya_curve():
    assert format_definition(gen_maehara(2)) == format_definition(
        builtin_fixed("polya2d")
    )


def test_maehara_reversal_parity():
    for d in (2, 3, 4):
        for i, e in enumerate(generate("maehara", d).entries, start=1):
            assert e.reverse == bool((i - 1) & 1)


# -- Hilbert generalizations --------------------------------------------------


def test_base_camp_boundary_entries():
    d2 = generate("base-camp", 2)
    assert str(d2.entries[0]) == "[2 1}"
    assert str(d2.entries[-1]) == "{-2 1]"
    d1 = generate("base-camp", 1)
    assert format_definition(d1) == "[1} 1 {-1]"


def test_harmonious_first_entry_reverses_all_axes():
    for d in (2, 3, 4, 5):
        first = generate("harmonious", d).entries[0]
        assert first.unsigned() == tuple(range(d, 0, -1))


def test_butz_rotation_when_all_digits_equal():
    for d in (2, 3, 4):
        first = generate("butz", d).entries[0]
        assert first.unsigned() == tuple(
            (j + 1) % d + 1 for j in range(d)
        )


def test_beta_undefined_below_three_dimensions():
    with pytest.raises(BetaUndefinedError):
        generate("beta", 2)
    with pytest.raises(BetaUndefinedError):
        generate("beta", 1)


def _paths_equal(a, b, depth):
    return (
        generate_full_path(a, depth, "corner").points
        == generate_full_path(b, depth, "corner").points
    )


def test_hilbert_generalizations_coincide_for_low_dimensions():
    """At d = 1 and d = 2 all the Hilbert generalizations are one curve.

    The emitted token forms differ (symmetric sub-curves may be written
    forward or reversed), so coincidence is checked as pointwise path
    equality at depths 1..3, which pins every entry's geometry.
    """
    for d in (1, 2):
        defs = [generate(k, d) for k in ("base-camp", "harmonious", "alfa", "butz")]
        for other in defs[1:]:
            for depth in (1, 2, 3):
                assert _paths_equal(defs[0], other, depth)


def test_harmonious_and_butz_share_tokens_at_low_dimensions():
    for d in (1, 2):
        assert generate("harmonious", d) == generate("butz", d)


def test_harmonious_two_dimensional_tokens():
    # the third entry reflects axis 2: {1 -2], which keeps the reversed
    # copy continuous with its neighbours
    assert (
        format_definition(generate("harmonious", 2))
        == "{2 -1] 1 [1 2} 2 {1 -2] -1 [-2 -1}"
    )


# -- Peano family --------------------------------------------------------------


def test_peano_family_has_no_reversals():
    for kind in ("peano", "coil", "half-coil", "meurthe"):
        for d in (1, 2, 3):
            assert all(not e.reverse for e in generate(kind, d).entries)


def test_peano_one_dimension_is_a_line():
    assert format_definition(generate("peano", 1)) == "[1} 1 [1} 1 [1}"


def test_coil_two_dimensions_hand_derived():
    expected = (
        "[2 1} 1 [-2 1} 1 [2 1} 2 [2 -1} -1 [-2 -1} -1 [2 -1} 2 "
        "[2 1} 1 [-2 1} 1 [2 1}"
    )
    assert format_definition(generate("coil", 2)) == expected


def test_meurthe_third_entry_d3():
    assert str(generate("meurthe", 3).entries[2]) == "[1 3 2}"


def test_peano_family_continuity_at_depth_two():
    from traversals.analysis import adjacency_profile

    for kind in ("peano", "coil", "half-coil", "meurthe"):
        for d in (2, 3):
            prof = adjacency_profile(
                generate_full_path(generate(kind, d), 2, "corner")
            )
            assert prof.other_steps == 0, (kind, d)


# -- fixed curves ----------------------------------------------------------------


def test_fixed_names_all_load():
    for name in FIXED_NAMES:
        defn = builtin_fixed(name)
        assert len(defn.entries) >= 4


def test_polya_definition_text():
    assert (
        format_definition(builtin_fixed("Polya2D"))
        == "[1 2} 1 {-1 2] [2 -1} 2 {-2 -1]"
    )


def test_meander_definition_text():
    text = format_definition(builtin_fixed("Meander2D"))
    assert text.startswith("[2 1} 1 [2 1}")
    assert len(builtin_fixed("Meander2D").entries) == 9


def test_sub8_centres_match_published_table():
    from fractions import Fraction as F

    defn = builtin_fixed("SUB8")
    assert defn.centres == (
        (F(-1, 4), F(-1, 2), F(0)),
        (F(1, 4), F(0), F(-1, 2)),
        (F(1, 4), F(0), F(1, 2)),
        (F(-1, 4), F(1, 2), F(0)),
        (F(0), F(0), F(-1, 4)),
        (F(0), F(1, 4), F(0)),
        (F(0), F(-1, 4), F(0)),
        (F(0), F(0), F(1, 4)),
    )
    assert all(not e.reverse for e in defn.entries)


def test_sub8_permutation_table():
    defn = builtin_fixed("SUB8")
    tail = [str(e) for e in defn.entries[4:]]
    assert tail == ["[3 2 -1}", "[-2 3 1}", "[2 3 1}", "[-3 2 -1}"]


def test_fixed_simplex_box_multiplicities_match_tiling_geometry():
    """Depth-2 box occupancies follow from the underlying tilings.

    For the right triangle over a 4x4 grid: 6 interior boxes hold two
    tiles, the 4 diagonal boxes one.  The prism repeats that in each of
    its 4 layers.  For the 3-d orthoscheme over 4x4x4: boxes strictly
    inside hold all 6 cube tiles, boxes on a bisecting plane hold 3,
    diagonal boxes 1.
    """
    from collections import Counter

    expected = {
        "polya2d": {2: 6, 1: 4},
        "prism3d": {2: 24, 1: 16},
        "palindromic-tetra": {6: 4, 3: 12, 1: 4},
    }
    for name, hist in expected.items():
        defn = builtin_fixed(name)
        path = generate_full_path(defn, 2, "corner")
        counts = Counter(path.points)
        assert dict(Counter(counts.values())) == hist, name


def test_bundled_files_parse_as_they_are():
    # each file opens with '#' comment lines, which parse_definition skips
    folder = resources.files("traversals") / "definitions"
    files = sorted(f.name for f in folder.iterdir() if f.name.endswith(".txt"))
    assert files == sorted(name.replace("-", "_") + ".txt" for name in FIXED_NAMES)
    for name in FIXED_NAMES:
        text = (folder / (name.replace("-", "_") + ".txt")).read_text()
        assert text.startswith("#"), name
        assert parse_definition(text) == builtin_fixed(name), name


@pytest.mark.parametrize("alias,name", [
    ("prismcurve3d", "prism3d"),
    ("Prism-3D", "prism3d"),
    ("palindromic_tetra", "palindromic-tetra"),
    ("PalindromicTetra", "palindromic-tetra"),
    ("POLYA_2D", "polya2d"),
])
def test_fixed_aliases_name_the_same_curve(alias, name):
    assert builtin_fixed(alias) == builtin_fixed(name)


def test_unknown_fixed_name():
    with pytest.raises(ValueError):
        builtin_fixed("sierpinski")


# -- round trips -------------------------------------------------------------------


def test_every_builtin_round_trips_through_text():
    kinds = [k.value for k in TraversalKind]
    for kind in kinds:
        for d in (1, 2, 3, 4):
            if kind == "beta" and d < 3:
                continue
            defn = generate(kind, d)
            assert parse_definition(format_definition(defn)).structurally_equal(defn)
    for name in FIXED_NAMES:
        defn = builtin_fixed(name)
        assert parse_definition(format_definition(defn)).structurally_equal(defn)
