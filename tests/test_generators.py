"""The sixteen families against their printed forms and stated rules."""

import hashlib
from collections.abc import Callable
from fractions import Fraction
from importlib import resources
from math import comb

import pytest

from traversals import generators
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
from traversals.notation import (
    Move,
    SignedPermutation,
    TraversalDefinition,
    Vector,
    format_definition,
    parse_definition,
)

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


# -- the G2 builder against the centre-based generators ----------------------
#
# The nine G2(d) generators as they were before the shared builder, verbatim
# (bar the absolute import of ``gray``): each built 2^d Fraction centres
# through ``bitmatrix.gray`` and compared their coordinates with 0.


def _digits(n: int, base: int, d: int) -> tuple[int, ...]:
    """Digits of n in the given base; index j-1 is the j-th least significant."""
    out = []
    for _ in range(d):
        out.append(n % base)
        n //= base
    return tuple(out)


def _centre_from_bits(bits: tuple[int, ...]) -> Vector:
    q = Fraction(1, 4)
    return tuple(q if b else -q for b in bits)


def _gray_centres(d: int) -> list[Vector]:
    from traversals.bitmatrix import gray

    return [
        _centre_from_bits(_digits(gray(i), 2, d)) for i in range(2**d)
    ]

def gen_u(d: int) -> TraversalDefinition:
    """Reflected-Gray base pattern, identical forward copy in every cell."""
    ident = SignedPermutation.identity(d)
    return TraversalDefinition.from_moves([ident] * 2**d, gen_base_pattern(2, d))


def gen_gray(d: int) -> TraversalDefinition:
    """Identity copies, reversed in every second cell."""
    entries = [
        SignedPermutation.identity(d, reverse=bool(i & 1)) for i in range(2**d)
    ]
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def _signs_entry(signs: list[int], reverse: bool) -> SignedPermutation:
    return SignedPermutation(
        tuple(s * (j + 1) for j, s in enumerate(signs)), reverse
    )


def gen_double_gray(d: int) -> TraversalDefinition:
    """Reflections through the bisecting planes, reversed in even cells."""
    entries = []
    for i, c in enumerate(_gray_centres(d)):
        signs = [-1 if x > 0 else 1 for x in c]
        entries.append(_signs_entry(signs, reverse=bool(i & 1)))
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def gen_inside_out(d: int) -> TraversalDefinition:
    """Like Double-Gray but with end points pulled into the interior."""
    entries = []
    for i, c in enumerate(_gray_centres(d)):
        signs = [1 if x > 0 else -1 for x in c]
        entries.append(_signs_entry(signs, reverse=bool(i & 1)))
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def _harmonious_signs(perm: list[int], c: Vector) -> list[int]:
    out = []
    for p in perm:
        if p == 1:
            out.append(1 if c[0] > 0 else -1)
        else:
            out.append(-1 if c[p - 1] > 0 else 1)
    return out


def gen_base_camp(d: int) -> TraversalDefinition:
    """Inside-out with the first and last entries swapped axis-wise.

    First and last entry exchange axes 1 and d; the first is also
    reflected in every axis, which makes the whole order continuous.
    """
    centres = _gray_centres(d)
    entries = []
    D = 2**d
    for i in range(1, D + 1):
        if i == 1:
            perm = [d] + list(range(2, d)) + [1] if d > 1 else [1]
            entries.append(SignedPermutation(tuple(perm)))
        elif i == D:
            perm = [-d] + [-j for j in range(2, d)] + [1] if d > 1 else [-1]
            entries.append(SignedPermutation(tuple(perm), reverse=True))
        else:
            c = centres[i - 1]
            signs = [1 if x > 0 else -1 for x in c]
            entries.append(_signs_entry(signs, reverse=i % 2 == 0))
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def gen_harmonious(d: int) -> TraversalDefinition:
    """The Hilbert generalization that recurses on cube facets.

    Entry i starts from the axis-reversing permutation (d,...,1) and
    pulls to the front, in order, all axes whose digit of i-1 equals the
    lowest digit; signs follow the centre, and every odd entry runs
    backwards.
    """
    centres = _gray_centres(d)
    entries = []
    for i in range(1, 2**d + 1):
        r = _digits(i - 1, 2, d)
        start = list(range(d, 0, -1))
        front = [j for j in start if r[j - 1] == r[0]]
        back = [j for j in start if r[j - 1] != r[0]]
        perm = front + back
        signs = _harmonious_signs(perm, centres[i - 1])
        entries.append(
            SignedPermutation(
                tuple(s * p for s, p in zip(signs, perm)), reverse=i % 2 == 1
            )
        )
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def _alfa_beta_perm(i: int, d: int) -> list[int]:
    """Unsigned permutation shared by the Alfa and Beta curves.

    Built from an extended digit table r'[-1..d] of i-1; position j gets
    the smallest index h > d-j-1 whose digit matches the digit at
    d-j-1.  The override of r'[d-1] for the last eighth of the entries
    ("all of the top three digits set") only applies from d = 3 up.
    """
    D = 2**d
    r = _digits(i - 1, 2, d)
    rp = {-1: r[0], 0: 1 - r[0]}
    for j in range(1, d - 1):
        rp[j] = r[j - 1]
    if d >= 3 and 8 * i > 7 * D:
        rp[d - 1] = 0
    elif d >= 2:
        rp[d - 1] = r[d - 2]
    rp[d] = 1 - rp[d - 1]
    perm = []
    for j in range(1, d + 1):
        target = rp[d - j - 1]
        h = d - j
        while rp[h] != target:
            h += 1
        perm.append(h)
    return perm


def _apply_end_corrections(entry: SignedPermutation, d: int) -> SignedPermutation:
    """Swap the two highest positions, negate the last, flip direction."""
    ent = list(entry.entries)
    if d >= 2:
        ent[d - 2], ent[d - 1] = ent[d - 1], ent[d - 2]
    ent[d - 1] = -ent[d - 1]
    return SignedPermutation(tuple(ent), not entry.reverse)


def gen_alfa(d: int) -> TraversalDefinition:
    """Hyperorthogonal Hilbert variant ending in cube vertices."""
    centres = _gray_centres(d)
    D = 2**d
    entries = []
    for i in range(1, D + 1):
        perm = _alfa_beta_perm(i, d)
        signs = _harmonious_signs(perm, centres[i - 1])
        entry = SignedPermutation(
            tuple(s * p for s, p in zip(signs, perm)), reverse=i % 2 == 1
        )
        if 1 < i < D:
            entry = _apply_end_corrections(entry, d)
        entries.append(entry)
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def gen_beta(d: int) -> TraversalDefinition:
    """Hyperorthogonal Hilbert variant ending on cube facets; needs d >= 3."""
    if d < 3:
        raise BetaUndefinedError(f"the Beta curve is undefined for d={d}")
    centres = _gray_centres(d)
    D = 2**d
    entries = []
    for i in range(1, D + 1):
        perm = _alfa_beta_perm(i, d)
        c = centres[i - 1]
        signs = [1 if c[p - 1] > 0 else -1 for p in perm]
        entry = SignedPermutation(
            tuple(s * p for s, p in zip(signs, perm)), reverse=i % 2 == 1
        )
        if i == 1 or i == D:
            entry = _apply_end_corrections(entry, d)
        entries.append(entry)
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


def gen_butz(d: int) -> TraversalDefinition:
    """The classic rotation-based Hilbert generalization.

    Entry i rotates the axes by k places, where k is the lowest digit
    position of i-1 that differs from the lowest digit (1 when all
    digits agree); signs and reversals as for the harmonious curve.
    """
    centres = _gray_centres(d)
    entries = []
    for i in range(1, 2**d + 1):
        r = _digits(i - 1, 2, d)
        k = 1
        for j in range(2, d + 1):
            if r[j - 1] != r[0]:
                k = j
                break
        perm = [(j + k - 1) % d + 1 for j in range(1, d + 1)]
        signs = _harmonious_signs(perm, centres[i - 1])
        entries.append(
            SignedPermutation(
                tuple(s * p for s, p in zip(signs, perm)), reverse=i % 2 == 1
            )
        )
    return TraversalDefinition.from_moves(entries, gen_base_pattern(2, d))


G2_ORACLE = {
    "u": gen_u,
    "gray": gen_gray,
    "double-gray": gen_double_gray,
    "inside-out": gen_inside_out,
    "base-camp": gen_base_camp,
    "harmonious": gen_harmonious,
    "alfa": gen_alfa,
    "beta": gen_beta,
    "butz": gen_butz,
}


@pytest.mark.parametrize("kind", G2_ORACLE)
def test_g2_builder_matches_the_centre_based_generators(kind):
    old = G2_ORACLE[kind]
    new = getattr(generators, old.__name__)
    for d in range(1, 9):
        if kind == "beta" and d < 3:
            for build in (old, new, lambda d: generate(kind, d)):
                with pytest.raises(BetaUndefinedError, match=f"undefined for d={d}"):
                    build(d)
            continue
        want = old(d)
        for got in (new(d), generate(kind, d)):
            assert got == want, (kind, d)
            assert repr(got) == repr(want), (kind, d)


# -- the simplex builder against the two orders it replaced --------------------
#
# Hill-Z and Maehara as they were before the shared builder, verbatim but
# for the names of the two generators.


def _hill_centres(d: int) -> list[Vector]:
    """Tile-box centres shared by the Hill-Z and Maehara orders.

    Coordinate j of the i-th centre is +1/4 when j does not exceed the
    number of one-digits of i-1, else -1/4.
    """
    q = Fraction(1, 4)
    out = []
    for i in range(2**d):
        ones = bin(i).count("1")
        out.append(tuple(q if j < ones else -q for j in range(d)))
    return out


def old_gen_hill_z(d: int) -> TraversalDefinition:
    """Order on Freudenthal's simplex subdivision, in the style of Z.

    Entry i sorts the binary digits of i-1: position j maps to the rank
    of its digit among equal digits (ones count from the left, zeros
    from the right).  No reflections, no reversals.
    """
    entries = []
    for i in range(2**d):
        r = _digits(i, 2, d)
        perm = []
        for j in range(1, d + 1):
            if r[j - 1] == 1:
                perm.append(sum(r[: j]))
            else:
                perm.append(d - sum(1 - r[h - 1] for h in range(j + 1, d + 1)))
        entries.append(SignedPermutation(tuple(perm)))
    return TraversalDefinition.from_centres(entries, _hill_centres(d))


def old_gen_maehara(d: int) -> TraversalDefinition:
    """Order on Maehara's orthoscheme bisection, by the direct formula.

    Same centres as Hill-Z; one-digits get negated reversed ranks, and
    every second entry is reversed.
    """
    entries = []
    for i in range(2**d):
        r = _digits(i, 2, d)
        perm = []
        for j in range(1, d + 1):
            if r[j - 1] == 1:
                perm.append(-sum(r[h - 1] for h in range(j, d + 1)))
            else:
                perm.append(d - sum(1 - r[h - 1] for h in range(j + 1, d + 1)))
        entries.append(SignedPermutation(tuple(perm), reverse=bool(r[0])))
    return TraversalDefinition.from_centres(entries, _hill_centres(d))


@pytest.mark.parametrize("kind, old", [("hill-z", old_gen_hill_z), ("maehara", old_gen_maehara)])
def test_simplex_builder_matches_the_digit_sum_generators(kind, old):
    new = getattr(generators, old.__name__[len("old_"):])
    for d in range(1, 9):
        want = old(d)
        for got in (new(d), generate(kind, d)):
            assert got == want, (kind, d)
            assert repr(got) == repr(want), (kind, d)


# sha256 of the reprs of generate(kind, d) for d = 1..8 (Beta from 3, the
# Peano family to 5), concatenated in ascending d: the rules as they were
# built before the G2 builder, first 16 hex digits.
RULE_DIGESTS = {
    "z": "78171d00c1f4d42a",
    "u": "ea49cb3611549804",
    "gray": "d5627a41f4db77ff",
    "double-gray": "c6cc2d9db72c9d3d",
    "inside-out": "9a15a0d0d5716597",
    "hill-z": "b431963885b8f52e",
    "maehara": "1bb71c2e2cc3c0d2",
    "base-camp": "68aa2ffdcf0b416d",
    "harmonious": "f92c1a25fa85c7bf",
    "alfa": "98a5f42561c4f094",
    "beta": "e834ed2557a983e3",
    "butz": "21f5cf06989bb82e",
    "peano": "23133bfe6f863653",
    "coil": "d7ecec0dd46055bc",
    "half-coil": "4578b607ee30e999",
    "meurthe": "2844a2244a9424b1",
}


def test_every_family_rule_keeps_its_repr():
    assert list(RULE_DIGESTS) == [k.value for k in TraversalKind]
    for kind, digest in RULE_DIGESTS.items():
        top = 5 if kind in ("peano", "coil", "half-coil", "meurthe") else 8
        h = hashlib.sha256()
        for d in range(3 if kind == "beta" else 1, top + 1):
            h.update(repr(generate(kind, d)).encode())
        assert h.hexdigest()[:16] == digest, kind


# -- shared pattern halves against the per-family builders --------------------
#
# The builders as they were before the families shared one pattern half per
# (pattern, d), verbatim but for their names and the ``generators.`` prefix of
# two helpers: each rule rebuilt its moves and centres through ``from_moves``
# or ``from_centres``.  Z, U and the Peano family are copied whole; the other
# families keep the module's own entry formulas, which the test runs through
# these copies of ``_g2_rule`` and ``_simplex_rule``.


def old_gen_base_pattern(base: int, d: int) -> tuple[Move, ...]:
    """The reflected Gray-code move pattern G2(d) or G3(d).

    G2(k) concatenates G2(k-1), a step along axis k, and the reverse of
    G2(k-1) (order flipped, signs negated).  G3(k) concatenates G3(k-1),
    a step along k, the reverse, another step along k, and G3(k-1) once
    more.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if base not in (2, 3):
        raise ValueError("base pattern exists for bases 2 and 3")
    seq: list[Move] = []
    for k in range(1, d + 1):
        rev = [m.negated() for m in reversed(seq)]
        if base == 2:
            seq = seq + [Move((k,))] + rev
        else:
            seq = seq + [Move((k,))] + rev + [Move((k,))] + list(seq)
    return tuple(seq)


def old_zigzag_pattern(d: int) -> tuple[Move, ...]:
    """Move list of the Z-traversal: binary increment with borrows."""
    moves = []
    for i in range(1, 2**d):
        steps = []
        n = i - 1
        j = 1
        while n & 1:
            steps.append(-j)
            n >>= 1
            j += 1
        steps.append(j)
        moves.append(Move(tuple(steps)))
    return tuple(moves)


def old_g2_rule(
    d: int, entry: Callable[[int, tuple[int, ...], tuple[int, ...]], SignedPermutation]
) -> TraversalDefinition:
    """The rule on G2(d) whose i-th entry, i = 1..2^d, is ``entry(i, r, g)``.

    ``r`` holds the binary digits of i-1 and ``g`` its Gray bits, both
    lowest first.  G2(d) visits the tiles in reflected Gray order, so
    tile i lies on the high side of axis j exactly when ``g[j-1]`` is 1.
    """
    entries = []
    for i in range(1, 2**d + 1):
        n = i - 1
        entries.append(entry(i, _digits(n, 2, d), _digits(n ^ (n >> 1), 2, d)))
    return TraversalDefinition.from_moves(entries, old_gen_base_pattern(2, d))


def old_gen_z(d: int) -> TraversalDefinition:
    """Bit-interleaving order: identity entries along a zig-zag pattern."""
    ident = SignedPermutation.identity(d)
    return TraversalDefinition.from_moves([ident] * 2**d, old_zigzag_pattern(d))


def old_gen_u(d: int) -> TraversalDefinition:
    """Reflected-Gray base pattern, identical forward copy in every cell."""
    ident = SignedPermutation.identity(d)
    return old_g2_rule(d, lambda i, r, g: ident)


def old_simplex_rule(
    d: int, one_rank: Callable[[int, int], int], reverse_odd: bool
) -> TraversalDefinition:
    """The Hill-Z or Maehara order: entry i sorts the binary digits of i.

    With k one-digits up to position j, of ``ones`` in all, a one-digit
    there maps to ``one_rank(k, ones)`` and a zero-digit to d minus the
    zero-digits after it; with ``reverse_odd`` odd entries are reversed.
    Coordinate j of centre i is +1/4 when j < ``ones``, else -1/4.
    """
    q = Fraction(1, 4)
    entries, centres = [], []
    for i in range(2**d):
        r = _digits(i, 2, d)
        ones, k, perm = sum(r), 0, []
        for j, digit in enumerate(r, 1):
            k += digit
            perm.append(one_rank(k, ones) if digit else j + ones - k)
        entries.append(SignedPermutation(tuple(perm), reverse=reverse_odd and i % 2 == 1))
        centres.append(tuple(q if j < ones else -q for j in range(d)))
    return TraversalDefinition.from_centres(entries, centres)


def old_gen_peano_family(variant: str | TraversalKind, d: int) -> TraversalDefinition:
    """The four order-preserving traversals on the 3^d subdivision.

    All follow the ternary reflected Gray pattern and differ only in the
    unsigned permutations: Peano uses the identity everywhere, Coil the
    axis reversal, Half-coil alternates the two, and Meurthe pushes the
    axes with ternary digit 0 or 1 to the back in reversed relative
    order.  Signs flip wherever the axis digit and the digit sum have
    different parity; no entry is ever reversed.
    """
    kind = TraversalKind(variant) if not isinstance(variant, TraversalKind) else variant
    if generators._scale(kind) != 3:
        raise ValueError(f"{kind} is not a scale-3 variant")
    entries = []
    for i in range(1, 3**d + 1):
        t = _digits(i - 1, 3, d)
        if kind is TraversalKind.PEANO:
            perm = list(range(1, d + 1))
        elif kind is TraversalKind.COIL:
            perm = list(range(d, 0, -1))
        elif kind is TraversalKind.HALF_COIL:
            perm = list(range(d, 0, -1)) if i % 2 == 1 else list(range(1, d + 1))
        else:
            keep = [j for j in range(1, d + 1) if t[j - 1] == 2]
            moved = [j for j in range(d, 0, -1) if t[j - 1] in (0, 1)]
            perm = keep + moved
        signs = generators._peano_signs(perm, t)
        entries.append(
            SignedPermutation(tuple(s * p for s, p in zip(signs, perm)))
        )
    return TraversalDefinition.from_moves(
        entries, old_gen_base_pattern(3, d), scale=3
    )


def _family_keys():
    """Every (kind, d) at d = 1..8 (Beta from 3, the Peano family to 5),
    ascending d first, so the patterns of one d are built side by side."""
    for d in range(1, 9):
        for kind in TraversalKind:
            if (kind.value != "beta" or d >= 3) and (generators._scale(kind) == 2 or d <= 5):
                yield kind, d


def test_shared_pattern_halves_match_the_per_family_builders(monkeypatch):
    new = {key: generate(*key) for key in _family_keys()}
    monkeypatch.setattr(generators, "_g2_rule", old_g2_rule)
    monkeypatch.setattr(generators, "_simplex_rule", old_simplex_rule)
    for (kind, d), got in new.items():
        if kind in (TraversalKind.Z, TraversalKind.U):
            want = old_gen_z(d) if kind is TraversalKind.Z else old_gen_u(d)
        elif generators._scale(kind) == 3:
            want = old_gen_peano_family(kind, d)
        else:
            want = generators._GENERATORS[kind](d)
        assert got == want, (kind, d)
        assert repr(got) == repr(want), (kind, d)
        assert format_definition(got) == format_definition(want), (kind, d)


def test_families_on_one_pattern_share_its_half():
    u, harmonious = generate("u", 4), generate("harmonious", 4)
    assert u.moves is harmonious.moves and u.centres is harmonious.centres
    assert u.moves is gen_base_pattern(2, 4)
    assert generate("peano", 3).moves is generate("meurthe", 3).moves
    assert generate("hill-z", 3).centres is generate("maehara", 3).centres
    assert u.entries != harmonious.entries


def test_a_pattern_half_refuses_entries_of_the_wrong_count_or_dimension():
    with pytest.raises(ValueError, match="inconsistent entry lengths"):
        generators._g2_rule(2, lambda i, r, g: SignedPermutation.identity(3))
    half, _ = generators._pattern("G3", 2)
    with pytest.raises(ValueError, match="one entry per tile"):
        generators._on(half, list(half.entries[1:]))


BUILDERS_OF_D = {
    "generate": lambda d: generate("z", d),
    "gen_base_pattern": lambda d: gen_base_pattern(2, d),
    "gen_peano_family": lambda d: generators.gen_peano_family("coil", d),
    "gen_maehara_recursive": gen_maehara_recursive,
}


@pytest.mark.parametrize("build", BUILDERS_OF_D.values(), ids=list(BUILDERS_OF_D))
@pytest.mark.parametrize("d", [True, False, 2.0, 1.0, "2", None])
def test_a_d_that_is_not_an_int_is_refused_before_the_cache(build, d):
    # True used to give the d=1 rule, 2.0 a bare TypeError; behind the
    # cache 2.0 would find the entry of 2.
    for good in (1, 2):
        build(good)
    before = generators._built_pattern.cache_info()
    with pytest.raises(ValueError) as info:
        build(d)
    assert str(info.value) == f"d must be an int, got {d!r}"
    after = generators._built_pattern.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@pytest.mark.parametrize("d", [True, False, 2.0, 3.0, "3", None])
def test_beta_refuses_a_d_that_is_not_an_int(d):
    # True and 2.0 used to pass the int check's place to ``d < 3`` and
    # were refused as an undefined Beta curve.
    with pytest.raises(ValueError) as info:
        generators.gen_beta(d)
    assert type(info.value) is ValueError
    assert str(info.value) == f"d must be an int, got {d!r}"
    with pytest.raises(BetaUndefinedError, match="undefined for d=2"):
        generators.gen_beta(2)


def test_only_pattern_halves_up_to_the_tile_bound_are_cached(monkeypatch):
    monkeypatch.setattr(generators, "_MAX_CACHED_TILES", 9)
    generators._built_pattern.cache_clear()
    for name in ("G2", "G3", "ZigZag", "simplex"):  # 4 or 9 tiles: kept
        assert generators._pattern(name, 2) is generators._pattern(name, 2)
    big = generators._pattern("G2", 4)  # 16 tiles: built per call
    assert big is not generators._pattern("G2", 4)
    assert big == generators._pattern("G2", 4)
    assert generators._built_pattern.cache_info().currsize == 4
    u = generate("u", 4)
    monkeypatch.setattr(generators, "_MAX_CACHED_TILES", 2**12)
    assert repr(u) == repr(generate("u", 4))
    generators._built_pattern.cache_clear()
