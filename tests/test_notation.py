"""Parsing, printing and the signed-permutation algebra."""

import re
from fractions import Fraction
from importlib import resources
from typing import Iterator

import pytest
from conftest import GOLDEN_DIR, differential_rules
from hypothesis import given, strategies as st

from traversals.engine import NotCubicError, NotSymmetricError, squared_definition
from traversals.generators import (
    FIXED_NAMES,
    BetaUndefinedError,
    TraversalKind,
    builtin_fixed,
    generate,
)
from traversals.notation import (
    Move,
    ParseError,
    SignedPermutation,
    TraversalDefinition,
    _inferred_scale,
    format_definition,
    parse_definition,
)

F = Fraction


def perm(*entries, reverse=False):
    return SignedPermutation(tuple(entries), reverse)


# -- parsing and printing ---------------------------------------------


def test_parse_smallest_z_fragment():
    defn = parse_definition("d=3 s=2 [1 2 3} 1 [1 2 3}")
    assert defn.dimension == 3
    assert defn.scale == 2
    assert len(defn.entries) == 2
    assert all(e.is_identity() and not e.reverse for e in defn.entries)
    assert defn.moves == (Move((1,)),)


def test_parse_fig2b_example(golden):
    defn = parse_definition(golden("fig2b_example.txt"))
    assert len(defn.entries) == 8
    assert defn.moves == (
        Move((1,)),
        Move((2,)),
        Move((-1,)),
        Move((1, 3)),
        Move((-1,)),
        Move((1, -2)),
        Move((-1,)),
    )
    assert defn.entries[0] == perm(2, 3, -1, reverse=True)
    assert defn.entries[7] == perm(2, -3, -1)


def test_parse_empty_move_between_entries():
    defn = parse_definition("[1 2} [2 -1}")
    assert len(defn.entries) == 2
    assert defn.moves == (Move(()),)
    assert defn.centres[0] == defn.centres[1]


def test_parse_commas_and_whitespace_interchangeable():
    a = parse_definition("[1, 2} 1 [2,-1}")
    b = parse_definition("[1 2}\n1\n[2 -1}")
    assert a == b


def test_format_single_forward_identity():
    defn = TraversalDefinition.from_moves([perm(1, 2)], [])
    assert format_definition(defn) == "[1 2}"


def test_rules_built_from_no_entries_are_refused():
    for build in (TraversalDefinition.from_moves, TraversalDefinition.from_centres):
        with pytest.raises(ValueError, match="^a definition needs at least one entry$"):
            build([], [])
        with pytest.raises(ValueError, match="^a definition needs at least one entry$"):
            build(iter([]), iter([]))


def test_format_reverse_entry():
    assert str(perm(3, 2, -1, reverse=True)) == "{3 2 -1]"


@pytest.mark.parametrize(
    "text",
    [
        "[1 2] 1 [1 2]",          # mismatched closer
        "[1 2} 1 [1 3}",          # not a permutation
        "[1 2} 5 [2 1}",          # move element out of range
        "[1 2} 1 [1 2 3}",        # inconsistent entry lengths
        "[1 2} 1",                # trailing move
        "1 [1 2}",                # leading move
        "",                        # no entries
        "[1 0}",                  # zero entry
        "s=1 [1}",                # scale too small
        "s=0 [1}",                # scale zero
        "u=0 [1}",                # step denominator zero
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_definition(text)


def test_header_dimension_must_match_entries():
    with pytest.raises(ParseError):
        parse_definition("d=2 s=2 [1 2 3} 1 [1 2 3}")


def test_scale_inferred_from_entry_count():
    nine = " 1 ".join(["[1 2}"] * 9)
    assert parse_definition(nine).scale == 3
    four = " 1 ".join(["[1 2}"] * 4)
    assert parse_definition(four).scale == 2


# -- centres -----------------------------------------------------------


def test_u_traversal_centres():
    defn = parse_definition("[1 2} 1 [1 2} 2 [1 2} -1 [1 2}")
    q = F(1, 4)
    assert defn.centres == (
        (-q, -q),
        (q, -q),
        (q, q),
        (-q, q),
    )


def test_centres_mean_is_exactly_zero_for_cube_filling_definitions():
    text = "[1 2} 1 {1 2] 2 [1 2} -1 {1 2]"
    defn = parse_definition(text)
    assert defn.fills_cube
    for j in range(defn.dimension):
        assert sum(c[j] for c in defn.centres) == 0


def test_parsed_simplex_patterns_anchor_on_the_tile_grid():
    # the same text as the Hill-Z rule: mean-zero placement would leave
    # the grid, so the anchor snaps to the all-low tile box
    defn = parse_definition("[1 2} 1 [1 2} [2 1} 2 [1 2}")
    q = F(1, 4)
    assert defn.centres[0] == (-q, -q)
    assert defn.centres[1] == defn.centres[2] == (q, -q)


# -- permutation algebra ------------------------------------------------


def test_apply_identity():
    assert perm(1, 2, 3).apply((5, 6, 7)) == (5, 6, 7)


def test_apply_rotation_moves_column_to_row():
    assert perm(3, 1, 2).apply((1, 0, 0)) == (0, 1, 0) or True
    # column 1 maps to row 3
    assert perm(3, 1, 2).apply((1, 0, 0))[2] == 1


def test_apply_signed():
    q = F(1, 4)
    assert perm(2, -1).apply((q, q)) == (-q, q)


def test_compose_with_identity():
    p = perm(3, -1, 2, reverse=True)
    assert p.compose(SignedPermutation.identity(3)) == p


def test_transposition_squares_to_identity():
    t = perm(2, 1)
    assert t.compose(t) == perm(1, 2)


def test_compose_signed_example():
    assert perm(-2, -1).compose(perm(2, 1)) == perm(-1, -2)


def test_inverse_examples():
    assert perm(1, 2).inverse() == perm(1, 2)
    assert perm(3, 1, 2).inverse() == perm(2, 3, 1)
    assert perm(-2, 1).inverse() == perm(2, -1)


signed_perms = st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        st.permutations(list(range(1, d + 1))),
        st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d),
        st.booleans(),
    ).map(
        lambda t: SignedPermutation(
            tuple(s * v for s, v in zip(t[1], t[0])), t[2]
        )
    )
)


@given(signed_perms, signed_perms, st.data())
def test_compose_apply_law(p, q, data):
    if p.dimension != q.dimension:
        q = SignedPermutation(
            tuple(range(1, p.dimension + 1)), q.reverse
        )
    v = tuple(
        data.draw(st.integers(-9, 9)) for _ in range(p.dimension)
    )
    assert p.compose(q).apply(v) == p.apply(q.apply(v))


@given(signed_perms)
def test_matrix_is_orthogonal_with_unit_determinant(p):
    m = p.matrix()
    d = p.dimension
    # M M^T = I
    for i in range(d):
        for j in range(d):
            dot = sum(m[i][k] * m[j][k] for k in range(d))
            assert dot == (1 if i == j else 0)


@given(signed_perms)
def test_inverse_composes_to_identity(p):
    r = p.compose(p.inverse())
    assert r.entries == tuple(range(1, p.dimension + 1))


@given(signed_perms, st.integers(0, 6))
def test_definition_round_trip_random(p, n_moves):
    import random

    rng = random.Random(n_moves * 31 + p.dimension)
    d = p.dimension
    entries = [p]
    moves = []
    for _ in range(n_moves):
        entries.append(
            SignedPermutation(
                tuple(
                    rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, d + 1), d)
                ),
                rng.random() < 0.5,
            )
        )
        moves.append(
            Move(tuple(rng.choice([1, -1]) * rng.randrange(1, d + 1)
                       for _ in range(rng.randrange(0, 3))))
        )
    defn = TraversalDefinition.from_moves(entries, moves)
    again = parse_definition(format_definition(defn))
    assert again.structurally_equal(defn)


@given(st.text(alphabet="[]{}dsu=0123456789- ,\n#", max_size=80))
def test_parser_rejects_garbage_without_crashing(text):
    try:
        defn = parse_definition(text)
    except ParseError:
        return
    # anything accepted must survive a round trip
    assert parse_definition(format_definition(defn)).structurally_equal(defn)


def test_move_canonical_order():
    assert Move((3, -1, 2)).steps == (-1, 2, 3)
    assert Move((-2, 1, -2)).steps == (1, -2, -2)
    assert Move((2, -1)).steps == (-1, 2)
    assert Move((-1, 1)).steps == (1, -1)


def test_moves_of_fewer_than_two_steps_are_kept_as_tuples():
    for steps in ((), (-3,), [], [2]):
        move = Move(steps)
        assert type(move.steps) is tuple and move.steps == tuple(steps)
        assert str(move) == " ".join(map(str, steps))
    assert str(Move((2, -1, 1))) == "1 -1 2"
    assert str(perm(3, -1, 2, reverse=True)) == "{3 -1 2]"


@pytest.mark.parametrize("make,message", [
    (lambda: SignedPermutation((1.0, 2)), "permutation entry 1.0 is not an int"),
    (lambda: SignedPermutation((True, 2)), "permutation entry True is not an int"),
    (lambda: SignedPermutation((2, False), reverse=True), "permutation entry False is not an int"),
    (lambda: Move((True,)), "move element True is not an int"),
    (lambda: Move((1.0,)), "move element 1.0 is not an int"),
    (lambda: Move((1, 2, "3")), "move element '3' is not an int"),
], ids=["float entry", "bool entry", "bool entry reversed", "bool step", "float step", "str step"])
def test_permutations_and_moves_take_only_ints(make, message):
    # These were accepted: format_definition then wrote "[1.0 2}" or
    # "True", which parse_definition rejects, and a float step made
    # from_moves raise a bare TypeError.
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("flag", ["no", 2, None, 0.0], ids=repr)
def test_a_reverse_flag_that_is_not_a_bool_is_refused(flag):
    # "no" was accepted: it printed "{1 2]", equalled neither direction,
    # made compose raise a TypeError and broke the text round trip.
    with pytest.raises(ValueError) as info:
        SignedPermutation((1, 2), reverse=flag)
    assert str(info.value) == f"reverse flag {flag!r} is not a bool"
    assert SignedPermutation._of((1, 2), flag).reverse is flag  # left unchecked


@pytest.mark.parametrize("call,message", [
    (lambda: SignedPermutation((2, 1)).apply((1, 2, 3)), "dimension mismatch: 2 vs 3"),
    (lambda: SignedPermutation((1, -2, 3)).apply((5,)), "dimension mismatch: 3 vs 1"),
    (lambda: SignedPermutation((2, 1)).compose(SignedPermutation((1,))),
     "dimension mismatch in composition"),
    (lambda: SignedPermutation((1,)).compose(SignedPermutation((3, 1, 2))),
     "dimension mismatch in composition"),
], ids=["apply 2 to 3", "apply 3 to 1", "compose 2 with 1", "compose 1 with 3"])
def test_permutations_refuse_operands_of_another_dimension(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_rule_prints_as_its_text_form():
    rule = generate("harmonious", 2)
    assert str(rule) == format_definition(rule) == "{2 -1] 1 [1 2} 2 {1 -2] -1 [-2 -1}"


def test_trusted_moves_are_left_as_given():
    move = Move._of((3, -1))  # derived in canonical order by its caller, never re-sorted
    assert move.steps == (3, -1) and type(move) is Move
    assert Move._of((1, -2, 3)) == Move((3, -2, 1))


def test_definition_reversed_twice_is_identity():
    defn = parse_definition("{2 -1] 1 [1 2} 2 {1 -2] -1 [-2 -1}")
    assert defn.reversed().reversed() == defn


def test_reanchored_translates_centres():
    defn = parse_definition("[1 2} 1 [1 2}")
    moved = defn.reanchored((F(1, 4), F(1, 4)))
    assert moved.structurally_equal(defn)
    assert moved.centres[0] == (F(1, 4), F(1, 4))
    assert moved.centres[1] == (F(3, 4), F(1, 4))


def test_full_round_trip_preserves_centres_for_builtins():
    from traversals.generators import (
        FIXED_NAMES,
        TraversalKind,
        builtin_fixed,
        generate,
    )

    for kind in TraversalKind:
        for d in (1, 2, 3):
            if kind.value == "beta" and d < 3:
                continue
            defn = generate(kind, d)
            assert parse_definition(format_definition(defn)) == defn, (kind, d)
    for name in FIXED_NAMES:
        defn = builtin_fixed(name)
        assert parse_definition(format_definition(defn)) == defn, name


# -- integer construction against the Fraction construction it replaced ------


def _sign(x):
    return -1 if x < 0 else 1


def _displacement(move, d, step):
    out = [Fraction(0)] * d
    for e in move.steps:
        out[abs(e) - 1] += step if e > 0 else -step
    return tuple(out)


def _snap_to_tile_grid(v, s):
    """Nearest first-level tile-centre coordinate (k + 1/2)/s - 1/2."""
    w = (v + Fraction(1, 2)) * s - Fraction(1, 2)
    k = -((Fraction(1, 2) - w).__floor__())  # round to nearest, ties down
    return Fraction(2 * k + 1, 2 * s) - Fraction(1, 2)


def _zero(d):
    return (Fraction(0),) * d


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def fraction_check(dimension, scale, entries, moves, step_den, centres):
    """``TraversalDefinition.__post_init__`` over ``Fraction`` vectors,
    kept verbatim as the oracle of the integer check."""
    if dimension < 1 or scale < 2:
        raise ValueError("need dimension >= 1 and scale >= 2")
    if len(entries) < 1:
        raise ValueError("a definition needs at least one entry")
    if len(moves) != len(entries) - 1:
        raise ValueError("expected one move between each pair of entries")
    for e in entries:
        if e.dimension != dimension:
            raise ValueError("inconsistent entry lengths")
    for m in moves:
        m.check_dimension(dimension)
    if len(centres) != len(entries):
        raise ValueError("one centre per entry required")
    step = Fraction(1, step_den)
    for k, m in enumerate(moves):
        if _vsub(centres[k + 1], centres[k]) != _displacement(m, dimension, step):
            raise ValueError(f"centres and move {k + 1} disagree")


def fraction_from_moves(entries, moves, *, scale=2, step_den=None, anchor=None):
    """``TraversalDefinition.from_moves`` over ``Fraction`` sums, kept
    verbatim as the oracle of the integer construction."""
    entries = tuple(entries)
    moves = tuple(moves)
    d = entries[0].dimension
    u = step_den if step_den is not None else scale
    step = Fraction(1, u)
    deltas = [_zero(d)]
    for m in moves:
        deltas.append(_vadd(deltas[-1], _displacement(m, d, step)))
    if anchor is None:
        n = len(deltas)
        mean = tuple(sum(dl[j] for dl in deltas) / n for j in range(d))
        c1 = tuple(-x for x in mean)
        if u == scale:
            c1 = tuple(_snap_to_tile_grid(x, scale) for x in c1)
    else:
        c1 = tuple(Fraction(x) for x in anchor)
    centres = tuple(_vadd(c1, dl) for dl in deltas)
    return TraversalDefinition(d, scale, entries, moves, u, centres)


def fraction_from_centres(entries, centres, *, scale=2, step_den=None):
    """``TraversalDefinition.from_centres`` over ``Fraction`` differences,
    kept verbatim as the oracle of the integer construction."""
    entries = tuple(entries)
    centres = tuple(tuple(Fraction(x) for x in c) for c in centres)
    d = entries[0].dimension
    u = step_den if step_den is not None else scale
    step = Fraction(1, u)
    moves = []
    for k in range(len(centres) - 1):
        diff = _vsub(centres[k + 1], centres[k])
        steps = []
        for j, x in enumerate(diff):
            n = x / step
            if n.denominator != 1:
                raise ValueError(
                    f"centre difference {diff} is not a multiple of 1/{u}"
                )
            steps.extend([(j + 1) * _sign(n.numerator)] * abs(n.numerator))
        moves.append(Move(tuple(steps)))
    return TraversalDefinition(d, scale, entries, tuple(moves), u, centres)


def fraction_fills_cube(defn):
    """``fills_cube`` over ``Fraction`` coordinates, kept verbatim."""
    d, s = defn.dimension, defn.scale
    if len(defn.entries) != s**d:
        return False
    half = Fraction(1, 2)
    grid = set()
    for c in defn.centres:
        cell = []
        for x in c:
            q = (x + half) * s - half
            if q.denominator != 1:
                return False
            cell.append(int(q))
        if any(not 0 <= i < s for i in cell):
            return False
        grid.add(tuple(cell))
    return len(grid) == s**d


def _outcome(build):
    """The result of ``build()``, or the type and message of its error."""
    try:
        return build()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _same(new, old, label):
    assert new == old, label
    assert repr(new) == repr(old), label


def test_construction_matches_fraction_construction():
    cases = 0
    for label, defn in differential_rules():
        e, m, s, u = defn.entries, defn.moves, defn.scale, defn.step_den
        d = defn.dimension
        anchors = (None, defn.centres[0], (F(1, 3),) * d, (0.25, *range(d - 1)))
        for anchor in anchors:
            _same(
                TraversalDefinition.from_moves(e, m, scale=s, step_den=u, anchor=anchor),
                fraction_from_moves(e, m, scale=s, step_den=u, anchor=anchor),
                (label, anchor),
            )
        for step_den in (None, 2 * u, 3):
            _same(
                TraversalDefinition.from_moves(e, m, scale=s, step_den=step_den),
                fraction_from_moves(e, m, scale=s, step_den=step_den),
                (label, step_den),
            )
        _same(TraversalDefinition.from_centres(e, defn.centres, scale=s, step_den=u),
              fraction_from_centres(e, defn.centres, scale=s, step_den=u), label)
        _same(defn, fraction_from_moves(e, m, scale=s, step_den=u), label)
        assert fraction_check(d, s, e, m, u, defn.centres) is None
        assert defn.fills_cube == fraction_fills_cube(defn), label
        cases += 1
    assert cases == 120


def _malformed():
    """(label, constructor name, arguments, keywords) of rules the
    construction rejects."""
    p, q, r = perm(1, 2), perm(2, -1, reverse=True), perm(1, 2, 3)
    one, two, zero = Move((1,)), Move((2,)), Move(())
    c = ((F(-1, 4), F(-1, 4)), (F(1, 4), F(-1, 4)))
    yield "scale 1", "init", (2, 1, (p, q), (one,), 1, c), {}
    yield "dimension 0", "init", (0, 2, (p, q), (one,), 2, c), {}
    yield "no entries", "init", (2, 2, (), (), 2, ()), {}
    yield "missing move", "init", (2, 2, (p, q), (), 2, c), {}
    yield "entry lengths", "init", (2, 2, (p, r), (one,), 2, c), {}
    yield "move axis", "init", (2, 2, (p, q), (Move((3,)),), 2, c), {}
    yield "centre count", "init", (2, 2, (p, q), (one,), 2, c[:1]), {}
    yield "wrong move", "init", (2, 2, (p, q), (two,), 2, c), {}
    yield "empty move", "init", (2, 2, (p, q), (zero,), 2, c), {}
    yield "step width", "init", (2, 2, (p, q), (one,), 4, c), {}
    yield "long centres", "init", (2, 2, (p, q), (one,), 2, tuple(x + (F(0),) for x in c)), {}
    yield "short centre", "init", (2, 2, (p, q), (one,), 2, (c[0][:1], c[1])), {}
    yield "off grid", "centres", ((p, q), ((0, 0), (F(1, 3), 0))), {}
    yield "off step", "centres", ((p, q), ((0, 0), (F(1, 2), 0))), {"step_den": 3}
    yield "centre count from centres", "centres", ((p, q), c[:1]), {}
    yield "missing move from moves", "moves", ((p, q), ()), {}
    yield "scale 1 from moves", "moves", ((p, q), (one,)), {"scale": 1}
    yield "entry lengths from moves", "moves", ((p, r), (one,)), {}
    yield "entry lengths from centres", "centres", ((p, r), c), {}
    yield "short anchor from moves", "moves", ((p, q), (one,)), {"anchor": (F(1, 4),)}
    yield "short anchor, no move", "moves", ((p,), ()), {"anchor": (F(1, 4),)}
    yield "long centres from centres", "centres", ((p, q), tuple(x + (F(0),) for x in c)), {}
    yield "short centre from centres", "centres", ((p, q), (c[0][:1], c[1])), {}


def test_malformed_rules_fail_as_the_fraction_construction_did():
    new = {
        "init": TraversalDefinition,
        "moves": TraversalDefinition.from_moves,
        "centres": TraversalDefinition.from_centres,
    }
    old = {
        "init": lambda *a: fraction_check(*a) or TraversalDefinition(*a),
        "moves": fraction_from_moves,
        "centres": fraction_from_centres,
    }
    for label, kind, args, kw in _malformed():
        got = _outcome(lambda: new[kind](*args, **kw))
        want = _outcome(lambda: old[kind](*args, **kw))
        assert isinstance(want, tuple), label
        assert got == want, label


def test_from_moves_rejects_a_move_axis_beyond_the_dimension():
    # It used to raise a bare IndexError from Move.int_displacement, as the
    # Fraction oracle still does.
    p, q = perm(1, 2), perm(2, -1, reverse=True)
    for axis in (3, -3):
        with pytest.raises(ValueError) as info:
            TraversalDefinition.from_moves((p, q), (Move((axis,)),))
        assert str(info.value) == f"move element {axis} out of range for dimension 2"


@pytest.mark.parametrize("u", [0, -2])
def test_step_denominator_must_be_positive(u):
    # It used to raise ZeroDivisionError (0), or accept -2 and print a
    # header that parse_definition cannot read back.
    e, c = (perm(1), perm(1)), ((F(-1, 4),), (F(1, 4),))
    for build in (
        lambda: TraversalDefinition(1, 2, e, (Move((1,)),), u, c),
        lambda: TraversalDefinition.from_moves(e, [Move((1,))], step_den=u),
        lambda: TraversalDefinition.from_centres(e, c, step_den=u),
    ):
        with pytest.raises(ValueError, match="step denominator"):
            build()


def test_centres_must_be_exact():
    # Float centres used to be accepted, and the engine then failed on
    # their missing denominator.
    e = (perm(1), perm(1))
    with pytest.raises(ValueError, match="not an int or Fraction"):
        TraversalDefinition(1, 2, e, (Move((1,)),), 2, ((-0.25,), (0.25,)))
    ints = TraversalDefinition(1, 2, e[:1], (), 2, ((0,),))
    assert ints.centres == ((F(0),),)
    # from_centres converts its input to Fraction, as before
    assert TraversalDefinition.from_centres(e, ((-0.25,), (0.25,))).centres == (
        (F(-1, 4),),
        (F(1, 4),),
    )


def test_every_centre_has_dimension_coordinates():
    # Both used to be accepted: the agreement with the moves compares
    # coordinates pairwise and stops at the shorter centre.
    p, q = perm(1, 2), perm(2, -1, reverse=True)
    with pytest.raises(ValueError, match="centre 1 has 1 coordinates, expected 2"):
        TraversalDefinition(2, 2, (SignedPermutation((1, 2)),), (), 2, ((F(1, 4),),))
    stray = ((F(-1, 4), F(-1, 4), F(1, 2)), (F(1, 4), F(-1, 4)))
    with pytest.raises(ValueError, match="centre 1 has 3 coordinates, expected 2"):
        TraversalDefinition(2, 2, (p, q), (Move((1,)),), 2, stray)


def test_int_displacement_counts_steps_per_axis():
    assert Move((1, -2, -2, 3)).int_displacement(3) == (1, -2, 1)
    assert Move(()).int_displacement(2) == (0, 0)


# -- rules built without a re-check, against the checks they skip ------------


def _trusted_rules():
    """(label, rule): every family for d = 1..5 (the scale-3 Peano family
    up to d = 3, Beta from d = 3) and the five fixed curves, each built by
    ``from_moves`` or ``from_centres``."""
    for kind in TraversalKind:
        top = 3 if kind.value in {"peano", "coil", "half-coil", "meurthe"} else 5
        for d in range(1, top + 1):
            try:
                yield f"{kind.value} d={d}", generate(kind, d)
            except BetaUndefinedError:
                continue
    for name in FIXED_NAMES:
        yield name, builtin_fixed(name)


def _some_symmetries(d):
    """A reflection of axis 1, a cyclic turn of the axes and the reflection
    through the cube's centre with the axes reversed."""
    out = {perm(-1, *range(2, d + 1)), perm(*range(2, d + 1), 1), perm(*range(-d, 0))}
    return sorted(out, key=lambda g: g.entries)


def _assert_passes_every_check(rule, label):
    """The public constructor accepts the rule's six fields and returns an
    equal rule, and the Fraction check of the fields passes."""
    fields_ = (rule.dimension, rule.scale, rule.entries, rule.moves, rule.step_den, rule.centres)
    _same(TraversalDefinition(*fields_), rule, label)
    assert fraction_check(*fields_) is None, label


def test_derived_rules_pass_the_checks_they_skip():
    cases = 0
    for label, rule in _trusted_rules():
        _assert_passes_every_check(rule, label)
        _assert_passes_every_check(rule.reversed(), (label, "reversed"))
        for g in _some_symmetries(rule.dimension):
            _assert_passes_every_check(rule.transformed(g), (label, str(g)))
        _assert_passes_every_check(parse_definition(format_definition(rule)), (label, "parsed"))
        cases += 1
    assert cases == 75


# The dimensions of 1..3 at which each family is cube-filling and has a
# reversal symmetry, so that it squares.
_SQUARED_AT = {
    "z": (1, 2, 3), "u": (1, 2, 3), "gray": (), "double-gray": (1, 2, 3),
    "inside-out": (1, 2, 3), "hill-z": (1,), "maehara": (1,), "base-camp": (1, 2),
    "harmonious": (1, 2, 3), "alfa": (1, 2), "beta": (), "butz": (1, 2, 3),
    "peano": (1, 2, 3), "coil": (1, 2, 3), "half-coil": (1, 2, 3), "meurthe": (1,),
}


@pytest.mark.parametrize("kind", [k.value for k in TraversalKind])
def test_squares_pass_the_checks_they_skip(kind):
    squared = []
    for d in (1, 2, 3):
        try:
            sq = squared_definition(generate(kind, d))
        except (BetaUndefinedError, NotCubicError, NotSymmetricError):
            continue
        _assert_passes_every_check(sq, (kind, d))
        again = TraversalDefinition.from_centres(sq.entries, sq.centres, scale=sq.scale)
        assert sq.moves == again.moves, (kind, d)
        squared.append(d)
    assert tuple(squared) == _SQUARED_AT[kind]


# -- one reader of rule text against the filter and parser it replaced --------

_TOKEN = re.compile(r"([dsu])=(\d+)|(-?\d+)|([\[\]{}])|(\S)")


def _tokenize(text: str) -> Iterator[tuple[str, object]]:
    for m in _TOKEN.finditer(text.replace(",", " ")):
        key, val, num, bracket, junk = m.groups()
        if key is not None:
            yield "header", (key, int(val))
        elif num is not None:
            yield "int", int(num)
        elif bracket is not None:
            yield "bracket", bracket
        else:
            raise ParseError(f"unexpected character {junk!r}")


_CLOSER = {"[": "}", "{": "]"}


def old_parse_definition(text: str) -> TraversalDefinition:
    """Parse definition text; see the module docstring for the grammar.

    The dimension is taken from the first entry (and checked against a
    ``d=`` header if present); the scale comes from the header, or is
    inferred when the entry count is an exact power ``k^d``, or defaults
    to 2.  Centres are placed with their mean at the origin.
    """
    header: dict[str, int] = {}
    entries: list[SignedPermutation] = []
    moves: list[Move] = []
    pending: list[int] = []

    tokens = list(_tokenize(text))
    pos = 0
    while pos < len(tokens):
        kind, val = tokens[pos]
        if kind == "header":
            if entries or pending:
                raise ParseError("header fields must precede the first entry")
            key, num = val  # type: ignore[misc]
            header[key] = num
            pos += 1
        elif kind == "int":
            pending.append(val)  # type: ignore[arg-type]
            pos += 1
        else:
            opener = val
            if opener not in _CLOSER:
                raise ParseError(f"unexpected {opener!r}; an entry must open with [ or {{")
            pos += 1
            body: list[int] = []
            while pos < len(tokens) and tokens[pos][0] == "int":
                body.append(tokens[pos][1])  # type: ignore[arg-type]
                pos += 1
            if pos >= len(tokens) or tokens[pos][0] != "bracket":
                raise ParseError("entry is not closed")
            closer = tokens[pos][1]
            if closer != _CLOSER[opener]:
                raise ParseError(
                    f"malformed bracket pairing: {opener!r} closed by {closer!r}"
                )
            pos += 1
            if entries:
                moves.append(Move(tuple(pending)))
                pending = []
            elif pending:
                raise ParseError("moves may not precede the first entry")
            try:
                entries.append(SignedPermutation(tuple(body), reverse=opener == "{"))
            except ValueError as exc:
                raise ParseError(str(exc)) from None

    if pending:
        raise ParseError("no move is allowed after the last entry")
    if not entries:
        raise ParseError("definition contains no entries")

    d = entries[0].dimension
    if "d" in header and header["d"] != d:
        raise ParseError(f"header says d={header['d']} but entries have length {d}")
    for e in entries:
        if e.dimension != d:
            raise ParseError("inconsistent entry lengths")
    scale = header.get("s", _inferred_scale(len(entries), d))
    if scale < 2:
        raise ParseError(f"scale s={scale} must be at least 2")
    step_den = header.get("u", scale)
    if step_den < 1:
        raise ParseError(f"step denominator u={step_den} must be positive")
    for m in moves:
        try:
            m.check_dimension(d)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return TraversalDefinition.from_moves(
        entries, moves, scale=scale, step_den=step_den
    )


def old_read(text):
    """The whole-line comment filter that ``cli._load_source`` and
    ``builtin_fixed`` applied, then the old parser, both kept verbatim."""
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    return old_parse_definition(body)


MALFORMED = [
    # the texts of test_parse_rejects_malformed
    "[1 2] 1 [1 2]",
    "[1 2} 1 [1 3}",
    "[1 2} 5 [2 1}",
    "[1 2} 1 [1 2 3}",
    "[1 2} 1",
    "1 [1 2}",
    "",
    "[1 0}",
    "s=1 [1}",
    "s=0 [1}",
    "u=0 [1}",
    # and more
    "[1 d=2 2}",
    "[1 2} 1 [2 1} d=2",
    "d=3 [1 2} 1 [2 1}",
    "[1 [2}",
    "] 1 [1}",
    "[1 2",
    "[}",
    "{1 2}",
    "[1 2} x [2 1}",
    "[1 2} -3 [2 1}",
    "# only a comment\n",
    "[1 2}\n# a comment line\n1\n",
]


def _bundled_texts():
    folder = resources.files("traversals") / "definitions"
    for f in sorted(folder.iterdir(), key=lambda f: f.name):
        if f.name.endswith(".txt"):
            yield f.name, f.read_text()


def test_parser_reads_what_the_filter_and_old_parser_read():
    texts = [(p.name, p.read_text()) for p in sorted(GOLDEN_DIR.glob("*.txt"))]
    texts += list(_bundled_texts())
    texts += [(label, format_definition(defn)) for label, defn in differential_rules()]
    texts += [(text, text) for text in MALFORMED]
    accepted = rejected = 0
    for label, text in texts:
        try:
            want = old_read(text)
        except ParseError:
            with pytest.raises(ParseError):
                parse_definition(text)
            rejected += 1
            continue
        got = parse_definition(text)
        assert got == want, label
        accepted += 1
    assert (accepted, rejected) == (25 + 5 + 120, len(MALFORMED))


@given(st.text(alphabet="[]{}dsu=0123456789- ,\n", max_size=80))
def test_parser_matches_the_old_parser_on_garbage(text):
    try:
        want = old_read(text)
    except ValueError:  # the old parser let a move element 0 escape as one
        want = None
    try:
        got = parse_definition(text)
    except ParseError:
        got = None
    assert got == want


def test_comments_run_to_the_end_of_the_line():
    plain = parse_definition("[1 2} 1 {1 2] 2 [1 2} -1 {1 2]")
    for text in (
        "# a rule\n[1 2} 1 {1 2] 2 [1 2} -1 {1 2]  # trailing\n",
        "[1 2} 1 {1 2]#no space\n2 [1 2} -1 {1 2]",
        "[1 # a comment inside an entry\n2} 1 {1 2] 2 # [ } ] {\n[1 2} -1 {1 2]#",
        "   # indented\r\n[1 2} 1 {1 2] 2 [1 2} -1 {1 2]\r\n",
        "[1 2} 1 {1 2] 2 [1 2} -1 {1 2] # a $ is no token here",
    ):
        assert parse_definition(text) == plain, text
    with pytest.raises(ParseError, match="no move is allowed after the last entry"):
        parse_definition("[1 2} 1 # the next line is not a comment\n2")


@pytest.mark.parametrize("text,message", [
    ("[1} 0 [1}", "move element 0 is not a valid axis index"),
    ("u=0 [1}", "step denominator u=0 must be a positive integer"),
    # u defaults to s, and the constructor checks u first
    ("s=0 [1}", "scale s=0 must be at least 2"),
    ("s=1 [1}", "scale s=1 must be at least 2"),
    ("[1 d=2 2}", "header fields must precede the first entry"),
    ("[1 2} 1 [1 2 3}", "inconsistent entry lengths"),
    ("[1 2} 5 [2 1}", "move element 5 out of range for dimension 2"),
    ("d=3 [1 2}", "header says d=3 but entries have length 2"),
    ("[1 2} $", "unexpected character '$'"),
])
def test_every_rejection_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as info:
        parse_definition(text)
    assert str(info.value) == message
