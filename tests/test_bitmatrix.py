"""Gray codes, the coordinate-matrix operations, and rank computation."""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from traversals.bitmatrix import (
    RANK_RECIPES,
    CoordinateMatrix,
    RankWord,
    _op_column_coding,
    _op_row_decoding,
    _op_unranking,
    cell_of_rank,
    gray,
    gray_inverse,
    op_column_ranking,
    op_inversion,
    op_ranking,
    op_row_coding,
    rank_of_cell,
)
from traversals.engine import generate_full_path
from traversals.generators import generate

X0 = CoordinateMatrix(((0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 0, 1)))

FIVE_KINDS = ("z", "u", "gray", "double-gray", "inside-out")


def test_gray_values():
    assert gray(0) == 0
    assert gray(5) == 7  # 101 xor 010 = 111
    assert gray(12) == 10  # 1100 xor 0110 = 1010


def test_gray_inverse_values():
    assert gray_inverse(0) == 0
    assert gray_inverse(7) == 5


def test_gray_inverse_law():
    assert all(gray_inverse(gray(n)) == n for n in range(1 << 16))


def test_gray_consecutive_differ_in_one_bit():
    for n in range(1, 1 << 10):
        diff = gray(n) ^ gray(n - 1)
        assert diff and (diff & (diff - 1)) == 0


# -- the worked example -------------------------------------------------


def test_example_matrix_encoding():
    # subcube [-7/16,-6/16] x [3/16,4/16] x [-2/16,-1/16]: corner coords
    # +1/2 are 1/16, 11/16, 6/16; cell indices at level 4 are 1, 11, 6.
    assert CoordinateMatrix.from_cell((1, 11, 6), 4).bits == X0.bits
    assert X0.to_cell() == (1, 11, 6)


def test_inversion_on_example():
    assert op_inversion(X0).bits == ((0, 0, 1, 1), (1, 1, 1, 0), (0, 1, 0, 0))


def test_row_coding_on_example():
    assert op_row_coding(X0).bits == ((0, 1, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1))


def test_ranking_on_example():
    assert op_ranking(X0).bits == ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0))


def test_column_ranking_on_example():
    assert op_column_ranking(X0).bits == ((0, 1, 1, 0), (1, 1, 0, 1), (1, 1, 0, 0))


def test_u_rank_of_example():
    rank = rank_of_cell("u", X0)
    assert rank.value == int("011111100010", 2)
    assert rank.width == 12


def test_unrank_of_example_rank():
    rank = RankWord(int("011111100010", 2), 12)
    assert cell_of_rank("u", rank, 3, 4).bits == X0.bits


def test_z_rank_is_plain_interleaving():
    for cell in itertools.product(range(4), repeat=2):
        x = CoordinateMatrix.from_cell(cell, 2)
        assert rank_of_cell("z", x).value == x.column_major_value()


def test_z_rank_zero_is_origin_cell():
    x = cell_of_rank("z", RankWord(0, 6), 3, 2)
    assert x.to_cell() == (0, 0, 0)


def test_inside_out_first_level_one_cell():
    x = CoordinateMatrix.from_cell((0, 0), 1)
    assert rank_of_cell("inside-out", x).value == 0


# -- bijectivity ---------------------------------------------------------


@pytest.mark.parametrize("d,k", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4), (2, 6)])
def test_operations_are_bijections(d, k):
    ops = (op_inversion, op_row_coding, op_ranking, op_column_ranking)
    total = 1 << (d * k)
    for op in ops:
        seen = set()
        for v in range(total):
            img = op(CoordinateMatrix.from_column_major(v, d, k))
            seen.add(img.column_major_value())
        assert len(seen) == total


@pytest.mark.parametrize("kind", FIVE_KINDS)
def test_rank_unrank_round_trip(kind):
    import random

    rng = random.Random(11)
    for _ in range(50):
        d = rng.randrange(1, 5)
        level = rng.randrange(1, 4)
        cell = tuple(rng.randrange(1 << level) for _ in range(d))
        x = CoordinateMatrix.from_cell(cell, level)
        rank = rank_of_cell(kind, x)
        assert cell_of_rank(kind, rank, d, level).bits == x.bits


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        rank_of_cell("hilbert", X0)


# -- oracle equivalence with the engine ----------------------------------


@pytest.mark.parametrize("kind", FIVE_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rank_order_matches_engine_paths(kind, d):
    defn = generate(kind, d)
    for depth in (1, 2, 3):
        cells = generate_full_path(defn, depth, "corner").cell_indices()
        by_rank = sorted(
            cells,
            key=lambda c: rank_of_cell(
                kind, CoordinateMatrix.from_cell(c, depth)
            ).value,
        )
        assert list(cells) == by_rank


@pytest.mark.parametrize("kind", FIVE_KINDS)
def test_rank_order_matches_engine_at_depth_five(kind):
    cells = generate_full_path(generate(kind, 2), 5, "corner").cell_indices()
    by_rank = sorted(
        cells,
        key=lambda c: rank_of_cell(kind, CoordinateMatrix.from_cell(c, 5)).value,
    )
    assert list(cells) == by_rank


@pytest.mark.parametrize("kind", FIVE_KINDS)
def test_unranking_agrees_with_point_location(kind):
    """cell_of_rank and the index-arithmetic locator are two routes to
    the same cell: the rank-i cell's centre must be where the traversal
    parameter (i + 1/2)/N lands."""
    import random
    from fractions import Fraction

    from traversals.bitmatrix import RankWord
    from traversals.engine import locate

    rng = random.Random(4)
    d, depth = 3, 3
    defn = generate(kind, d)
    n = 8**depth
    for i in rng.sample(range(n), 24):
        cell = cell_of_rank(kind, RankWord(i, d * depth), d, depth).to_cell()
        centre = locate(defn, Fraction(2 * i + 1, 2 * n), depth, "plus")
        derived = tuple(
            int((x + Fraction(1, 2)) * 2**depth - Fraction(1, 2)) for x in centre
        )
        assert derived == cell, (kind, i)


def test_well_folded_rank_law_on_level_one():
    # the i-th visited cell corner encodes gray(i-1)
    for d in (1, 2, 3, 4, 5):
        defn = generate("u", d)
        cells = generate_full_path(defn, 1, "corner").cell_indices()
        for i, cell in enumerate(cells):
            bits = sum(b << j for j, b in enumerate(cell))
            assert bits == gray(i)


# -- the coding/ranking footnote discipline -------------------------------


def _order_by(ops, d, depth):
    cells = list(itertools.product(range(1 << depth), repeat=d))

    def key(cell):
        x = CoordinateMatrix.from_cell(cell, depth)
        for op in ops:
            x = op(x)
        return x.column_major_value()

    return sorted(cells, key=key)


def test_double_gray_variant_codings_break_palindromicity():
    """Swapping g and g^-1 in the Double-Gray recipe ruins the order.

    The correct recipe (row-coding with g, then ranking with g^-1) gives
    a palindromic order; each swapped variant must not.
    """
    from traversals.analysis import palindromic_on_cells

    def op_row_decoding(x):
        from traversals.bitmatrix import _op_row_decoding

        return _op_row_decoding(x)

    def op_unranking(x):
        from traversals.bitmatrix import _op_unranking

        return _op_unranking(x)

    d, depth = 2, 3
    good = _order_by((op_row_coding, op_ranking), d, depth)
    assert palindromic_on_cells(good, d, depth).holds

    variants = [
        (op_row_decoding, op_ranking),
        (op_row_coding, op_unranking),
        (op_row_decoding, op_unranking),
    ]
    for ops in variants:
        cells = _order_by(ops, d, depth)
        assert not palindromic_on_cells(cells, d, depth).holds


# -- differential tests against the bit-loop module ------------------------
#
# The module as it was before it moved to row words, kept verbatim as the
# oracle of the word operations; only its names gained an ``old_`` (or
# ``Old``) prefix.


def old_gray(n: int) -> int:
    """Reflected binary Gray code of n.

    >>> old_gray(5)
    7
    >>> old_gray(12)
    10
    """
    if n < 0:
        raise ValueError("gray is defined for non-negative integers")
    return n ^ (n >> 1)


def old_gray_inverse(n: int) -> int:
    """Inverse of :func:`gray`, computed by prefix-xor of the bits.

    >>> old_gray_inverse(7)
    5
    >>> all(old_gray_inverse(old_gray(n)) == n for n in range(1 << 12))
    True
    """
    if n < 0:
        raise ValueError("gray_inverse is defined for non-negative integers")
    shift = 1
    while (n >> shift) > 0:
        n ^= n >> shift
        shift <<= 1
    return n


@dataclass(frozen=True, slots=True)
class OldCoordinateMatrix:
    """A d-by-k matrix of coordinate bits."""

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.bits or not self.bits[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(self.bits[0])
        for row in self.bits:
            if len(row) != width:
                raise ValueError("ragged matrix")
            if any(b not in (0, 1) for b in row):
                raise ValueError("entries must be bits")

    @property
    def rows(self) -> int:
        return len(self.bits)

    @property
    def cols(self) -> int:
        return len(self.bits[0])

    @classmethod
    def from_cell(cls, cell: tuple[int, ...], level: int) -> "OldCoordinateMatrix":
        """Matrix for the cell with the given per-axis indices in [0, 2^level)."""
        d = len(cell)
        rows = []
        for i in range(d):  # row 1 is the highest axis
            n = cell[d - 1 - i]
            if not 0 <= n < (1 << level):
                raise ValueError(f"cell index {n} out of range for level {level}")
            rows.append(tuple((n >> (level - 1 - c)) & 1 for c in range(level)))
        return cls(tuple(rows))

    def to_cell(self) -> tuple[int, ...]:
        d = self.rows
        out = []
        for axis in range(d):
            row = self.bits[d - 1 - axis]
            n = 0
            for b in row:
                n = (n << 1) | b
            out.append(n)
        return tuple(out)

    def column_major_value(self) -> int:
        n = 0
        for c in range(self.cols):
            for r in range(self.rows):
                n = (n << 1) | self.bits[r][c]
        return n

    @classmethod
    def from_column_major(cls, value: int, rows: int, cols: int) -> "OldCoordinateMatrix":
        total = rows * cols
        if not 0 <= value < (1 << total):
            raise ValueError("value does not fit the matrix shape")
        grid = [[0] * cols for _ in range(rows)]
        for pos in range(total):
            bit = (value >> (total - 1 - pos)) & 1
            c, r = divmod(pos, rows)
            grid[r][c] = bit
        return cls(tuple(tuple(row) for row in grid))


@dataclass(frozen=True, slots=True)
class OldRankWord:
    """Position index of a subcube: a d*level-bit unsigned integer."""

    value: int
    width: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise ValueError("rank does not fit its width")


def _old_row_value(row: tuple[int, ...]) -> int:
    n = 0
    for b in row:
        n = (n << 1) | b
    return n


def _old_row_bits(n: int, width: int) -> tuple[int, ...]:
    return tuple((n >> (width - 1 - i)) & 1 for i in range(width))


def old_op_inversion(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    """Flip all bits in every second column (columns 2, 4, ...)."""
    return OldCoordinateMatrix(
        tuple(
            tuple(b ^ (c & 1) for c, b in enumerate(row))
            for row in x.bits
        )
    )


def old_op_row_coding(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    """Apply the Gray code g to each row."""
    w = x.cols
    return OldCoordinateMatrix(
        tuple(_old_row_bits(old_gray(_old_row_value(row)), w) for row in x.bits)
    )


def old_op_ranking(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    """Apply g^-1 to the whole matrix in column-major reading order."""
    return OldCoordinateMatrix.from_column_major(
        old_gray_inverse(x.column_major_value()), x.rows, x.cols
    )


def old_op_column_ranking(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    """Apply g^-1 to each column."""
    rows, cols = x.rows, x.cols
    out = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        n = 0
        for r in range(rows):
            n = (n << 1) | x.bits[r][c]
        n = old_gray_inverse(n)
        for r in range(rows):
            out[r][c] = (n >> (rows - 1 - r)) & 1
    return OldCoordinateMatrix(tuple(tuple(r) for r in out))


def _old_op_row_decoding(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    w = x.cols
    return OldCoordinateMatrix(
        tuple(_old_row_bits(old_gray_inverse(_old_row_value(row)), w) for row in x.bits)
    )


def _old_op_unranking(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    return OldCoordinateMatrix.from_column_major(
        old_gray(x.column_major_value()), x.rows, x.cols
    )


def _old_op_column_coding(x: OldCoordinateMatrix) -> OldCoordinateMatrix:
    rows, cols = x.rows, x.cols
    out = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        n = 0
        for r in range(rows):
            n = (n << 1) | x.bits[r][c]
        n = old_gray(n)
        for r in range(rows):
            out[r][c] = (n >> (rows - 1 - r)) & 1
    return OldCoordinateMatrix(tuple(tuple(r) for r in out))


# Operation sequence per traversal kind, applied left to right.
OLD_RANK_RECIPES = {
    "z": (),
    "u": (old_op_column_ranking,),
    "gray": (old_op_ranking,),
    "double-gray": (old_op_row_coding, old_op_ranking),
    "inside-out": (old_op_inversion, old_op_row_coding, old_op_ranking),
}

_OLD_UNRANK_RECIPES = {
    "z": (),
    "u": (_old_op_column_coding,),
    "gray": (_old_op_unranking,),
    "double-gray": (_old_op_unranking, _old_op_row_decoding),
    "inside-out": (_old_op_unranking, _old_op_row_decoding, old_op_inversion),
}


def old_rank_of_cell(kind: str, corner_bits: OldCoordinateMatrix) -> OldRankWord:
    """Traversal position of the subcube encoded by ``corner_bits``."""
    try:
        recipe = OLD_RANK_RECIPES[kind]
    except KeyError:
        raise ValueError(f"no bit-matrix recipe for kind {kind!r}") from None
    x = corner_bits
    for op in recipe:
        x = op(x)
    return OldRankWord(x.column_major_value(), x.rows * x.cols)


def old_cell_of_rank(kind: str, rank: OldRankWord, d: int, level: int) -> OldCoordinateMatrix:
    """Inverse of :func:`old_rank_of_cell`."""
    try:
        recipe = _OLD_UNRANK_RECIPES[kind]
    except KeyError:
        raise ValueError(f"no bit-matrix recipe for kind {kind!r}") from None
    if rank.width != d * level:
        raise ValueError("rank width does not match d*level")
    x = OldCoordinateMatrix.from_column_major(rank.value, d, level)
    for op in recipe:
        x = op(x)
    return x


OLD_OPS = (
    old_op_inversion,
    old_op_row_coding,
    old_op_ranking,
    old_op_column_ranking,
    _old_op_row_decoding,
    _old_op_unranking,
    _old_op_column_coding,
)
NEW_OPS = (
    op_inversion,
    op_row_coding,
    op_ranking,
    op_column_ranking,
    _op_row_decoding,
    _op_unranking,
    _op_column_coding,
)


def _assert_matches_old(value, d, k):
    """Every operation, rank and unrank of the matrix whose column-major
    reading is ``value`` agrees with the old module."""
    old = OldCoordinateMatrix.from_column_major(value, d, k)
    new = CoordinateMatrix.from_column_major(value, d, k)
    assert new.bits == old.bits
    assert new.column_major_value() == value
    assert new.to_cell() == old.to_cell()
    assert CoordinateMatrix.from_cell(old.to_cell(), k).bits == old.bits
    for old_op, new_op in zip(OLD_OPS, NEW_OPS):
        assert new_op(new).bits == old_op(old).bits, (new_op.__name__, d, k, value)
    for kind in FIVE_KINDS:
        want = old_rank_of_cell(kind, old)
        got = rank_of_cell(kind, new)
        assert (got.value, got.width) == (want.value, want.width), (kind, d, k, value)
        unranked = cell_of_rank(kind, RankWord(value, d * k), d, k)
        assert unranked.bits == old_cell_of_rank(kind, OldRankWord(value, d * k), d, k).bits


SMALL_SHAPES = [(d, k) for d in range(1, 13) for k in range(1, 13) if d * k <= 12]


def _compose(images, recipe, value):
    for op in recipe:
        value = images[op][value]
    return value


@pytest.mark.parametrize("d,k", SMALL_SHAPES)
def test_word_operations_match_old_module_exhaustively(d, k):
    """Every matrix of the shape, through every operation and the rank
    and unrank recipes.  The old recipes are composed from the tables of
    the old operations' images, as ``old_rank_of_cell`` applies them."""
    values = range(1 << (d * k))
    olds = [OldCoordinateMatrix.from_column_major(v, d, k) for v in values]
    news = [CoordinateMatrix.from_column_major(v, d, k) for v in values]
    for v, old, new in zip(values, olds, news):
        assert new.bits == old.bits
        assert new.column_major_value() == v
        assert new.to_cell() == old.to_cell()
        assert CoordinateMatrix.from_cell(old.to_cell(), k).bits == old.bits
    images = {op: [op(x).column_major_value() for x in olds] for op in OLD_OPS}
    for old_op, new_op in zip(OLD_OPS, NEW_OPS):
        got = [new_op(x).bits for x in news]
        assert got == [olds[i].bits for i in images[old_op]], new_op.__name__
    for kind in FIVE_KINDS:
        for v, new in zip(values, news):
            rank = rank_of_cell(kind, new)
            want = _compose(images, OLD_RANK_RECIPES[kind], v)
            assert (rank.value, rank.width) == (want, d * k), (kind, v)
            back = _compose(images, _OLD_UNRANK_RECIPES[kind], v)
            assert cell_of_rank(kind, RankWord(v, d * k), d, k).bits == olds[back].bits


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 40), st.data())
def test_word_operations_match_old_module_on_large_shapes(d, k, data):
    _assert_matches_old(data.draw(st.integers(0, (1 << (d * k)) - 1)), d, k)


def test_recipes_are_the_public_operations():
    assert RANK_RECIPES == {
        "z": (),
        "u": (op_column_ranking,),
        "gray": (op_ranking,),
        "double-gray": (op_row_coding, op_ranking),
        "inside-out": (op_inversion, op_row_coding, op_ranking),
    }


def _matrices_of_every_origin(d, k, rng):
    """Matrices of one shape from each constructor, operation and unrank."""
    value, cell = rng.randrange(1 << (d * k)), [rng.randrange(1 << k) for _ in range(d)]
    built = [CoordinateMatrix.from_cell(cell, k), CoordinateMatrix.from_column_major(value, d, k)]
    built += [op(m) for m in built[:2] for op in NEW_OPS]
    built += [cell_of_rank(kind, RankWord(value, d * k), d, k) for kind in FIVE_KINDS]
    return built


def test_built_matrices_and_ranks_equal_their_checked_rebuilds():
    """On a seeded sample of shapes; an empty cell is still refused."""
    rng = random.Random(5)
    for d, k in [(rng.randint(1, 12), rng.randint(1, 40)) for _ in range(40)]:
        built = _matrices_of_every_origin(d, k, rng)
        assert all(CoordinateMatrix(m.bits) == m for m in built), (d, k)
        ranks = [rank_of_cell(kind, m) for kind in FIVE_KINDS for m in built]
        assert all(RankWord(r.value, r.width) == r for r in ranks), (d, k)
    with pytest.raises(ValueError, match="at least one row and column"):
        CoordinateMatrix.from_cell((), 2)


# -- value semantics of the word-backed matrix --------------------------------


def test_matrices_compare_and_hash_as_their_checked_rebuilds():
    rng = random.Random(8)
    for d, k in [(1, 1), (3, 4), (4, 8), (2, 33), (7, 5)]:
        for m in _matrices_of_every_origin(d, k, rng):
            rebuilt = CoordinateMatrix(m.bits)
            assert m == rebuilt and rebuilt == m and not m != rebuilt, (d, k)
            assert hash(m) == hash(rebuilt), (d, k)
            assert len({m, rebuilt}) == 1
            assert (m.rows, m.cols) == (rebuilt.rows, rebuilt.cols) == (d, k)
    # equal row words, different column counts
    assert CoordinateMatrix(((1,),)) != CoordinateMatrix(((0, 1),))
    assert CoordinateMatrix.from_cell((1, 2), 2) != CoordinateMatrix.from_cell((1, 2), 3)
    assert X0 != X0.bits and X0 != OldCoordinateMatrix(X0.bits)


def test_matrix_repr_is_the_dataclass_repr():
    assert repr(X0) == "CoordinateMatrix(bits=((0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 0, 1)))"
    rng = random.Random(9)
    for d, k in [(1, 1), (1, 7), (3, 4), (5, 2)]:
        for m in _matrices_of_every_origin(d, k, rng):
            old = OldCoordinateMatrix(m.bits)
            assert repr(m) == repr(old).replace("OldCoordinateMatrix", "CoordinateMatrix", 1)


def test_matrix_is_frozen_and_survives_pickle_and_copy():
    import copy
    import pickle
    from dataclasses import FrozenInstanceError

    m = CoordinateMatrix.from_cell((5, 2, 7), 3)
    for name in ("bits", "rows", "_words", "_cols", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, ((1,),))
        with pytest.raises(FrozenInstanceError):
            delattr(m, name)
    assert m.to_cell() == (5, 2, 7)
    for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert back == m and back.to_cell() == (5, 2, 7) and repr(back) == repr(m)


def test_bool_input_gives_int_cells_and_words():
    for m in (CoordinateMatrix.from_cell((True, 0), 1), CoordinateMatrix(((False,), (True,)))):
        assert m.to_cell() == (1, 0)
        assert [type(n) for n in m.to_cell()] == [int, int]
        assert [type(w) for w in m._words] == [int, int]
        assert rank_of_cell("z", m).value == 0b01


# -- bad input ------------------------------------------------------------


@pytest.mark.parametrize(
    "bits",
    [((0, 1.0), (1, 0)), ((0, 2), (1, 0)), ((0, -1), (1, 0)), ((0, "1"), (1, 0))],
)
def test_matrix_entries_must_be_int_bits(bits):
    with pytest.raises(ValueError, match="entries must be bits"):
        CoordinateMatrix(bits)


def test_bool_entries_are_bits():
    x = CoordinateMatrix(((False, True), (True, False)))
    assert x.column_major_value() == 0b0110
    assert rank_of_cell("u", x).value == 0b0111  # column ranking gives rows 01, 11


@pytest.mark.parametrize("level", [0, -1, 1.0])
def test_from_cell_rejects_bad_level(level):
    with pytest.raises(ValueError, match="level must be an int of at least 1"):
        CoordinateMatrix.from_cell((1, 0), level)


def test_from_cell_rejects_non_int_index():
    with pytest.raises(ValueError, match="cell index 1.0 is not an int"):
        CoordinateMatrix.from_cell((1.0, 0), 2)
    with pytest.raises(ValueError, match="out of range"):
        CoordinateMatrix.from_cell((4, 0), 2)


@pytest.mark.parametrize("d,level", [(-1, -3), (0, 3), (3, 0), (1.5, 2)])
def test_cell_of_rank_rejects_bad_shape(d, level):
    with pytest.raises(ValueError, match="d and level must be ints of at least 1"):
        cell_of_rank("z", RankWord(0, 3), d, level)


@pytest.mark.parametrize("value,rows,cols", [(1.0, 2, 2), (16, 2, 2), (-1, 2, 2), (0, 0, 2)])
def test_from_column_major_rejects_bad_input(value, rows, cols):
    with pytest.raises(ValueError, match="value does not fit|at least one row"):
        CoordinateMatrix.from_column_major(value, rows, cols)


def test_rank_word_rejects_bad_width_and_value():
    with pytest.raises(ValueError, match="rank width must be a non-negative int"):
        RankWord(1, -1)
    with pytest.raises(ValueError, match="rank value must be an int"):
        RankWord(1.0, 3)
    with pytest.raises(ValueError, match="rank does not fit its width"):
        RankWord(8, 3)
