"""Coordinate bit-matrix calculus for the quadrant-by-quadrant traversals.

The five traversals without rotations (Z, U, Gray-code, Double-Gray-code,
Inside-out) admit a direct rank computation: write the subcube's
lexicographically smallest corner as a d-row matrix of coordinate bits,
apply a short sequence of reversible bit operations, and read the result
column by column as one binary number.  Sorting subcubes by that number
reproduces the traversal order, which makes this module an independent
oracle for the recursive engine.

Matrix convention: row ``d+1-i`` holds coordinate ``i``'s fractional
bits of ``x + 1/2``, most significant first, so row 1 belongs to the
highest axis.  Whole-matrix reads go column by column, left to right,
and top down within each column.

Row words.  The operations work on the d *row words* w[1], ..., w[d]:
row r packed as one k-bit int, column 1 most significant.  Row coding
and row decoding apply :func:`gray` and :func:`gray_inverse` to each
word; inversion XORs each word with the mask of columns 2, 4, ...;
column ranking (g^-1 on each column) is a running XOR down the rows,
and column coding (g on each column) is ``w[r] ^ w[r-1]``.  The Gray
code g of the whole matrix in column-major order needs no interleaving.
The bit read just before (r, c) is (r-1, c), or (d, c-1) for the top
row, so

    g(w)[1] = w[1] ^ (w[d] >> 1),    g(w)[r] = w[r] ^ w[r-1]  (r > 1).

Its inverse XORs every bit read so far.  With P = w[1] ^ ... ^ w[d],
the parity of each column, ``gray_inverse(P) >> 1`` holds at column c
the parity of all columns left of c, so

    g^-1(w)[r] = (gray_inverse(P) >> 1) ^ w[1] ^ ... ^ w[r].

A :class:`CoordinateMatrix` *is* its row words and its column count;
``.bits`` is derived from them only when someone reads it.  So cells,
operations, ranks and unranks stay integers from input to output: a
cell's indices are the row words in reverse order, a rank interleaves
the words once, an unrank de-interleaves once, and each step of a recipe
costs O(d) word operations.
Input is checked once, where it comes in; the matrices built by ``_matrix``
and the ranks of :func:`rank_of_cell` are not checked again.  The module
imports nothing else from the package: it is an independent oracle.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cache
from itertools import accumulate, chain, repeat
from operator import xor

__all__ = [
    "CoordinateMatrix",
    "RankWord",
    "gray",
    "gray_inverse",
    "op_inversion",
    "op_row_coding",
    "op_ranking",
    "op_column_ranking",
    "rank_of_cell",
    "cell_of_rank",
    "RANK_RECIPES",
]


def gray(n: int) -> int:
    """Reflected binary Gray code of n.

    >>> gray(5)
    7
    >>> gray(12)
    10
    """
    if n < 0:
        raise ValueError("gray is defined for non-negative integers")
    return n ^ (n >> 1)


def gray_inverse(n: int) -> int:
    """Inverse of :func:`gray`, computed by prefix-xor of the bits.

    >>> gray_inverse(7)
    5
    >>> all(gray_inverse(gray(n)) == n for n in range(1 << 12))
    True
    """
    if n < 0:
        raise ValueError("gray_inverse is defined for non-negative integers")
    shift = 1
    while (n >> shift) > 0:
        n ^= n >> shift
        shift <<= 1
    return n


# Bits and binary digits, translated by C-level bytes methods.
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_BIT_VALUES = frozenset((0, 1))


def _pack(rows) -> tuple[int, ...]:
    """Each row of bits as one int, its first bit most significant."""
    digits = map(bytes.translate, map(bytes, rows), repeat(_TO_DIGITS))
    return tuple(map(int, digits, repeat(2)))


class CoordinateMatrix:
    """A d-by-k matrix of coordinate bits, held as its d row words.

    Compared, hashed, printed and frozen like a dataclass whose one field
    is ``bits``:

    >>> x = CoordinateMatrix(((0, 1, 1), (1, 0, 0)))
    >>> x
    CoordinateMatrix(bits=((0, 1, 1), (1, 0, 0)))
    >>> x == CoordinateMatrix.from_cell((4, 3), 3), x.rows, x.cols
    (True, 2, 3)
    """

    __slots__ = ("_words", "_cols")

    def __init__(self, bits: tuple[tuple[int, ...], ...]):
        if not bits or not bits[0]:
            raise ValueError("matrix must have at least one row and column")
        if len(set(map(len, bits))) != 1:
            raise ValueError("ragged matrix")
        entries = list(chain.from_iterable(bits))
        if not all(map(isinstance, entries, repeat(int))) or not _BIT_VALUES.issuperset(entries):
            raise ValueError("entries must be bits")
        object.__setattr__(self, "_words", _pack(bits))
        object.__setattr__(self, "_cols", len(bits[0]))

    @property
    def bits(self) -> tuple[tuple[int, ...], ...]:
        """The rows of bits, row 1 first, built from the words when read."""
        k = self._cols
        digits = "".join(map(format, self._words, repeat(f"0{k}b"))).encode()
        return tuple(zip(*[iter(digits.translate(_TO_BITS))] * k))  # rows of k bits

    @property
    def rows(self) -> int:
        return len(self._words)

    @property
    def cols(self) -> int:
        return self._cols

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._cols == other._cols and self._words == other._words

    def __hash__(self) -> int:
        return hash((self._words, self._cols))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(bits={self.bits!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _matrix, (self._words, self._cols)

    @classmethod
    def from_cell(cls, cell: tuple[int, ...], level: int) -> "CoordinateMatrix":
        """Matrix for the cell with the given per-axis indices in [0, 2^level)."""
        if type(level) is not int or level < 1:
            raise ValueError(f"level must be an int of at least 1, got {level!r}")
        if not cell:
            raise ValueError("matrix must have at least one row and column")
        words = cell[::-1]  # row 1 is the highest axis
        for n in words:
            if not isinstance(n, int):
                raise ValueError(f"cell index {n!r} is not an int")
            if not 0 <= n < (1 << level):
                raise ValueError(f"cell index {n} out of range for level {level}")
        return _matrix(map(int, words), level)  # bools become ints

    def to_cell(self) -> tuple[int, ...]:
        return self._words[::-1]

    def column_major_value(self) -> int:
        return _interleave(self._words)

    @classmethod
    def from_column_major(cls, value: int, rows: int, cols: int) -> "CoordinateMatrix":
        if type(rows) is not int or type(cols) is not int:
            raise ValueError(f"rows and cols must be ints, got {rows!r} and {cols!r}")
        if rows < 1 or cols < 1:
            raise ValueError("matrix must have at least one row and column")
        if not isinstance(value, int) or not 0 <= value < (1 << (rows * cols)):
            raise ValueError("value does not fit the matrix shape")
        return _matrix(_deinterleave(value, rows, cols), cols)


@dataclass(frozen=True, slots=True)
class RankWord:
    """Position index of a subcube: a d*level-bit unsigned integer."""

    value: int
    width: int

    def __post_init__(self):
        if type(self.width) is not int or self.width < 0:
            raise ValueError(f"rank width must be a non-negative int, got {self.width!r}")
        if not isinstance(self.value, int):
            raise ValueError(f"rank value must be an int, got {self.value!r}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError("rank does not fit its width")


def _matrix(words, k: int) -> CoordinateMatrix:
    """The matrix of checked int row words of ``k`` bits, left unchecked."""
    m = object.__new__(CoordinateMatrix)
    object.__setattr__(m, "_words", tuple(words))
    object.__setattr__(m, "_cols", k)
    return m


@cache
def _spread(d: int) -> list[int]:
    """By byte value: the byte with its bit j moved to bit ``j*d``."""
    return [sum(1 << (j * d) for j in range(8) if b >> j & 1) for b in range(256)]


def _interleave(words) -> int:
    """The column-major reading of the row words, as one number.

    Bit j of row r (bits counted from 0 at the right, rows from 1) lands
    at bit ``j*d + d-r``; each byte of a word is spread by one table lookup.
    """
    d = len(words)
    spread, step, value = _spread(d), 8 * d, 0
    for r, w in enumerate(words, 1):
        shift = d - r
        while w:
            value |= spread[w & 255] << shift
            w >>= 8
            shift += step
    return value


def _deinterleave(value: int, d: int, k: int) -> list[int]:
    """The d row words whose column-major reading is ``value``."""
    digits = format(value, f"0{d * k}b").encode()
    return [int(digits[r::d], 2) for r in range(d)]


# -- the operations on row words: (words, k) -> words ----------------------


def _inversion(w: list[int], k: int) -> list[int]:
    """Flip all bits in every second column (columns 2, 4, ...)."""
    mask = ((1 << k) - 1) // 3  # 0b...0101: bits k-2, k-4, ...
    return [x ^ mask for x in w]


def _row_coding(w: list[int], k: int) -> list[int]:
    """Apply the Gray code g to each row."""
    return [x ^ (x >> 1) for x in w]


def _row_decoding(w: list[int], k: int) -> list[int]:
    """Apply g^-1 to each row."""
    return list(map(gray_inverse, w))


def _column_ranking(w: list[int], k: int) -> list[int]:
    """Apply g^-1 to each column."""
    return list(accumulate(w, xor))


def _column_coding(w: list[int], k: int) -> list[int]:
    """Apply g to each column."""
    return [w[0], *map(xor, w[1:], w)]


def _ranking(w: list[int], k: int) -> list[int]:
    """Apply g^-1 to the whole matrix in column-major reading order.

    On the worked example X0 (rows 0110, 1011, 0001), P = 1100 and
    ``gray_inverse(P) >> 1`` = 0100:

    >>> [format(x, "04b") for x in _ranking([0b0110, 0b1011, 0b0001], 4)]
    ['0010', '1001', '1000']
    """
    prefix = list(accumulate(w, xor))
    carry = gray_inverse(prefix[-1]) >> 1
    return [carry ^ x for x in prefix]


def _unranking(w: list[int], k: int) -> list[int]:
    """Apply g to the whole matrix in column-major reading order.

    It takes the ranked X0 back to X0; the top row 0010 gains the
    bottom row 1000 shifted one column right:

    >>> [format(x, "04b") for x in _unranking([0b0010, 0b1001, 0b1000], 4)]
    ['0110', '1011', '0001']
    """
    return [w[0] ^ (w[-1] >> 1), *map(xor, w[1:], w)]


_INVERSE = {
    _inversion: _inversion,
    _row_coding: _row_decoding,
    _ranking: _unranking,
    _column_ranking: _column_coding,
}

# Word operations per traversal kind, applied left to right to rank;
# unranking applies their inverses right to left.
_RANK = {
    "z": (),
    "u": (_column_ranking,),
    "gray": (_ranking,),
    "double-gray": (_row_coding, _ranking),
    "inside-out": (_inversion, _row_coding, _ranking),
}
_UNRANK = {
    kind: tuple(_INVERSE[op] for op in reversed(ops)) for kind, ops in _RANK.items()
}


@cache
def _on_matrix(word_op):
    """The :class:`CoordinateMatrix` form of a word operation (one per op)."""

    def op(x: CoordinateMatrix) -> CoordinateMatrix:
        k = x._cols
        return _matrix(word_op(x._words, k), k)

    op.__name__ = op.__qualname__ = "op" + word_op.__name__
    op.__doc__ = word_op.__doc__.partition("\n\n")[0]  # the summary, not a doctest
    return op


op_inversion = _on_matrix(_inversion)
op_row_coding = _on_matrix(_row_coding)
op_ranking = _on_matrix(_ranking)
op_column_ranking = _on_matrix(_column_ranking)
_op_row_decoding = _on_matrix(_row_decoding)
_op_unranking = _on_matrix(_unranking)
_op_column_coding = _on_matrix(_column_coding)

# Operation sequence per traversal kind, applied left to right.
RANK_RECIPES = {kind: tuple(map(_on_matrix, ops)) for kind, ops in _RANK.items()}


def rank_of_cell(kind: str, corner_bits: CoordinateMatrix) -> RankWord:
    """Traversal position of the subcube encoded by ``corner_bits``."""
    try:
        recipe = _RANK[kind]
    except KeyError:
        raise ValueError(f"no bit-matrix recipe for kind {kind!r}") from None
    words, k = corner_bits._words, corner_bits._cols
    for op in recipe:
        words = op(words, k)
    rank = object.__new__(RankWord)  # read from a checked matrix, left unchecked
    object.__setattr__(rank, "value", _interleave(words))
    object.__setattr__(rank, "width", len(words) * k)
    return rank


def cell_of_rank(kind: str, rank: RankWord, d: int, level: int) -> CoordinateMatrix:
    """Inverse of :func:`rank_of_cell`."""
    try:
        recipe = _UNRANK[kind]
    except KeyError:
        raise ValueError(f"no bit-matrix recipe for kind {kind!r}") from None
    if not (type(d) is int and type(level) is int and d >= 1 and level >= 1):
        raise ValueError(f"d and level must be ints of at least 1, got {d!r} and {level!r}")
    if rank.width != d * level:
        raise ValueError("rank width does not match d*level")
    words = _deinterleave(rank.value, d, level)
    for op in recipe:
        words = op(words, level)
    return _matrix(words, level)
