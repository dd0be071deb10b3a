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

Bits enter and leave the words only at the API boundary: a rank reads
the matrix once and interleaves its words once, an unrank
de-interleaves once and builds one matrix, so each step of a recipe
costs O(d) word operations.
Input is checked once, where it comes in; the matrices built by ``_matrix``
and the ranks of :func:`rank_of_cell` are not checked again.  The module
imports nothing else from the package: it is an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _words(rows) -> list[int]:
    """Each row of bits as one int, its first bit most significant."""
    digits = map(bytes.translate, map(bytes, rows), repeat(_TO_DIGITS))
    return list(map(int, digits, repeat(2)))


@dataclass(frozen=True, slots=True)
class CoordinateMatrix:
    """A d-by-k matrix of coordinate bits."""

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.bits or not self.bits[0]:
            raise ValueError("matrix must have at least one row and column")
        if len(set(map(len, self.bits))) != 1:
            raise ValueError("ragged matrix")
        entries = list(chain.from_iterable(self.bits))
        if not all(map(isinstance, entries, repeat(int))) or not _BIT_VALUES.issuperset(entries):
            raise ValueError("entries must be bits")

    @property
    def rows(self) -> int:
        return len(self.bits)

    @property
    def cols(self) -> int:
        return len(self.bits[0])

    @classmethod
    def from_cell(cls, cell: tuple[int, ...], level: int) -> "CoordinateMatrix":
        """Matrix for the cell with the given per-axis indices in [0, 2^level)."""
        if not isinstance(level, int) or level < 1:
            raise ValueError(f"level must be an int of at least 1, got {level!r}")
        if not cell:
            raise ValueError("matrix must have at least one row and column")
        words = cell[::-1]  # row 1 is the highest axis
        for n in words:
            if not isinstance(n, int):
                raise ValueError(f"cell index {n!r} is not an int")
            if not 0 <= n < (1 << level):
                raise ValueError(f"cell index {n} out of range for level {level}")
        return _matrix(words, level)

    def to_cell(self) -> tuple[int, ...]:
        return tuple(_words(reversed(self.bits)))

    def column_major_value(self) -> int:
        return _words([chain.from_iterable(zip(*self.bits))])[0]

    @classmethod
    def from_column_major(cls, value: int, rows: int, cols: int) -> "CoordinateMatrix":
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
        if not isinstance(self.width, int) or self.width < 0:
            raise ValueError(f"rank width must be a non-negative int, got {self.width!r}")
        if not isinstance(self.value, int):
            raise ValueError(f"rank value must be an int, got {self.value!r}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError("rank does not fit its width")


def _matrix(words, k: int) -> CoordinateMatrix:
    """The matrix of checked row words of ``k`` bits, left unchecked."""
    bits = iter("".join(map(format, words, repeat(f"0{k}b"))).encode().translate(_TO_BITS))
    m = object.__new__(CoordinateMatrix)
    object.__setattr__(m, "bits", tuple(zip(*[bits] * k)))  # rows of k bits
    return m


def _interleave(words: list[int], k: int) -> int:
    """The column-major reading of the row words, as one number."""
    d, fmt = len(words), f"0{k}b"
    digits = bytearray(d * k)
    for r, w in enumerate(words):
        digits[r::d] = format(w, fmt).encode()
    return int(digits, 2)


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
        k = x.cols
        return _matrix(word_op(_words(x.bits), k), k)

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
    bits = corner_bits.bits
    k = len(bits[0])
    words = _words(bits)
    for op in recipe:
        words = op(words, k)
    rank = object.__new__(RankWord)  # read from a checked matrix, left unchecked
    object.__setattr__(rank, "value", _interleave(words, k))
    object.__setattr__(rank, "width", len(bits) * k)
    return rank


def cell_of_rank(kind: str, rank: RankWord, d: int, level: int) -> CoordinateMatrix:
    """Inverse of :func:`rank_of_cell`."""
    try:
        recipe = _UNRANK[kind]
    except KeyError:
        raise ValueError(f"no bit-matrix recipe for kind {kind!r}") from None
    if not (isinstance(d, int) and isinstance(level, int) and d >= 1 and level >= 1):
        raise ValueError(f"d and level must be ints of at least 1, got {d!r} and {level!r}")
    if rank.width != d * level:
        raise ValueError("rank width does not match d*level")
    words = _deinterleave(rank.value, d, level)
    for op in recipe:
        words = op(words, level)
    return _matrix(words, level)
