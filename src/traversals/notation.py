"""Signed-permutation notation for self-similar grid traversals.

A traversal rule is an ordered list of *entries*, one per tile of the
first subdivision level, with a *move* between consecutive entries.  An
entry is a signed permutation of the coordinate axes plus a direction
flag; a move is a multiset of signed axis indices giving the step from
one tile centre to the next.  The text form is:

    definition := header? entry (move-ints? entry)*
    entry      := "[" ints "}"        forward sub-traversal
                | "{" ints "]"        reversed sub-traversal
    header     := "d=<int> s=<int> [u=<int>]"

Whitespace and commas both separate tokens.  ``[1 2 3}`` is the identity
on three axes, ``{3 1 -2]`` rotates, reflects and runs its sub-traversal
backwards, and bare integers between entries are moves (``-1 2`` steps
back along axis 1 and forward along axis 2 simultaneously).  Two
adjacent entries with no integers between them share a centre point.

All geometry is exact: centres are vectors of `fractions.Fraction`.
Every value in this module is immutable and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Vector = tuple[Fraction, ...]

__all__ = [
    "ParseError",
    "SignedPermutation",
    "Move",
    "TraversalDefinition",
    "Vector",
    "parse_definition",
    "format_definition",
]


class ParseError(ValueError):
    """Raised when definition text does not follow the grammar."""


def _sign(x: int) -> int:
    return -1 if x < 0 else 1


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    """A signed axis permutation with a traversal direction.

    ``entries[j-1]`` is the (1-based, signed) row index of the non-zero
    element in column ``j`` of the corresponding matrix; its sign is the
    sign of that element.  ``reverse`` records whether the sub-traversal
    runs backwards.
    """

    entries: tuple[int, ...]
    reverse: bool = False

    def __post_init__(self):
        d = len(self.entries)
        if d == 0:
            raise ValueError("empty permutation")
        if sorted(abs(e) for e in self.entries) != list(range(1, d + 1)):
            raise ValueError(
                f"absolute values of {self.entries} are not a permutation of 1..{d}"
            )

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, d: int, reverse: bool = False) -> "SignedPermutation":
        return cls(tuple(range(1, d + 1)), reverse)

    def unsigned(self) -> tuple[int, ...]:
        return tuple(abs(e) for e in self.entries)

    def is_identity(self) -> bool:
        return all(e == j + 1 for j, e in enumerate(self.entries))

    def apply(self, v: Sequence) -> tuple:
        """Multiply the permutation matrix by column vector ``v``.

        The result has ``out[|p[j]|] = sign(p[j]) * v[j]``; works for any
        numeric coordinate type.
        """
        if len(v) != self.dimension:
            raise ValueError(f"dimension mismatch: {self.dimension} vs {len(v)}")
        out = [None] * self.dimension
        for j, e in enumerate(self.entries):
            out[abs(e) - 1] = v[j] if e > 0 else -v[j]
        return tuple(out)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Return self∘other, i.e. apply ``other`` first, then ``self``.

        ``compose(p, q).apply(v) == p.apply(q.apply(v))``; the direction
        flag of the result is the xor of the operand flags.
        """
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch in composition")
        ent = tuple(
            _sign(e) * self.entries[abs(e) - 1] for e in other.entries
        )
        return SignedPermutation(ent, self.reverse ^ other.reverse)

    def inverse(self) -> "SignedPermutation":
        """Matrix transpose; direction flag is preserved."""
        out = [0] * self.dimension
        for j, e in enumerate(self.entries):
            out[abs(e) - 1] = _sign(e) * (j + 1)
        return SignedPermutation(tuple(out), self.reverse)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        d = self.dimension
        rows = [[0] * d for _ in range(d)]
        for j, e in enumerate(self.entries):
            rows[abs(e) - 1][j] = _sign(e)
        return tuple(tuple(r) for r in rows)

    def __str__(self) -> str:
        inner = " ".join(str(e) for e in self.entries)
        return "{%s]" % inner if self.reverse else "[%s}" % inner


def _cube_symmetries(d: int) -> Iterator[SignedPermutation]:
    """The 2^d * d! signed permutations of the d-cube, in a fixed order:
    the unsigned permutations lexicographically, each with every sign mask."""
    for unsigned in itertools.permutations(range(1, d + 1)):
        for mask in range(1 << d):
            yield SignedPermutation(
                tuple(-u if mask & (1 << j) else u for j, u in enumerate(unsigned))
            )


@dataclass(frozen=True, slots=True)
class Move:
    """Multiset of signed axis indices; the empty move means "stay put".

    Each element ``e`` is one step of the definition's step width along
    axis ``|e|`` in the direction of its sign.  Elements are kept in
    canonical order (ascending axis, positive before negative).
    """

    steps: tuple[int, ...] = ()

    def __post_init__(self):
        if any(e == 0 for e in self.steps):
            raise ValueError("move element 0 is not a valid axis index")
        canon = tuple(sorted(self.steps, key=lambda e: (abs(e), e < 0)))
        object.__setattr__(self, "steps", canon)

    def check_dimension(self, d: int) -> None:
        for e in self.steps:
            if abs(e) > d:
                raise ValueError(f"move element {e} out of range for dimension {d}")

    def displacement(self, d: int, step: Fraction) -> Vector:
        out = [Fraction(0)] * d
        for e in self.steps:
            out[abs(e) - 1] += step if e > 0 else -step
        return tuple(out)

    def negated_int_displacement(self, d: int) -> tuple[int, ...]:
        out = [0] * d
        for e in self.steps:
            out[abs(e) - 1] += 1 if e > 0 else -1
        return tuple(out)

    def transformed(self, p: SignedPermutation) -> "Move":
        """The move as seen after mapping space through ``p``."""
        return Move(tuple(_sign(e) * p.entries[abs(e) - 1] for e in self.steps))

    def negated(self) -> "Move":
        return Move(tuple(-e for e in self.steps))

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.steps)


def _snap_to_tile_grid(v: Fraction, s: int) -> Fraction:
    """Nearest first-level tile-centre coordinate (k + 1/2)/s - 1/2."""
    w = (v + Fraction(1, 2)) * s - Fraction(1, 2)
    k = -((Fraction(1, 2) - w).__floor__())  # round to nearest, ties down
    return Fraction(2 * k + 1, 2 * s) - Fraction(1, 2)


def _zero(d: int) -> Vector:
    return (Fraction(0),) * d


def _vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class TraversalDefinition:
    """A complete self-similar traversal rule.

    ``entries`` and ``moves`` are the wire-format content (``moves`` has
    one element fewer).  ``scale`` is the number of tiles per axis per
    refinement level; ``step_den`` is the denominator of the move step
    width (equal to ``scale`` except for irregular tilings whose centres
    sit off the regular grid).  ``centres`` are the exact first-level
    tile centres, in a frame where the traversed shape's bounding box is
    ``[-1/2, 1/2]^d``.
    """

    dimension: int
    scale: int
    entries: tuple[SignedPermutation, ...]
    moves: tuple[Move, ...]
    step_den: int
    centres: tuple[Vector, ...]

    def __post_init__(self):
        if self.dimension < 1 or self.scale < 2:
            raise ValueError("need dimension >= 1 and scale >= 2")
        if len(self.entries) < 1:
            raise ValueError("a definition needs at least one entry")
        if len(self.moves) != len(self.entries) - 1:
            raise ValueError("expected one move between each pair of entries")
        for e in self.entries:
            if e.dimension != self.dimension:
                raise ValueError("inconsistent entry lengths")
        for m in self.moves:
            m.check_dimension(self.dimension)
        if len(self.centres) != len(self.entries):
            raise ValueError("one centre per entry required")
        step = Fraction(1, self.step_den)
        for k, m in enumerate(self.moves):
            if _vsub(self.centres[k + 1], self.centres[k]) != m.displacement(
                self.dimension, step
            ):
                raise ValueError(f"centres and move {k + 1} disagree")

    # -- construction ------------------------------------------------

    @classmethod
    def from_moves(
        cls,
        entries: Iterable[SignedPermutation],
        moves: Iterable[Move],
        *,
        scale: int = 2,
        step_den: int | None = None,
        anchor: Vector | None = None,
    ) -> "TraversalDefinition":
        """Build a definition, placing the first centre at ``anchor``.

        Without an anchor the pattern is placed with the mean of the
        centres at the origin; when the moves advance on the regular
        tile grid (step width 1/scale) the placement is then snapped to
        that grid, ties broken towards the low side.  Cube-filling
        patterns are mean-zero on the grid already, so the snap only
        matters for shapes such as simplex tilings, where it recovers
        the pattern's start in the all-low tile box.
        """
        entries = tuple(entries)
        moves = tuple(moves)
        d = entries[0].dimension
        u = step_den if step_den is not None else scale
        step = Fraction(1, u)
        deltas = [_zero(d)]
        for m in moves:
            deltas.append(_vadd(deltas[-1], m.displacement(d, step)))
        if anchor is None:
            n = len(deltas)
            mean = tuple(sum(dl[j] for dl in deltas) / n for j in range(d))
            c1 = tuple(-x for x in mean)
            if u == scale:
                c1 = tuple(_snap_to_tile_grid(x, scale) for x in c1)
        else:
            c1 = tuple(Fraction(x) for x in anchor)
        centres = tuple(_vadd(c1, dl) for dl in deltas)
        return cls(d, scale, entries, moves, u, centres)

    @classmethod
    def from_centres(
        cls,
        entries: Iterable[SignedPermutation],
        centres: Iterable[Vector],
        *,
        scale: int = 2,
        step_den: int | None = None,
    ) -> "TraversalDefinition":
        """Build a definition from explicit centres; moves are derived."""
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
        return cls(d, scale, entries, tuple(moves), u, centres)

    # -- inspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def fills_cube(self) -> bool:
        """True when the rule tiles the full cube grid, one tile per cell."""
        d, s = self.dimension, self.scale
        if len(self.entries) != s**d:
            return False
        half = Fraction(1, 2)
        grid = set()
        for c in self.centres:
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

    def structurally_equal(self, other: "TraversalDefinition") -> bool:
        """Equality of the wire-format content (centre anchoring ignored)."""
        return (
            self.dimension == other.dimension
            and self.scale == other.scale
            and self.step_den == other.step_den
            and self.entries == other.entries
            and self.moves == other.moves
        )

    def reanchored(self, anchor: Vector | None) -> "TraversalDefinition":
        return TraversalDefinition.from_moves(
            self.entries,
            self.moves,
            scale=self.scale,
            step_den=self.step_den,
            anchor=anchor,
        )

    def reversed(self) -> "TraversalDefinition":
        """The same traversal run backwards."""
        entries = tuple(
            SignedPermutation(e.entries, not e.reverse)
            for e in reversed(self.entries)
        )
        moves = tuple(m.negated() for m in reversed(self.moves))
        centres = tuple(reversed(self.centres))
        return TraversalDefinition(
            self.dimension, self.scale, entries, moves, self.step_den, centres
        )

    def transformed(self, p: SignedPermutation) -> "TraversalDefinition":
        """Map the whole rule through the cube symmetry ``p``."""
        entries = tuple(
            SignedPermutation(p.compose(e).entries, e.reverse) for e in self.entries
        )
        moves = tuple(m.transformed(p) for m in self.moves)
        centres = tuple(p.apply(c) for c in self.centres)
        return TraversalDefinition(
            self.dimension, self.scale, entries, moves, self.step_den, centres
        )

    def __str__(self) -> str:
        return format_definition(self)


# -- text format -----------------------------------------------------


def _inferred_scale(entry_count: int, d: int) -> int:
    """Scale implied by a headerless definition with this many entries."""
    k = 2
    while k**d <= entry_count:
        if k**d == entry_count:
            return k
        k += 1
    return 2


def format_definition(defn: TraversalDefinition) -> str:
    """Canonical one-line text form.

    A ``d= s=`` header is emitted only when the scale or step width
    could not be reconstructed from the entries alone.
    """
    parts = []
    inferred = _inferred_scale(len(defn.entries), defn.dimension)
    if defn.scale != inferred or defn.step_den != defn.scale:
        head = f"d={defn.dimension} s={defn.scale}"
        if defn.step_den != defn.scale:
            head += f" u={defn.step_den}"
        parts.append(head)
    for k, entry in enumerate(defn.entries):
        if k > 0:
            ms = str(defn.moves[k - 1])
            if ms:
                parts.append(ms)
        parts.append(str(entry))
    return " ".join(parts)


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


def parse_definition(text: str) -> TraversalDefinition:
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
