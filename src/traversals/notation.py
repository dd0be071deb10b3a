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
    comment    := "#" … end of line

Whitespace, commas and comments all separate tokens.  ``[1 2 3}`` is
the identity on three axes, ``{3 1 -2]`` rotates, reflects and runs its
sub-traversal backwards, and bare integers between entries are moves
(``-1 2`` steps back along axis 1 and forward along axis 2
simultaneously).  Two adjacent entries with no integers between them
share a centre point.

All geometry is exact: centres are vectors of `fractions.Fraction`.
Rules are built and validated on the integer lattice: the step counts of
the moves are accumulated as integers, each centre coordinate becomes one
`Fraction`, and the check that centres and moves agree runs in integers
over one common denominator.  Every value in this module is immutable
and safe to share across threads; data derived from a rule (its
``fills_cube`` verdict, the engine's compiled state table) is computed
once and kept on the rule object, outside its fields, so equality,
hashing, ``repr``, copying and pickling see the fields alone.  The three
value types behave as frozen dataclasses but are plain classes (see
:class:`_Frozen`), so importing the package does not import
:mod:`dataclasses`.
Input is checked once, by the public constructors and `parse_definition`;
permutations and moves derived from checked ones are built by
``SignedPermutation._of`` and ``Move._of`` and not checked again.  For
rules, the public ``TraversalDefinition(...)`` runs every check, the
agreement of centres and moves included.  ``from_moves`` and
``from_centres`` check their own input (step denominator, dimension and
scale, entry count and lengths, move count and axes, centre count and
lengths) and reject it with the public constructor's messages, but
derive one of centres and moves from the other on the integer lattice,
so they do not test the agreement again.  Rules derived from checked ones (``reversed``, ``transformed``,
the engine's square) are built by ``TraversalDefinition._of`` and not
checked at all.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, attrgetter, eq, sub
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


class _Frozen:
    """The methods of a frozen dataclass over the fields ``_fields``.

    A subclass names its fields in ``_fields``, keeps them in its
    ``__slots__`` or in its instance ``__dict__``, and stores them with
    :meth:`_set`, in its checked ``__init__`` or through the unchecked
    :meth:`_of`.  An ``operator.attrgetter`` of the fields, taken when the
    subclass is created, reads them as one tuple (a one-tuple for a single
    field), and that tuple is what the instances compare, hash, print and
    pickle: they compare equal when their classes are the same and their
    fields are equal, hash as the tuple of their fields, print as
    ``Name(field=value, ...)``, refuse assignment and deletion with
    ``dataclasses.FrozenInstanceError``, and pickle and copy as their
    fields alone, so data cached on an instance outside its fields is
    neither pickled nor copied.  Unlike the ``@dataclass`` decorator, this
    builds no code at import time; the functions of :mod:`dataclasses`
    (``fields``, ``replace``, ``is_dataclass``) do not apply to these
    classes.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__ = cls._fields
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def _set(self, *values) -> None:
        """Store the fields, given in the order of ``_fields``."""
        store = object.__setattr__
        for name, value in zip(self._fields, values):
            store(self, name, value)

    @classmethod
    def _of(cls, *values):
        """A value derived from checked ones, stored unchecked."""
        self = object.__new__(cls)
        self._set(*values)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _refuse(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setstate__(self, state) -> None:
        self._set(*state)


def _refuse(message: str):
    from dataclasses import FrozenInstanceError  # only on this error path

    raise FrozenInstanceError(message)


class SignedPermutation(_Frozen):
    """A signed axis permutation with a traversal direction.

    ``entries[j-1]`` is the (1-based, signed) row index of the non-zero
    element in column ``j`` of the corresponding matrix; its sign is the
    sign of that element.  ``reverse`` records whether the sub-traversal
    runs backwards.
    """

    __slots__ = _fields = ("entries", "reverse")
    entries: tuple[int, ...]
    reverse: bool

    def __init__(self, entries: tuple[int, ...], reverse: bool = False):
        d = len(entries)
        if d == 0:
            raise ValueError("empty permutation")
        _require_ints(entries, "permutation entry")
        if sorted(map(abs, entries)) != list(range(1, d + 1)):
            raise ValueError(
                f"absolute values of {entries} are not a permutation of 1..{d}"
            )
        if type(reverse) is not bool:
            raise ValueError(f"reverse flag {reverse!r} is not a bool")
        self._set(entries, reverse)

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
        entries = self.entries
        if len(v) != len(entries):
            raise ValueError(f"dimension mismatch: {len(entries)} vs {len(v)}")
        out = [None] * len(entries)
        for j, e in enumerate(entries):
            out[abs(e) - 1] = v[j] if e > 0 else -v[j]
        return tuple(out)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Return self∘other, i.e. apply ``other`` first, then ``self``.

        ``compose(p, q).apply(v) == p.apply(q.apply(v))``; the direction
        flag of the result is the xor of the operand flags.
        """
        mine = self.entries
        if len(other.entries) != len(mine):
            raise ValueError("dimension mismatch in composition")
        return SignedPermutation._of(
            tuple(mine[e - 1] if e > 0 else -mine[-e - 1] for e in other.entries),
            self.reverse ^ other.reverse,
        )

    def inverse(self) -> "SignedPermutation":
        """Matrix transpose; direction flag is preserved."""
        out = [0] * self.dimension
        for j, e in enumerate(self.entries):
            out[abs(e) - 1] = j + 1 if e > 0 else -j - 1
        return SignedPermutation._of(tuple(out), self.reverse)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        d = self.dimension
        rows = [[0] * d for _ in range(d)]
        for j, e in enumerate(self.entries):
            rows[abs(e) - 1][j] = 1 if e > 0 else -1
        return tuple(tuple(r) for r in rows)

    def __str__(self) -> str:
        inner = " ".join(map(str, self.entries))
        return "{%s]" % inner if self.reverse else "[%s}" % inner


def _require_ints(items, what: str) -> None:
    """Refuse an item that is not an ``int`` (a bool included): the text
    form writes items with ``str``, and the parser reads back only ints."""
    for e in items:
        if type(e) is not int:
            raise ValueError(f"{what} {e!r} is not an int")


def _cube_symmetries(d: int) -> Iterator[SignedPermutation]:
    """The 2^d * d! signed permutations of the d-cube, in a fixed order:
    the unsigned permutations lexicographically, each with every sign mask."""
    for unsigned in itertools.permutations(range(1, d + 1)):
        for mask in range(1 << d):
            yield SignedPermutation._of(
                tuple(-u if mask & (1 << j) else u for j, u in enumerate(unsigned)), False
            )


def _symmetries_mapping(d: int, src: Sequence, dst: Sequence) -> Iterator[SignedPermutation]:
    """The cube symmetries g with ``g.apply(src[k]) == dst[k]`` for every k
    (``src`` and ``dst`` equally long), in the order of :func:`_cube_symmetries`.
    A candidate is dropped at its first mismatch."""
    for g in _cube_symmetries(d):
        if all(map(eq, map(g.apply, src), dst)):
            yield g


class Move(_Frozen):
    """Multiset of signed axis indices; the empty move means "stay put".

    Each element ``e`` is one step of the definition's step width along
    axis ``|e|`` in the direction of its sign.  Elements are kept in
    canonical order (ascending axis, positive before negative).
    """

    __slots__ = _fields = ("steps",)
    steps: tuple[int, ...]

    def __init__(self, steps: tuple[int, ...] = ()):
        _require_ints(steps, "move element")
        if 0 in steps:
            raise ValueError("move element 0 is not a valid axis index")
        if len(steps) > 1 or type(steps) is not tuple:
            steps = tuple(sorted(steps, key=lambda e: (abs(e), e < 0)))
        self._set(steps)

    def check_dimension(self, d: int) -> None:
        for e in self.steps:
            if abs(e) > d:
                raise ValueError(f"move element {e} out of range for dimension {d}")

    def int_displacement(self, d: int) -> tuple[int, ...]:
        """The step counts along axes 1..d."""
        out = [0] * d
        for e in self.steps:
            out[abs(e) - 1] += 1 if e > 0 else -1
        return tuple(out)

    def transformed(self, p: SignedPermutation) -> "Move":
        """The move as seen after mapping space through ``p``."""
        return Move(tuple(p.entries[e - 1] if e > 0 else -p.entries[-e - 1] for e in self.steps))

    def negated(self) -> "Move":
        return Move(tuple(-e for e in self.steps))

    def __str__(self) -> str:
        return " ".join(map(str, self.steps))


def _check_step_den(u) -> None:
    if not isinstance(u, int) or u < 1:
        raise ValueError(f"step denominator u={u!r} must be a positive integer")


def _require_entries(entries) -> None:
    if not entries:
        raise ValueError("a definition needs at least one entry")


def _check_parts(dimension, scale, entries, moves, centres) -> None:
    """The checks of a rule's fields that hold no matter how its centres
    and moves relate, in the order of ``TraversalDefinition`` itself."""
    if dimension < 1 or scale < 2:
        raise ValueError("need dimension >= 1 and scale >= 2")
    _require_entries(entries)
    if len(moves) != len(entries) - 1:
        raise ValueError("expected one move between each pair of entries")
    for e in entries:
        if e.dimension != dimension:
            raise ValueError("inconsistent entry lengths")
    for m in moves:
        m.check_dimension(dimension)
    if len(centres) != len(entries):
        raise ValueError("one centre per entry required")


def _lattice(u: int, centres) -> tuple[int, list[list[int]]]:
    """The least common denominator of ``1/u`` and the centres, and the
    centres as integer vectors over it."""
    den = lcm(u, *(x.denominator for c in centres for x in c))
    return den, [[x.numerator * (den // x.denominator) for x in c] for c in centres]


def _fractions(nums, den: int, factor: int, deltas) -> tuple[Vector, ...]:
    """Centres ``(nums + factor * delta) / den`` for each step-count vector
    ``delta``, one `Fraction` per distinct numerator."""
    made: dict[int, Fraction] = {}
    out = []
    for dl in deltas:
        c = []
        for a, x in zip(nums, dl):
            p = a + factor * x
            f = made.get(p)
            if f is None:
                f = made[p] = Fraction(p, den)
            c.append(f)
        out.append(tuple(c))
    return tuple(out)


class TraversalDefinition(_Frozen):
    """A complete self-similar traversal rule.

    ``entries`` and ``moves`` are the wire-format content (``moves`` has
    one element fewer).  ``scale`` is the number of tiles per axis per
    refinement level; ``step_den`` is the denominator of the move step
    width (equal to ``scale`` except for irregular tilings whose centres
    sit off the regular grid).  ``centres`` are the exact first-level
    tile centres, in a frame where the traversed shape's bounding box is
    ``[-1/2, 1/2]^d``.  The fields are kept in the instance ``__dict__``,
    beside the data cached there.
    """

    _fields = ("dimension", "scale", "entries", "moves", "step_den", "centres")
    dimension: int
    scale: int
    entries: tuple[SignedPermutation, ...]
    moves: tuple[Move, ...]
    step_den: int
    centres: tuple[Vector, ...]

    def __init__(self, dimension, scale, entries, moves, step_den, centres):
        self._set(dimension, scale, entries, moves, step_den, centres)
        _check_parts(self.dimension, self.scale, self.entries, self.moves, self.centres)
        _check_step_den(self.step_den)
        for c in self.centres:
            for x in c:
                if not isinstance(x, (int, Fraction)):
                    raise ValueError(f"centre coordinate {x!r} is not an int or Fraction")
        den, scaled = _lattice(self.step_den, self.centres)
        w = den // self.step_den  # one step on the lattice
        for k, m in enumerate(self.moves):
            if list(map(sub, scaled[k + 1], scaled[k])) != [
                w * x for x in m.int_displacement(self.dimension)
            ]:
                raise ValueError(f"centres and move {k + 1} disagree")
        # Checked after the moves, so a rule they reject keeps their message.
        for k, c in enumerate(self.centres):
            if len(c) != self.dimension:
                raise ValueError(
                    f"centre {k + 1} has {len(c)} coordinates, expected {self.dimension}"
                )

    @classmethod
    def _derived(cls, dimension, scale, entries, moves, step_den, centres) -> "TraversalDefinition":
        """A rule whose moves and centres were just derived from each other
        on the integer lattice, from a checked step denominator: they agree,
        so only the checks of the other fields run.  A centre of the wrong
        length takes the full check, whose message depends on the moves."""
        if any(len(c) != dimension for c in centres):
            return cls(dimension, scale, entries, moves, step_den, centres)
        _check_parts(dimension, scale, entries, moves, centres)
        return cls._of(dimension, scale, entries, moves, step_den, centres)

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
        _require_entries(entries)
        d = entries[0].dimension
        for m in moves:  # int_displacement indexes by axis unchecked
            m.check_dimension(d)
        u = step_den if step_den is not None else scale
        _check_step_den(u)
        deltas = [(0,) * d]  # step counts from the first centre
        for m in moves:
            deltas.append(tuple(map(add, deltas[-1], m.int_displacement(d))))
        if anchor is None:
            n = len(deltas)
            sums = [sum(col) for col in zip(*deltas)]
            if u == scale:
                # Centre (2k + 1 - s) / 2s of tile k nearest the mean-zero
                # placement -sum/(n*s), ties towards the low side.
                first = [1 - scale - 2 * ((2 * t + (2 - scale) * n) // (2 * n)) for t in sums]
                den, factor = 2 * scale, 2
            else:
                first, den, factor = [-t for t in sums], n * u, n
        else:
            a = [Fraction(x) for x in anchor]
            factor = lcm(*(x.denominator for x in a))
            first = [x.numerator * (factor // x.denominator) * u for x in a]
            den = factor * u
        centres = _fractions(first, den, factor, deltas)
        return cls._derived(d, scale, entries, moves, u, centres)

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
        centres = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in c) for c in centres
        )
        _require_entries(entries)
        d = entries[0].dimension
        u = step_den if step_den is not None else scale
        _check_step_den(u)
        den, scaled = _lattice(u, centres)
        w = den // u  # one step on the lattice
        moves = []
        for k in range(len(centres) - 1):
            steps = []
            for j, x in enumerate(map(sub, scaled[k + 1], scaled[k])):
                n, r = divmod(x, w)
                if r:
                    diff = tuple(map(sub, centres[k + 1], centres[k]))
                    raise ValueError(f"centre difference {diff} is not a multiple of 1/{u}")
                steps.extend([j + 1 if n > 0 else -j - 1] * abs(n))
            moves.append(Move(tuple(steps)))
        return cls._derived(d, scale, entries, tuple(moves), u, centres)

    # -- inspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def fills_cube(self) -> bool:
        """True when the rule tiles the full cube grid, one tile per cell."""
        d, s = self.dimension, self.scale
        if len(self.entries) != s**d:
            return False
        grid = set()
        for c in self.centres:
            # Coordinate x is the centre (2i + 1 - s) / 2s of cell i.
            cell = tuple(
                divmod(2 * s * x.numerator + (s - 1) * x.denominator, 2 * x.denominator)
                for x in c
            )
            if any(r or not 0 <= i < s for i, r in cell):
                return False
            grid.add(cell)
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
            SignedPermutation._of(e.entries, not e.reverse) for e in reversed(self.entries)
        )
        moves = tuple(m.negated() for m in reversed(self.moves))
        centres = tuple(reversed(self.centres))
        return TraversalDefinition._of(
            self.dimension, self.scale, entries, moves, self.step_den, centres
        )

    def transformed(self, p: SignedPermutation) -> "TraversalDefinition":
        """Map the whole rule through the cube symmetry ``p``."""
        entries = tuple(
            SignedPermutation._of(p.compose(e).entries, e.reverse) for e in self.entries
        )
        moves = tuple(m.transformed(p) for m in self.moves)
        centres = tuple(p.apply(c) for c in self.centres)
        return TraversalDefinition._of(
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


# A comment (skipped), a header field, an integer, a bracket, or any
# other character, which is an error; whitespace and commas separate.
_TOKEN = re.compile(r"#.*|([dsu])=(\d+)|(-?\d+)|([\[\]{}])|([^\s,])")

_CLOSER = {"[": "}", "{": "]"}


def parse_definition(text: str) -> TraversalDefinition:
    """Parse definition text; see the module docstring for the grammar.

    The dimension is taken from the first entry (and checked against a
    ``d=`` header if present); the scale comes from the header, or is
    inferred when the entry count is an exact power ``k^d``, or defaults
    to 2.  Centres are placed with their mean at the origin.  Every
    rejection, the rule constructor's included, is a `ParseError`.
    """
    header: dict[str, int] = {}
    entries: list[SignedPermutation] = []
    moves: list[Move] = []
    ints: list[int] = []  # the move or entry being read
    opener = None  # the bracket of the open entry
    try:
        # A group that did not take part in the match reads "".
        for key, val, num, bracket, junk in _TOKEN.findall(text):
            if num:
                ints.append(int(num))
            elif key:
                if entries or ints or opener:
                    raise ParseError("header fields must precede the first entry")
                header[key] = int(val)
            elif junk:
                raise ParseError(f"unexpected character {junk!r}")
            elif not bracket:  # a comment
                continue
            elif opener:
                if bracket != _CLOSER[opener]:
                    raise ParseError(f"malformed bracket pairing: {opener!r} closed by {bracket!r}")
                entries.append(SignedPermutation(tuple(ints), reverse=opener == "{"))
                opener, ints = None, []
            elif bracket not in _CLOSER:
                raise ParseError(f"unexpected {bracket!r}; an entry must open with [ or {{")
            elif ints and not entries:
                raise ParseError("moves may not precede the first entry")
            else:
                if entries:
                    moves.append(Move(tuple(ints)))
                opener, ints = bracket, []
        if opener:
            raise ParseError("entry is not closed")
        if ints:
            raise ParseError("no move is allowed after the last entry")
        if not entries:
            raise ParseError("definition contains no entries")
        d = entries[0].dimension
        if header.get("d", d) != d:
            raise ParseError(f"header says d={header['d']} but entries have length {d}")
        # u defaults to s and the constructor checks u first: check s here.
        scale = header.get("s", _inferred_scale(len(entries), d))
        if scale < 2:
            raise ParseError(f"scale s={scale} must be at least 2")
        return TraversalDefinition.from_moves(
            entries, moves, scale=scale, step_den=header.get("u")
        )
    except ValueError as exc:  # a ParseError keeps its type and text
        raise ParseError(str(exc)) from None
