"""Generators for the sixteen built-in traversal families.

Each family is produced for an arbitrary number of dimensions as a
:class:`~traversals.notation.TraversalDefinition`, following closed-form
rules for the permutation, the reflections and the direction of every
entry.  The nine families on the binary reflected-Gray pattern G2(d)
share one builder: each gives only its entry formula, which reads the
tile's side of every axis from the Gray bits of its position.  The
Hill-Z and Maehara orders on the simplex centres share another, which
sorts the binary digits of each position and differs between the two
only in the rank of a one-digit and in the reversal of odd entries.
Each pattern half (the moves and centres of G2, G3, the zig-zag or the
simplex centres) is built and checked once per (pattern, d), up to
4 096 tiles, and shared by every rule on it; a rule adds only its
entries.  Fixed-dimension curves with no known d-dimensional rule
(Pólya, the palindromic tetrahedral order, Liu-Joe's SUB8, the Meander
square order, the triangular-prism curve) ship as bundled definition
files.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .notation import (
    Move,
    SignedPermutation,
    TraversalDefinition,
    parse_definition,
)

__all__ = [
    "TraversalKind",
    "BetaUndefinedError",
    "generate",
    "gen_base_pattern",
    "gen_z",
    "gen_u",
    "gen_gray",
    "gen_double_gray",
    "gen_inside_out",
    "gen_hill_z",
    "gen_maehara",
    "gen_maehara_recursive",
    "gen_base_camp",
    "gen_harmonious",
    "gen_alfa",
    "gen_beta",
    "gen_butz",
    "gen_peano_family",
    "builtin_fixed",
    "FIXED_NAMES",
]


class TraversalKind(Enum):
    Z = "z"
    U = "u"
    GRAY_CODE = "gray"
    DOUBLE_GRAY = "double-gray"
    INSIDE_OUT = "inside-out"
    HILL_Z = "hill-z"
    MAEHARA_REFLECTED = "maehara"
    BASE_CAMP_HILBERT = "base-camp"
    HARMONIOUS_HILBERT = "harmonious"
    ALFA_HILBERT = "alfa"
    BETA_HILBERT = "beta"
    BUTZ_HILBERT = "butz"
    PEANO = "peano"
    COIL = "coil"
    HALF_COIL = "half-coil"
    MEURTHE = "meurthe"


class BetaUndefinedError(ValueError):
    """The Beta curve exists only for three or more dimensions."""


def _require_d(d) -> None:
    """Refuse a d that is not an ``int`` (a bool included) or is below 1.
    It runs before any cache lookup, where 2.0 or True would find the
    entry of 2 or 1."""
    if type(d) is not int:
        raise ValueError(f"d must be an int, got {d!r}")
    if d < 1:
        raise ValueError("d must be at least 1")


# -- base patterns ----------------------------------------------------


def gen_base_pattern(base: int, d: int) -> tuple[Move, ...]:
    """The reflected Gray-code move pattern G2(d) or G3(d).

    G2(k) concatenates G2(k-1), a step along axis k, and the reverse of
    G2(k-1) (order flipped, signs negated).  G3(k) concatenates G3(k-1),
    a step along k, the reverse, another step along k, and G3(k-1) once
    more.
    """
    _require_d(d)
    if base not in (2, 3):
        raise ValueError("base pattern exists for bases 2 and 3")
    return _pattern(f"G{base}", d)[0].moves


# The tile scale of each pattern half.  Halves of at most
# _MAX_CACHED_TILES tiles (scale**d) are kept; larger ones would outlive
# their rules by megabytes, so they are built per call.
_PATTERN_SCALE = {"G2": 2, "G3": 3, "ZigZag": 2, "simplex": 2}
_MAX_CACHED_TILES = 2**12


@lru_cache(maxsize=32)
def _built_pattern(name: str, d: int) -> tuple[TraversalDefinition, tuple[tuple[int, ...], ...]]:
    """:func:`_pattern` of a checked d."""
    base = _PATTERN_SCALE[name]
    digits = tuple(t[::-1] for t in product(range(base), repeat=d))
    ident = [SignedPermutation.identity(d)] * len(digits)
    if name == "simplex":
        q = Fraction(1, 4)
        centres = [(q,) * sum(r) + (-q,) * (d - sum(r)) for r in digits]
        return TraversalDefinition.from_centres(ident, centres), digits
    seq: list[Move] = []
    for k in range(1, d + 1):
        if name == "ZigZag":  # binary increment: clear axes 1..k-1, step up axis k
            seq = seq + [Move(tuple(range(-1, -k, -1)) + (k,))] + seq
            continue
        rev = [m.negated() for m in reversed(seq)]
        if base == 2:
            seq = seq + [Move((k,))] + rev
        else:
            seq = seq + [Move((k,))] + rev + [Move((k,))] + seq
    return TraversalDefinition.from_moves(ident, seq, scale=base), digits


def _pattern(name: str, d: int) -> tuple[TraversalDefinition, tuple[tuple[int, ...], ...]]:
    """The pattern half of the rules on ``name`` ("G2", "G3", "ZigZag" or
    "simplex") in d dimensions, and the digits of each tile position n,
    lowest first.  The half is the rule of identity entries on the
    pattern (Z on the zig-zag, U on G2), checked once by ``from_moves``
    or ``from_centres`` and kept per (name, d) up to
    ``_MAX_CACHED_TILES`` tiles."""
    _require_d(d)
    if _PATTERN_SCALE[name] ** d > _MAX_CACHED_TILES:
        return _built_pattern.__wrapped__(name, d)
    return _built_pattern(name, d)


def _on(half: TraversalDefinition, entries: Sequence[SignedPermutation]) -> TraversalDefinition:
    """The rule with ``entries`` on the moves and centres of ``half``;
    only the entries' count and dimension are checked."""
    d = half.dimension
    if len(entries) != len(half.entries):
        raise ValueError("expected one entry per tile of the pattern")
    if any(e.dimension != d for e in entries):
        raise ValueError("inconsistent entry lengths")
    return TraversalDefinition._of(
        d, half.scale, tuple(entries), half.moves, half.step_den, half.centres
    )


def _g2_rule(
    d: int, entry: Callable[[int, tuple[int, ...], tuple[int, ...]], SignedPermutation]
) -> TraversalDefinition:
    """The rule on G2(d) whose i-th entry, i = 1..2^d, is ``entry(i, r, g)``.

    ``r`` holds the binary digits of i-1 and ``g`` its Gray bits, both
    lowest first.  G2(d) visits the tiles in reflected Gray order, so
    tile i lies on the high side of axis j exactly when ``g[j-1]`` is 1.
    """
    half, bits = _pattern("G2", d)
    return _on(half, [entry(n + 1, r, bits[n ^ (n >> 1)]) for n, r in enumerate(bits)])


# -- traversals without rotations (scale 2) ---------------------------


def gen_z(d: int) -> TraversalDefinition:
    """Bit-interleaving order: identity entries along a zig-zag pattern."""
    half, _ = _pattern("ZigZag", d)
    return _on(half, half.entries)


def gen_u(d: int) -> TraversalDefinition:
    """Reflected-Gray base pattern, identical forward copy in every cell."""
    half, _ = _pattern("G2", d)
    return _on(half, half.entries)


def gen_gray(d: int) -> TraversalDefinition:
    """Identity copies, reversed in every second cell."""
    return _g2_rule(d, lambda i, r, g: SignedPermutation.identity(d, reverse=i % 2 == 0))


def gen_double_gray(d: int) -> TraversalDefinition:
    """Reflections through the bisecting planes, reversed in even cells."""

    def entry(i, r, g):
        axes = tuple(-j if high else j for j, high in enumerate(g, 1))
        return SignedPermutation(axes, reverse=i % 2 == 0)

    return _g2_rule(d, entry)


def _inside_out_entry(i: int, r: tuple[int, ...], g: tuple[int, ...]) -> SignedPermutation:
    """Axis j reflected on the low side of axis j, reversed in even cells."""
    axes = tuple(j if high else -j for j, high in enumerate(g, 1))
    return SignedPermutation(axes, reverse=i % 2 == 0)


def gen_inside_out(d: int) -> TraversalDefinition:
    """Like Double-Gray but with end points pulled into the interior."""
    return _g2_rule(d, _inside_out_entry)


# -- simplex traversals ------------------------------------------------


def _simplex_rule(
    d: int, one_rank: Callable[[int, int], int], reverse_odd: bool
) -> TraversalDefinition:
    """The Hill-Z or Maehara order: entry i sorts the binary digits of i.

    With k one-digits up to position j, of ``ones`` in all, a one-digit
    there maps to ``one_rank(k, ones)`` and a zero-digit to d minus the
    zero-digits after it; with ``reverse_odd`` odd entries are reversed.
    Coordinate j of centre i is +1/4 when j < ``ones``, else -1/4.
    """
    half, bits = _pattern("simplex", d)
    entries = []
    for i, r in enumerate(bits):
        ones, k, perm = sum(r), 0, []
        for j, digit in enumerate(r, 1):
            k += digit
            perm.append(one_rank(k, ones) if digit else j + ones - k)
        entries.append(SignedPermutation(tuple(perm), reverse=reverse_odd and i % 2 == 1))
    return _on(half, entries)


def gen_hill_z(d: int) -> TraversalDefinition:
    """Order on Freudenthal's simplex subdivision, in the style of Z.

    Entry i sorts the binary digits of i-1: position j maps to the rank
    of its digit among equal digits (ones count from the left, zeros
    from the right).  No reflections, no reversals.
    """
    return _simplex_rule(d, lambda k, ones: k, False)


def gen_maehara(d: int) -> TraversalDefinition:
    """Order on Maehara's orthoscheme bisection, by the direct formula.

    Same centres as Hill-Z; one-digits get negated reversed ranks, and
    every second entry is reversed.
    """
    return _simplex_rule(d, lambda k, ones: k - ones - 1, True)


def gen_maehara_recursive(d: int) -> TraversalDefinition:
    """The Maehara-reflected order built by doubling from one dimension.

    Append a fixed new axis to every entry of the (d-1)-dimensional
    order, then concatenate with its own reverse mapped through the
    axis-reversing reflection, with a connecting move back along axes
    2..d-1.  Structurally identical to :func:`gen_maehara`.
    """
    _require_d(d)
    entries = [SignedPermutation((1,)), SignedPermutation((-1,), reverse=True)]
    moves = [Move((1,))]
    for k in range(2, d + 1):
        grown = [SignedPermutation(e.entries + (k,), e.reverse) for e in entries]
        half = TraversalDefinition.from_moves(grown, moves)
        mirror = SignedPermutation(tuple(range(-k, 0)))
        second = half.reversed().transformed(mirror)
        connector = Move(tuple(-j for j in range(2, k)))
        entries = list(half.entries) + list(second.entries)
        moves = list(half.moves) + [connector] + list(second.moves)
    anchor = (-Fraction(1, 4),) * d
    return TraversalDefinition.from_moves(entries, moves, anchor=anchor)


# -- Hilbert generalizations (scale 2, well-folded) --------------------


def _harmonious_entry(i: int, perm: list[int], g: tuple[int, ...]) -> SignedPermutation:
    """``perm`` signed by the sides of tile i, as in the harmonious curve.

    Axis 1 is reflected when the tile lies on the low side of axis 1,
    any other axis p when it lies on the high side of axis p; every odd
    entry runs backwards.
    """
    axes = []
    for p in perm:
        high = g[p - 1] == 1
        if p == 1:
            axes.append(p if high else -p)
        else:
            axes.append(-p if high else p)
    return SignedPermutation(tuple(axes), reverse=i % 2 == 1)


def gen_base_camp(d: int) -> TraversalDefinition:
    """Inside-out with the first and last entries swapped axis-wise.

    First and last entry exchange axes 1 and d; the first is also
    reflected in every axis, which makes the whole order continuous.
    """
    D = 2**d

    def entry(i, r, g):
        if i == 1:
            perm = [d] + list(range(2, d)) + [1] if d > 1 else [1]
            return SignedPermutation(tuple(perm))
        if i == D:
            perm = [-d] + [-j for j in range(2, d)] + [1] if d > 1 else [-1]
            return SignedPermutation(tuple(perm), reverse=True)
        return _inside_out_entry(i, r, g)

    return _g2_rule(d, entry)


def gen_harmonious(d: int) -> TraversalDefinition:
    """The Hilbert generalization that recurses on cube facets.

    Entry i starts from the axis-reversing permutation (d,...,1) and
    pulls to the front, in order, all axes whose digit of i-1 equals the
    lowest digit; signs follow the tile's sides, and every odd entry
    runs backwards.
    """

    def entry(i, r, g):
        start = list(range(d, 0, -1))
        front = [j for j in start if r[j - 1] == r[0]]
        back = [j for j in start if r[j - 1] != r[0]]
        return _harmonious_entry(i, front + back, g)

    return _g2_rule(d, entry)


def _alfa_beta_perm(i: int, r: tuple[int, ...]) -> list[int]:
    """Unsigned permutation shared by the Alfa and Beta curves.

    Built from an extended digit table r'[-1..d] of the binary digits
    ``r`` of i-1; position j gets the smallest index h > d-j-1 whose
    digit matches the digit at d-j-1.  The override of r'[d-1] for the
    last eighth of the entries ("all of the top three digits set") only
    applies from d = 3 up.
    """
    d = len(r)
    D = 2**d
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
    D = 2**d

    def entry(i, r, g):
        e = _harmonious_entry(i, _alfa_beta_perm(i, r), g)
        if 1 < i < D:
            e = _apply_end_corrections(e, d)
        return e

    return _g2_rule(d, entry)


def gen_beta(d: int) -> TraversalDefinition:
    """Hyperorthogonal Hilbert variant ending on cube facets; needs d >= 3."""
    _require_d(d)
    if d < 3:
        raise BetaUndefinedError(f"the Beta curve is undefined for d={d}")
    D = 2**d

    def entry(i, r, g):
        axes = tuple(p if g[p - 1] else -p for p in _alfa_beta_perm(i, r))
        e = SignedPermutation(axes, reverse=i % 2 == 1)
        if i == 1 or i == D:
            e = _apply_end_corrections(e, d)
        return e

    return _g2_rule(d, entry)


def gen_butz(d: int) -> TraversalDefinition:
    """The classic rotation-based Hilbert generalization.

    Entry i rotates the axes by k places, where k is the lowest digit
    position of i-1 that differs from the lowest digit (1 when all
    digits agree); signs and reversals as for the harmonious curve.
    """

    def entry(i, r, g):
        k = 1
        for j in range(2, d + 1):
            if r[j - 1] != r[0]:
                k = j
                break
        perm = [(j + k - 1) % d + 1 for j in range(1, d + 1)]
        return _harmonious_entry(i, perm, g)

    return _g2_rule(d, entry)


# -- Peano family (scale 3) --------------------------------------------

_PEANO_FAMILY = {TraversalKind(k) for k in ("peano", "coil", "half-coil", "meurthe")}


def _scale(kind: str | TraversalKind) -> int:
    """Tiles per axis of the family ``kind``: 3 for the Peano family, else 2."""
    return 3 if TraversalKind(kind) in _PEANO_FAMILY else 2


def _peano_signs(perm: list[int], t: tuple[int, ...]) -> list[int]:
    parity = sum(t) & 1
    return [-1 if (t[p - 1] & 1) != parity else 1 for p in perm]


def gen_peano_family(variant: str | TraversalKind, d: int) -> TraversalDefinition:
    """The four order-preserving traversals on the 3^d subdivision.

    All follow the ternary reflected Gray pattern and differ only in the
    unsigned permutations: Peano uses the identity everywhere, Coil the
    axis reversal, Half-coil alternates the two, and Meurthe pushes the
    axes with ternary digit 0 or 1 to the back in reversed relative
    order.  Signs flip wherever the axis digit and the digit sum have
    different parity; no entry is ever reversed.
    """
    kind = TraversalKind(variant) if not isinstance(variant, TraversalKind) else variant
    if _scale(kind) != 3:
        raise ValueError(f"{kind} is not a scale-3 variant")
    half, digits = _pattern("G3", d)
    entries = []
    for i, t in enumerate(digits, 1):
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
        signs = _peano_signs(perm, t)
        entries.append(
            SignedPermutation(tuple(s * p for s, p in zip(signs, perm)))
        )
    return _on(half, entries)


# -- fixed-dimension curves --------------------------------------------

# Name (lower case, no '-' or '_') -> canonical slug of a fixed curve;
# its bundled file is the slug with '_' for '-'.
_FIXED = {
    "polya2d": "polya2d",
    "prism3d": "prism3d",
    "prismcurve3d": "prism3d",
    "palindromictetra": "palindromic-tetra",
    "sub8": "sub8",
    "meander2d": "meander2d",
}

FIXED_NAMES = tuple(dict.fromkeys(_FIXED.values()))


# Name (lower case, no '-' or '_') -> canonical slug of every family and
# fixed curve.
_SLUGS = {k.value.replace("-", ""): k.value for k in TraversalKind} | _FIXED


def _slug(name: str) -> str | None:
    """The canonical slug of the family or fixed curve ``name`` denotes,
    or None; case, '-' and '_' do not matter."""
    return _SLUGS.get(name.lower().replace("-", "").replace("_", ""))


def builtin_fixed(name: str) -> TraversalDefinition:
    """One of the bundled fixed-dimension curves, by name."""
    slug = _slug(name)
    if slug not in FIXED_NAMES:
        raise ValueError(f"unknown fixed curve {name!r}")
    from importlib import resources  # only the fixed curves read a file

    file = slug.replace("-", "_") + ".txt"
    return parse_definition((resources.files("traversals") / "definitions" / file).read_text())


# -- dispatch ----------------------------------------------------------

_GENERATORS = {
    TraversalKind.Z: gen_z,
    TraversalKind.U: gen_u,
    TraversalKind.GRAY_CODE: gen_gray,
    TraversalKind.DOUBLE_GRAY: gen_double_gray,
    TraversalKind.INSIDE_OUT: gen_inside_out,
    TraversalKind.HILL_Z: gen_hill_z,
    TraversalKind.MAEHARA_REFLECTED: gen_maehara,
    TraversalKind.BASE_CAMP_HILBERT: gen_base_camp,
    TraversalKind.HARMONIOUS_HILBERT: gen_harmonious,
    TraversalKind.ALFA_HILBERT: gen_alfa,
    TraversalKind.BETA_HILBERT: gen_beta,
    TraversalKind.BUTZ_HILBERT: gen_butz,
}


def generate(kind: str | TraversalKind, d: int) -> TraversalDefinition:
    """Produce the named traversal family in ``d`` dimensions."""
    k = TraversalKind(kind) if not isinstance(kind, TraversalKind) else kind
    _require_d(d)
    if k in _GENERATORS:
        return _GENERATORS[k](d)
    return gen_peano_family(k, d)
