"""Generators for the sixteen built-in traversal families.

Each family is produced for an arbitrary number of dimensions as a
:class:`~traversals.notation.TraversalDefinition`, following closed-form
rules for the permutation, the reflections and the direction of every
entry.  Fixed-dimension curves with no known d-dimensional rule (Pólya,
the palindromic tetrahedral order, Liu-Joe's SUB8, the Meander square
order, the triangular-prism curve) ship as bundled definition files.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from importlib import resources

from .notation import (
    Move,
    SignedPermutation,
    TraversalDefinition,
    Vector,
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
    from .bitmatrix import gray

    return [
        _centre_from_bits(_digits(gray(i), 2, d)) for i in range(2**d)
    ]


# -- base patterns ----------------------------------------------------


def gen_base_pattern(base: int, d: int) -> tuple[Move, ...]:
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


def _zigzag_pattern(d: int) -> tuple[Move, ...]:
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


# -- traversals without rotations (scale 2) ---------------------------


def gen_z(d: int) -> TraversalDefinition:
    """Bit-interleaving order: identity entries along a zig-zag pattern."""
    ident = SignedPermutation.identity(d)
    return TraversalDefinition.from_moves([ident] * 2**d, _zigzag_pattern(d))


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


# -- simplex traversals ------------------------------------------------


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


def gen_hill_z(d: int) -> TraversalDefinition:
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


def gen_maehara(d: int) -> TraversalDefinition:
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


def gen_maehara_recursive(d: int) -> TraversalDefinition:
    """The Maehara-reflected order built by doubling from one dimension.

    Append a fixed new axis to every entry of the (d-1)-dimensional
    order, then concatenate with its own reverse mapped through the
    axis-reversing reflection, with a connecting move back along axes
    2..d-1.  Structurally identical to :func:`gen_maehara`.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
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
        signs = _peano_signs(perm, t)
        entries.append(
            SignedPermutation(tuple(s * p for s, p in zip(signs, perm)))
        )
    return TraversalDefinition.from_moves(
        entries, gen_base_pattern(3, d), scale=3
    )


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
    if d < 1:
        raise ValueError("d must be at least 1")
    if k in _GENERATORS:
        return _GENERATORS[k](d)
    return gen_peano_family(k, d)
