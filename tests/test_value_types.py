"""The six core value types against their former ``@dataclass`` forms.

``SignedPermutation``, ``Move``, ``TraversalDefinition``, ``Path``,
``PropertyReport`` and ``AdjacencyProfile`` were frozen dataclasses; they
are plain classes now, so that importing the package does not import
:mod:`dataclasses`.  The dataclass definitions are kept below verbatim,
renamed with an ``Old`` prefix and with only the methods their
constructors reach, as the oracles of repr, equality, hashing, pickling,
copying, freezing, slots and constructor signatures.
"""

import copy
import dataclasses
import inspect
import pickle
import re
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from operator import sub

import pytest

from traversals import cli
from traversals.analysis import AdjacencyProfile, PropertyReport, adjacency_profile
from traversals.engine import Path, generate_full_path
from traversals.generators import (
    FIXED_NAMES,
    BetaUndefinedError,
    TraversalKind,
    builtin_fixed,
    generate,
)
from traversals.notation import (
    Move,
    SignedPermutation,
    TraversalDefinition,
    Vector,
    _check_parts,
    _check_step_den,
    _lattice,
    _require_ints,
)


@dataclass(frozen=True, slots=True)
class OldSignedPermutation:
    entries: tuple[int, ...]
    reverse: bool = False

    def __post_init__(self):
        d = len(self.entries)
        if d == 0:
            raise ValueError("empty permutation")
        _require_ints(self.entries, "permutation entry")
        if sorted(map(abs, self.entries)) != list(range(1, d + 1)):
            raise ValueError(
                f"absolute values of {self.entries} are not a permutation of 1..{d}"
            )

    @property
    def dimension(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class OldMove:
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        _require_ints(self.steps, "move element")
        if 0 in self.steps:
            raise ValueError("move element 0 is not a valid axis index")
        if len(self.steps) > 1 or type(self.steps) is not tuple:
            canon = tuple(sorted(self.steps, key=lambda e: (abs(e), e < 0)))
            object.__setattr__(self, "steps", canon)

    def check_dimension(self, d: int) -> None:
        for e in self.steps:
            if abs(e) > d:
                raise ValueError(f"move element {e} out of range for dimension {d}")

    def int_displacement(self, d: int) -> tuple[int, ...]:
        out = [0] * d
        for e in self.steps:
            out[abs(e) - 1] += 1 if e > 0 else -1
        return tuple(out)


@dataclass(frozen=True)
class OldTraversalDefinition:
    dimension: int
    scale: int
    entries: tuple[OldSignedPermutation, ...]
    moves: tuple[OldMove, ...]
    step_den: int
    centres: tuple[Vector, ...]

    def __post_init__(self):
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

    def __getstate__(self):
        """The fields alone: derived data cached on the instance is rebuilt
        on demand, not pickled or copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class OldPath:
    points: tuple[tuple[int, ...], ...]
    dimension: int
    scale: int
    depth: int
    origin: str
    cell_units: int = 2


@dataclass(frozen=True)
class OldPropertyReport:
    name: str
    kind: str
    dimension: int
    depth: int
    verdict: str  # 'holds' | 'fails' | 'inconclusive'
    witness: tuple = ()


@dataclass(frozen=True)
class OldAdjacencyProfile:
    face_steps: int
    other_steps: int
    max_jump: Fraction  # Chebyshev distance in cell widths
    first_jump: tuple[int, int] | None = None


def old_twin(value):
    """The oracle dataclass instance with the fields of ``value``, its
    permutations and moves turned into oracles too."""
    if isinstance(value, tuple):
        return tuple(map(old_twin, value))
    old_cls = OLD.get(type(value))
    if old_cls is None:
        return value
    return old_cls(*[old_twin(getattr(value, f.name)) for f in fields(old_cls)])


OLD = {
    SignedPermutation: OldSignedPermutation,
    Move: OldMove,
    TraversalDefinition: OldTraversalDefinition,
    Path: OldPath,
    PropertyReport: OldPropertyReport,
    AdjacencyProfile: OldAdjacencyProfile,
}


def _params(cls):
    return [(p.name, p.default, p.kind) for p in inspect.signature(cls).parameters.values()]


def assert_behaves_like_its_dataclass(value):
    cls = type(value)
    old_cls = OLD[cls]
    old = old_twin(value)
    names = tuple(f.name for f in fields(old_cls))
    assert re.sub(r"\bOld(?=[A-Z])", "", repr(old)) == repr(value)
    assert hash(value) == hash(old)
    assert value.__eq__(old) is NotImplemented and value != old and not value == old
    assert cls._fields == cls.__match_args__ == old_cls.__match_args__ == names
    assert _params(cls) == _params(old_cls)
    assert hasattr(value, "__dict__") == hasattr(old, "__dict__")
    assert vars(cls).get("__slots__") == vars(old_cls).get("__slots__")
    assert ("__weakref__" in dir(cls)) == ("__weakref__" in dir(old_cls))
    assert not dataclasses.is_dataclass(value)
    rebuilt = cls(*[getattr(value, name) for name in names])
    assert rebuilt == value and value == rebuilt and not rebuilt != value
    assert hash(rebuilt) == hash(value) and rebuilt is not value
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(back) is cls and back == value
        assert hash(back) == hash(value) and repr(back) == repr(value)
    for name in (*names, "extra"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
            delattr(value, name)
    assert repr(value) == repr(rebuilt)  # nothing changed


def assert_equality_matches(values):
    """``==`` over every pair of ``values`` agrees with the oracles'."""
    olds = [old_twin(v) for v in values]
    for a, oa in zip(values, olds):
        for b, ob in zip(values, olds):
            assert (a == b) == (oa == ob) and (a != b) == (oa != ob), (a, b)


def rules():
    """Every family rule at d = 2-4 (the Peano family to d = 3) and the
    five fixed curves."""
    for kind in TraversalKind:
        top = 3 if kind.value in ("peano", "coil", "half-coil", "meurthe") else 4
        for d in range(2, top + 1):
            try:
                yield f"{kind.value} d={d}", generate(kind, d)
            except BetaUndefinedError:
                continue
    for name in FIXED_NAMES:
        yield name, builtin_fixed(name)


def test_rules_permutations_and_moves_behave_like_their_dataclasses():
    labels, all_rules, moves = [], [], set()
    for label, defn in rules():
        labels.append(label)
        assert_behaves_like_its_dataclass(defn)
        for e in defn.entries:
            assert_behaves_like_its_dataclass(e)
        for m in defn.moves:
            assert_behaves_like_its_dataclass(m)
        assert_equality_matches(list(defn.entries))
        all_rules.append(defn)
        moves.update(defn.moves)
    assert len(labels) == 48 and {"beta d=3", "peano d=3", "meander2d"} <= set(labels)
    h = generate("harmonious", 3)
    moved = h.reanchored((Fraction(1, 4),) * 3)  # differs from h in its centres only
    assert_equality_matches(all_rules + [generate("z", 2), h.reversed(), moved])
    assert_equality_matches(sorted(moves, key=lambda m: m.steps) + [Move(), Move((2, 1))])
    # the constructor refuses a flag that is not a bool; _of takes any
    assert_equality_matches([SignedPermutation._of((2, -1), r) for r in (False, True, 0, 1)])


def test_rule_copies_carry_the_fields_and_not_the_cached_data():
    defn = generate("harmonious", 3)
    generate_full_path(defn, 2)  # caches the engine's table on the rule
    assert defn.fills_cube and {"_table", "fills_cube"} <= set(vars(defn))
    for back in (pickle.loads(pickle.dumps(defn)), copy.copy(defn), copy.deepcopy(defn)):
        assert list(vars(back)) == list(TraversalDefinition._fields)
        assert back.fills_cube and tuple(generate_full_path(back, 2).points) == tuple(
            generate_full_path(defn, 2).points
        )


def test_constructors_check_and_canonicalise_like_their_dataclasses():
    def outcome(cls, *args):
        try:
            return re.sub(r"\bOld(?=[A-Z])", "", repr(cls(*args)))
        except ValueError as exc:
            return f"ValueError: {exc}"

    for entries in [(2, -1, 3), (1,), (), (1, 1), (1.0, 2), (True, 2), [2, 1]]:
        for reverse in (False, True):
            want = outcome(OldSignedPermutation, entries, reverse)
            assert outcome(SignedPermutation, entries, reverse) == want, entries
    for steps in [(), (2, -1, 1), [3, 1], (0,), (1.0,), (True,), (-2, 2, 1)]:
        assert outcome(Move, steps) == outcome(OldMove, steps), steps
    assert Move() == Move(()) and Move(steps=[2, 1]).steps == (1, 2)
    assert SignedPermutation(entries=(1,), reverse=True).reverse is True


def test_audit_values_behave_like_their_dataclasses():
    """The paths, adjacency profiles and property reports of the CLI
    commands the ``audit`` benchmark runs."""
    audit = [
        ("z", 4, "components", 3),
        ("z", 3, "components", 3),
        ("maehara", 3, "components", 3),
        ("harmonious", 3, "continuity,palindromic,bbox", 4),
        ("z", 3, "dominance", 3),
        ("double-gray", 3, "palindromic,straight-jumping", 4),
    ]
    reports, profiles = [], []
    for kind, d, props, depth in audit:
        defn = generate(kind, d)
        path = generate_full_path(defn, depth, "corner")
        assert_behaves_like_its_dataclass(path)
        profiles.append(adjacency_profile(path))
        assert_behaves_like_its_dataclass(profiles[-1])
        for prop in props.split(","):
            reports.append(cli._run_property(prop, defn, kind, depth, 0, lambda: path))
            assert_behaves_like_its_dataclass(reports[-1])
    assert {r.verdict for r in reports} == {"holds", "fails"}
    assert any(p.first_jump is None for p in profiles) and any(p.first_jump for p in profiles)
    assert_equality_matches(reports)
    assert_equality_matches(profiles)
    assert_equality_matches([Path(((0,),), 1, 2, 0, "corner"), Path(((0,),), 1, 2, 0, "corner", 4)])
