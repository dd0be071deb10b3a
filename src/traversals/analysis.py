"""Finite-depth verification of traversal properties.

Each check returns raw numbers or a :class:`PropertyReport` whose
failing verdicts carry a reproducible witness.  "Touching" means sharing
a (d-1)-facet throughout; corner contact counts as a jump.

The checks live in two private modules, by what they read, and this
module imports each on the first use of one of its names (PEP 562) and
keeps the name, so every name stays reachable here as the same object:

* :mod:`._rule_checks`, the checks that take a rule: the base pattern
  and the rank law read its first level, and continuity,
  palindromicity, straight jumping and facet order stream its walk;
* :mod:`._path_checks`, the checks that take a held
  :class:`~.engine.Path`: :func:`adjacency_profile`, dominance,
  bounding boxes and section components, with the cell table and the
  two offline sweeps they share.

This module itself defines only the report types and the kernel's
back-end name, so importing it loads neither :mod:`.engine` nor a
check, and a process compiles only the checks it runs.  A new check
goes into the module for what it reads.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from typing import TYPE_CHECKING

from .notation import _Frozen

KERNEL_BACKEND = "python"

# Each check and the private module that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(
        (
            "check_base_pattern",
            "check_continuity",
            "check_palindromic",
            "palindromic_on_cells",
            "check_straight_jumping",
            "check_facet_order",
            "check_well_folded_rank",
        ),
        "_rule_checks",
    ),
    **dict.fromkeys(
        (
            "SectionAuditor",
            "adjacency_profile",
            "component_count",
            "section_component_audit",
            "check_dominance",
            "max_bbox_ratio",
        ),
        "_path_checks",
    ),
}

__all__ = ["PropertyReport", "AdjacencyProfile", "KERNEL_BACKEND", *_LAZY]

if TYPE_CHECKING:  # the same names, imported eagerly for static checkers
    from ._path_checks import (
        SectionAuditor,
        adjacency_profile,
        check_dominance,
        component_count,
        max_bbox_ratio,
        section_component_audit,
    )
    from ._rule_checks import (
        check_base_pattern,
        check_continuity,
        check_facet_order,
        check_palindromic,
        check_straight_jumping,
        check_well_folded_rank,
        palindromic_on_cells,
    )


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __package__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


class PropertyReport(_Frozen):
    """Outcome of one property check at one depth, frozen like a
    dataclass (see :class:`~.notation._Frozen`)."""

    _fields = ("name", "kind", "dimension", "depth", "verdict", "witness")
    name: str
    kind: str
    dimension: int
    depth: int
    verdict: str  # 'holds' | 'fails' | 'inconclusive'
    witness: tuple

    def __init__(self, name, kind, dimension, depth, verdict, witness=()):
        self._set(name, kind, dimension, depth, verdict, witness)

    def line(self) -> str:
        parts = [self.name, self.kind or "-", str(self.dimension), str(self.depth), self.verdict]
        parts.extend(str(w) for w in self.witness)
        return " ".join(parts)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


class AdjacencyProfile(_Frozen):
    """Step counts of a path (see :func:`adjacency_profile`), frozen like
    a dataclass."""

    _fields = ("face_steps", "other_steps", "max_jump", "first_jump")
    face_steps: int
    other_steps: int
    max_jump: Fraction  # Chebyshev distance in cell widths
    first_jump: tuple[int, int] | None

    def __init__(self, face_steps, other_steps, max_jump, first_jump=None):
        self._set(face_steps, other_steps, max_jump, first_jump)
