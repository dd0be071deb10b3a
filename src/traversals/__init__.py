"""Self-similar d-dimensional grid traversals.

Sixteen traversal families (Morton/Z order, U order, Gray-code orders,
simplex orders, five Hilbert-curve generalizations and four Peano-curve
variants) in one signed-permutation notation, with exact enumeration,
bit-matrix ranking, squaring, and property verification.

The public names are loaded lazily (PEP 562): ``import traversals``
imports no submodule, and the first use of a name imports the one
submodule that defines it, so a program pays only for the modules it
runs.  ``traversals.engine`` and the other submodules that define
public names resolve the same way.  Static type checkers read the same
names from imports that run only under ``TYPE_CHECKING``.

Where each capability lives:

* ``notation``: signed permutations, moves, rules and their text form;
* ``generators``: the sixteen families and the five fixed curves;
* ``engine``: enumeration, ``locate`` and the rule's state table;
* ``_squaring``: the reversal symmetry and the squared path and rule,
  reached through ``engine``;
* ``analysis``: the report types; the checks that take a rule live in
  ``_rule_checks`` and those that take a held ``Path`` in
  ``_path_checks``, both reached through ``analysis``;
* ``bitmatrix``: the bit-matrix rank calculus, an independent oracle.

``engine`` and ``analysis`` import their private modules on the first
use of one of their names, so each command compiles only what it runs.
``describe``, ``path`` and ``plot`` load ``cli``, ``notation``,
``generators`` and ``engine``; ``path --exponent 2`` adds
``_squaring``, and ``check`` adds ``analysis`` and the check modules
of its properties.  No command loads ``bitmatrix``.
"""

import importlib
from typing import TYPE_CHECKING

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": (
            "AdjacencyProfile",
            "PropertyReport",
            "adjacency_profile",
            "check_base_pattern",
            "check_continuity",
            "check_dominance",
            "check_facet_order",
            "check_palindromic",
            "check_straight_jumping",
            "check_well_folded_rank",
            "component_count",
            "max_bbox_ratio",
            "section_component_audit",
        ),
        "bitmatrix": (
            "CoordinateMatrix",
            "RankWord",
            "cell_of_rank",
            "gray",
            "gray_inverse",
            "rank_of_cell",
        ),
        "engine": (
            "NotCubicError",
            "NotSymmetricError",
            "Path",
            "find_reversal_symmetry",
            "generate_full_path",
            "generate_path",
            "iter_path",
            "locate",
            "squared_definition",
            "squared_path",
        ),
        "generators": (
            "BetaUndefinedError",
            "FIXED_NAMES",
            "TraversalKind",
            "builtin_fixed",
            "gen_base_pattern",
            "generate",
        ),
        "notation": (
            "Move",
            "ParseError",
            "SignedPermutation",
            "TraversalDefinition",
            "format_definition",
            "parse_definition",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = [*sorted(_EXPORTS), "__version__"]

if TYPE_CHECKING:  # the same names, imported eagerly for static checkers
    from .analysis import (
        AdjacencyProfile,
        PropertyReport,
        adjacency_profile,
        check_base_pattern,
        check_continuity,
        check_dominance,
        check_facet_order,
        check_palindromic,
        check_straight_jumping,
        check_well_folded_rank,
        component_count,
        max_bbox_ratio,
        section_component_audit,
    )
    from .bitmatrix import (
        CoordinateMatrix,
        RankWord,
        cell_of_rank,
        gray,
        gray_inverse,
        rank_of_cell,
    )
    from .engine import (
        NotCubicError,
        NotSymmetricError,
        Path,
        find_reversal_symmetry,
        generate_full_path,
        generate_path,
        iter_path,
        locate,
        squared_definition,
        squared_path,
    )
    from .generators import (
        BetaUndefinedError,
        FIXED_NAMES,
        TraversalKind,
        builtin_fixed,
        gen_base_pattern,
        generate,
    )
    from .notation import (
        Move,
        ParseError,
        SignedPermutation,
        TraversalDefinition,
        format_definition,
        parse_definition,
    )


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
