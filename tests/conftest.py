from pathlib import Path

import pytest

from traversals.generators import (
    FIXED_NAMES,
    BetaUndefinedError,
    TraversalKind,
    builtin_fixed,
    generate,
)
from traversals.notation import parse_definition

GOLDEN_DIR = Path(__file__).parent / "golden"

# Rules whose points do not lie symmetrically about the centre, with
# reflected entries: the corner shift must follow the reflections.
UNEVEN_RULES = (
    "[2 1} [-2 1} 1 1 [-2 1}",
    "{-2 1] 2 [-1 -2}",
    "[1 -2} 2 [2 1} -1 2 [1 -2}",
    "d=1 s=2 u=4 [1} 1 [1}",  # off-grid centres: m = 2, cells 4 units wide
)


def differential_rules():
    """(label, rule): every family for d = 1..6 (the Peano family up to
    d = 4, Beta from d = 3), the five fixed curves, the uneven rules and
    the rule of every golden file."""
    peano_family = {"peano", "coil", "half-coil", "meurthe"}
    for kind in TraversalKind:
        for d in range(1, 5 if kind.value in peano_family else 7):
            try:
                yield f"{kind.value} d={d}", generate(kind, d)
            except BetaUndefinedError:
                continue
    for name in FIXED_NAMES:
        yield name, builtin_fixed(name)
    for text in UNEVEN_RULES:
        yield text, parse_definition(text)
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        yield path.name, parse_definition(path.read_text())


@pytest.fixture
def golden():
    def load(name: str) -> str:
        return (GOLDEN_DIR / name).read_text().strip()

    return load
