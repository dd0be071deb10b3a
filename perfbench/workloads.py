"""The three workloads: their fixed inputs and the rules they build.

Nothing here imports ``traversals`` at module level, so the parent
process stays free of the program until it verifies outputs.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

NAMES = ("enumerate", "audit", "query")

# `enumerate`: engine enumeration and CLI output do almost all the work.
ENUMERATE = (
    ("path", "harmonious", "3", "--depth", "6"),
    ("path", "peano", "3", "--depth", "4", "--cells"),
    ("path", "maehara", "3", "--depth", "5", "--origin", "first"),
    ("path", "harmonious", "2", "--depth", "4", "--exponent", "2"),
)

# `audit`: the section kernel and its preparation dominate.  Each
# command also gets ``--seed <seed>``.
AUDIT = (
    ("check", "z", "4", "--property", "components", "--depth", "3"),
    ("check", "z", "3", "--property", "components", "--depth", "3"),
    ("check", "maehara", "3", "--property", "components", "--depth", "3"),
    ("check", "harmonious", "3", "--property", "continuity,palindromic,bbox", "--depth", "4"),
    ("check", "z", "3", "--property", "dominance", "--depth", "3"),
    ("check", "double-gray", "3", "--property", "palindromic,straight-jumping", "--depth", "4"),
)
SECTIONS_PER_COMPONENTS_CHECK = 10000

# `query`: random access into the same engine, without enumerating.
LOCATE_RULES = (("harmonious", 3), ("peano", 3), ("maehara", 3), ("meander2d", None))
LOCATE_DEPTHS = (10, 20)
LOCATE_PER_CASE = 200
RANK_KINDS = ("z", "u", "gray", "double-gray", "inside-out")
RANK_SHAPES = ((3, 4), (4, 8))  # (d, level)
RANK_PER_CASE = 500
SQUARED = ("harmonious", "inside-out")  # squared at d=3
# Every family for d=2..6 (Beta starts at d=3).  The Peano family stops
# at d=4: its 243- and 729-entry rules would take most of the pass.
PEANO_FAMILY = ("peano", "coil", "half-coil", "meurthe")
KINDS = (
    "z", "u", "gray", "double-gray", "inside-out", "hill-z", "maehara",
    "base-camp", "harmonious", "alfa", "beta", "butz",
    "peano", "coil", "half-coil", "meurthe",
)
ALGEBRA_RULES = tuple(
    (kind, d)
    for kind in KINDS
    for d in range(2, 7)
    if not (kind == "beta" and d == 2) and not (kind in PEANO_FAMILY and d > 4)
)


# Timed work is rescaled to the speed at which `yardstick` takes
# YARDSTICK_REF_S (about its time on a 2-vCPU x86_64 VM, Python 3.11),
# timing the yardstick again every YARDSTICK_EVERY_S seconds.
YARDSTICK_REF_S = 0.0008
YARDSTICK_EVERY_S = 0.04


def yardstick() -> float:
    """Seconds taken by a fixed piece of `Fraction` arithmetic, about 1 ms.

    It uses only the standard library, so it does the same work at every
    commit of the program, and its time follows the machine's current
    speed.
    """
    clock = time.perf_counter
    t0 = clock()
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(i, 2 * i + 1)
    return clock() - t0


def commands(workload: str, seed: int) -> list[tuple[str, ...]]:
    if workload == "enumerate":
        return [tuple(c) for c in ENUMERATE]
    if workload == "audit":
        return [tuple(c) + ("--seed", str(seed)) for c in AUDIT]
    raise ValueError(f"{workload} is not a CLI workload")


def rule_keys(workload: str) -> list[tuple[str, int | None]]:
    """The (kind, d) rules a workload builds; d is None for a fixed curve."""
    if workload in ("enumerate", "audit"):
        table = ENUMERATE if workload == "enumerate" else AUDIT
        return list(dict.fromkeys((c[1], int(c[2])) for c in table))
    keys = list(LOCATE_RULES)
    keys += [(k, d) for k in RANK_KINDS for d, _ in RANK_SHAPES]
    keys += list(ALGEBRA_RULES)
    return list(dict.fromkeys(keys))


def repeat(seconds: float, run_pass) -> list:
    """Call ``run_pass(k)`` for k = 0, 1, ... while another pass still
    fits in ``seconds`` at the median pass time; at least once."""
    passes: list = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def build_rules(workload: str) -> dict:
    """Build the workload's rules with the program's generators."""
    from traversals import generators

    return {
        (kind, d): generators.generate(kind, d) if d else generators.builtin_fixed(kind)
        for kind, d in rule_keys(workload)
    }
