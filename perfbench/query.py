"""The `query` workload, run inside one library process.

A pass is a fixed list of seeded calls: `locate`, `rank_of_cell` and
`cell_of_rank`, then the rule algebra (format/parse round trips and two
squarings).  Functions are looked up on their modules at the start of
each pass, so a traced pass goes through the tracer's wrappers.
"""

from __future__ import annotations

import array
import hashlib
import math
import random
import time
from fractions import Fraction

import workloads as wl


def make_inputs(rules: dict, seed: int) -> dict:
    """Seeded arguments for one pass; every pass reuses them."""
    rng = random.Random(seed)
    locate_calls = []
    for key in wl.LOCATE_RULES:
        defn = rules[key]
        n_entries = len(defn.entries)
        for depth in wl.LOCATE_DEPTHS:
            m = 2 * n_entries**depth  # boundaries and midpoints of cells
            for side in ("plus", "minus"):
                lo = 0 if side == "plus" else 1
                for _ in range(wl.LOCATE_PER_CASE):
                    t = Fraction(rng.randrange(lo, m + lo), m)
                    locate_calls.append((key, t, depth, side))
    rank_cells = []
    for kind in wl.RANK_KINDS:
        for d, level in wl.RANK_SHAPES:
            for _ in range(wl.RANK_PER_CASE):
                cell = tuple(rng.randrange(1 << level) for _ in range(d))
                rank_cells.append((kind, d, level, cell))
    return {"locate": locate_calls, "rank": rank_cells}


class Rescale:
    """Factor that takes a time measured now to the reference speed.

    The machine's speed drifts by up to half over seconds to minutes,
    so a pass's wall time mostly tells how slow the machine was during
    it.  Every ``YARDSTICK_EVERY_S`` seconds the yardstick is timed
    (twice, keeping the faster, so a preempted probe does not count),
    and the operations after it are scaled by ``YARDSTICK_REF_S`` over
    that time.
    """

    def __init__(self) -> None:
        self.factor = 1.0
        self.due = 0.0
        self.spent_s = 0.0  # time in probes, left out of the pass's wall time

    def __call__(self) -> float:
        now = time.perf_counter()
        if now >= self.due:
            self.factor = wl.YARDSTICK_REF_S / min(wl.yardstick(), wl.yardstick())
            end = time.perf_counter()
            self.spent_s += end - now
            self.due = end + wl.YARDSTICK_EVERY_S
        return self.factor


def query_calls(inputs: dict) -> int:
    """Timed `locate`, `rank_of_cell` and `cell_of_rank` calls in a pass;
    they come first in a pass's ``times``, the rule algebra after them."""
    return len(inputs["locate"]) + 2 * len(inputs["rank"])


def run_pass(rules: dict, inputs: dict) -> dict:
    """Time one pass; return per-operation times, results and failures.

    ``times`` has one entry per operation attempted, in a fixed order:
    each `locate`, `rank_of_cell` and `cell_of_rank` call, then each
    rule's format/parse round trip and each squaring.  ``ref_s`` is their sum
    at the reference speed (:class:`Rescale`), ``ref_query_s`` that of
    the query calls alone.
    """
    from traversals import bitmatrix, engine, notation

    locate = engine.locate
    rank_of_cell, cell_of_rank = bitmatrix.rank_of_cell, bitmatrix.cell_of_rank
    from_cell = bitmatrix.CoordinateMatrix.from_cell
    fmt, parse = notation.format_definition, notation.parse_definition
    squared_definition = engine.squared_definition
    clock = time.perf_counter

    times: list[float] = []
    results: list = []
    errors: list[str] = []
    rescale = Rescale()
    ref_s = 0.0
    t_pass = clock()
    for key, t, depth, side in inputs["locate"]:
        factor = rescale()
        t0 = clock()
        try:
            r = locate(rules[key], t, depth, side)
        except Exception as exc:  # a failed call counts as an error
            r = None
            errors.append(f"locate {key} {t} {depth} {side}: {exc!r}")
        dt = clock() - t0
        times.append(dt)
        ref_s += dt * factor
        results.append(r)
    for kind, d, level, cell in inputs["rank"]:
        factor = rescale()
        t0 = clock()
        try:
            rank = rank_of_cell(kind, from_cell(cell, level))
        except Exception as exc:
            errors.append(f"rank_of_cell {kind} {cell}: {exc!r}")
            dt = clock() - t0
            times.append(dt)
            ref_s += dt * factor
            results.append((None, None))
            continue
        t1 = clock()
        try:
            back = cell_of_rank(kind, rank, d, level).to_cell()
        except Exception as exc:
            back = None
            errors.append(f"cell_of_rank {kind} {rank}: {exc!r}")
        t2 = clock()
        times += [t1 - t0, t2 - t1]
        ref_s += (t2 - t0) * factor
        results.append((rank.value, back))
    ref_query_s = ref_s
    t_algebra, spent_before_algebra = clock(), rescale.spent_s
    round_trips = []
    for key in wl.ALGEBRA_RULES:
        factor = rescale()
        t0 = clock()
        try:
            round_trips.append(parse(fmt(rules[key])))
        except Exception as exc:
            round_trips.append(None)
            errors.append(f"round trip {key}: {exc!r}")
        dt = clock() - t0
        times.append(dt)
        ref_s += dt * factor
    squares = []
    for kind in wl.SQUARED:
        factor = rescale()
        t0 = clock()
        try:
            squares.append(fmt(squared_definition(rules[(kind, 3)])))
        except Exception as exc:
            squares.append(None)
            errors.append(f"squared_definition {kind} 3: {exc!r}")
        dt = clock() - t0
        times.append(dt)
        ref_s += dt * factor
    t_end = clock()
    return {
        "wall_s": t_end - t_pass - rescale.spent_s,
        "algebra_s": t_end - t_algebra - (rescale.spent_s - spent_before_algebra),
        "ref_s": ref_s,
        "ref_query_s": ref_query_s,
        "times": times,
        "results": results,
        "round_trips": round_trips,
        "squares": squares,
        "errors": errors,
    }


def finish(p: dict, keep_results: bool) -> dict:
    """Digest a pass's results; keep them only if asked, so memory does
    not grow with the number of passes."""
    text = repr((p["results"], [str(r) for r in p["round_trips"]], p["squares"]))
    p["digest"] = hashlib.sha256(text.encode()).hexdigest()
    p["times"] = array.array("f", p["times"])  # float32: memory stays near flat
    if not keep_results:
        del p["results"], p["round_trips"], p["squares"]
    return p


def verify(rules: dict, inputs: dict, passes: list[dict], golden_dir) -> tuple[int, int, list[str]]:
    """Check the calls' results; return (attempted, failed, messages).

    Operations are the timed calls of every pass plus the checks below.
    ``passes[0]`` keeps its results (see :func:`finish`).
    """
    from traversals import bitmatrix, engine, generators, notation

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    messages = [e for p in passes for e in p["errors"]]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            messages.append(what)

    first = passes[0]
    for k, p in enumerate(passes[1:], 2):
        check(p["digest"] == first["digest"], f"pass {k} results differ from pass 1")

    # cell_of_rank . rank_of_cell is the identity (one check per round trip).
    rank_results = first["results"][len(inputs["locate"]):]
    for (kind, _, _, cell), (_, back) in zip(inputs["rank"], rank_results):
        check(back == cell, f"round trip {kind} {cell} gave {back}")

    # locate agrees with the enumerated path at the same index.  The
    # path is taken at depth 5, or 3 where depth 5 exceeds 60 000 points.
    rng = random.Random(len(inputs["locate"]))
    paths = {}
    for key in wl.LOCATE_RULES:
        defn = rules[key]
        depth = 5 if len(defn.entries) ** 5 <= 60000 else 3
        path = engine.generate_path(defn, depth)
        unit = path.cell_units * defn.scale**depth
        paths[key] = (path, unit)
        n = len(path.points)
        for i in rng.sample(range(n), 32):
            t = Fraction(2 * i + 1, 2 * n)
            for side in ("plus", "minus"):
                got = engine.locate(defn, t, depth, side)
                scaled = tuple(x * unit for x in got)
                check(scaled == path.points[i], f"locate {key} depth {depth} index {i} {side}")

    # Each timed locate result lies in the cell of that enumerated path
    # which holds the same parameter t (one check per timed call).
    for (key, t, depth, side), got in zip(inputs["locate"], first["results"]):
        path, unit = paths[key]
        n = len(path.points)
        i = math.floor(t * n) if side == "plus" else math.ceil(t * n) - 1
        half = Fraction(path.cell_units, 2)
        inside = got is not None and all(
            abs(x * unit - c) <= half for x, c in zip(got, path.points[i])
        )
        check(inside, f"locate {key} t={t} depth {depth} {side} gave {got}")

    # rank_of_cell order equals the engine's order at d=3 level 4.
    for kind in wl.RANK_KINDS:
        cells = engine.generate_full_path(rules[(kind, 3)], 4).cell_indices()
        ranks = [
            bitmatrix.rank_of_cell(kind, bitmatrix.CoordinateMatrix.from_cell(c, 4)).value
            for c in cells
        ]
        check(ranks == list(range(len(cells))), f"rank order {kind} d=3 level 4")

    for key, back in zip(wl.ALGEBRA_RULES, first["round_trips"]):
        check(back == rules[key], f"parse(format(r)) != r for {key}")

    for kind, text in zip(wl.SQUARED, first["squares"]):
        want = wl.EXPECTED["query"]["squared_d3_sha256"][kind]
        got = hashlib.sha256(text.encode()).hexdigest() if text else None
        check(got == want, f"squared {kind} d=3 digest {got}")
    for kind, fname in (("harmonious", "squared_hilbert_d2.txt"), ("inside-out", "squared_inside-out_d2.txt")):
        golden = golden_dir / fname
        want = golden.read_text().strip() if golden.is_file() else None
        got = notation.format_definition(engine.squared_definition(generators.generate(kind, 2)))
        check(got == want, f"squared {kind} d=2 differs from {fname}")
    return attempted, failed, messages

