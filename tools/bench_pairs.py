"""Paired benchmark runs of two source trees, written to one JSON file.

    python3 tools/bench_pairs.py --base PARENT_TREE --change . \\
        --pairs query=10 enumerate=3 audit=3 --seconds 35 --seed 501 \\
        --claim query:wall_s --traced --out BENCH_13.json

Each tree is a git checkout of the repository: the base is the parent
commit, made with ``git worktree add --detach DIR COMMIT`` under a
scratch directory, and the change is the working tree.  The file names
each tree's commit, so a tree whose commit cannot be read (a ``git
archive`` copy, say) stops the script with exit status 2 before any run,
and no file is written.  A pair runs ``perfbench/run.py --trace 0``
once in each tree with the same seed; the side that runs first
alternates from pair to pair, so a drift of the machine's speed does not
favour one side.  Pair ``i`` of a workload uses seed ``--seed + i``.

Both sides run in the same bytecode state, that of a fresh checkout:
every ``__pycache__`` under ``src`` and ``perfbench`` is deleted before
each run and none is written (``PYTHONDONTWRITEBYTECODE``).

The file records the machine, ``nproc`` and the Python version; each
tree's commit; every run's seed, order and end-to-end metrics; per side
the median and quartiles of each metric, and how many pairs the change
won.  The metrics and their better direction come from the change tree's
``BENCHMARK.json``.  With ``--claim WORKLOAD:METRIC`` the file also says
whether the claim holds: the change wins at least nine pairs in ten and
the medians differ by more than the base's interquartile range.  With
``--traced`` it adds one traced pass (``--trace 1``) per workload and side.
As context, not gated, it records the wall time of the Tier-1 suite
(the ROADMAP command) ``TIER1_RUNS`` times per tree, the side that runs
first alternating from run to run, with every run and each side's
median; and once per tree the wall time of each ``tests/test_*.py`` file
run alone.  All of them run in the same bytecode state.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("base", "change")
TRACED_SECONDS = 3
TIER1_RUNS = 3  # whole-suite runs per tree: one cannot tell 0.2 s from drift


def git_state(tree: Path) -> dict:
    """The tree's commit and whether tracked files differ from it (None
    outside git)."""

    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def clear_bytecode(tree: Path) -> None:
    for top in ("src", "perfbench", "tests"):
        for cache in (tree / top).rglob("__pycache__"):
            shutil.rmtree(cache)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, from an empty bytecode cache."""
    clear_bytecode(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    return {
        "exit": proc.returncode,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def timed_pytest(tree: Path, *paths: str) -> dict:
    """Wall time of one pytest run in ``tree`` (the Tier-1 suite, or only
    ``paths``) from an empty bytecode cache; with pytest's last line."""
    pythonpath = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=pythonpath)
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    clear_bytecode(tree)
    t0 = time.perf_counter()
    proc = subprocess.run([*argv, *paths], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"exit": proc.returncode, "wall_s": wall, "summary": lines[-1] if lines else ""}


def tier1_times(trees: dict[str, Path]) -> dict:
    """Per side: ``TIER1_RUNS`` runs of the Tier-1 suite, the side that
    runs first alternating, and their median; then one run of each test
    file alone."""
    out = {side: {"suite": []} for side in SIDES}
    for i in range(TIER1_RUNS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            out[side]["suite"].append(timed_pytest(trees[side]) | {"first": order[0]})
    for side in SIDES:
        out[side]["suite_median_s"] = statistics.median(r["wall_s"] for r in out[side]["suite"])
        files = sorted((trees[side] / "tests").glob("test_*.py"))
        out[side]["files"] = {f.name: timed_pytest(trees[side], f"tests/{f.name}") for f in files}
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    change won (strictly better than the base of the same pair)."""
    out = {}
    for name, direction in better.items():
        if not all(name in p[side].get("metrics", {}) for p in pairs for side in SIDES):
            continue
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - b) < 0 for b, c in zip(values["base"], values["change"]))
        out[name] = {side: quartiles(values[side]) for side in SIDES}
        out[name] |= {"better": direction, "change_wins": wins, "pairs": len(pairs)}
    return out


def claim_verdict(summary: dict, metric: str) -> dict:
    s = summary[metric]
    gap = s["base"]["median"] - s["change"]["median"]
    if s["better"] == "higher":
        gap = -gap
    return {
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "median_gain": gap,
        "base_iqr": s["base"]["iqr"],
        "holds": 10 * s["change_wins"] >= 9 * s["pairs"] and gap > s["base"]["iqr"],
    }


def plan(text: str) -> tuple[str, int]:
    workload, _, n = text.partition("=")
    return workload, int(n or 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="tree of the change")
    parser.add_argument("--pairs", type=plan, nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--traced", action="store_true", help="add one traced pass per side")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    states = {side: git_state(tree) for side, tree in trees.items()}
    for side, state in states.items():
        if state["commit"] is None:
            print(f"bench_pairs: cannot read the commit of the {side} tree {trees[side]}; "
                  "make it with git worktree add --detach DIR COMMIT", file=sys.stderr)
            return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    doc = {
        "environment": environment(),
        "trees": states,
        "seconds": args.seconds,
        "bytecode": "no __pycache__; PYTHONDONTWRITEBYTECODE=1",
        "tier1": tier1_times(trees),
        "workloads": {},
    }
    k = 0
    for workload, n in args.pairs:
        pairs = []
        for i in range(n):
            seed, order = args.seed + i, SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, seed, args.seconds, 0)
                print(workload, seed, side, json.dumps(pair[side]), file=sys.stderr, flush=True)
            pairs.append(pair)
        doc["workloads"][workload] = {"pairs": pairs, "summary": summarise(pairs, better)}
        if args.traced:
            doc["workloads"][workload]["traced"] = {
                side: run_bench(trees[side], workload, args.seed, TRACED_SECONDS, 1) for side in SIDES
            }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = {"workload": workload, "metric": metric}
        doc["claim"] |= claim_verdict(doc["workloads"][workload]["summary"], metric)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
