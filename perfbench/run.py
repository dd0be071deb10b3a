"""Layered benchmark of the traversals library and CLI.

    python3 perfbench/run.py --workload enumerate|audit|query \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from
``./src`` in fresh child processes (``child.py``).  With ``--trace 0`` it
repeats the workload's fixed pass for about ``--seconds`` seconds (at
least once) and reports the end-to-end metrics as medians over passes.
With ``--trace 1`` it runs one untraced and one traced pass and reports
per-layer metrics, the tracing overhead among them.  Every output is
checked; a wrong or failed operation counts in ``failed``.

The last line of stdout is the result object; the line before it is a
report with the environment, per-command times and the metrics the
result object cannot carry (query percentiles, error rate).  See
``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads as wl
from child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170
QUERY_SETUP_PROBES = 6  # before and after the query process each

# Exact counts of a traced pass that must match the recorded ones.
EXACT_COUNTS = (
    "engine.points",
    "analysis.cells",
    "analysis.edges",
    "analysis.sections",
    "engine.locate.calls",
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(args: list[str]) -> tuple[int, bytes, dict, float]:
    """Run child.py; return exit code, stdout, its report and wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    report = {}
    for line in reversed(proc.stderr.decode(errors="replace").splitlines()):
        if line.startswith(MARKER):
            report = json.loads(line[len(MARKER):])
            break
    return proc.returncode, proc.stdout, report, wall


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def setup_probe(workload: str, trace: bool = False) -> dict:
    code, _, report, _ = run_child(["setup", workload] + (["--trace"] if trace else []))
    if code != 0 or not report:
        raise SetupError(f"importing the program from {ROOT / 'src'} failed")
    package = Path(report["package"]).resolve()
    if (ROOT / "src") not in package.parents:
        raise SetupError(f"traversals was imported from {package}, not from {ROOT / 'src'}")
    if report["backend"] != wl.EXPECTED["kernel_backend"]:
        raise SetupError(
            f"section kernel backend is {report['backend']!r}; the benchmark "
            f"records {wl.EXPECTED['kernel_backend']!r}"
        )
    return report


# -- CLI workloads -----------------------------------------------------


def cli_pass(commands, trace: bool = False, between=None, rescale: bool = False) -> dict:
    """Run the commands once; ``between()`` runs after each, untimed.

    With ``rescale`` each command's ``ref_s`` is its wall time with the
    part the child metered (``child.Metered``) at the reference speed.
    """
    flags = ["--trace"] if trace else []
    if rescale:
        flags.append("--rescale")
    records = []
    for argv in commands:
        code, out, report, wall = run_child(["cli", *flags, "--", *argv])
        records.append({
            "argv": argv,
            "wall_s": wall,
            "ref_s": wall - report["covered_s"] + report["ref_s"] if "ref_s" in report else wall,
            "exit": code,
            "stdout": out,
            "report": report,
        })
        if between is not None:
            between()
    return {"wall_s": sum(r["wall_s"] for r in records), "commands": records}


def sampled_bbox_ratio(kind: str, d: int, depth: int, seed: int, samples: int = 10000) -> Fraction:
    """Reference for the CLI's sampled ``bbox`` witness.

    Draws the same seeded sections as the program and takes each
    section's bounding box from sparse min/max tables over the cells.
    The cells come from the program's enumeration, checked against the
    digest recorded at the seed commit.
    """
    from traversals import engine, generators

    cells = engine.generate_full_path(generators.generate(kind, d), depth).cell_indices()
    want = wl.EXPECTED["audit_paths_sha256"][f"{kind} {d} {depth}"]
    if hashlib.sha256(repr(cells).encode()).hexdigest() != want:
        raise ValueError(f"{kind} {d} depth {depth} cells differ from the recorded path")
    n = len(cells)
    tables = []  # per axis: [level][i] = (min, max) over cells[i : i + 2**level]
    for axis in range(d):
        level = [(c[axis], c[axis]) for c in cells]
        rows = [level]
        span = 1
        while 2 * span <= n:
            prev = rows[-1]
            rows.append([
                (min(prev[i][0], prev[i + span][0]), max(prev[i][1], prev[i + span][1]))
                for i in range(n - 2 * span + 1)
            ])
            span *= 2
        tables.append(rows)
    rng = random.Random(seed)
    best = Fraction(0)
    for _ in range(samples):
        a, b = rng.randrange(n), rng.randrange(n)
        if a > b:
            a, b = b, a
        k = (b - a + 1).bit_length() - 1
        vol = 1
        for rows in tables:
            lo1, hi1 = rows[k][a]
            lo2, hi2 = rows[k][b - (1 << k) + 1]
            vol *= max(hi1, hi2) - min(lo1, lo2) + 1
        best = max(best, Fraction(vol, b - a + 1))
    return best


def expected_output(workload: str, argv: tuple[str, ...], seed: int) -> dict:
    if workload == "enumerate":
        return wl.EXPECTED["enumerate"][" ".join(argv)]
    key = " ".join(argv[: argv.index("--seed")])
    want = dict(wl.EXPECTED["audit"][key])
    lines = []
    for line in want["lines"]:
        if "{bbox}" in line:  # the CLI's rule: holds when the ratio is at most 4
            kind, d, depth = line.split()[1:4]
            ratio = sampled_bbox_ratio(kind, int(d), int(depth), seed)
            line = line.replace("{bbox}", f"{'holds' if ratio <= 4 else 'fails'} {ratio}")
        lines.append(line)
    want["lines"] = lines
    return want


def check_command(rec: dict, want: dict) -> list[str]:
    """Mismatches between one command's output and what is expected."""
    problems = []
    argv = " ".join(rec["argv"])
    out = rec["stdout"]
    if rec["exit"] != want["exit"]:
        problems.append(f"{argv}: exit {rec['exit']}, expected {want['exit']}")
    if "sha256" in want:
        if hashlib.sha256(out).hexdigest() != want["sha256"]:
            problems.append(f"{argv}: stdout digest differs")
        points = out.count(b"\n") - 1  # one header line
        if points != want["points"]:
            problems.append(f"{argv}: {points} points, expected {want['points']}")
    else:
        lines = out.decode(errors="replace").splitlines()
        if lines != want["lines"]:
            problems.append(f"{argv}: verdicts {lines}, expected {want['lines']}")
    return problems


def verify_cli_pass(workload: str, p: dict, seed: int, expected: dict) -> tuple[int, list[str]]:
    """(attempted, problems) for one pass; one operation per command."""
    problems = []
    for rec in p["commands"]:
        if rec["argv"] not in expected:
            try:
                expected[rec["argv"]] = expected_output(workload, rec["argv"], seed)
            except ValueError as exc:
                expected[rec["argv"]] = {"error": str(exc)}
        want = expected[rec["argv"]]
        found = [want["error"]] if "error" in want else check_command(rec, want)
        if not rec["report"]:
            found.append(f"{' '.join(rec['argv'])}: no report from the child")
        problems += found[:1]  # one failed operation per command
    return len(p["commands"]), problems


def run_cli_workload(workload: str, seed: int, seconds: float, between) -> tuple[dict, dict, int, int]:
    commands = wl.commands(workload, seed)
    passes = wl.repeat(seconds, lambda _: cli_pass(commands, between=between, rescale=True))
    expected: dict = {}
    attempted, problems = 0, []
    for p in passes:
        a, pr = verify_cli_pass(workload, p, seed, expected)
        attempted += a
        problems += pr
    # Each command's fastest rescaled time over the passes: the machine's
    # slow stretches, which the yardstick follows only in part, can only
    # add time to a command.
    best = [min(p["commands"][i]["ref_s"] for p in passes) for i in range(len(commands))]
    wall = sum(best)
    per_command = {
        " ".join(argv): statistics.median(p["commands"][i]["wall_s"] for p in passes)
        for i, argv in enumerate(commands)
    }
    rss = max(rec["report"].get("peak_rss_mb", 0.0) for p in passes for rec in p["commands"])
    named = {}
    if workload == "enumerate":
        points = sum(expected[argv]["points"] for argv in commands)
        throughput = points / wall
        named["points_per_s"] = (throughput, "1/s")
    else:
        comp = [i for i, argv in enumerate(commands) if "components" in argv]
        comp_wall = sum(best[i] for i in comp)
        throughput = len(comp) * wl.SECTIONS_PER_COMPONENTS_CHECK / comp_wall
        named["sections_per_s"] = (throughput, "1/s")
    metrics = {
        "wall_s": (wall, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "command_wall_s": per_command,
        "median_pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "command_pass_ref_s": [[r["ref_s"] for r in p["commands"]] for p in passes],
        "named": named,
        "problems": problems[:20],
    }
    return metrics, detail, attempted, len(problems)


# -- traced runs -------------------------------------------------------


def layer_metrics(self_times: dict, counts: dict) -> dict:
    """Per-layer metrics from aggregated spans and counts."""

    def self_s(*names):
        return sum(self_times.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(*names):
        return sum(self_times.get(n, (0, 0.0, 0.0))[0] for n in names)

    locate_calls = calls("engine.locate")
    m = {
        "generators.generate_s": (self_s("generators.generate", "generators.builtin_fixed"), "s"),
        "generators.rules": (calls("generators.generate", "generators.builtin_fixed"), "count"),
        "notation.parse_s": (self_s("notation.parse_definition"), "s"),
        "notation.format_s": (self_s("notation.format_definition"), "s"),
        "engine.iter_path_s": (self_s("engine.iter_path"), "s"),
        "engine.points": (counts.get("engine.iter_path.items", 0), "count"),
        "engine.generate_path_s": (self_s("engine.generate_path"), "s"),
        "engine.origin_s": (self_s("engine.generate_full_path"), "s"),
        "engine.cell_indices_s": (self_s("engine.Path.cell_indices"), "s"),
        "engine.squared_path_s": (self_s("engine.squared_path"), "s"),
        "engine.locate_s": (self_s("engine.locate"), "s"),
        "engine.locate.calls": (locate_calls, "count"),
        "engine.locate_us": (self_s("engine.locate") / locate_calls * 1e6 if locate_calls else 0.0, "us"),
        "engine.squared_definition_s": (self_s("engine.squared_definition"), "s"),
        "engine.find_reversal_symmetry_s": (self_s("engine.find_reversal_symmetry"), "s"),
        "bitmatrix.rank_s": (self_s("bitmatrix.rank_of_cell"), "s"),
        "bitmatrix.unrank_s": (self_s("bitmatrix.cell_of_rank"), "s"),
        "bitmatrix.calls": (calls("bitmatrix.rank_of_cell", "bitmatrix.cell_of_rank"), "count"),
        "analysis.audit_prep_s": (self_s("analysis.SectionAuditor.__init__"), "s"),
        "analysis.audit_kernel_s": (self_s("analysis.SectionAuditor.counts"), "s"),
        "analysis.cells": (counts.get("analysis.cells", 0), "count"),
        "analysis.edges": (counts.get("analysis.edges", 0), "count"),
        "analysis.sections": (counts.get("analysis.sections", 0), "count"),
        "analysis.adjacency_s": (self_s("analysis.adjacency_profile"), "s"),
        "analysis.palindromic_s": (self_s("analysis.check_palindromic", "analysis.palindromic_on_cells"), "s"),
        "analysis.dominance_s": (self_s("analysis.check_dominance"), "s"),
        "analysis.bbox_s": (self_s("analysis.max_bbox_ratio"), "s"),
        "analysis.straight_jumping_s": (self_s("analysis.check_straight_jumping"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
    for layer in ("notation", "generators", "engine", "bitmatrix", "analysis", "trace"):
        m[f"{layer}.self_s"] = (
            sum(v[2] for k, v in self_times.items() if k.startswith(layer + ".")),
            "s",
        )
    return m


def merge(reports: list[dict]) -> tuple[dict, dict]:
    self_times: dict = {}
    counts: dict = {}
    for r in reports:
        for name, (n, busy, own) in r.get("self_times", {}).items():
            agg = self_times.setdefault(name, [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += busy
            agg[2] += own
        for name, v in r.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + v
    return self_times, counts


def trace_accounting(untraced_wall: float, traced_wall: float, self_times: dict) -> dict:
    """Tracing overhead, and how much of the traced wall time spans cover.

    The self times of all spans add up to the time inside root spans;
    the rest of the traced wall time (``trace.unattributed_s``) is
    process start-up, imports and exit, which an untraced pass pays too.
    """
    span_s = sum(v[2] for v in self_times.values())
    return {
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.span_s": (span_s, "s"),
        "trace.unattributed_s": (traced_wall - span_s, "s"),
    }


def run_traced(workload: str, seed: int) -> tuple[dict, dict, int, int]:
    setup_report = setup_probe(workload, trace=True)
    problems: list[str] = []
    attempted = failed = 0
    if workload == "query":
        code, _, rep, _ = run_child(["query", str(seed), "0", "--trace"])
        if code != 0 or not rep:
            raise SetupError("the query process failed")
        attempted, failed = rep["attempted"], rep["failed"]
        problems += rep["messages"]
        untraced, traced = rep["untraced_wall_s"], rep["traced_wall_s"]
        pass_reports = [rep]
        bytes_out = {"untraced": 0, "traced": 0}
        peak_mb = 0.0
    else:
        commands = wl.commands(workload, seed)
        expected: dict = {}
        base = cli_pass(commands)
        traced_pass = cli_pass(commands, trace=True)
        for p in (base, traced_pass):
            a, pr = verify_cli_pass(workload, p, seed, expected)
            attempted += a
            failed += len(pr)
            problems += pr
        untraced, traced = base["wall_s"], traced_pass["wall_s"]
        pass_reports = [rec["report"] for rec in traced_pass["commands"]]
        bytes_out = {
            "untraced": sum(len(r["stdout"]) for r in base["commands"]),
            "traced": sum(len(r["stdout"]) for r in traced_pass["commands"]),
        }
        # tracemalloc slows allocation several-fold, so the peak is taken
        # in its own process, enumerating the workload's first path.
        head = commands[0]
        probe = ["path", head[1], head[2], "--depth", head[head.index("--depth") + 1]]
        _, _, rep, _ = run_child(["cli", "--tracemalloc", "--", *probe])
        peak_mb = max(rep.get("tracemalloc_peaks") or [0]) / 2**20
    self_times, counts = merge(pass_reports)
    metrics = layer_metrics(*merge(pass_reports + [setup_report]))
    metrics["cli.bytes_out"] = (bytes_out["traced"], "B")
    metrics["engine.peak_traced_mb"] = (peak_mb, "MB")
    metrics.update(trace_accounting(untraced, traced, self_times))

    # Exact counts repeat: recorded ones, and output bytes between passes.
    want = wl.EXPECTED["counts"].get(workload, {})
    pass_counts = layer_metrics(self_times, counts)
    mismatches = [
        f"count {name} = {pass_counts[name][0]}, recorded {want.get(name)}"
        for name in EXACT_COUNTS
        if pass_counts[name][0] != want.get(name)
    ]
    if bytes_out["traced"] != bytes_out["untraced"]:
        mismatches.append(f"cli.bytes_out {bytes_out['traced']} traced, {bytes_out['untraced']} untraced")
    attempted += len(EXACT_COUNTS) + 1
    failed += len(mismatches)
    detail = {
        "root_s": sum(r.get("root_s", 0.0) for r in pass_reports),
        "pass_counts": {n: pass_counts[n][0] for n in EXACT_COUNTS},
        "problems": (mismatches + problems)[:20],
    }
    return metrics, detail, attempted, failed


# -- entry point -------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, int, int]:
    if not (ROOT / "src" / "traversals" / "__init__.py").is_file():
        raise SetupError(f"no program source at {ROOT / 'src' / 'traversals'}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))  # the checks import the program too
    if trace:
        return run_traced(workload, seed)
    # Machine speed drifts over seconds, so set-up is measured at points
    # spread over the run: after every command, or around the query process.
    setups = [setup_probe(workload)]

    def probe():
        setups.append(setup_probe(workload))

    if workload == "query":
        for _ in range(QUERY_SETUP_PROBES):
            probe()
        code, _, rep, _ = run_child(["query", str(seed), str(seconds)])
        for _ in range(QUERY_SETUP_PROBES):
            probe()
        if code != 0 or not rep:
            raise SetupError("the query process failed")
        wall = statistics.median(rep["pass_ref_s"])
        queries_per_s = rep["calls_per_pass"] / statistics.median(rep["pass_ref_query_s"])
        metrics = {
            "wall_s": (wall, "s"),
            "throughput_per_s": (queries_per_s, "1/s"),
            "peak_rss_mb": (rep["workload_peak_rss_mb"], "MB"),
        }
        samples = rep["latency_samples"]
        detail = {
            "passes": rep["passes"],
            "pass_wall_s": rep["pass_wall_s"],
            "median_pass_wall_s": statistics.median(rep["pass_wall_s"]),
            "rule_algebra_s": statistics.median(rep["pass_algebra_s"]),
            "named": {
                "queries_per_s": (queries_per_s, "1/s"),
                "query_p50_us": (rep["p50_s"] * 1e6, "us", f"n={samples}"),
                "query_p99_us": (rep["p99_s"] * 1e6, "us", f"n={samples}"),
            },
            "problems": rep["messages"],
        }
        attempted, failed = rep["attempted"], rep["failed"]
    else:
        metrics, detail, attempted, failed = run_cli_workload(workload, seed, seconds, probe)
    metrics["setup_s"] = (statistics.median(r["ref_s"] for r in setups), "s")
    detail["setup_samples_s"] = [r["ref_s"] for r in setups]
    detail["setup_wall_samples_s"] = [r["covered_s"] for r in setups]
    return metrics, detail, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, detail, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: set-up error: {exc}", file=sys.stderr)
        return 2
    detail["named"] = {k: list(v) for k, v in detail.get("named", {}).items()}
    detail["named"]["error_rate"] = [failed / attempted if attempted else 1.0, "ratio"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment() | {"kernel_backend": wl.EXPECTED["kernel_backend"]},
        **detail,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
