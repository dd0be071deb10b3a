"""``tools/bench_pairs.py`` refuses a tree whose commit it cannot read,
and a claim it cannot judge, before it runs anything, so every file it
writes names both commits; a claim whose runs failed does not hold."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _tree(path: Path, in_git: bool) -> Path:
    """A tree with the benchmark spec, committed to a new repository when
    ``in_git``, else a plain copy as ``git archive`` leaves it."""
    path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", path)
    if in_git:
        git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@example.org",
               "-c", "commit.gpgsign=false"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "add", "."], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "tree"], check=True)
    return path


def _no_run(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("clear_bytecode", "run_bench", "timed_pytest"):
        monkeypatch.setattr(bench_pairs, name, ran)


@pytest.mark.parametrize("side", ["base", "change"])
def test_a_tree_outside_git_stops_the_script_before_any_run(side, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    _no_run(monkeypatch)
    trees = {s: _tree(tmp_path / s, in_git=s != side) for s in ("base", "change")}
    out = tmp_path / "bench.json"
    argv = ["--base", str(trees["base"]), "--change", str(trees["change"]),
            "--pairs", "query=1", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"cannot read the commit of the {side} tree {trees[side]}" in err, err
    assert bench_pairs.git_state(trees[side]) == {"commit": None, "dirty": None}


@pytest.mark.parametrize("claim,pairs", [
    ("audit:setup_s", "query=1"),  # a workload that is not run
    ("query:setup_seconds", "query=1"),  # a metric BENCHMARK.json does not name
    ("query", "query=1"),  # no metric
], ids=["workload", "metric", "no metric"])
def test_an_invalid_claim_stops_the_script_before_any_run(claim, pairs, tmp_path, monkeypatch, capsys):
    _no_run(monkeypatch)
    trees = {s: _tree(tmp_path / s, in_git=True) for s in ("base", "change")}
    out = tmp_path / "bench.json"
    argv = ["--base", str(trees["base"]), "--change", str(trees["change"]),
            "--pairs", pairs, "--seed", "1", "--claim", claim, "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert not out.exists()
    assert f"--claim {claim} needs a workload of --pairs" in capsys.readouterr().err


def test_a_claim_whose_base_runs_all_failed_does_not_hold(tmp_path, monkeypatch):
    def run_bench(tree, workload, seed, seconds, trace):
        if tree.name == "base":
            return {"exit": 1, "error": "Traceback"}
        return {"exit": 0, "correct": True, "failed": 0, "metrics": {"wall_s": 0.1, "setup_s": 0.02}}

    monkeypatch.setattr(bench_pairs, "tier1_times", lambda trees: {})
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    trees = {s: _tree(tmp_path / s, in_git=True) for s in ("base", "change")}
    out = tmp_path / "bench.json"
    argv = ["--base", str(trees["base"]), "--change", str(trees["change"]),
            "--pairs", "query=2", "--seed", "1", "--claim", "query:wall_s", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["claim"]["holds"] is False
    assert doc["workloads"]["query"]["summary"] == {}
