"""``tools/bench_pairs.py`` refuses a tree whose commit it cannot read
before it runs anything, so every file it writes names both commits."""

import importlib.util
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


@pytest.mark.parametrize("side", ["base", "change"])
def test_a_tree_outside_git_stops_the_script_before_any_run(side, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))

    def ran(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("clear_bytecode", "run_bench", "timed_pytest"):
        monkeypatch.setattr(bench_pairs, name, ran)
    trees = {s: _tree(tmp_path / s, in_git=s != side) for s in ("base", "change")}
    out = tmp_path / "bench.json"
    argv = ["--base", str(trees["base"]), "--change", str(trees["change"]),
            "--pairs", "query=1", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"cannot read the commit of the {side} tree {trees[side]}" in err, err
    assert bench_pairs.git_state(trees[side]) == {"commit": None, "dirty": None}
