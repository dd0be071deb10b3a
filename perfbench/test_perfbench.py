"""Self-tests of the benchmark's checks and trace accounting.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They use small commands, so they take seconds, not a workload's length.
"""

from __future__ import annotations

import copy
import sys

import pytest

import query as q
import run
import workloads as wl

sys.path.insert(0, str(run.ROOT / "src"))

SMALL = ("path", "maehara", "3", "--depth", "5", "--origin", "first")


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted


@pytest.fixture(scope="module")
def small_pass():
    return run.cli_pass([SMALL])


def test_recorded_outputs_pass(small_pass):
    attempted, problems = run.verify_cli_pass("enumerate", small_pass, 1, {})
    assert attempted == 1 and problems == []


def test_corrupted_expected_digest_is_an_error(small_pass):
    want = copy.deepcopy(wl.EXPECTED["enumerate"][" ".join(SMALL)])
    want["sha256"] = "0" * 64
    attempted, problems = run.verify_cli_pass("enumerate", small_pass, 1, {SMALL: want})
    assert error_rate(attempted, len(problems)) > 0


def test_perturbed_point_is_an_error(small_pass):
    perturbed = copy.deepcopy(small_pass)
    rec = perturbed["commands"][0]
    lines = rec["stdout"].split(b"\n")
    x, rest = lines[100].split(b" ", 1)
    lines[100] = str(int(x) + 2).encode() + b" " + rest
    rec["stdout"] = b"\n".join(lines)
    attempted, problems = run.verify_cli_pass("enumerate", perturbed, 1, {})
    assert error_rate(attempted, len(problems)) > 0


def test_perturbed_located_point_is_an_error():
    rules = wl.build_rules("query")
    inputs = q.make_inputs(rules, seed=7)
    inputs["locate"] = inputs["locate"][::40]
    inputs["rank"] = inputs["rank"][::100]
    p = q.finish(q.run_pass(rules, inputs), keep_results=True)
    golden = run.ROOT / "tests" / "golden"
    attempted, failed, messages = q.verify(rules, inputs, [p], golden)
    assert failed == 0, messages
    point = p["results"][3]
    p["results"][3] = (point[0] + 1,) + tuple(point[1:])
    attempted, failed, _ = q.verify(rules, inputs, [p], golden)
    assert error_rate(attempted, failed) > 0


def test_traced_self_times_add_up_to_wall():
    commands = [
        SMALL,
        ("check", "z", "3", "--property", "components,palindromic", "--depth", "2", "--seed", "1"),
    ]
    base = run.cli_pass(commands)
    traced = run.cli_pass(commands, trace=True)
    reports = [rec["report"] for rec in traced["commands"]]
    self_times, _ = run.merge(reports)
    acc = {k: v for k, (v, _) in run.trace_accounting(base["wall_s"], traced["wall_s"], self_times).items()}
    # Self times partition the root spans (cli.main in each process).
    assert acc["trace.span_s"] == pytest.approx(sum(r["root_s"] for r in reports), abs=1e-6)
    assert 0 < acc["trace.span_s"] <= acc["trace.wall_s"]
    # The rest is what an untraced pass spends outside cli.main, within
    # the reported overhead (plus 50 ms of timer noise per process).
    outside = base["wall_s"] - sum(rec["report"]["main_s"] for rec in base["commands"])
    slack = abs(acc["trace.overhead_s"]) + 0.05 * len(commands)
    assert abs(acc["trace.unattributed_s"] - outside) <= slack
