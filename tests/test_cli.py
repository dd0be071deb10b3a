"""The command-line surface: output fidelity and exit codes."""

import hashlib
import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path as FsPath

import pytest

import traversals
from traversals import cli, engine, generators
from traversals.cli import (
    EXIT_CLOSED_PIPE,
    MAX_CELLS_PER_AXIS,
    MAX_HELD_POINTS,
    _PROPERTIES,
    _require_cells_per_axis,
    _require_held_size,
    _UsageError,
    main,
)
from traversals.engine import generate_full_path
from traversals.generators import generate
from traversals.notation import parse_definition


def run(argv, stdin=""):
    old_in = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        import contextlib

        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_in
    return code, out.getvalue(), err.getvalue()


DESCRIBE_GOLDENS = [
    ("z", 3, "z_d3.txt"),
    ("u", 3, "u_d3.txt"),
    ("gray", 3, "gray_d3.txt"),
    ("double-gray", 3, "double-gray_d3.txt"),
    ("inside-out", 3, "inside-out_d3.txt"),
    ("hill-z", 3, "hill-z_d3.txt"),
    ("maehara", 3, "maehara_d3.txt"),
    ("base-camp", 3, "base-camp_d3.txt"),
    ("harmonious", 3, "harmonious_d3.txt"),
    ("alfa", 3, "alfa_d3.txt"),
    ("beta", 3, "beta_d3.txt"),
    ("butz", 3, "butz_d3.txt"),
    ("peano", 3, "peano_d3.txt"),
    ("coil", 3, "coil_d3.txt"),
    ("half-coil", 3, "half-coil_d3.txt"),
    ("meurthe", 3, "meurthe_d3.txt"),
]


@pytest.mark.parametrize("kind,d,fname", DESCRIBE_GOLDENS)
def test_describe_matches_goldens(kind, d, fname, golden):
    code, out, _ = run(["describe", kind, str(d)])
    assert code == 0
    assert out.strip() == golden(fname)


@pytest.mark.parametrize("kind", ["peano", "coil", "half-coil", "meurthe"])
def test_describe_peano_family_two_dimensions(kind, golden):
    """Two-dimensional forms, hand-derived from the stated rules.

    Cross-validated elsewhere: depth-2 face-continuity and the facet
    restriction of the three-dimensional curves onto these orders.
    """
    code, out, _ = run(["describe", kind, "2"])
    assert code == 0
    assert out.strip() == golden(f"{kind}_d2_derived.txt")


def test_describe_z_one_dimension():
    code, out, _ = run(["describe", "z", "1"])
    assert code == 0
    assert out.strip() == "[1} 1 [1}"


def test_describe_beta_low_dimension_is_usage_error():
    code, out, err = run(["describe", "beta", "2"])
    assert code == 2
    assert "Beta" in err or "beta" in err


def test_describe_unknown_kind():
    code, _, err = run(["describe", "lebesgue", "2"])
    assert code == 2


def test_describe_fixed_curve_without_dimension():
    code, out, _ = run(["describe", "meander2d"])
    assert code == 0
    assert out.startswith("[2 1} 1 [2 1}")


def test_path_piped_from_describe_matches_library():
    kinds = [
        ("z", 3), ("u", 3), ("gray", 3), ("double-gray", 3), ("inside-out", 3),
        ("hill-z", 3), ("maehara", 3), ("base-camp", 3), ("harmonious", 3),
        ("alfa", 3), ("beta", 3), ("butz", 3),
        ("peano", 2), ("coil", 2), ("half-coil", 2), ("meurthe", 2),
        ("harmonious", 4), ("z", 4),
    ]
    for kind, d in kinds:
        _, definition, _ = run(["describe", kind, str(d)])
        for depth in (1, 2):
            code, out, _ = run(
                ["path", "-", "--depth", str(depth)], stdin=definition
            )
            assert code == 0
            lines = [l for l in out.splitlines() if not l.startswith("#")]
            pts = [tuple(int(x) for x in l.split()) for l in lines]
            expect = generate_full_path(generate(kind, d), depth, "corner").points
            assert tuple(pts) == expect, (kind, d, depth)


def test_path_header_records_parameters():
    code, out, _ = run(["path", "harmonious", "2", "--depth", "1"])
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("#")
    for token in ("d=2", "depth=1", "origin=corner", "units="):
        assert token in head


def test_path_depth_zero_first_origin_is_zeros():
    code, out, _ = run(
        ["path", "-", "--depth", "0", "--origin", "first"], stdin="[1 2 3} 1 [1 2 3}"
    )
    assert code == 0
    assert out.splitlines()[1] == "0 0 0"


def test_path_cells_flag_halves_coordinates():
    code, out, _ = run(["path", "u", "2", "--depth", "1", "--cells"])
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["0 0", "1 0", "1 1", "0 1"]


def test_path_exponent_two_matches_squared_hilbert_order(golden):
    _, definition, _ = run(["describe", "harmonious", "2"])
    code, out, _ = run(
        ["path", "-", "--depth", "1", "--exponent", "2"], stdin=definition
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 16
    assert all(len(l.split()) == 4 for l in lines)
    sq = parse_definition(golden("squared_hilbert_d2.txt"))
    expect = generate_full_path(sq, 1, "corner").points
    got = tuple(tuple(int(x) for x in l.split()) for l in lines)
    assert got == expect


def test_path_squared_cells_output_is_unchanged():
    """The digest of this output before the squared path walked in cells."""
    code, out, _ = run(["path", "harmonious", "2", "--depth", "3", "--exponent", "2", "--cells"])
    assert code == 0
    assert out.count("\n") == 1 + 4**6
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "8a7590a90e268c4bf948f35d0de4753a50fe80c6bbdf837f852267d608bfe0c8"


def test_path_exponent_two_rejects_shape_definitions():
    _, definition, _ = run(["describe", "polya2d"])
    code, _, err = run(
        ["path", "-", "--depth", "1", "--exponent", "2"], stdin=definition
    )
    assert code == 2


def test_path_parse_error_exit_code():
    code, _, err = run(["path", "-", "--depth", "1"], stdin="[1 2] nonsense")
    assert code == 2


def test_check_palindromic_holds_exit_zero():
    code, out, _ = run(
        ["check", "double-gray", "3", "--property", "palindromic", "--depth", "3"]
    )
    assert code == 0
    assert out.strip() == "palindromic double-gray 3 3 holds"


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_palindromic_refuses_a_depth_below_one(depth):
    """Depth 0 has no level-1 cells whose facets could be compared."""
    code, out, err = run(["check", "z", "2", "--property", "palindromic", "--depth", depth])
    assert (code, out) == (2, "")
    assert err == "error: palindromicity is checked at depth >= 1\n"


@pytest.mark.parametrize("source", [
    "hill-z 3", "maehara 3", "polya2d", "sub8", "prism3d", "palindromic-tetra",
])
def test_check_well_folded_refuses_a_rule_that_does_not_fill_the_cube(source):
    # hill-z 3 used to print "well-folded-rank hill-z 3 1 fails 3 1 3" and
    # exit 1, from a law stated for cube rules.
    code, out, err = run(["check", *source.split(), "--property", "well-folded"])
    assert (code, out) == (2, "")
    assert err == "error: the rank law applies to scale-2 cube rules\n"


@pytest.mark.parametrize("argv", [
    "check hill-z 3 --property continuity,well-folded --depth 2",
    "check z 2 --property base-pattern,bbox --depth -1",
    "check z 2 --property well-folded,palindromic --depth 0",
])
def test_check_refuses_before_the_lines_of_the_properties_that_ran(argv):
    """A property whose input is refused after others have run still
    leaves the output empty: one ``error:`` line and exit 2."""
    code, out, err = run(argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_check_bbox_reports_ratio():
    code, out, _ = run(
        ["check", "alfa", "3", "--property", "bbox", "--depth", "2"]
    )
    assert code == 0
    name, kind, d, depth, verdict, ratio = out.split()
    assert verdict == "holds"
    from fractions import Fraction

    assert Fraction(ratio) <= 4


@pytest.mark.parametrize(
    "kind, d, depth, seed, line",
    [
        ("harmonious", "3", "4", "5", "bbox harmonious 3 4 holds 256/77"),
        ("maehara", "2", "6", "3", "bbox maehara 2 6 holds 138/97"),
    ],
    ids=["harmonious", "maehara"],
)
def test_check_bbox_samples_long_paths(kind, d, depth, seed, line):
    # 4096 points: above the exhaustive limit, so 10 000 seeded sections
    code, out, _ = run(
        ["check", kind, d, "--property", "bbox", "--depth", depth, "--seed", seed]
    )
    assert code == 0
    assert out.strip() == line


def test_check_continuity_failure_exit_one():
    code, out, _ = run(["check", "z", "3", "--property", "continuity"])
    assert code == 1
    assert "fails" in out


def test_check_continuity_stops_at_the_first_jump():
    # 4**11 points; the walk stops at the third
    assert run(["check", "z", "2", "--property", "continuity", "--depth", "11"]) == (
        1, "continuity z 2 11 fails 1 2\n", ""
    )


def test_streaming_checks_take_a_depth_beyond_the_held_points_bound(monkeypatch):
    # 4**12 points, above MAX_HELD_POINTS; both checks read the walk, stop
    # at its third point and hold no path
    monkeypatch.setattr(engine, "generate_full_path", None)
    argv = ["check", "z", "2", "--property", "continuity,straight-jumping", "--depth", "12"]
    assert run(argv) == (
        1, "continuity z 2 12 fails 1 2\nstraight-jumping z 2 12 fails 1 2\n", ""
    )


def _spy(monkeypatch, *targets):
    """Record the arguments of each call to the patched function."""
    calls = []
    real = getattr(*targets[0])

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module, name in targets:
        monkeypatch.setattr(module, name, spy)
    return calls


def test_check_holds_one_path_for_all_its_properties(monkeypatch):
    props = ["dominance", "bbox", "components"]
    argv = ["check", "harmonious", "3", "--depth", "3", "--property"]
    separate = [run([*argv, prop]) for prop in props]
    calls = _spy(monkeypatch, (engine, "generate_full_path"))
    code, out, err = run([*argv, ",".join(props)])
    assert len(calls) == 1
    assert out == "".join(o for _, o, _ in separate)
    assert (code, err) == (max(c for c, _, _ in separate), "")


# The commands of the ``audit`` benchmark (each with ``--seed``) and the
# walks each takes: one per streaming check, one for the held path.
AUDIT_WALKS = [
    ("z 4 --property components --depth 3", 1),
    ("z 3 --property components --depth 3", 1),
    ("maehara 3 --property components --depth 3", 1),
    ("harmonious 3 --property continuity,palindromic,bbox --depth 4", 3),
    ("z 3 --property dominance --depth 3", 1),
    ("double-gray 3 --property palindromic,straight-jumping --depth 4", 2),
]


@pytest.mark.parametrize("argv,walks", AUDIT_WALKS)
def test_audit_commands_walk_once_per_streaming_check_and_held_path(argv, walks, monkeypatch):
    from traversals import _rule_checks

    calls = _spy(monkeypatch, (engine, "iter_path"), (_rule_checks, "iter_path"))
    _, _, err = run(["check", *argv.split(), "--seed", "1"])
    assert err == ""
    assert len(calls) == walks


def test_check_multiple_properties():
    code, out, _ = run(
        [
            "check",
            "double-gray",
            "3",
            "--property",
            "palindromic,straight-jumping,base-pattern",
            "--depth",
            "2",
        ]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_check_unknown_property(monkeypatch):
    code, _, err = run(["check", "z", "2", "--property", "sparkliness"])
    assert code == 2

    # the whole list is checked before any property runs
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a path before checking the property list")

    monkeypatch.setattr(engine, "iter_path", refuse)
    code, out, err = run(["check", "z", "3", "--property", "components,bogus", "--depth", "3"])
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown property 'bogus'; known: base-pattern, ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["path", "check --property continuity", "plot"])
def test_a_dimension_contradicting_a_definition_is_a_usage_error(command, tmp_path, monkeypatch):
    _, definition, _ = run(["describe", "harmonious", "2"])
    rule = tmp_path / "rule.txt"
    rule.write_text(definition)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a path of the wrong dimension")

    monkeypatch.setattr(engine, "iter_path", refuse)
    for source in ("-", str(rule)):
        code, out, err = run([*command.split(), source, "3", "--depth", "1"], definition)
        assert (code, out) == (2, "")
        assert err == "error: the definition is 2-dimensional, not 3\n"


# sha256 of the SVGs of the Path-based plot, which held the whole path
PLOT_SHA256 = {
    "z 1 --depth 4": "0b7c0b52162f48a134f7b5f587bb3c9b2b0a34ec842110fba86d6c6ec072f371",
    "harmonious 2 --depth 3": "c0682b9a36e075de63ee45263ff9745732b970d4c04bd3342e08c2536baed529",
    "peano 3 --depth 2": "f7f556149ad41f6b99bdc9d95dc130a5ca30cd6bbffbb31e1d0ab4d1093580c5",
    "polya2d --depth 3": "ba024e58f8f281752d2f2718699ee42c6f4822fb8142959724fc148a9490e627",
}


@pytest.mark.parametrize("argv", PLOT_SHA256)
def test_plot_output_is_unchanged(argv):
    code, svg, _ = run(["plot", *argv.split()])
    assert code == 0
    assert hashlib.sha256(svg.encode()).hexdigest() == PLOT_SHA256[argv]


def test_plot_writes_svg(tmp_path):
    out_file = tmp_path / "curve.svg"
    code, _, _ = run(
        ["plot", "meander2d", "--depth", "2", "--out", str(out_file)]
    )
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert svg.count(",") >= 81


def test_plot_three_dimensional_projection(tmp_path):
    out_file = tmp_path / "curve3.svg"
    code, _, _ = run(["plot", "butz", "3", "--depth", "2", "--out", str(out_file)])
    assert code == 0
    assert "polyline" in out_file.read_text()


def test_plot_depth_zero_single_dot():
    code, out, _ = run(["plot", "harmonious", "2", "--depth", "0"])
    assert code == 0
    assert "circle" in out


def test_plot_peano_level_one_has_nine_vertices():
    code, out, _ = run(["plot", "peano", "2", "--depth", "1"])
    assert code == 0
    assert out.count(",") == 9


def test_plot_rejects_high_dimensions():
    code, out, err = run(["plot", "harmonious", "4", "--depth", "1"])
    assert (code, out) == (2, "")
    assert err == "error: plotting supports 1 to 3 dimensions only\n"
    code, out, _ = run(["plot", "z", "1", "--depth", "2"])
    assert code == 0
    assert out.count(",") == 4  # the four cells of the line, on one row


def test_usage_error_exit_code():
    code, _, _ = run(["path"])
    assert code == 2


def test_check_accepts_definition_files(tmp_path):
    f = tmp_path / "rule.txt"
    f.write_text("# a comment line\n[1 2} 1 {1 2] 2 [1 2} -1 {1 2]\n")
    code, out, _ = run(["check", str(f), "--property", "well-folded"])
    assert code == 0
    assert "holds" in out


def test_path_reads_files_and_skips_comments(tmp_path):
    f = tmp_path / "rule.txt"
    f.write_text("# description\n[1 2} 1 [1 2}\n")
    code, out, _ = run(["path", str(f), "--depth", "1"])
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["1 1", "3 1"]


def test_path_centre_origin_is_symmetric():
    code, out, _ = run(["path", "u", "2", "--depth", "1", "--origin", "centre"])
    assert code == 0
    pts = [tuple(int(x) for x in l.split())
           for l in out.splitlines() if not l.startswith("#")]
    assert pts == [(-1, -1), (1, -1), (1, 1), (-1, 1)]


@pytest.mark.parametrize("argv", [
    ["describe", "z", "2"],
    ["path", "z", "2"],
    ["plot", "z", "2"],
])
@pytest.mark.parametrize("target", ["missing/x", "."])
def test_unwritable_out_is_a_usage_error(argv, target, tmp_path):
    out_path = tmp_path / target
    code, out, err = run([*argv, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {str(out_path)!r}: ")
    assert err.count("\n") == 1


def test_unreadable_definition_file_is_a_usage_error(tmp_path, monkeypatch):
    rule = tmp_path / "rule.txt"
    rule.write_text("[1 2} 1 [1 2} 2 [1 2} -1 [1 2}")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(FsPath, "read_text", refuse)
    for command in ("path", "check --property well-folded", "plot"):
        code, out, err = run([*command.split(), str(rule)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {str(rule)!r}: Permission denied\n"


def test_describe_out_flag_writes_file(tmp_path):
    f = tmp_path / "def.txt"
    code, _, _ = run(["describe", "u", "2", "--out", str(f)])
    assert code == 0
    assert f.read_text().strip() == "[1 2} 1 [1 2} 2 [1 2} -1 [1 2}"


@pytest.mark.parametrize("argv", [
    ["path", "--depth", "2"],
    ["plot", "--depth", "2"],
    ["check", "--property", "well-folded"],
])
def test_every_command_resolves_its_source_alike(argv, tmp_path):
    rule = "[1 2} 1 {1 2] 2 [1 2} -1 {1 2]"
    f = tmp_path / "rule.txt"
    f.write_text(rule)
    command, *flags = argv
    code, from_file, _ = run([command, str(f), *flags])
    assert code == 0
    # check labels its report lines with the source as given
    assert run([command, "-", *flags], stdin=rule) == (0, from_file.replace(str(f), "-"), "")
    for source in (str(tmp_path / "missing.txt"), "nosuch"):
        code, out, err = run([command, source, *flags])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown kind or definition file {source!r}; known kinds: z, ")


def test_path_reads_a_trailing_comment():
    rule = "[1 2} 1 {1 2] 2 [1 2} -1 {1 2]"
    want = run(["path", "-", "--depth", "2"], stdin=rule)
    assert want[0] == 0
    commented = f"# the Hilbert order\n{rule}  # four entries\n# end\n"
    assert run(["path", "-", "--depth", "2"], stdin=commented) == want


@pytest.mark.parametrize("alias,name", [
    ("prismcurve3d", "prism3d"),
    ("Prism-3D", "prism3d"),
    ("palindromic_tetra", "palindromic-tetra"),
])
@pytest.mark.parametrize("argv", [
    ["path", "--depth", "2"],
    ["path", "3", "--depth", "1", "--origin", "first"],
    ["check", "--property", "continuity,bbox,components", "--depth", "2"],
    ["plot", "--depth", "2"],
    ["describe"],
])
def test_every_command_takes_every_fixed_curve_name(alias, name, argv):
    command, *flags = argv
    want = run([command, name, *flags])
    assert want[0] in (0, 1) and want[1] and not want[2]
    assert run([command, alias, *flags]) == want


@pytest.mark.parametrize("alias,name,d", [
    ("Double_Gray", "double-gray", "2"),
    ("HILL_Z", "hill-z", "2"),
    ("halfcoil", "half-coil", "2"),
    ("Inside_Out", "inside-out", "3"),
])
@pytest.mark.parametrize("argv", [
    ["describe"],
    ["path", "--depth", "2"],
    ["check", "--property", "continuity,bbox", "--depth", "2"],
    ["plot", "--depth", "2"],
])
def test_every_command_takes_every_family_name(alias, name, d, argv):
    """Case, '-' and '_' do not matter in a family name either."""
    command, *flags = argv
    want = run([command, name, d, *flags])
    assert want[0] in (0, 1) and want[1] and not want[2]
    assert run([command, alias, d, *flags]) == want


def test_plot_writes_the_same_svg_to_a_file(tmp_path):
    f = tmp_path / "meander.svg"
    code, svg, _ = run(["plot", "meander2d", "--depth", "2"])
    assert code == 0
    assert run(["plot", "meander2d", "--depth", "2", "--out", str(f)]) == (0, "", "")
    assert f.read_bytes() == svg.encode()


# -- streamed path output ---------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["path", "harmonious", "2", "--depth", "3", "--exponent", "2", "--origin", "first"],
    ["path", "z", "3", "--depth", "3", "--origin", "last", "--cells"],
])
def test_path_flag_conflicts_exit_before_enumerating(argv, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a path despite conflicting flags")

    monkeypatch.setattr(engine, "iter_path", refuse)
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "z", "3", "--property", "components", "--depth", "1000"],
    ["check", "z", "3", "--property", "base-pattern,dominance", "--depth", "1000"],
    ["check", "peano", "2", "--property", "bbox", "--depth", "8"],
    ["check", "z", "2", "--property", "palindromic", "--depth", "12"],
    ["plot", "z", "2", "--depth", "1000"],
    ["plot", "polya2d", "--depth", "12"],
])
def test_whole_path_commands_refuse_a_huge_depth_before_enumerating(argv, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a path beyond the held-points bound")

    monkeypatch.setattr(engine, "iter_path", refuse)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --depth {argv[-1]} gives more than {MAX_HELD_POINTS} points")
    assert err.count("\n") == 1


def test_rule_level_checks_take_any_depth(monkeypatch):
    monkeypatch.setattr(engine, "iter_path", None)
    code, out, _ = run(["check", "u", "3", "--property", "base-pattern,well-folded",
                        "--depth", "1000"])
    assert code == 0
    assert out == "base-pattern u 3 1 holds G2\nwell-folded-rank u 3 1 holds\n"


def test_held_points_bound_is_exact():
    z2 = generate("z", 2)  # 4**11 == 2**22 points
    _require_held_size(z2, 11, "check")
    with pytest.raises(_UsageError):
        _require_held_size(z2, 12, "check")
    _require_held_size(parse_definition("d=1 s=2 [1}"), 10**9, "plot")  # one point


@pytest.mark.parametrize("argv,stdin", [
    (["path", "-", "--depth", "1000000000"], "d=1 s=2 [1}"),
    (["path", "-", "--depth", "1000000000", "--origin", "centre"], "d=1 s=2 [1}"),
    (["check", "-", "--property", "continuity", "--depth", "1000000000"], "d=1 s=2 [1}"),
    (["plot", "-", "--depth", "1000000000"], "d=1 s=2 [1}"),
    (["path", "z", "2", "--depth", "1000000000"], ""),
    (["path", "z", "2", "--depth", "100000", "--origin", "centre"], ""),
    (["path", "z", "2", "--depth", "65"], ""),
    (["path", "peano", "2", "--depth", "41"], ""),
])
def test_commands_refuse_more_than_2_64_cells_per_axis(argv, stdin, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a path beyond the cells-per-axis bound")

    monkeypatch.setattr(engine, "iter_path", refuse)
    code, out, err = run(argv, stdin)
    depth = argv[argv.index("--depth") + 1]
    assert (code, out) == (2, "")
    assert err == f"error: --depth {depth} gives more than {MAX_CELLS_PER_AXIS} cells per axis\n"


@pytest.mark.parametrize("kind,depth", [("z", 64), ("peano", 40)])
def test_cells_per_axis_bound_is_exact(kind, depth, monkeypatch):
    defn = generate(kind, 2)
    assert defn.scale**depth <= MAX_CELLS_PER_AXIS < defn.scale ** (depth + 1)
    _require_cells_per_axis(defn, depth)
    with pytest.raises(_UsageError):
        _require_cells_per_axis(defn, depth + 1)
    # the command passes the depth on to the walk
    monkeypatch.setattr(engine, "iter_path", lambda defn, depth, origin, cells=False: iter([(1, 1)]))
    code, out, _ = run(["path", kind, "2", "--depth", str(depth)])
    assert code == 0
    assert out == f"# kind={kind} d=2 depth={depth} origin=corner units=half-cell/1\n1 1\n"


@pytest.mark.parametrize("small,argv,err", [
    (False, "check z 40 --property base-pattern", "kind 'z' in 40 dimensions"),
    (False, "path z 64 --depth 1", "kind 'z' in 64 dimensions"),
    (False, "describe z 18", "kind 'z' in 18 dimensions"),
    (False, "path z 2 --depth 40 --exponent 2", "--depth 40 gives more than 4194304"),
    (True, "path harmonious 2 --depth 4 --exponent 2", None),
    (True, "path harmonious 2 --depth 5 --exponent 2", "--depth 5 gives more than 256"),
    (True, "describe z 6", None),
    (True, "describe z 7", "kind 'z' in 7 dimensions"),
    (True, "describe peano 3", None),
    (True, "describe peano 4", "kind 'peano' in 4 dimensions"),
])
def test_huge_rules_and_held_squares_are_refused_before_building(small, argv, err, monkeypatch):
    """Refused unbuilt and unwalked; with small bounds, one step less passes."""
    if small:
        monkeypatch.setattr(cli, "MAX_HELD_POINTS", 2**8)
        monkeypatch.setattr(cli, "MAX_RULE_ENTRIES", 2**6)
    if err is None:
        assert run(argv.split())[0] == 0
        return
    monkeypatch.setattr(engine, "iter_path", None)
    monkeypatch.setattr(engine, "iter_squared_path", None)
    if "dimensions" in err:
        monkeypatch.setattr(generators, "generate", None)
        err += f" has more than {cli.MAX_RULE_ENTRIES} entries"
    else:
        err += " points, which path --exponent 2 would hold in memory"
    assert run(argv.split()) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ["path", "z", "2", "--depth", "-1"],
    ["path", "polya2d", "--depth", "1", "--exponent", "2"],
])
def test_path_engine_errors_come_before_any_output(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_path_stops_quietly_when_the_reader_closes_the_pipe():
    """``traversals path z 3 --depth 5 | head -2``: no traceback, no
    "Exception ignored" line, exit status 141."""
    src = str(FsPath(traversals.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "traversals.cli", "path", "z", "3", "--depth", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()  # 32768 points do not fit in the pipe buffer
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE == 141
    assert head == [b"# kind=z d=3 depth=5 origin=corner units=half-cell/1\n", b"1 1 1\n"]
    assert err == b""


@pytest.mark.parametrize("argv,head", [
    (["describe", "z", "12"], b"[1 2 3 4 5"),
    (["plot", "harmonious", "2", "--depth", "7"], b"<svg xmlns"),
], ids=["describe", "plot"])
def test_describe_and_plot_stop_quietly_when_the_reader_closes_the_pipe(argv, head):
    """``traversals describe z 12 | head -c 10``: exit status 141 and no
    traceback, as for ``path``."""
    src = str(FsPath(traversals.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "traversals.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    got = proc.stdout.read(10)
    proc.stdout.close()  # 139 kB and 225 kB do not fit in the pipe buffer
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE
    assert got == head
    assert err == b""


def test_check_stops_quietly_when_its_output_pipe_is_closed():
    """``check`` writes through the same writer as the other commands: on
    a pipe whose reader closed before it started, exit status 141 and an
    empty stderr."""
    src = str(FsPath(traversals.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "traversals.cli", "check", "z", "3",
             "--property", "dominance,components", "--depth", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_PIPE, b"")


def test_path_streams_in_bounded_memory(tmp_path):
    """The peak of traced allocations does not grow with the depth.

    z d=3 at depth 5 has 8 times the points of depth 4; materialised,
    its tuples alone would take about 2 MB.
    """
    out = tmp_path / "points.txt"
    main(["path", "z", "3", "--depth", "1", "--out", str(out)])  # lazy imports
    peaks = []
    for depth in ("4", "5"):
        tracemalloc.start()
        try:
            assert main(["path", "z", "3", "--depth", depth, "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out.read_text().count("\n") == 1 + 8**5
    assert abs(peaks[1] - peaks[0]) < 64 * 1024
    assert peaks[1] < 512 * 1024


def run_binary(argv):
    """``main(argv)`` with a stdout that has a binary layer, as the real
    one does: the exit status and the bytes written."""
    raw, old = io.BytesIO(), sys.stdout
    sys.stdout = io.TextIOWrapper(raw, encoding="ascii", write_through=True)
    try:
        code = main(argv)
        sys.stdout.flush()
        return code, raw.getvalue()
    finally:
        sys.stdout = old


PATH_BYTE_CASES = [
    (source, extra)
    for source in (["z", "2"], ["harmonious", "3"], ["peano", "2"], ["maehara", "3"],
                   ["hill-z", "3"], ["meander2d"])
    for extra in ([["--origin", o] for o in engine.ORIGIN_MODES]
                  + [["--cells"], ["--exponent", "2"], ["--exponent", "2", "--cells"]])
]


@pytest.mark.parametrize("source,extra", PATH_BYTE_CASES,
                         ids=[" ".join(source + extra) for source, extra in PATH_BYTE_CASES])
def test_path_writes_the_same_bytes_to_stdout_a_text_stream_and_a_file(source, extra, tmp_path):
    """The byte writer against the points formatted one by one as text,
    on stdout's binary layer, on a text stream without one and in an
    ``--out`` file (squares at depth 1, which walk d levels)."""
    depth = 1 if "--exponent" in extra else 2
    argv = ["path", *source, "--depth", str(depth), *extra]
    code, text, err = run(argv)
    if "--exponent" in extra and source[0] in ("maehara", "hill-z"):
        assert (code, text) == (2, ""), err  # not symmetric: no squared path
        return
    assert code == 0, err
    defn = cli._load_source(source[0], int(source[1]) if len(source) > 1 else None)[0]
    if "--exponent" in extra:
        points = engine.iter_squared_path(defn, depth, cells="--cells" in extra)
    else:
        origin = extra[1] if extra[0] == "--origin" else "corner"
        points = engine.iter_path(defn, depth, origin, cells="--cells" in extra)
    body = "".join(" ".join(map(str, p)) + "\n" for p in points)
    assert text.split("\n", 1)[1] == body
    assert run_binary(argv) == (0, text.encode())
    out = tmp_path / "points.txt"
    assert run([*argv, "--out", str(out)]) == (0, "", "")
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("argv", [
    ["path", "harmonious", "3", "--depth", "5"],
    ["plot", "z", "2", "--depth", "7"],
])
def test_output_survives_signals_on_an_unbuffered_pipe(argv):
    """With ``python -u`` each write is one write(2) call; a signal that
    interrupts a long write to a full pipe makes it short, and the text
    layer drops the rest.  The output must come through whole."""
    src = str(FsPath(traversals.__file__).resolve().parents[1])
    script = (
        "import signal, sys\n"
        "from traversals.cli import main\n"
        "signal.signal(signal.SIGALRM, lambda *_: sum(range(20000)))\n"
        "signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)\n"
        f"code = main({argv!r})\n"
        "signal.setitimer(signal.ITIMER_REAL, 0)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", script],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    got = []
    while chunk := proc.stdout.read1(4096):  # a slow reader keeps the pipe full
        got.append(chunk)
        time.sleep(0.002)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    _, want, _ = run(argv)
    assert b"".join(got).decode() == want


def test_the_package_runs_as_a_module():
    """``python -m traversals`` is the CLI, exit status included."""
    src = str(FsPath(traversals.__file__).resolve().parents[1])

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "traversals", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )

    proc = module("describe", "z", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == run(["describe", "z", "2"])
    proc = module("describe", "nosuch", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


# -- what a process loads ----------------------------------------------------


def _fresh_process(script: str, *flags: str) -> str:
    src = str(FsPath(traversals.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# The core value types are plain classes, so no command imports these.
_PRINT_HEAVY = "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"


_PRINT_LOADED = "print(sorted(m for m in sys.modules if m.startswith('traversals')))\n"


def test_importing_analysis_loads_neither_engine_nor_a_check():
    script = "import sys\nimport traversals.analysis\n" + _PRINT_LOADED
    for flags in ((), ("-S",)):
        loaded = _fresh_process(script, *flags)
        assert loaded == "['traversals', 'traversals.analysis', 'traversals.notation']\n", flags


def test_path_loads_neither_analysis_nor_bitmatrix():
    # z has its own pattern; harmonious 3 is built on the Gray pattern G2(3);
    # only a squared path loads the squaring module.
    for kind, d, extra in (("z", "2", ()), ("harmonious", "3", ()), ("harmonious", "2", ("--exponent", "2"))):
        script = (
            "import contextlib, io, sys\n"
            "import traversals\n"
            + _PRINT_LOADED
            + "from traversals.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['path', '{kind}', '{d}', *{extra!r}]) == 0\n"
            + _PRINT_LOADED
            + _PRINT_HEAVY
        )
        before, after, heavy = _fresh_process(script).splitlines()
        assert before == "['traversals']", kind
        assert "traversals.engine" in after, kind
        assert "traversals.analysis" not in after, kind
        assert "traversals.bitmatrix" not in after, kind
        assert ("traversals._squaring" in after) == bool(extra), kind
        assert heavy == "[]", kind


def test_check_does_not_load_bitmatrix():
    # bitmatrix is the oracle of the rank calculus; no property check needs
    # it.  Harmonious at d = 3 fails palindromicity and dominance: exit 1.
    props = ",".join(_PROPERTIES)
    script = (
        "import contextlib, io, sys\n"
        "from traversals.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['check', 'harmonious', '3', '--depth', '2', '--property', '{props}']) == 1\n"
        + _PRINT_LOADED
        + _PRINT_HEAVY
    )
    loaded, heavy = _fresh_process(script).splitlines()
    assert "traversals.analysis" in loaded
    assert "traversals.bitmatrix" not in loaded
    assert "traversals._squaring" not in loaded
    assert heavy == "[]"


@pytest.mark.parametrize("argv,loads,skips", [
    ("z 3 --property components", "_path_checks", "_rule_checks"),
    ("double-gray 3 --property palindromic,straight-jumping", "_rule_checks", "_path_checks"),
])
def test_check_loads_only_the_module_of_the_checks_it_runs(argv, loads, skips):
    script = (
        "import contextlib, io, sys\n"
        "from traversals.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({['check', *argv.split()]!r}) == 0\n"
        + _PRINT_LOADED
    )
    loaded = _fresh_process(script)
    assert f"traversals.{loads}" in loaded
    assert f"traversals.{skips}" not in loaded


# Where each name of ``analysis.__all__`` and ``engine.__all__`` is defined,
# when not in the module itself.
_HOMES = {
    **dict.fromkeys(
        ["check_base_pattern", "check_well_folded_rank", "check_continuity", "check_palindromic",
         "palindromic_on_cells", "check_straight_jumping", "check_facet_order"],
        "traversals._rule_checks",
    ),
    **dict.fromkeys(
        ["adjacency_profile", "SectionAuditor", "component_count", "section_component_audit",
         "check_dominance", "max_bbox_ratio"],
        "traversals._path_checks",
    ),
    **dict.fromkeys(
        ["find_reversal_symmetry", "squared_definition", "iter_squared_path", "squared_path"],
        "traversals._squaring",
    ),
}


def test_moved_names_stay_listed_and_resolve_to_their_defining_module():
    # In a fresh process: dir() lists every name before any is resolved,
    # and each resolves to the object its defining module holds.
    script = (
        "import sys\n"
        "from traversals import analysis, engine\n"
        "print([sorted(set(m.__all__) - set(dir(m))) for m in (analysis, engine)])\n"
        + _PRINT_LOADED
        + "homes = {}\n"
        "for m in (analysis, engine):\n"
        "    for name in m.__all__:\n"
        "        value = getattr(m, name)\n"
        "        home = getattr(value, '__module__', m.__name__)\n"
        "        assert getattr(sys.modules[home], name) is value, name\n"
        "        if home != m.__name__:\n"
        "            homes[name] = home\n"
        "print(sorted(homes.items()))\n"
    )
    unlisted, loaded, homes = _fresh_process(script).splitlines()
    assert unlisted == "[[], []]"
    assert loaded == "['traversals', 'traversals.analysis', 'traversals.engine', 'traversals.notation']"
    assert homes == str(sorted(_HOMES.items()))


def test_reports_and_paths_survive_a_pickle_round_trip():
    # Unpickling finds each class where it always was: a report needs
    # only ``analysis``, a path ``engine``.
    import pickle

    from traversals import analysis

    path = generate_full_path(generate("z", 2), 2)
    report = analysis.check_dominance(path, kind="z")
    for value, module in ((report, "traversals.analysis"), (path, "traversals.engine")):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
        script = (
            "import pickle, sys\n"
            f"value = pickle.loads({pickle.dumps(value)!r})\n"
            "print(repr(value))\n"
            + _PRINT_LOADED
        )
        text, loaded = _fresh_process(script).splitlines()
        assert text == repr(value)
        assert loaded == str(sorted({"traversals", module, "traversals.notation"}))


def test_family_commands_load_no_file_machinery_without_site():
    # Without site hooks (-S), which may import them first, a family
    # ``path`` or ``check`` imports neither pathlib nor importlib.resources;
    # a fixed curve, read from a package file, then loads them.
    props = ",".join(_PROPERTIES)
    script = (
        "import contextlib, io, sys\n"
        "from traversals.cli import main\n"
        "names = ('dataclasses', 'inspect', 'pathlib', 'importlib.resources')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['path', 'harmonious', '3']) == 0\n"
        f"    assert main(['check', 'harmonious', '3', '--depth', '2', '--property', '{props}']) == 1\n"
        "print([m for m in names if m in sys.modules])\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(['path', 'meander2d', '--depth', '2', '--cells']) == 0\n"
        "print(len(out.getvalue().splitlines()), 'importlib.resources' in sys.modules)\n"
    )
    loaded, meander = _fresh_process(script, "-S").splitlines()
    assert loaded == "[]"
    assert meander == "82 True"  # a header and 9**2 cells


def test_type_checking_imports_match_the_lazy_map():
    import ast

    tree = ast.parse(FsPath(traversals.__file__).read_text())
    (guard,) = [n for n in tree.body if isinstance(n, ast.If) and ast.unparse(n.test) == "TYPE_CHECKING"]
    imported = {alias.name: node.module for node in guard.body for alias in node.names}
    assert imported == traversals._EXPORTS


def test_every_public_name_resolves():
    from traversals import analysis, bitmatrix, notation

    for name in traversals.__all__:
        assert getattr(traversals, name) is not None, name
    assert traversals.iter_path is engine.iter_path
    assert traversals.rank_of_cell is bitmatrix.rank_of_cell
    assert traversals.PropertyReport is analysis.PropertyReport
    assert traversals.ParseError is notation.ParseError
    assert set(traversals.__all__) <= set(dir(traversals))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        traversals.nonexistent
    namespace: dict = {}
    exec("from traversals import *", namespace)
    assert set(traversals.__all__) <= set(namespace)
    script = "from traversals import *\nprint(generate_path(generate('z', 2), 1).points)"
    assert _fresh_process(script) == "((-1, -1), (1, -1), (-1, 1), (1, 1))\n"
