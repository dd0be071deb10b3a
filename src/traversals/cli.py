"""Command-line interface.

Four subcommands on one executable:

* ``describe KIND [D]``   print a traversal definition
* ``path SOURCE``         enumerate the points of a definition
* ``check KIND|FILE|- [D]`` run property checks, exit 1 on failure
* ``plot SOURCE``         draw the path as an SVG polyline (d = 2 or 3)

``describe`` and ``path`` together replace the two classic tools this
interface descends from: ``describe-traversal KIND D`` maps to
``traversals describe KIND D`` and ``generate-path DEPTH EXPONENT
ORIGIN < definition`` maps to ``traversals path - --depth DEPTH
--exponent E --origin O``.

Exit codes: 0 on success (all properties hold), 1 when a checked
property fails, 2 on usage or parse errors, 141 when ``path``,
``describe`` or ``plot`` finds its output pipe closed by the reader (as
in ``traversals path z 3 --depth 5 | head -2``); it then stops without a
message.

``path`` streams its points in every origin mode and with ``--cells``,
in memory that does not grow with the depth.  Refused with exit 2 and
one ``error:`` line, before any output: more than ``MAX_HELD_POINTS``
held points (``check``, ``plot``, and ``path --exponent 2``, which holds
the path its squared points select from); more than ``MAX_CELLS_PER_AXIS``
(2**64) cells per axis (``path``, ``plot``, whole-path checks); a family
rule of more than ``MAX_RULE_ENTRIES`` (2**16) entries (every command).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from pathlib import Path as FsPath

from . import analysis, engine, generators
from .notation import ParseError, TraversalDefinition, format_definition, parse_definition

_KNOWN = ", ".join(
    [k.value for k in generators.TraversalKind] + list(generators.FIXED_NAMES)
)

# 128 + SIGPIPE: the status a shell shows for a writer killed by the signal.
EXIT_CLOSED_PIPE = 141

# The most points ``check`` and ``plot`` hold in memory at once.
MAX_HELD_POINTS = 2**22

# The most cells per axis (``scale ** depth``) ``path``, ``check`` and
# ``plot`` accept.
MAX_CELLS_PER_AXIS = 2**64

# The most entries (``scale ** d``) of a family rule any command builds.
MAX_RULE_ENTRIES = 2**16


class _UsageError(Exception):
    pass


def _load_kind(kind: str, d: int | None) -> tuple[TraversalDefinition, str]:
    slug = generators._slug(kind)
    if slug is None:
        raise _UsageError(f"unknown kind {kind!r}; known kinds: {_KNOWN}")
    if slug not in generators.FIXED_NAMES:
        if d is None:
            raise _UsageError(f"kind {kind!r} needs a dimension argument")
        _require_at_most(
            generators._scale(slug), d, MAX_RULE_ENTRIES,
            f"kind {kind!r} in {d} dimensions has more than {MAX_RULE_ENTRIES} entries",
        )
        return generators.generate(slug, d), slug
    defn = generators.builtin_fixed(slug)
    if d is not None and d != defn.dimension:
        raise _UsageError(f"{kind} is a fixed {defn.dimension}-dimensional curve")
    return defn, slug


def _load_source(source: str, d: int | None) -> tuple[TraversalDefinition, str | None]:
    """The rule SOURCE names, and its kind slug (None for a definition)."""
    if generators._slug(source) is not None:
        return _load_kind(source, d)
    if source == "-":
        text = sys.stdin.read()
    elif FsPath(source).is_file():
        text = FsPath(source).read_text()
    else:
        raise _UsageError(
            f"unknown kind or definition file {source!r}; known kinds: {_KNOWN}"
        )
    return parse_definition(text), None


def _require_at_most(base: int, exponent: int, bound: int, message: str) -> None:
    """Refuse with ``message`` when ``base ** exponent`` exceeds ``bound``."""
    # Any base of 2 or more passes the bound by exponent bound.bit_length().
    if base ** min(exponent, bound.bit_length()) > bound:
        raise _UsageError(message)


def _require_held_size(defn: TraversalDefinition, depth: int, command: str,
                       note: str = "; 'path' streams them") -> None:
    """Refuse a depth whose whole path would exceed ``MAX_HELD_POINTS``."""
    _require_at_most(
        len(defn.entries), depth, MAX_HELD_POINTS,
        f"--depth {depth} gives more than {MAX_HELD_POINTS} points, "
        f"which {command} would hold in memory{note}",
    )


def _require_cells_per_axis(defn: TraversalDefinition, depth: int) -> None:
    """Refuse a depth with more than ``MAX_CELLS_PER_AXIS`` cells per axis."""
    _require_at_most(
        defn.scale, depth, MAX_CELLS_PER_AXIS,
        f"--depth {depth} gives more than {MAX_CELLS_PER_AXIS} cells per axis",
    )


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


# Output is written in pieces of at most PIPE_BUF (4096 bytes on Linux).
# An unbuffered stdout (``python -u``, PYTHONUNBUFFERED) makes one write(2)
# call per write and drops what a short write leaves out; a pipe write of
# at most PIPE_BUF bytes is never short, even when a signal interrupts it.
_PIECE = 4096


def _write(out, text: str) -> None:
    for i in range(0, len(text), _PIECE):
        out.write(text[i : i + _PIECE])


def _closed_pipe() -> int:
    """The reader closed the pipe.  Point stdout at the null device so
    that the interpreter's flush at exit does not report it again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_CLOSED_PIPE


def _emit(args, text: str) -> int:
    """Write ``text`` to the command's output; exit status as for ``path``."""
    try:
        with _out_stream(args) as out:
            _write(out, text)
            out.flush()
    except BrokenPipeError:
        return _closed_pipe()
    return 0


def _cmd_describe(args) -> int:
    defn, _ = _load_kind(args.kind, args.dimension)
    return _emit(args, format_definition(defn) + "\n")


# Points are formatted this many at a time.
_BATCH = 4096


def _cmd_path(args) -> int:
    defn, slug = _load_source(args.source, args.dimension)
    label = slug or "definition"
    if args.exponent == 2 and args.origin != "corner":
        raise _UsageError("squared paths are emitted with corner origin")
    if args.cells and args.origin != "corner":
        raise _UsageError("cell indices are defined for corner-origin paths")
    _require_cells_per_axis(defn, args.depth)
    d = defn.dimension
    if args.exponent == 2:
        _require_held_size(defn, args.depth, "path --exponent 2", note="")
        d *= d
        points = engine.iter_squared_path(defn, args.depth)
    else:
        points = engine.iter_path(defn, args.depth, args.origin)
    # the first point raises the engine's errors before any output
    points = itertools.chain((next(points),), points)
    w = engine.cell_units(defn)
    fmt = " ".join(["%d"] * d) + "\n"
    try:
        with _out_stream(args) as out:
            units = "cell" if args.cells else f"half-cell/{w // 2}"
            out.write(
                f"# kind={label} d={d} depth={args.depth} "
                f"origin={args.origin} units={units}\n"
            )
            while True:
                coords = itertools.chain.from_iterable(itertools.islice(points, _BATCH))
                if args.cells:
                    coords = map(w.__rfloordiv__, coords)
                coords = tuple(coords)
                if not coords:
                    break
                _write(out, fmt * (len(coords) // d) % coords)
            out.flush()
    except BrokenPipeError:
        return _closed_pipe()
    return 0


_PROPERTIES = (
    "base-pattern",
    "continuity",
    "palindromic",
    "straight-jumping",
    "dominance",
    "bbox",
    "components",
    "well-folded",
)
# the properties checked on the whole enumerated path
_WHOLE_PATH = frozenset(_PROPERTIES) - {"base-pattern", "well-folded"}


def _run_property(prop, defn, kind, depth, seed) -> analysis.PropertyReport:
    d = defn.dimension
    if prop == "base-pattern":
        cls = analysis.check_base_pattern(defn)
        verdict = "holds" if cls != "Other" else "fails"
        return analysis.PropertyReport("base-pattern", kind, d, 1, verdict, (cls,))
    if prop == "continuity":
        path = engine.generate_full_path(defn, depth, "corner")
        prof = analysis.adjacency_profile(path)
        if prof.other_steps == 0:
            return analysis.PropertyReport("continuity", kind, d, depth, "holds")
        return analysis.PropertyReport(
            "continuity", kind, d, depth, "fails", prof.first_jump
        )
    if prop == "palindromic":
        return analysis.check_palindromic(defn, depth, kind=kind)
    if prop == "straight-jumping":
        return analysis.check_straight_jumping(defn, depth, kind=kind)
    if prop == "dominance":
        path = engine.generate_full_path(defn, depth, "corner")
        return analysis.check_dominance(path, kind=kind)
    if prop == "bbox":
        path = engine.generate_full_path(defn, depth, "corner")
        ratio = analysis.max_bbox_ratio(path, seed=seed)
        verdict = "holds" if ratio <= 4 else "fails"
        return analysis.PropertyReport("bbox", kind, d, depth, verdict, (ratio,))
    if prop == "components":
        path = engine.generate_full_path(defn, depth, "corner")
        mx, _ = analysis.section_component_audit(path, 10000, seed)
        verdict = "holds" if mx <= 2 else "fails"
        return analysis.PropertyReport("components", kind, d, depth, verdict, (mx,))
    if prop == "well-folded":
        return analysis.check_well_folded_rank(defn, kind=kind)
    raise _UsageError(f"unknown property {prop!r}; known: {', '.join(_PROPERTIES)}")


def _cmd_check(args) -> int:
    defn, slug = _load_source(args.source, args.dimension)
    label = slug or args.source
    props = [p.strip() for p in args.property.split(",") if p.strip()]
    if not props:
        raise _UsageError("no property given")
    if _WHOLE_PATH.intersection(props):
        _require_held_size(defn, args.depth, "check")
        _require_cells_per_axis(defn, args.depth)
    all_hold = True
    for prop in props:
        report = _run_property(prop, defn, label, args.depth, args.seed)
        print(report.line())
        all_hold &= report.holds
    return 0 if all_hold else 1


def _svg_polyline(points, width=640, margin=20) -> str:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0, 1)
    scale = (width - 2 * margin) / span
    sx = lambda x: margin + (x - x0) * scale
    sy = lambda y: width - margin - (y - y0) * scale  # y up
    body = []
    if len(points) == 1:
        body.append(
            f'<circle cx="{sx(xs[0]):.2f}" cy="{sy(ys[0]):.2f}" r="3" fill="black"/>'
        )
    else:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="1"/>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}" '
        f'viewBox="0 0 {width} {width}">\n' + "\n".join(body) + "\n</svg>\n"
    )


def _cmd_plot(args) -> int:
    defn, _ = _load_source(args.source, args.dimension)
    d = defn.dimension
    if d > 3:
        raise _UsageError("plotting supports 2 or 3 dimensions only")
    _require_held_size(defn, args.depth, "plot")
    _require_cells_per_axis(defn, args.depth)
    path = engine.generate_full_path(defn, args.depth, "corner")
    if d == 3:
        # fixed oblique projection
        pts = [
            (p[0] + 0.35 * p[2], p[1] + 0.2 * p[2]) for p in path.points
        ]
    elif d == 2:
        pts = [(p[0], p[1]) for p in path.points]
    else:
        pts = [(p[0], 0) for p in path.points]
    return _emit(args, _svg_polyline(pts))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traversals",
        description="Generate, enumerate and verify self-similar grid traversals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a built-in traversal definition")
    p.add_argument("kind")
    p.add_argument("dimension", nargs="?", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("path", help="enumerate the points visited by a traversal")
    p.add_argument("source", help="definition file, '-' for stdin, or a kind name")
    p.add_argument("dimension", nargs="?", type=int, default=None)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--exponent", type=int, choices=(1, 2), default=1)
    p.add_argument("--origin", choices=engine.ORIGIN_MODES, default="corner")
    p.add_argument("--cells", action="store_true", help="emit 0-based cell indices")
    p.add_argument("--out")

    p = sub.add_parser("check", help="verify traversal properties")
    p.add_argument("source", help="definition file, '-' for stdin, or a kind name")
    p.add_argument("dimension", nargs="?", type=int, default=None)
    p.add_argument("--property", required=True, help="comma-separated property names")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plot", help="write an SVG polyline of the path")
    p.add_argument("source", help="definition file, '-' for stdin, or a kind name")
    p.add_argument("dimension", nargs="?", type=int, default=None)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--out")

    return parser


_COMMANDS = {
    "describe": _cmd_describe,
    "path": _cmd_path,
    "check": _cmd_check,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
