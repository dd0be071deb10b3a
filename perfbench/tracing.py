"""Spans around the package's public functions, for a traced child process.

The tracer replaces each listed function at every module attribute that
holds it: the defining module, the modules that imported it by name and
the package itself.  Calls made by the CLI, by other package modules and
by the benchmark therefore all pass through one wrapper, and the
program's source stays untouched.

Every call records one span: name, first start, last end, the span that
was open when it was made, busy time and the busy time of the spans it
enclosed.  Self time is busy time minus enclosed time.  A generator
function is timed per resume, so work its consumer does between items is
charged to the consumer, not to the generator.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# Public functions per layer (module of the ``traversals`` package).  A
# dotted name is a method, wrapped on its class.
LAYERS = {
    "notation": ("parse_definition", "format_definition"),
    "generators": ("generate", "builtin_fixed"),
    "engine": (
        "Path.cell_indices",
        "iter_path",
        "generate_path",
        "generate_full_path",
        "locate",
        "squared_path",
        "find_reversal_symmetry",
        "squared_definition",
    ),
    "bitmatrix": ("rank_of_cell", "cell_of_rank"),
    "analysis": (
        "SectionAuditor.__init__",
        "SectionAuditor.counts",
        "section_component_audit",
        "component_count",
        "adjacency_profile",
        "check_base_pattern",
        "check_palindromic",
        "palindromic_on_cells",
        "check_dominance",
        "check_straight_jumping",
        "check_facet_order",
        "max_bbox_ratio",
        "check_well_folded_rank",
    ),
    "cli": ("main",),
}

# Record fields.
NAME, START, END, PARENT, BUSY, CHILD = range(6)


class Tracer:
    """In-memory spans and counts of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, float]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, None, None, parent, 0.0, 0.0])
        return len(self.spans) - 1

    def resume(self, sid: int) -> None:
        t = time.perf_counter()
        rec = self.spans[sid]
        if rec[START] is None:
            rec[START] = t
        self._stack.append((sid, t))

    def suspend(self) -> None:
        t = time.perf_counter()
        sid, t0 = self._stack.pop()
        rec = self.spans[sid]
        rec[END] = t
        rec[BUSY] += t - t0
        if self._stack:
            self.spans[self._stack[-1][0]][CHILD] += t - t0

    @contextlib.contextmanager
    def span(self, name: str):
        self.resume(self.open(name))
        try:
            yield
        finally:
            self.suspend()

    def wrap(self, fn, name: str, after=None):
        """``fn`` with one span per call; ``after(args, result)`` runs
        after the span closes, inside a ``trace.bookkeeping`` span so its
        cost is not charged to the caller's layer."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                sid = self.open(name)
                items = 0
                try:
                    while True:
                        self.resume(sid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self.suspend()
                        items += 1
                        yield item
                finally:
                    gen.close()
                    self.counts[name + ".items"] += items

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.resume(self.open(name))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.suspend()
            if after is not None:
                with self.span("trace.bookkeeping"):
                    after(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        out: dict[str, list] = {}
        for rec in self.spans:
            agg = out.setdefault(rec[NAME], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += rec[BUSY]
            agg[2] += rec[BUSY] - rec[CHILD]
        return {k: tuple(v) for k, v in out.items()}

    def root_busy(self) -> float:
        return sum(rec[BUSY] for rec in self.spans if rec[PARENT] == -1)


def rebind(old, new) -> None:
    """Point every ``traversals`` module attribute holding ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "traversals" or modname.startswith("traversals.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def face_edges(path) -> int:
    """Face-adjacent pairs among the distinct cells a path visits."""
    w = path.cell_units
    cells = {tuple(x // w for x in p) for p in path.points}
    edges = 0
    for c in cells:
        for axis in range(len(c)):
            if c[:axis] + (c[axis] + 1,) + c[axis + 1:] in cells:
                edges += 1
    return edges


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS` for ``tracer``."""
    importlib.import_module("traversals")

    def after_auditor(args, _result):
        auditor, path = args[0], args[1]
        tracer.counts["analysis.cells"] += auditor.n_cells
        tracer.counts["analysis.edges"] += face_edges(path)

    def after_counts(_args, result):
        tracer.counts["analysis.sections"] += len(result)

    hooks = {
        "analysis.SectionAuditor.__init__": after_auditor,
        "analysis.SectionAuditor.counts": after_counts,
    }
    for layer, names in LAYERS.items():
        mod = importlib.import_module("traversals." + layer)
        for qual in names:
            name = f"{layer}.{qual}"
            owner, attr = mod, qual
            if "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(mod, cls)
            orig = getattr(owner, attr)
            new = tracer.wrap(orig, name, hooks.get(name))
            if owner is mod:
                rebind(orig, new)
            else:
                setattr(owner, attr, new)


def install_tracemalloc(peaks: list) -> None:
    """Record a ``tracemalloc`` peak (bytes) around each outermost
    ``engine.generate_full_path`` call, appending it to ``peaks``."""
    import tracemalloc

    from traversals import engine

    orig = engine.generate_full_path

    @functools.wraps(orig)
    def measured(*args, **kwargs):
        if tracemalloc.is_tracing():
            return orig(*args, **kwargs)
        tracemalloc.start()
        try:
            return orig(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    rebind(orig, measured)
