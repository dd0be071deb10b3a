"""One process of a workload; started by ``run.py``, never by hand.

    child.py setup WORKLOAD [--trace]
    child.py cli [--trace] [--tracemalloc] [--rescale] -- ARGV...
    child.py query SEED SECONDS [--trace]

The program's own output goes to stdout.  The last line on stderr is
``PERFBENCH <json>`` with this process's measurements, including its own
peak resident set (``VmHWM``, read at exit).  The peak is read inside
the process because a parent's ``wait4`` reports a hiwater mark that
Linux carries across fork and exec from the parent.
"""

from __future__ import annotations

import json
import sys
import time

import workloads

MARKER = "PERFBENCH "


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(**fields) -> None:
    sys.stdout.flush()
    fields["peak_rss_mb"] = peak_rss_mb()
    sys.stderr.write("\n" + MARKER + json.dumps(fields) + "\n")
    sys.stderr.flush()


def trace_fields(tracer) -> dict:
    return {
        "self_times": tracer.self_times(),
        "counts": dict(tracer.counts),
        "root_s": tracer.root_busy(),
    }


class Metered:
    """This process's time rescaled to the reference speed.

    A command is one long call, so the yardstick runs from a ``SIGALRM``
    handler every ``YARDSTICK_EVERY_S`` seconds, between the program's
    bytecodes on the same CPU.  Each stretch of the program's time is
    scaled by ``YARDSTICK_REF_S`` over the yardstick's time (the faster
    of two runs) at its end.  Time in the handler is left out.
    """

    def __init__(self) -> None:
        import signal

        self.start = self.mark = time.perf_counter()
        self.ref_s = self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, workloads.YARDSTICK_EVERY_S, workloads.YARDSTICK_EVERY_S)

    def probe(self, *_) -> None:
        now = time.perf_counter()
        c = min(workloads.yardstick(), workloads.yardstick())
        self.ref_s += (now - self.mark) * workloads.YARDSTICK_REF_S / c
        self.mark = time.perf_counter()
        self.spent_s += self.mark - now

    def stop(self) -> dict:
        """Stop probing; the program time covered and its rescaled sum."""
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()
        return {"covered_s": self.mark - self.start - self.spent_s, "ref_s": self.ref_s}


def setup(workload: str, trace: bool) -> None:
    metered = None if trace else Metered()
    t0 = time.perf_counter()
    import traversals
    from traversals import analysis

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rules = workloads.build_rules(workload)
    setup_s = time.perf_counter() - t0
    fields = trace_fields(tracer) if tracer else {}
    if metered is not None:
        fields.update(metered.stop())
    report(
        setup_s=setup_s,
        rules=len(rules),
        backend=analysis.KERNEL_BACKEND,
        package=traversals.__file__,
        **fields,
    )


def cli(argv: list[str], trace: bool, with_tracemalloc: bool, rescale: bool) -> int:
    metered = Metered() if rescale else None
    from traversals import cli as program

    import tracing

    tracer = peaks = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if with_tracemalloc:
        peaks = []
        tracing.install_tracemalloc(peaks)
    t0 = time.perf_counter()
    code = program.main(argv)
    main_s = time.perf_counter() - t0
    fields = {"main_s": main_s, "exit": code}
    if metered is not None:
        fields.update(metered.stop())
    if tracer is not None:
        fields.update(trace_fields(tracer))
    if peaks is not None:
        fields["tracemalloc_peaks"] = peaks
    report(**fields)
    return code


def query(seed: int, seconds: float, trace: bool) -> None:
    import statistics
    from pathlib import Path

    import query as q

    rules = workloads.build_rules("query")
    inputs = q.make_inputs(rules, seed)
    passes = []
    fields = {}
    if trace:
        import tracing

        passes.append(q.finish(q.run_pass(rules, inputs), keep_results=True))
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = q.run_pass(rules, inputs)
        fields.update(trace_fields(tracer))
        passes.append(q.finish(traced, keep_results=False))
        fields["untraced_wall_s"] = passes[0]["wall_s"]
        fields["traced_wall_s"] = passes[1]["wall_s"]
    else:
        passes = workloads.repeat(
            seconds, lambda k: q.finish(q.run_pass(rules, inputs), keep_results=k == 0)
        )
    peak_mb = peak_rss_mb()  # before the checks, which enumerate paths
    golden = Path.cwd() / "tests" / "golden"
    attempted, failed, messages = q.verify(rules, inputs, passes, golden)
    n_calls = q.query_calls(inputs)
    times = sorted(t for p in passes for t in p["times"][:n_calls])
    report(
        passes=len(passes),
        pass_wall_s=[p["wall_s"] for p in passes],
        pass_algebra_s=[p["algebra_s"] for p in passes],
        pass_ref_s=[p["ref_s"] for p in passes],
        pass_ref_query_s=[p["ref_query_s"] for p in passes],
        calls_per_pass=n_calls,
        latency_samples=len(times),
        p50_s=statistics.median(times),
        p99_s=statistics.quantiles(times, n=100, method="inclusive")[98],
        attempted=attempted,
        failed=failed,
        messages=messages[:20],
        **fields,
        workload_peak_rss_mb=peak_mb,
    )


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], "--trace" in rest[1:])
        return 0
    if mode == "cli":
        split = rest.index("--")
        flags, program_argv = rest[:split], rest[split + 1:]
        return cli(program_argv, "--trace" in flags, "--tracemalloc" in flags, "--rescale" in flags)
    if mode == "query":
        query(int(rest[0]), float(rest[1]), "--trace" in rest[2:])
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
