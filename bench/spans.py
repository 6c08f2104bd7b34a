"""In-memory span recorder that wraps fbsim's public functions from outside.

Each wrapper replaces a module (or class) attribute that fbsim's own callers
look up at call time, so nothing in the package changes.  A wrapper times
the call, charges its duration to the enclosing span as child time and
keeps per-name totals; self time is duration minus child time.  Hot
functions (one call per packet) keep only the totals; the others also keep
one span each, written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_time", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.count = 0  # per-name work count fed by the ``count`` hook


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.request = None  # identifier shared by the spans of one item
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, keep_spans: bool = True, count=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded under ``name``.

        ``count(args, result)`` returns a number added to the name's work
        count (arrivals realized, bytes written, packets admitted).  A
        function the program no longer has is skipped; its metrics read 0."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_time += duration - frame[1]
                if keep_spans:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((name, span_id, parent, self.request, start, end))
            if count is not None:
                stat.count += count(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, span_id, parent, request, start, end in self.spans:
                fh.write(json.dumps({
                    "name": name, "id": span_id, "parent": parent, "request": request,
                    "start": start, "end": end,
                }) + "\n")


def _file_bytes(args, _result) -> int:
    return os.path.getsize(args[1])


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import fbsim.cli
    import fbsim.engine
    import fbsim.fluid
    import fbsim.metrics
    import fbsim.workloads

    engine = fbsim.engine
    tracer.wrap(fbsim.cli, "main", "cli.main")
    tracer.wrap(fbsim.workloads, "loads_scenario", "workloads.loads_scenario")
    tracer.wrap(fbsim.workloads, "transient_scenario", "workloads.transient_scenario")
    # engine.run looks build_sources up in its own module namespace
    tracer.wrap(engine, "build_sources", "workloads.build_sources",
                count=lambda _a, result: len(result))
    tracer.wrap(engine, "run", "engine.run")
    tracer.wrap(engine, "enqueue_arrival", "engine.enqueue_arrival", keep_spans=False,
                count=lambda _a, admitted: 1 if admitted else 0)
    tracer.wrap(engine, "service_port", "engine.service_port", keep_spans=False)
    tracer.wrap(engine, "controller_tick", "engine.controller_tick", keep_spans=False)
    tracer.wrap(engine.EventTrace, "queue_counts", "engine.EventTrace.queue_counts")
    for writer in ("write_trace_csv", "write_samples_csv", "write_run_summary"):
        tracer.wrap(engine, writer, "engine.export", count=_file_bytes)
    tracer.wrap(fbsim.metrics, "compute", "metrics.compute")
    tracer.wrap(fbsim.fluid, "first_threshold_crossing", "fluid.first_threshold_crossing")
    tracer.wrap(fbsim.fluid, "integrate_first_crossing", "fluid.integrate_first_crossing")
    tracer.wrap(fbsim.fluid, "integrate_transient", "fluid.integrate_transient")
    tracer.wrap(fbsim.fluid, "burst_absorption_curve", "fluid.burst_absorption_curve")
