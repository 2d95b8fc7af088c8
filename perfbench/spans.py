"""In-memory spans around the benchmark's calls into the program.

A span records a name, its start and end (``time.perf_counter``), the span
that encloses it, the run it belongs to and the operation (request) that
caused it.  Calls too frequent to record one by one (the up and star maps
inside a commutator) are summed into a call group per enclosing span.
Nothing here touches the program; the benchmark wraps its own calls.
"""
from __future__ import annotations

import json
import resource
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Missing(LookupError):
    """A program function the benchmark stages no longer exists."""


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = -1
        self.spans: list[list] = []          # [name, parent, start, end, op]
        self.groups: dict[tuple, list] = {}  # (parent, name) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.rss: Counter = Counter()
        self.absent: set[str] = set()
        self.notes: list[str] = []
        self._stack = [-1]
        self._open = [{}]                    # per open span: name -> [calls, seconds]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def timed(self, name: str, fn):
        """Wrap fn so each call adds its duration to a call group under the
        enclosing span."""
        open_groups, clock = self._open, perf_counter

        def call(x):
            start = clock()
            out = fn(x)
            spent = clock() - start
            group = open_groups[-1].get(name)
            if group is None:
                group = open_groups[-1][name] = [0, 0.0]
            group[0] += 1
            group[1] += spent
            return out
        return call

    @contextmanager
    def rss_growth(self, metric: str):
        """Add the growth of the process's peak RSS over the block."""
        before = max_rss_mb()
        try:
            yield
        finally:
            self.rss[metric] += max_rss_mb() - before

    @contextmanager
    def optional(self, *metrics: str):
        """Run a stage whose program functions may be gone at some commit:
        a Missing lookup marks its metrics absent instead of failing."""
        try:
            yield
        except Missing as exc:
            self.absent.update(metrics)
            self.notes.append(f"absent {', '.join(metrics)}: {exc}")

    def all_groups(self):
        """Call groups of closed spans, and those made outside any span."""
        yield from self.groups.items()
        for name, group in self._open[0].items():
            yield (-1, name), group

    def self_seconds(self) -> Counter:
        """Per name, the time its spans and call groups spent outside any
        child span or call group."""
        out: Counter = Counter()
        covered: Counter = Counter()
        for name, parent, start, end, _ in self.spans:
            out[name] += end - start
            covered[parent] += end - start
        for (parent, name), (_, seconds) in self.all_groups():
            out[name] += seconds
            covered[parent] += seconds
        for sid, rec in enumerate(self.spans):
            out[rec[0]] -= covered[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, start, end, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "run": self.run_id, "op": op}) + "\n")
            for (parent, name), (calls, seconds) in self.all_groups():
                fh.write(json.dumps({"group": name, "parent": parent, "calls": calls,
                                     "seconds": seconds, "run": self.run_id}) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.rec = [name, tracer._stack[-1], 0.0, 0.0, tracer.op]

    def __enter__(self):
        tr = self.tracer
        tr._stack.append(len(tr.spans))
        tr._open.append({})
        tr.spans.append(self.rec)
        self.rec[2] = perf_counter()

    def __exit__(self, *exc):
        self.rec[3] = perf_counter()
        tr = self.tracer
        sid = tr._stack.pop()
        for name, group in tr._open.pop().items():
            tr.groups[(sid, name)] = group
