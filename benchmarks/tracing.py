"""What one benchmark pass records: correctness checks always, and spans and
counters around the calls into ``herbst`` when the run is traced.

Spans are held in memory and written out once, when the run ends.  Only the
benchmark's own call sites are wrapped; nothing inside ``herbst`` is traced.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# The modules of herbst, which the benchmark treats as its layers.
LAYERS = ("specfun", "quad", "kernel", "fourierb", "spectral", "threshold", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    pass_id: int


class Tracer:
    """Spans and counters of every traced pass of one run."""

    def __init__(self, memory_spans: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.peaks: dict[int, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._memory_spans = frozenset(memory_spans)

    def open(self, pass_id: int, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, pass_id)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, pass_id: int, name: str, fn, args, kwargs):
        span = self.open(pass_id, name)
        counters = self.counters[pass_id]
        counters[f"{name}.calls"] += 1
        memory = name in self._memory_spans
        if memory:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        except Exception:
            counters[f"{name}.fail"] += 1
            raise
        finally:
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.note_max(pass_id, f"{name}.peak_mb", peak)
            self.close(span)

    def note_max(self, pass_id: int, name: str, value: float) -> None:
        peaks = self.peaks[pass_id]
        peaks[name] = max(peaks.get(name, value), value)

    def busy_seconds(self, pass_id: int) -> dict[str, float]:
        """Seconds per span name, summed over one pass."""
        out: dict[str, float] = defaultdict(float)
        for span in self._spans_of(pass_id):
            out[span.name] += span.end - span.start
        return dict(out)

    def seconds_by_layer(self, pass_id: int) -> dict[str, float]:
        """Busy seconds of each layer's spans, summed over one pass.

        No span of a layer has a child, since nothing inside herbst is
        traced, so this is also the layer's self time.
        """
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.busy_seconds(pass_id).items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def _spans_of(self, pass_id: int):
        return (s for s in self.spans if s.pass_id == pass_id)


class Pass:
    """Context handed to a workload for one pass.

    ``call`` runs a herbst function (inside a span when traced), ``check``
    counts one operation and whether it met its correctness check, and
    ``step`` runs a block whose exception counts as one failed operation
    instead of ending the pass.
    """

    def __init__(self, pass_id: int, tracer: Tracer | None = None):
        self.pass_id = pass_id
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, float] = {}

    def call(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(self.pass_id, name, fn, args, kwargs)

    def count(self, name: str, amount: int) -> None:
        if self.tracer is not None:
            self.tracer.counters[self.pass_id][name] += amount

    def note_max(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.note_max(self.pass_id, name, value)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def step(self, name: str, label: str = "") -> "_Step":
        return _Step(self, name, label)


class _Step:
    """A benchmark-level span (``bench.<name>``) that parents the calls in it."""

    def __init__(self, ctx: Pass, name: str, label: str):
        self._ctx = ctx
        self._name = name
        self._label = label
        self._span: Span | None = None

    def __enter__(self) -> Pass:
        if self._ctx.tracer is not None:
            self._span = self._ctx.tracer.open(self._ctx.pass_id, f"bench.{self._name}")
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            self._ctx.tracer.close(self._span)
        if exc_type is None or not issubclass(exc_type, Exception):
            return False
        where = f"[{self._label}]" if self._label else ""
        self._ctx.check(f"{self._name}{where}.raised", False, f"{exc_type.__name__}: {exc}")
        return True
