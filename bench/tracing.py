"""Span tracing around rdspectral's public functions, from outside the package.

``Tracer.install`` rebinds the module attributes the package itself calls
through (``grid.forward``, ``steppers.linear_symbol``, ``adi.adi_step``,
...) to timing wrappers, so spans are recorded at each layer boundary
without a change under ``src/``.  Bytes read are observed, not inferred:
``reading`` takes the process's ``rchar`` count from ``/proc/self/io``
(every byte a read system call returned) before and after its span.  Each span keeps its name, start, end,
parent span and the run id of the operation it belongs to.  Spans stay
in memory and are written out once, at the end.  ``NullTracer`` is what
an untraced run uses: it patches nothing, so the program runs as shipped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter, defaultdict
from pathlib import Path

import rdspectral.adi as adi
import rdspectral.grid as grid
import rdspectral.runio as runio
import rdspectral.steppers as steppers

# every metric a traced run reports, in output order, with its unit
LAYER_METRICS = (
    ("grid.forward_s", "s"), ("grid.inverse_s", "s"),
    ("grid.transforms", "count"), ("grid.transform_mb", "MB"),
    ("models.reaction_s", "s"), ("models.reaction_evals", "count"),
    ("steppers.tables_s", "s"), ("steppers.tables_built", "count"),
    ("steppers.symbols_built", "count"), ("steppers.integrate_self_s", "s"),
    ("steppers.steps_attempted", "count"), ("steppers.steps_accepted", "count"),
    ("steppers.accept_ratio", "ratio"),
    ("adi.setup_s", "s"), ("adi.step_s", "s"), ("adi.steps", "count"),
    ("runio.write_s", "s"), ("runio.finish_s", "s"), ("runio.read_s", "s"),
    ("runio.snapshots_written", "count"), ("runio.mb_written", "MB"),
    ("runio.mb_read", "MB"),
    ("postprocess.s", "s"),
)

# span name -> the per-layer time metric that sums its durations
_SPAN_METRIC = {
    "grid.forward": "grid.forward_s",
    "grid.inverse": "grid.inverse_s",
    "models.reaction": "models.reaction_s",
    "steppers.tables": "steppers.tables_s",
    "adi.setup": "adi.setup_s",
    "adi.step": "adi.step_s",
    "runio.write": "runio.write_s",
    "runio.finish": "runio.finish_s",
    "runio.read": "runio.read_s",
    "postprocess": "postprocess.s",
}


def _bytes_read() -> int:
    """Bytes this process has received from read system calls (Linux)."""
    with open("/proc/self/io", "rb") as f:
        for line in f:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def reading(self, name: str, counter: str):
        return contextlib.nullcontext()

    def model(self, spec):
        return spec

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def next_run(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        _bytes_read()   # fail before any work where the count cannot be observed
        self.origin = time.perf_counter()
        self.spans: list = []      # (name, start, end, parent index or -1, run id)
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._restore: list = []

    def next_run(self) -> None:
        """Start a new operation: later spans carry the next run id."""
        self.run += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _call(self, name: str, fn, args, kwargs):
        # ``span`` without a generator per call: this runs once per FFT
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    @contextlib.contextmanager
    def reading(self, name: str, counter: str):
        """A span that also adds the bytes the process read during it to ``counter``."""
        before = _bytes_read()
        with self.span(name):
            yield
        self.counts[counter] += _bytes_read() - before

    def wrap(self, name: str, fn, counter: str | None = None):
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            return self._call(name, fn, args, kwargs)
        return traced

    def model(self, spec):
        """The model with its reaction timed and counted (models layer)."""
        rates = spec.rates
        return dataclasses.replace(
            spec, rates=self.wrap("models.reaction", rates, "models.reaction_evals"))

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _transform(self, name: str, fn):
        call = self._call
        counts = self.counts

        def traced(grid_spec, field):
            out = call(name, fn, (grid_spec, field), {})
            counts["grid.transforms"] += 1
            counts["grid.transform_bytes"] += getattr(field, "nbytes", 0) + out.nbytes
            return out
        return traced

    def install(self) -> None:
        self._patch(grid, "forward", self._transform("grid.forward", grid.forward))
        self._patch(grid, "inverse_real", self._transform("grid.inverse", grid.inverse_real))
        self._patch(steppers, "linear_symbol", self.wrap(
            "steppers.symbols", steppers.linear_symbol, "steppers.symbols_built"))
        # LinearSymbol.tables calls the builder only on a cache miss
        self._patch(steppers, "_build_tables", self.wrap(
            "steppers.tables", steppers._build_tables, "steppers.tables_built"))
        self._patch(adi, "build_diff_matrix", self.wrap("adi.setup", adi.build_diff_matrix))
        self._patch(adi.DiffMatrix, "factors", self.wrap("adi.setup", adi.DiffMatrix.factors))
        self._patch(adi, "adi_step", self.wrap("adi.step", adi.adi_step, "adi.steps"))
        self._patch(runio.RunWriter, "__call__", self.wrap(
            "runio.write", runio.RunWriter.__call__, "runio.snapshots_written"))
        self._patch(runio.RunWriter, "finish", self.wrap("runio.finish", runio.RunWriter.finish))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of rounds traced."""
        totals: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            metric = _SPAN_METRIC.get(name)
            if metric is not None:
                totals[metric] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name == "steppers.integrate":
                totals["steppers.integrate_self_s"] += (end - start) - child_time[index]
        c = self.counts
        for key in ("grid.transforms", "models.reaction_evals", "steppers.tables_built",
                    "steppers.symbols_built", "steppers.steps_attempted",
                    "steppers.steps_accepted", "adi.steps", "runio.snapshots_written"):
            totals[key] = c[key]
        totals["grid.transform_mb"] = c["grid.transform_bytes"] / 1e6
        totals["runio.mb_written"] = c["runio.bytes_written"] / 1e6
        totals["runio.mb_read"] = c["runio.bytes_read"] / 1e6
        out = {name: totals[name] / rounds for name, _ in LAYER_METRICS}
        attempted = c["steppers.steps_attempted"]
        out["steppers.accept_ratio"] = c["steppers.steps_accepted"] / attempted if attempted else 1.0
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id,name,start_s,end_s,parent,run\n")
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                f.write(f"{index},{name},{start - self.origin:.9f},"
                        f"{end - self.origin:.9f},{parent},{run}\n")
