"""Per-layer timing of one `run_pipeline` call.

`stridelink.pipeline` looks its collaborators up at call time: module
globals for the free functions, class attributes for the methods. The
traced run swaps each of those names for a timing wrapper and restores
them afterwards, so the program itself carries no hooks.

Wrapped spans may nest; a span's time is its own (self) time, with the
spans it encloses subtracted. Time between top-level spans is the
pipeline's self time, so the layer times and `pipeline.self_s` tile the
whole call. That self time includes the wrappers' own bookkeeping.
"""

from __future__ import annotations

import contextlib
import time

from stridelink import pipeline

# Layer metric -> (owner of the name, attribute) as `pipeline` looks it up.
WRAPPED = {
    "tracer.update_s": (pipeline.Tracker, "update"),
    "acc_features.step_s": (pipeline, "step_features"),
    "similarity.push_s": (pipeline.ExtremeStream, "push"),
    "similarity.advance_s": (pipeline.PairScorer, "advance"),
    "pairing.raw_s": (pipeline, "raw_pair"),
    "pairing.rsim_s": (pipeline, "update_rsim"),
    "pairing.refined_s": (pipeline, "refined_pair"),
}


class LayerTrace:
    """Spans and counts recorded while the wrappers are installed."""

    def __init__(self) -> None:
        self.busy = dict.fromkeys(WRAPPED, 0.0)
        self.calls = dict.fromkeys(WRAPPED, 0)
        self.gap = 0.0
        self.frame_starts: list[float] = []   # start of each Tracker.update
        self.raw_weights: list[dict] = []     # weights each raw_pair saw
        self.refined_counts: list[dict] = []  # pair counts each refined_pair saw
        self.samples = 0                      # accelerometer samples filtered
        self._stack: list[float] = []
        self._mark = 0.0
        self.t1 = 0.0
        self._recorders = {
            "tracer.update_s": self._frame,
            "acc_features.step_s": self._step,
            "pairing.raw_s": self._raw,
            "pairing.refined_s": self._refined,
        }

    def start(self) -> None:
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self.t1 = time.perf_counter()
        self.gap += self.t1 - self._mark

    def _wrap(self, layer: str, fn):
        busy, calls, stack, clock = self.busy, self.calls, self._stack, time.perf_counter
        record = self._recorders.get(layer)

        def timed(*args, **kwargs):
            start = clock()
            if not stack:
                self.gap += start - self._mark
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span = end - start
                busy[layer] += span - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += span
                else:
                    self._mark = end
                if record is not None:
                    record(start, args)
        return timed

    def _frame(self, start: float, args: tuple) -> None:
        self.frame_starts.append(start)

    def _step(self, start: float, args: tuple) -> None:
        self.samples += len(args[0].samples)

    def _raw(self, start: float, args: tuple) -> None:
        self.raw_weights.append(args[0].scores)

    def _refined(self, start: float, args: tuple) -> None:
        self.refined_counts.append(dict(args[0].counts))

    def silent_layers(self) -> list[str]:
        return [layer for layer, n in self.calls.items() if n == 0]


@contextlib.contextmanager
def traced():
    """Install the wrappers for the duration of the block."""
    trace = LayerTrace()
    saved = []
    for layer, (owner, name) in WRAPPED.items():
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        setattr(owner, name, trace._wrap(layer, original))
    try:
        yield trace
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
