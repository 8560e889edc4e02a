"""Span recorder for the traced benchmark run.

The recorder wraps public cosetlab functions at the names their callers look
up (every module global that is the original function object, or the class
attribute for methods), records one span per call while enabled, and turns
the spans into per-layer self times, call counts and tracemalloc peaks. No
file of the library is edited; `install` returns a function that restores
every original.

Spans live in a preallocated numpy record array so that keeping them does
not allocate Python objects inside the spans whose memory peaks are being
measured.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections.abc import Callable

import numpy as np

SPAN_DTYPE = np.dtype([("parent", np.int64), ("layer", np.int64),
                       ("start_ns", np.int64), ("end_ns", np.int64),
                       ("peak_bytes", np.int64)])


class Recorder:
    """Spans with parent ids, plus counters measured at the same boundaries."""

    def __init__(self, layers: list[str], capacity: int = 1 << 19):
        self.layers = list(layers)
        self.enabled = False
        self.spans = np.zeros(capacity, dtype=SPAN_DTYPE)
        self.count = 0
        self.counters: dict[str, float] = {}
        # open spans: [span id, base traced bytes, highest traced bytes seen]
        self._stack: list[list[int]] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def enter(self, layer: int) -> list[int]:
        if self.count == self.spans.shape[0]:
            self.spans = np.concatenate([self.spans, np.zeros_like(self.spans)])
        span_id = self.count
        self.count += 1
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], peak)
            parent = top[0]
        else:
            parent = -1
        tracemalloc.reset_peak()
        frame = [span_id, current, current]
        self._stack.append(frame)
        record = self.spans[span_id]
        record["parent"] = parent
        record["layer"] = layer
        record["start_ns"] = time.perf_counter_ns()
        return frame

    def exit(self, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        _, peak = tracemalloc.get_traced_memory()
        frame[2] = max(frame[2], peak)
        self._stack.pop()
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], frame[2])
        tracemalloc.reset_peak()
        record = self.spans[frame[0]]
        record["end_ns"] = end
        record["peak_bytes"] = frame[2] - frame[1]

    def layer_stats(self) -> dict[str, tuple[float, int, float]]:
        """(self seconds, calls, peak MiB above entry) per layer.

        A span's self time is its duration minus the durations of the spans
        whose parent it is.
        """
        spans = self.spans[:self.count]
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        has_parent = spans["parent"] >= 0
        child_ns = np.bincount(spans["parent"][has_parent],
                               weights=dur[has_parent], minlength=self.count)
        self_ns = dur - child_ns[:self.count]
        out = {}
        for idx, name in enumerate(self.layers):
            hit = spans["layer"] == idx
            peak = spans["peak_bytes"][hit].max() if hit.any() else 0
            out[name] = (float(self_ns[hit].sum()) / 1e9, int(hit.sum()),
                         float(peak) / 2**20)
        return out


def _wrap(recorder: Recorder, layer: int, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        finish = hook(recorder, args) if hook is not None else None
        frame = recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if finish is not None:
            finish(result)
        return result

    return traced


def install(recorder: Recorder, targets: dict, modules: list) -> Callable[[], None]:
    """Wrap each target and return a function that undoes every wrap.

    `targets` maps a layer name to (owner, attribute, hook or None). A hook
    is called as hook(recorder, args) before the call and returns None or a
    function of the result, called after it; hooks update the counters.
    For a module-level function every module in `modules` whose global of
    that name is the same object gets the wrapper, so calls through
    `from .x import f` are traced too. A class owner gets the wrapper on
    the class attribute.
    """
    undo = []
    for name, (owner, attr, hook) in targets.items():
        original = getattr(owner, attr)
        wrapper = _wrap(recorder, recorder.layers.index(name), original, hook)
        holders = [owner] if isinstance(owner, type) else [
            m for m in modules if getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, wrapper)
            undo.append((holder, attr, original))

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore
