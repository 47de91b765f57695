"""Benchmark-side tracing: spans around the public entry points of each layer.

The program under test is not instrumented.  Instead, while a traced pass
runs, :func:`installed` replaces a few class methods of the simulator's
layers with timing wrappers, and the workloads wrap instance methods and
their own calls with :meth:`Tracer.wrap`.  Every span records its call
count, total seconds and self seconds (total minus the time of the traced
spans nested inside it), plus an optional amount taken from its result.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from repro.arch.state import ArchState
from repro.synth.runtime import SynthesizedSimulator
from repro.synth.translator import BlockTranslator
from repro.timing.pipeline import InOrderPipelineModel
from repro.timing.timing_directed import TimingDirectedSimulator

TRANSLATE = "translator.translate"


class Tracer:
    """Per-span call counts, total and self seconds, and result amounts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.amount: dict[str, int] = defaultdict(int)
        #: open spans, innermost last: [name, seconds of traced children]
        self._stack: list[list] = []

    def wrap(self, name, fn, amount=None):
        """Return ``fn`` timed as span ``name``.

        ``name`` may be a callable taking the enclosing span's name (or
        None) and returning the span name.  ``amount(result)`` is added to
        the span's amount when the call returns normally.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = name(stack[-1][0] if stack else None) if callable(name) else name
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if amount is not None:
                self.amount[span] += amount(result)
            return result

        return traced

    def add(self, name: str, value: int) -> None:
        """Record a count read from the program after a run."""
        self.amount[name] += value


def _translate_span(parent: str | None) -> str:
    # ``_translate`` is the seam the runtime calls directly for the final
    # partial unit of a bounded run; inside ``translate`` it is a cached unit.
    return "translator.unit" if parent == TRANSLATE else "translator.partial"


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace the layers' class-level entry points for the ``with`` body."""
    patches = [
        (BlockTranslator, "translate", TRANSLATE, lambda fn: fn.__block_len__),
        (BlockTranslator, "_translate", _translate_span, None),
        (SynthesizedSimulator, "run", "runtime.run", lambda r: r.executed),
        (TimingDirectedSimulator, "step_instruction", "timing.detailed", None),
        (InOrderPipelineModel, "consume", "timing.consume", None),
        (ArchState, "commit", "arch.commit", None),
        (ArchState, "rollback", "arch.rollback", lambda rolled: rolled),
    ]
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _, _ in patches]
    try:
        for cls, attr, name, amount in patches:
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), amount))
        yield tracer
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)
