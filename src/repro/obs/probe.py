"""The instrumentation facade threaded through every layer.

One :class:`Observability` instance is shared by a simulator, its OS
emulator and any timing organization wrapped around it, so a whole run
aggregates into one counter set and one event ring.  ``NULL_OBS`` is the
single shared disabled instance; layers accept ``obs=None`` and
substitute it, then branch **once** (at construction or synthesis time)
on ``obs.enabled`` to select their unobserved fast paths.

Probe points in the stack (see docs/observability.md for the catalog):

===========================  ==================================================
layer                        probes
===========================  ==================================================
synth/codegen (generated)    per-entrypoint invocation counts (``_obs_ep``),
                             DCE-eliminated statement counts (static metadata)
synth/translator             block translation time/length, per-block DCE,
                             code-cache hit/miss/evict/flush
synth/runtime                instrumented ``do_block`` path, cache-flush events
sysemu/syscalls              per-syscall counters + trap events
timing/*                     cache and predictor stats, mismatch events,
                             rollback depth histogram
===========================  ==================================================
"""

from __future__ import annotations

from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.events import NULL_EVENTS, EventRing
from repro.prof.profiler import NULL_PROF, Profiler


class Observability:
    """Live counters + event ring shared across one run's components.

    ``profiler`` optionally attaches a :class:`repro.prof.Profiler` as
    ``self.prof``; layers pass it to :func:`repro.prof.spans.bind_spans`
    at construction time, which span-wraps their methods only when
    ``obs.prof.enabled``, just as they branch once on ``obs.enabled``
    for counting.
    """

    __slots__ = ("counters", "events", "prof")

    enabled = True

    def __init__(self, ring_capacity: int = 4096, profiler=None) -> None:
        self.counters = Counters()
        self.events = EventRing(ring_capacity)
        self.prof = profiler if profiler is not None else NULL_PROF

    def clear(self) -> None:
        self.counters.clear()
        self.events.clear()
        self.prof.clear()


class _NullObservability:
    """Disabled facade: null counters, null events, ``enabled = False``."""

    __slots__ = ("counters", "events", "prof")

    enabled = False

    def __init__(self) -> None:
        self.counters = NULL_COUNTERS
        self.events = NULL_EVENTS
        self.prof = NULL_PROF

    def clear(self) -> None:
        pass


#: the shared disabled instance every layer defaults to
NULL_OBS = _NullObservability()


def make_observability(
    enabled: bool = True, ring_capacity: int = 4096, profile: bool = False
):
    """An :class:`Observability` when enabled, else the shared null.

    ``profile=True`` additionally attaches a live
    :class:`repro.prof.Profiler` (and implies ``enabled``): profiling
    rides on the same facade the counters do.
    """
    if profile:
        return Observability(ring_capacity, profiler=Profiler())
    return Observability(ring_capacity) if enabled else NULL_OBS
