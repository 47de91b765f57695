"""The profiling facade: spans + guest attribution behind one handle.

One :class:`Profiler` is shared by a run's components, exactly like the
:class:`~repro.obs.probe.Observability` facade it rides on
(``make_observability(profile=True)`` attaches one as ``obs.prof``).
Layers hand it to :func:`repro.prof.spans.bind_spans` once, at
construction time, which span-wraps their methods only when
``prof.enabled``; with the shared :data:`NULL_PROF` nothing is bound,
so the disabled path is free.
"""

from __future__ import annotations

from repro.prof.guest import NULL_GUEST, GuestProfiler
from repro.prof.spans import NULL_SPANS, SpanTracer


class Profiler:
    """Live span tracer + guest profiler for one run."""

    __slots__ = ("spans", "guest", "meta")

    enabled = True

    def __init__(self, max_events: int | None = None) -> None:
        self.spans = (
            SpanTracer() if max_events is None else SpanTracer(max_events=max_events)
        )
        self.guest = GuestProfiler()
        #: free-form run metadata stamped into exports (isa, buildset, ...)
        self.meta: dict = {}

    def clear(self) -> None:
        self.spans.clear()
        self.guest.clear()
        self.meta.clear()


class NullProfiler:
    """Disabled facade: null spans, null guest profiler."""

    __slots__ = ()

    enabled = False
    spans = NULL_SPANS
    guest = NULL_GUEST
    meta: dict = {}

    def clear(self) -> None:
        pass


#: the shared disabled instance every layer defaults to
NULL_PROF = NullProfiler()


def record_sim_profile(prof, sim) -> None:
    """Fold one simulator's synthesized-probe hit counts into ``prof``.

    Call once per simulator instance after its run (mirrors
    :func:`repro.obs.report.record_sim_stats`).  Only modules generated
    with ``SynthOptions(trace=True)`` populate ``sim._prof_hits``.
    """
    hits = getattr(sim, "_prof_hits", None)
    if hits:
        prof.guest.add_pc_hits(hits)
        hits.clear()
