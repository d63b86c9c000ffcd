"""The tracer: span collection wired into the simulation kernel.

Installation puts the tracer on :attr:`Simulator.tracer`; every
instrumentation point on the datapath guards with one ``is not None``
check, so an untraced run executes the exact pre-tracing event sequence
(the hooks add no simulation events, ever — spans only *read* the
clock).

Attribution across interleaved verbs works through the verb body
itself: :meth:`Tracer.trace_verb` wraps a verb's generator so that each
of its steps runs with the verb's :class:`~repro.trace.span.VerbTrace`
as the current context, and the context it found is restored whenever
the verb yields.  A verb therefore keeps its span tree whether it runs
as a process of its own or inside the process that drives it, and
spans emitted anywhere in its call chain — including the DMA
transactions it runs inline — land in the right tree even with many
verbs in flight.  Each :class:`~repro.sim.process.Process` carries the
context it was spawned under, restored by the kernel on every resume.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.trace.span import Span, VerbTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import Node, SimCluster
    from repro.sim.engine import Simulator
    from repro.sim.process import Process
    from repro.telemetry import Telemetry


class TraceError(Exception):
    """Tracer misuse: double install, emission with no tracer attached."""


def classify_path(cluster: "SimCluster", requester: "Node",
                  responder: "Node") -> str:
    """The Fig 2 path id a (requester, responder) pair executes on.

    Returns one of the :class:`~repro.core.paths.CommPath` values
    (``rnic-1`` / ``snic-1`` / ``snic-2`` / ``snic-3-h2s`` /
    ``snic-3-s2h``) or ``"network"`` for shapes the paper does not
    number (server-to-client replies, cross-server pairs).
    """
    if requester.same_server_as(responder):
        return "snic-3-h2s" if requester.kind == "host" else "snic-3-s2h"
    if requester.kind == "client" and responder.on_server:
        if cluster.server_of(responder).snic is None:
            return "rnic-1"
        return "snic-1" if responder.kind == "host" else "snic-2"
    return "network"


class Tracer:
    """Records a nanosecond span tree per verb executed on a cluster."""

    def __init__(self, telemetry: Optional["Telemetry"] = None):
        self.traces: List[VerbTrace] = []
        self.telemetry = telemetry
        self._sim: Optional["Simulator"] = None
        self._cluster: Optional["SimCluster"] = None
        # The verb context of the running step (None while untraced
        # code runs).
        self._current: Optional[VerbTrace] = None

    # -- installation ------------------------------------------------------------

    def install(self, cluster: "SimCluster") -> "Tracer":
        """Attach to a cluster's simulator; returns self."""
        if cluster.sim.tracer is not None:
            raise TraceError("a tracer is already installed on this simulator")
        self._sim = cluster.sim
        self._cluster = cluster
        cluster.sim.tracer = self
        return self

    def uninstall(self) -> None:
        """Detach; subsequent verbs run untraced."""
        if self._sim is not None and self._sim.tracer is self:
            self._sim.tracer = None
        self._current = None

    # -- kernel hooks (hot path; called only when installed) -----------------------

    def on_spawn(self, process: "Process") -> None:
        """Bind the new process to the active verb context."""
        process._trace_ctx = self._current

    def on_resume(self, process: "Process") -> None:
        """Restore the resuming process's verb context."""
        self._current = process._trace_ctx

    # -- span emission -------------------------------------------------------------

    def begin(self, name: str, category: str, **attrs: Any) -> Optional[Span]:
        """Open a child span under the innermost open span.

        Returns None (and records nothing) outside any traced verb, so
        instrumentation points may call it unconditionally once they
        hold a non-None tracer.
        """
        context = self._current
        if context is None:
            return None
        span = Span(name, category, self._sim.now, attrs=attrs or None)
        context.stack[-1].children.append(span)
        context.stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close a span opened by :meth:`begin` (tolerates None/closed)."""
        if span is None or span.end is not None:
            return
        span.end = self._sim.now
        context = self._current
        if context is None or span not in context.stack:
            return
        # Pop through any children left open (early exits on LOST legs).
        while context.stack:
            popped = context.stack.pop()
            if popped.end is None:
                popped.end = span.end
            if popped is span:
                break

    def point(self, name: str, category: str, start: float, end: float,
              **attrs: Any) -> Optional[Span]:
        """Record a complete span whose end time is already known.

        Used where delivery time is computable at submission (link and
        switch traversals), so no extra event is needed to observe it.
        """
        context = self._current
        if context is None:
            return None
        span = Span(name, category, start, end, attrs=attrs or None)
        context.stack[-1].children.append(span)
        return span

    def instant(self, name: str, category: str, **attrs: Any) -> Optional[Span]:
        """A zero-duration annotation at the current instant."""
        now = self._sim.now
        return self.point(name, category, now, now, **attrs)

    def annotate(self, name: str, category: str = "control",
                 **attrs: Any) -> VerbTrace:
        """Record a standalone control-plane event as its own trace tree.

        Unlike :meth:`begin`/:meth:`instant`, this works *outside* any
        traced verb: scheduler decisions, migrations and failovers
        happen between verbs, from the control loop's own process.  The
        event lands on the same timeline as the datapath spans (one
        zero-duration root at the current simulated instant) so exports
        interleave decisions with the verbs they affected.
        """
        now = self._sim.now if self._sim is not None else 0.0
        meta: Dict[str, Any] = {
            "verb": name,
            "payload": 0,
            "path": attrs.get("to_path", ""),
            "device": "scheduler",
            "requester": attrs.get("tenant", ""),
            "responder": attrs.get("responder", ""),
        }
        root = Span(name, category, now, now, attrs=dict(attrs) or None)
        trace = VerbTrace(root, meta)
        self.traces.append(trace)
        return trace

    # -- generator wrapping ----------------------------------------------------------

    def wrap(self, name: str, category: str, gen: Generator,
             **attrs: Any) -> Generator:
        """Run ``gen`` under a span that closes when it finishes.

        For sub-generators (DMA transactions, which a verb drives with
        ``yield from``): the span opens now and closes when ``gen``
        returns — covering queue time and all hops.
        """
        span = self.begin(name, category, **attrs)

        def runner():
            try:
                return (yield from gen)
            finally:
                self.end(span)

        return runner()

    def trace_verb(self, gen: Generator, *, requester: "Node",
                   responder: "Node", verb: str, payload: int,
                   **attrs: Any) -> Generator:
        """Wrap a verb-execution generator in a fresh root span.

        Every step of the returned generator runs with the verb's
        context current and restores the caller's at each yield, so it
        may run as a process or be driven with ``yield from``.
        """
        cluster = self._cluster
        meta: Dict[str, Any] = {
            "verb": verb,
            "payload": payload,
            "path": classify_path(cluster, requester, responder),
            "device": "rnic" if cluster.nic_mode == "rnic" else "snic",
            "requester": requester.name,
            "responder": responder.name,
        }
        meta.update(attrs)
        root = Span(f"{verb}:{meta['path']}", "verb", self._sim.now,
                    attrs=dict(meta))
        context = VerbTrace(root, meta)
        if self.telemetry is not None:
            context.counters = None
            start_snapshot = self.telemetry.snapshot()
        else:
            start_snapshot = None

        def runner():
            send, throw = gen.send, gen.throw
            value = error = None
            try:
                while True:
                    outer = self._current
                    self._current = context
                    try:
                        if error is None:
                            target = send(value)
                        else:
                            target = throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self._current = outer
                    try:
                        value, error = (yield target), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        value, error = None, exc
            finally:
                self._finish(context, start_snapshot)

        return runner()

    # -- completion ----------------------------------------------------------------

    def _finish(self, context: VerbTrace, start_snapshot) -> None:
        now = self._sim.now
        for span in reversed(context.stack):
            if span.end is None:
                span.end = now
        del context.stack[1:]
        if start_snapshot is not None:
            delta = self.telemetry.snapshot() - start_snapshot
            context.counters = {key: value
                                for key, value in delta.deltas.items()
                                if value != 0}
        self.traces.append(context)

    # -- convenience -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.traces)

    def last(self) -> VerbTrace:
        if not self.traces:
            raise TraceError("no completed traces recorded")
        return self.traces[-1]

    def clear(self) -> None:
        self.traces.clear()
