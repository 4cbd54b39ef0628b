"""Solver progress heartbeats: live telemetry out of a long CDCL solve.

The CDCL main loop is the one place in the pipeline that can disappear for
minutes; a heartbeat every :data:`HEARTBEAT_CONFLICTS` conflicts turns that
silence into a stream of :class:`repro.core.events.SolverProgress` events.

Two contextvars cooperate:

* the *sink* — installed by a run consumer (the session's event stream, the
  serve daemon's live feed) with :func:`progress_sink`; receives each
  heartbeat event.
* the *scope* — installed by the per-class settling code
  (:meth:`repro.exec.worker.DesignWorkContext.settle_class`) with
  :func:`progress_scope`; supplies the ``design``/``index``/``kind`` fields
  a :class:`~repro.core.events.ClassEvent` needs.

The solver itself fetches :func:`active_heartbeat` once per ``solve()``
call; with no sink installed (the default) that is one contextvar read and
the conflict loop carries zero extra work.  Heartbeats are *transient* by
design: they are never recorded in result records, reports, or the serve
journal — only live consumers see them, so report byte-identity across
jobs/tracing/serving is untouched.

Both contextvars restore with ``set()`` to the previous value (never
``Token.reset()``): the installing context managers can be closed from a
different context than the one that entered them (generator finalization).
"""

from __future__ import annotations

import contextvars
from typing import Callable, Optional, Tuple

from repro.core.events import SolverProgress

#: Emit one heartbeat every this many conflicts of one solver call.
#: Module-level so tests (and unusual deployments) can tune it; the value
#: trades SSE chatter against latency of the first sign of life.
HEARTBEAT_CONFLICTS = 1000

_sink: contextvars.ContextVar[Optional[Callable[[SolverProgress], None]]] = (
    contextvars.ContextVar("repro_progress_sink", default=None)
)
_scope: contextvars.ContextVar[Optional[Tuple[str, int, str]]] = contextvars.ContextVar(
    "repro_progress_scope", default=None
)


class _SetRestore:
    """Context manager setting a contextvar, restoring the prior value."""

    __slots__ = ("_var", "_value", "_previous")

    def __init__(self, var: contextvars.ContextVar, value) -> None:
        self._var = var
        self._value = value
        self._previous = None

    def __enter__(self):
        self._previous = self._var.get()
        self._var.set(self._value)
        return self

    def __exit__(self, *_exc_info) -> None:
        self._var.set(self._previous)


def progress_sink(callback: Callable[[SolverProgress], None]) -> _SetRestore:
    """Install ``callback`` as the heartbeat sink for the ``with`` block.

    The callback runs on the solving thread, mid-solve — it must be fast and
    must not raise (a raising sink aborts the solve, like any unsafe
    EventBus subscriber would abort a run).
    """
    return _SetRestore(_sink, callback)


def progress_scope(design: str, index: int, kind: str) -> _SetRestore:
    """Attach class identity to heartbeats emitted inside the block."""
    return _SetRestore(_scope, (design, index, kind))


def clear() -> None:
    """Drop inherited sink and scope (forked worker processes call this:
    a parent's sink callback is meaningless in the child — the channel it
    feeds does not cross the fork)."""
    _sink.set(None)
    _scope.set(None)


class _Heartbeat:
    """Bound (sink, scope, interval) handle the solver drives directly."""

    __slots__ = ("interval", "_callback", "_design", "_index", "_kind")

    def __init__(
        self,
        callback: Callable[[SolverProgress], None],
        interval: int,
        design: str,
        index: int,
        kind: str,
    ) -> None:
        self.interval = interval
        self._callback = callback
        self._design = design
        self._index = index
        self._kind = kind

    def emit(
        self,
        conflicts: int,
        restarts: int,
        learned_clauses: int,
        decision_level: int,
    ) -> None:
        self._callback(
            SolverProgress(
                design=self._design,
                index=self._index,
                kind=self._kind,
                conflicts=conflicts,
                restarts=restarts,
                learned_clauses=learned_clauses,
                decision_level=decision_level,
            )
        )


def active_heartbeat() -> Optional[_Heartbeat]:
    """The heartbeat handle for the calling context, or None.

    Fetched once at ``solve()`` entry.  Requires both a sink and a scope:
    a sink without class scope (e.g. solver use outside the detection
    flow) emits nothing rather than mislabeled events.
    """
    callback = _sink.get()
    if callback is None:
        return None
    scope = _scope.get()
    if scope is None:
        return None
    design, index, kind = scope
    return _Heartbeat(callback, HEARTBEAT_CONFLICTS, design, index, kind)
