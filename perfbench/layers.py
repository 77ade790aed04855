"""Per-layer attribution, measured from outside the program.

:class:`Recorder` wraps each layer's public entry point in place for
the length of a traced run — ``Session.batch``/``submit``,
``CGScheduler.run``, the ``repro.core.api.dgemm`` bindings the
scheduler and the apps call through, ``Engine.run`` of every engine,
``blocked_lu`` and ``im2col`` — and records each call's interval and
thread.  Phase spans (``stage_*``, ``strip_mult``, ``store_C``,
``serve.batch``) come from the ``SpanTracer`` the run passes through
the public ``tracer=`` argument.  Both use :func:`time.perf_counter`,
so the two kinds of interval share one clock.

A layer's self time is its duration minus the part of it that its
children cover.  Children run on the parent's thread, except under
``CGScheduler.run``, whose ``dgemm`` calls run on per-CG worker
threads when dispatch is parallel; there any thread counts.
"""

from __future__ import annotations

import bisect
import functools
import threading
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Callable

import repro.apps.blas3
import repro.apps.conv
import repro.apps.lu
import repro.multi.scheduler
from repro.api import LuRequest
from repro.core.engine.device import DeviceEngine
from repro.core.engine.vectorized import VectorizedEngine
from repro.core.session import Session
from repro.multi.scheduler import CGScheduler

#: the phase spans the program already records, reported by name.
SPAN_PHASES = ("stage_A", "stage_B", "stage_C", "strip_mult", "store_C")


@dataclass(frozen=True)
class Call:
    start: float
    end: float
    thread: int
    note: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _dgemm_note(args, kwargs, result, before) -> tuple:
    """(m, n, k, blocking, engine) of one ``dgemm`` call (no transposes
    on the traced paths)."""
    m, k = args[0].shape
    return (m, args[1].shape[1], k, kwargs.get("params"),
            kwargs.get("engine", "device"))


class Recorder:
    """Interval recorder over the layers' public entry points.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  Wrappers record only while
    :attr:`active` is set, so an untraced stretch of the same process
    pays one attribute test per call.
    """

    def __init__(self) -> None:
        self.calls: dict[str, list[Call]] = defaultdict(list)
        self.active = False
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, owner: Any, attr: str, name: str,
              note: Callable | None = None,
              pre: Callable | None = None) -> None:
        """Replace ``owner.attr``; ``pre(args, kwargs)`` runs before the
        timed call and ``note(args, kwargs, result, pre_value)`` after."""
        orig = getattr(owner, attr)
        calls = self.calls[name]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            start = perf_counter()
            result = orig(*args, **kwargs)
            end = perf_counter()
            calls.append(Call(
                start, end, threading.get_ident(),
                note(args, kwargs, result, before) if note else None,
            ))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def __enter__(self) -> "Recorder":
        self._wrap(Session, "batch", "session.batch")
        # the request, and the session's stats around it: what the
        # session books for the request
        self._wrap(Session, "submit", "session.submit",
                   lambda args, kw, result, before:
                   (args[1], before, args[0].stats()),
                   pre=lambda args, kw: args[0].stats())
        self._wrap(CGScheduler, "run", "scheduler.run",
                   lambda args, kw, result, before: result)
        # every binding of repro.core.api.dgemm on the traced paths;
        # the LU module's own binding is its trailing update alone.
        self._wrap(repro.multi.scheduler, "dgemm", "dgemm", _dgemm_note)
        self._wrap(repro.apps.blas3, "dgemm", "dgemm", _dgemm_note)
        self._wrap(repro.apps.lu, "dgemm", "lu.update", _dgemm_note)
        self._wrap(DeviceEngine, "run", "engine.run")
        self._wrap(VectorizedEngine, "run", "engine.run")
        self._wrap(repro.apps.lu, "blocked_lu", "lu")
        self._wrap(repro.apps.conv, "im2col", "conv.im2col")
        return self

    def __exit__(self, *exc_info) -> None:
        self.active = False
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        """Forget every recorded call (the wrappers keep their lists)."""
        for calls in self.calls.values():
            calls.clear()


def covered(parents: list[Call], children: list[Call], *,
            same_thread: bool = True) -> float:
    """Seconds of ``parents`` covered by the union of ``children``."""
    kids = sorted(children, key=lambda c: c.start)
    starts = [c.start for c in kids]
    total = 0.0
    for p in parents:
        lo = bisect.bisect_left(starts, p.start)
        hi = bisect.bisect_left(starts, p.end)
        edge = p.start
        for c in kids[lo:hi]:
            if same_thread and c.thread != p.thread:
                continue
            s, e = max(c.start, edge), min(c.end, p.end)
            if e > s:
                total += e - s
                edge = e
    return total


def self_seconds(rec: Recorder, parent: str, child: str, *,
                 same_thread: bool = True) -> float:
    parents = rec.calls[parent]
    return sum(p.seconds for p in parents) - covered(
        parents, rec.calls[child], same_thread=same_thread
    )


def span_seconds(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def unspanned_seconds(spans, name: str) -> float:
    """Time inside ``name`` spans covered by none of their child spans."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return sum(s.duration - children[s.index] for s in spans if s.name == name)


def layer_metrics(rec: Recorder, spans, *, units: int,
                  wall_seconds: float, session_stats) -> dict[str, float]:
    """Every per-layer figure of one traced stretch.

    ``spans`` are the tracer's spans of the stretch.  ``units`` are
    the workload's requests (batches for the ``gemm_*``
    workloads, submissions for ``serve_mixed``); times are ms per unit.
    ``wall_seconds`` is the wall time the shares are taken of.
    ``session_stats`` is the traced session's ``stats()`` delta.
    """
    per_unit = 1e3 / max(units, 1)
    out: dict[str, float] = {}

    out["session.self_ms"] = per_unit * self_seconds(
        rec, "session.batch", "scheduler.run")
    lu_submits = [c for c in rec.calls["session.submit"]
                  if isinstance(c.note[0], LuRequest)]
    out["session.submit_lu_ms"] = _median_ms(lu_submits)

    runs = rec.calls["scheduler.run"]
    results = [c.note for c in runs]
    flops = sum(r.flops for r in results)
    padded = sum(r.padded_flops for r in results)
    out["scheduler.self_ms"] = per_unit * self_seconds(
        rec, "scheduler.run", "dgemm", same_thread=False)
    out["scheduler.padding_overhead"] = padded / flops if flops else 0.0
    out["scheduler.modeled_makespan_ms"] = (
        1e3 * sum(r.plan.makespan_seconds for r in results) / len(results)
        if results else 0.0)
    out["scheduler.load_balance_eff"] = (
        sum(r.load_balance_efficiency for r in results) / len(results)
        if results else 0.0)

    # dgemm: the scheduler's and TRSM's calls plus LU's trailing updates
    dgemms = rec.calls["dgemm"] + rec.calls["lu.update"]
    engine = rec.calls["engine.run"]
    out["dgemm.calls"] = len(dgemms) / max(units, 1)
    out["dgemm.ms"] = per_unit * sum(c.seconds for c in dgemms)
    out["dgemm.self_ms"] = per_unit * (
        sum(c.seconds for c in dgemms) - covered(dgemms, engine))
    out["engine.run_ms"] = per_unit * sum(c.seconds for c in engine)
    hits = misses = 0
    for s in spans:
        if s.name == "dgemm":
            hits += s.counters.get("plan.cache.hits", 0)
            misses += s.counters.get("plan.cache.misses", 0)
    lookups = hits + misses
    out["engine.plan_cache_hit_frac"] = hits / lookups if lookups else 0.0
    out["dma.bytes_per_flop"] = (
        session_stats.traffic.dma_bytes / session_stats.flops
        if session_stats.flops else 0.0)

    wall = max(wall_seconds, 1e-12)
    for phase in SPAN_PHASES:
        seconds = span_seconds(spans, phase)
        out[f"span.{phase}_ms"] = per_unit * seconds
        out[f"span.{phase}_share"] = seconds / wall
    # inside dgemm spans but under no phase span: argument handling,
    # staging-scope entry/exit, the engine outside its strip loop.
    out["unattributed_ms"] = per_unit * unspanned_seconds(spans, "dgemm")

    lus = rec.calls["lu"]
    updates = rec.calls["lu.update"]
    lu_seconds = sum(c.seconds for c in lus)
    update_seconds = covered(lus, rec.calls["dgemm"] + updates)
    out["lu.ms"] = _median_ms(lus)
    out["lu.update_ms"] = 1e3 * update_seconds / len(lus) if lus else 0.0
    out["lu.panel_ms"] = (
        1e3 * (lu_seconds - update_seconds) / len(lus) if lus else 0.0)
    out["lu.device_updates"] = (
        sum(1 for c in updates if str(c.note[4]).lower() == "device")
        / len(lus) if lus else 0.0)
    useful = sum(2 * m * n * k for m, n, k, _, _ in (c.note for c in updates))
    padded_lu = sum(
        2 * pm * pn * pk
        for pm, pn, pk in (p.pad_shape(m, n, k)
                           for m, n, k, p, _ in (c.note for c in updates))
    )
    out["lu.padding_overhead"] = padded_lu / useful if useful else 0.0
    # what Session.stats() books for the same factorizations
    booked = booked_useful = 0
    for _, before, after in (c.note for c in lu_submits):
        booked += after.padded_flops - before.padded_flops
        booked_useful += after.flops - before.flops
    out["lu.booked_padding_overhead"] = (
        booked / booked_useful if booked_useful else 0.0)
    out["conv.im2col_ms"] = _median_ms(rec.calls["conv.im2col"])
    return out


def _median_ms(calls: list[Call]) -> float:
    return 1e3 * median(c.seconds for c in calls) if calls else 0.0
