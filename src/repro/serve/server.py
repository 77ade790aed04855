"""The asyncio serving tier: admit, bin, coalesce, dispatch, respond.

:class:`ReproServer` fronts one :class:`~repro.core.session.Session`
with an async request surface.  The pipeline per request:

1. **admit** — a closed server or a full in-flight window turns the
   request away with a *structured* rejection (``RequestError`` with
   ``retryable=True`` for backpressure), never an exception;
2. **cache** — the operand cache is probed by content hash; a hit
   responds immediately with a copied value and zero traffic;
3. **bin** — the request joins the open batch for its
   ``(shape_bin, options)`` key; the first arrival arms the coalescing
   window timer, a full bin dispatches early;
4. **dispatch** — filled bins flow through one FIFO to a dispatcher
   task that executes each on a single-worker thread pool (the
   scheduler below is one physical chip — a second in-flight batch
   would fight it for the same core groups), as
   ``Session.batch(parallel=True)``; LU requests ride the same FIFO as
   singleton groups through ``Session.submit``;
5. **respond** — every rider of the batch gets its own
   :class:`~repro.api.RequestResult` with per-request traffic, fault
   reports, and queue/service/total timing; successes are written back
   to the cache and the SLO ledger.

Telemetry honours the tracer's reconciliation contract: the executor
thread opens one ``serve.batch`` span per dispatch and, still inside
it, emits one ``serve.request`` span per rider whose counter deltas
are exactly that request's attributed traffic — so
``tracer.counter_totals("serve.request")`` sums bit-exactly to
``Session.stats().traffic`` when all work flows through the server.

Threading discipline: bins, timers, the cache, the SLO ledger and all
counters are touched only on the event-loop thread; the executor
thread touches only the session and the tracer; the metrics sampler
thread only *reads* counters (plain int/float loads under the GIL).

The continuous telemetry pipeline rides on top: :meth:`start` arms a
:class:`~repro.obs.series.MetricsSampler` over
:meth:`metrics_registry` (every counter becomes a live time series),
attaches the default :class:`~repro.obs.alerts.AlertEngine` rules to
it, and — when ``config.metrics_port`` is set — serves the
:meth:`openmetrics` exposition over a minimal asyncio HTTP endpoint
(``GET /metrics``, plus ``/healthz``).  Lifecycle transitions and
alert edges land in :attr:`events`, a structured
:class:`~repro.obs.events.EventLog`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Callable

from repro.api import (
    ConvRequest,
    GemmRequest,
    LuRequest,
    Request,
    RequestError,
    RequestResult,
    SubmitOptions,
    as_request,
    format_bin,
)
from repro.core.context import ContextStats
from repro.core.engine import engine_name
from repro.core.session import Session
from repro.errors import ConfigError, UnsupportedShapeError
from repro.obs.alerts import AlertEngine, default_serve_rules
from repro.obs.events import EventLog
from repro.obs.promexp import render_openmetrics
from repro.obs.registry import MetricsRegistry, flatten
from repro.obs.series import MetricsSampler
from repro.obs.tracer import SpanTracer
from repro.serve.cache import OperandCache
from repro.serve.config import ServeConfig
from repro.serve.slo import BinReport, SLOTracker

__all__ = ["ReproServer"]

#: a coalescing key: the request's shape bin plus its effective options.
BinKey = tuple[tuple[Any, ...], SubmitOptions]


class _Pending:
    """One admitted request riding toward a dispatched batch."""

    __slots__ = (
        "request",
        "options",
        "bin_label",
        "cache_key",
        "future",
        "admitted_at",
    )

    def __init__(
        self,
        request: Request,
        options: SubmitOptions,
        bin_label: str,
        cache_key: tuple[str, SubmitOptions] | None,
        future: "asyncio.Future[RequestResult]",
        admitted_at: float,
    ) -> None:
        self.request = request
        self.options = options
        self.bin_label = bin_label
        self.cache_key = cache_key
        self.future = future
        self.admitted_at = admitted_at


def _delta_meter(traffic: ContextStats) -> Callable[[], dict]:
    """A span meter whose before/after delta equals ``traffic``.

    The tracer samples a meter at span entry and exit and stores the
    difference; returning ``{}`` first and the flattened traffic
    second makes the span's counters exactly the request's attributed
    traffic (union-of-keys semantics treat the missing first sample
    as zero).
    """
    state = {"entered": False}

    def meter() -> dict:
        if not state["entered"]:
            state["entered"] = True
            return {}
        return flatten("ctx", traffic.as_dict())

    return meter


def _request_flops(request: Request, shape: tuple[int, int, int]) -> float:
    """Nominal flop count of one request from its validated shape.

    GEMM and lowered conv do ``2*m*n*k``; blocked LU of an ``n x n``
    matrix does the classic ``2/3 * n^3`` (``shape`` is ``(n, n,
    panel)`` there, so the panel width is ignored).
    """
    if isinstance(request, LuRequest):
        n = float(shape[0])
        return (2.0 / 3.0) * n * n * n
    m, n, k = shape
    return 2.0 * float(m) * float(n) * float(k)


class ReproServer:
    """Async front end over one session; see the module docstring.

    Use as an async context manager::

        async with ReproServer(config=ServeConfig()) as server:
            result = await server.submit(GemmRequest(a, b))

    Pass ``session=`` to serve an existing session (the caller keeps
    ownership and closes it); otherwise the server builds its own
    traced session and closes it on exit.
    """

    def __init__(
        self,
        session: Session | None = None,
        config: ServeConfig | None = None,
        **session_kwargs: Any,
    ) -> None:
        if session is not None and session_kwargs:
            raise ConfigError(
                "pass session= or Session keyword arguments, not both"
            )
        self.config = config or ServeConfig()
        self._owns_session = session is None
        if session is None:
            session_kwargs.setdefault("tracer", SpanTracer())
            session = Session(**session_kwargs)
        self.session = session
        self.cache = OperandCache(self.config.cache_entries)
        self.slo = SLOTracker(exact_reservoir=self.config.slo_exact_reservoir)
        self.events = EventLog(level=self.config.event_level)
        self.sampler: MetricsSampler | None = None
        self.alerts: AlertEngine | None = None
        self.metrics_address: tuple[str, int] | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._registry: MetricsRegistry | None = None
        self._bins: dict[BinKey, list[_Pending]] = {}
        self._timers: dict[BinKey, asyncio.TimerHandle] = {}
        self._queue: "asyncio.Queue[list[_Pending] | None]" = asyncio.Queue()
        self._dispatcher: asyncio.Task[None] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        self._closed = False
        self._inflight = 0
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._cache_hits = 0
        self._batches = 0
        self._batched_requests = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ReproServer":
        """Arm the dispatcher; idempotent until :meth:`stop`."""
        if self._closed:
            raise ConfigError("this ReproServer is closed")
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        # one worker on purpose: the scheduler multiplexes one chip's
        # core groups, so batches must execute one at a time.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        self._started = True
        registry = self.metrics_registry()
        if self.config.sampler_period_seconds is not None:
            self.sampler = MetricsSampler(
                registry,
                period_seconds=self.config.sampler_period_seconds,
                capacity=self.config.sampler_capacity,
            )
            if self.config.alerts:
                self.alerts = AlertEngine(
                    default_serve_rules(), events=self.events
                ).attach(self.sampler)
            self.sampler.start()
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            sock = self._metrics_server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.metrics_address = (str(host), int(port))
        self.events.info(
            "server.started",
            sampler_period_seconds=self.config.sampler_period_seconds,
            metrics_address=self.metrics_address,
            alerts=self.alerts is not None,
        )
        return self

    async def stop(self) -> None:
        """Drain every admitted request, then tear down.

        New submissions are refused the moment ``stop`` begins, but
        everything already admitted is dispatched and answered — a
        clean shutdown drops zero responses.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            if self._owns_session:
                self.session.close()
            return
        for key in list(self._bins):
            self._flush_bin(key)
        await self._queue.put(None)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self.sampler is not None:
            # stop() takes one final sample, so the last window covers
            # every request answered above.
            self.sampler.stop()
        self.events.info(
            "server.stopped",
            admitted=self._admitted,
            completed=self._completed,
            failed=self._failed,
        )
        if self._owns_session:
            self.session.close()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> bool:
        await self.stop()
        return False

    # -- the request path ----------------------------------------------

    async def submit(
        self,
        request: Request,
        *,
        options: SubmitOptions | None = None,
    ) -> RequestResult:
        """Admit one request and await its structured response.

        Never raises for request-level failure — malformed shapes,
        backpressure, retry exhaustion and shutdown all come back as a
        :class:`~repro.api.RequestResult` carrying a typed
        :class:`~repro.api.RequestError`.  (Submitting on a server
        that was never started still raises: that is caller misuse.)
        """
        if not self._started:
            raise ConfigError(
                "ReproServer is not running — use 'async with' or start()"
            )
        start = time.monotonic()
        opts = options or self.config.options
        if self._closed:
            return self._refused(
                "ShutdownError", "server is shutting down", retryable=False,
                start=start,
            )
        try:
            request = as_request(request)
            shape = request.validate()
            if opts.engine is not None:
                engine_name(opts.engine)
            bin_label = format_bin(request.shape_bin(self.session.params))
            flops = _request_flops(request, shape)
        except (ConfigError, UnsupportedShapeError) as exc:
            result = RequestResult(
                error=RequestError(kind=type(exc).__name__, message=str(exc)),
                traffic=ContextStats.zero(),
                total_seconds=time.monotonic() - start,
            )
            self.slo.record(
                "invalid", total_seconds=result.total_seconds, error=True
            )
            self._failed += 1
            return result

        cache_key: tuple[str, SubmitOptions] | None = None
        if self.config.cache_entries:
            cache_key = (request.content_hash(), opts)
            hit, value = self.cache.get(cache_key)
            if hit:
                self._cache_hits += 1
                self._completed += 1
                total = time.monotonic() - start
                self.slo.record(
                    bin_label, total_seconds=total, cache_hit=True
                )
                return RequestResult(
                    value=value,
                    traffic=ContextStats.zero(),
                    bin=bin_label,
                    cache_hit=True,
                    total_seconds=total,
                )

        if self._inflight >= self.config.max_pending:
            return self._refused(
                "RejectedError",
                f"admission window is full ({self.config.max_pending} "
                "requests in flight) — retry later",
                retryable=True,
                start=start,
            )

        assert self._loop is not None
        pending = _Pending(
            request=request,
            options=opts,
            bin_label=bin_label,
            cache_key=cache_key,
            future=self._loop.create_future(),
            admitted_at=start,
        )
        self._inflight += 1
        self._admitted += 1
        self._enqueue(pending)
        try:
            result = await pending.future
        finally:
            self._inflight -= 1
        result = replace(result, total_seconds=time.monotonic() - start)
        if result.ok:
            self._completed += 1
            if cache_key is not None:
                self.cache.put(cache_key, result.value)
        else:
            self._failed += 1
        gflops: float | None = None
        if result.ok and result.service_seconds > 0:
            gflops = flops / result.service_seconds / 1e9
        dma_bytes: float | None = None
        if result.traffic is not None and result.traffic.dma_bytes > 0:
            dma_bytes = float(result.traffic.dma_bytes)
        self.slo.record(
            result.bin or bin_label,
            total_seconds=result.total_seconds,
            queue_seconds=result.queue_seconds,
            service_seconds=result.service_seconds,
            error=not result.ok,
            gflops=gflops,
            dma_bytes=dma_bytes,
        )
        return result

    def _refused(
        self, kind: str, message: str, *, retryable: bool, start: float
    ) -> RequestResult:
        self._rejected += 1
        return RequestResult(
            error=RequestError(kind=kind, message=message, retryable=retryable),
            traffic=ContextStats.zero(),
            total_seconds=time.monotonic() - start,
        )

    # -- binning and coalescing (event-loop thread only) ---------------

    def _enqueue(self, pending: _Pending) -> None:
        if (
            isinstance(pending.request, LuRequest)
            or self.config.window_seconds == 0
            or self.config.max_batch_size == 1
        ):
            # LU runs on the warm scalar context and cannot share a
            # scheduler batch; a zero window means coalescing is off.
            self._queue.put_nowait([pending])
            return
        key: BinKey = (
            pending.request.shape_bin(self.session.params),
            pending.options,
        )
        group = self._bins.setdefault(key, [])
        group.append(pending)
        if len(group) >= self.config.max_batch_size:
            self._flush_bin(key)
        elif len(group) == 1:
            assert self._loop is not None
            self._timers[key] = self._loop.call_later(
                self.config.window_seconds, self._flush_bin, key
            )

    def _flush_bin(self, key: BinKey) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        group = self._bins.pop(key, None)
        if group:
            self._queue.put_nowait(group)

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None
        while True:
            group = await self._queue.get()
            if group is None:
                return
            self._batches += 1
            self._batched_requests += len(group)
            try:
                results = await self._loop.run_in_executor(
                    self._executor, self._execute, group
                )
            except Exception as exc:  # defensive: report, don't hang
                error = RequestError(
                    kind=type(exc).__name__, message=str(exc)
                )
                results = [
                    RequestResult(
                        error=error,
                        traffic=ContextStats.zero(),
                        bin=p.bin_label,
                    )
                    for p in group
                ]
            for pending, result in zip(group, results):
                if not pending.future.done():
                    pending.future.set_result(result)

    def _execute(self, group: list[_Pending]) -> list[RequestResult]:
        """Run one coalesced group on the session (executor thread)."""
        dispatch_start = time.monotonic()
        opts = group[0].options
        label = group[0].bin_label
        tracer = self.session.tracer
        with tracer.span(
            "serve.batch", cat="serve", items=len(group), bin=label
        ):
            if isinstance(group[0].request, LuRequest):
                results = [
                    self.session.submit(p.request, options=opts)
                    for p in group
                ]
            else:
                results = self._execute_gemm_group(group, opts)
            service = time.monotonic() - dispatch_start
            # one serve.request span per rider, nested in the still-
            # open serve.batch span; the delta meter makes each span's
            # counters exactly that request's attributed traffic.
            out: list[RequestResult] = []
            for pending, result in zip(group, results):
                result = replace(
                    result,
                    queue_seconds=dispatch_start - pending.admitted_at,
                    service_seconds=service,
                )
                traffic = result.traffic
                if traffic is None:
                    traffic = ContextStats.zero()
                with tracer.span(
                    "serve.request",
                    cat="serve",
                    meter=_delta_meter(traffic),
                    bin=result.bin or label,
                    ok=result.ok,
                ):
                    pass
                out.append(result)
        return out

    def _execute_gemm_group(
        self, group: list[_Pending], opts: SubmitOptions
    ) -> list[RequestResult]:
        """One ``Session.batch`` for a coalesced GEMM/conv group."""
        items: list[GemmRequest] = []
        for pending in group:
            request = pending.request
            if isinstance(request, ConvRequest):
                items.append(request.lower())
            else:
                assert isinstance(request, GemmRequest)
                items.append(request)
        batch = self.session.batch(
            items, parallel=self.config.parallel, options=opts
        )
        errors = {e.index: e for e in batch.errors}
        results: list[RequestResult] = []
        for i, pending in enumerate(group):
            traffic = batch.item_traffic[i]
            reports = tuple(
                r for r in batch.fault_reports if r.index == i
            )
            err = errors.get(i)
            if err is not None:
                results.append(
                    RequestResult(
                        error=RequestError(kind=err.kind, message=err.message),
                        traffic=traffic,
                        fault_reports=reports,
                        bin=pending.bin_label,
                    )
                )
                continue
            value = batch.outputs[i]
            if isinstance(pending.request, ConvRequest):
                value = pending.request.fold(value)
            results.append(
                RequestResult(
                    value=value,
                    traffic=traffic,
                    fault_reports=reports,
                    bin=pending.bin_label,
                )
            )
        return results

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Flat server counters plus nested cache counters."""
        return {
            "admitted": self._admitted,
            "rejected": self._rejected,
            "completed": self._completed,
            "failed": self._failed,
            "cache_hits": self._cache_hits,
            "batches": self._batches,
            "batched_requests": self._batched_requests,
            "inflight": self._inflight,
            "open_bins": len(self._bins),
            "cache": self.cache.stats(),
        }

    def slo_report(self) -> tuple[BinReport, ...]:
        """Per-bin p50/p95/p99 latency reports (sorted by bin label)."""
        return self.slo.report()

    def register_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Bind the server's own counters into a metrics registry.

        Namespaces: ``serve.*`` (admission/dispatch counters, cache
        counters under ``serve.cache.*``), ``slo.<bin>.*`` (per-bin
        counts and percentile seconds), ``events.*`` (the structured
        log's level counters), ``sampler.*`` / ``alerts.*`` (pipeline
        self-telemetry; empty until :meth:`start` arms them), and —
        when the session's tracer keeps span totals —
        ``serve.request.ctx.*``, the summed per-request span deltas
        that reconcile bit-exactly with ``session.traffic.*``.

        Session-level namespaces (``cg0.dma.*``, ``plan.cache.*``,
        ``resil.*``, ``session.*``) are *not* registered here — pass a
        ``Session.metrics_registry()`` in (what :meth:`metrics_registry`
        does) to get both address spaces without collisions.
        """
        registry.register("serve", self.stats)
        registry.register("slo", self.slo.snapshot)
        registry.register("events", self.events.stats)
        registry.register(
            "sampler",
            lambda: self.sampler.stats() if self.sampler is not None else {},
        )
        registry.register(
            "alerts",
            lambda: self.alerts.stats() if self.alerts is not None else {},
        )
        tracer = self.session.tracer
        if hasattr(tracer, "counter_totals"):
            registry.register(
                "serve.request",
                lambda: tracer.counter_totals("serve.request"),
            )
        return registry

    def metrics_registry(self) -> MetricsRegistry:
        """The server's full counter address space (built once).

        Composes the session's registry (device, NoC, plan-cache,
        resilience and session accounting) with the serve-local
        sources of :meth:`register_metrics`.  This is the registry the
        attached sampler and the ``/metrics`` endpoint read.
        """
        if self._registry is None:
            self._registry = self.register_metrics(
                self.session.metrics_registry()
            )
        return self._registry

    def openmetrics(self) -> str:
        """One OpenMetrics text scrape: every counter plus histograms."""
        return render_openmetrics(
            self.metrics_registry().snapshot(),
            self.slo.histogram_families(),
        )

    async def _serve_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange on the exposition endpoint.

        Deliberately minimal: read the request line, drain headers,
        answer ``/metrics`` (OpenMetrics), ``/healthz`` (liveness) or
        404, close.  Rendering happens on the event-loop thread, which
        is safe — every source read is a lock-held or GIL-atomic
        counter snapshot.
        """
        try:
            request_line = await reader.readline()
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            path = path.split("?", 1)[0]
            if path in ("/metrics", "/"):
                status = "200 OK"
                ctype = (
                    "application/openmetrics-text; "
                    "version=1.0.0; charset=utf-8"
                )
                body = self.openmetrics().encode("utf-8")
            elif path == "/healthz":
                status = "200 OK"
                ctype = "text/plain; charset=utf-8"
                body = b"ok\n"
            else:
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
                body = b"not found\n"
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # a scraper hanging up mid-exchange is not an error
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform noise
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "closed" if self._closed
            else "running" if self._started else "new"
        )
        return (
            f"ReproServer({state}, admitted={self._admitted}, "
            f"batches={self._batches}, inflight={self._inflight})"
        )
