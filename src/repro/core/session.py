"""The one-true entry point: a session that owns device, context, pool.

The layers below are deliberately explicit — ``dgemm`` takes a
``core_group``/``context``, ``dgemm_batch`` takes a device,
``CGScheduler`` wants a pool — and that explicitness is the
right *low-level* surface.  But a caller who just wants the paper's
DGEMM served fast should not have to thread devices and contexts by
hand.  :class:`Session` is that caller's API:

    with Session(n_core_groups=4) as s:
        y = s.dgemm(a, b)                # scalar call, staging kept warm
        r = s.batch(items)               # dispatched across the CG pool
        print(s.stats())                 # cumulative session accounting

One session owns one :class:`~repro.multi.processor.SW26010Processor`,
a long-lived scalar :class:`~repro.core.context.ExecutionContext` on
CG 0 (so repeated same-shape ``dgemm`` calls hit the staging-plan
cache), and a :class:`~repro.multi.scheduler.CGScheduler` over the
requested pool for batches.  Closing the session (context-manager exit
or :meth:`close`) frees every staged handle, returning each CG's
``MainMemory.used_bytes`` to its pre-session baseline.

Sessions accumulate accounting *across* calls: :meth:`stats` reports
calls, items, failures, flops and the summed per-context traffic since
the session opened.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import (
    DEFAULT_SUBMIT_OPTIONS,
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
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.core.api import dgemm as _dgemm
from repro.core.context import ContextStats, ExecutionContext
from repro.core.engine import engine_name
from repro.core.params import BlockingParams
from repro.core.variants import get_variant
from repro.multi.processor import SW26010Processor
from repro.multi.scheduler import CGScheduler, ScheduleResult
from repro.obs.tracer import ensure_tracer
from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.resil.faults import FaultInjector
from repro.resil.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.tuning.table import TuningTable
from repro.utils.stats import StatsProtocol

__all__ = ["Session", "SessionStats"]


@dataclass(frozen=True)
class SessionStats(StatsProtocol):
    """Cumulative accounting for one session.

    Carries the uniform :class:`~repro.utils.stats.StatsProtocol`
    surface (``as_dict``/``delta``/``plus``/``zero``), with the nested
    ``traffic`` record combined recursively — two sessions' stats sum
    with one ``plus``, and a before/after pair diffs with one ``delta``.
    """

    #: scalar ``session.dgemm`` calls.
    calls: int
    #: ``session.batch`` invocations.
    batches: int
    #: batch items executed (successes + failures).
    items: int
    #: batch items that raised (isolated per-item failures).
    failures: int
    #: logical flops of successful work, ``2*m*n*k`` per multiply.
    flops: int
    #: flops the device executed after padding.
    padded_flops: int
    #: summed staging/DMA/regcomm traffic across every context used.
    traffic: ContextStats


class Session:
    """A stateful facade over device, context and scheduler.

    Parameters mirror :func:`repro.core.api.dgemm` where they overlap;
    ``pad`` defaults to True (a session exists to serve arbitrary
    shapes) and ``n_core_groups`` sizes the batch-dispatch pool (scalar
    calls always run on CG 0).  Usable as a context manager or via an
    explicit :meth:`close`; a closed session raises on use.

    ``tracer=`` (a :class:`repro.obs.SpanTracer`) turns on phase-level
    telemetry: ``session.batch`` → ``cg_dispatch`` → ``dgemm`` →
    ``stage_*``/``strip_mult``/``store_C`` spans with counter deltas,
    exportable as a Chrome trace via :mod:`repro.obs.export`.  The
    default ``None`` is the no-op tracer (<=2% overhead budget on the
    untraced path).

    Resilience is on by default for batches: ``retry_policy`` (two
    bit-exact retries of transiently faulted items) and
    ``fallback_engine="auto"`` (a failed vectorized item re-runs once
    on the checked ``device`` engine) cost nothing on clean runs.  Pass
    ``injector=`` (a :class:`repro.resil.FaultInjector`) to chaos-test:
    it is wired through every CG's devices, batch items recover per the
    ladder in :mod:`repro.resil`, and :meth:`resil_stats` /
    ``result.fault_reports`` expose what happened.  Scalar
    :meth:`dgemm` calls are *not* retried — a fault there propagates to
    the caller.
    """

    def __init__(
        self,
        *,
        variant: str = "SCHED",
        engine: str | None = None,
        params: BlockingParams | None = None,
        spec: SW26010Spec = DEFAULT_SPEC,
        processor: SW26010Processor | None = None,
        n_core_groups: int | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        pad: bool = True,
        check: bool = False,
        tracer=None,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = DEFAULT_RETRY_POLICY,
        fallback_engine: str | None = "auto",
        tuned: TuningTable | str | None = None,
        policy: str = "binned",
    ) -> None:
        self.tracer = ensure_tracer(tracer)
        self.variant = str(variant).upper()
        # None means "per-path default": scalar dgemm keeps the checked
        # device model (fidelity), while batch dispatch — the throughput
        # path a session exists to serve — runs the vectorized engine.
        # Pass an explicit engine to force one choice everywhere.
        self.engine = None if engine is None else engine_name(engine)
        self.params = params or get_variant(self.variant).default_params()
        self.pad = pad
        self.check = check
        self.processor = processor or SW26010Processor(spec)
        self.injector = injector
        batch_engine = self.engine or "vectorized"
        if fallback_engine == "auto":
            # degrade the fast batch engines to the checked device model;
            # a forced single engine has nowhere sensible to fall to.
            fallback_engine = (
                "device" if batch_engine in ("vectorized", "stepwise")
                else None
            )
        self.scheduler = CGScheduler(
            self.processor,
            n_core_groups=n_core_groups,
            variant=self.variant,
            engine=batch_engine,
            params=params,
            calibration=calibration,
            pad=pad,
            check=check,
            tracer=self.tracer,
            injector=injector,
            retry_policy=retry_policy,
            fallback_engine=fallback_engine,
            tuned=tuned,
            policy=policy,
        )
        #: the loaded learned table (``None`` unless ``tuned=`` given);
        #: shared with the scheduler, so both consult one fallback cache.
        self.tuned = self.scheduler.tuned
        #: the scheduler's pool-wide plan cache, shared by scalar calls
        #: too — one compiled plan serves both entry points.
        self.plan_cache = self.scheduler.plan_cache
        self._ctx = ExecutionContext(self.processor.cg(0))
        self._ctx_open = False
        self._closed = False
        #: serializes close() against itself — double-close from two
        #: threads (server shutdown racing a with-block exit) must tear
        #: down exactly once; scheduler.close() additionally waits out
        #: any in-flight batch on the scheduler's own run guard.
        self._close_lock = threading.Lock()
        #: guards the cumulative accounting fold (concurrent submit()
        #: callers each fold their own deltas).
        self._stats_lock = threading.Lock()
        self._calls = 0
        self._batches = 0
        self._items = 0
        self._failures = 0
        self._flops = 0
        self._padded_flops = 0
        self._traffic = ContextStats.zero()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Session":
        self._require_open()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Free every staged handle this session holds.

        Idempotent, and safe to call concurrently — with another
        ``close()`` or with an in-flight :meth:`batch`: the first
        caller wins the close lock and marks the session closed;
        :meth:`CGScheduler.close
        <repro.multi.scheduler.CGScheduler.close>` then waits for any
        in-flight run to drain before releasing the worker pool, so
        live workers never lose their contexts mid-item.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # scheduler first: its close() blocks on the run guard, so an
        # in-flight batch finishes before any teardown proceeds (and it
        # drains the shared plan cache on the way out).
        self.scheduler.close()
        if self._ctx_open:
            self._ctx.__exit__(None, None, None)
            self._ctx_open = False
        else:
            self._ctx.close()

    @property
    def n_core_groups(self) -> int:
        """Size of the batch-dispatch pool."""
        return self.scheduler.n_core_groups

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigError("this Session is closed")

    def _scalar_context(self) -> ExecutionContext:
        # entered lazily and kept open for the session's lifetime, so
        # repeated same-shape calls restage in place instead of
        # reallocating; close() frees everything.
        if not self._ctx_open:
            self._ctx.__enter__()
            self._ctx_open = True
        return self._ctx

    # -- entry points --------------------------------------------------

    def dgemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: str = "N",
        transb: str = "N",
        engine: str | None = None,
        pad: bool | None = None,
        check: bool | None = None,
    ) -> np.ndarray:
        """One multiply on CG 0, staging kept warm across calls.

        ``engine=`` overrides the session's engine for this call;
        scalar calls default to ``"device"`` (full protocol checking)
        unless the session was built with an explicit ``engine=``.

        The call's blocking comes from
        :meth:`CGScheduler.resolve_blocking
        <repro.multi.scheduler.CGScheduler.resolve_blocking>` — the
        same resolution batch dispatch uses (explicit session
        ``params=``, else the ``tuned=`` table, else the variant's
        default).
        """
        self._require_open()
        ctx = self._scalar_context()
        eff_engine = (engine or self.engine or "device").lower()
        eff_pad = self.pad if pad is None else pad
        m, n, k = GemmRequest(
            a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb
        ).validate()
        (params,) = self.scheduler.resolve_blocking([(m, n, k)], engine=eff_engine)
        before = ctx.stats()
        out = _dgemm(
            a, b, c,
            alpha=alpha, beta=beta, transa=transa, transb=transb,
            variant=self.variant,
            engine=eff_engine,
            params=params, context=ctx,
            pad=eff_pad,
            check=self.check if check is None else check,
            tracer=self.tracer,
            plan_cache=self.plan_cache,
        )
        pm, pn, pk = params.pad_shape(m, n, k) if eff_pad else (m, n, k)
        with self._stats_lock:
            self._traffic = self._traffic.plus(ctx.stats().since(before))
            self._calls += 1
            self._flops += 2 * m * n * k
            self._padded_flops += 2 * pm * pn * pk
        return out

    def batch(
        self,
        items,
        *,
        isolate_failures: bool = True,
        parallel: bool = False,
        options: SubmitOptions | None = None,
        blocking: (
            BlockingParams | list[BlockingParams | None] | None
        ) = None,
    ) -> ScheduleResult:
        """Dispatch a batch across the session's CG pool.

        Returns the scheduler's
        :class:`~repro.multi.scheduler.ScheduleResult` (a superset of
        :class:`~repro.core.batch.BatchResult`'s accounting).  By
        default item failures are isolated — inspect ``result.errors``;
        pass ``isolate_failures=False`` for the raise-on-first-failure
        contract of serial :func:`~repro.core.batch.dgemm_batch`.

        ``parallel=True`` runs each CG's queue on its own worker thread
        (see :meth:`CGScheduler.run
        <repro.multi.scheduler.CGScheduler.run>`); outputs and
        accounting are bit-identical to the default serial dispatch.

        ``options=`` (a :class:`~repro.api.SubmitOptions`) applies
        per-batch execution overrides: engine, result checking, and the
        retry budget (``max_retries`` rebinds the session's retry
        policy for this batch only — ``0`` disables retrying).  The
        serving tier coalesces same-option requests so every dispatched
        batch has one uniform ``options``.

        ``blocking=`` passes per-item :class:`BlockingParams` overrides
        down the dispatch path: one instance for the whole batch, or a
        sequence matching the batch length (``None`` entries resolve
        via the tuned table / session default).  Bad overrides fail up
        front with errors naming the item index.
        """
        self._require_open()
        items = list(items)
        opts = options or DEFAULT_SUBMIT_OPTIONS
        retry_policy = None
        if opts.max_retries is not None:
            base = self.scheduler.retry_policy or DEFAULT_RETRY_POLICY
            retry_policy = replace(base, max_retries=opts.max_retries)
        with self._stats_lock:
            batch_no = self._batches
            self._batches += 1
        with self.tracer.span(
            "session.batch", cat="session", items=len(items), batch=batch_no,
        ):
            result = self.scheduler.run(
                items,
                isolate_failures=isolate_failures,
                parallel=parallel,
                engine=opts.engine,
                check=opts.check,
                retry_policy=retry_policy,
                blocking=blocking,
            )
        with self._stats_lock:
            self._items += len(result)
            self._failures += len(result.errors)
            self._flops += result.flops
            self._padded_flops += result.padded_flops
            self._traffic = self._traffic.plus(result.traffic)
        return result

    def submit(
        self,
        request: Request,
        *,
        options: SubmitOptions | None = None,
    ) -> RequestResult:
        """Execute one typed request; never raises on request failure.

        The synchronous half of the typed surface shared with
        :mod:`repro.serve`: takes a
        :class:`~repro.api.GemmRequest`/:class:`~repro.api.ConvRequest`
        /:class:`~repro.api.LuRequest` and returns a structured
        :class:`~repro.api.RequestResult` — value, this request's own
        traffic delta, fault reports from the resilience ladder, and a
        :class:`~repro.api.RequestError` instead of an exception when
        the request is malformed or exhausts its retry budget.
        (Session-level misuse — submitting on a closed session — still
        raises.)

        GEMM and conv requests run as a batch of one through the
        scheduler (conv is lowered via im2col and its output folded
        back to feature maps); LU runs :func:`repro.apps.lu.blocked_lu`
        on the session's warm CG-0 context, on the same engine a GEMM
        with these ``options`` would get.  Either way the request's
        traffic is folded into :meth:`stats`, so summing per-request
        deltas over any set of submissions reconciles bit-exactly with
        the session totals.
        """
        self._require_open()
        opts = options or DEFAULT_SUBMIT_OPTIONS
        try:
            request = as_request(request)
            request.validate()
            if opts.engine is not None:
                engine_name(opts.engine)
            bin_label = format_bin(request.shape_bin(self.params))
        except (ConfigError, UnsupportedShapeError) as exc:
            return RequestResult(
                error=RequestError(kind=type(exc).__name__, message=str(exc)),
                traffic=ContextStats.zero(),
            )
        if isinstance(request, LuRequest):
            return self._submit_lu(request, bin_label, opts)
        gemm = request.lower() if isinstance(request, ConvRequest) else request
        result = self.batch([gemm], options=opts)
        traffic = result.item_traffic[0]
        if result.errors:
            err = result.errors[0]
            return RequestResult(
                error=RequestError(kind=err.kind, message=err.message),
                traffic=traffic,
                fault_reports=result.fault_reports,
                bin=bin_label,
            )
        value = result.outputs[0]
        if isinstance(request, ConvRequest):
            value = request.fold(value)
        return RequestResult(
            value=value,
            traffic=traffic,
            fault_reports=result.fault_reports,
            bin=bin_label,
        )

    def _submit_lu(
        self, request: LuRequest, bin_label: str, opts: SubmitOptions
    ) -> RequestResult:
        """Run one LU factorization on the warm scalar context.

        The engine follows the rule a GEMM sent through :meth:`submit`
        follows: ``opts.engine``, else the scheduler's engine.
        """
        # looked up at call time, so a wrapped repro.apps.lu.blocked_lu
        # (profilers, tests) sees served factorizations too.
        from repro.apps.lu import blocked_lu

        ctx = self._scalar_context()
        before = ctx.stats()
        try:
            value = blocked_lu(
                request.a,
                panel=request.panel,
                variant=self.variant,
                params=self.params,
                context=ctx,
                tracer=self.tracer,
                engine=opts.engine or self.scheduler.engine,
            )
        except Exception as exc:
            delta = ctx.stats().since(before)
            with self._stats_lock:
                self._traffic = self._traffic.plus(delta)
                self._failures += 1
            return RequestResult(
                error=RequestError(kind=type(exc).__name__, message=str(exc)),
                traffic=delta,
                bin=bin_label,
            )
        delta = ctx.stats().since(before)
        with self._stats_lock:
            self._traffic = self._traffic.plus(delta)
            self._calls += 1
            self._flops += value.gemm_flops
            self._padded_flops += value.padded_gemm_flops
        return RequestResult(value=value, traffic=delta, bin=bin_label)

    def resil_stats(self) -> dict:
        """Cumulative resilience counters (see
        :meth:`~repro.multi.scheduler.CGScheduler.resil_stats`)."""
        return self.scheduler.resil_stats()

    def metrics_registry(self):
        """This session's counters as one sampler-ready registry.

        The scheduler's registry (per-CG device counters, NoC, plan
        cache, resilience) plus the cumulative session accounting
        under ``session.*`` (``session.traffic.dma_bytes``, ...).
        Attach a :class:`~repro.obs.series.MetricsSampler` to stream
        the whole address space as time series; because
        :meth:`stats` reads are lock-held and registry snapshots
        telescope, summing sampler-window deltas of the
        ``session.traffic.*`` counters over a run reconciles
        bit-exactly with :meth:`stats` ``.traffic``.
        """
        registry = self.scheduler.metrics_registry()
        registry.register("session", lambda: self.stats().as_dict())
        return registry

    def stats(self) -> SessionStats:
        """Cumulative accounting since the session opened."""
        # the scalar context may have moved since the last snapshot
        # (it is long-lived, unlike the scheduler's per-run scopes);
        # fold nothing here — dgemm() folds its own deltas eagerly.
        with self._stats_lock:
            return SessionStats(
                calls=self._calls,
                batches=self._batches,
                items=self._items,
                failures=self._failures,
                flops=self._flops,
                padded_flops=self._padded_flops,
                traffic=self._traffic.snapshot(),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.variant}, pool={self.n_core_groups} CGs, "
            f"{state}, calls={self._calls}, batches={self._batches})"
        )
