"""The three workloads: two closed ``Session.batch`` loops and one open
loop against ``ReproServer``.

Each workload function returns an :class:`Outcome`: the end-to-end
figures of an untraced run (``trace=False``), or the per-layer figures
of a traced run (``trace=True``).  A traced run first measures a third of its time
untraced, so ``trace_overhead_frac`` compares like with like in one
process; the other two thirds are traced.
"""

from __future__ import annotations

import asyncio
import resource
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import geometric_mean, median
from time import perf_counter

import numpy as np

from repro.api import ConvRequest, GemmRequest, LuRequest
from repro.core.context import ContextStats
from repro.core.session import Session
from repro.experiments.fig6_variants import PAPER_GFLOPS
from repro.obs.tracer import SpanTracer
from repro.perf.estimator import Estimator
from repro.serve.client import LoadGenerator
from repro.serve.config import ServeConfig
from repro.serve.server import ReproServer
from repro.workloads.shapes import FIG6_SIZES

from inputs import (
    ALIGNED_SHAPES,
    RAGGED_SHAPES,
    gemm_batch,
    gemm_flops,
    gemm_ok,
    numpy_gemm,
    request_ok,
    serve_stream,
)
from layers import Recorder, layer_metrics

#: core groups of the batch workloads' session.
N_CGS = 4
#: fresh sessions (or servers) per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: latency limit per request unit (one batch, or one served request)
#: behind ``slo_attain_frac``.
SLO_MS = {"gemm_aligned": 250.0, "gemm_ragged": 500.0, "serve_mixed": 500.0}
#: serve_mixed arrival rate, requests/s: below the server's capacity.
SERVE_RATE = 10.0
#: a serve_mixed segment whose generator fell further behind its
#: schedule than one inter-arrival gap sent a different arrival
#: pattern: it is invalid, not a latency sample, and is measured again.
GEN_LATE_LIMIT_MS = 1e3 / SERVE_RATE
#: measurements of one segment before a late generator fails the run.
SERVE_ATTEMPTS = 2


class InvalidRun(RuntimeError):
    """The run measured something other than the workload."""


class GeneratorLate(InvalidRun):
    """The open-loop generator fell behind its arrival schedule."""


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: human-readable extras: sample counts, per-kind figures.
    notes: dict[str, object] = field(default_factory=dict)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_fidelity() -> dict[str, float]:
    """Modeled SCHED Gflop/s on one CG at the paper's largest Fig 6 size."""
    size = max(FIG6_SIZES)
    gflops = Estimator().estimate("SCHED", size, size, size).gflops
    paper = PAPER_GFLOPS["SCHED"]
    return {
        "model.sched_gflops_per_cg": gflops,
        "model.abs_err_vs_paper_frac": abs(gflops - paper) / paper,
    }


# -- closed loop: gemm_aligned / gemm_ragged ----------------------------


@dataclass
class _BatchLoop:
    walls: list[float] = field(default_factory=list)
    numpy_walls: list[float] = field(default_factory=list)
    modeled: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    slo_met: int = 0


def _batch_loop(session, items, deadline, slo_ms, loop: _BatchLoop) -> None:
    """Back-to-back batches; each is checked and floored outside its timing."""
    while perf_counter() < deadline:
        start = perf_counter()
        result = session.batch(items)
        wall = perf_counter() - start
        start = perf_counter()
        floor = [numpy_gemm(item) for item in items]
        loop.numpy_walls.append(perf_counter() - start)
        loop.walls.append(wall)
        wrong = sum(
            not gemm_ok(out, ref)
            for out, ref in zip(result.outputs, floor) if out is not None
        )
        loop.attempted += len(items)
        loop.failed += len(result.errors) + wrong
        loop.wrong += wrong
        if not result.errors and not wrong and wall * 1e3 <= slo_ms:
            loop.slo_met += 1
        loop.modeled.add(result.flops / result.plan.makespan_seconds / 1e9)


def _setup_session(items) -> tuple[float, bool]:
    """Seconds from a fresh session to its first completed batch."""
    start = perf_counter()
    with Session(n_core_groups=N_CGS) as session:
        result = session.batch(items)
        seconds = perf_counter() - start
    ok = not result.errors and all(
        gemm_ok(out, numpy_gemm(item))
        for out, item in zip(result.outputs, items)
    )
    return seconds, ok


def run_gemm(workload: str, seed: int, seconds: float,
             trace: bool) -> Outcome:
    aligned = workload == "gemm_aligned"
    items = gemm_batch(ALIGNED_SHAPES if aligned else RAGGED_SHAPES, seed,
                       column_major=aligned)
    flops = sum(gemm_flops(item) for item in items)
    slo_ms = SLO_MS[workload]
    untraced = _BatchLoop()
    setup_wrong = 0
    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            took, ok = _setup_session(items)
            setups.append(took)
            setup_wrong += not ok
        with Session(n_core_groups=N_CGS) as session:
            session.batch(items)  # warm: setup is measured above
            _batch_loop(session, items, perf_counter() + seconds, slo_ms,
                        untraced)
        if len(untraced.modeled) != 1:
            raise InvalidRun(
                f"modeled Gflop/s changed between batches: {untraced.modeled}"
            )
        p50 = median(untraced.walls)
        metrics = {
            "setup_s": median(setups),
            "p50_ms": 1e3 * p50,
            "p95_ms": 1e3 * pct(untraced.walls, 95),
            "useful_gflops": flops / p50 / 1e9,
            "numpy_overhead_x": p50 / median(untraced.numpy_walls),
            "modeled_gflops": untraced.modeled.pop(),
            "slo_attain_frac": untraced.slo_met / len(untraced.walls),
            "ok_frac": 1.0 - untraced.failed / untraced.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        return Outcome(
            metrics, untraced.attempted, untraced.failed + setup_wrong,
            untraced.wrong + setup_wrong,
            notes={"batches": len(untraced.walls),
                   "items_per_batch": len(items)},
        )

    # traced run: a third untraced, then two thirds traced
    start = perf_counter()
    with Session(n_core_groups=N_CGS) as session:
        session.batch(items)
        _batch_loop(session, items, start + seconds / 3, slo_ms, untraced)
    traced = _BatchLoop()
    tracer = SpanTracer()
    with Recorder() as rec, Session(n_core_groups=N_CGS,
                                    tracer=tracer) as session:
        session.batch(items)
        stats0 = session.stats()
        resil0 = session.resil_stats()["retries"]
        first_span = len(tracer.spans)
        rec.active = True
        _batch_loop(session, items, start + seconds, slo_ms, traced)
        rec.active = False
        stats = session.stats().delta(stats0)
        retries = session.resil_stats()["retries"] - resil0
    metrics = layer_metrics(
        rec, tracer.spans[first_span:], units=len(traced.walls),
        wall_seconds=sum(traced.walls), session_stats=stats,
    )
    metrics.update(model_fidelity())
    metrics["scheduler.retries"] = retries
    metrics["numpy.ms_p50"] = 1e3 * median(traced.numpy_walls)
    metrics["trace_overhead_frac"] = median(traced.walls) / median(
        untraced.walls)
    return Outcome(
        metrics,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.wrong + traced.wrong,
        notes={"batches_traced": len(traced.walls),
               "batches_untraced": len(untraced.walls)},
    )


# -- open loop: serve_mixed ---------------------------------------------


async def _open_loop(server, requests, rate: float):
    """Submit on a fixed schedule; latency counts from each due time.

    Each record is ``(latency, result, floor)``.  ``floor`` is the bare
    NumPy time of a dispatched GEMM/conv, taken right after its answer
    when the server has nothing in flight (``None`` otherwise).  Taken
    across the whole run, their minimum is a floor that a slow stretch
    of the host does not raise.
    """
    records: list = [None] * len(requests)
    late_max = 0.0

    async def one(idx, request, due):
        result = await server.submit(request)
        latency = perf_counter() - due
        floor = None
        if (result.ok and not result.cache_hit
                and not isinstance(request, LuRequest)
                and server.stats()["inflight"] == 0):
            lowered = _lowered(request)
            start = perf_counter()
            numpy_gemm(lowered)
            floor = perf_counter() - start
        records[idx] = (latency, result, floor)

    tasks = []
    first_due = perf_counter() + 0.01
    for idx, request in enumerate(requests):
        due = first_due + idx / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late_max = max(late_max, perf_counter() - due)
        tasks.append(asyncio.create_task(one(idx, request, due)))
    await asyncio.gather(*tasks)
    if late_max * 1e3 > GEN_LATE_LIMIT_MS:
        raise GeneratorLate(
            f"generator ran {late_max * 1e3:.1f} ms behind its schedule "
            f"(limit {GEN_LATE_LIMIT_MS} ms)"
        )
    return records, late_max, first_due, perf_counter() - first_due


def _warm_requests(seed: int) -> list:
    """One GEMM, conv and LU request, distinct from the measured stream."""
    gen = LoadGenerator(seed=seed + 7919)
    found: dict = {}
    while len(found) < 3:
        for request in gen.generate(16):
            found.setdefault(type(request), request)
    return [found[kind] for kind in (GemmRequest, ConvRequest, LuRequest)]


def _lowered(request) -> GemmRequest:
    return request.lower() if isinstance(request, ConvRequest) else request


@dataclass
class _ShapeTally:
    """Dispatched GEMM/conv requests of one lowered shape."""

    #: useful flops of one request.
    flops: int = 0
    #: worker service seconds per request, a dispatch's split evenly
    #: among its riders.
    service: list = field(default_factory=list)
    #: modeled single-CG seconds of one request at the session's blocking.
    modeled: float = 0.0
    #: bare NumPy seconds of single requests (see ``_open_loop``).
    numpy: list = field(default_factory=list)

    @property
    def service_p50(self) -> float:
        return median(self.service)

    @property
    def numpy_min(self) -> float:
        """The floor: the fastest single request, so a slow stretch of
        the host does not raise it."""
        return min(self.numpy)


@dataclass
class _Served:
    """One open-loop segment against one server."""

    records: list
    late_max: float
    #: perf_counter at the first due time, and seconds from it to the
    #: last response.
    start: float
    window: float
    server_stats: dict
    session_stats: object
    retries: int
    #: dispatched (not cached) GEMM/conv (request, result, floor).
    executed: list
    shapes: dict
    #: warm-up requests that failed or answered wrong.
    warm_wrong: int
    #: the segment's closed spans (empty untraced).
    spans: list


async def _serve_segment(requests, warm, tracer, rec=None) -> _Served:
    server = ReproServer(config=ServeConfig(), tracer=tracer)
    async with server:
        warm_results = [await server.submit(r) for r in warm]
        session = server.session
        stats0 = session.stats()
        server0 = server.stats()
        resil0 = session.resil_stats()["retries"]
        if rec is not None:
            rec.active = True
        records, late_max, start, window = await _open_loop(
            server, requests, SERVE_RATE)
        if rec is not None:
            rec.active = False
        session_stats = session.stats()
        stats = server.stats()
        retries = session.resil_stats()["retries"] - resil0
        executed = [
            (req, res, floor) for req, (_, res, floor) in zip(requests, records)
            if res.ok and not res.cache_hit
            and not isinstance(req, LuRequest)
        ]
        # riders of one dispatch share its service_seconds
        riders = Counter(res.service_seconds for _, res, _ in executed)
        shapes: dict = defaultdict(_ShapeTally)
        for req, res, floor in executed:
            shape = req.validate()
            tally = shapes[shape]
            tally.flops = gemm_flops(req)
            tally.service.append(
                res.service_seconds / riders[res.service_seconds])
            tally.modeled = session.scheduler.modeled_item_seconds(*shape)
            if floor is not None:
                tally.numpy.append(floor)
        for req, _, _ in executed:
            tally = shapes[req.validate()]
            if not tally.numpy:  # never answered while the server idled
                start = perf_counter()
                numpy_gemm(_lowered(req))
                tally.numpy.append(perf_counter() - start)
    if tracer is not None:
        traffic = ContextStats.zero()
        for result in warm_results + [res for _, res, _ in records]:
            traffic = traffic.plus(result.traffic)
        if traffic.as_dict() != session_stats.traffic.as_dict():
            raise InvalidRun(
                "per-request traffic does not sum to Session.stats().traffic"
            )
    warm_wrong = sum(
        not (res.ok and request_ok(req, res.value))
        for req, res in zip(warm, warm_results)
    )
    server_delta = {key: stats[key] - server0[key]
                    for key in ("rejected", "batches", "batched_requests",
                                "cache_hits")}
    return _Served(records, late_max, start, window, server_delta,
                   session_stats.delta(stats0), retries, executed,
                   dict(shapes), warm_wrong,
                   tracer.spans if tracer is not None else [])


def _serve_valid(requests, warm, rec: Recorder | None = None) -> _Served:
    """One segment, traced when given a recorder, and measured again if
    its generator ran late."""
    for attempt in range(1, SERVE_ATTEMPTS + 1):
        tracer = None if rec is None else SpanTracer()
        try:
            return asyncio.run(_serve_segment(requests, warm, tracer, rec))
        except GeneratorLate as exc:
            print(f"  invalid segment {attempt}/{SERVE_ATTEMPTS}: {exc}")
            if attempt == SERVE_ATTEMPTS:
                raise
            if rec is not None:
                rec.reset()
    raise AssertionError("unreachable")


def _shape_mean(shapes: dict, figure) -> float:
    """Geometric mean of a per-shape figure over the mix's shapes.

    Taking medians within a shape and weighting shapes equally keeps
    the seed's draw of how many requests of each shape out of the
    figure.
    """
    return geometric_mean([figure(t) for t in shapes.values()])


def _check_served(requests, records) -> tuple[int, int, list[bool]]:
    """(failed, wrong, per-request ok) over one segment's responses."""
    failed = wrong = 0
    oks = []
    for request, (_, result, _) in zip(requests, records):
        ok = result.ok
        if ok and not request_ok(request, result.value):
            wrong += 1
            ok = False
        failed += not ok
        oks.append(ok)
    return failed, wrong, oks


def _latency_split(requests, records) -> dict[str, float]:
    """Per-kind latency from due time, with the sample count behind each."""
    gemm = [lat for req, (lat, _, _) in zip(requests, records)
            if not isinstance(req, LuRequest)]
    lu = [lat for req, (lat, _, _) in zip(requests, records)
          if isinstance(req, LuRequest)]
    return {
        "serve.gemm_latency_ms_p50": 1e3 * pct(gemm, 50),
        "serve.gemm_latency_ms_p95": 1e3 * pct(gemm, 95),
        "serve.gemm_samples": len(gemm),
        "serve.lu_latency_ms_p50": 1e3 * pct(lu, 50),
        "serve.lu_samples": len(lu),
        "serve.latency_samples": len(records),
    }


def _setup_server(request) -> tuple[float, bool]:
    async def once():
        start = perf_counter()
        server = ReproServer(config=ServeConfig(), tracer=None)
        async with server:
            result = await server.submit(request)
            took = perf_counter() - start
        return took, result.ok and request_ok(request, result.value)

    return asyncio.run(once())


def run_serve(workload: str, seed: int, seconds: float,
              trace: bool) -> Outcome:
    requests = serve_stream(seed, int(SERVE_RATE * seconds))
    warm = _warm_requests(seed)
    if not trace:
        setups, setup_wrong = [], 0
        for _ in range(SETUP_REPS):
            took, ok = _setup_server(warm[0])
            setups.append(took)
            setup_wrong += not ok
        seg = _serve_valid(requests, warm)
        failed, wrong, oks = _check_served(requests, seg.records)
        wrong += seg.warm_wrong
        latencies = [lat for lat, _, _ in seg.records]
        slo = SLO_MS[workload] / 1e3
        metrics = {
            "setup_s": median(setups),
            "p50_ms": 1e3 * pct(latencies, 50),
            "p95_ms": 1e3 * pct(latencies, 95),
            "useful_gflops": _shape_mean(
                seg.shapes, lambda t: t.flops / t.service_p50) / 1e9,
            "numpy_overhead_x": _shape_mean(
                seg.shapes, lambda t: t.service_p50 / t.numpy_min),
            "modeled_gflops": _shape_mean(
                seg.shapes, lambda t: t.flops / t.modeled) / 1e9,
            "slo_attain_frac": sum(
                ok and lat <= slo for ok, lat in zip(oks, latencies)
            ) / len(requests),
            "ok_frac": 1.0 - failed / len(requests),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = _latency_split(requests, seg.records)
        notes["gen.late_ms_max"] = 1e3 * seg.late_max
        notes["serve.dispatched_gemm"] = len(seg.executed)
        return Outcome(metrics, len(requests), failed + setup_wrong,
                       wrong + setup_wrong, notes)

    cut = len(requests) // 3
    base = _serve_valid(requests[:cut], warm)
    with Recorder() as rec:
        seg = _serve_valid(requests[cut:], warm, rec)
    spans = [s for s in seg.spans if s.start >= seg.start]
    base_failed, base_wrong, _ = _check_served(requests[:cut], base.records)
    failed, wrong, _ = _check_served(requests[cut:], seg.records)
    wrong += seg.warm_wrong + base.warm_wrong
    traced_requests = requests[cut:]
    split = _latency_split(traced_requests, seg.records)
    dispatched = [res for _, res, _ in seg.records if not res.cache_hit]
    metrics = layer_metrics(
        rec, spans,
        units=len(traced_requests), wall_seconds=seg.window,
        session_stats=seg.session_stats,
    )
    metrics.update(model_fidelity())
    served = seg.server_stats
    busy = sum(s.duration for s in spans if s.name == "serve.batch")
    metrics.update({
        "serve.queue_ms_p50": 1e3 * pct(
            [r.queue_seconds for r in dispatched], 50),
        "serve.service_ms_p50": 1e3 * pct(
            [r.service_seconds for r in dispatched], 50),
        "serve.dispatch_busy_frac": busy / seg.window,
        "serve.requests_per_dispatch": (
            served["batched_requests"] / served["batches"]
            if served["batches"] else 0.0),
        "serve.cache_hit_frac": served["cache_hits"] / len(traced_requests),
        "serve.rejected": served["rejected"],
        **split,
        "gen.late_ms_max": 1e3 * seg.late_max,
        "scheduler.retries": seg.retries,
        "numpy.ms_p50": 1e3 * pct(
            [x for t in seg.shapes.values() for x in t.numpy], 50),
        "trace_overhead_frac": _service_p50(seg) / _service_p50(base),
    })
    return Outcome(
        metrics,
        len(requests),
        base_failed + failed,
        base_wrong + wrong,
        notes={"requests_traced": len(traced_requests)},
    )


def _service_p50(seg: _Served) -> float:
    return pct([res.service_seconds for _, res, _ in seg.executed], 50)


WORKLOADS = {
    "gemm_aligned": run_gemm,
    "gemm_ragged": run_gemm,
    "serve_mixed": run_serve,
}
