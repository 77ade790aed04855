"""Device vs vectorized execution engine: wall-clock and traffic.

Not a paper artifact — this measures the *library*: what
``engine="vectorized"`` buys over the per-CPE device model on the
functional GEMM hot path, per variant.  Every timed configuration is
also *verified*: the vectorized result must match the device result to
the library comparison tolerance (``rtol=1e-12 / atol=1e-9``, the same
bar ``dgemm(check=True)`` applies) and the DMA / register-communication
statistics must match exactly, otherwise the run fails.

The stepwise engine is covered too: cold and warm plan-compiled
stepwise runs are measured against the device engine (bitwise equality
plus exact-stats verification), the warm p50 gated at
``STEPWISE_PLAN_DEVICE_FLOOR`` over device at the 768^3 paper size in
full mode, and the smoke run additionally asserts the plan-cache
counters (one build per signature, hits across repeated parallel
``Session`` batches, drain on close).

Timings cover ``engine.run`` on pre-staged operands — the execution
engine itself, excluding the engine-independent host staging copies.
Every repetition's wall-clock is kept; records report the best-of-reps
headline number plus a min/p50/p95/mean summary so the trajectory file
captures run-to-run jitter, not just the fastest sample.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py --json BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke   # CI gate
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
        --baseline BENCH_engine.json --max-regression 0.25

The ``--baseline`` flag turns the smoke run into a performance
*regression* gate: the p50 speedup of each smoke case is compared
against the ``smoke`` section of the committed trajectory file, and the
run fails if any case lost more than ``--max-regression`` (a fraction;
0.25 means "a quarter of the baseline speedup").  A baseline without a
``smoke`` section downgrades the gate to a warning so the first run on
a fresh baseline never hard-fails; ``--write-baseline`` refreshes the
section in place.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.api import GemmRequest
from repro.arch.core_group import CoreGroup
from repro.core.context import ExecutionContext
from repro.core.engine import PlanCache, StepwiseEngine, get_engine
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.core.variants import get_variant

#: paper-sized shapes per variant (multiples of the CG block factors).
PAPER_SHAPES = {
    "RAW": (768, 768, 768),
    "PE": (512, 768, 768),
    "ROW": (512, 768, 768),
    "DB": (1024, 1024, 768),
    "SCHED": (1024, 1024, 768),
}
#: the 768^3 paper size the stepwise-plan acceptance bar is quoted at.
PLAN_SHAPE = (768, 768, 768)
SMOKE_PARAMS = BlockingParams.small(double_buffered=True)
#: the acceptance bar: vectorized must beat device by this factor on
#: the paper-sized SCHED variant.
SCHED_SPEEDUP_FLOOR = 10.0
#: the acceptance bar: warm-plan stepwise must beat the device engine
#: by this p50 factor on SCHED at 768^3.
STEPWISE_PLAN_DEVICE_FLOOR = 4.0


def _stats_snapshot(cg: CoreGroup) -> dict:
    d, r = cg.dma.stats, cg.regcomm.stats
    return {
        "dma_gets": d.gets,
        "dma_puts": d.puts,
        "dma_bytes_get": d.bytes_get,
        "dma_bytes_put": d.bytes_put,
        "dma_transactions": d.transactions,
        "dma_by_mode": dict(sorted(d.by_mode.items())),
        "regcomm_row_broadcasts": r.row_broadcasts,
        "regcomm_col_broadcasts": r.col_broadcasts,
        "regcomm_row_items": r.row_items,
        "regcomm_col_items": r.col_items,
        "regcomm_bytes": r.bytes_moved,
        "regcomm_receives": r.receives,
    }


def _timing_summary(samples: list[float]) -> dict:
    """min/p50/p95/mean over the per-rep wall-clock samples."""
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "reps": len(samples),
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "mean": float(arr.mean()),
    }


def _run_engine(
    variant: str,
    engine_name,
    shape: tuple[int, int, int],
    params: BlockingParams | None,
    reps: int,
    plan_cache: PlanCache | None = None,
) -> tuple[np.ndarray, dict, list[float]]:
    """Return (result, stats, per-rep seconds) for one engine run.

    The first repetition runs on the freshly staged C and provides the
    verified result and statistics; later repetitions only refine the
    timing (they accumulate into C, which does not affect wall-clock).
    ``engine_name`` may be a registry name or an engine instance;
    ``plan_cache`` is handed to plan-aware engines, so with a shared
    cache the first repetition is the cold (plan-building) sample and
    every later repetition is warm.
    """
    impl = get_variant(variant)
    params = params or impl.default_params()
    m, n, k = shape
    rng = np.random.default_rng(7)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n))
    eng = get_engine(engine_name)
    cg = CoreGroup()
    with ExecutionContext.scoped(None, cg, cg.spec) as ctx, ctx.executing():
        ha = ctx.stage("A", a, rows=m, cols=k)
        hb = ctx.stage("B", b, rows=k, cols=n)
        hc = ctx.stage("C", c, rows=m, cols=n)
        samples: list[float] = []
        result = None
        stats = None
        for rep in range(reps):
            t0 = time.perf_counter()
            eng.run(impl, cg, ha, hb, hc, alpha=1.0, beta=1.0, params=params,
                    plan_cache=plan_cache)
            samples.append(time.perf_counter() - t0)
            if rep == 0:
                result = np.array(cg.memory.array(hc), order="F", copy=True)
                stats = _stats_snapshot(cg)
    return result, stats, samples


def bench_variant(
    variant: str,
    shape: tuple[int, int, int],
    params: BlockingParams | None = None,
    device_reps: int = 1,
    vectorized_reps: int = 3,
) -> tuple[dict, list[str]]:
    """Measure and verify one variant; return (record, failures).

    The headline ``*_seconds``/``speedup`` numbers use the best-of-reps
    sample; the ``*_timing`` summaries expose the full distribution.
    """
    m, n, k = shape
    dev_out, dev_stats, dev_samples = _run_engine(
        variant, "device", shape, params, device_reps)
    vec_out, vec_stats, vec_samples = _run_engine(
        variant, "vectorized", shape, params, vectorized_reps)
    dev_s = min(dev_samples)
    vec_s = min(vec_samples)

    failures: list[str] = []
    if not np.allclose(vec_out, dev_out, rtol=1e-12, atol=1e-9):
        worst = float(np.max(np.abs(vec_out - dev_out)))
        failures.append(
            f"{variant}: vectorized result deviates from device "
            f"(max abs err {worst:.3e})"
        )
    if vec_stats != dev_stats:
        diff = {key for key in dev_stats if dev_stats[key] != vec_stats[key]}
        failures.append(
            f"{variant}: traffic statistics differ on {sorted(diff)}"
        )

    dma_bytes = dev_stats["dma_bytes_get"] + dev_stats["dma_bytes_put"]
    record = {
        "shape": {"m": m, "n": n, "k": k},
        "flops": 2 * m * n * k,
        "device_seconds": dev_s,
        "vectorized_seconds": vec_s,
        "device_timing": _timing_summary(dev_samples),
        "vectorized_timing": _timing_summary(vec_samples),
        "speedup": dev_s / vec_s,
        "device_gflops": 2 * m * n * k / dev_s / 1e9,
        "vectorized_gflops": 2 * m * n * k / vec_s / 1e9,
        "dma_gb_moved": dma_bytes / 1e9,
        "regcomm_gb_moved": dev_stats["regcomm_bytes"] / 1e9,
        "stats_match": vec_stats == dev_stats,
        "traffic": dev_stats,
    }
    return record, failures


def bench_stepwise_plan(
    shape: tuple[int, int, int],
    params: BlockingParams | None = None,
    variant: str = "SCHED",
    reps: int = 5,
) -> tuple[dict, list[str]]:
    """Device vs cold vs warm planned stepwise; return (record, failures).

    The device engine is the reference the stepwise engine is checked
    against.  Repetition 0 of the planned run is the cold
    (plan-building) sample; the warm timing summary covers repetitions
    1..reps of the shared :class:`PlanCache`.  The planned result must
    equal the device result *bitwise* with identical traffic
    statistics, and the cache counters must show exactly one build
    with a hit on every warm repetition.
    """
    dev_out, dev_stats, dev_samples = _run_engine(
        variant, "device", shape, params, reps)
    cache = PlanCache()
    plan_out, plan_stats, plan_samples = _run_engine(
        variant, StepwiseEngine(), shape, params, reps + 1, plan_cache=cache)
    cold_s = plan_samples[0]
    warm_samples = plan_samples[1:]

    failures: list[str] = []
    if not np.array_equal(plan_out, dev_out):
        worst = float(np.max(np.abs(plan_out - dev_out)))
        failures.append(
            f"{variant}: planned stepwise result is not bit-identical to "
            f"the device engine (max abs err {worst:.3e})"
        )
    if plan_stats != dev_stats:
        diff = {k for k in dev_stats if dev_stats[k] != plan_stats[k]}
        failures.append(
            f"{variant}: planned stepwise traffic statistics differ on "
            f"{sorted(diff)}"
        )
    counters = cache.stats()
    if counters.builds != 1 or counters.hits != reps:
        failures.append(
            f"{variant}: plan cache counters off — expected 1 build / "
            f"{reps} hits, got {counters.builds} / {counters.hits}"
        )

    m, n, k = shape
    dev_s = min(dev_samples)
    warm_s = min(warm_samples)
    record = {
        "shape": {"m": m, "n": n, "k": k},
        "variant": variant,
        "flops": 2 * m * n * k,
        "device_seconds": dev_s,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "device_timing": _timing_summary(dev_samples),
        "warm_timing": _timing_summary(warm_samples),
        "speedup": dev_s / warm_s,
        "speedup_p50": (
            _timing_summary(dev_samples)["p50"]
            / _timing_summary(warm_samples)["p50"]
        ),
        "warm_gflops": 2 * m * n * k / warm_s / 1e9,
        "plan_cache": {
            "builds": counters.builds,
            "hits": counters.hits,
            "bytes": counters.bytes,
        },
        "results_bitwise_equal": bool(np.array_equal(plan_out, dev_out)),
        "stats_match": plan_stats == dev_stats,
    }
    return record, failures


def full(json_path: str) -> int:
    """Measure every variant at paper size and write the trajectory file."""
    records: dict[str, dict] = {}
    failures: list[str] = []
    for variant, shape in PAPER_SHAPES.items():
        record, errs = bench_variant(
            variant, shape, device_reps=3, vectorized_reps=5)
        records[variant] = record
        failures.extend(errs)
        vec_t = record["vectorized_timing"]
        print(
            f"{variant:6s} {shape}: device {record['device_seconds']:.3f}s, "
            f"vectorized {record['vectorized_seconds']:.3f}s "
            f"(p50 {vec_t['p50']:.3f}s, p95 {vec_t['p95']:.3f}s) "
            f"-> {record['speedup']:.1f}x, "
            f"DMA {record['dma_gb_moved']:.3f} GB, "
            f"regcomm {record['regcomm_gb_moved']:.3f} GB"
        )

    sched = records["SCHED"]["speedup"]
    if sched < SCHED_SPEEDUP_FLOOR:
        failures.append(
            f"SCHED speedup {sched:.1f}x is below the "
            f"{SCHED_SPEEDUP_FLOOR:.0f}x acceptance floor"
        )

    plan_record, plan_errs = bench_stepwise_plan(PLAN_SHAPE, reps=5)
    failures.extend(plan_errs)
    print(
        f"stepwise_plan {PLAN_SHAPE}: device "
        f"{plan_record['device_seconds']:.3f}s, cold "
        f"{plan_record['cold_seconds']:.3f}s, warm "
        f"{plan_record['warm_seconds']:.3f}s "
        f"-> p50 {plan_record['speedup_p50']:.1f}x"
    )
    plan_speedup = plan_record["speedup_p50"]
    if plan_speedup < STEPWISE_PLAN_DEVICE_FLOOR:
        failures.append(
            f"warm-plan stepwise p50 speedup over device "
            f"{plan_speedup:.1f}x at {PLAN_SHAPE} is below the "
            f"{STEPWISE_PLAN_DEVICE_FLOOR:.0f}x acceptance floor"
        )

    smoke_records, smoke_errs = measure_smoke()
    failures.extend(smoke_errs)
    payload = {
        "benchmark": "bench_engine",
        "description": "device vs vectorized execution engine, per variant",
        "tolerance": {"rtol": 1e-12, "atol": 1e-9},
        "variants": records,
        "sched_speedup": sched,
        "stepwise_plan": plan_record,
        "stepwise_plan_speedup_p50": plan_speedup,
        "smoke": smoke_section(smoke_records),
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {json_path} (SCHED speedup {sched:.1f}x)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def smoke_cases() -> list[tuple[str, tuple[int, int, int], BlockingParams]]:
    """The two CI smoke configurations (single- and double-buffered)."""
    single = BlockingParams.small(double_buffered=False)
    return [
        ("PE", (2 * single.b_m, 2 * single.b_n, 2 * single.b_k), single),
        ("SCHED", (2 * SMOKE_PARAMS.b_m, 2 * SMOKE_PARAMS.b_n,
                   2 * SMOKE_PARAMS.b_k), SMOKE_PARAMS),
    ]


def _smoke_plan_counters() -> list[str]:
    """Verify plan-cache behavior end to end through ``Session``.

    Two repeated ``batch(parallel=True)`` waves over a single shape must
    compile exactly one plan, hit it on every other item (across the CG
    worker threads), and ``close()`` must drain the cache to zero bytes.
    """
    m, n, k = (SMOKE_PARAMS.b_m, SMOKE_PARAMS.b_n, SMOKE_PARAMS.b_k)
    rng = np.random.default_rng(11)
    items = [
        GemmRequest(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
        for _ in range(4)
    ]
    failures: list[str] = []
    session = Session(params=SMOKE_PARAMS, engine="stepwise", n_core_groups=2)
    try:
        session.batch(items, parallel=True)
        first = session.plan_cache.stats()
        session.batch(items, parallel=True)
        second = session.plan_cache.stats()
    finally:
        session.close()
    drained = session.plan_cache.stats()
    if first.builds != 1 or first.hits != len(items) - 1:
        failures.append(
            f"plan counters: first parallel batch expected 1 build / "
            f"{len(items) - 1} hits, got {first.builds} / {first.hits}"
        )
    if second.builds != 1 or second.hits != 2 * len(items) - 1:
        failures.append(
            f"plan counters: second parallel batch expected the plan to be "
            f"hit, not rebuilt (1 build / {2 * len(items) - 1} hits), got "
            f"{second.builds} / {second.hits}"
        )
    if drained.plans != 0 or drained.bytes != 0:
        failures.append(
            f"plan counters: Session.close() left {drained.plans} plans / "
            f"{drained.bytes} bytes in the cache"
        )
    return failures


def measure_smoke() -> tuple[dict[str, dict], list[str]]:
    """Run the smoke cases; return (records by case, failures)."""
    failures: list[str] = []
    records: dict[str, dict] = {}
    for variant, shape, params in smoke_cases():
        record, errs = bench_variant(
            variant, shape, params, device_reps=3, vectorized_reps=5)
        failures.extend(errs)
        records[variant] = record
        if record["speedup"] <= 1.0:
            failures.append(
                f"{variant}: vectorized engine is slower than device "
                f"({record['vectorized_seconds']:.4f}s vs "
                f"{record['device_seconds']:.4f}s)"
            )
    plan_shape = (2 * SMOKE_PARAMS.b_m, 2 * SMOKE_PARAMS.b_n,
                  2 * SMOKE_PARAMS.b_k)
    plan_record, plan_errs = bench_stepwise_plan(
        plan_shape, SMOKE_PARAMS, reps=5)
    failures.extend(plan_errs)
    records["STEPWISE_PLAN"] = plan_record
    if plan_record["speedup"] <= 1.0:
        failures.append(
            f"STEPWISE_PLAN: warm planned stepwise is slower than "
            f"device ({plan_record['warm_seconds']:.4f}s vs "
            f"{plan_record['device_seconds']:.4f}s)"
        )
    failures.extend(_smoke_plan_counters())
    return records, failures


def _p50_speedup(record: dict) -> float:
    """The p50-over-p50 speedup of a smoke record, either shape.

    Engine records compare device vs vectorized; stepwise-plan records
    (marked by ``warm_timing``) compare device vs warm planned.
    """
    fast = record.get("warm_timing") or record["vectorized_timing"]
    return record["device_timing"]["p50"] / fast["p50"]


def smoke_section(records: dict[str, dict]) -> dict:
    """The ``smoke`` block of the trajectory file: p50 speedups.

    The gate compares p50-over-p50 rather than best-of-reps speedup —
    medians are far less sensitive to a single lucky (or preempted)
    repetition on shared CI runners.
    """
    return {
        "speedup_p50": {v: _p50_speedup(r) for v, r in records.items()},
        "shapes": {v: r["shape"] for v, r in records.items()},
    }


def check_regression(
    records: dict[str, dict], baseline_path: str, max_regression: float
) -> list[str]:
    """Compare smoke p50 speedups against the committed baseline.

    Returns gate failures.  A baseline file without a ``smoke`` section
    (or a section missing a variant) only warns: the gate must not
    hard-fail the first run after the baseline format changes.
    """
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"WARN: baseline {baseline_path} unreadable ({exc}); "
              "skipping regression gate", file=sys.stderr)
        return []
    base_speedups = baseline.get("smoke", {}).get("speedup_p50")
    if not base_speedups:
        print(f"WARN: baseline {baseline_path} has no smoke section; "
              "skipping regression gate (run --smoke --write-baseline)",
              file=sys.stderr)
        return []
    failures: list[str] = []
    for variant, record in records.items():
        base = base_speedups.get(variant)
        if base is None:
            print(f"WARN: baseline has no smoke entry for {variant}; "
                  "skipping it", file=sys.stderr)
            continue
        now = _p50_speedup(record)
        floor = base * (1.0 - max_regression)
        verdict = "ok" if now >= floor else "REGRESSION"
        print(
            f"{variant:6s} p50 speedup {now:.2f}x vs baseline {base:.2f}x "
            f"(floor {floor:.2f}x at -{max_regression:.0%}): {verdict}"
        )
        if now < floor:
            failures.append(
                f"{variant}: p50 speedup regressed to {now:.2f}x, below "
                f"the {floor:.2f}x floor ({base:.2f}x baseline minus "
                f"{max_regression:.0%} allowance)"
            )
    return failures


def write_smoke_baseline(records: dict[str, dict], json_path: str) -> None:
    """Refresh the ``smoke`` section of the trajectory file in place.

    The full-mode payload (paper-sized per-variant records) is kept as
    is when the file already exists; only the smoke block is replaced.
    """
    try:
        with open(json_path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        payload = {"benchmark": "bench_engine"}
    payload["smoke"] = smoke_section(records)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote smoke baseline section to {json_path}")


def smoke(
    baseline: str | None = None,
    max_regression: float = 0.25,
    write_baseline: str | None = None,
) -> int:
    """Fast engine regression check for CI (no benchmark harness).

    Verifies result/statistics equivalence on small blocks for a
    single- and a double-buffered variant and fails if the vectorized
    engine is not faster than the device engine.  With ``baseline``
    set, additionally gates the p50 speedup of each case against the
    committed trajectory file (see :func:`check_regression`).
    """
    records, failures = measure_smoke()
    speedups = {v: r["speedup"] for v, r in records.items()}
    if baseline is not None:
        failures.extend(check_regression(records, baseline, max_regression))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        summary = ", ".join(f"{v} {s:.1f}x" for v, s in speedups.items())
        print(f"engine smoke OK: results and stats match; {summary}")
        if write_baseline is not None:
            write_smoke_baseline(records, write_baseline)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the fast CI regression check and exit",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="BENCH_engine.json",
        help="trajectory file to write in full mode (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="smoke mode: gate p50 speedups against this trajectory file",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRAC",
        help="smoke gate: allowed fractional p50-speedup loss vs the "
             "baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--write-baseline", nargs="?", const="BENCH_engine.json",
        metavar="PATH",
        help="smoke mode: refresh the smoke section of PATH (default "
             "BENCH_engine.json) after a passing run",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")
    if args.smoke:
        return smoke(args.baseline, args.max_regression, args.write_baseline)
    if args.baseline or args.write_baseline:
        parser.error("--baseline/--write-baseline require --smoke")
    return full(args.json)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
