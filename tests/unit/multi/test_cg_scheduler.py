"""Unit tests for the multi-CG batch scheduler (CGScheduler)."""

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.core.batch import dgemm_batch
from repro.core.params import BlockingParams
from repro.errors import ConfigError
from repro.multi import CGScheduler, SW26010Processor
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


def same_shape_items(n, m=None, cols=None, k=None, seed=0):
    m = m or PARAMS.b_m
    cols = cols or PARAMS.b_n
    k = k or PARAMS.b_k
    return [
        GemmRequest(*gemm_operands(m, cols, k, seed=seed + s)[:2])
        for s in range(n)
    ]


class TestConstruction:
    def test_builds_processor_when_missing(self):
        scheduler = CGScheduler(params=PARAMS)
        assert scheduler.n_core_groups == 4
        assert scheduler.processor.N_CORE_GROUPS == 4

    def test_pool_size_validated(self):
        with pytest.raises(ConfigError):
            CGScheduler(n_core_groups=0, params=PARAMS)
        with pytest.raises(ConfigError):
            CGScheduler(n_core_groups=5, params=PARAMS)

    def test_empty_batch_rejected(self):
        scheduler = CGScheduler(params=PARAMS)
        with pytest.raises(ConfigError):
            scheduler.run([])
        with pytest.raises(ConfigError):
            scheduler.plan([])


class TestUnknownEngineRejected:
    @pytest.mark.parametrize("kwarg", ["engine", "fallback_engine"])
    def test_constructor(self, kwarg):
        with pytest.raises(ConfigError, match="unknown engine"):
            CGScheduler(params=PARAMS, **{kwarg: "bogus"})

    def test_run_override_fails_before_any_item_executes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.multi.scheduler.dgemm",
            lambda *args, **kwargs: calls.append(args),
        )
        scheduler = CGScheduler(params=PARAMS, engine="stepwise",
                                fallback_engine="device")
        with pytest.raises(ConfigError, match="unknown engine"):
            scheduler.run(same_shape_items(2), engine="bogus")
        assert calls == []
        assert scheduler.resil_stats()["fallbacks"] == 0
        # the run guard was never taken: the scheduler still serves
        monkeypatch.undo()
        assert not scheduler.run(same_shape_items(1)).errors


class TestPlanning:
    def test_same_shape_items_bin_but_do_not_starve(self):
        """Affinity must not serialize a uniform batch on one CG."""
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        plan = scheduler.plan_shapes([(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)] * 8)
        used = set(plan.assignments)
        assert len(used) == 4
        assert max(plan.cg_seconds) <= 3 * min(plan.cg_seconds)

    def test_distinct_shapes_spread_least_loaded(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        shapes = [
            (PARAMS.b_m, PARAMS.b_n, PARAMS.b_k),
            (2 * PARAMS.b_m, PARAMS.b_n, PARAMS.b_k),
            (PARAMS.b_m, 2 * PARAMS.b_n, PARAMS.b_k),
            (PARAMS.b_m, PARAMS.b_n, 2 * PARAMS.b_k),
        ]
        plan = scheduler.plan_shapes(shapes)
        # four distinct shapes on an idle pool: one CG each
        assert sorted(plan.assignments) == [0, 1, 2, 3]

    def test_repeated_shape_keeps_home_cg(self):
        """A recurring shape sticks to its bin while loads stay close."""
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        shape = (PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
        other = (2 * PARAMS.b_m, 2 * PARAMS.b_n, 2 * PARAMS.b_k)
        plan = scheduler.plan_shapes([shape, other, shape])
        assert plan.assignments[0] == plan.assignments[2]

    def test_padded_shapes_share_a_bin(self):
        """Shapes that pad to the same block multiple are one bin."""
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        a = (PARAMS.b_m - 8, PARAMS.b_n - 8, PARAMS.b_k - 8)
        b = (PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)
        plan = scheduler.plan_shapes([a, b])
        assert plan.assignments[0] == plan.assignments[1]
        assert len(plan.shape_bins) == 1

    def test_makespan_never_exceeds_serial(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        items = mixed_batch(16, params=PARAMS, seed=0)
        plan = scheduler.plan(items)
        assert plan.makespan_seconds <= plan.serial_seconds
        assert plan.modeled_speedup >= 1.0
        assert 0.0 < plan.load_balance_efficiency <= 1.0

    def test_single_cg_pool_is_the_serial_baseline(self):
        scheduler = CGScheduler(n_core_groups=1, params=PARAMS)
        plan = scheduler.plan(mixed_batch(6, params=PARAMS, seed=0))
        assert plan.makespan_seconds == pytest.approx(plan.serial_seconds)
        assert plan.modeled_speedup == pytest.approx(1.0)

    def test_plan_shapes_allocates_nothing(self):
        """Paper-scale planning runs on bare shape tuples."""
        scheduler = CGScheduler(n_core_groups=4,
                                params=BlockingParams.paper_double())
        plan = scheduler.plan_shapes(
            [(16384, 16384, 16384), (8192, 4096, 12288)] * 4
        )
        assert len(plan.assignments) == 8
        assert plan.serial_seconds > 0

    def test_estimates_cached_per_padded_shape(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        scheduler.plan_shapes([(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k)] * 50)
        assert len(scheduler._seconds_cache) == 1


class TestExecution:
    def test_matches_serial_dgemm_batch_bitwise(self):
        items = mixed_batch(16, params=PARAMS, seed=0)
        serial = dgemm_batch(items, params=PARAMS)
        result = CGScheduler(n_core_groups=4, params=PARAMS).run(items)
        assert result.ok
        assert all(
            np.array_equal(x, y)
            for x, y in zip(serial.outputs, result.outputs)
        )
        assert result.makespan_seconds <= result.serial_seconds

    def test_all_cg_budgets_restored(self):
        proc = SW26010Processor()
        proc.cg(3).memory.store("user.resident", np.ones((8, 8)))
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        CGScheduler(proc, params=PARAMS).run(
            mixed_batch(8, params=PARAMS, seed=1)
        )
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines

    def test_traffic_attributed_per_cg(self):
        result = CGScheduler(n_core_groups=4, params=PARAMS).run(
            mixed_batch(8, params=PARAMS, seed=2)
        )
        active = [t for t in result.per_cg if t.items]
        assert len(active) >= 2
        for t in active:
            assert t.stats.dma_bytes > 0
            assert t.stats.staged == 3 * t.items
        assert result.dma_bytes == sum(t.stats.dma_bytes for t in result.per_cg)
        assert sum(t.items for t in result.per_cg) == len(result)

    def test_binned_items_hit_the_staging_plan_cache(self):
        """Same-shape items on one CG restage in place (the binning win)."""
        result = CGScheduler(n_core_groups=4, params=PARAMS).run(
            same_shape_items(8)
        )
        hits = sum(t.stats.plan_hits for t in result.per_cg)
        allocs = sum(t.stats.allocations for t in result.per_cg)
        # 8 items x 3 slots staged; at most one allocation per slot per CG
        assert hits + allocs == 3 * 8
        assert allocs <= 3 * 4

    def test_failure_isolated_to_item(self):
        proc = SW26010Processor()
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        items = same_shape_items(6)
        items[2] = GemmRequest(np.full_like(items[2].a, np.nan), items[2].b)
        scheduler = CGScheduler(proc, params=PARAMS, check=True)
        result = scheduler.run(items)
        assert len(result.errors) == 1
        error = result.errors[0]
        assert error.index == 2
        assert error.kind == "AssertionError"
        assert result.outputs[2] is None
        assert all(
            result.outputs[i] is not None for i in range(6) if i != 2
        )
        assert result.per_cg[error.core_group].failures == 1
        # the CG's context stays usable and budgets are intact
        assert CGScheduler(proc, params=PARAMS).run(same_shape_items(2)).ok
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines

    def test_isolate_failures_false_raises(self):
        items = same_shape_items(3)
        items[1] = GemmRequest(np.full_like(items[1].a, np.nan), items[1].b)
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS, check=True)
        with pytest.raises(AssertionError):
            scheduler.run(items, isolate_failures=False)

    def test_flops_count_successes_only(self):
        items = same_shape_items(4)
        items[0] = GemmRequest(np.full_like(items[0].a, np.nan), items[0].b)
        result = CGScheduler(n_core_groups=4, params=PARAMS, check=True).run(items)
        m, n, k = PARAMS.b_m, PARAMS.b_n, PARAMS.b_k
        assert result.flops == 3 * 2 * m * n * k

    def test_trans_items_supported(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((PARAMS.b_k, PARAMS.b_m))   # to transpose
        b = rng.standard_normal((PARAMS.b_n, PARAMS.b_k))
        items = [GemmRequest(a, b, transa="T", transb="T")]
        result = CGScheduler(n_core_groups=2, params=PARAMS).run(items)
        assert result.ok
        assert np.allclose(result.outputs[0], a.T @ b.T, rtol=1e-11, atol=1e-8)

    def test_scheduler_reusable_across_runs(self):
        scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
        first = scheduler.run(same_shape_items(3))
        second = scheduler.run(same_shape_items(3, seed=7))
        assert first.ok and second.ok


class TestDgemmBatchDelegation:
    """The pool path, ``CGScheduler.run``, keeps the serial
    ``dgemm_batch`` contract."""

    def test_n_core_groups_path_matches_serial(self):
        items = mixed_batch(8, params=PARAMS, seed=0)
        serial = dgemm_batch(items, params=PARAMS)
        pooled = CGScheduler(n_core_groups=4, params=PARAMS).run(
            items, isolate_failures=False
        )
        assert all(
            np.array_equal(x, y)
            for x, y in zip(serial.outputs, pooled.outputs)
        )
        assert pooled.n_core_groups == 4
        assert pooled.flops == serial.flops
        assert pooled.padded_flops == serial.padded_flops
        assert pooled.dma_bytes == serial.dma_bytes

    def test_processor_path(self):
        proc = SW26010Processor()
        result = CGScheduler(proc, params=PARAMS).run(
            same_shape_items(4), isolate_failures=False
        )
        assert result.ok

    def test_pool_path_raises_on_failure(self):
        """``isolate_failures=False`` keeps the serial raise-on-error
        contract, and the raise leaves every CG's budget intact."""
        proc = SW26010Processor()
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        items = same_shape_items(3)
        items[1] = GemmRequest(np.full_like(items[1].a, np.nan), items[1].b)
        scheduler = CGScheduler(proc, params=PARAMS, check=True)
        with pytest.raises(AssertionError):
            scheduler.run(items, isolate_failures=False)
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines
