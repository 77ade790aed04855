"""Unit tests for the Session facade (the documented entry point)."""

import numpy as np
import pytest

from repro import GemmRequest, Session
from repro.core.params import BlockingParams
from repro.errors import ConfigError
from repro.multi import SW26010Processor
from repro.workloads.matrices import gemm_operands, mixed_batch

PARAMS = BlockingParams.small(double_buffered=True)


class TestLifecycle:
    def test_context_manager_frees_everything(self):
        proc = SW26010Processor()
        baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
        with Session(processor=proc, params=PARAMS) as s:
            a, b, _ = gemm_operands(100, 60, 70, seed=0)
            s.dgemm(a, b)
            s.batch(mixed_batch(4, params=PARAMS, seed=0))
        assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines

    def test_close_idempotent_and_closed_session_raises(self):
        s = Session(params=PARAMS)
        s.close()
        s.close()
        with pytest.raises(ConfigError):
            s.dgemm(np.eye(8), np.eye(8))
        with pytest.raises(ConfigError):
            s.batch(mixed_batch(2, params=PARAMS))
        with pytest.raises(ConfigError):
            with s:
                pass

    def test_pool_size_plumbed(self):
        with Session(params=PARAMS, n_core_groups=2) as s:
            assert s.n_core_groups == 2
            assert s.batch(mixed_batch(4, params=PARAMS)).n_core_groups == 2


class TestDgemm:
    def test_matches_reference_and_pads_by_default(self):
        with Session(params=PARAMS) as s:
            a, b, c = gemm_operands(100, 60, 70, seed=1)
            out = s.dgemm(a, b, c, alpha=2.0, beta=-1.0)
            assert np.allclose(out, 2.0 * a @ b - c, rtol=1e-11, atol=1e-8)

    def test_trans_flags(self):
        with Session(params=PARAMS) as s:
            rng = np.random.default_rng(2)
            a = rng.standard_normal((64, 96))
            b = rng.standard_normal((48, 64))
            out = s.dgemm(a, b, transa="T", transb="T")
            assert np.allclose(out, a.T @ b.T, rtol=1e-11, atol=1e-8)

    def test_staging_stays_warm_across_calls(self):
        """Repeated same-shape calls hit the staging-plan cache."""
        with Session(params=PARAMS) as s:
            a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=3)
            s.dgemm(a, b)
            first = s.stats().traffic
            s.dgemm(a, b)
            second = s.stats().traffic
            assert second.plan_hits - first.plan_hits == 3
            assert second.allocations == first.allocations

    def test_per_call_check_override(self):
        with Session(params=PARAMS, check=False) as s:
            a = np.full((PARAMS.b_m, PARAMS.b_k), np.nan)
            b = np.ones((PARAMS.b_k, PARAMS.b_n))
            s.dgemm(a, b)            # NaNs compute fine unchecked
            with pytest.raises(AssertionError):
                s.dgemm(a, b, check=True)


class TestBatch:
    def test_batch_dispatches_and_isolates_by_default(self):
        with Session(params=PARAMS, check=True) as s:
            items = mixed_batch(6, params=PARAMS, seed=4)
            items[1] = GemmRequest(np.full_like(items[1].a, np.nan), items[1].b)
            result = s.batch(items)
            assert len(result.errors) == 1
            assert result.errors[0].index == 1

    def test_batch_can_propagate_failures(self):
        with Session(params=PARAMS, check=True) as s:
            items = mixed_batch(3, params=PARAMS, seed=5)
            items[0] = GemmRequest(np.full_like(items[0].a, np.nan), items[0].b)
            with pytest.raises(AssertionError):
                s.batch(items, isolate_failures=False)


class TestStats:
    def test_accumulates_across_calls_and_batches(self):
        with Session(params=PARAMS) as s:
            a, b, _ = gemm_operands(PARAMS.b_m, PARAMS.b_n, PARAMS.b_k, seed=6)
            s.dgemm(a, b)
            s.batch(mixed_batch(4, params=PARAMS, seed=6))
            s.batch(mixed_batch(2, params=PARAMS, seed=7))
            stats = s.stats()
            assert stats.calls == 1
            assert stats.batches == 2
            assert stats.items == 6
            assert stats.failures == 0
            assert stats.flops > 0
            assert stats.padded_flops >= stats.flops
            assert stats.traffic.dma_bytes > 0
            assert stats.traffic.staged == 3 * 7

    def test_flops_account_trans_shapes(self):
        with Session(params=PARAMS) as s:
            rng = np.random.default_rng(8)
            m, n, k = 32, 48, 80
            s.dgemm(rng.standard_normal((k, m)),
                    rng.standard_normal((k, n)), transa="T")
            assert s.stats().flops == 2 * m * n * k
