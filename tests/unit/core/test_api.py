"""Unit tests for the public dgemm entry point."""

import numpy as np
import pytest

from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.errors import UnsupportedShapeError
from repro.workloads.matrices import gemm_operands


@pytest.fixture()
def small() -> BlockingParams:
    return BlockingParams.small(double_buffered=True)


class TestBasics:
    def test_default_variant_is_sched(self, small):
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        out = dgemm(a, b, c, alpha=1.0, beta=1.0, params=small, check=True)
        assert out.shape == (small.b_m, small.b_n)

    def test_c_optional_when_beta_zero(self, small):
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        out = dgemm(a, b, params=small)
        assert np.allclose(out, a @ b, rtol=1e-12, atol=1e-9)

    def test_beta_without_c_rejected(self, small):
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        with pytest.raises(UnsupportedShapeError):
            dgemm(a, b, beta=1.0, params=small)

    def test_input_arrays_unchanged(self, small):
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        snapshots = (a.copy(), b.copy(), c.copy())
        dgemm(a, b, c, beta=1.0, params=small)
        for arr, snap in zip((a, b, c), snapshots):
            assert np.array_equal(arr, snap)

    @pytest.mark.parametrize("variant", ["RAW", "PE", "ROW", "DB", "SCHED"])
    def test_all_variants_through_api(self, variant):
        if variant in ("PE", "ROW"):
            params = BlockingParams.small(double_buffered=False)
        else:
            params = BlockingParams.small(double_buffered=True)
        m, n, k = params.b_m, params.b_n, params.b_k
        a, b, c = gemm_operands(m, n, k, seed=3)
        out = dgemm(a, b, c, alpha=0.7, beta=0.3, variant=variant, params=params)
        assert np.allclose(out, reference_dgemm(0.7, a, b, 0.3, c), rtol=1e-12, atol=1e-9)


class TestRejectedBeforeStaging:
    """Bad input raises in the request funnel, before any operand is
    staged (staging is patched to fail loudly if it is reached)."""

    @pytest.fixture(autouse=True)
    def no_staging(self, monkeypatch):
        def staged(*args, **kwargs):
            raise AssertionError("dgemm staged an operand")

        monkeypatch.setattr(ExecutionContext, "stage", staged)
        monkeypatch.setattr(ExecutionContext, "stage_zeros", staged)

    def test_zero_dimension(self, small):
        with pytest.raises(UnsupportedShapeError, match="m=0"):
            dgemm(np.zeros((0, 4)), np.zeros((4, 3)), params=small, pad=True)

    def test_complex_operand(self, small):
        a = np.ones((4, 3)) + 1j
        with pytest.raises(UnsupportedShapeError, match="complex"):
            dgemm(a, np.ones((3, 2)), params=small, pad=True)


class TestShapeHandling:
    def test_non_multiple_rejected_without_pad(self, small):
        a = np.ones((small.b_m + 8, small.b_k))
        b = np.ones((small.b_k, small.b_n))
        with pytest.raises(UnsupportedShapeError):
            dgemm(a, b, params=small)

    def test_pad_extension(self, small, rng):
        m, n, k = small.b_m - 8, small.b_n - 4, small.b_k - 8
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        out = dgemm(a, b, c, alpha=1.2, beta=0.8, params=small, pad=True)
        assert out.shape == (m, n)
        assert np.allclose(out, reference_dgemm(1.2, a, b, 0.8, c), rtol=1e-12, atol=1e-9)

    def test_inner_dim_mismatch(self, small):
        with pytest.raises(UnsupportedShapeError):
            dgemm(np.ones((16, 8)), np.ones((9, 16)), params=small)

    def test_c_shape_mismatch(self, small):
        a = np.ones((small.b_m, small.b_k))
        b = np.ones((small.b_k, small.b_n))
        with pytest.raises(UnsupportedShapeError):
            dgemm(a, b, np.ones((4, 4)), beta=1.0, params=small)

    def test_non_2d_rejected(self, small):
        with pytest.raises(UnsupportedShapeError):
            dgemm(np.ones(4), np.ones((4, 4)), params=small)


class TestCoreGroupReuse:
    def test_stats_accumulate_on_shared_group(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small, core_group=cg)
        first = cg.dma.stats.bytes_total
        dgemm(a, b, params=small, core_group=cg)
        assert cg.dma.stats.bytes_total > first

    def test_fresh_group_frees_operands(self, small):
        # dgemm with no core_group must not leak matrices into a
        # caller-visible device; just check it runs twice cleanly
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small)
        dgemm(a, b, params=small)

    def test_check_flag_passes_on_correct_result(self, small):
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, c, beta=1.0, params=small, check=True)


class TestStagingLifecycle:
    """The memory-budget invariant: a dgemm call owns its staging."""

    def test_shared_group_budget_restored(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        baseline = cg.memory.used_bytes
        dgemm(a, b, params=small, core_group=cg)
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_no_legacy_staging_names_survive(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small, core_group=cg)
        names = {h.name for h in cg.memory.handles()}
        assert not any(n.startswith("dgemm.") for n in names)
        assert names == set()

    def test_budget_restored_when_variant_raises(self, small, monkeypatch):
        class ExplodingVariant:
            def default_params(self):
                return small

            def run(self, cg, a, b, c, **kwargs):
                raise RuntimeError("mid-run failure")

        monkeypatch.setattr(
            "repro.core.api.get_variant", lambda name: ExplodingVariant()
        )
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        baseline = cg.memory.used_bytes
        with pytest.raises(RuntimeError):
            dgemm(a, b, params=small, core_group=cg)
        assert cg.memory.used_bytes == baseline
        assert cg.memory.handles() == []

    def test_unrelated_resident_matrices_untouched(self, small):
        cg = CoreGroup()
        cg.memory.store("user.X", np.full((16, 16), 3.0))
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, params=small, core_group=cg)
        assert [h.name for h in cg.memory.handles()] == ["user.X"]
        assert cg.memory.array("user.X")[0, 0] == 3.0

    def test_external_context_keeps_staging_warm(self, small):
        cg = CoreGroup()
        a, b, _ = gemm_operands(small.b_m, small.b_n, small.b_k)
        with ExecutionContext(cg) as ctx:
            dgemm(a, b, params=small, context=ctx)
            allocs = cg.memory.stats.allocations
            dgemm(a, b, params=small, context=ctx)
            # second same-shape call restages in place: zero new arrays
            assert cg.memory.stats.allocations == allocs
        assert cg.memory.used_bytes == 0

    def test_single_host_copy_per_operand(self, small):
        cg = CoreGroup()
        a, b, c = gemm_operands(small.b_m, small.b_n, small.b_k)
        dgemm(a, b, c, beta=1.0, params=small, core_group=cg)
        # three operands, three allocations, no asfortranarray+copy churn
        assert cg.memory.stats.allocations == 3
        assert cg.memory.stats.in_place_stores == 0
