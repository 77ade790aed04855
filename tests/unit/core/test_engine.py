"""Unit tests for the execution-engine registry and its contracts."""

import numpy as np
import pytest

from repro.api import GemmRequest
from repro.core.batch import dgemm_batch
from repro.core.api import dgemm
from repro.core.engine import (
    ENGINES,
    DeviceEngine,
    StepwiseEngine,
    VectorizedEngine,
    get_engine,
)
from repro.core.engine.base import Engine
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.core.variants import get_variant
from repro.errors import ConfigError
from repro.workloads.matrices import gemm_operands

SINGLE = BlockingParams.small(double_buffered=False)
DOUBLE = BlockingParams.small(double_buffered=True)


class TestRegistry:
    def test_known_names_resolve(self):
        assert isinstance(get_engine("device"), DeviceEngine)
        assert isinstance(get_engine("vectorized"), VectorizedEngine)
        assert isinstance(get_engine("DEVICE"), DeviceEngine)
        assert isinstance(get_engine("stepwise"), StepwiseEngine)
        assert get_engine("stepwise").stepwise
        assert set(ENGINES) == {"device", "vectorized", "stepwise"}

    def test_instances_pass_through(self):
        eng = StepwiseEngine()
        assert get_engine(eng) is eng

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            get_engine("hardware")

    def test_every_engine_subclasses_engine(self):
        for cls in ENGINES.values():
            assert issubclass(cls, Engine)
            assert cls.name in ENGINES


class TestVectorizedContracts:
    """The vectorized engine enforces the same rules as the device path."""

    def test_double_buffered_variant_rejects_single_params(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=0)
        with pytest.raises(ValueError, match="requires double-buffered"):
            dgemm(a, b, c, beta=1.0, variant="SCHED", engine="vectorized",
                  params=SINGLE)

    def test_single_buffered_variant_rejects_double_params(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=0)
        with pytest.raises(ValueError, match="single-buffered variant"):
            dgemm(a, b, c, beta=1.0, variant="PE", engine="vectorized",
                  params=DOUBLE)

    def test_variant_without_owner_tables_is_rejected(self):
        # CANNON shares by shifting, not broadcasting — it has no owner
        # index tables, so the vectorized engine refuses it up front
        # (before touching the device or the operands).
        from repro.core.variants.cannon import CannonVariant

        with pytest.raises(ConfigError, match="no vectorized execution"):
            VectorizedEngine().run(CannonVariant(), None, None, None, None)


class TestStepwiseBitExact:
    @pytest.mark.parametrize("variant", ["PE", "ROW", "DB", "SCHED"])
    def test_paper_blocking(self, variant):
        """At the paper's blocking (pK = 96) the owner CPEs' column-major
        LDM tiles and the receivers' copies must still round like the
        stepwise engine's row-major stacks."""
        params = get_variant(variant).default_params()
        a, b, c = gemm_operands(params.b_m, params.b_n, params.b_k, seed=1)
        runs = [
            dgemm(a, b, c, beta=1.0, variant=variant, engine=engine,
                  params=params)
            for engine in ("device", "stepwise")
        ]
        assert np.array_equal(*runs)


class TestEngineSelection:
    """engine= threads through every entry point, with per-path defaults."""

    def test_dgemm_vectorized_matches_reference(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=3)
        out = dgemm(a, b, c, alpha=1.5, beta=-0.5, variant="SCHED",
                    engine="vectorized", params=DOUBLE)
        assert np.allclose(out, 1.5 * a @ b - 0.5 * c, rtol=1e-12, atol=1e-9)

    def test_dgemm_accepts_engine_instance(self):
        a, b, c = gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k, seed=4)
        out = dgemm(a, b, c, beta=1.0, variant="DB",
                    engine=StepwiseEngine(), params=DOUBLE)
        assert np.allclose(out, a @ b + c, rtol=1e-12, atol=1e-9)

    def test_dgemm_batch_engine_kwarg(self):
        items = [
            GemmRequest(*gemm_operands(DOUBLE.b_m, DOUBLE.b_n, DOUBLE.b_k,
                                       seed=s), alpha=1.0, beta=1.0)
            for s in (5, 6)
        ]
        result = dgemm_batch(items, engine="vectorized", params=DOUBLE,
                             pad=False)
        for item, out in zip(items, result.outputs):
            assert np.allclose(out, item.a @ item.b + item.c,
                               rtol=1e-12, atol=1e-9)

    def test_session_batch_defaults_to_vectorized(self):
        with Session(params=DOUBLE) as s:
            assert s.engine is None
            assert s.scheduler.engine == "vectorized"

    def test_session_explicit_engine_overrides_both_paths(self):
        with Session(params=DOUBLE, engine="device") as s:
            assert s.engine == "device"
            assert s.scheduler.engine == "device"

    def test_session_scalar_engine_override(self):
        a, b, c = gemm_operands(100, 60, 70, seed=7)
        with Session(params=DOUBLE) as s:
            out = s.dgemm(a, b, c, beta=1.0, engine="vectorized")
            assert np.allclose(out, a @ b + c, rtol=1e-11, atol=1e-8)
