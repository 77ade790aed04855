"""Unit tests for convolution-as-GEMM."""

import numpy as np
import pytest

from repro.apps.conv import conv2d_gemm, conv2d_reference, im2col
from repro.core.params import BlockingParams
from repro.errors import ConfigError, UnsupportedShapeError

PARAMS = BlockingParams.small(double_buffered=True)


class TestIm2col:
    def test_shape(self):
        images = np.zeros((2, 3, 8, 8))
        cols = im2col(images, 3, 3)
        assert cols.shape == (3 * 9, 2 * 6 * 6)

    def test_patch_contents(self):
        images = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(images, 2, 2)
        # first output pixel's receptive field: rows 0-1, cols 0-1
        assert cols[:, 0].tolist() == [0.0, 1.0, 4.0, 5.0]
        # last output pixel: rows 2-3, cols 2-3
        assert cols[:, -1].tolist() == [10.0, 11.0, 14.0, 15.0]

    def test_stride(self):
        images = np.zeros((1, 1, 8, 8))
        cols = im2col(images, 2, 2, stride=2)
        assert cols.shape == (4, 16)

    def test_kernel_too_large(self):
        with pytest.raises(UnsupportedShapeError):
            im2col(np.zeros((1, 1, 2, 2)), 3, 3)

    def test_validates_inputs(self):
        with pytest.raises(UnsupportedShapeError):
            im2col(np.zeros((3, 8, 8)), 3, 3)
        with pytest.raises(ConfigError):
            im2col(np.zeros((1, 1, 8, 8)), 3, 3, stride=0)


class TestConv2dGemm:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_direct_convolution(self, rng, stride):
        images = rng.standard_normal((2, 3, 10, 10))
        kernels = rng.standard_normal((4, 3, 3, 3))
        out = conv2d_gemm(images, kernels, stride=stride, params=PARAMS)
        ref = conv2d_reference(images, kernels, stride=stride)
        assert out.shape == ref.shape
        assert np.allclose(out, ref, rtol=1e-10, atol=1e-10)

    def test_1x1_convolution_is_channel_mix(self, rng):
        images = rng.standard_normal((1, 4, 6, 6))
        kernels = rng.standard_normal((2, 4, 1, 1))
        out = conv2d_gemm(images, kernels, params=PARAMS)
        expected = np.einsum("oc,nchw->nohw", kernels[:, :, 0, 0], images)
        assert np.allclose(out, expected, rtol=1e-10)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            conv2d_gemm(np.zeros((1, 3, 8, 8)), np.zeros((2, 4, 3, 3)))

    def test_kernel_rank_checked(self):
        with pytest.raises(UnsupportedShapeError):
            conv2d_gemm(np.zeros((1, 3, 8, 8)), np.zeros((2, 3, 3)))

    def test_delta_kernel_is_identity(self):
        images = np.random.default_rng(3).standard_normal((1, 1, 6, 6))
        delta = np.zeros((1, 1, 3, 3))
        delta[0, 0, 1, 1] = 1.0
        out = conv2d_gemm(images, delta, params=PARAMS)
        assert np.allclose(out[0, 0], images[0, 0, 1:-1, 1:-1])


class TestConvBatch:
    def _layers(self, seed=0):
        rng = np.random.default_rng(seed)
        return [
            (rng.standard_normal((2, 3, 10, 10)),
             rng.standard_normal((4, 3, 3, 3))),
            (rng.standard_normal((1, 2, 8, 8)),
             rng.standard_normal((3, 2, 5, 5))),
            (rng.standard_normal((2, 3, 10, 10)),
             rng.standard_normal((4, 3, 3, 3))),
        ]

    def test_serial_batch_matches_reference(self):
        from repro.apps.conv import conv2d_gemm_batch

        layers = self._layers()
        maps = conv2d_gemm_batch(layers, params=PARAMS)
        assert len(maps) == 3
        for out, (images, kernels) in zip(maps, layers):
            assert np.allclose(out, conv2d_reference(images, kernels),
                               rtol=1e-9, atol=1e-7)

    def test_pool_batch_bit_identical_to_serial(self):
        """The pool path for conv layers is ``Session.batch`` over the
        lowered requests; folding its outputs matches the serial loop."""
        from repro.api import ConvRequest
        from repro.apps.conv import conv2d_gemm_batch
        from repro.core.session import Session
        from repro.multi import SW26010Processor

        layers = self._layers(seed=1)
        requests = [ConvRequest(images, kernels) for images, kernels in layers]
        proc = SW26010Processor()
        baselines = [cg.memory.used_bytes for cg in proc.core_groups]
        with Session(processor=proc, params=PARAMS, engine="device") as s:
            result = s.batch([r.lower() for r in requests])
        pooled = [r.fold(out) for r, out in zip(requests, result.outputs)]
        serial = conv2d_gemm_batch(layers, params=PARAMS)
        assert len(set(result.plan.assignments)) > 1
        assert all(np.array_equal(x, y) for x, y in zip(pooled, serial))
        assert [cg.memory.used_bytes for cg in proc.core_groups] == baselines

    def test_empty_batch_rejected(self):
        from repro.apps.conv import conv2d_gemm_batch

        with pytest.raises(ConfigError):
            conv2d_gemm_batch([])
