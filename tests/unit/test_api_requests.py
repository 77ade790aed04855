"""Unit tests for the typed request/response surface (repro.api)."""

import numpy as np
import pytest

from repro.api import (
    ConvRequest,
    GemmRequest,
    LuRequest,
    RequestError,
    RequestResult,
    SubmitOptions,
    as_request,
    format_bin,
)
from repro.core.params import BlockingParams
from repro.errors import ConfigError, UnsupportedShapeError

PARAMS = BlockingParams.small(double_buffered=True)


class TestGemmRequest:
    def test_validate_returns_effective_shape(self):
        r = GemmRequest(a=np.zeros((10, 7)), b=np.zeros((7, 5)))
        assert r.validate() == (10, 5, 7)

    def test_validate_accounts_for_trans(self):
        r = GemmRequest(
            a=np.zeros((7, 10)), b=np.zeros((5, 7)), transa="T", transb="T"
        )
        assert r.validate() == (10, 5, 7)

    def test_inner_dimension_mismatch(self):
        r = GemmRequest(a=np.zeros((4, 3)), b=np.zeros((5, 2)))
        with pytest.raises(UnsupportedShapeError, match="inner dimensions"):
            r.validate()

    def test_bad_trans_flag(self):
        r = GemmRequest(a=np.zeros((4, 3)), b=np.zeros((3, 2)), transa="C")
        with pytest.raises(UnsupportedShapeError, match="transa"):
            r.validate()

    def test_beta_without_c(self):
        r = GemmRequest(a=np.zeros((4, 3)), b=np.zeros((3, 2)), beta=0.5)
        with pytest.raises(UnsupportedShapeError, match="requires an input C"):
            r.validate()

    def test_c_shape_mismatch(self):
        r = GemmRequest(
            a=np.zeros((4, 3)), b=np.zeros((3, 2)), c=np.zeros((4, 4)),
            beta=1.0,
        )
        with pytest.raises(UnsupportedShapeError, match="expected"):
            r.validate()

    def test_shape_bin_pads_to_block_multiples(self):
        r = GemmRequest(a=np.zeros((10, 7)), b=np.zeros((7, 5)))
        assert r.shape_bin(PARAMS) == ("gemm", *PARAMS.pad_shape(10, 7, 5))

    def test_same_bin_for_shapes_padding_alike(self):
        small = GemmRequest(a=np.zeros((10, 7)), b=np.zeros((7, 5)))
        other = GemmRequest(a=np.zeros((12, 9)), b=np.zeros((9, 6)))
        assert small.shape_bin(PARAMS) == other.shape_bin(PARAMS)


class TestRejectedAtTheFunnel:
    """Empty dimensions and complex operands fail validation, naming
    the dimension or the dtype."""

    @pytest.mark.parametrize(
        "a_shape, b_shape, dim",
        [((0, 4), (4, 3), "m=0"), ((4, 4), (4, 0), "n=0"),
         ((4, 0), (0, 3), "k=0")],
    )
    def test_gemm_zero_dimension(self, a_shape, b_shape, dim):
        r = GemmRequest(a=np.zeros(a_shape), b=np.zeros(b_shape))
        with pytest.raises(UnsupportedShapeError, match=dim):
            r.validate()

    @pytest.mark.parametrize("operand", ["a", "b", "c"])
    def test_gemm_complex_operand(self, operand):
        ops = {"a": np.ones((4, 3)), "b": np.ones((3, 2)),
               "c": np.ones((4, 2))}
        ops[operand] = ops[operand] + 1j
        r = GemmRequest(**ops, beta=1.0)
        with pytest.raises(UnsupportedShapeError, match="complex"):
            r.validate()

    def test_conv_zero_dimension(self):
        r = ConvRequest(images=np.zeros((0, 2, 8, 8)),
                        kernels=np.zeros((3, 2, 3, 3)))
        with pytest.raises(UnsupportedShapeError, match="n=0"):
            r.validate()

    def test_conv_complex_operand(self):
        r = ConvRequest(images=np.zeros((1, 2, 8, 8)),
                        kernels=np.zeros((3, 2, 3, 3), dtype=complex))
        with pytest.raises(UnsupportedShapeError, match="complex"):
            r.validate()

    def test_lu_zero_dimension(self):
        with pytest.raises(UnsupportedShapeError, match="n=0"):
            LuRequest(a=np.zeros((0, 0))).validate()

    def test_lu_complex_operand(self):
        with pytest.raises(UnsupportedShapeError, match="complex"):
            LuRequest(a=np.eye(4, dtype=complex)).validate()


class TestContentHash:
    def test_equal_contents_equal_hash(self):
        a, b = np.ones((4, 3)), np.ones((3, 2))
        assert (
            GemmRequest(a=a, b=b).content_hash()
            == GemmRequest(a=a.copy(), b=b.copy()).content_hash()
        )

    def test_hash_covers_operands_and_attributes(self):
        a, b, c = np.ones((4, 3)), np.ones((3, 2)), np.ones((4, 2))
        base = GemmRequest(a=a, b=b).content_hash()
        assert GemmRequest(a=a + 1, b=b).content_hash() != base
        assert GemmRequest(a=a, b=b, alpha=2.0).content_hash() != base
        assert (
            GemmRequest(a=a, b=b, c=c, beta=1.0).content_hash() != base
        )

    def test_hash_distinguishes_kinds(self):
        a = np.eye(8)
        assert (
            LuRequest(a=a).content_hash()
            != GemmRequest(a=a, b=a).content_hash()
        )


class TestLuRequest:
    def test_validate(self):
        assert LuRequest(a=np.eye(12), panel=4).validate() == (12, 12, 4)

    def test_rejects_non_square(self):
        with pytest.raises(UnsupportedShapeError, match="square"):
            LuRequest(a=np.zeros((4, 5))).validate()

    def test_rejects_bad_panel(self):
        with pytest.raises(ConfigError, match="panel"):
            LuRequest(a=np.eye(4), panel=0).validate()

    def test_shape_bin(self):
        assert LuRequest(a=np.eye(12), panel=4).shape_bin(PARAMS) == (
            "lu", 12, 4,
        )


class TestConvRequest:
    def test_validate_returns_lowered_shape(self):
        r = ConvRequest(
            images=np.zeros((2, 3, 8, 8)), kernels=np.zeros((4, 3, 3, 3))
        )
        # m=o, n=n*oh*ow, k=c*kh*kw
        assert r.validate() == (4, 2 * 6 * 6, 3 * 3 * 3)
        assert r.fold_shape() == (2, 4, 6, 6)

    def test_channel_mismatch(self):
        r = ConvRequest(
            images=np.zeros((2, 3, 8, 8)), kernels=np.zeros((4, 2, 3, 3))
        )
        with pytest.raises(UnsupportedShapeError, match="channels"):
            r.validate()

    def test_lower_fold_round_trip_matches_direct_conv(self):
        rng = np.random.default_rng(0)
        r = ConvRequest(
            images=rng.standard_normal((2, 2, 6, 6)),
            kernels=rng.standard_normal((3, 2, 3, 3)),
        )
        gemm = r.lower()
        out = r.fold(np.asarray(gemm.a) @ np.asarray(gemm.b))
        n, o, oh, ow = r.fold_shape()
        assert out.shape == (n, o, oh, ow)
        # spot-check one output pixel against the direct correlation
        patch = np.asarray(r.images)[1, :, 2:5, 3:6]
        expected = float(np.sum(patch * np.asarray(r.kernels)[2]))
        assert np.isclose(out[1, 2, 2, 3], expected)


class TestSubmitOptions:
    def test_defaults_defer_to_session(self):
        opts = SubmitOptions()
        assert (opts.engine, opts.check, opts.max_retries) == (
            None, None, None,
        )

    def test_engine_is_normalized(self):
        assert SubmitOptions(engine="Device").engine == "device"

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError, match="max_retries"):
            SubmitOptions(max_retries=-1)

    def test_hashable_for_coalescing(self):
        assert hash(SubmitOptions(engine="device")) == hash(
            SubmitOptions(engine="device")
        )
        assert SubmitOptions() in {SubmitOptions()}


class TestResponses:
    def test_result_ok_and_rejected(self):
        assert RequestResult(value=1).ok
        rejected = RequestResult(
            error=RequestError(
                kind="RejectedError", message="full", retryable=True
            )
        )
        assert not rejected.ok
        assert rejected.rejected
        assert rejected.error.retryable
        shape = RequestResult(
            error=RequestError(kind="UnsupportedShapeError", message="bad")
        )
        assert not shape.rejected

    def test_error_str(self):
        err = RequestError(kind="ConfigError", message="nope")
        assert str(err) == "ConfigError: nope"


class TestFormatBin:
    def test_renders_kind_and_dims(self):
        assert format_bin(("gemm", 64, 96, 32)) == "gemm:64x96x32"
        assert format_bin(("lu", 256, 64)) == "lu:256x64"


class TestAsRequest:
    def test_passes_typed_requests_through(self):
        r = GemmRequest(a=np.eye(4), b=np.eye(4))
        assert as_request(r) is r

    def test_coerces_tuples(self):
        a, b, c = np.eye(4), np.eye(4), np.eye(4)
        assert isinstance(as_request((a, b)), GemmRequest)
        coerced = as_request((a, b, c))
        assert coerced.c is c

    def test_rejects_everything_else(self):
        with pytest.raises(ConfigError, match="expected a"):
            as_request([np.eye(4), np.eye(4)])
