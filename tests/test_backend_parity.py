"""Property-based fast-vs-reference parity for the kernel backend interface.

Every kernel op behind :class:`repro.nn.backend.KernelBackend` — matmul,
reductions, elementwise nonlinearities, the softmax family and the fused
linear / layer-norm kernels — is exercised under hypothesis across dtypes,
shapes and broadcast patterns.  The fast backend (float32 compute, float64
accumulation) must stay within a float32-rounding bound of the float64
reference; the reference backend must stay *bit-identical* to the raw numpy
expressions the engine historically inlined.

Fused backward paths are gradient-checked in float64 (via the reference
backend, whose fused kernels share the implementation), and the segment
attention path is checked against the dense block-diagonal-mask path it
replaces.  End to end, a batched cone encode on the fast backend stays within
1e-5 of reference and takes the fused kernels that make it fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from encode_reference import build_cone_workload, cone_tags, fast_clone, run_backend_parity
from gradcheck import gradcheck
from repro.nn import (
    MultiHeadAttention,
    SegmentSpec,
    Tensor,
    profile_kernels,
    resolve_backend,
    use_backend,
)
from repro.nn.functional import fused_layer_norm, fused_linear

REF = resolve_backend("reference")
FAST = resolve_backend("fast")

EPS32 = float(np.finfo(np.float32).eps)
DTYPES = (np.float64, np.float32)
ACTIVATIONS = (None, "relu", "gelu", "tanh")

finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)


def arrays(shape, dtype=np.float64):
    return hnp.arrays(dtype=dtype, shape=shape, elements=finite)


def small_shapes(min_dims=1, max_dims=3):
    return hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=6)


def assert_within(fast_out, ref_out, bound):
    """Elementwise |fast - ref| <= bound (both promoted to float64)."""
    fast64 = np.asarray(fast_out, dtype=np.float64)
    ref64 = np.asarray(ref_out, dtype=np.float64)
    np.testing.assert_array_less(
        np.abs(fast64 - ref64), np.broadcast_to(np.asarray(bound, dtype=np.float64), ref64.shape) + 1e-300
    )


# ----------------------------------------------------------------------
# Reference backend: bit-identical to the historical numpy expressions
# ----------------------------------------------------------------------
class TestReferenceBitIdentity:
    @given(st.data(), small_shapes())
    @settings(max_examples=40, deadline=None)
    def test_elementwise_and_softmax(self, data, shape):
        x = data.draw(arrays(shape))
        assert np.array_equal(REF.exp(x), np.exp(x))
        assert np.array_equal(REF.tanh(x), np.tanh(x))
        assert np.array_equal(REF.sigmoid(x), 1.0 / (1.0 + np.exp(-x)))
        out, mask = REF.relu(x)
        assert np.array_equal(out, x * (x > 0))
        assert np.array_equal(mask, (x > 0).astype(x.dtype))
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        assert np.array_equal(REF.softmax(x), exp / exp.sum(axis=-1, keepdims=True))
        assert np.array_equal(
            REF.log_softmax(x), shifted - np.log(exp.sum(axis=-1, keepdims=True))
        )
        assert np.array_equal(REF.sum(x, axis=-1), x.sum(axis=-1))

    @given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matmul(self, data, n, m, k):
        a = data.draw(arrays((n, m)))
        b = data.draw(arrays((m, k)))
        assert np.array_equal(REF.matmul(a, b), a @ b)
        # float64 payloads pass through untouched
        assert REF.asarray(a) is a

    def test_reference_policy_flags(self):
        assert REF.compute_dtype == np.float64
        assert not REF.fused
        assert not REF.segment_attention
        assert FAST.compute_dtype == np.float32
        assert FAST.accum_dtype == np.float64
        assert FAST.fused
        assert FAST.segment_attention


# ----------------------------------------------------------------------
# Fast backend: float32 parity with the float64 reference, all ops
# ----------------------------------------------------------------------
class TestFastKernelParity:
    @given(st.data(), st.integers(1, 5), st.integers(1, 6), st.integers(1, 5),
           st.sampled_from(DTYPES), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matmul(self, data, n, m, k, dtype, batched):
        shape_a = (2, n, m) if batched else (n, m)
        a = data.draw(arrays(shape_a, dtype))
        b = data.draw(arrays((m, k), dtype))
        out = FAST.matmul(a, b)
        assert out.dtype == np.float32
        a64 = np.asarray(a, dtype=np.float64)
        b64 = np.asarray(b, dtype=np.float64)
        # accumulation + input-cast rounding, elementwise magnitude bound
        bound = 1e-6 + 8 * (m + 2) * EPS32 * (np.abs(a64) @ np.abs(b64))
        assert_within(out, a64 @ b64, bound)

    @given(st.data(), small_shapes(), st.sampled_from(DTYPES),
           st.sampled_from([None, 0, -1]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sum_accumulates_in_float64(self, data, shape, dtype, axis, keepdims):
        x = data.draw(arrays(shape, dtype))
        out = FAST.sum(x, axis=axis, keepdims=keepdims)
        assert np.asarray(out).dtype == np.float32
        x64 = np.asarray(x, dtype=np.float64)
        ref = x64.sum(axis=axis, keepdims=keepdims)
        # float64 master accumulation: only the input cast and the final
        # narrowing round — no O(n) float32 error growth.
        bound = 1e-6 + 4 * EPS32 * np.abs(x64).sum(axis=axis, keepdims=keepdims)
        assert_within(out, ref, bound)

    @given(st.data(), small_shapes(), st.sampled_from(DTYPES))
    @settings(max_examples=60, deadline=None)
    def test_elementwise(self, data, shape, dtype):
        x = data.draw(arrays(shape, dtype))
        x64 = np.asarray(x, dtype=np.float64)
        x32 = np.asarray(x, dtype=np.float32)
        np.testing.assert_allclose(FAST.exp(x32), np.exp(x64), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(FAST.tanh(x32), np.tanh(x64), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(
            FAST.sigmoid(x32), 1.0 / (1.0 + np.exp(-x64)), rtol=1e-4, atol=1e-6
        )
        fast_relu, _ = FAST.relu(x32)
        ref_relu, _ = REF.relu(x64)
        np.testing.assert_allclose(fast_relu, ref_relu, rtol=1e-5, atol=1e-6)
        fast_gelu, _ = FAST.gelu(x32)
        ref_gelu, _ = REF.gelu(x64)
        np.testing.assert_allclose(fast_gelu, ref_gelu, rtol=1e-4, atol=1e-5)

    @given(st.data(), small_shapes(), st.sampled_from(DTYPES))
    @settings(max_examples=60, deadline=None)
    def test_softmax_family(self, data, shape, dtype):
        x = data.draw(arrays(shape, dtype))
        x64 = np.asarray(x, dtype=np.float64)
        fast_sm = FAST.softmax(x)
        assert fast_sm.dtype == np.float32
        np.testing.assert_allclose(fast_sm, REF.softmax(x64), atol=1e-5)
        np.testing.assert_allclose(
            np.asarray(fast_sm, dtype=np.float64).sum(axis=-1), 1.0, atol=1e-5
        )
        np.testing.assert_allclose(
            FAST.log_softmax(x), REF.log_softmax(x64), atol=1e-4, rtol=1e-5
        )

    @given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
           st.sampled_from(ACTIVATIONS), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fused_linear(self, data, n, fan_in, fan_out, activation, use_bias, batched):
        x_shape = (2, n, fan_in) if batched else (n, fan_in)
        x = data.draw(arrays(x_shape))
        w = data.draw(arrays((fan_in, fan_out)))
        b = data.draw(arrays((fan_out,))) if use_bias else None
        ref_out, _ = REF.linear(x, w, b, activation)
        fast_out, _ = FAST.linear(x, w, b, activation)
        assert fast_out.dtype == np.float32
        assert fast_out.shape == ref_out.shape
        # pre-activation magnitude bound; every fused activation is
        # (roughly) 1-Lipschitz so the bound survives the nonlinearity.
        pre_mag = np.abs(x).reshape(-1, fan_in) @ np.abs(w)
        if b is not None:
            pre_mag = pre_mag + np.abs(b)
        bound = (1e-5 + 16 * (fan_in + 2) * EPS32 * pre_mag).reshape(ref_out.shape)
        assert_within(fast_out, ref_out, bound)

    @given(st.data(), st.integers(1, 4), st.integers(2, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fused_layer_norm(self, data, rows, dim, batched):
        shape = (2, rows, dim) if batched else (rows, dim)
        x = data.draw(arrays(shape))
        gamma = data.draw(arrays((dim,)))
        beta = data.draw(arrays((dim,)))
        eps = 1e-5
        ref_out, (_, inv_std, _) = REF.layer_norm(x, gamma, beta, eps)
        fast_out, _ = FAST.layer_norm(
            x.astype(np.float32), gamma.astype(np.float32), beta.astype(np.float32), eps
        )
        assert fast_out.dtype == np.float32
        # Centring nearly-equal rows cancels in float32, and the loss is then
        # amplified by inv_std — the bound must carry both factors.
        row_mag = np.abs(x).max(axis=-1, keepdims=True) + 1.0
        bound = 1e-5 + 64 * EPS32 * row_mag * inv_std * (np.abs(gamma) + 1.0)
        assert_within(fast_out, ref_out, bound)


# ----------------------------------------------------------------------
# Fused backward paths: gradient-checked in float64
# ----------------------------------------------------------------------
class TestFusedGradcheck:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_fused_linear_gradients(self, activation, use_bias):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        with use_backend("reference"):
            if use_bias:
                b = rng.normal(size=(5,))
                gradcheck(
                    lambda x, w, b: fused_linear(x, w, b, activation=activation).sum(),
                    [x, w, b],
                )
            else:
                gradcheck(
                    lambda x, w: fused_linear(x, w, None, activation=activation).sum(),
                    [x, w],
                )

    def test_fused_linear_gradients_batched_input(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=(3,))
        with use_backend("reference"):
            gradcheck(lambda x, w, b: fused_linear(x, w, b, activation="gelu").sum(), [x, w, b])

    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4)])
    def test_fused_layer_norm_gradients(self, shape):
        rng = np.random.default_rng(13)
        x = rng.normal(size=shape)
        gamma = rng.normal(size=(shape[-1],))
        beta = rng.normal(size=(shape[-1],))
        with use_backend("reference"):
            gradcheck(lambda x, g, b: fused_layer_norm(x, g, b).sum(), [x, gamma, beta])

    def test_fused_matches_composed_float64(self):
        """Under float64 the fused layer-norm node equals the composed path."""
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 6))
        gamma = rng.normal(size=(6,))
        beta = rng.normal(size=(6,))
        with use_backend("reference"):
            from repro.nn.functional import layer_norm

            composed = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
            fused = fused_layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
        np.testing.assert_allclose(fused.data, composed.data, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Segment attention ≡ dense block-diagonal-mask attention
# ----------------------------------------------------------------------
class TestSegmentAttentionParity:
    def _block_diag_mask(self, sizes):
        total = sum(sizes)
        mask = np.zeros((total, total), dtype=bool)
        start = 0
        for size in sizes:
            mask[start : start + size, start : start + size] = True
            start += size
        return mask

    @pytest.mark.parametrize("sizes", [[2, 3], [1, 4, 4, 2], [3]])
    def test_matches_dense_masked_attention(self, sizes):
        rng = np.random.default_rng(23)
        dim, heads = 8, 2
        total = sum(sizes)
        with use_backend("reference"):
            attn = MultiHeadAttention(dim, heads, rng=rng)
            x = rng.normal(size=(total, dim))
            dense = attn(Tensor(x), attn_mask=self._block_diag_mask(sizes))
            starts = np.cumsum([0] + sizes[:-1])
            spec = SegmentSpec(
                [np.arange(s, s + n) for s, n in zip(starts, sizes)]
            )
            segmented = attn(Tensor(x), segments=spec)
        np.testing.assert_allclose(segmented.data, dense.data, rtol=1e-10, atol=1e-12)

    def test_non_contiguous_rows_and_gradients(self):
        """Segments with scattered rows (node rows + trailing CLS slot)."""
        rng = np.random.default_rng(29)
        dim, heads = 8, 4
        # rows 0-4 are nodes of two graphs; rows 5-6 are their CLS slots
        segments = [np.array([0, 1, 5]), np.array([2, 3, 4, 6])]
        perm_mask = np.zeros((7, 7), dtype=bool)
        for rows in segments:
            perm_mask[np.ix_(rows, rows)] = True
        with use_backend("reference"):
            attn = MultiHeadAttention(dim, heads, rng=rng)
            x = rng.normal(size=(7, dim))
            dense = attn(Tensor(x), attn_mask=perm_mask)
            xt = Tensor(x, requires_grad=True)
            segmented = attn(xt, segments=SegmentSpec(segments))
            segmented.sum().backward()
        np.testing.assert_allclose(segmented.data, dense.data, rtol=1e-10, atol=1e-12)
        assert xt.grad is not None and np.all(np.isfinite(xt.grad))

    def test_propagate_matches_dense_block_diagonal(self):
        rng = np.random.default_rng(31)
        sizes = [2, 3, 2]
        blocks = [rng.normal(size=(s, s)) for s in sizes]
        starts = np.cumsum([0] + sizes[:-1])
        spec = SegmentSpec(
            [np.arange(s, s + n) for s, n in zip(starts, sizes)], blocks=blocks
        )
        dense = np.zeros((sum(sizes), sum(sizes)))
        for s, block in zip(starts, blocks):
            dense[s : s + block.shape[0], s : s + block.shape[0]] = block
        hidden = rng.normal(size=(sum(sizes), 5))
        with use_backend("reference"):
            out = spec.propagate(Tensor(hidden))
        np.testing.assert_allclose(out.data, dense @ hidden, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# End-to-end module parity under use_backend
# ----------------------------------------------------------------------
class TestModuleParity:
    def _rel(self, fast, ref):
        num = float(np.linalg.norm(np.asarray(fast, np.float64) - ref))
        return num / max(float(np.linalg.norm(ref)), 1e-12)

    def test_mlp_forward_parity(self):
        from repro.nn import GELU, LayerNorm, Linear, Sequential

        rng = np.random.default_rng(37)
        x = rng.normal(size=(6, 16))
        outputs = {}
        for name in ("reference", "fast"):
            with use_backend(name):
                mrng = np.random.default_rng(41)
                mlp = Sequential(
                    Linear(16, 32, rng=mrng), GELU(), Linear(32, 8, rng=mrng), LayerNorm(8)
                )
                outputs[name] = np.asarray(mlp(Tensor(x)).data, dtype=np.float64)
        assert outputs["fast"].dtype == np.float64  # promoted copy for comparison
        assert self._rel(outputs["fast"], outputs["reference"]) <= 1e-5

    def test_encoder_batch_parity(self):
        """The end-to-end guarantee: fast encode within 1e-5 of reference."""
        from repro.core import NetTAG, NetTAGConfig

        model = NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(3))
        cones = build_cone_workload(num_designs=2)
        max_rel = run_backend_parity(model, cones, rtol=1e-5)
        assert max_rel <= 1e-5

    def test_fast_encode_takes_the_fused_kernels(self):
        """The fast backend's speed comes from its fused linear kernel, which
        the reference backend never calls; counted, not timed."""
        from repro.core import NetTAG, NetTAGConfig

        model = NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(3))
        cones = build_cone_workload(num_designs=2)
        tags = cone_tags(model, cones)
        calls = {}
        for name, encoder in (("reference", model), ("fast", fast_clone(model))):
            with use_backend(name), profile_kernels() as profile:
                encoder.encode_batch(cones, tags=tags)
            calls[name] = profile.calls.get("linear", 0)
        assert calls["reference"] == 0
        assert calls["fast"] > 0
