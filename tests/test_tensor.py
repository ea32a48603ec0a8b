import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    DTYPES,
    FD_REL_TOL,
    as_float64,
    batchnorm1d_grads_keeping_xhat,
    batchnorm1d_running,
    blas_thread_counts,
    blas_threads,
    check_gradients,
    conv1d_batched,
    conv1d_forward_two_path,
    conv1d_im2col,
    softmax_cross_entropy,
    weighted_sum,
)

from lgpnet.errors import ShapeError
from lgpnet.tensor import (
    BatchNormState,
    Tensor,
    aggregate,
    aggregate_backward,
    batchnorm1d,
    batchnorm1d_backward,
    conv1d,
    conv1d_backward,
    linear,
    linear_backward,
    max_pool_time,
    max_pool_time_backward,
)
import lgpnet.tensor as tensor_mod


def conv1d_summed_from_bias_and_zeros(x, w, b, g):
    """conv1d's output and input gradient for upstream gradient g, summed as the
    tap-table form did before its whole taps wrote directly: the output from
    the bias plus each tap, dX from zeros plus each tap's share, in tap order."""
    n, c_in, t = x.shape
    c_out, _, k = w.shape
    table = []
    for j in range(k):
        s = j - k // 2
        lo, hi = max(0, -s), min(t, t - s)
        if lo < hi:
            table.append((j, lo, hi, s))
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    y = np.empty((n, c_out, t))
    y[...] = b[None, :, None]
    term = np.empty_like(y)
    for j, lo, hi, s in table:
        y[:, :, lo:hi] += np.matmul(taps[j], x[:, :, lo + s : hi + s], out=term[:, :, lo:hi])
    share = np.matmul(w.reshape(c_out, c_in * k).T, g).reshape(n, c_in, k, t)
    gx = np.zeros((n, c_in, t))
    for j, lo, hi, s in table:
        gx[:, :, lo + s : hi + s] += share[:, :, j, lo:hi]
    return y, gx


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 7)))
        w = Tensor(np.eye(3)[:, :, None])  # 1x1 kernel, identity over channels
        b = Tensor(np.zeros(3))
        out = conv1d(x, w, b)
        assert np.allclose(out.data, x.data, atol=1e-15)

    def test_hand_convolution(self):
        x = Tensor(np.ones((1, 1, 4)))
        w = Tensor(np.ones((1, 1, 3)))
        b = Tensor(np.zeros(1))
        out = conv1d(x, w, b)
        assert np.array_equal(out.data[0, 0], [2.0, 3.0, 3.0, 2.0])

    def test_gradients(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        r = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        coeffs = rng.normal(size=(2, 4, 8))
        gx = conv1d_backward(coeffs, x, w, b)  # the residual's gradient is the upstream one
        worst = check_gradients(
            lambda: weighted_sum(conv1d(x, w, b, residual=r), coeffs), [gx, w.grad, b.grad, coeffs], [x, w, b, r]
        )
        assert worst < FD_REL_TOL

    def test_residual_is_added_after_the_taps(self):
        rng = np.random.default_rng(2)
        x, w = Tensor(rng.normal(size=(2, 3, 8))), Tensor(rng.normal(size=(4, 3, 3)))
        b, r = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=(2, 4, 8)))
        out = conv1d(x, w, b, residual=r)
        assert np.array_equal(out.data, r.data + conv1d(x, w, b).data)
        with pytest.raises(ShapeError, match="residual"):
            conv1d(x, w, b, residual=Tensor(r.data[:, :, :7]))  # the output is 8 long

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("t", [1, 2, 6])
    def test_output_keeps_the_input_length(self, t, k):
        out = conv1d(Tensor(np.ones((2, 3, t))), Tensor(np.ones((4, 3, k))), Tensor(np.zeros(4)))
        assert out.shape == (2, 4, t)
        # each output sums the taps that land inside x: min(t, o + k//2 + 1) - max(0, o - k//2) of them
        o = np.arange(t)
        inside = np.minimum(t, o + k // 2 + 1) - np.maximum(0, o - k // 2)
        assert np.array_equal(out.data[0, 0], 3.0 * inside)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("t", [1, 2, 8, 9])
    def test_matches_im2col_reference(self, t, stride, padding, k, n):
        """Output and all three gradients against the im2col reference at any
        padding and stride.

        conv1d pads k // 2 zeros on each side, so the reference at padding p
        is conv1d of x with d = p - k // 2 more zeros on each side when d > 0,
        and conv1d's output without its first and last -d positions when
        d < 0; at stride s it is every s-th of those positions.  So conv1d is
        compared on that sample, with a zero upstream gradient at the
        positions left out, and x's gradient is the padded input's gradient
        inside x.  Padding 3 exceeds k // 2, so some outputs get no share
        from some taps.
        """
        rng = np.random.default_rng(100 * t + 10 * stride + padding + k + n)
        x_data = rng.normal(size=(n, 3, t))
        w_data = rng.normal(size=(4, 3, k))
        b_data = rng.normal(size=4)
        t_ref = t + 2 * padding - k + 1  # the reference's output length at stride 1
        if t_ref < 1:
            # the reference has no output at this padding; conv1d still gives t of them
            assert conv1d(Tensor(x_data), Tensor(w_data), Tensor(b_data)).shape == (n, 4, t)
            return
        d = padding - k // 2
        t_out = (t_ref - 1) // stride + 1
        upstream = np.random.default_rng(5).normal(size=(n, 4, t_out))
        want = conv1d_im2col(x_data, w_data, b_data, upstream, stride=stride, padding=padding)
        w, b = (Tensor(a.copy(), requires_grad=True) for a in (w_data, b_data))
        pad = max(d, 0)
        xp = Tensor(np.pad(x_data, ((0, 0), (0, 0), (pad, pad))), requires_grad=True)
        out = conv1d(xp, w, b)
        kept = slice(max(-d, 0), max(-d, 0) + t_ref, stride)
        upstream_full = np.zeros(out.shape)
        upstream_full[:, :, kept] = upstream
        gxp = conv1d_backward(upstream_full, xp, w, b)
        got = (out.data[:, :, kept], gxp[:, :, pad : pad + t], w.grad, b.grad)
        for a, ref in zip(got, want):
            assert a.shape == ref.shape
            assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))
        t_used = stride * ((t + 2 * padding - k) // stride) + k - padding  # inputs a tap reads
        if t_used < t:
            assert np.all(got[1][:, :, t_used:] == 0.0)

    def test_plain_operands_get_every_gradient(self):
        # no backward reads requires_grad: operands made without it get dX, dW and db
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(2, 3, 8)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
        g = rng.normal(size=(2, 4, 8))
        wt, bt = Tensor(w), Tensor(b)
        gx = conv1d_backward(g, Tensor(x), wt, bt)
        _, gw_ref, gx_ref = conv1d_batched(x, w, b, g)
        for got, ref in zip((gx, wt.grad, bt.grad), (gx_ref, gw_ref, g.sum(axis=(0, 2))), strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_dx_false_returns_none_and_fills_dw_and_db(self):
        # the entry convolution's switch: its input's gradient is left unmade, the
        # parameters' gradients are those of a call that makes it, bit for bit
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 5)))
        w, b = rng.normal(size=(3, 2, 3)), rng.normal(size=3)
        g = rng.normal(size=(2, 3, 5))
        grads = []
        for dx in (False, True):
            wt, bt = Tensor(w), Tensor(b)
            grads.append((conv1d_backward(g, x, wt, bt, dx=dx), wt.grad, bt.grad))
        (none, gw, gb), (gx, gw_ref, gb_ref) = grads
        assert none is None and gx.shape == x.shape
        assert gw.tobytes() == gw_ref.tobytes() and gb.tobytes() == gb_ref.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [1, 2, 9])
    @pytest.mark.parametrize("k", [1, 3])
    def test_whole_tap_writes_directly_bitwise(self, k, t, n):
        # the output's first tap and dX's whole-input tap write their result instead of
        # being added to the bias and to zeros; for k <= 3 that changes no bit
        rng = np.random.default_rng(100 + 10 * k + t)
        x = Tensor(rng.normal(size=(n, 4, t)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4, k)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        out = conv1d(x, w, b)
        g = rng.normal(size=out.shape)
        gx = conv1d_backward(g, x, w, b)
        y_ref, gx_ref = conv1d_summed_from_bias_and_zeros(x.data, w.data, b.data, g)
        assert np.array_equal(out.data, y_ref)
        assert np.array_equal(gx, gx_ref)

    @pytest.mark.parametrize("tap_major", [False, True])
    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("t", [1, 2, 9])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_bitwise_the_two_path_forward(self, k, t, with_residual, tap_major):
        # one path for every k, for a weight in its own layout and for the
        # (C_out, C_in, k) view of a tap-major array that the fold hands over
        rng = np.random.default_rng(200 + 10 * k + t)
        x = rng.normal(size=(3, 6, t))
        w = rng.normal(size=(7, 6, k))
        b = rng.normal(size=7)
        residual = rng.normal(size=(3, 7, t)) if with_residual else None
        weight = np.ascontiguousarray(w.transpose(2, 0, 1)).transpose(1, 2, 0) if tap_major else w
        out = conv1d(Tensor(x), Tensor(weight), Tensor(b), residual=None if residual is None else Tensor(residual))
        assert out.data.tobytes() == conv1d_forward_two_path(x, w, b, residual).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("t", [1, 2, 9, 400])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_sample_loop_bitwise_the_batched_products(self, k, t, n):
        # output, dW and dX made one sample at a time, through one sample-sized term
        # buffer, against the whole batch's products (helpers.conv1d_batched)
        rng = np.random.default_rng(300 + 10 * k + t + n)
        x = Tensor(rng.normal(size=(n, 6, t)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 6, k)), requires_grad=True)
        b = Tensor(rng.normal(size=7), requires_grad=True)
        out = conv1d(x, w, b)
        g = rng.normal(size=out.shape)
        gx = conv1d_backward(g, x, w, b)
        y_ref, gw_ref, gx_ref = conv1d_batched(x.data, w.data, b.data, g)
        assert out.data.tobytes() == y_ref.tobytes()
        assert w.grad.tobytes() == gw_ref.tobytes()
        assert gx.tobytes() == gx_ref.tobytes()

    def test_dx_holds_one_term_buffer(self):
        # the former dX made one (N, k*C_in, T) product and a copy of its centre tap:
        # 4 input-sized arrays at k = 3; now dX and one term buffer, 2 of them
        n, c_in, t = 2, 64, 1000
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(n, c_in, t)), requires_grad=True)
        w, b = Tensor(rng.normal(size=(2, c_in, 3))), Tensor(np.zeros(2))
        g = rng.normal(size=(n, 2, t))
        tracemalloc.start()
        try:
            gx = conv1d_backward(g, x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape
        assert peak < 2.5 * x.data.nbytes

    def test_term_buffers_are_one_sample(self):
        # the forward's and dX's term buffers hold one sample: at batch 4 each pass
        # allocates its output plus well under half of it more (a batch-sized buffer
        # alone is as large as the output)
        n, c, t = 4, 64, 1000
        rng = np.random.default_rng(74)
        x = Tensor(rng.normal(size=(n, c, t)), requires_grad=True)
        w = Tensor(rng.normal(size=(c, c, 3)))
        tracemalloc.start()
        try:
            out = conv1d(x, w, Tensor(np.zeros(c)))
            forward_peak = tracemalloc.get_traced_memory()[1]
            g = rng.normal(size=out.shape)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            conv1d_backward(g, x, w, Tensor(np.zeros(c)))
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert forward_peak < 1.5 * out.data.nbytes
        assert backward_peak < 1.5 * x.data.nbytes

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ShapeError, match="length"):
            conv1d(Tensor(np.zeros((1, 2, 0))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros(1)))


def bn_state(gamma, beta, running_mean, running_var):
    state = BatchNormState(gamma.size)
    state.gamma.data, state.beta.data = gamma.copy(), beta.copy()
    state.running_mean, state.running_var = running_mean.copy(), running_var.copy()
    return state


class TestBatchNorm:
    def test_batch_statistics_standardize(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(4, 3, 10)))
        state = BatchNormState(3)
        out, _ = batchnorm1d(x, state)
        assert np.all(np.abs(out.data.mean(axis=(0, 2))) < 1e-9)
        assert np.allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_standardized_input_passthrough(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(4, 2, 50))
        raw = (raw - raw.mean(axis=(0, 2), keepdims=True)) / raw.std(axis=(0, 2), keepdims=True)
        out, _ = batchnorm1d(Tensor(raw), BatchNormState(2))
        assert np.allclose(out.data, raw, atol=1e-4)

    def test_running_stats_updated_by_batch_statistics(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(loc=5.0, size=(8, 2, 20)))
        state = BatchNormState(2)
        batchnorm1d(x, state)
        assert np.all(state.running_mean > 0.2)

    def test_running_statistics_as_stats_are_pure(self):
        rng = np.random.default_rng(6)
        state = bn_state(rng.normal(size=2), rng.normal(size=2), rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
        before = (state.running_mean.copy(), state.running_var.copy())
        x = Tensor(rng.normal(size=(2, 2, 5)))
        out1, _ = batchnorm1d_running(x, state)
        out2, _ = batchnorm1d_running(x, state)
        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(state.running_mean, before[0])
        assert np.array_equal(state.running_var, before[1])
        # the normalization the module docstring gives, with the running statistics
        inv_std = 1.0 / np.sqrt(before[1] + tensor_mod.BN_EPS)
        expected = state.gamma.data[None, :, None] * ((x.data - before[0][None, :, None]) * inv_std[None, :, None])
        assert np.allclose(out1.data, expected + state.beta.data[None, :, None], rtol=1e-14, atol=1e-14)

    def test_inference_before_training_uses_init_stats(self):
        x = Tensor(np.ones((1, 2, 4)))
        out, _ = batchnorm1d_running(x, BatchNormState(2))
        expected = 1.0 / np.sqrt(1.0 + tensor_mod.BN_EPS)
        assert np.allclose(out.data, expected)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        state = bn_state(rng.normal(size=2) + 1.0, rng.normal(size=2), rng.normal(size=2),
                         rng.uniform(0.5, 2.0, size=2))
        x = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        coeffs = rng.normal(size=(3, 2, 6))  # weights the outputs so the gradient is not uniform
        _, stats = batchnorm1d(x, state)
        gx, _ = batchnorm1d_backward(coeffs, x, state, stats)
        worst = check_gradients(
            lambda: weighted_sum(batchnorm1d(x, state)[0], coeffs),
            [gx, state.gamma.grad, state.beta.grad],
            [x, state.gamma, state.beta],
        )
        assert worst < FD_REL_TOL

    def test_single_value_train_rejected(self):
        with pytest.raises(ShapeError):
            batchnorm1d(Tensor(np.ones((1, 2, 1))), BatchNormState(2))

    def test_recomputed_xhat_gives_the_former_gradients_bitwise(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(loc=1.5, size=(3, 4, 9)), requires_grad=True)
        g = rng.normal(size=x.shape)
        state = bn_state(rng.normal(size=4), rng.normal(size=4), rng.normal(size=4),
                         rng.uniform(0.5, 2.0, size=4))
        expected = batchnorm1d_grads_keeping_xhat(x.data, state, g)
        _, stats = batchnorm1d(x, state)
        gx, _ = batchnorm1d_backward(g, x, state, stats)
        for got, ref in zip((gx, state.gamma.grad, state.beta.grad), expected):
            assert got.tobytes() == ref.tobytes()

    def test_plain_operands_get_every_gradient(self):
        rng = np.random.default_rng(11)
        x, g = rng.normal(size=(3, 4, 9)), rng.normal(size=(3, 4, 9))
        state = BatchNormState(4)
        state.gamma, state.beta = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        expected = batchnorm1d_grads_keeping_xhat(x, state, g)
        xt = Tensor(x)
        _, stats = batchnorm1d(xt, state)
        gx, g_residual = batchnorm1d_backward(g, xt, state, stats)
        for got, ref in zip((gx, state.gamma.grad, state.beta.grad), expected, strict=True):
            assert got.tobytes() == ref.tobytes()
        assert g_residual is g

    @pytest.mark.parametrize("inputs", ["normal", "nan", "signed_zero"])
    def test_fused_relu_is_bitwise_relu_of_bn(self, inputs):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 7))
        stats = [rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)]
        if inputs == "nan":
            x[1, 2, 3] = np.nan
        elif inputs == "signed_zero":
            # channel 1 gives exactly -0.0 wherever its input equals its batch mean, 4.0:
            # (+0.0 * -|gamma|) + -0.0
            x[:, 1, :] = [2.0, 6.0, 2.0, 6.0, 2.0, 6.0, 4.0]
            stats[0][1], stats[1][1] = -abs(stats[0][1]), -0.0
            x[0, 0, 0] = -0.0
        coeffs = rng.normal(size=x.shape)
        # output, x grad, gamma grad, beta grad and running statistics, fused and with
        # np.maximum and its mask, the former relu node, apart
        fused, separate = [], []
        for results, relu in ((fused, True), (separate, False)):
            state, xt = bn_state(*stats), Tensor(x.copy(), requires_grad=True)
            out, bn_stats = batchnorm1d(xt, state, relu=relu)
            if relu:
                y = out.data
                gx, _ = batchnorm1d_backward(coeffs, xt, state, bn_stats, y)
            else:
                y = np.maximum(out.data, 0.0)
                gx, _ = batchnorm1d_backward(coeffs * (y > 0), xt, state, bn_stats)
            results += [y, gx, state.gamma.grad, state.beta.grad, state.running_mean, state.running_var]
        if inputs == "signed_zero":
            # the case is real: the plain BN output holds -0.0, and relu turns it to +0.0
            plain = batchnorm1d(Tensor(x), bn_state(*stats))[0].data
            assert np.any((plain == 0) & np.signbit(plain))
            assert not np.signbit(fused[0][plain == 0]).any()
        if inputs == "nan":
            assert np.isnan(fused[0]).any() and np.isnan(fused[2]).any()
        for got, ref in zip(fused, separate):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_relu", [True, False])
    def test_residual_gradients(self, with_relu):
        rng = np.random.default_rng(11)
        state = bn_state(rng.normal(size=2) + 1.0, rng.normal(size=2), rng.normal(size=2),
                         rng.uniform(0.5, 2.0, size=2))
        x = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        coeffs = rng.normal(size=(3, 2, 6))
        out, stats = batchnorm1d(x, state, relu=with_relu, residual=r)
        gx, gr = batchnorm1d_backward(coeffs, x, state, stats, out.data if with_relu else None)
        worst = check_gradients(
            lambda: weighted_sum(batchnorm1d(x, state, relu=with_relu, residual=r)[0], coeffs),
            [gx, gr, state.gamma.grad, state.beta.grad],
            [x, r, state.gamma, state.beta],
        )
        assert worst < FD_REL_TOL

    def test_residual_is_bitwise_relu_of_add(self):
        rng = np.random.default_rng(12)
        x, r, coeffs = (rng.normal(size=(3, 4, 7)) for _ in range(3))
        stats = [rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)]
        # output, x grad, residual grad, gamma grad, beta grad and running statistics, with
        # the residual fused and with r + bn(x) and its ReLU made apart
        fused, separate = [], []
        for results, fuse in ((fused, True), (separate, False)):
            state, xt = bn_state(*stats), Tensor(x.copy(), requires_grad=True)
            if fuse:
                out, bn_stats = batchnorm1d(xt, state, relu=True, residual=Tensor(r.copy()))
                y = out.data
                gx, gr = batchnorm1d_backward(coeffs, xt, state, bn_stats, y)
            else:
                out, bn_stats = batchnorm1d(xt, state)
                y = np.maximum(r + out.data, 0.0)
                gr = coeffs * (y > 0)
                gx, _ = batchnorm1d_backward(gr, xt, state, bn_stats)
            results += [y, gx, gr, state.gamma.grad, state.beta.grad, state.running_mean, state.running_var]
        assert (fused[0] == 0).any() and (fused[0] > 0).any()  # the mask is not trivial
        for got, ref in zip(fused, separate):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("relu_on", [False, True])
    def test_output_made_again_from_its_statistics_bitwise(self, relu_on, with_residual):
        # handed the statistics a call returned, batchnorm1d makes that call's output
        # again, even after the running statistics moved, and leaves them alone
        rng = np.random.default_rng(70)
        x = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
        r = Tensor(rng.normal(size=(2, 3, 7))) if with_residual else None
        state = bn_state(np.array([0.7, 1.3, -0.4]), np.array([0.2, -0.5, 0.1]),
                         np.array([0.1, -0.2, 0.3]), np.array([0.8, 1.7, 0.5]))
        out, stats = batchnorm1d(x, state, relu=relu_on, residual=r)
        batchnorm1d(Tensor(rng.normal(size=(2, 3, 7))), state)  # moves the running statistics
        running = (state.running_mean.copy(), state.running_var.copy())
        again, same = batchnorm1d(x, state, relu=relu_on, residual=r, stats=stats)
        assert again.data.tobytes() == out.data.tobytes()
        assert all(a is b for a, b in zip(same, stats, strict=True))
        assert np.array_equal(state.running_mean, running[0]) and np.array_equal(state.running_var, running[1])

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError, match="residual"):
            batchnorm1d(Tensor(np.ones((2, 2, 5))), BatchNormState(2), residual=Tensor(np.ones((2, 2, 4))))


class TestPoolAndLinear:
    def test_max_pool_monotone_series(self):
        t = np.arange(10, dtype=np.float64)
        x = Tensor(np.stack([t, 2 * t])[None, :, :])
        out = max_pool_time(x)
        assert np.array_equal(out.data, [[9.0, 18.0]])

    def test_max_pool_tie_routes_to_first(self):
        x = Tensor(np.array([[[3.0, 1.0, 3.0]]]), requires_grad=True)
        assert np.array_equal(max_pool_time_backward(np.ones((1, 1)), x), [[[1.0, 0.0, 0.0]]])

    def test_max_pool_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4, 7)), requires_grad=True)
        coeffs = rng.normal(size=(3, 4))
        worst = check_gradients(
            lambda: weighted_sum(max_pool_time(x), coeffs), [max_pool_time_backward(coeffs, x)], [x]
        )
        assert worst < FD_REL_TOL

    def test_linear_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        coeffs = rng.normal(size=(3, 2))
        gx = linear_backward(coeffs, x, w, b)
        worst = check_gradients(lambda: weighted_sum(linear(x, w, b), coeffs), [gx, w.grad, b.grad], [x, w, b])
        assert worst < FD_REL_TOL

    def test_plain_operands_get_every_gradient(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 4))
        g = rng.normal(size=(2, 3))
        ref = np.zeros(x.shape)
        np.put_along_axis(ref, x.argmax(axis=2)[:, :, None], g[:, :, None], axis=2)
        assert max_pool_time_backward(g, Tensor(x)).tobytes() == ref.tobytes()
        xl, w, b, gl = rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(2, 4))
        wt, bt = Tensor(w), Tensor(b)
        gx = linear_backward(gl, Tensor(xl), wt, bt)
        for got, ref in zip((gx, wt.grad, bt.grad), (gl @ w, gl.T @ xl, gl.sum(axis=0)), strict=True):
            assert got.tobytes() == ref.tobytes()


class TestAggregate:
    """aggregate(xs, W, b) is conv1d(concat(xs), W, b) for a 1x1 W, without the concat."""

    @staticmethod
    def operands(rng):
        """Inputs of 2, 3 and 1 channels, a 4 x 6 x 1 weight and a bias."""
        xs = [Tensor(rng.normal(size=(2, c, 5)), requires_grad=True) for c in (2, 3, 1)]
        w = Tensor(rng.normal(size=(4, 6, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        return xs, w, b

    @staticmethod
    def backward(g, xs, w, b):
        """Each input's gradient, the parts run from the last input to the first."""
        gw, grads, lo = np.zeros(w.shape), [None] * len(xs), sum(x.shape[1] for x in xs)
        for i in reversed(range(len(xs))):
            lo -= xs[i].shape[1]
            grads[i] = aggregate_backward(g, xs[i], w, b, lo, gw)
        return grads

    def test_gradients(self):
        rng = np.random.default_rng(12)
        xs, w, b = self.operands(rng)
        coeffs = rng.normal(size=(2, 4, 5))
        grads = self.backward(coeffs, xs, w, b)
        worst = check_gradients(
            lambda: weighted_sum(aggregate(iter(xs), w, b), coeffs), [*grads, w.grad, b.grad], [*xs, w, b]
        )
        assert worst < FD_REL_TOL

    def test_matches_conv1d_of_the_concatenation(self):
        """The output and every gradient."""
        rng = np.random.default_rng(19)
        xs, w, b = self.operands(rng)
        g = rng.normal(size=(2, 4, 5))
        got = [aggregate(xs, w, b).data, *self.backward(g, xs, w, b), w.grad, b.grad]
        w.zero_grad()
        b.zero_grad()
        cat = Tensor(np.concatenate([x.data for x in xs], axis=1), requires_grad=True)
        gcat = conv1d_backward(g, cat, w, b)
        ref = [conv1d(cat, w, b).data, gcat[:, :2], gcat[:, 2:5], gcat[:, 5:], w.grad, b.grad]
        for a, r in zip(got, ref, strict=True):
            assert np.max(np.abs(a - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))

    def test_plain_operands_get_every_gradient(self):
        # against the conv1d of the concatenation, the whole batch's products at once
        rng = np.random.default_rng(24)
        xs, w, b = self.operands(rng)
        xs, w, b = [Tensor(x.data) for x in xs], Tensor(w.data), Tensor(b.data)
        g = rng.normal(size=(2, 4, 5))
        got = [*self.backward(g, xs, w, b), w.grad, b.grad]
        _, gw, gcat = conv1d_batched(np.concatenate([x.data for x in xs], axis=1), w.data, b.data, g)
        ref = [gcat[:, :2], gcat[:, 2:5], gcat[:, 5:], gw, g.sum(axis=(0, 2))]
        for a, r in zip(got, ref, strict=True):
            assert np.max(np.abs(a - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))

    def test_keeps_no_input(self):
        rng = np.random.default_rng(20)
        _, w, b = self.operands(rng)
        seen = []

        def arriving():
            for c in (2, 3, 1):
                seen.append([ref() is None for ref in refs])
                x = Tensor(rng.normal(size=(2, c, 5)), requires_grad=True)
                refs.append(weakref.ref(x.data))
                yield x
                del x

        refs = []
        out = aggregate(arriving(), w, b)
        # the op holds at most the x whose share it added last, until the next one arrives
        assert seen == [[], [False], [True, False]]
        assert all(ref() is None for ref in refs)
        assert out.shape == (2, 4, 5)

    def test_holds_only_its_output_between_inputs(self, monkeypatch):
        # weakrefs to every array a numpy call in tensor.py returns; between two
        # inputs the op may hold its output and nothing else (no product buffer)
        made = []

        class RecordingNumpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if not callable(attr) or isinstance(attr, type):
                    return attr

                def call(*args, **kwargs):
                    result = attr(*args, **kwargs)
                    if isinstance(result, np.ndarray):
                        made.append(weakref.ref(result))
                    return result

                return call

        rng = np.random.default_rng(23)
        _, w, b = self.operands(rng)
        inputs, held = [], []

        def arriving():
            for c in (2, 3, 1):
                theirs = {id(a) for a in inputs}
                held.append([ref for ref in made if ref() is not None and id(ref()) not in theirs])
                x = Tensor(rng.normal(size=(2, c, 5)))
                inputs.append(x.data)  # the inputs' own arrays are not the op's
                yield x

        monkeypatch.setattr(tensor_mod, "np", RecordingNumpy())
        out = aggregate(arriving(), w, b)
        monkeypatch.undo()
        assert held[0] == [] and len(made) >= 3
        for alive in held[1:]:
            assert [ref() is out.data for ref in alive] == [True]

    def test_first_input_s_part_adds_the_weight_and_bias_gradients(self):
        rng = np.random.default_rng(21)
        xs, w, b = self.operands(rng)
        g = rng.normal(size=(2, 4, 5))
        gw = np.zeros(w.shape)
        aggregate_backward(g, xs[2], w, b, 5, gw)
        aggregate_backward(g, xs[1], w, b, 2, gw)
        assert w.grad is None and b.grad is None and gw[:, :2].tobytes() == bytes(2 * 4 * 8)
        aggregate_backward(g, xs[0], w, b, 0, gw)
        assert w.grad is gw and b.grad.tobytes() == g.sum(axis=(0, 2)).tobytes()

    def test_shapes_rejected(self):
        rng = np.random.default_rng(22)
        xs, w, b = self.operands(rng)
        with pytest.raises(ShapeError, match="1 weight"):
            aggregate(xs, Tensor(np.zeros((4, 6, 3))), b)
        with pytest.raises(ShapeError, match="bias"):
            aggregate(xs, w, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="does not fit a weight of 6"):
            aggregate(xs + xs, w, b)
        with pytest.raises(ShapeError, match="5 channels in all, the weight 6"):
            aggregate(xs[:2], w, b)
        with pytest.raises(ShapeError, match="0 channels in all"):
            aggregate([], w, b)
        with pytest.raises(ShapeError, match="does not match"):
            aggregate([xs[0], Tensor(np.zeros((2, 3, 4))), xs[2]], w, b)


class TestCrossEntropyReference:
    """helpers.softmax_cross_entropy, the reference behind ensemble_loss_by_chain."""

    def test_uniform_logits_give_ln2(self):
        for labels in ([0, 0], [1, 1], [0, 1]):
            value, _ = softmax_cross_entropy(np.zeros((2, 2)), np.array(labels))
            assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 2]))

    def test_gradient(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.normal(size=(6, 2)))
        labels = np.array([0, 1, 1, 0, 1, 0])
        _, grad = softmax_cross_entropy(logits.data, labels)
        worst = check_gradients(lambda: softmax_cross_entropy(logits.data, labels)[0], [grad], [logits])
        assert worst < FD_REL_TOL

    def test_mean_over_batch(self):
        value, _ = softmax_cross_entropy(np.array([[10.0, 0.0], [0.0, 10.0]]), np.array([0, 1]))
        assert value == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)


class TestDtypes:
    """Every op computes in its operands' dtype and makes each array it
    allocates in it; a Tensor keeps a float32 or float64 array as it is and
    makes anything else float64."""

    def test_a_tensor_keeps_float32_and_float64_and_makes_anything_else_float64(self):
        for dtype in DTYPES:
            a = np.ones(3, dtype)
            assert Tensor(a).data is a
        for other in ([1, 2, 3], np.arange(3), np.ones(3, np.float16), np.ones(3, np.int32), np.ones(3, bool)):
            assert Tensor(other).data.dtype == np.float64
        assert BatchNormState(3).running_var.dtype == np.float32

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_op_and_backward_keeps_its_operands_dtype(self, dtype):
        rng = np.random.default_rng(19)

        def operand(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        x, r, w, wa, b = operand(2, 3, 5), operand(2, 3, 5), operand(3, 3, 3), operand(3, 6, 1), operand(3)
        xl, wl, bl = operand(2, 3), operand(4, 3), operand(4)
        g3, g2 = rng.normal(size=(2, 3, 5)).astype(dtype), rng.normal(size=(2, 4)).astype(dtype)
        state = BatchNormState(3) if dtype == "float32" else as_float64(BatchNormState(3))
        made = [conv1d(x, w, b, residual=r).data, conv1d_backward(g3, x, w, b)]
        gw = np.zeros(wa.shape, dtype)
        made += [aggregate([x, r], wa, b).data, aggregate_backward(g3, r, wa, b, 3, gw),
                 aggregate_backward(g3, x, wa, b, 0, gw)]
        out, stats = batchnorm1d(x, state, relu=True, residual=r)
        made += [out.data, *stats, *batchnorm1d_backward(g3, x, state, stats, out.data)]
        made += [max_pool_time(x).data, max_pool_time_backward(g3[:, :, 0], x)]
        made += [linear(xl, wl, bl).data, linear_backward(g2, xl, wl, bl)]
        made += [state.running_mean, state.running_var, state.gamma.grad, state.beta.grad]
        made += [p.grad for p in (w, b, wa, wl, bl)]
        assert all(a.dtype == dtype for a in made)


class TestBackwards:
    """The backward functions, chained by hand."""

    def test_no_backward_writes_an_array_it_is_handed(self):
        # a gradient may be stored or passed on without a copy: every backward leaves
        # its upstream gradient and its operands' arrays as they were
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        r = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
        wa = Tensor(rng.normal(size=(3, 6, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        state = BatchNormState(3)
        xl = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        wl = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        bl = Tensor(rng.normal(size=4), requires_grad=True)
        g3, g2 = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 4))
        out, stats = batchnorm1d(x, state, relu=True, residual=r)
        arrays = [x.data, r.data, w.data, wa.data, b.data, state.gamma.data, xl.data, wl.data, g3, g2, out.data]
        before = [a.copy() for a in arrays]
        conv1d_backward(g3, x, w, b)
        aggregate_backward(g3, r, wa, b, 3, np.zeros(wa.shape))
        batchnorm1d_backward(g3, x, state, stats, out.data)
        max_pool_time_backward(g3[:, :, 0], x)
        linear_backward(g2, xl, wl, bl)
        assert all(a.tobytes() == c.tobytes() for a, c in zip(arrays, before))

    def test_composite_chain_gradients(self):
        # conv -> bn-relu -> pool -> linear -> cross entropy, and back
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 4, 16)))
        w1 = Tensor(rng.normal(size=(4, 4, 3)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
        state = as_float64(BatchNormState(4))
        w2 = Tensor(rng.normal(size=(2, 4)) * 0.5, requires_grad=True)
        b2 = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
        labels = np.array([0, 1])

        def forward():
            h = conv1d(x, w1, b1)
            a, stats = batchnorm1d(h, state, relu=True)
            pooled = max_pool_time(a)
            return h, a, stats, pooled, softmax_cross_entropy(linear(pooled, w2, b2).data, labels)

        h, a, stats, pooled, (_, g) = forward()
        g = max_pool_time_backward(linear_backward(g, pooled, w2, b2), a)
        conv1d_backward(batchnorm1d_backward(g, h, state, stats, a.data)[0], x, w1, b1)
        params = [w1, b1, state.gamma, state.beta, w2, b2]
        worst = check_gradients(lambda: forward()[-1][0], [p.grad for p in params], params)
        assert worst < FD_REL_TOL

    def test_forward_and_backward_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(17)
            x = Tensor(rng.normal(size=(2, 3, 10)))
            w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            h, stats = batchnorm1d(conv1d(x, w, b), BatchNormState(4), relu=True)
            out = max_pool_time(h)
            return out.data.copy(), conv1d_backward(max_pool_time_backward(np.ones(out.shape), h), x, w, b), w.grad

        first, second = run(), run()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second, strict=True))

    def test_gradients_accumulate_across_calls(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(3, 5)))
        w, b = Tensor(rng.normal(size=(2, 5)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        linear_backward(g1, x, w, b)
        first = w.grad
        linear_backward(g2, x, w, b)
        assert w.grad.tobytes() == (first + g2.T @ x.data).tobytes()
        assert first.tobytes() == (g1.T @ x.data).tobytes()  # the stored gradient is not written into


class TestParallelMap:
    def test_error_reaches_caller_and_blas_threads_are_restored(self, two_workers):
        controls = tensor_mod._find_blas_controls()
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        seen, finished = [], []

        def fn(i):
            seen.append(blas_thread_counts())
            if i == 1:
                raise ShapeError("branch 1 is broken")
            finished.append(i)
            return i

        try:
            with pytest.raises(ShapeError, match="branch 1"):
                tensor_mod._parallel_map(fn, 4)
            after = blas_thread_counts()
        finally:
            for (_, set_), n in zip(controls, saved):
                set_(n)
        assert len(finished) == len(seen) - 1  # every started call ran to its end before the error surfaced
        assert all(counts == [1] * len(controls) for counts in seen)
        assert after == [2] * len(controls)

    def test_a_failed_call_cancels_the_calls_not_started(self, two_workers):
        started, finished = [], []

        def fn(i):
            started.append(i)
            if i == 0:
                raise ShapeError("branch 0 is broken")
            time.sleep(0.05)
            finished.append(i)
            return i

        with pytest.raises(ShapeError, match="branch 0"):
            tensor_mod._parallel_map(fn, 8)
        assert 2 <= len(started) <= 2 + 1  # at most workers + 1 calls started
        assert sorted(finished) == sorted(started)[1:]  # and every one but the failed one finished

    def test_at_most_one_call_waits_in_the_queue(self, two_workers):
        # at most workers + 1 calls are in flight and two of them run, so all the
        # calls of a map are not handed to the pool at once
        waiting = []

        def fn(i):
            time.sleep(0.01)  # both workers are busy by now
            waiting.append(two_workers._work_queue.qsize())
            return i

        assert tensor_mod._parallel_map(fn, 8) == list(range(8))
        assert len(waiting) == 8 and max(waiting) <= 1

    def test_the_first_error_in_index_order_is_raised(self, two_workers):
        release = threading.Event()

        def fn(i):
            if i == 1:
                raise ShapeError("branch 1 is broken")
            release.wait(5)  # call 0 is still running when call 1 fails
            raise ShapeError(f"branch {i} is broken")

        timer = threading.Timer(0.05, release.set)
        timer.start()
        try:
            with pytest.raises(ShapeError, match="branch 0"):
                tensor_mod._parallel_map(fn, 4)
        finally:
            timer.cancel()

    def test_calls_run_on_the_pool_in_index_order_of_results(self, two_workers):
        caller = threading.get_ident()
        idents = []

        def fn(i):
            idents.append(threading.get_ident())
            time.sleep(0.001 * ((3 * i) % 4))  # calls finish out of index order
            return i * i

        assert tensor_mod._parallel_map(fn, 4) == [0, 1, 4, 9]
        assert len(idents) == 4 and caller not in idents

    @pytest.mark.parametrize("ordered", [False, True])
    def test_scalar_sized_calls_run_on_the_pool(self, two_workers, ordered):
        # no map is too small for the pool: calls that each touch one number run there
        idents = []
        if ordered:
            tensor_mod._ordered_map(lambda i: threading.get_ident(), 6, lambda i, r: idents.append(r))
        else:
            idents = tensor_mod._parallel_map(lambda i: threading.get_ident(), 6)
        assert len(idents) == 6 and set(idents) <= {t.ident for t in two_workers._threads}

    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("case", ["one call", "no pool"])
    def test_inline_maps_hold_blas_at_one_thread(self, forced_pool, monkeypatch, ordered, case):
        if case == "one call":
            forced_pool(2)
            n = 1
        else:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
            n = 3
        caller, seen = threading.get_ident(), []
        with blas_threads(2) as controls:
            def fn(i):
                seen.append((threading.get_ident(), blas_thread_counts()))

            if ordered:
                tensor_mod._ordered_map(fn, n, lambda i, r: None)
            else:
                tensor_mod._parallel_map(fn, n)
            after = blas_thread_counts()
        assert seen == [(caller, [1] * len(controls))] * n
        assert after == [2] * len(controls)  # the caller's count, restored

    def test_errstate_of_the_caller_holds_in_the_workers(self, two_workers):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                tensor_mod._parallel_map(lambda i: np.exp(np.array([1e308])), 2)


class TestOrderedMap:
    """`_ordered_map`, the one map loop, consumes results in index order on
    the calling thread, holds at most workers + 1 of them, and raises the
    first error in index order."""

    @staticmethod
    def recorder():
        lock = threading.Lock()
        log = {"started": set(), "ended": set(), "consumed": [], "most_held": 0}

        def started(i):
            with lock:
                log["started"].add(i)
                log["most_held"] = max(log["most_held"], len(log["started"]) - len(log["consumed"]))

        def ended(i):
            with lock:
                log["ended"].add(i)

        def consumed(i):
            with lock:
                log["consumed"].append(i)

        return log, started, ended, consumed

    def test_index_order_on_the_calling_thread(self, two_workers):
        caller = threading.get_ident()
        seen = []

        def fn(i):
            time.sleep(0.001 * ((7 * i) % 5))  # calls finish out of index order
            return i * i, threading.get_ident()

        tensor_mod._ordered_map(fn, 20, lambda i, r: seen.append((i, r[0], r[1], threading.get_ident())))
        assert [(i, sq) for i, sq, _, _ in seen] == [(i, i * i) for i in range(20)]
        assert all(consumer == caller for *_, consumer in seen)
        assert caller not in {worker for _, _, worker, _ in seen}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_plus_one_results_held(self, forced_pool, workers):
        forced_pool(workers)
        log, started, ended, consumed = self.recorder()

        def fn(i):
            started(i)
            ended(i)
            return i

        def consume(i, r):
            time.sleep(0.002)  # a slow consumer: unbounded, the results would pile up
            consumed(i)

        tensor_mod._ordered_map(fn, 30, consume)
        assert log["consumed"] == list(range(30))
        assert 2 <= log["most_held"] <= workers + 1

    def test_first_error_in_index_order_after_every_started_call(self, two_workers):
        log, started, ended, consumed = self.recorder()

        def fn(i):
            started(i)
            try:
                if i in (3, 4):
                    time.sleep(0.02 if i == 3 else 0.0)  # call 4 fails first in time
                    raise ShapeError(f"call {i} failed")
                time.sleep(0.002)
                return i
            finally:
                ended(i)

        with pytest.raises(ShapeError, match="call 3 failed"):
            tensor_mod._ordered_map(fn, 40, lambda i, r: consumed(i))
        assert log["consumed"] == [0, 1, 2]
        assert log["started"] == log["ended"]  # every started call finished first
        assert max(log["started"]) <= 3 + 2  # none started once call 3's error was seen

    def test_consume_error_is_raised(self, two_workers):
        log, started, ended, consumed = self.recorder()

        def fn(i):
            started(i)
            time.sleep(0.002)
            ended(i)
            return i

        def consume(i, r):
            if i == 5:
                raise ShapeError("consume 5 failed")
            consumed(i)

        with pytest.raises(ShapeError, match="consume 5 failed"):
            tensor_mod._ordered_map(fn, 40, consume)
        assert log["consumed"] == [0, 1, 2, 3, 4]
        assert log["started"] == log["ended"]
        assert max(log["started"]) <= 5 + 2

    def test_inline_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        order = []
        tensor_mod._ordered_map(
            lambda i: order.append(("fn", i)) or i, 3, lambda i, r: order.append(("consume", r))
        )
        assert order == [("fn", 0), ("consume", 0), ("fn", 1), ("consume", 1), ("fn", 2), ("consume", 2)]


def openblas_paths():
    with open("/proc/self/maps") as fh:
        return sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})


class TestBlasControls:
    """Every OpenBLAS in the process (numpy's and scipy's) is held at one thread."""

    @pytest.fixture
    def two_blas_threads(self):
        with blas_threads(2) as controls:
            yield controls

    def test_one_control_per_openblas_library(self):
        import lgpnet.cli  # noqa: F401  (everything a command loads)

        paths = openblas_paths()
        assert len(paths) >= 1
        assert len(tensor_mod._find_blas_controls()) == len(paths)

    def test_every_openblas_reads_one_inside_a_map(self, two_workers, two_blas_threads):
        seen = tensor_mod._parallel_map(lambda i: blas_thread_counts(), 2)
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert blas_thread_counts() == [2] * len(two_blas_threads)

    def test_single_thread_without_a_pool(self, monkeypatch, two_blas_threads):
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        with tensor_mod._blas_single_thread():
            inside = blas_thread_counts()
        assert inside == [1] * len(two_blas_threads)
        assert blas_thread_counts() == [2] * len(two_blas_threads)
