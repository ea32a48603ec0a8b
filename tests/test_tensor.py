import contextlib
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    FD_REL_TOL,
    add,
    batchnorm1d_grads_keeping_xhat,
    blas_threads,
    check_gradients,
    concat_by_copy,
    conv1d_batched,
    conv1d_forward_two_path,
    conv1d_im2col,
    mean_tensors,
    mul,
    relu,
    softmax_cross_entropy,
    tsum,
)

from lgpnet.errors import ShapeError
from lgpnet.tensor import (
    BatchNormState,
    Tensor,
    aggregate,
    backward,
    batchnorm1d,
    branch_map,
    conv1d,
    linear,
    max_pool_time,
    no_grad,
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
        coeffs = Tensor(rng.normal(size=(2, 4, 8)))
        worst = check_gradients(
            lambda: tsum(mul(conv1d(x, w, b, residual=r), coeffs)), [x, w, b, r]
        )
        assert worst < FD_REL_TOL

    def test_residual_is_added_after_the_taps(self):
        rng = np.random.default_rng(2)
        x, w = Tensor(rng.normal(size=(2, 3, 8))), Tensor(rng.normal(size=(4, 3, 3)))
        b, r = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=(2, 4, 8)))
        out = conv1d(x, w, b, residual=r)
        assert np.array_equal(out.data, add(r, conv1d(x, w, b)).data)
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
        results = []
        for reference in (False, True):
            w, b = (Tensor(a.copy(), requires_grad=True) for a in (w_data, b_data))
            if reference:
                x = Tensor(x_data.copy(), requires_grad=True)
                out = conv1d_im2col(x, w, b, stride=stride, padding=padding)
                backward(tsum(mul(out, Tensor(upstream))))
                results.append((out.data, x.grad, w.grad, b.grad))
            else:
                pad = max(d, 0)
                xp = Tensor(np.pad(x_data, ((0, 0), (0, 0), (pad, pad))), requires_grad=True)
                out = conv1d(xp, w, b)
                kept = slice(max(-d, 0), max(-d, 0) + t_ref, stride)
                upstream_full = np.zeros(out.shape)
                upstream_full[:, :, kept] = upstream
                backward(tsum(mul(out, Tensor(upstream_full))))
                results.append((out.data[:, :, kept], xp.grad[:, :, pad : pad + t], w.grad, b.grad))
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        t_used = stride * ((t + 2 * padding - k) // stride) + k - padding  # inputs a tap reads
        if t_used < t:
            assert np.all(results[0][1][:, :, t_used:] == 0.0)

    def test_backward_closure_keeps_no_padded_copy(self):
        x = Tensor(np.ones((1, 2, 5)), requires_grad=True)
        w = Tensor(np.ones((3, 2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = conv1d(x, w, b)
        held = []
        for cell in out._backward.__closure__:
            value = cell.cell_contents
            held.extend(value if isinstance(value, (list, tuple)) else [value])
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert all(a is x.data or a is w.data for a in arrays), [a.shape for a in arrays]

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
        backward(tsum(mul(out, Tensor(g))))
        y_ref, gx_ref = conv1d_summed_from_bias_and_zeros(x.data, w.data, b.data, g)
        assert np.array_equal(out.data, y_ref)
        assert np.array_equal(x.grad, gx_ref)

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
        tensor_mod._run_backward(out, g)
        y_ref, gw_ref, gx_ref = conv1d_batched(x.data, w.data, b.data, g)
        assert out.data.tobytes() == y_ref.tobytes()
        assert w.grad.tobytes() == gw_ref.tobytes()
        assert x.grad.tobytes() == gx_ref.tobytes()

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ShapeError, match="length"):
            conv1d(Tensor(np.zeros((1, 2, 0))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros(1)))


class TestBatchNorm:
    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(4, 3, 10)))
        state = BatchNormState(3)
        out = batchnorm1d(x, state)
        assert np.all(np.abs(out.data.mean(axis=(0, 2))) < 1e-9)
        assert np.allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_standardized_input_passthrough(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(4, 2, 50))
        raw = (raw - raw.mean(axis=(0, 2), keepdims=True)) / raw.std(axis=(0, 2), keepdims=True)
        out = batchnorm1d(Tensor(raw), BatchNormState(2))
        assert np.allclose(out.data, raw, atol=1e-4)

    def test_running_stats_updated_in_train(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(loc=5.0, size=(8, 2, 20)))
        state = BatchNormState(2)
        batchnorm1d(x, state)
        assert np.all(state.running_mean > 0.2)

    def test_eval_mode_is_pure(self):
        rng = np.random.default_rng(6)
        state = BatchNormState(2)
        state.mode = "eval"
        before = (state.running_mean.copy(), state.running_var.copy())
        x = Tensor(rng.normal(size=(2, 2, 5)))
        out1 = batchnorm1d(x, state)
        out2 = batchnorm1d(x, state)
        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(state.running_mean, before[0])
        assert np.array_equal(state.running_var, before[1])

    def test_eval_before_training_uses_init_stats(self):
        state = BatchNormState(2)
        state.mode = "eval"
        x = Tensor(np.ones((1, 2, 4)))
        out = batchnorm1d(x, state)
        expected = 1.0 / np.sqrt(1.0 + tensor_mod.BN_EPS)
        assert np.allclose(out.data, expected)

    def test_gradients_train_mode(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        state = BatchNormState(2)
        state.gamma.data = rng.normal(size=2) + 1.0
        state.beta.data = rng.normal(size=2)
        # weight the outputs so the gradient is not uniform
        coeffs = rng.normal(size=(3, 2, 6))

        def loss():
            return tsum(mul(batchnorm1d(x, state), Tensor(coeffs)))

        worst = check_gradients(loss, [x, state.gamma, state.beta])
        assert worst < FD_REL_TOL

    def test_gradients_eval_mode(self):
        rng = np.random.default_rng(8)
        state = BatchNormState(2)
        state.mode = "eval"
        state.running_mean = rng.normal(size=2)
        state.running_var = rng.uniform(0.5, 2.0, size=2)
        x = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        coeffs = rng.normal(size=(2, 2, 4))

        def loss():
            return tsum(mul(batchnorm1d(x, state), Tensor(coeffs)))

        worst = check_gradients(loss, [x, state.gamma, state.beta])
        assert worst < FD_REL_TOL

    def test_single_value_train_rejected(self):
        with pytest.raises(ShapeError):
            batchnorm1d(Tensor(np.ones((1, 2, 1))), BatchNormState(2))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_recomputed_xhat_gives_the_former_gradients_bitwise(self, mode):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(loc=1.5, size=(3, 4, 9)), requires_grad=True)
        g = rng.normal(size=x.shape)
        state = self._state(mode, rng.normal(size=4), rng.normal(size=4), rng.normal(size=4),
                            rng.uniform(0.5, 2.0, size=4))
        expected = batchnorm1d_grads_keeping_xhat(x.data, state, g)
        backward(tsum(mul(batchnorm1d(x, state), Tensor(g))))
        for got, ref in zip((x.grad, state.gamma.grad, state.beta.grad), expected):
            assert got.tobytes() == ref.tobytes()

    @staticmethod
    def _state(mode, gamma, beta, running_mean, running_var):
        state = BatchNormState(gamma.size)
        state.mode, state.gamma.data, state.beta.data = mode, gamma.copy(), beta.copy()
        state.running_mean, state.running_var = running_mean.copy(), running_var.copy()
        return state

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("inputs", ["normal", "nan", "signed_zero"])
    def test_fused_relu_is_bitwise_relu_of_bn(self, mode, inputs):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 7))
        stats = [mode, rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)]
        if inputs == "nan":
            x[1, 2, 3] = np.nan
        elif inputs == "signed_zero":
            # channel 1 gives exactly -0.0 wherever its input equals its mean, 4.0 in
            # either mode: (+0.0 * -|gamma|) + -0.0
            x[:, 1, :] = [2.0, 6.0, 2.0, 6.0, 2.0, 6.0, 4.0]
            stats[1][1], stats[2][1], stats[3][1] = -abs(stats[1][1]), -0.0, 4.0
            x[0, 0, 0] = -0.0
        coeffs = rng.normal(size=x.shape)
        # output, x grad, gamma grad, beta grad and running statistics, fused and separate
        fused, separate = [], []
        for results, op in ((fused, lambda t, st: batchnorm1d(t, st, relu=True)),
                            (separate, lambda t, st: relu(batchnorm1d(t, st)))):
            state, xt = self._state(*stats), Tensor(x.copy(), requires_grad=True)
            out = op(xt, state)
            backward(tsum(mul(out, Tensor(coeffs))))
            results += [out.data, xt.grad, state.gamma.grad, state.beta.grad,
                        state.running_mean, state.running_var]
        if inputs == "signed_zero":
            # the case is real: the plain BN output holds -0.0, and relu turns it to +0.0
            plain = batchnorm1d(Tensor(x), self._state(*stats)).data
            assert np.any((plain == 0) & np.signbit(plain))
            assert not np.signbit(fused[0][plain == 0]).any()
        if inputs == "nan":
            assert np.isnan(fused[0]).any() and np.isnan(fused[2]).any()
        for got, ref in zip(fused, separate):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_relu", [True, False])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_residual_gradients(self, mode, with_relu):
        rng = np.random.default_rng(11)
        state = self._state(mode, rng.normal(size=2) + 1.0, rng.normal(size=2), rng.normal(size=2),
                            rng.uniform(0.5, 2.0, size=2))
        x = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(3, 2, 6)))
        worst = check_gradients(
            lambda: tsum(mul(batchnorm1d(x, state, relu=with_relu, residual=r), coeffs)),
            [x, r, state.gamma, state.beta],
        )
        assert worst < FD_REL_TOL

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_residual_is_bitwise_relu_of_add(self, mode):
        rng = np.random.default_rng(12)
        x, r, coeffs = (rng.normal(size=(3, 4, 7)) for _ in range(3))
        stats = [mode, rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)]
        # output, x grad, residual grad, gamma grad, beta grad and running statistics
        fused, separate = [], []
        for results, op in ((fused, lambda t, st, rt: batchnorm1d(t, st, relu=True, residual=rt)),
                            (separate, lambda t, st, rt: relu(add(rt, batchnorm1d(t, st))))):
            state = self._state(*stats)
            xt, rt = Tensor(x.copy(), requires_grad=True), Tensor(r.copy(), requires_grad=True)
            out = op(xt, state, rt)
            backward(tsum(mul(out, Tensor(coeffs))))
            results += [out.data, xt.grad, rt.grad, state.gamma.grad, state.beta.grad,
                        state.running_mean, state.running_var]
        assert (fused[0] == 0).any() and (fused[0] > 0).any()  # the mask is not trivial
        for got, ref in zip(fused, separate):
            assert got.tobytes() == ref.tobytes()

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError, match="residual"):
            batchnorm1d(Tensor(np.ones((2, 2, 5))), BatchNormState(2), residual=Tensor(np.ones((2, 2, 4))))


class TestSimpleOps:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_keeps_nan_and_clears_zero_sign(self):
        out = relu(Tensor(np.array([np.nan, -0.0, -1.0, 2.0]))).data
        assert np.isnan(out[0])
        assert np.array_equal(out[1:], [0.0, 0.0, 2.0])
        assert not np.signbit(out[1:3]).any()

    def test_relu_gradient(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 5)) + 0.1, requires_grad=True)
        worst = check_gradients(lambda: tsum(mul(relu(x), x)), [x])
        assert worst < FD_REL_TOL

    def test_max_pool_monotone_series(self):
        t = np.arange(10, dtype=np.float64)
        x = Tensor(np.stack([t, 2 * t])[None, :, :])
        out = max_pool_time(x)
        assert np.array_equal(out.data, [[9.0, 18.0]])

    def test_max_pool_tie_routes_to_first(self):
        x = Tensor(np.array([[[3.0, 1.0, 3.0]]]), requires_grad=True)
        out = max_pool_time(x)
        backward(tsum(out))
        assert np.array_equal(x.grad, [[[1.0, 0.0, 0.0]]])

    def test_max_pool_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4, 7)), requires_grad=True)
        worst = check_gradients(lambda: tsum(mul(max_pool_time(x), max_pool_time(x))), [x])
        assert worst < FD_REL_TOL

    def test_linear_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(3, 2)))
        worst = check_gradients(lambda: tsum(mul(linear(x, w, b), coeffs)), [x, w, b])
        assert worst < FD_REL_TOL

    def test_mean_tensors(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 6.0]), requires_grad=True)
        out = mean_tensors([a, b])
        assert np.array_equal(out.data, [2.0, 4.0])
        backward(tsum(out))
        assert np.array_equal(a.grad, [0.5, 0.5])
        assert np.array_equal(b.grad, [0.5, 0.5])


class TestAggregate:
    """aggregate(xs, W, b) is conv1d(concat(xs), W, b) for a 1x1 W, without the concat."""

    @staticmethod
    def operands(rng):
        """Inputs of 2, 3 and 1 channels, a 4 x 6 x 1 weight and a bias."""
        xs = [Tensor(rng.normal(size=(2, c, 5)), requires_grad=True) for c in (2, 3, 1)]
        w = Tensor(rng.normal(size=(4, 6, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        return xs, w, b

    def test_gradients(self):
        rng = np.random.default_rng(12)
        xs, w, b = self.operands(rng)
        coeffs = Tensor(rng.normal(size=(2, 4, 5)))
        worst = check_gradients(lambda: tsum(mul(aggregate(iter(xs), w, b), coeffs)), [*xs, w, b])
        assert worst < FD_REL_TOL

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_conv1d_of_the_concatenation(self, mode):
        """Tracked (train) the output and every gradient, under no_grad (eval) the output."""
        rng = np.random.default_rng(19)
        xs, w, b = self.operands(rng)
        g = rng.normal(size=(2, 4, 5))
        results = []
        for op in (aggregate, lambda xs, w, b: conv1d(concat_by_copy(xs), w, b)):
            if mode == "eval":
                with no_grad():
                    results.append([op(xs, w, b).data])
                continue
            for t in (*xs, w, b):
                t.zero_grad()
            out = op(xs, w, b)
            backward(tsum(mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in (*xs, w, b)])
        for got, ref in zip(*results):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_no_grad_keeps_no_input(self):
        rng = np.random.default_rng(20)
        _, w, b = self.operands(rng)
        seen = []

        def arriving():
            for c in (2, 3, 1):
                seen.append([ref() is None for ref in refs])
                x = Tensor(rng.normal(size=(2, c, 5)))
                refs.append(weakref.ref(x.data))
                yield x
                del x

        refs = []
        with no_grad():
            out = aggregate(arriving(), w, b)
        # the op holds at most the x whose share it added last, until the next one arrives
        assert seen == [[], [False], [True, False]]
        assert all(ref() is None for ref in refs)
        assert out.shape == (2, 4, 5) and out._backward is None

    def test_no_grad_holds_only_its_output_between_inputs(self, monkeypatch):
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
        with no_grad():
            out = aggregate(arriving(), w, b)
        monkeypatch.undo()
        assert held[0] == [] and len(made) >= 3
        for alive in held[1:]:
            assert [ref() is out.data for ref in alive] == [True]

    def test_links_hold_the_output_array_only(self):
        rng = np.random.default_rng(21)
        xs, w, b = self.operands(rng)
        out = aggregate(xs, w, b)
        links, node = [], out
        while node is not None:
            links.append(node)
            assert node.data is out.data
            node = node._prev[1] if len(node._prev) == 2 else None
        assert [link._prev[0] for link in reversed(links)] == xs
        assert links[-1]._prev[1:] == (w, b)

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


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        logits = Tensor(np.zeros((2, 2)))
        for labels in ([0, 0], [1, 1], [0, 1]):
            loss = softmax_cross_entropy(logits, np.array(labels))
            assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 2]))

    def test_gradient(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        labels = np.array([0, 1, 1, 0, 1, 0])
        worst = check_gradients(lambda: softmax_cross_entropy(logits, labels), [logits])
        assert worst < FD_REL_TOL

    def test_mean_over_batch(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(14).normal(size=(3, 4)), requires_grad=True)
        backward(tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_half_square_gradient_is_x(self):
        x = Tensor(np.random.default_rng(15).normal(size=(5,)), requires_grad=True)
        backward(mul(tsum(mul(x, x)), 0.5))
        assert np.allclose(x.grad, x.data, atol=1e-15)

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(mul(x, 2.0))

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = tsum(add(mul(x, 3.0), mul(x, 5.0)))
        backward(y)
        assert np.array_equal(x.grad, [8.0])

    def test_shared_upstream_gradient_is_not_aliased(self):
        # add(x, x), mean_tensors, a residual conv and aggregate's links hand one out.grad
        # array to several parents; the first touch stores them as is
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        a = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6, 1)), requires_grad=True)
        wc = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        bc = Tensor(rng.normal(size=4), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(2, 4, 5)))
        tensors = [x, a, w, wc, b, bc]

        def loss():
            xx = add(x, x)
            h = relu(xx)  # h also feeds the mean below
            m = aggregate([h, a], w, b)  # the 1x1 conv of the channel concat of h and a
            y = conv1d(m, wc, bc, residual=conv1d(a, wc, bc))
            fan = mean_tensors([y, mul(y, 2.0), y])
            return add(tsum(mul(fan, coeffs)), tsum(mul(mean_tensors([h, xx]), h)))

        worst = check_gradients(loss, tensors)
        assert worst < FD_REL_TOL
        for t in tensors:
            assert t.grad.shape == t.shape

    def test_composite_graph_gradients(self):
        # conv -> bn -> relu -> pool -> linear -> cross entropy
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 4, 16)))
        w1 = Tensor(rng.normal(size=(4, 4, 3)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
        state = BatchNormState(4)
        w2 = Tensor(rng.normal(size=(2, 4)) * 0.5, requires_grad=True)
        b2 = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
        labels = np.array([0, 1])

        def loss():
            h = conv1d(x, w1, b1)
            h = relu(batchnorm1d(h, state))
            pooled = max_pool_time(h)
            return softmax_cross_entropy(linear(pooled, w2, b2), labels)

        worst = check_gradients(loss, [w1, b1, state.gamma, state.beta, w2, b2])
        assert worst < FD_REL_TOL

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = tsum(mul(x, 2.0))
        assert y.requires_grad is False
        assert y._backward is None

    def test_graph_consumed_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = tsum(mul(x, 2.0))
        backward(y)
        assert y._backward is None
        assert y._prev == ()

    def test_forward_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(17)
            x = Tensor(rng.normal(size=(2, 3, 10)))
            w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            h = relu(conv1d(x, w, b))
            out = max_pool_time(h)
            backward(tsum(out))
            return out.data.copy(), w.grad.copy()

        out1, grad1 = run()
        out2, grad2 = run()
        assert np.array_equal(out1, out2)
        assert np.array_equal(grad1, grad2)


def residual_chain(rng, x, blocks, c):
    """A small branch in the shape of the network's: an entry 1x1 conv and BN-ReLU,
    `blocks` blocks of conv, BN-ReLU and conv plus the block input, max pooling
    and a linear classifier; returns (loss, parameters, the first conv's output)."""
    def param(*shape):
        return Tensor(rng.normal(size=shape) * 0.3, requires_grad=True)

    params = [param(c, x.shape[1], 1), param(c)]
    bottom = conv1d(x, params[0], params[1])
    h = batchnorm1d(bottom, BatchNormState(c), relu=True)
    for _ in range(blocks):
        w1, b1, w2, b2 = param(c, c, 3), param(c), param(c, c, 3), param(c)
        state = BatchNormState(c)
        params += [w1, b1, w2, b2, state.gamma, state.beta]
        a = batchnorm1d(conv1d(h, w1, b1), state, relu=True)
        h = conv1d(a, w2, b2, residual=h)
    wl, bl = param(2, c), param(2)
    params += [wl, bl]
    loss = softmax_cross_entropy(linear(max_pool_time(h), wl, bl), np.array([0, 1]))
    return loss, params, bottom


class TestGraphRelease:
    """backward frees each node's activation and gradient once its closure has run."""

    def test_interior_grads_released_and_leaf_grads_kept(self, two_workers):
        rng = np.random.default_rng(51)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        w, b = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        state = BatchNormState(4)
        wm, bm = Tensor(rng.normal(size=(2, 8, 1)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        h = conv1d(x, w, b)
        a = batchnorm1d(h, state, relu=True)
        outs = branch_map(lambda i, t: tsum(mul(t, float(i + 1))), [a, a])
        m = aggregate([h, a], wm, bm)
        bottom_link = m._prev[1]
        loss = add(add(outs[0], outs[1]), tsum(m))
        backward(loss)
        for t in (h, a, m, bottom_link, loss):
            assert t.grad is None
        for t in (x, w, b, wm, bm, state.gamma, state.beta, *outs):
            assert t.grad is not None

    def test_top_activation_is_freed_before_the_bottom_closure_runs(self):
        rng = np.random.default_rng(52)
        loss, _, bottom = residual_chain(rng, Tensor(rng.normal(size=(2, 3, 16))), 3, 4)
        top = loss._prev[0]._prev[0]._prev[0]  # the last block's output, below pooling
        top_data = weakref.ref(top.data)
        del top
        seen = []

        def probe(closure=bottom._backward):
            seen.append(top_data() is None)
            closure()

        bottom._backward = probe
        del bottom
        backward(loss)
        assert seen == [True]

    def test_backward_peak_does_not_grow_with_depth(self):
        # What backward allocates above the end-of-forward size is one op's working
        # set, whatever the depth: a deeper branch adds less than one activation to it.
        # (Kept until the end, the interior gradients would add three per block.)
        n, c, t = 2, 4, 2000
        activation = n * c * t * 8

        def excess(blocks):
            rng = np.random.default_rng(53)
            x = Tensor(rng.normal(size=(n, 3, t)))
            tracemalloc.start()
            try:
                loss, params, bottom = residual_chain(rng, x, blocks, c)
                del bottom
                end_of_forward = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(p.grad is not None for p in params)
            return peak - end_of_forward

        shallow, deep = excess(2), excess(6)
        assert deep <= shallow + activation
        assert deep <= 8 * activation


class TestReleasedOutputs:
    """A tracked batchnorm1d output is dropped at the release point and remade
    bit for bit by the first read; conv1d's dX holds one term buffer."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("relu_on", [False, True])
    def test_bn_output_remade_bitwise(self, relu_on, with_residual, mode):
        rng = np.random.default_rng(70)
        x_data, r_data = rng.normal(size=(2, 3, 7)), rng.normal(size=(2, 3, 7))
        upstream = rng.normal(size=(2, 3, 7))
        results = []
        for release in (False, True):
            state = BatchNormState(3)
            state.gamma.data = np.array([0.7, 1.3, -0.4])
            state.beta.data = np.array([0.2, -0.5, 0.1])
            state.running_mean, state.running_var = np.array([0.1, -0.2, 0.3]), np.array([0.8, 1.7, 0.5])
            state.mode = mode
            x = Tensor(x_data.copy(), requires_grad=True)
            r = Tensor(r_data.copy(), requires_grad=True) if with_residual else None
            if release:
                with tensor_mod._releasing():
                    out = batchnorm1d(x, state, relu=relu_on, residual=r)
                    assert out._data is not None  # kept until the release point
                assert out._data is None and out._remake is not None
            else:
                out = batchnorm1d(x, state, relu=relu_on, residual=r)
            data = out.data
            assert out._remake is None  # one remake at most
            backward(tsum(mul(out, Tensor(upstream))))
            grads = [x.grad, state.gamma.grad, state.beta.grad] + ([r.grad] if with_residual else [])
            results.append([data, state.running_mean, state.running_var] + grads)
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()

    def test_untracked_bn_output_is_not_released(self):
        x = Tensor(np.random.default_rng(71).normal(size=(2, 3, 5)))
        with tensor_mod._releasing(), no_grad():
            out = batchnorm1d(x, BatchNormState(3), relu=True)
        assert out._data is not None and out._remake is None

    def test_walk_takes_the_remake_hook_off_an_unread_node(self):
        x = Tensor(np.random.default_rng(72).normal(size=(2, 3, 5)), requires_grad=True)
        with tensor_mod._releasing():
            out = batchnorm1d(x, BatchNormState(3))
        tensor_mod._run_backward(out, None)  # the walk runs no closure, so nothing reads out
        assert out._remake is None and out.data is None

    def test_conv1d_dx_holds_one_term_buffer(self):
        # the former dX made one (N, k*C_in, T) product and a copy of its centre tap:
        # 4 input-sized arrays at k = 3; now dX and one term buffer, 2 of them
        n, c_in, t = 2, 64, 1000
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(n, c_in, t)), requires_grad=True)
        out = conv1d(x, Tensor(rng.normal(size=(2, c_in, 3))), Tensor(np.zeros(2)))
        g = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            tensor_mod._run_backward(out, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape
        assert peak < 2.5 * x.data.nbytes


    def test_conv1d_term_buffers_are_one_sample(self):
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
            tensor_mod._run_backward(out, g)
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert forward_peak < 1.5 * out.data.nbytes
        assert backward_peak < 1.5 * x.data.nbytes


def blas_thread_counts():
    return [get() for get, _ in tensor_mod._find_blas_controls()]


class TestBranchMap:
    def test_input_gradients_reach_shared_upstream(self, two_workers):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = relu(a)
        outs = branch_map(lambda i, t: tsum(mul(t, float(i + 1))), [h, h, a])
        backward(add(add(outs[0], outs[1]), outs[2]))
        # d/da of 1*relu(a) + 2*relu(a) + 3*a
        assert np.array_equal(a.grad, 3.0 * (a.data > 0) + 3.0)

    def test_finite_difference_through_branches(self, two_workers):
        rng = np.random.default_rng(41)
        xs = [Tensor(rng.normal(size=(2, 3, 6))) for _ in range(3)]
        ws = [Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True) for _ in range(3)]
        bs = [Tensor(rng.normal(size=2), requires_grad=True) for _ in range(3)]

        def loss():
            outs = branch_map(
                lambda i, x: max_pool_time(relu(conv1d(x, ws[i], bs[i]))), xs
            )
            return tsum(mean_tensors(outs))

        assert check_gradients(loss, ws + bs) < FD_REL_TOL

    def test_branch_error_reaches_caller_and_blas_threads_are_restored(self, two_workers):
        controls = tensor_mod._find_blas_controls()
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        seen = []

        def fn(i, x):
            seen.append(blas_thread_counts())
            if i == 1:
                raise ShapeError("branch 1 is broken")
            return relu(x)

        xs = [Tensor(np.ones(3), requires_grad=True) for _ in range(4)]
        try:
            with pytest.raises(ShapeError, match="branch 1"):
                branch_map(fn, xs)
            after = blas_thread_counts()
        finally:
            for (_, set_), n in zip(controls, saved):
                set_(n)
        assert len(seen) == 4  # every branch ran to its end before the error surfaced
        assert all(counts == [1] * len(controls) for counts in seen)
        assert after == [2] * len(controls)

    def test_tracked_branches_run_on_the_pool(self, two_workers):
        caller = threading.get_ident()
        idents = []
        xs = [Tensor(np.ones(3), requires_grad=True) for _ in range(4)]
        branch_map(lambda i, x: idents.append(threading.get_ident()) or relu(x), xs)
        assert len(idents) == 4 and caller not in idents

    def test_no_grad_branches_run_on_the_pool(self, two_workers):
        caller = threading.get_ident()
        idents = []
        rng = np.random.default_rng(43)
        xs = [Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True) for _ in range(4)]
        ws = [Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True) for _ in range(4)]
        bs = [Tensor(rng.normal(size=2), requires_grad=True) for _ in range(4)]

        def fn(i, x):
            idents.append(threading.get_ident())
            return max_pool_time(relu(conv1d(x, ws[i], bs[i])))

        with no_grad():
            outs = branch_map(fn, xs)
            inline = [fn(i, x) for i, x in enumerate(xs)]
        assert len(idents) == 8 and caller not in idents[:4]
        assert not any(o.requires_grad for o in outs)
        for got, ref in zip(outs, inline):
            assert np.max(np.abs(got.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))

    @pytest.mark.parametrize("tracked", [True, False])
    def test_a_lazy_input_is_made_on_the_branch_s_worker(self, two_workers, tracked):
        # a sequence that makes its inputs when indexed (as multiscale.FrameBatch does):
        # branch_map reads its size, never iterates it, and indexes input i on the
        # thread that runs branch i, once
        made, ran = {}, {}
        data = np.random.default_rng(44).normal(size=(4, 2, 3, 5))

        class Lazy:
            size = data.size

            def __len__(self):
                return len(data)

            def __getitem__(self, i):
                assert i not in made
                made[i] = threading.get_ident()
                return Tensor(data[i])

        def fn(i, x):
            ran[i] = threading.get_ident()
            return max_pool_time(relu(x))

        with contextlib.nullcontext() if tracked else no_grad():
            outs = branch_map(fn, Lazy())
        assert made == ran and threading.get_ident() not in made.values()
        for out, x in zip(outs, data):
            assert np.array_equal(out.data, np.maximum(x, 0.0).max(axis=2))

    def test_inline_map_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        caller = threading.get_ident()
        idents = []
        a = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        outs = branch_map(lambda i, x: idents.append(threading.get_ident()) or tsum(x), [a, a])
        backward(add(outs[0], outs[1]))
        assert idents == [caller, caller]
        assert np.array_equal(a.grad, [2.0, 2.0])


class TestOrderedMap:
    """`_ordered_map` consumes results in index order on the calling thread,
    holds at most workers + 1 of them, and raises as `_parallel_map` does."""

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

        tensor_mod._ordered_map(fn, 20, 0, lambda i, r: seen.append((i, r[0], r[1], threading.get_ident())))
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

        tensor_mod._ordered_map(fn, 30, 0, consume)
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
            tensor_mod._ordered_map(fn, 40, 0, lambda i, r: consumed(i))
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
            tensor_mod._ordered_map(fn, 40, 0, consume)
        assert log["consumed"] == [0, 1, 2, 3, 4]
        assert log["started"] == log["ended"]
        assert max(log["started"]) <= 5 + 2

    def test_inline_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        order = []
        tensor_mod._ordered_map(
            lambda i: order.append(("fn", i)) or i, 3, 1 << 40, lambda i, r: order.append(("consume", r))
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
        seen = tensor_mod._parallel_map(lambda i: blas_thread_counts(), 2, 0)
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert blas_thread_counts() == [2] * len(two_blas_threads)

    def test_single_thread_without_a_pool(self, monkeypatch, two_blas_threads):
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        with tensor_mod._blas_single_thread():
            inside = blas_thread_counts()
        assert inside == [1] * len(two_blas_threads)
        assert blas_thread_counts() == [2] * len(two_blas_threads)
