"""Shared test utilities: independent oracles and synthetic data builders.

Everything here is deliberately naive (loops, direct definitions) so the
vectorized library code is checked against a second, unrelated path.
"""
from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from lgpnet.errors import ShapeError
from lgpnet.model import BatchNorm1dLayer, GroupBranch, GroupedResNetEnsemble, ImprovedResidualBlock
from lgpnet.tensor import (
    BatchNormState,
    Tensor,
    _find_blas_controls,
    aggregate,
    aggregate_backward,
    conv1d,
    conv1d_backward,
    max_pool_time,
    max_pool_time_backward,
)
from lgpnet.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


@contextmanager
def blas_threads(n: int):
    """Every OpenBLAS in the process set to n threads; yields their (get, set)
    pairs and restores the previous counts on exit."""
    controls = _find_blas_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(n)
    try:
        yield controls
    finally:
        for (_, set_), k in zip(controls, saved):
            set_(k)


def blas_thread_counts() -> list[int]:
    """The thread count of every OpenBLAS in the process, as read now."""
    return [get() for get, _ in _find_blas_controls()]


def as_float64(net):
    """net with every array it stores cast to float64, in place, and returned:
    the network of a float64 checkpoint, which computes in float64.  net is a
    `GroupedResNetEnsemble` or a `GroupBranch` (every `stored_arrays()`
    entry), or a residual block or a `BatchNormState` (the same arrays, as
    a branch stores them)."""
    if isinstance(net, GroupedResNetEnsemble):
        owners = [(owner, attr) for _, owner, attr in net.stored_arrays()]
    elif isinstance(net, GroupBranch):
        owners = [(owner, attr) for _, owner, attr in net.stored_arrays(0)]
    elif isinstance(net, BatchNormState):
        owners = [(net.gamma, "data"), (net.beta, "data"), (net, "running_mean"), (net, "running_var")]
    else:
        owners = []
        for _, layer in net.sublayers():
            owners += [(p, "data") for _, p in layer.named_parameters()]
            if isinstance(layer, BatchNorm1dLayer):
                owners += [(layer.state, "running_mean"), (layer.state, "running_var")]
    for owner, attr in owners:
        setattr(owner, attr, getattr(owner, attr).astype(np.float64))
    return net


DTYPES = ["float32", "float64"]  # a network's two dtypes: a new one's, and that of checkpoints written before


def in_dtype(net, dtype: str):
    """net, built float32, as it is for "float32", or cast by `as_float64` for "float64"."""
    return as_float64(net) if dtype == "float64" else net


def n_batchnorms(block) -> int:
    """How many of a block's sublayers are BNs."""
    return sum(isinstance(layer, BatchNorm1dLayer) for _, layer in block.sublayers())


# ---------------------------------------------------------------------------
# WAV bytes written by hand (independent of scipy's writer)


def wav_bytes_int16(samples: np.ndarray, sample_rate: int = 16000, channels: int = 1) -> bytes:
    data = np.asarray(samples, dtype=np.int16).tobytes()
    byte_rate = sample_rate * channels * 2
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate, byte_rate, channels * 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    return header + data


def wav_bytes_float32(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    data = np.asarray(samples, dtype=np.float32).tobytes()
    byte_rate = sample_rate * 4
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, sample_rate, byte_rate, 4, 32)
    header += b"data" + struct.pack("<I", len(data))
    return header + data


def write_wav_int16(path: Path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    path.write_bytes(wav_bytes_int16(samples, sample_rate))


# ---------------------------------------------------------------------------
# frame-count oracle: literally count window placements


def count_frames_by_hand(n_samples: int, frame_len: int, shift: int) -> int:
    if n_samples < frame_len:
        return 1  # zero-padded single frame
    count = 0
    start = 0
    while start + frame_len <= n_samples:
        count += 1
        start += shift
    return count


# ---------------------------------------------------------------------------
# direct O(N^2) DFT oracle


def dft_power_by_hand(frame: np.ndarray, fft_size: int) -> np.ndarray:
    x = np.zeros(fft_size)
    x[: frame.size] = frame
    bins = fft_size // 2 + 1
    out = np.empty(bins)
    n = np.arange(fft_size)
    for k in range(bins):
        c = np.sum(x * np.cos(-2 * np.pi * k * n / fft_size))
        s = np.sum(x * np.sin(-2 * np.pi * k * n / fft_size))
        out[k] = c * c + s * s
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking

FD_H = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-7


def numeric_grad(loss_fn, array: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one ndarray in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def grad_errors(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative error with an absolute floor below which errors pass."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = diff <= FD_ABS_FLOOR
    rel = np.where(ok, 0.0, diff / np.maximum(scale, 1e-300))
    return float(rel.max())


def check_gradients(loss, analytic, tensors: list[Tensor], h: float = FD_H) -> float:
    """Worst relative error of the `analytic` gradients, one array per tensor,
    against central differences of loss() in each tensor's .data.

    loss() must compute its value afresh from the tensors' current .data.
    """
    worst = 0.0
    for g, t in zip(analytic, tensors, strict=True):
        assert g is not None and g.shape == t.shape, "analytic gradient missing"
        worst = max(worst, grad_errors(g, numeric_grad(loss, t.data, h=h)))
    return worst


def weighted_sum(out: Tensor, coeffs: np.ndarray) -> float:
    """A scalar test loss over an op's output; its gradient is coeffs."""
    return float(np.sum(out.data * coeffs))


def branch_grads(branch, x: Tensor, coeffs: np.ndarray) -> list[np.ndarray]:
    """Every parameter's gradient of weighted_sum(logits, coeffs), the logits
    being a GroupBranch's for slice x, in `sublayers` order: from a kept
    forward and `GroupBranch.backward`."""
    params = [p for _, layer in branch.sublayers() for _, p in layer.named_parameters()]
    for p in params:
        p.zero_grad()
    _, records = branch.forward(x, keep=True)
    branch.backward(records, coeffs)
    return [p.grad for p in params]


def train_step_grads(model, slices, labels, aware: bool = True) -> float:
    """One training step's loss on the G slices (Tensors), every parameter's
    gradient left in its .grad: the forwards, the loss and the backwards of
    `training.run_epoch`, without the Adam update."""
    from lgpnet.training import ensemble_aware_loss

    model.zero_grad()
    runs = [branch.forward(x, keep=True) for branch, x in zip(model.branches, slices)]
    value, dlogits = ensemble_aware_loss([logits.data for logits, _ in runs], labels, aware)
    for branch, (_, records), g in zip(model.branches, runs, dlogits):
        branch.backward(records, g)
    return value


def ensemble_loss_value(model, slices, labels, aware: bool = True) -> float:
    """The ensemble-aware loss of the model's training-forward logits for the
    slices (keep=True: BN on the batch's statistics), the records dropped."""
    from lgpnet.training import ensemble_aware_loss

    group_logits = [branch.forward(x, keep=True)[0].data for branch, x in zip(model.branches, slices)]
    return ensemble_aware_loss(group_logits, labels, aware)[0]


def training_forward(model, lgp: np.ndarray, assignment) -> list[Tensor]:
    """Every branch's training forward (keep=True) on its slice of the
    (N, D_total, T) LGP batch, the records dropped: BN normalizes with the
    batch's statistics and moves its running statistics."""
    slices = group_slices(assignment, np.asarray(lgp, dtype=np.float64))
    return [branch.forward(Tensor(x), keep=True)[0] for branch, x in zip(model.branches, slices)]


def batchnorm1d_running(x: Tensor, state, relu: bool = False, *, residual=None, stats=None):
    """batchnorm1d on the running statistics, (mean, 1/std), unless handed
    `stats`: inference BN as an op of its own, unfolded, bit for bit the
    former eval mode."""
    from lgpnet.tensor import BN_EPS, batchnorm1d

    if stats is None:
        stats = state.running_mean, 1.0 / np.sqrt(state.running_var + BN_EPS)
    return batchnorm1d(x, state, relu, residual=residual, stats=stats)


def use_unfolded_inference(monkeypatch) -> None:
    """Make lgpnet.model's BNs run as `batchnorm1d_running`, so that a forward
    with keep=True normalizes with the running statistics, each BN its own
    op after its convolution: the reference for the folded inference."""
    import lgpnet.model as model

    monkeypatch.setattr(model, "batchnorm1d", batchnorm1d_running)


# ---------------------------------------------------------------------------
# references in plain numpy: the library's former relu, mean and cross-entropy
# nodes and the loss as a chain of them, the im2col convolution, and a branch
# whose every op output is kept


def mean_by_node(arrays: list[np.ndarray]) -> np.ndarray:
    """The former ensemble mean node: the first array copied, each later one
    added, the sum divided by their count."""
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    return total / len(arrays)


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean over the batch of -log softmax(logits) at the true class, and its
    gradient (softmax - one-hot) / N."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects N x n_classes logits")
    n, n_classes = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},)")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    value, probs = _cross_entropy(logits, labels)
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    return value, g * (1.0 / n)


def _cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(labels)), labels].mean(), np.exp(log_probs)


def ensemble_loss_by_chain(group_logits: list[np.ndarray], labels, aware: bool = True):
    """The ensemble-aware loss (aware) or the ensemble's cross-entropy alone,
    and each group's gradient, as the library's former chain of nodes gave
    them: a mean node over the group logits, one cross-entropy node per
    term, add nodes and a scaling node, walked back from an upstream 1."""
    labels = np.asarray(labels)
    n, groups = len(labels), len(group_logits)
    terms = [_cross_entropy(mean_by_node(group_logits), labels)]
    if aware:
        terms += [_cross_entropy(b, labels) for b in group_logits]
    value = terms[0][0]
    for t, _ in terms[1:]:
        value = value + t
    c = 1.0  # the loss node's upstream gradient, a Python float, so the gradients keep the logits' dtype
    if aware:
        value = value * (1.0 / len(terms))
        c = c * (1.0 / len(terms))

    def node_grad(probs):  # a cross-entropy node's gradient for its upstream c
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        return g * (c / n)

    mean_grad = node_grad(terms[0][1]) / groups
    if not aware:
        return float(value), [mean_grad] * groups
    return float(value), [mean_grad + node_grad(probs) for _, probs in terms[1:]]


def conv1d_im2col(x, w, b, g, stride: int = 1, padding: int = 0):
    """The library's former conv1d as one (N*T_out, C_in*k) @ (C_in*k, C_out)
    matmul over copied windows: its output and, for the output's gradient g,
    the gradients of x, w and b."""
    n, c_in, t = x.shape
    c_out, _, k = w.shape
    t_pad = t + 2 * padding
    t_out = (t_pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c_in, t_out, k), strides=(s0, s1, s2 * stride, s2), writeable=False
    )
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(n * t_out, c_in * k)
    w2 = w.reshape(c_out, c_in * k)
    y = (cols @ w2.T).reshape(n, t_out, c_out).transpose(0, 2, 1) + b[None, :, None]
    g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n * t_out, c_out)
    gw = (g2.T @ cols).reshape(c_out, c_in, k)
    gcols = (g2 @ w2).reshape(n, t_out, c_in, k).transpose(0, 2, 1, 3)
    gxp = np.zeros((n, c_in, t_pad), x.dtype)
    for j in range(k):
        gxp[:, :, j : j + stride * t_out : stride] += gcols[:, :, :, j]
    gx = gxp[:, :, padding : t_pad - padding] if padding else gxp
    return y, gx, gw, g.sum(axis=(0, 2))


def branch_keeping_everything(branch, x: Tensor, dlogits, mfa: str = "aggregate", skip: str = "operand"):
    """The logits of GroupBranch `branch` for slice x, every parameter's
    gradient for the logits' gradient dlogits left in its .grad, made op by
    op with every op output kept, so that nothing is made again.

    Each gradient is summed in the order of the library's former
    reverse-mode graph walk: a block output's gradient is the next block's
    skip share, then that block's conv1 input gradient, then, with MFA, the
    block's share of the aggregation's gradient.  `mfa` makes the
    aggregation with the library's op ("aggregate"), as one 1x1 conv1d of
    the channel concatenation of the block outputs ("concat"), or as a
    chain of 1x1 conv1d ops, one per block output with its slice of the
    weight and the previous one's output as its residual ("chain").
    `skip="add"` adds a conventional block's skip to its second BN's output
    apart, before a separate ReLU, instead of as the BN's residual operand.
    """
    from functools import reduce

    params = [p for _, layer in branch.sublayers() for _, p in layer.named_parameters()]
    for p in params:
        p.zero_grad()
    x = Tensor(x.data.astype(branch.dtype, copy=False))  # the branch's one cast, at entry
    blocks, c = branch.blocks, branch.cfg.block.channels
    e = branch.entry_conv(x)
    h, stats_e = branch.entry_bn(e, relu=True)
    hs, made = [h], []  # hs[i + 1] is block i's output
    for block in blocks:
        if isinstance(block, ImprovedResidualBlock):
            c1 = block.conv1(h)
            a, stats1 = block.bn(c1, relu=True)
            made.append((c1, stats1, a))
            h = block.conv2(a, residual=h)
        else:
            c1 = block.conv1(h)
            a, stats1 = block.bn1(c1, relu=True)
            c2 = block.conv2(a)
            if skip == "add":
                p, stats2 = block.bn2(c2)
                y = Tensor(np.maximum(h.data + p.data, 0.0), requires_grad=True)
            else:
                y, stats2 = block.bn2(c2, relu=True, residual=h)
            made.append((c1, stats1, a, c2, stats2, y))
            h = y
        hs.append(h)
    if branch.cfg.mfa:
        w, b = branch.mfa_conv.weight, branch.mfa_conv.bias
        if mfa == "aggregate":
            agg = aggregate(hs[1:], w, b)
        elif mfa == "concat":
            cat = Tensor(np.concatenate([t.data for t in hs[1:]], axis=1), requires_grad=True)
            agg = conv1d(cat, w, b)
        else:
            slices = [Tensor(w.data[:, i * c : (i + 1) * c], requires_grad=True) for i in range(len(blocks))]
            zero, agg = Tensor(np.zeros(b.shape, b.data.dtype)), None
            for t, w_i in zip(hs[1:], slices):
                agg = conv1d(t, w_i, b if agg is None else zero, residual=agg)
        m, stats_m = branch.mfa_bn(agg, relu=True)
    else:
        m = h
    emb = max_pool_time(m)
    logits = branch.classifier(emb)

    arriving = [[] for _ in hs]  # each block output's gradient contributions, in arrival order
    g = max_pool_time_backward(branch.classifier.backward(dlogits, emb), m)
    shares = [None] * len(blocks)
    if branch.cfg.mfa:
        g = branch.mfa_bn.backward(g, agg, stats_m, m)[0]
        if mfa == "aggregate":
            gw = np.zeros(w.shape, w.data.dtype)
            for i in reversed(range(len(blocks))):
                shares[i] = aggregate_backward(g, hs[i + 1], w, b, i * c, gw)
        elif mfa == "concat":
            gcat = conv1d_backward(g, cat, w, b)
            shares = [gcat[:, i * c : (i + 1) * c] for i in range(len(blocks))]
        else:
            for i in reversed(range(len(blocks))):
                shares[i] = conv1d_backward(g, hs[i + 1], slices[i], b if i == 0 else zero)
            w.grad = np.concatenate([w_i.grad for w_i in slices], axis=1)
    else:
        arriving[-1].append(g)
    for i in reversed(range(len(blocks))):
        block = blocks[i]
        if shares[i] is not None:
            arriving[i + 1].append(shares[i])
        g = reduce(np.add, arriving[i + 1])
        if isinstance(block, ImprovedResidualBlock):
            c1, stats1, a = made[i]
            arriving[i].append(g)
            gc1 = block.bn.backward(block.conv2.backward(g, a), c1, stats1, a)[0]
        else:
            c1, stats1, a, c2, stats2, y = made[i]
            if skip == "add":
                g = g * (y.data > 0)
                arriving[i].append(g)
                gc2 = block.bn2.backward(g, c2, stats2)[0]
            else:
                gc2, g_skip = block.bn2.backward(g, c2, stats2, y)
                arriving[i].append(g_skip)
            gc1 = block.bn1.backward(block.conv2.backward(gc2, a), c1, stats1, a)[0]
        arriving[i].append(block.conv1.backward(gc1, hs[i]))
    g = reduce(np.add, arriving[0])
    branch.entry_conv.backward(branch.entry_bn.backward(g, e, stats_e, hs[0])[0], x)
    return logits


# ---------------------------------------------------------------------------
# the folded inference forward as the library computed it while conv1d had a k == 1
# path of its own, aggregate held one product buffer and the fold made a
# (C_out, C_in, k) weight: references for the one forward path, by bytes


def conv1d_forward_two_path(x: np.ndarray, w: np.ndarray, b: np.ndarray, residual=None) -> np.ndarray:
    """conv1d's output: for k == 1 the one tap written, then the bias added;
    otherwise the bias plus each tap in table order, through one term buffer;
    then the residual, if any, added."""
    n, _, t = x.shape
    c_out, _, k = w.shape
    table = []
    for j in range(k):
        s = j - k // 2
        lo, hi = max(0, -s), min(t, t - s)
        if lo < hi:
            table.append((j, lo, hi, s))
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    y = np.empty((n, c_out, t), x.dtype)
    if k == 1:
        np.matmul(taps[0], x, out=y)
        y += b[None, :, None]
    else:
        y[...] = b[None, :, None]
        term = np.empty_like(y)
        for j, lo, hi, s in table:
            y[:, :, lo:hi] += np.matmul(taps[j], x[:, :, lo + s : hi + s], out=term[:, :, lo:hi])
    if residual is not None:
        y += residual
    return y


def conv1d_batched(x: np.ndarray, w: np.ndarray, b: np.ndarray, g: np.ndarray):
    """conv1d's output and its weight and input gradients for upstream gradient
    g, each tap's product taken over the whole batch at once, as the library
    computed them before it went sample by sample: the output's first tap
    written, the bias added and every other tap added through one
    output-sized term buffer; dW per tap as the batch's products summed over
    the samples; dX from the centre tap's share plus each other tap's
    through one input-sized term buffer."""
    n, c_in, t = x.shape
    c_out, _, k = w.shape
    table = []
    for j in range(k):
        s = j - k // 2
        lo, hi = max(0, -s), min(t, t - s)
        if lo < hi:
            table.append((j, lo, hi, s))
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    y = np.empty((n, c_out, t), x.dtype)
    (j, lo, hi, s), rest = table[0], table[1:]
    np.matmul(taps[j], x[:, :, lo + s : hi + s], out=y[:, :, lo:hi])
    y[:, :, lo:hi] += b[None, :, None]
    y[:, :, :lo] = b[None, :, None]
    term = np.empty_like(y)
    for j, lo, hi, s in rest:
        y[:, :, lo:hi] += np.matmul(taps[j], x[:, :, lo + s : hi + s], out=term[:, :, lo:hi])
    gw = np.zeros((c_out, c_in, k), x.dtype)
    prod = np.empty((n, c_out, c_in), x.dtype)
    for j, lo, hi, s in table:
        np.matmul(g[:, :, lo:hi], x[:, :, lo + s : hi + s].transpose(0, 2, 1), out=prod)
        prod.sum(axis=0, out=gw[:, :, j])
    gx = np.matmul(taps[k // 2].T, g)
    term = np.empty_like(gx)
    for j, lo, hi, s in table:
        if s:
            gx[:, :, lo + s : hi + s] += np.matmul(taps[j].T, g, out=term)[:, :, lo:hi]
    return y, gw, gx


def aggregate_forward_with_term(xs, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """aggregate's output, every share after the first made in one held term buffer."""
    y = term = None
    hi = 0
    for x in xs:
        lo, hi = hi, hi + x.shape[1]
        if y is None:
            y = np.matmul(w[:, lo:hi, 0], x)
            y += b[None, :, None]
        else:
            if term is None:
                term = np.empty_like(y)
            y += np.matmul(w[:, lo:hi, 0], x, out=term)
    return y


def fold_by_broadcast(conv, bn=None, read=getattr):
    """model._fold with the folded weight made as W * scale in W's own layout
    (without bn, W itself)."""
    import copy

    from lgpnet.tensor import BN_EPS

    w, bias = read(conv.weight, "data"), read(conv.bias, "data")
    if bn is not None:
        state = bn.state
        scale = read(state.gamma, "data") / np.sqrt(read(state, "running_var") + BN_EPS)
        bias = (bias - read(state, "running_mean")) * scale + read(state.beta, "data")
        w = w * scale[:, None, None]
    folded = copy.copy(conv)
    folded.weight, folded.bias = Tensor(w), Tensor(bias)
    return folded


def use_two_path_forward(monkeypatch) -> None:
    """Make lgpnet.model fold and convolve with the references above (forwards
    that keep nothing only)."""
    import lgpnet.model as model

    def conv(x, w, b, residual=None):
        return Tensor(conv1d_forward_two_path(x.data, w.data, b.data, None if residual is None else residual.data))

    def aggregate(xs, w, b):
        return Tensor(aggregate_forward_with_term((x.data for x in xs), w.data, b.data))

    monkeypatch.setattr(model, "_fold", fold_by_broadcast)
    monkeypatch.setattr(model, "conv1d", conv)
    monkeypatch.setattr(model, "aggregate", aggregate)


# ---------------------------------------------------------------------------
# batchnorm1d's gradients as computed when its forward kept x-hat for the backward


def batchnorm1d_grads_keeping_xhat(x: np.ndarray, state, g: np.ndarray):
    """(dx, dgamma, dbeta) of batchnorm1d at x, on the batch's statistics,
    for upstream gradient g: the library's former backward, fed the x-hat
    its forward computed."""
    from lgpnet.tensor import BN_EPS

    n, c, t = x.shape
    mean = x.mean(axis=(0, 2))
    xhat = x - mean[None, :, None]
    var = np.square(xhat).mean(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[None, :, None]
    g_xhat = g * xhat
    g_gamma = g_xhat.sum(axis=(0, 2))
    g_beta = g.sum(axis=(0, 2))
    scale = state.gamma.data * inv_std
    gx = g * scale[None, :, None]
    np.multiply(xhat, (scale * g_gamma / (n * t))[None, :, None], out=g_xhat)
    g_xhat += (scale * g_beta / (n * t))[None, :, None]
    gx -= g_xhat
    return gx, g_gamma, g_beta


# ---------------------------------------------------------------------------
# Adam as one expression per parameter: the library's former update, kept as
# a reference for the in-place one


def adam_step_by_expression(state, lr: float) -> None:
    """One Adam step on an AdamState, each parameter updated by numpy
    expressions that allocate their temporaries; a missing grad is zeros."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g**2
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# per-sample inference: each sample alone through every branch


def group_logits_per_sample(model, lgp, feats) -> list[np.ndarray]:
    """The G group logit arrays (N x 2 each) of feats, each sample forwarded
    alone through the whole ensemble (`forward_slices` of a batch of one)
    before the next sample starts, stacked in sample order."""
    per_sample = [[b.data for b in model.forward_slices(group_inputs(lgp, feats[j : j + 1]))]
                  for j in range(len(feats))]
    return [np.concatenate(logits) for logits in zip(*per_sample)]


# ---------------------------------------------------------------------------
# training memory at full size


def full_size_steps_peak_rss_mb(batch: int, steps: int = 2, improved_blocks: bool = True) -> float:
    """Peak RSS, in MiB, of this process after `steps` training steps of the
    full-size default network (8 branches, each fed its 248 of the 1984 LGP
    columns of 400 random 60-dim frames per sample through a random bank)
    at `batch` samples, run by `run_epoch`, with improved or standard
    residual blocks.  Meaningful in a fresh interpreter only: the peak is
    the process's high-water mark."""
    import resource

    from lgpnet.model import ModelCfg, build_model
    from lgpnet.multiscale import GroupAssignment, GroupLgp
    from lgpnet.training import AdamState, TrainConfig, run_epoch

    cfg = ModelCfg(improved_blocks=improved_blocks)
    rng = np.random.default_rng(0)
    bank = random_bank(rng, [64, 128, 256, 512, 1024], 60)
    lgp = GroupLgp(bank, GroupAssignment({o: np.arange(o) % cfg.n_groups for o in bank.orders}, cfg.n_groups))
    model = build_model(cfg, seed=0)
    frames = rng.normal(size=(batch, 400, 60))
    labels = np.arange(batch) % 2
    state = AdamState(model.parameters())
    train_cfg = TrainConfig(batch_size=batch, epochs=1)
    for _ in range(steps):
        run_epoch(model, lgp, frames, labels, train_cfg, state, np.arange(batch), train_cfg.learning_rate)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# scoring memory at full size


def write_full_size_score_inputs(root: Path) -> list[str]:
    """Write under root a random bank of the default orders, a full-size
    randomly initialised checkpoint over the bank's lineage grouping and 4
    synthetic utterances; returns the `score` arguments that read them,
    under the default config."""
    from lgpnet.config import load_config
    from lgpnet.lfcc import N_DIMS
    from lgpnet.model import build_model, save_checkpoint
    from lgpnet.multiscale import lineage_grouping, save_bank

    cfg = load_config(None)
    bank = random_bank(np.random.default_rng(0), sorted(cfg.bank_orders), N_DIMS)
    save_bank(bank, root / "gmms")
    save_checkpoint(root / "model.npz", build_model(cfg.model_cfg(), seed=0),
                    lineage_grouping(bank, cfg.n_groups))
    protocol, audio_dir = build_synth_corpus(root, n_per_class=2, seed=9)
    return ["score", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
            "--gmm-dir", str(root / "gmms"), "--checkpoint", str(root / "model.npz"),
            "--out", str(root / "scores.txt")]


def full_size_score_peak_rss_mb(workers: int | None = None) -> tuple[float, float]:
    """(peak RSS once lgpnet is imported, peak RSS after one `score`), in MiB,
    of this process, scoring the inputs of `write_full_size_score_inputs`.
    With `workers`, the maps run on a pool of that many threads whatever the
    CPU count, with one malloc arena as a real pool has.  A child
    interpreter writes the inputs, so building the 90 MB model stays out of
    this process's peak.  Meaningful in a fresh interpreter only: the peak
    is the process's high-water mark."""
    import contextlib
    import io
    import os
    import resource
    import subprocess
    import sys
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    import lgpnet.tensor as tensor
    from lgpnet.cli import cli_main

    if workers is not None:
        tensor._one_malloc_arena()
        pool = ThreadPoolExecutor(max_workers=workers, initializer=tensor._mark_worker)
        tensor._get_pool = lambda: pool

    baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with tempfile.TemporaryDirectory() as tmp:
        code = ("import sys; from pathlib import Path; from helpers import write_full_size_score_inputs; "
                "print('\\n'.join(write_full_size_score_inputs(Path(sys.argv[1]))))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        argv = subprocess.run([sys.executable, "-c", code, tmp], env=env, check=True,
                              capture_output=True, text=True).stdout.splitlines()
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise RuntimeError("score failed")
    return baseline, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# brute-force EER oracle: FAR/FRR at every score value, naive counting


def eer_by_threshold_sweep(bona: np.ndarray, spoof: np.ndarray) -> float:
    candidates = sorted(set(np.concatenate([bona, spoof]).tolist()))
    points = []
    for t in candidates:
        far = float(np.mean(spoof >= t))
        frr = float(np.mean(bona < t))
        points.append((far, frr))
    points.append((0.0, 1.0))  # accept nothing
    for (far0, frr0), (far1, frr1) in zip(points, points[1:]):
        d0, d1 = far0 - frr0, far1 - frr1
        if (d0 > 0) != (d1 > 0) or d1 == 0 or d0 == 0:
            if d0 == 0:
                return far0
            frac = d0 / (d0 - d1)
            return far0 + frac * (far1 - far0)
    raise AssertionError("no FAR/FRR crossing found")


# ---------------------------------------------------------------------------
# synthetic two-class corpus: band-limited noise vs sinusoid mixtures


def synth_waveform(rng: np.random.Generator, kind: str, n: int = 16000, sr: int = 16000) -> np.ndarray:
    if kind == "noise":
        white = rng.normal(size=n)
        kernel = np.ones(8) / 8.0  # crude low-pass band limiting
        return np.convolve(white, kernel, mode="same") * 0.2
    if kind == "tones":
        t = np.arange(n) / sr
        wave = np.zeros(n)
        for _ in range(3):
            freq = rng.uniform(200.0, 3000.0)
            wave += rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        return wave
    raise ValueError(kind)


def build_synth_corpus(
    root: Path, n_per_class: int = 32, seed: int = 7, prefix: str = "SYN"
) -> tuple[Path, Path]:
    """Write WAVs and a protocol file; sinusoid mixtures are the bona fide class.
    The utt_ids are <prefix>_B_<i> and <prefix>_S_<i>, so corpora of two
    prefixes share none.

    Returns (protocol_path, audio_dir).
    """
    rng = np.random.default_rng(seed)
    audio_dir = root / "wav"
    audio_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(n_per_class):
        wave = synth_waveform(rng, "tones")
        utt = f"{prefix}_B_{i:04d}"
        write_wav_int16(audio_dir / f"{utt}.wav", np.clip(wave, -1, 1) * 32000)
        lines.append(f"SPK1 {utt} - - bonafide")
    for i in range(n_per_class):
        wave = synth_waveform(rng, "noise")
        utt = f"{prefix}_S_{i:04d}"
        write_wav_int16(audio_dir / f"{utt}.wav", np.clip(wave, -1, 1) * 32000)
        lines.append(f"SPK2 {utt} - A01 spoof")
    protocol = root / "protocol.txt"
    protocol.write_text("\n".join(lines) + "\n")
    return protocol, audio_dir


# ---------------------------------------------------------------------------
# random GMMs built by genuine binary splits (no EM), for structural tests


def random_split_gmm(rng: np.random.Generator, order: int, dim: int):
    from lgpnet.gmm import Gmm, binary_split

    g = Gmm(
        weights=np.array([1.0]),
        means=rng.normal(size=(1, dim)),
        variances=rng.uniform(0.5, 2.0, size=(1, dim)),
    )
    while g.order < order:
        g = binary_split(g)
        # jitter so components are distinguishable
        g = Gmm(
            weights=g.weights,
            means=g.means + rng.normal(scale=0.01, size=g.means.shape),
            variances=g.variances * rng.uniform(0.9, 1.1, size=g.variances.shape),
        )
    return g


def em_e_step_reference(gmm, data: np.ndarray):
    """EM's E-step unfused: (point_ll, nk, sum_x, sum_x2).

    Log densities come from the expanded quadratic form (two GEMMs), the
    normaliser from exp(log_joint - max), the responsibilities from a second
    exp, exp(log_joint - ll), and each statistic from its own reduction.
    """
    prec = 1.0 / gmm.variances
    quad = (data**2) @ prec.T - 2.0 * data @ (gmm.means * prec).T + np.sum(gmm.means**2 * prec, axis=1)
    log_det = np.sum(np.log(gmm.variances), axis=1)
    log_joint = -0.5 * (quad + gmm.dim * np.log(2.0 * np.pi) + log_det) + np.log(gmm.weights)
    m = log_joint.max(axis=1, keepdims=True)
    point_ll = m[:, 0] + np.log(np.sum(np.exp(log_joint - m), axis=1))
    resp = np.exp(log_joint - point_ll[:, None])
    return point_ll, resp.sum(axis=0), resp.T @ data, resp.T @ data**2


def e_step_by_waves(gmm, data: np.ndarray):
    """The fused E-step, run inline, with each wave of _EM_WAVE chunks'
    statistics kept in one (chunks, 2D+1, K) array that is summed over axis
    0 and added to the total: (point_ll, statistics (K, 2D+1)).  This is
    the association `gmm._e_step` keeps while it holds no such array."""
    from lgpnet.gmm import _EM_CHUNK, _EM_WAVE, _EXP_FLOOR, _LOG_2PI, _lgp_coefficients
    from lgpnet.tensor import _blas_single_thread

    n, d = data.shape
    const = np.sum(gmm.means**2 / gmm.variances + np.log(gmm.variances), axis=1) + d * _LOG_2PI
    coef = np.vstack([_lgp_coefficients(gmm), np.log(gmm.weights) - 0.5 * const])
    point_ll, stats = np.empty(n), np.zeros((2 * d + 1, gmm.order))
    span = _EM_CHUNK * _EM_WAVE
    for wave in range(0, n, span):
        los = range(wave, min(n, wave + span), _EM_CHUNK)
        parts = np.empty((len(los), 2 * d + 1, gmm.order))
        for i, lo in enumerate(los):
            x = data[lo : lo + _EM_CHUNK]
            a = np.concatenate([x**2, x, np.ones((len(x), 1))], axis=1)
            with _blas_single_thread():
                joint = a @ coef
            m = joint.max(axis=1, keepdims=True)
            joint = np.exp(np.maximum(joint - m, _EXP_FLOOR))
            s = joint.sum(axis=1, keepdims=True)
            point_ll[lo : lo + len(x)] = m[:, 0] + np.log(s[:, 0])
            with _blas_single_thread():
                np.matmul((a / s).T, joint, out=parts[i])
        stats += parts.sum(axis=0)
    return point_ll, stats.T


# ---------------------------------------------------------------------------
# group layout by nested loops: the library's former index_lists, kept as
# a reference, and a scattered grouping for tests that need one other than
# the lineage grouping


def index_lists_by_offsets(assignment) -> list[np.ndarray]:
    """Per group, the concatenated-feature columns: each order's member
    components shifted by the order's offset, orders ascending."""
    offsets = {}
    off = 0
    for order in assignment.orders:
        offsets[order] = off
        off += order
    out = []
    for g in range(assignment.n_groups):
        cols = []
        for order in assignment.orders:
            comps = np.flatnonzero(assignment.groups[order] == g)
            cols.append(comps + offsets[order])
        out.append(np.concatenate(cols))
    return out


def scattered_assignment(bank, n_groups: int, seed: int):
    """A balanced `GroupAssignment` that scatters split siblings: per order, a
    seeded random permutation cut into n_groups consecutive runs."""
    from lgpnet.multiscale import GroupAssignment

    rng = np.random.default_rng(seed)
    groups = {}
    for gmm in bank.gmms:
        perm = rng.permutation(gmm.order)
        assign = np.empty(gmm.order, dtype=np.int64)
        per_group = gmm.order // n_groups
        for g in range(n_groups):
            assign[perm[g * per_group : (g + 1) * per_group]] = g
        groups[gmm.order] = assign
    return GroupAssignment(groups=groups, n_groups=n_groups)


def random_bank(rng: np.random.Generator, orders: list[int], dim: int):
    from lgpnet.multiscale import GmmBank

    return GmmBank(gmms=[random_split_gmm(rng, order, dim) for order in orders])


# ---------------------------------------------------------------------------
# group slices and inputs through the library's own column lists


def group_slices(assignment, x: np.ndarray) -> list[np.ndarray]:
    """Group g's slice x[:, cols] of stacked features x, for each group's
    columns cols in `assignment.index_lists()`."""
    return [x[:, cols] for cols in assignment.index_lists()]


def group_inputs(lgp, frames: np.ndarray) -> list[Tensor]:
    """Every group's input for an (N, T, D) batch of frames, in group order:
    `lgp.input(frames, g)` for each group g of a `multiscale.GroupLgp`."""
    return [lgp.input(frames, g) for g in range(lgp.assignment.n_groups)]


def whole_lgp(bank, frames: np.ndarray) -> np.ndarray:
    """The (N, D_total, T) multi-order LGP of an (N, T, D) batch of frames:
    the one input of a one-group `GroupLgp`, whose columns are the bank's
    components in order, from one GEMM over all of them."""
    from lgpnet.multiscale import GroupLgp, lineage_grouping

    return GroupLgp(bank, lineage_grouping(bank, 1)).input(frames, 0).data


# ---------------------------------------------------------------------------
# checkpoint surgery


def rewrite_arrays(path, edit) -> None:
    """Apply edit(dict of every stored array, by key) to a checkpoint file."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(path, "wb") as fh:  # np.savez would add .npz to a name without it
        np.savez(fh, **arrays)


def rewrite_meta(path, edit) -> None:
    """Apply edit(meta dict) to the JSON meta record of a checkpoint file."""

    def edit_meta(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        edit(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

    rewrite_arrays(path, edit_meta)


def standard_forward_by_add(block, x: Tensor):
    """StandardResidualBlock.forward with its skip added to the second BN's
    output (or, with that BN folded, the folded convolution's) apart, before
    a separate ReLU: relu(x + h), as the library made it before the skip
    joined the BN.  Keeps nothing."""
    from lgpnet.model import _conv_bn_relu

    a = _conv_bn_relu(block.conv1, block.bn1, x)[0]
    h = block.conv2(a)
    if block.bn2 is not None:
        h = block.bn2(h)[0]
    return Tensor(np.maximum(x.data + h.data, 0.0)), None
