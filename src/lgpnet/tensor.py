"""Dense float32 or float64 tensors and the network's ops, each a forward and
a backward.

Covers exactly the operations the grouped 1-d residual network runs:
same-length convolution, `aggregate` (the 1x1 convolution of a channel
concatenation, summed input by input without the concatenation), batch
normalization (by the batch's statistics or given ones) with an optional
ReLU, max pooling over time and linear layers.  Convolution and batch
normalization can add a ``residual`` operand to their output.  There is no graph: each op ``f`` has a public
``f_backward`` that takes the gradient of f's output and the operands
(and whatever else the forward returned), adds each parameter's gradient
to its ``.grad`` (`Tensor._accumulate`) and returns the input's gradient.
Every backward makes every one of those gradients, as training wants them
all, save the entry convolution's input gradient, which
``conv1d_backward(..., dx=False)`` leaves unmade.  The residual's gradient
is the one reaching the sum (for batchnorm1d, before its ReLU).
`model.GroupBranch` calls the backwards in its own explicit order, so a
caller holds just what that order reads.  No backward writes into an
array it was handed, so a gradient may be stored or passed on without a
copy.

Each backward reads, besides its upstream gradient:

- conv1d_backward: x and the weight (its tap table is made again);
- aggregate_backward: one input, with its channel range, at a time; the
  weight gradient is put together slice by slice in an array the caller
  holds;
- batchnorm1d_backward: x, the per-channel mean and 1/std the forward
  returned (the normalized input is recomputed from x with the forward's
  own two ops, bit for bit) and, after a ReLU, the op's output, whose
  mask it reads.  Handed those statistics, `batchnorm1d` makes that output
  again, bit for bit, without touching the running statistics, so a
  caller may drop it after the forward (after Pleiss et al., arXiv
  1707.06990);
- max_pool_time_backward: x, whose argmax it takes again;
- linear_backward: x and the weight.

Convolution is stride 1 and same-length (k odd, k // 2 zeros on each side
of the time axis), and a sum over the k taps of one matrix product each.
One table gives every tap j its output range [lo, hi) and its input shift
s = j - k // 2: tap j adds ``W[:, :, j] @ x[n, :, lo+s : hi+s]`` to outputs
lo..hi-1 of sample n.  Padding is handled by those ranges alone, so no
padded copy or view of the input exists.  The taps are read from the
weight's (k, C_out, C_in) transpose, copied once per call unless it is
already C-contiguous.  Every weight of a folded branch is
(`model.GroupBranch.folded`), so inference copies no weight; training's
weights, which Adam updates in place, are copied once per call.  Forward and
backward go sample by sample, tap by tap within each sample, so every
buffer they add through is the size of one sample.  One forward path
serves every k: per sample, the first tap in the table writes its own
output columns, the bias is added to them and written to the columns it
misses, and every other tap's product goes through one (C_out, T) term
buffer and is added at its range, so the output is the bias plus each tap
in table order, bit for bit.  `aggregate` needs no such buffer: each
input's share is a temporary product, added to the output and freed at
once, so between two inputs it holds nothing but its output.  Backward
reads the same table.  The weight gradient of tap j is sample 0's
(C_out, C_in) product, then each later sample's added in turn.  A
sample's input gradient starts from the centre tap's share; every other
tap's share, one product over every column, goes through one (C_in, T)
term buffer and is added at its shift.  No window (im2col) matrix is built.

Every op computes in its input's dtype, float32 or float64, and makes each
array it allocates in that dtype; a `Tensor` keeps a float32 or float64
array and makes anything else float64.  A network computes in its
parameters' dtype (`model.GroupBranch.forward` casts its input to it), and
new models are float32.  Independent branches (the ensemble's
group branches), forwards and backwards alike, run as maps on a worker
pool sized to the usable CPUs, by one loop, `_ordered_map`, whose
docstring states the map contract (`_parallel_map` collects its results).
Every OpenBLAS runs at one thread for a map's calls, so the ops, and the
feature GEMMs under `_blas_single_thread`, give the same bits whatever the
CPU count.  When the pool is made, glibc is told to keep one malloc arena
for all threads, so that memory a worker frees can be reused by the others
instead of raising the peak.
"""
from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError


_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # what a network computes in; a Tensor keeps either as is


class Tensor:
    """An array and its gradient, float32 or float64.

    Nothing in lgpnet reads ``requires_grad``: every backward makes every
    gradient.  The flag stays because perfbench's tracer reads it on each
    traced `conv1d` call, and the layers still set it on their parameters."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _DTYPES else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # Invariant: no backward writes into an array it was handed, so g is stored as is.
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# worker pool for independent branches


_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_pool_lock = threading.RLock()
_pool: ThreadPoolExecutor | None = None
_pool_ready = False
_blas_controls: list[tuple] | None = None  # (get, set) of every loaded OpenBLAS, found once
_worker = threading.local()  # .active: this thread is a pool worker


def _find_blas_controls() -> list[tuple]:
    """Thread get/set functions of every OpenBLAS mapped into the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


def _controls() -> list[tuple]:
    """`_find_blas_controls()`, scanned on first use: importing lgpnet maps
    numpy's OpenBLAS and, through scipy.fft, scipy's."""
    global _blas_controls
    with _pool_lock:
        if _blas_controls is None:
            _blas_controls = _find_blas_controls()
        return _blas_controls


def _mark_worker() -> None:
    _worker.active = True


_M_ARENA_MAX = -8  # glibc's mallopt parameter for the number of malloc arenas


def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's one main arena.  By default each
    worker gets an arena of its own, and the memory it frees stays there,
    out of reach of the other threads.  A no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(_M_ARENA_MAX, 1)


def _get_pool() -> ThreadPoolExecutor | None:
    """The shared pool, or None when the map must run inline: one usable CPU,
    or no way to hold the BLAS library at one thread per worker."""
    global _pool, _pool_ready
    with _pool_lock:
        if not _pool_ready:
            workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            if workers > 1 and _controls():
                _one_malloc_arena()
                _pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="lgpnet-branch", initializer=_mark_worker
                )
            _pool_ready = True
        return _pool


def _pool_workers() -> int:
    """The most calls that one map runs at once."""
    pool = _get_pool()
    return pool._max_workers if pool is not None else 1


@contextmanager
def _blas_single_thread():
    """Hold every OpenBLAS at one thread, so that GEMMs give the same bits
    whatever the CPU count.  A no-op on a pool worker, where the map that
    runs it already does so."""
    if getattr(_worker, "active", False):
        yield
        return
    controls = _controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


def _parallel_map(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)], run as `_ordered_map` runs it."""
    results = []
    _ordered_map(fn, n, lambda i, r: results.append(r))
    return results


def _ordered_map(fn, n: int, consume) -> None:
    """consume(i, fn(i)) for i = 0, ..., n-1, in index order on the calling
    thread.  This is the map contract, which `_parallel_map` shares.

    A map of two or more calls runs on the worker pool whenever there is
    one, and inline only when it has fewer than two calls, is started on a
    pool worker, or has no pool (one usable CPU, or no OpenBLAS whose
    thread count can be set); either way every OpenBLAS runs at one thread
    for its calls.  Concurrent multi-threaded BLAS would oversubscribe the
    cores; waiting on the pool from a worker could deadlock.

    On the pool at most workers + 1 calls are in flight, so at most that
    many results exist at once, however large n is.  Every started call has
    finished before this returns or raises.  The first error in index order,
    from fn or consume, is raised; no call starts once it is seen.  Each
    call runs in a copy of the caller's context, so the caller's
    `np.errstate` holds in the workers too.
    """
    pool = None if n < 2 or getattr(_worker, "active", False) else _get_pool()
    with _blas_single_thread():
        if pool is None:
            for i in range(n):
                consume(i, fn(i))
            return
        pending = deque()
        try:
            for i in range(n):
                if len(pending) > pool._max_workers:
                    consume(i - len(pending), pending.popleft().result())
                pending.append(pool.submit(contextvars.copy_context().run, fn, i))
            while pending:
                consume(n - len(pending), pending.popleft().result())
        finally:
            wait(pending)


# ---------------------------------------------------------------------------
# neural network ops


def _tap_table(k: int, t: int) -> list[tuple[int, int, int, int]]:
    """(j, lo, hi, s) per tap j that reads x: it adds W[:, :, j] @ x[:, :, o + s] to
    each output o in [lo, hi), the outputs whose input o + s lies inside x rather
    than in the padding."""
    table = []
    for j in range(k):
        s = j - k // 2
        lo, hi = max(0, -s), min(t, t - s)
        if lo < hi:
            table.append((j, lo, hi, s))
    return table


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, *, residual: Tensor | None = None) -> Tensor:
    """Same-length cross-correlation of N x C_in x T with C_out x C_in x k
    filters (k odd, k // 2 zeros on each side of the time axis), plus
    `residual` (of the output's shape, N x C_out x T) when one is given."""
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeError("conv1d expects x: N x C_in x T and weight: C_out x C_in x k")
    n, c_in, t = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    if k % 2 == 0:
        raise ShapeError("conv1d kernel size must be odd")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d bias must have shape ({c_out},)")
    if t < 1:
        raise ShapeError("conv1d input length must be >= 1")
    table = _tap_table(k, t)
    taps = np.ascontiguousarray(weight.data.transpose(2, 0, 1))  # k x C_out x C_in
    y = np.empty((n, c_out, t), x.data.dtype)
    # per sample, the first tap writes its own columns of y, then the bias goes on (tap +
    # bias is bias + tap, so y is bias + each tap in table order, bit for bit); its s <= 0,
    # since the centre tap is always in the table, so the columns it misses are those below lo
    (j0, lo0, hi0, s0), rest = table[0], table[1:]
    term = np.empty((c_out, t), x.data.dtype) if rest else None
    for xi, yi in zip(x.data, y):
        np.matmul(taps[j0], xi[:, lo0 + s0 : hi0 + s0], out=yi[:, lo0:hi0])
        yi[:, lo0:hi0] += bias.data[:, None]
        yi[:, :lo0] = bias.data[:, None]
        for j, lo, hi, s in rest:
            yi[:, lo:hi] += np.matmul(taps[j], xi[:, lo + s : hi + s], out=term[:, lo:hi])
    if residual is not None:
        if residual.shape != y.shape:
            raise ShapeError(f"conv1d residual shape {residual.shape} differs from output {y.shape}")
        y += residual.data  # conv + residual is residual + conv, bit for bit
    return Tensor(y)


def conv1d_backward(
    g: np.ndarray, x: Tensor, weight: Tensor, bias: Tensor, dx: bool = True
) -> np.ndarray | None:
    """The backward of conv1d(x, weight, bias) for the output's gradient g
    (N x C_out x T): adds the weight's and the bias's gradients to theirs
    and returns x's, or None with dx=False, which leaves it unmade.  A
    residual's gradient is g."""
    n, c_in, t = x.shape
    c_out, _, k = weight.shape
    table = _tap_table(k, t)
    bias._accumulate(g.sum(axis=(0, 2)))
    # dW[:, :, j] = sum_n g[n, :, lo:hi] @ x[n, :, lo+s : hi+s].T, summed in sample
    # order: sample 0's product is written, each later one added (a tap outside
    # the table, where t <= k // 2, keeps its zeros)
    gw = np.zeros((c_out, c_in, k), x.data.dtype)
    term = np.empty((c_out, c_in), x.data.dtype)
    for i, (xi, gi) in enumerate(zip(x.data, g)):
        for j, lo, hi, s in table:
            np.matmul(gi[:, lo:hi], xi[:, lo + s : hi + s].T, out=term)
            if i:
                gw[:, :, j] += term
            else:
                gw[:, :, j] = term
    weight._accumulate(gw)
    if not dx:
        return None
    # tap j's share W[:, :, j].T @ g[n], taken over every column so that each
    # tap's product is the same GEMM: share[:, o] belongs to input o + s.
    # Sample n's dX starts from the centre tap's share, the one tap whose inputs
    # are all of x (for k=1 the product itself), instead of from zeros.  For
    # k <= 3 that share is at most the second one added at any input, so the
    # sum equals 0 + each share in table order, bit for bit.
    taps = np.ascontiguousarray(weight.data.transpose(2, 0, 1))  # the forward's k x C_out x C_in
    gx = np.empty((n, c_in, t), x.data.dtype)
    term = np.empty((c_in, t), x.data.dtype) if k > 1 else None
    for gi, gxi in zip(g, gx):
        np.matmul(taps[k // 2].T, gi, out=gxi)
        for j, lo, hi, s in table:
            if s:
                gxi[:, lo + s : hi + s] += np.matmul(taps[j].T, gi, out=term)[:, lo:hi]
    return gx


def aggregate(xs, weight: Tensor, bias: Tensor) -> Tensor:
    """conv1d of the channel concatenation of xs with a C_out x C_in x 1 weight,
    without the concatenation: bias plus, for each x in turn, x's 1x1
    convolution with its input-channel slice of the weight.

    xs may be a generator.  Each x's share is added to the one output array
    as soon as x arrives, so no partial sum or product buffer exists after
    that, and no x is kept.
    """
    if weight.ndim != 3 or weight.shape[2] != 1:
        raise ShapeError(f"aggregate needs a C_out x C_in x 1 weight, got shape {weight.shape}")
    c_out, c_in, _ = weight.shape
    if bias.shape != (c_out,):
        raise ShapeError(f"aggregate bias must have shape ({c_out},)")
    w = weight.data
    y = None
    hi = 0
    for x in xs:
        if x.ndim != 3 or hi + x.shape[1] > c_in:
            raise ShapeError(f"aggregate input of shape {x.shape} does not fit a weight of {c_in} input channels")
        lo, hi = hi, hi + x.shape[1]
        if y is None:
            y = np.matmul(w[:, lo:hi, 0], x.data)
            y += bias.data[None, :, None]
        else:
            if (x.shape[0], x.shape[2]) != (y.shape[0], y.shape[2]):
                raise ShapeError(f"aggregate input of shape {x.shape} does not match output {y.shape}")
            y += np.matmul(w[:, lo:hi, 0], x.data)
    if y is None or hi != c_in:
        raise ShapeError(f"aggregate inputs have {hi} channels in all, the weight {c_in}")
    return Tensor(y)


def aggregate_backward(
    g: np.ndarray, x: Tensor, weight: Tensor, bias: Tensor, lo: int, gw: np.ndarray
) -> np.ndarray:
    """One input's part of the backward of aggregate(xs, weight, bias) for the
    output's gradient g (N x C_out x T), x being the input that met the
    weight's input channels lo..: returns x's gradient, W[:, lo:hi, 0].T @ g,
    and writes x's slice of the weight's gradient, sum_n g[n] @ x[n].T, to
    gw[:, lo:hi, 0], gw being one array of the weight's shape for all the
    parts.

    Run for each input, the last first, the parts make their gradients as a
    chain of residual 1x1 convolutions would; the first input's part
    (lo == 0) also adds g summed over samples and time to the bias's
    gradient, and gw to the weight's.
    """
    hi = lo + x.shape[1]
    np.matmul(g, x.data.transpose(0, 2, 1)).sum(axis=0, out=gw[:, lo:hi, 0])
    if lo == 0:
        bias._accumulate(g.sum(axis=(0, 2)))
        weight._accumulate(gw)
    return np.matmul(weight.data[:, lo:hi, 0].T, g)


BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_EPS = 1e-5  # added to the variance before the square root


class BatchNormState:
    """Learnable scale/shift plus running statistics for one channel axis, float32."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]


def batchnorm1d(
    x: Tensor,
    state: BatchNormState,
    relu: bool = False,
    *,
    residual: Tensor | None = None,
    stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Normalize N x C x T per channel, by the batch's statistics or `stats`.

    Returns the output and the statistics it normalized with, (mean, 1/std)
    per channel, which `batchnorm1d_backward` reads.  By the batch's
    statistics it also moves the running statistics; handed `stats`, it
    leaves them alone: the output of the call that returned them, made
    again bit for bit, or inference, handed the running statistics.

    `residual` (of x's shape), when given, is added to the normalized output,
    and with relu=True the ReLU comes after that: the output is
    relu(bn(x) + residual), computed in place on the normalized array and bit
    for bit equal to a separate add and ReLU, so neither the pre-activation
    nor a mask exists.
    """
    if x.ndim != 3:
        raise ShapeError("batchnorm1d expects N x C x T input")
    n, c, t = x.shape
    if c != state.channels:
        raise ShapeError(f"batchnorm1d channel mismatch: input {c}, state {state.channels}")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"batchnorm1d residual shape {residual.shape} differs from input {x.shape}")
    gamma, beta = state.gamma, state.beta
    if stats is not None:
        mean, inv_std = stats
        y = xhat = x.data - mean[None, :, None]
    else:
        m = n * t
        if m < 2:
            raise ShapeError("batch-statistics batchnorm needs at least 2 values per channel")
        mean = x.data.mean(axis=(0, 2))
        xhat = x.data - mean[None, :, None]
        y = np.square(xhat)  # the same buffer later receives the output
        var = y.mean(axis=(0, 2))
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * (var * m / (m - 1))
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
    # xhat = x - mean is scaled in place, then y = γ·xhat + β (+ residual), ReLU'd
    xhat *= inv_std[None, :, None]
    np.multiply(gamma.data[None, :, None], xhat, out=y)
    del xhat  # the backward recomputes it from x with the same two ops
    y += beta.data[None, :, None]
    if residual is not None:
        y += residual.data  # bn + residual is residual + bn, bit for bit
    if relu:
        np.maximum(y, 0.0, out=y)
    return Tensor(y), (mean, inv_std)


def batchnorm1d_backward(
    g: np.ndarray,
    x: Tensor,
    state: BatchNormState,
    stats: tuple[np.ndarray, np.ndarray],
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The backward of batchnorm1d(x, state, ...) for the output's gradient g,
    `stats` being the batch statistics it returned (only training has a
    backward) and `out` its output array when it applied the ReLU (the mask
    is read from it).

    Adds γ's and β's gradients to theirs and returns x's gradient and the
    gradient reaching bn(x) + residual, before the ReLU: the residual's
    gradient.
    """
    n, _, t = x.shape
    mean, inv_std = stats
    gamma, beta = state.gamma, state.beta
    if out is not None:
        g = g * (out > 0)  # the ReLU's mask: y > 0 exactly where max(y, 0) > 0, NaN included
    xhat = x.data - mean[None, :, None]
    xhat *= inv_std[None, :, None]
    g_xhat = g * xhat
    g_gamma = g_xhat.sum(axis=(0, 2))
    g_beta = g.sum(axis=(0, 2))
    gamma._accumulate(g_gamma)
    beta._accumulate(g_beta)
    # gamma*inv_std * (g - mean(g) - xhat*mean(g*xhat)), reusing the
    # per-channel sums above and the g*xhat buffer
    scale = gamma.data * inv_std
    gx = g * scale[None, :, None]
    np.multiply(xhat, (scale * g_gamma / (n * t))[None, :, None], out=g_xhat)
    g_xhat += (scale * g_beta / (n * t))[None, :, None]
    gx -= g_xhat
    return gx, g


def max_pool_time(x: Tensor) -> Tensor:
    """Adaptive max over the time axis: N x C x T -> N x C."""
    if x.ndim != 3:
        raise ShapeError("max_pool_time expects N x C x T input")
    idx = x.data.argmax(axis=2)
    pooled = np.take_along_axis(x.data, idx[:, :, None], axis=2)[:, :, 0]
    return Tensor(pooled)


def max_pool_time_backward(g: np.ndarray, x: Tensor) -> np.ndarray:
    """x's gradient for the pooled output's gradient g, each routed to the
    earliest maximum when there are ties."""
    n, c, t = x.shape
    gx = np.zeros((n, c, t), x.data.dtype)
    gx[np.arange(n)[:, None], np.arange(c)[None, :], x.data.argmax(axis=2)] = g  # first occurrence on ties
    return gx


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of N x F rows with an O x F weight matrix."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError("linear expects x: N x F and weight: O x F")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear feature mismatch: input {x.shape[1]}, weight {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError("linear bias shape mismatch")
    y = x.data @ weight.data.T + bias.data[None, :]
    return Tensor(y)


def linear_backward(g: np.ndarray, x: Tensor, weight: Tensor, bias: Tensor) -> np.ndarray:
    """The backward of linear(x, weight, bias) for the output's gradient g:
    adds the weight's and the bias's gradients to theirs and returns x's."""
    weight._accumulate(g.T @ x.data)
    bias._accumulate(g.sum(axis=0))
    return g @ weight.data
