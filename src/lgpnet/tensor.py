"""Dense float64 tensors with reverse-mode gradients.

Covers exactly the operations the grouped 1-d residual network runs:
same-length convolution, `aggregate` (the 1x1 convolution of a channel
concatenation, summed input by input without the concatenation), batch
normalization with an optional ReLU, max pooling over time and linear
layers.  The loss is one more node, made by
`training.ensemble_aware_loss` with `_result`.  Convolution and batch
normalization can add a ``residual`` operand to their output.  Each
op wires a backward closure onto its output; ``backward(loss)`` runs the
closures in reverse topological order and releases each node as soon as
its closure has run: its gradient, closure and parent links are dropped.
Activations and interior gradients are therefore freed while the walk
moves down the graph, only leaves (and the nodes without a closure that
`branch_map` hands out) keep their ``.grad``, and a fresh forward pass is
needed per step.

A release point (`_releasing`; `branch_map` makes one around each branch's
forward) drops the array of every tracked batchnorm1d output made inside it
once it returns, since the forward reads them no more.  The first read of
such an array, by the first backward closure that needs it, remakes it with
the forward's own ops from data the node's backward keeps anyway (x, the
statistics, γ, β and the ``residual``), bit for bit, and the walk frees it
with its node.  The walk takes the remake hook off every node it passes, so
no read after backward rebuilds an array from parameters that Adam has
updated since.  A ``no_grad`` pass tracks nothing, so it drops nothing.

Besides its parents, which its closure reads through their ``.data``,
each op's backward keeps:

- conv1d: its tap table and the weight array;
- aggregate: each input's channel range; its links share the one output
  array, so no partial sum is held;
- batchnorm1d: the per-channel mean and 1/std (the normalized input is
  recomputed from x with the forward's own two ops, bit for bit), and no
  output: that is dropped at the release point and remade when first read
  (see above), and the ReLU mask is read from it;
- max_pool_time: the argmax indices;
- linear: nothing more;
- the loss (`training.ensemble_aware_loss`): the (N, 2) log-probabilities
  of the ensemble mean and, with the ensemble-aware term, of each group.

Convolution is stride 1 and same-length (k odd, k // 2 zeros on each side
of the time axis), and a sum over the k taps of one matrix product each.
One table gives every tap j its output range [lo, hi) and its input shift
s = j - k // 2: tap j adds ``W[:, :, j] @ x[n, :, lo+s : hi+s]`` to outputs
lo..hi-1 of sample n.  Padding is handled by those ranges alone, so no
padded copy or view of the input exists.  The taps are read from the
weight's (k, C_out, C_in) transpose, copied once per call unless it is
already C-contiguous (a weight that `model._fold` makes is).  Forward and
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
Gradients are stored on first touch without a copy, which is safe because
no backward closure writes into an array it was handed.

Everything is double precision.  Independent branches of one graph (the
ensemble's group branches) can run side by side: `branch_map` runs them on a
worker pool sized to the usable CPUs, for training and for forward-only
passes alike, with every OpenBLAS in the process (numpy's and scipy's) held
at one thread per worker.  Each op still runs on one thread, so forward
values and gradients are bitwise reproducible for identical inputs.  A
branch's input can be made on its worker too: `branch_map` indexes its
inputs there (see `multiscale.FrameBatch`).
`_blas_single_thread` holds BLAS the same way off the pool, for the feature
GEMMs, so they give the same bits whatever the CPU count.  When the pool is
made, glibc is told to keep one malloc arena for all threads, so that
memory a worker frees can be reused by the others instead of raising the
peak.
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

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (evaluation / scoring passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("_data", "requires_grad", "grad", "_backward", "_prev", "_remake")

    def __init__(self, data, requires_grad: bool = False):
        self._data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()
        self._remake = None  # (remake, reads) while the array is released (see `_releasing`)

    @property
    def data(self) -> np.ndarray:
        """The node's array.  A released array is remade on its first read."""
        if self._remake is not None:
            _remake_from_below(self)
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data, self._remake = value, None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # Invariant: no backward closure writes into an array it was handed, so g is stored as is.
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _tracking(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, track: bool) -> Tensor:
    out = Tensor(data, requires_grad=track)
    if track:
        out._prev = parents
        out._backward = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf reachable from loss that requires grad.

    The graph is consumed as it is walked: once a node's closure has run, its
    gradient, closure and parent links are cleared, so its activation and
    gradient are freed before the walk goes further down (unless the caller
    still holds the node), and a stale second call is impossible.  Leaves,
    and the closure-less nodes that `branch_map` hands out, keep their
    gradients.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    _run_backward(loss, np.ones(()))


def _run_backward(root: Tensor, grad: np.ndarray | None) -> None:
    """Seed root with grad and run the closures below it, releasing each node
    (gradient, closure, parent links) as soon as its closure has run.

    With grad None no closure runs (nothing reaches root); the graph is
    still dropped.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    if grad is not None:
        root._accumulate(grad)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            if grad is not None:
                node._backward()
            node.grad = None
        node._backward = None
        node._prev = ()
        node._remake = None  # so no later read rebuilds it from parameters updated since
        del node


_released: contextvars.ContextVar[list | None] = contextvars.ContextVar("_released", default=None)


def _remake_from_below(top: Tensor) -> None:
    """Remake top's released array and, before it, each released array that
    its remake reads, bottom up.  A conventional block's output is the next
    block's residual, so such arrays form a chain as deep as the branch, and
    remaking them by recursion would overflow the stack."""
    stack = [top]
    while stack:
        node = stack[-1]
        if node._remake is None:  # remade since it was pushed
            stack.pop()
            continue
        remake, reads = node._remake
        below = [t for t in reads if t._remake is not None]
        if below:
            stack.extend(below)
        else:
            stack.pop()
            node._data, node._remake = remake(), None


@contextmanager
def _releasing():
    """A release point.  Inside the block `_released` holds a list, to which
    a tracked op that can remake its output adds (node, (remake, reads)),
    reads being the nodes whose arrays remake() reads.  On leaving the block
    each such node's array is dropped, and its first read after that (in
    backward, by the first closure that needs it) is remake(): the op's own
    forward ops, bit for bit.  The walk frees the array with its node and
    takes the remake hook off every node it passes."""
    marked: list = []
    token = _released.set(marked)
    try:
        yield
    finally:
        _released.reset(token)
        for node, hook in marked:
            node._data, node._remake = None, hook


# ---------------------------------------------------------------------------
# worker pool for independent branches


_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# Below this many elements in all, a map's calls are strings of small numpy ops
# that hold the GIL, and two workers are slower than one thread: on 2 CPUs a
# forward plus backward of a 2-group, 8-channel model at (2, 4, 16) per slice
# went from 2.7 to 5.1 ms on the pool.  A full-size slice holds 198k elements
# per sample.
_MIN_POOL_ELEMENTS = 1 << 15
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
    """The most calls that one `_parallel_map` runs at once."""
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


def _map_pool(n: int, elements: int) -> ThreadPoolExecutor | None:
    """The pool that a map of n calls on `elements` elements in all runs on,
    or None to run it inline (see `_parallel_map`)."""
    if n < 2 or elements < _MIN_POOL_ELEMENTS or getattr(_worker, "active", False):
        return None
    return _get_pool()


def _parallel_map(fn, n: int, elements: int) -> list:
    """[fn(0), ..., fn(n-1)], on the worker pool when there is one and the
    calls work on at least _MIN_POOL_ELEMENTS `elements` in all.

    Every call has finished before this returns or raises; the first error
    in index order is raised.  Each call runs in a copy of the caller's
    context, so the caller's `np.errstate` holds in the workers too.  BLAS
    runs single-threaded meanwhile, since a multi-threaded BLAS under
    concurrent workers oversubscribes the cores.  A map started on a worker
    runs inline there, since waiting on the pool from inside it could
    deadlock.
    """
    pool = _map_pool(n, elements)
    if pool is None:
        return [fn(i) for i in range(n)]
    with _blas_single_thread():
        futures = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(n)]
        wait(futures)
    return [f.result() for f in futures]


def _ordered_map(fn, n: int, elements: int, consume) -> None:
    """consume(i, fn(i)) for i = 0, ..., n-1, in index order on the calling
    thread, with the calls fn(i) run as `_parallel_map` runs them.

    On the pool at most workers + 1 calls are in flight, so at most that
    many results exist at once, however large n is.  Every started call has
    finished before this returns or raises.  The first error in index order,
    from fn or consume, is raised; no call starts once it is seen.
    """
    pool = _map_pool(n, elements)
    if pool is None:
        for i in range(n):
            consume(i, fn(i))
        return
    pending = deque()
    with _blas_single_thread():
        try:
            for i in range(n):
                if len(pending) > pool._max_workers:
                    consume(i - len(pending), pending.popleft().result())
                pending.append(pool.submit(contextvars.copy_context().run, fn, i))
            while pending:
                consume(n - len(pending), pending.popleft().result())
        finally:
            wait(pending)


def branch_map(fn, inputs) -> list[Tensor]:
    """[fn(i, inputs[i]) for each i], for branches that share no tensor.

    `inputs` is a list of Tensors, or a sequence that makes each Tensor when
    indexed and gives the element count of them all as its `size`
    (`multiscale.FrameBatch`).  Branch i reads inputs[i] where it runs.
    The branches run on the worker pool, unless the inputs are too small to
    gain from it (see `_parallel_map`), with gradients tracked or not.  Under
    `no_grad` that is all: an eval-mode branch of the ensemble holds little
    there at once, since it folds each BN into its convolution and adds the
    multi-scale aggregation up block by block (see `model`).

    While gradients are tracked, the outputs hang off one shared node whose
    backward runs each branch's own backward on the pool, so a branch's
    graph is freed as soon as it is done.  Each branch sees a leaf view of
    its input; the input's gradient is passed on once every branch is done.
    """
    n = len(inputs)
    elements = inputs.size if hasattr(inputs, "size") else sum(x.size for x in inputs)
    if not _grad_enabled:
        return _parallel_map(lambda i: fn(i, inputs[i]), n, elements)
    xs: list[Tensor | None] = [None] * n
    leaves: list[Tensor | None] = [None] * n

    def _branch(i):
        x = xs[i] = inputs[i]
        leaves[i] = Tensor(x.data, requires_grad=x.requires_grad)
        with _releasing():
            return fn(i, leaves[i])

    roots = _parallel_map(_branch, n, elements)
    if not any(r.requires_grad for r in roots):
        return roots
    hub = _result(np.zeros(()), tuple(x for x in xs if x.requires_grad), None, True)
    outs = [_result(r.data, (hub,), None, True) if r.requires_grad else r for r in roots]

    def _bw():
        _parallel_map(lambda i: _run_backward(roots[i], outs[i].grad), n, elements)
        for x, leaf in zip(xs, leaves):
            if x.requires_grad and leaf.grad is not None:
                x._accumulate(leaf.grad)

    hub._backward = _bw
    return outs


# ---------------------------------------------------------------------------
# neural network ops


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
    # (j, lo, hi, s): tap j adds W[:, :, j] @ x[:, :, o + s] to each output o in [lo, hi),
    # the outputs whose input o + s lies inside x rather than in the padding
    table = []
    for j in range(k):
        s = j - k // 2
        lo, hi = max(0, -s), min(t, t - s)
        if lo < hi:
            table.append((j, lo, hi, s))
    w = weight.data
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # k x C_out x C_in
    y = np.empty((n, c_out, t))
    # per sample, the first tap writes its own columns of y, then the bias goes on (tap +
    # bias is bias + tap, so y is bias + each tap in table order, bit for bit); its s <= 0,
    # since the centre tap is always in the table, so the columns it misses are those below lo
    (j0, lo0, hi0, s0), rest = table[0], table[1:]
    term = np.empty((c_out, t)) if rest else None
    for xi, yi in zip(x.data, y):
        np.matmul(taps[j0], xi[:, lo0 + s0 : hi0 + s0], out=yi[:, lo0:hi0])
        yi[:, lo0:hi0] += bias.data[:, None]
        yi[:, :lo0] = bias.data[:, None]
        for j, lo, hi, s in rest:
            yi[:, lo:hi] += np.matmul(taps[j], xi[:, lo + s : hi + s], out=term[:, lo:hi])
    parents = (x, weight, bias)
    if residual is not None:
        if residual.shape != y.shape:
            raise ShapeError(f"conv1d residual shape {residual.shape} differs from output {y.shape}")
        y += residual.data  # conv + residual is residual + conv, bit for bit
        parents += (residual,)

    track = _tracking(*parents)
    out = _result(y, parents, None, track)
    if track:
        def _bw():
            g = out.grad  # N x C_out x T
            if residual is not None and residual.requires_grad:
                residual._accumulate(g)
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2)))
            if weight.requires_grad:
                # dW[:, :, j] = sum_n g[n, :, lo:hi] @ x[n, :, lo+s : hi+s].T, summed in sample
                # order: sample 0's product is written, each later one added (a tap outside
                # the table, where t <= k // 2, keeps its zeros)
                gw = np.zeros((c_out, c_in, k))
                term = np.empty((c_out, c_in))
                for i, (xi, gi) in enumerate(zip(x.data, g)):
                    for j, lo, hi, s in table:
                        np.matmul(gi[:, lo:hi], xi[:, lo + s : hi + s].T, out=term)
                        if i:
                            gw[:, :, j] += term
                        else:
                            gw[:, :, j] = term
                weight._accumulate(gw)
            if x.requires_grad:
                # tap j's share W[:, :, j].T @ g[n], taken over every column so that each
                # tap's product is the same GEMM: share[:, o] belongs to input o + s.
                # Sample n's dX starts from the centre tap's share, the one tap whose inputs
                # are all of x (for k=1 the product itself), instead of from zeros.  For
                # k <= 3 that share is at most the second one added at any input, so the
                # sum equals 0 + each share in table order, bit for bit.
                tp = np.ascontiguousarray(w.transpose(2, 0, 1))  # the forward's k x C_out x C_in
                gx = np.empty((n, c_in, t))
                term = np.empty((c_in, t)) if k > 1 else None
                for gi, gxi in zip(g, gx):
                    np.matmul(tp[k // 2].T, gi, out=gxi)
                    for j, lo, hi, s in table:
                        if s:
                            gxi[:, lo + s : hi + s] += np.matmul(tp[j].T, gi, out=term)[:, lo:hi]
                x._accumulate(gx)

        out._backward = _bw
    return out


def aggregate(xs, weight: Tensor, bias: Tensor) -> Tensor:
    """conv1d of the channel concatenation of xs with a C_out x C_in x 1 weight,
    without the concatenation: bias plus, for each x in turn, x's 1x1
    convolution with its input-channel slice of the weight.

    xs may be a generator.  Each x's share is added to the one output array
    as soon as x arrives, so no partial sum or product buffer exists after
    that, and under `no_grad` no x is kept either.  While gradients are
    tracked, the output is the top of a chain with one link per x; every
    link's data is that same output array.  A link keeps its x, which the
    graph holds anyway, and its backward gives x its share of the gradient
    and passes the output's gradient on to the link below.  The bottom link
    also gives the weight and bias theirs.  So the shares are made one at a
    time as the walk goes down, in the order a chain of residual
    convolutions would make them.
    """
    if weight.ndim != 3 or weight.shape[2] != 1:
        raise ShapeError(f"aggregate needs a C_out x C_in x 1 weight, got shape {weight.shape}")
    c_out, c_in, _ = weight.shape
    if bias.shape != (c_out,):
        raise ShapeError(f"aggregate bias must have shape ({c_out},)")
    w = weight.data
    parts: list[tuple[Tensor, int, int]] = []  # (x, lo, hi): x meets input channels lo..hi-1
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
        if _grad_enabled:
            parts.append((x, lo, hi))
    if y is None or hi != c_in:
        raise ShapeError(f"aggregate inputs have {hi} channels in all, the weight {c_in}")

    if not _tracking(weight, bias, *(x for x, _, _ in parts)):
        return Tensor(y)
    gw = None  # the weight's gradient, filled slice by slice
    link = None
    for x, lo, hi in parts:
        below = link
        link = _result(y, (x, weight, bias) if below is None else (x, below), None, True)

        def _bw(link=link, below=below, x=x, lo=lo, hi=hi):
            nonlocal gw
            g = link.grad  # N x C_out x T, the output's gradient
            if below is not None:
                below._accumulate(g)
            elif bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2)))
            if weight.requires_grad:
                if gw is None:
                    gw = np.zeros(w.shape)
                # dW[:, lo:hi, 0] = sum_n g[n] @ x[n].T
                np.matmul(g, x.data.transpose(0, 2, 1)).sum(axis=0, out=gw[:, lo:hi, 0])
                if below is None:
                    weight._accumulate(gw)
            if x.requires_grad:
                x._accumulate(np.matmul(w[:, lo:hi, 0].T, g))

        link._backward = _bw
    return link


BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_EPS = 1e-5  # added to the variance before the square root


class BatchNormState:
    """Learnable scale/shift plus running statistics for one channel axis."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.mode = "train"

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]


def batchnorm1d(
    x: Tensor, state: BatchNormState, relu: bool = False, *, residual: Tensor | None = None
) -> Tensor:
    """Normalize N x C x T per channel; batch stats in train mode, running in eval.

    `residual` (of x's shape), when given, is added to the normalized output,
    and with relu=True the ReLU comes after that: the output is
    relu(bn(x) + residual), computed in place on the normalized array and bit
    for bit equal to separate add and ReLU nodes, so neither the
    pre-activation nor a mask is held for backward.  While gradients are
    tracked, the output is released at the enclosing release point (see
    `_releasing`) and remade from x, the statistics, γ, β and the residual
    by the same ops.
    """
    if x.ndim != 3:
        raise ShapeError("batchnorm1d expects N x C x T input")
    n, c, t = x.shape
    if c != state.channels:
        raise ShapeError(f"batchnorm1d channel mismatch: input {c}, state {state.channels}")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"batchnorm1d residual shape {residual.shape} differs from input {x.shape}")
    gamma, beta = state.gamma, state.beta
    if state.mode == "train":
        m = n * t
        if m < 2:
            raise ShapeError("train-mode batchnorm needs at least 2 values per channel")
        mean = x.data.mean(axis=(0, 2))
        xhat = x.data - mean[None, :, None]
        y = np.square(xhat)  # the same buffer later receives the output
        var = y.mean(axis=(0, 2))
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * (var * m / (m - 1))
    elif state.mode == "eval":
        mean = state.running_mean
        var = state.running_var
        xhat = x.data - mean[None, :, None]
        y = np.empty_like(xhat)
    else:
        raise ValueError(f"unknown batchnorm mode {state.mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)

    def _output(xhat, y):
        # xhat = x - mean is scaled in place, then y = γ·xhat + β (+ residual), ReLU'd
        xhat *= inv_std[None, :, None]
        np.multiply(gamma.data[None, :, None], xhat, out=y)
        y += beta.data[None, :, None]
        if residual is not None:
            y += residual.data  # bn + residual is residual + bn, bit for bit
        if relu:
            np.maximum(y, 0.0, out=y)
        return y

    y = _output(xhat, y)
    del xhat  # backward recomputes it from x with the same two ops
    parents = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)

    track = _tracking(*parents)
    out = _result(y, parents, None, track)
    if track:
        train_mode = state.mode == "train"

        def _bw():
            # relu's mask read from its output: y > 0 exactly where max(y, 0) > 0, NaN included
            g = out.grad * (out.data > 0) if relu else out.grad
            if residual is not None and residual.requires_grad:
                residual._accumulate(g)
            xhat = x.data - mean[None, :, None]
            xhat *= inv_std[None, :, None]
            g_xhat = g * xhat
            g_gamma = g_xhat.sum(axis=(0, 2))
            g_beta = g.sum(axis=(0, 2))
            if gamma.requires_grad:
                gamma._accumulate(g_gamma)
            if beta.requires_grad:
                beta._accumulate(g_beta)
            if x.requires_grad:
                scale = gamma.data * inv_std
                gx = g * scale[None, :, None]
                if train_mode:
                    # gamma*inv_std * (g - mean(g) - xhat*mean(g*xhat)), reusing the
                    # per-channel sums above and the g*xhat buffer
                    np.multiply(xhat, (scale * g_gamma / (n * t))[None, :, None], out=g_xhat)
                    g_xhat += (scale * g_beta / (n * t))[None, :, None]
                    gx -= g_xhat
                x._accumulate(gx)

        out._backward = _bw

        marked = _released.get()
        if marked is not None:
            def _remake():
                xhat = x.data - mean[None, :, None]
                return _output(xhat, xhat)

            marked.append((out, (_remake, (x,) if residual is None else (x, residual))))
    return out


def max_pool_time(x: Tensor) -> Tensor:
    """Adaptive max over the time axis: N x C x T -> N x C.

    Gradient is routed to the earliest maximum when there are ties.
    """
    if x.ndim != 3:
        raise ShapeError("max_pool_time expects N x C x T input")
    n, c, t = x.shape
    idx = x.data.argmax(axis=2)  # first occurrence on ties
    pooled = np.take_along_axis(x.data, idx[:, :, None], axis=2)[:, :, 0]
    track = _tracking(x)
    out = _result(pooled, (x,), None, track)
    if track:
        def _bw():
            if x.requires_grad:
                gx = np.zeros((n, c, t))
                gx[np.arange(n)[:, None], np.arange(c)[None, :], idx] = out.grad
                x._accumulate(gx)
        out._backward = _bw
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of N x F rows with an O x F weight matrix."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError("linear expects x: N x F and weight: O x F")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear feature mismatch: input {x.shape[1]}, weight {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError("linear bias shape mismatch")
    y = x.data @ weight.data.T + bias.data[None, :]
    track = _tracking(x, weight, bias)
    out = _result(y, (x, weight, bias), None, track)
    if track:
        def _bw():
            g = out.grad
            if weight.requires_grad:
                weight._accumulate(g.T @ x.data)
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=0))
            if x.requires_grad:
                x._accumulate(g @ weight.data)
        out._backward = _bw
    return out
