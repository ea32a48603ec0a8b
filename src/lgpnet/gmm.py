"""Diagonal-covariance GMMs trained by binary splitting plus EM.

Training boots a single Gaussian up to the target order by repeatedly
splitting every component in two (SPLIT_EPSILON) and re-estimating with
EM; only the EM iterations per level are a setting.  A split puts
the children of component i at indices 2i and 2i+1, so the split history
is the index arithmetic itself: the ancestor of component i at the level
with n nodes is i // (K // n).  The downstream grouping step relies on this
to assign components that descend from the same branch to the same group.

The per-frame log Gaussian probability (LGP) transform maps a feature
vector x to one value per component:

    y_i = -1/2 x' inv(S_i) x + x' inv(S_i) mu_i

i.e. the log density of component i without its x-independent terms: one
GEMM [x^2, x] @ [-1/2 inv(S); inv(S) mu]' (`_lgp_coefficients`), after
which `_lgp` normalizes every column over the utterance's frames.  The
pipeline runs `_lgp` on a group's columns of a whole bank's coefficients
(`multiscale.GroupLgp.input`).

EM's E-step appends 1 to the frame and c = log w - 1/2 (mu' inv(S) mu +
D log 2 pi + log |S|) to the matrix; one GEMM, one exp and one GEMM
[x^2, x, 1]' @ r then give the responsibilities r and the statistics
[sum r x^2; sum r x; sum r], stored as a (2D+1, K) array: a transposed
left operand and a C-contiguous output ran that GEMM in two thirds of the
time of r' @ [x^2, x, 1].  Chunks of _EM_CHUNK frames run on the worker
pool, each with its own 8 MB of log joints at K=1024.  The calling thread adds each chunk's statistics to the
total as the chunk is done, in chunk order (`tensor._ordered_map`), so at
most workers + 1 chunks' statistics exist at once, whatever the frame
count.  Besides the frames, training holds only these fixed buffers and the
(N,) log-likelihoods: the data variance and the finiteness check also go a
chunk at a time.  EM's GEMMs, like the LGP's, run at one BLAS thread, so a
bank does not depend on the CPU count.
"""
from __future__ import annotations

import queue
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .tensor import _blas_single_thread, _ordered_map, _pool_workers

_GMM_MAGIC = b"GMM1"
_GMM_VERSION = 2
_GMM_HEADER = 16  # magic, then u32 version, D and K

_LOG_2PI = np.log(2.0 * np.pi)

# Frames per E-step chunk: 8 MB of log joints per worker at K=1024.  These
# buffers set the peak RSS of bank training: 2048-row chunks ran train-gmm
# 4-8 % faster but peaked 13-14 MB higher (2 workers, K=1024).
_EM_CHUNK = 1024
# Log joints further than this below their row's max are clamped before the
# exp: exps that underflow, and GEMMs over the subnormals left, ran 3-80x slower.
_EXP_FLOOR = -500.0
# Chunk statistics are added up in waves of this many: each wave's sum starts
# from its first chunk's and is then added to the total.  It fixes only the
# order of the additions, and with it the last bits of every bank trained on
# more than one wave; only the current wave's running sum is held.
_EM_WAVE = 16

# Variances are floored at VARIANCE_FLOOR times the data's, and at
# _ABS_VAR_FLOOR so constant data dimensions cannot produce zero variances.
VARIANCE_FLOOR = 1e-3
_ABS_VAR_FLOOR = 1e-12
SPLIT_EPSILON = 0.1  # a child's offset from its parent's mean, in standard deviations


# em_fit's third positional argument: an object, not an int, as perfbench/tracing.py reads its n_iterations
@dataclass
class EmConfig:
    n_iterations: int = 30

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ConfigError(f"n_iterations must be >= 1, got {self.n_iterations}")


@dataclass(eq=False)
class Gmm:
    """Diagonal-covariance mixture; components are in binary-split index order."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K, D)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        k = self.weights.shape[0]
        if k & (k - 1):
            raise ValueError(f"component count must be a power of 2, got {k}")
        if self.means.ndim != 2 or self.means.shape[0] != k or self.variances.shape != self.means.shape:
            raise ShapeError("weights/means/variances shapes are inconsistent")
        if not all(np.all(np.isfinite(a)) for a in (self.weights, self.means, self.variances)):
            raise ValueError("weights, means and variances must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.weights.sum()!r}")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def order(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _lgp_coefficients(gmm: Gmm) -> np.ndarray:
    """(2D, K) matrix W = [-1/2 inv(S); inv(S) mu]' with [x^2, x] @ W = the LGP y of x."""
    prec = 1.0 / gmm.variances
    return np.concatenate([-0.5 * prec, gmm.means * prec], axis=1).T


def _as_frames(gmm: Gmm, data) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != gmm.dim:
        raise ShapeError(f"data of shape {data.shape} is not (N, {gmm.dim}) frames")
    return data


def _e_step(gmm: Gmm, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame log-likelihoods (N,) and statistics [sum r x^2, sum r x, sum r]
    (K, 2D+1) of the data, by the fused E-step of the module docstring; the
    statistics are a transposed view of the (2D+1, K) array it sums."""
    n, d = data.shape
    const = np.sum(gmm.means**2 / gmm.variances + np.log(gmm.variances), axis=1) + d * _LOG_2PI
    coef = np.vstack([_lgp_coefficients(gmm), np.log(gmm.weights) - 0.5 * const])
    # Running chunks take a slot of buffers allocated here, reused chunk after
    # chunk.  With each chunk allocating its own, `bank` (train-gmm at order
    # 1024, 2 vCPUs, 3 alternating pairs) peaked at 117.5-119.0 MB RSS against
    # 111.6-114.7 MB, at 223.7-232.8 against 235.9-238.6 item/s.
    n_chunks, rows = -(-n // _EM_CHUNK), min(n, _EM_CHUNK)
    slots = queue.SimpleQueue()
    for _ in range(min(_pool_workers(), n_chunks)):
        slots.put((np.empty((rows, 2 * d + 1)), np.empty((rows, gmm.order))))
    point_ll, stats = np.empty(n), np.zeros((2 * d + 1, gmm.order))
    wave = None  # the running sum of the current wave: its first chunk's statistics

    def chunk(i: int) -> np.ndarray:
        lo = i * _EM_CHUNK
        x = data[lo : lo + _EM_CHUNK]
        a_buf, joint_buf = slot = slots.get()
        try:
            a, joint = a_buf[: len(x)], joint_buf[: len(x)]
            np.concatenate([x**2, x, np.ones((len(x), 1))], axis=1, out=a)
            np.matmul(a, coef, out=joint)
            m = joint.max(axis=1, keepdims=True)
            np.subtract(joint, m, out=joint)
            np.maximum(joint, _EXP_FLOOR, out=joint)
            np.exp(joint, out=joint)
            s = joint.sum(axis=1, keepdims=True)
            point_ll[lo : lo + len(x)] = m[:, 0] + np.log(s[:, 0])
            a /= s  # a' @ r == (a / s)' @ exp(joint), and a is the small side
            return a.T @ joint
        finally:
            slots.put(slot)

    def add_chunk(i: int, part: np.ndarray) -> None:
        nonlocal wave, stats
        if i % _EM_WAVE:
            wave += part
        else:
            wave = part
        if i % _EM_WAVE == _EM_WAVE - 1 or i == n_chunks - 1:
            stats += wave

    _ordered_map(chunk, n_chunks, add_chunk)
    return point_ll, stats.T


def log_likelihood(gmm: Gmm, data: np.ndarray) -> float:
    """Total log-likelihood of the data under the mixture."""
    return float(np.sum(_e_step(gmm, _as_frames(gmm, data))[0]))


def _floor_vector(data_var: np.ndarray) -> np.ndarray:
    return np.maximum(VARIANCE_FLOOR * data_var, _ABS_VAR_FLOOR)


def _row_chunks(data: np.ndarray):
    return (data[lo : lo + _EM_CHUNK] for lo in range(0, len(data), _EM_CHUNK))


def _check_frames(data: np.ndarray, order: int) -> None:
    if len(data) < order:
        raise ValueError(f"need at least K={order} frames, got {len(data)}")
    if not all(np.isfinite(x).all() for x in _row_chunks(data)):
        raise ValueError("training data contains non-finite values")


def _data_var(data: np.ndarray) -> np.ndarray:
    """data.var(axis=0) of (N, D) frames without its (N, D) temporary: the
    squared deviations are summed a chunk at a time, each sum starting from
    the last.  For D > 1 numpy adds the rows of an axis-0 sum in row order,
    so this is data.var(axis=0) bit for bit."""
    n, d = data.shape
    mean = data.sum(axis=0) / n
    buf = np.empty((min(n, _EM_CHUNK) + 1, d))
    total = np.zeros(d)
    for x in _row_chunks(data):
        rows = buf[: len(x) + 1]
        rows[0] = total
        np.subtract(x, mean, out=rows[1:])
        np.square(rows[1:], out=rows[1:])
        total = rows.sum(axis=0)
    return total / n


def em_fit(gmm: Gmm, data: np.ndarray, cfg: EmConfig, data_var: np.ndarray | None = None) -> Gmm:
    """Re-estimate a GMM with cfg.n_iterations of EM (see the module docstring),
    keeping the component order.  Components with (numerically) zero mass are
    reseeded at distinct frames, the least likely ones, with the global
    variance.  data_var, the per-dimension variance of the data, sets the
    variance floor, VARIANCE_FLOOR times it; it is computed when not given.
    """
    data = _as_frames(gmm, data)
    _check_frames(data, gmm.order)
    if data_var is None:
        data_var = _data_var(data)
    d = data.shape[1]
    floor = _floor_vector(data_var)
    global_var = np.maximum(data_var, _ABS_VAR_FLOOR)
    for _ in range(cfg.n_iterations):
        point_ll, stats = _e_step(gmm, data)
        nk = stats[:, -1]
        empty = np.flatnonzero(nk < 1e-10)
        nk[empty] = 1.0  # a reseeded component weighs as one frame
        means = stats[:, d:-1] / nk[:, None]
        variances = stats[:, :d] / nk[:, None] - means**2
        if empty.size:
            means[empty] = data[np.argsort(point_ll, kind="stable")[: empty.size]]
            variances[empty] = global_var
        gmm = Gmm(nk / nk.sum(), means, np.maximum(variances, floor))
    return gmm


def binary_split(gmm: Gmm) -> Gmm:
    """Double the order: component i becomes children with means mu_i -+ eps*sigma_i,
    eps = SPLIT_EPSILON.

    Children inherit the parent variance and half its weight; the new
    components land at indices 2i (minus) and 2i+1 (plus), so the parent of
    component j is always j // 2.
    """
    step = SPLIT_EPSILON * np.sqrt(gmm.variances)
    means = np.stack([gmm.means - step, gmm.means + step], axis=1).reshape(2 * gmm.order, gmm.dim)
    variances = np.repeat(gmm.variances, 2, axis=0)
    weights = np.repeat(gmm.weights / 2.0, 2)
    return Gmm(weights, means, variances)


def train_by_splitting(data: np.ndarray, target_order: int, n_iterations: int = 30) -> list[Gmm]:
    """Boot a GMM from one component to target_order, returning every order.

    The returned list holds the fitted models of orders 1, 2, 4, ...,
    target_order, each fitted by n_iterations of EM after its split; a
    multi-order bank is just a selection of these.
    """
    cfg = EmConfig(n_iterations)
    if target_order < 1 or target_order & (target_order - 1):
        raise ConfigError(f"target order must be a power of 2, got {target_order}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"data of shape {data.shape} is not (N, D) frames")
    _check_frames(data, target_order)
    data_var = _data_var(data)  # once: every level's floor and reseed variance
    variances = np.maximum(data_var, _floor_vector(data_var))
    models = [Gmm(np.ones(1), data.mean(axis=0, keepdims=True), variances[None])]
    while models[-1].order < target_order:
        models.append(em_fit(binary_split(models[-1]), data, cfg, data_var))
    return models


def _lgp(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The normalized LGP of (T, D) frames x for the (2D, K) coefficients coef
    of one or more GMMs: [x^2, x] @ coef, then every column mean/variance
    normalized over the frames in place; a column with zero variance maps
    to 0."""
    with _blas_single_thread():
        y = np.hstack([x**2, x]) @ coef
    std = y.std(axis=0)
    y -= y.mean(axis=0)
    y /= np.where(std > 0, std, 1.0)
    y[:, std == 0] = 0.0
    return y


def save_gmm(gmm: Gmm, path: str | Path) -> None:
    """Serialize to the binary layout documented in the README (version 2)."""
    with open(path, "wb") as fh:
        fh.write(_GMM_MAGIC)
        fh.write(struct.pack("<III", _GMM_VERSION, gmm.dim, gmm.order))
        fh.write(np.ascontiguousarray(gmm.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(gmm.means, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(gmm.variances, dtype="<f8").tobytes())


def _check_v1_split_tree(raw: bytes, off: int, order: int, path) -> None:
    """Validate the node section of a version-1 file, which is then dropped.

    Version 1 stored the split tree as (node id, parent id, component) i64
    triples.  Files written by binary splitting hold it heap-ordered: node j
    has parent (j - 1) // 2, and the last K nodes are the leaves holding
    components 0..K-1 in order, which is exactly the index relation every
    reader now assumes.  Any other tree is refused.
    """
    if len(raw) < off + 4:
        raise FormatError(f"{path}: truncated GMM file")
    (n_nodes,) = struct.unpack("<I", raw[off : off + 4])
    off += 4
    if n_nodes != 2 * order - 1:
        raise FormatError(f"{path}: {n_nodes} split-tree nodes, expected {2 * order - 1}")
    if len(raw) != off + 24 * n_nodes:
        raise FormatError(f"{path}: GMM file is {len(raw)} bytes, expected {off + 24 * n_nodes}")
    nodes = np.frombuffer(raw, dtype="<i8", count=3 * n_nodes, offset=off).reshape(n_nodes, 3)
    ids = np.arange(n_nodes)
    expected = np.stack([ids, (ids - 1) // 2, ids - (order - 1)], axis=1)  # (id, parent, component)
    expected[0, 1] = -1
    expected[: order - 1, 2] = -1
    if not np.array_equal(nodes, expected):
        raise FormatError(f"{path}: split tree is not the binary-split tree of order {order}")


def load_gmm(path: str | Path) -> Gmm:
    """Read a version-2 file, or a version-1 file whose split tree is canonical."""
    raw = Path(path).read_bytes()
    if len(raw) < _GMM_HEADER or raw[:4] != _GMM_MAGIC:
        raise FormatError(f"{path}: not a GMM model file")
    version, dim, order = struct.unpack("<III", raw[4:_GMM_HEADER])
    if version not in (1, 2):
        raise FormatError(f"{path}: unsupported GMM file version {version}")
    end = _GMM_HEADER + (order + 2 * order * dim) * 8
    if version == 1:
        _check_v1_split_tree(raw, end, order, path)
    elif len(raw) != end:
        raise FormatError(f"{path}: GMM file is {len(raw)} bytes, expected {end}")
    params = np.frombuffer(raw, dtype="<f8", count=order + 2 * order * dim, offset=_GMM_HEADER)
    weights = params[:order].copy()
    means = params[order : order + order * dim].reshape(order, dim).copy()
    variances = params[order + order * dim :].reshape(order, dim).copy()
    try:
        return Gmm(weights, means, variances)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
