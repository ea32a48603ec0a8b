"""Diagonal-covariance GMMs trained by binary splitting plus EM.

Training boots a single Gaussian up to the target order by repeatedly
splitting every component in two and re-estimating with EM.  A split puts
the children of component i at indices 2i and 2i+1, so the split history
is the index arithmetic itself: the ancestor of component i at the level
with n nodes is i // (K // n).  The downstream grouping step relies on this
to assign components that descend from the same branch to the same group.

The per-frame log Gaussian probability (LGP) transform maps a feature
vector x to one value per component:

    y_i = -1/2 x' inv(S_i) x + x' inv(S_i) mu_i

i.e. the log density of component i without its x-independent terms.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .lfcc import FeatureMatrix

_GMM_MAGIC = b"GMM1"
_GMM_VERSION = 2
_GMM_HEADER = 16  # magic, then u32 version, D and K

_LOG_2PI = np.log(2.0 * np.pi)

# Absolute lower bound applied on top of the relative variance floor so
# constant data dimensions cannot produce zero variances.
_ABS_VAR_FLOOR = 1e-12


@dataclass
class EmConfig:
    n_iterations: int = 30
    variance_floor: float = 1e-3  # relative to the global per-dimension data variance
    split_epsilon: float = 0.1

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ConfigError("n_iterations must be >= 1")
        if self.variance_floor <= 0 or self.split_epsilon <= 0:
            raise ConfigError("variance_floor and split_epsilon must be positive")


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
        if self.means.shape[0] != k or self.variances.shape != self.means.shape:
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


def _component_log_densities(data: np.ndarray, gmm: Gmm) -> np.ndarray:
    """(N, K) matrix of per-component log densities log N(x_n; mu_i, S_i)."""
    prec = 1.0 / gmm.variances  # (K, D)
    log_det = np.sum(np.log(gmm.variances), axis=1)  # (K,)
    # Quadratic form expanded so everything is a matmul:
    #   sum_d (x_d - mu_d)^2 / s_d = x^2 . prec - 2 x . (mu * prec) + sum mu^2 prec
    quad = (
        (data**2) @ prec.T
        - 2.0 * data @ (gmm.means * prec).T
        + np.sum(gmm.means**2 * prec, axis=1)
    )
    return -0.5 * (quad + gmm.dim * _LOG_2PI + log_det)


def log_likelihood(gmm: Gmm, data: np.ndarray, chunk: int = 16384) -> float:
    """Total log-likelihood of the data under the mixture."""
    data = np.asarray(data, dtype=np.float64)
    log_w = np.log(gmm.weights)
    total = 0.0
    for lo in range(0, data.shape[0], chunk):
        block = _component_log_densities(data[lo : lo + chunk], gmm) + log_w
        m = block.max(axis=1, keepdims=True)
        total += float(np.sum(m[:, 0] + np.log(np.sum(np.exp(block - m), axis=1))))
    return total


def _floor_vector(data: np.ndarray, cfg: EmConfig) -> np.ndarray:
    return np.maximum(cfg.variance_floor * data.var(axis=0), _ABS_VAR_FLOOR)


def em_fit(gmm: Gmm, data: np.ndarray, cfg: EmConfig, chunk: int = 16384) -> Gmm:
    """Re-estimate a GMM with cfg.n_iterations of EM, keeping the component order.

    Responsibilities are computed in log space with log-sum-exp.  A
    component that collects (numerically) zero responsibility mass is
    reseeded at the worst-modeled data point and given the global data
    variance so the component count never shrinks.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n < gmm.order:
        raise ValueError(f"need at least K={gmm.order} frames, got {n}")
    if not np.all(np.isfinite(data)):
        raise ValueError("training data contains non-finite values")
    floor = _floor_vector(data, cfg)
    global_var = np.maximum(data.var(axis=0), _ABS_VAR_FLOOR)

    weights = gmm.weights.copy()
    means = gmm.means.copy()
    variances = gmm.variances.copy()
    for _ in range(cfg.n_iterations):
        model = Gmm(weights, means, variances)
        log_w = np.log(model.weights)
        nk = np.zeros(model.order)
        sum_x = np.zeros((model.order, model.dim))
        sum_x2 = np.zeros((model.order, model.dim))
        point_ll = np.empty(n)
        for lo in range(0, n, chunk):
            block = data[lo : lo + chunk]
            log_joint = _component_log_densities(block, model) + log_w
            m = log_joint.max(axis=1, keepdims=True)
            norm = m[:, 0] + np.log(np.sum(np.exp(log_joint - m), axis=1))
            point_ll[lo : lo + block.shape[0]] = norm
            resp = np.exp(log_joint - norm[:, None])
            nk += resp.sum(axis=0)
            sum_x += resp.T @ block
            sum_x2 += resp.T @ block**2

        empty = nk < 1e-10
        occupied = ~empty
        weights = np.where(occupied, nk / n, 0.0)
        means = np.where(occupied[:, None], sum_x / np.maximum(nk, 1e-300)[:, None], means)
        variances = np.where(
            occupied[:, None],
            sum_x2 / np.maximum(nk, 1e-300)[:, None] - means**2,
            variances,
        )
        if np.any(empty):
            worst = int(np.argmin(point_ll))
            for i in np.flatnonzero(empty):
                means[i] = data[worst]
                variances[i] = global_var
                weights[i] = 1.0 / n
        variances = np.maximum(variances, floor)
        weights = weights / weights.sum()
    return Gmm(weights, means, variances)


def binary_split(gmm: Gmm, cfg: EmConfig) -> Gmm:
    """Double the order: component i becomes children with means mu_i -+ eps*sigma_i.

    Children inherit the parent variance and half its weight; the new
    components land at indices 2i (minus) and 2i+1 (plus), so the parent of
    component j is always j // 2.
    """
    k, d = gmm.means.shape
    sigma = np.sqrt(gmm.variances)
    means = np.empty((2 * k, d))
    means[0::2] = gmm.means - cfg.split_epsilon * sigma
    means[1::2] = gmm.means + cfg.split_epsilon * sigma
    variances = np.repeat(gmm.variances, 2, axis=0)
    weights = np.repeat(gmm.weights / 2.0, 2)
    return Gmm(weights, means, variances)


def train_by_splitting(data: np.ndarray, target_order: int, cfg: EmConfig | None = None) -> list[Gmm]:
    """Boot a GMM from one component to target_order, returning every order.

    The returned list holds the fitted models of orders 1, 2, 4, ...,
    target_order; a multi-order bank is just a selection of these.
    """
    cfg = cfg or EmConfig()
    if target_order < 1 or target_order & (target_order - 1):
        raise ConfigError(f"target order must be a power of 2, got {target_order}")
    data = np.asarray(data, dtype=np.float64)
    floor = _floor_vector(data, cfg)
    start = Gmm(
        weights=np.array([1.0]),
        means=data.mean(axis=0, keepdims=True),
        variances=np.maximum(data.var(axis=0, keepdims=True), floor),
    )
    models = [start]
    while models[-1].order < target_order:
        grown = binary_split(models[-1], cfg)
        models.append(em_fit(grown, data, cfg))
    return models


def lgp_transform(gmm: Gmm, feat: FeatureMatrix, normalize: bool = True) -> FeatureMatrix:
    """Per-frame log Gaussian probability features under one GMM.

    Each frame x yields K values  y_i = -1/2 x' inv(S_i) x + x' inv(S_i) mu_i.
    With normalize=True every output dimension is mean/variance normalized
    over the utterance's frames; dimensions with zero variance map to 0.
    """
    if feat.n_dims != gmm.dim:
        raise ShapeError(f"feature dim {feat.n_dims} does not match GMM dim {gmm.dim}")
    x = feat.values
    prec = 1.0 / gmm.variances
    y = -0.5 * (x**2) @ prec.T + x @ (gmm.means * prec).T
    if normalize:
        mean = y.mean(axis=0)
        std = y.std(axis=0)
        nonzero = std > 0
        y = np.where(nonzero[None, :], (y - mean[None, :]) / np.where(nonzero, std, 1.0)[None, :], 0.0)
    return FeatureMatrix(values=y)


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
    parents = (ids - 1) // 2
    parents[0] = -1
    components = np.full(n_nodes, -1)
    components[order - 1 :] = np.arange(order)
    if not (
        np.array_equal(nodes[:, 0], ids)
        and np.array_equal(nodes[:, 1], parents)
        and np.array_equal(nodes[:, 2], components)
    ):
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
