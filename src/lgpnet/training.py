"""Ensemble-aware loss, Adam, a fixed plateau schedule, and the training loop.

The loss averages the ensemble cross-entropy with every group classifier's
own cross-entropy:

    L = (CE(b, y) + sum_g CE(b_g, y)) / (G + 1)

where b_g are the G group logits and b their mean, so each branch is
trained as an independent classifier while the averaged prediction is
optimized directly.  Switching ``ensemble_aware`` off reduces the loss to
CE(b, y) alone (ablation).  The loss is plain numpy over the group logit
arrays and returns its value with each group's gradient.  With
P = softmax(b), P_g = softmax(b_g), Y the one-hot labels over N samples and
c = 1/(G + 1) for the ensemble-aware loss (1 without the term), the
gradient of each b_g is

    dL/db_g = ((P - Y) * (c/N)) / G + (P_g - Y) * (c/N)

the second term only for the ensemble-aware loss.  Each term is computed
with the ops, in the order, that a chain of one cross-entropy per term,
sums, a scaling and a mean gives (`tests/helpers.ensemble_loss_by_chain`),
so the value and every gradient equal that chain's bit for bit.

A training step (`run_epoch`) is three plain steps: every branch's forward
with its records kept (`model.GroupBranch.forward`, keep=True), the loss
and its G gradients, and every branch's backward; the branches of each
step run on the tensor engine's worker pool, and the call that runs branch
g's forward first makes its input from the batch's frames
(`multiscale.GroupLgp.input`).

Inference (`predict_logits`, and the dev loss in `evaluate_loss`) is one
loop, `_group_logits`, that runs branch-serial and sample-parallel over
chunks of utterances: the chunk's LFCC frames are made once, then each
branch in turn is folded once (`model.GroupBranch.folded`) and the
chunk's utterances are mapped over the worker pool through it, one per
call, classifier included, while one more call of the same map reads and
folds the next branch (inline, the next branch is read once this one is
dropped).  The branches are an ensemble's own or a
`model.CheckpointBranches`, which reads each from the checkpoint, folding
it as it reads, only when it is asked for, so `score` holds at most two
folded branches whatever the worker count.  No layer sees more than one
utterance, so an utterance's logits, and its score, are the same bits
whatever it is scored with and whatever the batch size of training.
"""
from __future__ import annotations

import contextlib
import csv
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFiniteLossError, ShapeError
from .model import (
    CheckpointBranches,
    GroupedResNetEnsemble,
    ModelCfg,
    _checkpoint_archive,
    _read_arrays,
    ensemble_logits,
    save_checkpoint,
)
from .multiscale import GroupLgp, ManifestFrames
from .tensor import Tensor, _parallel_map, _pool_workers


PLATEAU_PATIENCE = 5
PLATEAU_FACTOR = 0.5
PLATEAU_MIN_DELTA = 1e-4


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    ensemble_aware: bool = True

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"train.learning_rate must be > 0, got {self.learning_rate}")
        for key, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"train.{key} must be >= {least}, got {getattr(self, key)}")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def ensemble_aware_loss(
    group_logits: list[np.ndarray], labels, aware: bool = True
) -> tuple[float, list[np.ndarray]]:
    """The loss of the module docstring over the G group logit arrays (N x 2
    each) and labels in 0..1, ensemble-aware or with aware=False the
    ensemble's cross-entropy alone, and each group's gradient dL/db_g (with
    aware=False one array, shared by every group)."""
    if not group_logits:
        raise ShapeError("ensemble_aware_loss needs at least one group's logits")
    n = group_logits[0].shape[0]
    for b in group_logits:
        if b.shape != (n, 2):
            raise ShapeError(f"group logits must be N x 2, all of one N; got {b.shape} beside ({n}, 2)")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},)")
    if labels.min() < 0 or labels.max() > 1:
        raise ValueError("labels must lie in 0..1")
    log_probs = [_log_softmax(ensemble_logits(group_logits))]  # the ensemble's, then each group's
    if aware:
        log_probs += [_log_softmax(a) for a in group_logits]
    rows = np.arange(n)
    ces = [-lp[rows, labels].mean() for lp in log_probs]
    loss = ces[0]
    for ce in ces[1:]:
        loss = loss + ce
    c = 1.0
    if aware:
        c = 1.0 / len(ces)
        loss = loss * c

    def share(lp):  # (softmax - one-hot) * (c/N): one cross-entropy's gradient
        g = np.exp(lp)
        g[rows, labels] -= 1.0
        return g * (c / n)

    mean_share = share(log_probs[0]) / len(group_logits)
    if not aware:
        return float(loss), [mean_share] * len(group_logits)
    return float(loss), [mean_share + share(lp) for lp in log_probs[1:]]


class AdamState:
    """First/second moment accumulators for a fixed parameter list, each in
    its parameter's dtype."""

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros(p.shape, p.data.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, p.data.dtype) for p in self.params]
        self.scratch = threading.local()  # .pair: a thread's two _ADAM_CHUNK arrays for adam_step, of one dtype


# Adam's decay rates and denominator guard, as in Kingma & Ba (arXiv 1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per piece of an in-place update: each thread's two scratch arrays
# hold 1 MiB between them, whatever the largest parameter.
_ADAM_CHUNK = 1 << 16


def adam_step(state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; missing grads count as zero.

    Parameters are updated independently, on the tensor engine's worker pool.
    Each update runs in place, _ADAM_CHUNK elements at a time through two
    scratch arrays per thread, in the order of the textbook expression
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the bits are those of
    that expression.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t

    def update(i: int) -> None:
        p = state.params[i]
        if not p.data.flags.c_contiguous:  # so that its flat view below is no copy
            p.data = np.ascontiguousarray(p.data)
        dtype = p.data.dtype
        pair = getattr(state.scratch, "pair", None)
        if pair is None or pair[0].dtype != dtype:
            pair = state.scratch.pair = (np.empty(_ADAM_CHUNK, dtype), np.empty(_ADAM_CHUNK, dtype))
        flat_p, m, v = p.data.reshape(-1), state.m[i].reshape(-1), state.v[i].reshape(-1)
        g = p.grad.reshape(-1) if p.grad is not None else np.broadcast_to(dtype.type(0), flat_p.shape)
        for lo in range(0, flat_p.size, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, flat_p.size)
            _adam_update(flat_p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi], lr, bc1, bc2,
                         *(buf[: hi - lo] for buf in pair))

    _parallel_map(update, len(state.params))


def _adam_update(p, m, v, g, lr, bc1, bc2, a, b) -> None:
    """Adam's update of the flat piece p in place, with a and b as scratch."""
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
    v *= ADAM_BETA2
    np.square(g, out=a)
    v += np.multiply(1.0 - ADAM_BETA2, a, out=a)
    np.multiply(lr, np.divide(m, bc1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
    p -= np.divide(a, b, out=a)


def reduce_on_plateau(history: list[float], learning_rate: float) -> float:
    """The rate that learning_rate becomes over a monitored-loss history.

    Replays the history: whenever the monitored value fails to improve on
    the best seen by at least PLATEAU_MIN_DELTA for PLATEAU_PATIENCE
    consecutive epochs, the rate is multiplied by PLATEAU_FACTOR and the
    counter resets.
    """
    if not history:
        raise ValueError("history must be non-empty")
    lr = learning_rate
    best = np.inf
    bad = 0
    for value in history:
        if value < best - PLATEAU_MIN_DELTA:
            best = value
            bad = 0
        else:
            bad += 1
            if bad >= PLATEAU_PATIENCE:
                lr *= PLATEAU_FACTOR
                bad = 0
    return lr


def _batch_indices(n: int, batch_size: int) -> list[np.ndarray]:
    return [np.arange(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


def _step(
    model: GroupedResNetEnsemble, lgp: GroupLgp, frames: np.ndarray, labels: np.ndarray, aware: bool, where: str
) -> float:
    """One training step's forward and backward on an (N, T, D) batch of
    frames, leaving each parameter's gradient in its .grad; returns the batch
    loss.  The map call that runs branch g makes its input
    (`lgp.input(frames, g)`).  A NaN or infinite loss raises
    NonFiniteLossError naming `where`, before the backward."""
    branches = model.branches
    if len(lgp.coefficients) != len(branches):
        raise ShapeError(f"expected {len(branches)} groups, got {len(lgp.coefficients)}")
    runs = _parallel_map(lambda g: branches[g].forward(lgp.input(frames, g), keep=True), len(branches))
    value, dlogits = ensemble_aware_loss([logits.data for logits, _ in runs], labels, aware)
    if not np.isfinite(value):
        raise NonFiniteLossError(f"{where}: loss is not finite ({value!r})")
    _parallel_map(lambda g: branches[g].backward(runs[g][1], dlogits[g]), len(branches))
    return value


def run_epoch(
    model: GroupedResNetEnsemble,
    lgp: GroupLgp,
    feats: np.ndarray | ManifestFrames,
    labels: np.ndarray,
    cfg: TrainConfig,
    state: AdamState,
    perm: np.ndarray,
    lr: float,
    epoch: int = 1,
) -> float:
    """One optimization pass over shuffled data; returns the mean sample loss.

    A NaN or infinite batch loss raises NonFiniteLossError naming the epoch
    and the batch, before that batch's update.
    """
    total = 0.0
    batches = _batch_indices(perm.size, cfg.batch_size)
    for b, idx in enumerate(batches, start=1):
        batch = perm[idx]
        model.zero_grad()  # before the forward, so the last step's gradients are not held through it
        value = _step(model, lgp, feats[batch], labels[batch], cfg.ensemble_aware,
                      f"epoch {epoch}, batch {b} of {len(batches)}")
        adam_step(state, lr)
        total += value * batch.size
    return total / perm.size


# Utterances whose LFCC frames `_group_logits` makes at once.  Each chunk
# reads and folds every branch once: at full size on 2 vCPU, about 0.4 s of
# reads from the page cache against about 80 s of compute, while the chunk's
# frames take 49 MB (256 x 400 x 60 float64, the front end's dtype).
_CHUNK_UTTERANCES = 256


def _folded_branches(model: GroupedResNetEnsemble | CheckpointBranches):
    """(fetch, G): fetch(g) gives model's branch g folded for inference, read
    and folded layer by layer from a `CheckpointBranches` or folded from an
    ensemble's own branch (`model.GroupBranch.folded`)."""
    if isinstance(model, CheckpointBranches):
        return model.__getitem__, len(model)
    return (lambda g: model.branches[g].folded()), len(model.branches)


def _group_logits(model, lgp: GroupLgp, feats: np.ndarray | ManifestFrames) -> list[np.ndarray]:
    """The G group logit arrays (N x 2 each) of the N utterances of feats, by
    inference (BN folded, on its running statistics; nothing kept or
    changed).

    Branch-serial and sample-parallel over chunks of `_CHUNK_UTTERANCES`
    utterances: the chunk's LFCC frames are made once, then the branches
    run one at a time, in group order, each fetched folded
    (`_folded_branches`).  Branch g's map (`tensor._parallel_map`) gives each
    call one utterance, whose group input it makes (`lgp.input`) and takes
    through the branch, classifier included.  On the pool one more call
    fetches branch g + 1, so the next read overlaps this branch's compute;
    inline, where nothing overlaps, branch g + 1 is fetched once branch g is
    dropped.  So at most two folded branches exist at once whatever the
    worker count, and one without a pool.  Every layer goes one utterance
    at a time, so each utterance's logits are the same bits whatever else
    is scored."""
    fetch, n_groups = _folded_branches(model)
    read_ahead = _pool_workers() > 1  # inline, a read overlaps nothing, so it waits for the last branch to go
    by_group = [[] for _ in range(n_groups)]
    for lo in range(0, len(feats), _CHUNK_UTTERANCES):
        frames = feats[np.arange(lo, min(lo + _CHUNK_UTTERANCES, len(feats)))]

        def run(i: int):  # with a read ahead, call 0 fetches branch g + 1; the others score an utterance each
            if i < ahead:
                return fetch(g + 1)
            return branch.forward(lgp.input(frames[i - ahead : i - ahead + 1], g))[0].data

        branch = fetch(0)
        for g in range(n_groups):
            ahead = int(read_ahead and g + 1 < n_groups)
            results = _parallel_map(run, ahead + len(frames))
            by_group[g] += results[ahead:]
            branch = results[0] if ahead else None  # inline, branch g goes before branch g + 1 is read
            if branch is None and g + 1 < n_groups:
                branch = fetch(g + 1)
    return [np.concatenate(logits) for logits in by_group]


def evaluate_loss(
    model: GroupedResNetEnsemble | CheckpointBranches,
    lgp: GroupLgp,
    feats: np.ndarray | ManifestFrames,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Loss over a dataset by inference (`_group_logits`): BN uses its
    running statistics, nothing is kept and no state changes."""
    return ensemble_aware_loss(_group_logits(model, lgp, feats), labels, cfg.ensemble_aware)[0]


def predict_logits(
    model: GroupedResNetEnsemble | CheckpointBranches,
    lgp: GroupLgp,
    feats: np.ndarray | ManifestFrames,
) -> np.ndarray:
    """Ensemble logits for stacked frames or a `ManifestFrames`, by inference
    (`_group_logits`): from an ensemble in memory, or from a checkpoint's
    branches, each read and folded when inference reaches it."""
    return ensemble_logits(_group_logits(model, lgp, feats))


def _best_epoch_file(checkpoint_path: str | Path | None) -> str:
    """A new empty file for the best epoch's arrays: in the checkpoint's
    directory, so that `os.replace` can later move it there, or in the system
    temp dir when there is no checkpoint path.  An unusable checkpoint
    directory raises OSError here."""
    directory, prefix = None, ".lgpnet-best-"
    if checkpoint_path is not None:
        directory = os.path.dirname(os.path.abspath(checkpoint_path))
        prefix = f".{os.path.basename(checkpoint_path)}."
    fd, path = tempfile.mkstemp(suffix=".tmp", prefix=prefix, dir=directory)
    os.close(fd)
    return path


def train(
    feats: ManifestFrames,
    lgp: GroupLgp,
    model_cfg: ModelCfg,
    train_cfg: TrainConfig,
    dev: ManifestFrames | None = None,
    checkpoint_path: str | Path | None = None,
    log_path: str | Path | None = None,
) -> tuple[GroupedResNetEnsemble, list[dict]]:
    """Full training run; returns the best model and the per-epoch log.

    feats and dev are the train and dev frames with their `labels`, indexed
    one batch at a time: a `ManifestFrames` computes each batch from the
    audio, in every epoch, and has checked its manifest when it was made.
    lgp holds each group's LGP coefficients and the grouping, which the
    checkpoint stores.

    Deterministic given train_cfg.seed: the same generator drives parameter
    initialization and every epoch's shuffle.  The monitored loss is the
    dev-set loss when dev is given, the training loss otherwise.  Each epoch
    that improves it is written with `save_checkpoint` to one file, made
    before epoch 1 in checkpoint_path's directory (an unusable directory
    raises OSError there) or in the system temp dir; no copy of the arrays
    is kept in memory.  At the end the parameter gradients and Adam's
    moments are dropped, the best epoch's arrays are reloaded when a later
    epoch was worse (each key and shape checked as `load_checkpoint` checks
    them, so a damaged file raises FormatError), and the file is moved onto
    checkpoint_path, or deleted when there is none.  A NaN or infinite loss,
    of any training batch (`run_epoch`) or of the dev set, raises
    NonFiniteLossError; on that or any other error the file is removed and
    no checkpoint is written.
    """
    rng = np.random.default_rng(train_cfg.seed)
    model = GroupedResNetEnsemble(model_cfg, rng)
    state = AdamState(model.parameters())

    log_rows: list[dict] = []
    monitor_history: list[float] = []
    best_value = np.inf
    best_epoch = 0
    lr = train_cfg.learning_rate
    log_file = None
    writer = None
    best_file = _best_epoch_file(checkpoint_path)
    try:
        if log_path is not None:
            log_file = open(log_path, "a", newline="")
            writer = csv.writer(log_file)
            if log_file.tell() == 0:
                writer.writerow(["epoch", "train_loss", "dev_loss", "lr"])
        for epoch in range(1, train_cfg.epochs + 1):
            perm = rng.permutation(len(feats))
            train_loss = run_epoch(model, lgp, feats, feats.labels, train_cfg, state, perm, lr, epoch)
            if dev is not None:
                dev_loss = evaluate_loss(model, lgp, dev, dev.labels, train_cfg)
            else:
                dev_loss = train_loss
            monitor_history.append(dev_loss)
            row = {"epoch": epoch, "train_loss": train_loss, "dev_loss": dev_loss, "lr": lr}
            log_rows.append(row)
            if writer is not None:
                writer.writerow([epoch, repr(train_loss), repr(dev_loss), repr(lr)])
                log_file.flush()
            if not (np.isfinite(train_loss) and np.isfinite(dev_loss)):
                raise NonFiniteLossError(
                    f"epoch {epoch}: loss is not finite (train {train_loss!r}, "
                    f"monitored {dev_loss!r})"
                )
            if dev_loss < best_value:
                best_value, best_epoch = dev_loss, epoch
                save_checkpoint(best_file, model, lgp.assignment)
            lr = reduce_on_plateau(monitor_history, train_cfg.learning_rate)

        # nothing below reads the gradients or the moments: free them before the reload
        model.zero_grad()
        del state
        if best_epoch != train_cfg.epochs:
            with _checkpoint_archive(best_file) as members:
                _read_arrays(model.stored_arrays(), members, best_file)
        if checkpoint_path is not None:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(best_file, 0o666 & ~umask)  # the mode open() would have given it
            os.replace(best_file, checkpoint_path)
    finally:
        if log_file is not None:
            log_file.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(best_file)
    return model, log_rows
