"""Grouped 1-d residual network ensemble over LGP group slices.

Each group slice feeds its own branch; the training and scoring loops hand
`forward_slices` a `multiscale.FrameBatch`, so each branch makes its own
slice, on its worker, from the batch's LFCC frames.  A branch is a 1x1
entry convolution, a stack of residual blocks, multi-scale feature
aggregation (a 1x1 convolution of the channel concat of every block
output), adaptive max pooling over time, and a linear classifier.  The
forward returns the G group logits.  Their mean, the ensemble's logits, is
plain numpy (`ensemble_logits`), not a graph node: scoring takes it from
the group logits' arrays, and the loss, one node over the group logits
(`training.ensemble_aware_loss`), forms it itself.

The residual block keeps a single batch normalization and a single
activation, both between the two convolutions:

    y = x + conv2(relu(bn(conv1(x))))

A conventional block, y = relu(x + bn2(conv2(relu(bn1(conv1(x)))))), is
available behind the ``improved_blocks`` flag for ablations.  Both blocks
end the same way: the skip x is the ``residual`` operand of the op that
makes the last pre-activation, `conv1d` or `batchnorm1d`, so no add node
exists.  Every convolution keeps the length of its input.

One forward serves training and scoring.  Every BN directly follows a
convolution, and `_fold` alone decides per pair whether the BN runs as its
own op or is folded into the convolution: it is folded when gradients are
off (`no_grad`) and that BN is in eval mode.  The folded convolution has
weight W·γ/√(σ²+ε) and bias (b−μ)·γ/√(σ²+ε)+β, computed per call and never
cached.  The folded weight is written straight into conv1d's tap-major
(k, C_out, C_in) layout and handed over as its (C_out, C_in, k) view, so
conv1d reads it in place and it exists once.  The skip (if any) and the
ReLU after the folded convolution are applied in place on the array it
just made.  A BN that is not folded applies them itself
(`batchnorm1d(..., relu=True, residual=x)`), in place on its own output,
so a training graph holds neither the pre-activation nor a mask.  Nor
does it hold that output past the forward: `branch_map` drops every BN
output of a branch once the branch's forward returns, and backward remakes
each one, bit for bit, where it is first read.  So between forward and
backward a block of either kind holds only its two convolution outputs.
The aggregation convolution of the concatenated block outputs is one
`aggregate` op fed the block outputs as the blocks make them, so each
block's share is added to one output array as the block finishes, in both
modes: no concatenation and no partial sum exists.  In training the op
keeps only the block outputs, which the graph holds anyway (a conventional
block's output is a BN output, dropped and remade like the others); under
`no_grad` it keeps none.
Folded scores agree with the unfolded forward to rounding (1e-10 relative
in the tests).
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .multiscale import GroupAssignment
from . import tensor as _tensor
from .tensor import (
    BN_EPS,
    BatchNormState,
    Tensor,
    aggregate,
    batchnorm1d,
    branch_map,
    conv1d,
    linear,
    max_pool_time,
)

_CKPT_VERSION = 1


@dataclass
class ResidualBlockCfg:
    channels: int = 256
    kernel: int = 3

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError("channels must be positive")
        if self.kernel < 1:
            raise ConfigError(f"model.kernel must be >= 1, got {self.kernel}")
        if self.kernel % 2 == 0:
            raise ConfigError("kernel size must be odd")


@dataclass
class ModelCfg:
    n_groups: int = 8
    n_blocks: int = 6
    block: ResidualBlockCfg = field(default_factory=ResidualBlockCfg)
    group_input_dim: int = 248
    mfa: bool = True
    improved_blocks: bool = True

    def __post_init__(self):
        for key, value in (("n_groups", self.n_groups), ("n_blocks", self.n_blocks)):
            if value < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {value}")


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1dLayer:
    """Stride-1 convolution that keeps the length of its input."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator):
        self.weight = Tensor(
            _kaiming_uniform(rng, (out_ch, in_ch, kernel), in_ch * kernel), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return conv1d(x, self.weight, self.bias, residual=residual)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm1dLayer:
    def __init__(self, channels: int):
        self.state = BatchNormState(channels)

    def __call__(self, x: Tensor, relu: bool = False, residual: Tensor | None = None) -> Tensor:
        return batchnorm1d(x, self.state, relu=relu, residual=residual)

    def named_parameters(self):
        return [("gamma", self.state.gamma), ("beta", self.state.beta)]


def _fold(conv: Conv1dLayer, bn: BatchNorm1dLayer) -> tuple[Tensor, Tensor, BatchNorm1dLayer | None]:
    """(weight, bias, bn) for bn(conv(x)).  With gradients off and `bn` in eval
    mode, `bn` is folded into a new weight and bias and None is returned for it;
    otherwise the conv's own parameters and `bn` itself."""
    state = bn.state
    if _tensor._grad_enabled or state.mode != "eval":
        return conv.weight, conv.bias, bn
    scale = state.gamma.data / np.sqrt(state.running_var + BN_EPS)
    bias = (conv.bias.data - state.running_mean) * scale + state.beta.data
    w = conv.weight.data  # C_out x C_in x k
    taps = np.empty((w.shape[2], w.shape[0], w.shape[1]))  # conv1d's tap-major layout
    np.multiply(w.transpose(2, 0, 1), scale[None, :, None], out=taps)
    return Tensor(taps.transpose(1, 2, 0)), Tensor(bias), None


def _bn_relu(y: Tensor, bn: BatchNorm1dLayer | None, residual: Tensor | None = None) -> Tensor:
    """relu(bn(y) + residual), where y is the output of the caller's own conv1d
    call and bn is None once folded; then nothing tracks y, and the residual
    and the ReLU are applied in place.  Otherwise BN applies both itself, in
    place on its own output."""
    if bn is not None:
        return bn(y, relu=True, residual=residual)
    if residual is not None:
        y.data += residual.data
    np.maximum(y.data, 0.0, out=y.data)
    return y


def _conv_bn_relu(
    conv: Conv1dLayer, bn: BatchNorm1dLayer, x: Tensor, residual: Tensor | None = None
) -> Tensor:
    """relu(bn(conv(x)) + residual), as one convolution and in-place ops where
    `_fold` folds bn."""
    weight, bias, bn = _fold(conv, bn)
    return _bn_relu(conv1d(x, weight, bias), bn, residual)


class LinearLayer:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Tensor(
            _kaiming_uniform(rng, (out_features, in_features), in_features), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class ImprovedResidualBlock:
    """Two convolutions, one BN, one activation, identity skip."""

    n_activations = 1

    def __init__(self, cfg: ResidualBlockCfg, rng: np.random.Generator):
        c, k = cfg.channels, cfg.kernel
        self.conv1 = Conv1dLayer(c, c, k, rng)
        self.bn = BatchNorm1dLayer(c)
        self.conv2 = Conv1dLayer(c, c, k, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv2(_conv_bn_relu(self.conv1, self.bn, x), residual=x)

    def sublayers(self):
        return [("conv1", self.conv1), ("bn", self.bn), ("conv2", self.conv2)]


class StandardResidualBlock:
    """Conventional block for ablation: BN + activation after each convolution,
    the skip added before the second activation."""

    n_activations = 2

    def __init__(self, cfg: ResidualBlockCfg, rng: np.random.Generator):
        c, k = cfg.channels, cfg.kernel
        self.conv1 = Conv1dLayer(c, c, k, rng)
        self.bn1 = BatchNorm1dLayer(c)
        self.conv2 = Conv1dLayer(c, c, k, rng)
        self.bn2 = BatchNorm1dLayer(c)

    def __call__(self, x: Tensor) -> Tensor:
        return _conv_bn_relu(self.conv2, self.bn2, _conv_bn_relu(self.conv1, self.bn1, x), residual=x)

    def sublayers(self):
        return [("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2), ("bn2", self.bn2)]


class GroupBranch:
    """Embedding extractor for one group slice: entry conv, blocks, MFA, pooling."""

    def __init__(self, cfg: ModelCfg, rng: np.random.Generator):
        c = cfg.block.channels
        self.cfg = cfg
        self.entry_conv = Conv1dLayer(cfg.group_input_dim, c, 1, rng)
        self.entry_bn = BatchNorm1dLayer(c)
        block_type = ImprovedResidualBlock if cfg.improved_blocks else StandardResidualBlock
        self.blocks = [block_type(cfg.block, rng) for _ in range(cfg.n_blocks)]
        if cfg.mfa:
            self.mfa_conv = Conv1dLayer(cfg.n_blocks * c, c, 1, rng)
            self.mfa_bn = BatchNorm1dLayer(c)
        else:
            self.mfa_conv = None
            self.mfa_bn = None

    def __call__(self, x: Tensor) -> Tensor:
        outputs = self._block_outputs(_conv_bn_relu(self.entry_conv, self.entry_bn, x))
        if self.cfg.mfa:
            weight, bias, bn = _fold(self.mfa_conv, self.mfa_bn)
            return max_pool_time(_bn_relu(aggregate(outputs, weight, bias), bn))
        for h in outputs:  # without MFA the last block's output is pooled
            pass
        return max_pool_time(h)

    def _block_outputs(self, h: Tensor):
        """Each block's output in turn, each made when it is asked for."""
        for block in self.blocks:
            h = block(h)
            yield h

    def sublayers(self):
        layers = [("entry_conv", self.entry_conv), ("entry_bn", self.entry_bn)]
        for i, block in enumerate(self.blocks):
            layers.extend((f"block{i}.{name}", layer) for name, layer in block.sublayers())
        if self.cfg.mfa:
            layers.extend([("mfa_conv", self.mfa_conv), ("mfa_bn", self.mfa_bn)])
        return layers

    def batchnorms(self):
        return [layer for _, layer in self.sublayers() if isinstance(layer, BatchNorm1dLayer)]


class GroupedResNetEnsemble:
    """G independent branch+classifier pairs whose logits are averaged."""

    def __init__(self, cfg: ModelCfg, rng: np.random.Generator):
        self.cfg = cfg
        self.branches = [GroupBranch(cfg, rng) for _ in range(cfg.n_groups)]
        # two logits, spoof and bona fide: the score is logit 1 - logit 0
        self.classifiers = [LinearLayer(cfg.block.channels, 2, rng) for _ in range(cfg.n_groups)]

    def forward_slices(self, slices) -> list[Tensor]:
        """The G group logits b_g (N x 2 each) for the G group slices: a list of
        Tensors or a `multiscale.FrameBatch`, whose slice g is made on the
        worker that runs branch g (see `tensor.branch_map`)."""
        if len(slices) != self.cfg.n_groups:
            raise ShapeError(f"expected {self.cfg.n_groups} slices, got {len(slices)}")

        def branch(g: int, x: Tensor) -> Tensor:
            if x.shape[1] != self.cfg.group_input_dim:
                raise ShapeError(f"slice has {x.shape[1]} dims, model expects {self.cfg.group_input_dim}")
            return self.classifiers[g](self.branches[g](x))

        return branch_map(branch, slices)

    def __call__(self, lgp: np.ndarray, assignment: GroupAssignment) -> list[Tensor]:
        """Forward a (N, D_total, T) LGP batch through `assignment.split`'s slices."""
        lgp = np.asarray(lgp, dtype=np.float64)
        if lgp.ndim != 3:
            raise ShapeError("model input must be N x D x T")
        return self.forward_slices([Tensor(x) for x in assignment.split(lgp)])

    def stored_arrays(self) -> list[tuple[str, object, str]]:
        """(checkpoint key, owner, attribute) of every array a checkpoint holds:
        each parameter's data, then each BN's running statistics."""
        entries = [(f"param/{name}", p, "data") for name, p in self.named_parameters()]
        for gi, branch in enumerate(self.branches):
            for bi, bn in enumerate(branch.batchnorms()):
                for stat in ("running_mean", "running_var"):
                    entries.append((f"bn/group{gi}/{bi}/{stat}", bn.state, stat))
        return entries

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for gi, (branch, classifier) in enumerate(zip(self.branches, self.classifiers)):
            for layer_name, layer in branch.sublayers():
                for pname, p in layer.named_parameters():
                    params.append((f"group{gi}.{layer_name}.{pname}", p))
            for pname, p in classifier.named_parameters():
                params.append((f"group{gi}.classifier.{pname}", p))
        return params

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def batchnorms(self) -> list[BatchNorm1dLayer]:
        return [bn for branch in self.branches for bn in branch.batchnorms()]

    def set_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        for bn in self.batchnorms():
            bn.state.mode = mode

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def describe(self) -> dict[str, int]:
        """Parameter count per layer; key 'total' is the grand total."""
        breakdown: dict[str, int] = {}
        for name, p in self.named_parameters():
            layer = name.rsplit(".", 1)[0]
            breakdown[layer] = breakdown.get(layer, 0) + p.size
        breakdown["total"] = sum(p.size for p in self.parameters())
        return breakdown

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


def build_model(cfg: ModelCfg, seed: int = 0) -> GroupedResNetEnsemble:
    return GroupedResNetEnsemble(cfg, np.random.default_rng(seed))


class _Unfilled:
    """Stands in for the Generator of a model whose every stored array is about
    to be overwritten: `uniform` hands out a read-only broadcast zero, which
    takes no memory."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def ensemble_logits(group_logits: list[np.ndarray]) -> np.ndarray:
    """The ensemble's logits: the mean of the G group logit arrays, summed in
    group order into a copy of the first, then divided by G."""
    total = group_logits[0].copy()
    for logits in group_logits[1:]:
        total += logits
    return total / len(group_logits)


def score(logits: np.ndarray) -> np.ndarray:
    """Log-likelihood-ratio-style score: bonafide logit minus spoof logit, per row."""
    return logits[:, 1] - logits[:, 0]


def save_checkpoint(
    path: str | Path,
    model: GroupedResNetEnsemble,
    assignment: GroupAssignment,
) -> None:
    """Write parameters, BN running stats, config, and grouping to one npz file."""
    arrays = {key: getattr(owner, attr) for key, owner, attr in model.stored_arrays()}
    meta = {
        "version": _CKPT_VERSION,
        "model_cfg": asdict(model.cfg),
        "n_groups": assignment.n_groups,
        "assignment": {str(order): g.tolist() for order, g in assignment.groups.items()},
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Every array of the npz archive at path, read in full.  A file that is not
    one, truncated or corrupt ones included, raises FormatError naming it."""
    try:
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise FormatError(f"{path}: not a readable checkpoint (a single array, not an archive)")
            with data:
                return {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:  # truncated, corrupt, not an npz
        raise FormatError(f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})") from None


def load_checkpoint(path: str | Path) -> tuple[GroupedResNetEnsemble, GroupAssignment]:
    """The model and grouping that `save_checkpoint` wrote to path; FormatError
    naming path for any file that is not such a checkpoint."""
    data = _read_npz(path)
    if "meta" not in data:
        raise FormatError(f"{path}: not a model checkpoint")
    try:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != _CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        cfg_doc = dict(meta["model_cfg"])
        block_doc = dict(cfg_doc["block"])
        # older checkpoints also store these two constants; only their one legal value loads
        for doc, key, legal in ((cfg_doc, "n_classes", 2), (block_doc, "stride", 1)):
            value = doc.pop(key, legal)
            if value != legal:
                raise FormatError(f"{path}: checkpoint has {key} {value!r}; only {legal} is supported")
        cfg_doc["block"] = ResidualBlockCfg(**block_doc)
        cfg = ModelCfg(**cfg_doc)
        assignment = GroupAssignment(
            groups={int(o): np.asarray(g, dtype=np.int64) for o, g in meta["assignment"].items()},
            n_groups=int(meta["n_groups"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint meta ({type(exc).__name__}: {exc})") from None
    model = GroupedResNetEnsemble(cfg, _Unfilled())
    _assign_stored_arrays(model, data, path)
    return model, assignment


def _assign_stored_arrays(
    model: GroupedResNetEnsemble, data: dict[str, np.ndarray], path: str | Path
) -> None:
    """Set each of model's stored arrays from data, the arrays `_read_npz` read
    from path; FormatError naming path for a missing key or a wrong shape."""
    for key, owner, attr in model.stored_arrays():
        if key not in data:
            raise FormatError(f"{path}: checkpoint is missing {key}")
        stored = data[key]
        if stored.shape != getattr(owner, attr).shape:
            raise FormatError(f"{path}: shape mismatch for {key}")
        setattr(owner, attr, np.asarray(stored, dtype=np.float64))
