"""Grouped 1-d residual network ensemble over LGP group slices.

Each group slice feeds its own branch; the training and scoring loops make
branch g's slice with `multiscale.GroupLgp.input(frames, g)` inside the map
call that runs branch g, so each slice is made on its branch's worker.  A
branch is a 1x1 entry convolution, a stack of residual blocks, multi-scale
feature aggregation (a 1x1 convolution of the channel concat of every block
output), adaptive max pooling over time, and a linear classifier.  The G
group logits are the branches' outputs; their mean, the ensemble's logits,
is plain numpy (`ensemble_logits`), and so is the loss over them
(`training.ensemble_aware_loss`).

The residual block keeps a single batch normalization and a single
activation, both between the two convolutions:

    y = x + conv2(relu(bn(conv1(x))))

A conventional block, y = relu(x + bn2(conv2(relu(bn1(conv1(x)))))), is
available behind the ``improved_blocks`` flag for ablations.  Both blocks
end the same way: the skip x is the ``residual`` operand of the op that
makes the last pre-activation, `conv1d` or `batchnorm1d`, so no sum is
made apart.  Every convolution keeps the length of its input.

One forward serves training and scoring: `GroupBranch.forward(x, keep)`.
keep=True trains: each BN normalizes with the batch's statistics and moves
its running statistics.  keep=False infers, on the branch's folded copy
(`GroupBranch.folded`), which a branch with its BNs makes for the call:
`_fold` folds every BN, with its running statistics, into the convolution
before it, with weight W·γ/√(σ²+ε) and bias (b−μ)·γ/√(σ²+ε)+β, and
nothing changes.  In the copy every convolution's weight is written in
conv1d's tap-major (k, C_out, C_in) layout and handed over as its
(C_out, C_in, k) view, so conv1d reads it in place; every BN slot is None,
so the copy refuses keep=True, and the source branch is never modified.
Blocks only compute: a block's `forward(x)` returns its output and its
record, training with its BNs and inferring once folded, and the branch
decides, keeping the record or dropping it.  Inference
(`training._group_logits`) folds each branch once per chunk of utterances
and runs every sample of the chunk alone through that one copy,
classifier included, so a sample's logits do not depend on its batch.  The
skip (if any) and the ReLU after a folded convolution are applied in place
on the array it just made; in training BN applies them itself
(`batchnorm1d(..., relu=True, residual=x)`), in place on its own output.
The aggregation convolution of the concatenated block outputs is one
`aggregate` op fed the block outputs as the blocks make them, so each
block's share is added to one output array as the block finishes: no
concatenation and no partial sum exists.  Folded scores agree with the
unfolded BN on the running statistics to rounding (1e-10 relative in the
tests).

With keep=True the forward also returns the branch's records, one per
layer group in forward order, each holding what its backward reads:

- the entry: the slice, the entry convolution's output and its BN's
  statistics;
- a block: each convolution's output and its BN's statistics, and an
  improved block's output (a conventional block's is a BN-ReLU output);
- the aggregation: its output and the MFA BN's statistics;
- the pooled embedding.

No BN-ReLU output is kept.  Each is made again, bit for bit, from its
BN's input and statistics where backward reads it (after Pleiss et al.,
arXiv 1707.06990): a block makes its inner one again, block 1 the entry's,
the pooling the MFA's, so at most one block's inner output is alive at a
time.  A conventional block's output is the next block's skip, so each is
made from the one below: `GroupBranch.backward` makes them all again,
bottom up, before it walks down the blocks.  Kept instead, they would add
one activation per block to every branch's records between the forward
and the backward, while made again they exist only in the branches whose
backward is running.  `GroupBranch.backward(records, dlogits)` pops the
records from the last and gives every parameter of the branch its
gradient.  A block output's gradient is the next block's share (its skip,
then its first convolution's input gradient) plus, with MFA, the block's
share of the aggregation's, added in that order.

A branch computes in its parameters' dtype.  A new model is float32: its
initial values are drawn from the rng in float64, as they always were, and
rounded to float32.  The LGP front end stays float64, and `forward` casts
its slice to the branch's dtype.

A checkpoint (`save_checkpoint`) is one npz archive: each branch's
parameters and BN running statistics under keys of its own
(`GroupBranch.stored_arrays`), each in its own dtype, and a JSON meta.
Every array of a checkpoint is float32, or every one float64, as in the
checkpoints written before models were float32; any other mix is refused.
`load_checkpoint` reads every array into a model in its stored dtype, so
a float64 checkpoint loads, trains on and scores in float64.
`CheckpointBranches`, which `score` runs, reads the meta and checks every
array's presence, shape and dtype from the .npy headers up front, then
each time branch g is asked for reads branch g's arrays alone, layer by
layer, folding each layer as it reads it, so it hands out a folded copy
and no unfolded branch is ever resident.
"""
from __future__ import annotations

import copy
import json
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .multiscale import GroupAssignment
from .tensor import (
    BN_EPS,
    BatchNormState,
    Tensor,
    _DTYPES,
    _parallel_map,
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

_CKPT_VERSION = 1
BLOCK_KERNEL = 3  # taps of every residual block convolution


@dataclass
class ResidualBlockCfg:
    channels: int = 256

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"model.channels must be >= 1, got {self.channels}")


@dataclass
class ModelCfg:
    n_groups: int = 8
    n_blocks: int = 6
    block: ResidualBlockCfg = field(default_factory=ResidualBlockCfg)
    group_input_dim: int = 248
    mfa: bool = True
    improved_blocks: bool = True

    def __post_init__(self):
        for key in ("n_groups", "n_blocks", "group_input_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {getattr(self, key)}")


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Float64 draws from the rng, rounded to float32: a new layer is float32."""
    bound = np.sqrt(6.0 / fan_in)
    # copy=False keeps `_Unfilled`'s float32 broadcast zero a view, which takes no memory
    return rng.uniform(-bound, bound, size=shape).astype(np.float32, copy=False)


class Conv1dLayer:
    """Stride-1 convolution that keeps the length of its input."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator):
        self.weight = Tensor(
            _kaiming_uniform(rng, (out_ch, in_ch, kernel), in_ch * kernel), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_ch, np.float32), requires_grad=True)

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return conv1d(x, self.weight, self.bias, residual=residual)

    def backward(self, g: np.ndarray, x: Tensor, dx: bool = True) -> np.ndarray | None:
        return conv1d_backward(g, x, self.weight, self.bias, dx)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm1dLayer:
    def __init__(self, channels: int):
        self.state = BatchNormState(channels)

    def __call__(self, x: Tensor, relu: bool = False, residual: Tensor | None = None, stats=None):
        return batchnorm1d(x, self.state, relu=relu, residual=residual, stats=stats)

    def backward(self, g: np.ndarray, x: Tensor, stats, out: Tensor | None = None):
        return batchnorm1d_backward(g, x, self.state, stats, None if out is None else out.data)

    def named_parameters(self):
        return [("gamma", self.state.gamma), ("beta", self.state.beta)]


def _fold(conv: Conv1dLayer, bn: BatchNorm1dLayer | None = None, read=getattr) -> Conv1dLayer:
    """A new convolution that computes bn(conv(x)), `bn` on its running
    statistics, as one: weight W·γ/√(σ²+ε) and bias (b−μ)·γ/√(σ²+ε)+β
    (without `bn`, W and b).  The weight is written in conv1d's tap-major
    (k, C_out, C_in) layout and handed over as its (C_out, C_in, k) view, so
    conv1d reads it in place.  Each array is read(owner, attribute), the
    layers' own by default."""
    w = read(conv.weight, "data")  # C_out x C_in x k
    taps = np.empty((w.shape[2], w.shape[0], w.shape[1]), w.dtype)  # conv1d's tap-major layout
    bias = read(conv.bias, "data")
    if bn is None:
        taps[...] = w.transpose(2, 0, 1)
    else:
        state = bn.state
        scale = read(state.gamma, "data") / np.sqrt(read(state, "running_var") + BN_EPS)
        bias = (bias - read(state, "running_mean")) * scale + read(state.beta, "data")
        np.multiply(w.transpose(2, 0, 1), scale[None, :, None], out=taps)
    folded = copy.copy(conv)
    folded.weight, folded.bias = Tensor(taps.transpose(1, 2, 0)), Tensor(bias)
    return folded


def _bn_relu(y: Tensor, bn: BatchNorm1dLayer | None, residual: Tensor | None = None):
    """(relu(bn(y) + residual), bn's statistics), where y is the output of the
    caller's own conv1d call and bn is None once folded; then the residual
    and the ReLU are applied in place on y and the statistics are None.
    Otherwise BN applies both itself, in place on its own output."""
    if bn is not None:
        return bn(y, relu=True, residual=residual)
    if residual is not None:
        y.data += residual.data
    np.maximum(y.data, 0.0, out=y.data)
    return y, None


def _conv_bn_relu(conv: Conv1dLayer, bn: BatchNorm1dLayer | None, x: Tensor, residual: Tensor | None = None):
    """(relu(bn(conv(x)) + residual), conv's output, bn's statistics), as one
    convolution and in-place ops where bn is None, folded into conv."""
    y = conv(x)
    out, stats = _bn_relu(y, bn, residual)
    return out, y, stats


class LinearLayer:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Tensor(
            _kaiming_uniform(rng, (out_features, in_features), in_features), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features, np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def backward(self, g: np.ndarray, x: Tensor) -> np.ndarray:
        return linear_backward(g, x, self.weight, self.bias)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class ImprovedResidualBlock:
    """Two convolutions, one BN, one activation, identity skip."""

    def __init__(self, cfg: ResidualBlockCfg, rng: np.random.Generator):
        c = cfg.channels
        self.conv1 = Conv1dLayer(c, c, BLOCK_KERNEL, rng)
        self.bn = BatchNorm1dLayer(c)
        self.conv2 = Conv1dLayer(c, c, BLOCK_KERNEL, rng)

    def forward(self, x: Tensor):
        """(the block's output, what `backward` reads besides the block's input
        and output: conv1's output and the BN's statistics).  With its BN the
        block trains; `folded()` infers."""
        a, c, stats = _conv_bn_relu(self.conv1, self.bn, x)
        return self.conv2(a, residual=x), (c, stats)

    def folded(self, read=getattr) -> ImprovedResidualBlock:
        """An inference-only copy: the BN folded into conv1, conv2 tap-major (`_fold`)."""
        block = copy.copy(self)
        block.conv1, block.bn = _fold(self.conv1, self.bn, read), None
        block.conv2 = _fold(self.conv2, read=read)
        return block

    def backward(self, saved, x: Tensor, y: Tensor | None, g: np.ndarray) -> np.ndarray:
        """The gradient of the block's input x for the gradient g of its output
        y, which this block's backward does not read."""
        c, stats = saved
        a = self.bn(c, relu=True, stats=stats)[0]  # the BN-ReLU output again, for conv2 and the BN
        gc = self.bn.backward(self.conv2.backward(g, a), c, stats, a)[0]
        del a
        return g + self.conv1.backward(gc, x)  # the skip's share, then conv1's

    def sublayers(self):
        return [("conv1", self.conv1), ("bn", self.bn), ("conv2", self.conv2)]


class StandardResidualBlock:
    """Conventional block for ablation: BN + activation after each convolution,
    the skip added before the second activation."""

    def __init__(self, cfg: ResidualBlockCfg, rng: np.random.Generator):
        c = cfg.channels
        self.conv1 = Conv1dLayer(c, c, BLOCK_KERNEL, rng)
        self.bn1 = BatchNorm1dLayer(c)
        self.conv2 = Conv1dLayer(c, c, BLOCK_KERNEL, rng)
        self.bn2 = BatchNorm1dLayer(c)

    def forward(self, x: Tensor):
        """(the block's output, what `backward` reads besides the block's input
        and output: each convolution's output and its BN's statistics).  With
        its BNs the block trains; `folded()` infers."""
        a, c1, stats1 = _conv_bn_relu(self.conv1, self.bn1, x)
        y, c2, stats2 = _conv_bn_relu(self.conv2, self.bn2, a, residual=x)
        return y, (c1, stats1, c2, stats2)

    def folded(self, read=getattr) -> StandardResidualBlock:
        """An inference-only copy: each BN folded into the convolution before it (`_fold`)."""
        block = copy.copy(self)
        block.conv1, block.bn1 = _fold(self.conv1, self.bn1, read), None
        block.conv2, block.bn2 = _fold(self.conv2, self.bn2, read), None
        return block

    def output(self, saved, x: Tensor) -> Tensor:
        """The block's output again, bit for bit, from its record and its input x."""
        _, _, c2, stats2 = saved
        return self.bn2(c2, relu=True, residual=x, stats=stats2)[0]

    def backward(self, saved, x: Tensor, y: Tensor, g: np.ndarray) -> np.ndarray:
        """The gradient of the block's input x for the gradient g of its output y."""
        c1, stats1, c2, stats2 = saved
        gc2, g_skip = self.bn2.backward(g, c2, stats2, y)
        a = self.bn1(c1, relu=True, stats=stats1)[0]  # the inner BN-ReLU output again, for conv2 and bn1
        gc1 = self.bn1.backward(self.conv2.backward(gc2, a), c1, stats1, a)[0]
        del a, gc2
        return g_skip + self.conv1.backward(gc1, x)  # the skip's share, then conv1's

    def sublayers(self):
        return [("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2), ("bn2", self.bn2)]


class GroupBranch:
    """One group's classifier: entry conv, blocks, MFA, pooling, linear head.

    The ensemble sets `classifier` after drawing every branch's other
    layers, so that a seed draws the parameters in that order."""

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
        self.classifier: LinearLayer | None = None

    def forward(self, x: Tensor, keep: bool = False) -> tuple[Tensor, list | None]:
        """The group logits (N x 2, spoof and bona fide) for the N x D x T
        slice x, and with keep=True the records that `backward` reads (see
        the module docstring), or None.  keep=True trains: each BN
        normalizes with the batch's statistics.  keep=False infers, on a
        folded branch: a branch that still has its BNs runs as `folded()`,
        and a folded one refuses keep=True, having no BN to train.  x is
        cast to the branch's dtype once, here."""
        if self.entry_bn is None:
            if keep:
                raise ValueError("a folded branch only infers: keep=True needs its batch normalizations")
        elif not keep:
            return self.folded().forward(x)
        if x.shape[1] != self.cfg.group_input_dim:
            raise ShapeError(f"slice has {x.shape[1]} dims, model expects {self.cfg.group_input_dim}")
        if x.data.dtype != self.dtype:
            x = Tensor(x.data.astype(self.dtype))
        records = [] if keep else None
        outputs = self._block_outputs(self._entry(x, records), records)
        if self.cfg.mfa:
            l = aggregate(outputs, self.mfa_conv.weight, self.mfa_conv.bias)
            m, stats = _bn_relu(l, self.mfa_bn)
            if keep:
                records.append((l, stats))
        else:
            for m in outputs:  # without MFA the last block's output is pooled
                pass
        emb = max_pool_time(m)
        if keep:
            records.append(emb)
        return self.classifier(emb), records

    @property
    def dtype(self) -> np.dtype:
        """The dtype the branch computes in: its parameters'."""
        return self.entry_conv.weight.data.dtype

    def folded(self, read=getattr) -> GroupBranch:
        """An inference-only copy of the branch: each conv→BN pair one
        convolution and every convolution's weight tap-major (`_fold`), every
        BN slot None, the classifier's arrays as they are.  Each array is
        read(owner, attribute): the branch's own by default.  The branch
        itself is not changed."""
        branch = copy.copy(self)
        branch.entry_conv, branch.entry_bn = _fold(self.entry_conv, self.entry_bn, read), None
        branch.blocks = [block.folded(read) for block in self.blocks]
        if self.cfg.mfa:
            branch.mfa_conv, branch.mfa_bn = _fold(self.mfa_conv, self.mfa_bn, read), None
        head = branch.classifier = copy.copy(self.classifier)
        head.weight, head.bias = Tensor(read(head.weight, "data")), Tensor(read(head.bias, "data"))
        return branch

    def _entry(self, x: Tensor, records: list | None) -> Tensor:
        h, e, stats = _conv_bn_relu(self.entry_conv, self.entry_bn, x)
        if records is not None:
            records.append((x, e, stats))
        return h

    def _block_outputs(self, h: Tensor, records: list | None):
        """Each block's output in turn, each made when it is asked for, with
        the block's record kept in records or, without records, dropped.  A
        conventional block's output is a BN-ReLU output, so its record does
        not keep it."""
        for block in self.blocks:
            h, saved = block.forward(h)
            if records is not None:
                records.append((saved, h if self.cfg.improved_blocks else None))
            del saved  # a folded block's record holds its inner output
            yield h

    def backward(self, records: list, dlogits: np.ndarray) -> None:
        """Add every parameter's gradient for dlogits, the gradient of the
        logits that `forward(x, keep=True)` returned with `records`.  The
        records are popped, and so freed, as the walk goes down.  The slice's
        own gradient, which nothing reads, is not made."""
        emb = records.pop()
        g = self.classifier.backward(dlogits, emb)
        del emb
        if self.cfg.mfa:
            l, stats = records.pop()
            m = self.mfa_bn(l, relu=True, stats=stats)[0]  # the MFA output again, for the pooling and the BN
            g_agg = self.mfa_bn.backward(max_pool_time_backward(g, m), l, stats, m)[0]
            del l, m
            gw = np.zeros(self.mfa_conv.weight.shape, self.dtype)
            g = None
        _, e, stats = records[0]
        h = None  # the entry's BN-ReLU output, made again where a block first reads it
        outputs = [y for _, y in records[1:]]  # each block's output; None where not kept
        if not self.cfg.improved_blocks:
            # each conventional block's output is the next one's skip, so they are made
            # again here, bottom up, each from the one below
            h = self.entry_bn(e, relu=True, stats=stats)[0]
            for i, block in enumerate(self.blocks):
                outputs[i] = block.output(records[1 + i][0], outputs[i - 1] if i else h)
        if not self.cfg.mfa:
            g = max_pool_time_backward(g, outputs[-1])  # the last block's output was pooled
        for i in reversed(range(len(self.blocks))):
            saved = records.pop()[0]
            y = outputs.pop()
            if self.cfg.mfa:
                share = aggregate_backward(g_agg, y, self.mfa_conv.weight, self.mfa_conv.bias,
                                           i * self.cfg.block.channels, gw)
                g = share if g is None else g + share
                del share
            if self.cfg.improved_blocks:
                y = None  # which its backward does not read
            if not i and h is None:  # the entry's output, which the entry BN reads too
                h = self.entry_bn(e, relu=True, stats=stats)[0]
            x = outputs[-1] if i else h
            g = self.blocks[i].backward(saved, x, y, g)
            del saved, x, y
        x, e, stats = records.pop()
        self.entry_conv.backward(self.entry_bn.backward(g, e, stats, h)[0], x, dx=False)

    def sublayers(self):
        layers = [("entry_conv", self.entry_conv), ("entry_bn", self.entry_bn)]
        for i, block in enumerate(self.blocks):
            layers.extend((f"block{i}.{name}", layer) for name, layer in block.sublayers())
        if self.cfg.mfa:
            layers.extend([("mfa_conv", self.mfa_conv), ("mfa_bn", self.mfa_bn)])
        layers.append(("classifier", self.classifier))
        return layers

    def batchnorms(self):
        return [layer for _, layer in self.sublayers() if isinstance(layer, BatchNorm1dLayer)]

    def stored_arrays(self, g: int) -> list[tuple[str, object, str]]:
        """(checkpoint key, owner, attribute) of every array a checkpoint holds
        for this branch as branch g: its parameters' data
        (`param/group{g}.<layer>.<name>`), then its BNs' running statistics
        (`bn/group{g}/<i>/<stat>`)."""
        entries = [
            (f"param/group{g}.{layer_name}.{pname}", p, "data")
            for layer_name, layer in self.sublayers()
            for pname, p in layer.named_parameters()
        ]
        for bi, bn in enumerate(self.batchnorms()):
            for stat in ("running_mean", "running_var"):
                entries.append((f"bn/group{g}/{bi}/{stat}", bn.state, stat))
        return entries


class GroupedResNetEnsemble:
    """G independent branch+classifier pairs whose logits are averaged."""

    def __init__(self, cfg: ModelCfg, rng: np.random.Generator):
        self.cfg = cfg
        self.branches = [GroupBranch(cfg, rng) for _ in range(cfg.n_groups)]
        for branch in self.branches:  # drawn after every branch's other layers
            branch.classifier = LinearLayer(cfg.block.channels, 2, rng)

    def forward_slices(self, slices) -> list[Tensor]:
        """The G group logits b_g (N x 2 each) by inference for the G group
        slices: any sequence of G Tensors, whose slice g is indexed where
        branch g runs (see `tensor._parallel_map`)."""
        if len(slices) != self.cfg.n_groups:
            raise ShapeError(f"expected {self.cfg.n_groups} slices, got {len(slices)}")
        return _parallel_map(lambda g: self.branches[g].forward(slices[g])[0], len(slices))

    def __call__(self, lgp: np.ndarray, assignment: GroupAssignment) -> list[Tensor]:
        """Forward a (N, D_total, T) LGP batch through its group slices, the
        columns `assignment.index_lists()`."""
        lgp = np.asarray(lgp, dtype=np.float64)
        if lgp.ndim != 3 or lgp.shape[1] != assignment.columns.size:
            raise ShapeError(f"model input of shape {lgp.shape} is not N x {assignment.columns.size} x T")
        return self.forward_slices([Tensor(lgp[:, cols]) for cols in assignment.index_lists()])

    def stored_arrays(self) -> list[tuple[str, object, str]]:
        """(checkpoint key, owner, attribute) of every array a checkpoint holds:
        each branch's parameters' data, then each branch's BN running
        statistics (`GroupBranch.stored_arrays`)."""
        entries = [e for gi, branch in enumerate(self.branches) for e in branch.stored_arrays(gi)]
        return sorted(entries, key=lambda e: e[0].startswith("bn/"))  # stable: parameters first

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [
            (f"group{gi}.{layer_name}.{pname}", p)
            for gi, branch in enumerate(self.branches)
            for layer_name, layer in branch.sublayers()
            for pname, p in layer.named_parameters()
        ]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def batchnorms(self) -> list[BatchNorm1dLayer]:
        return [bn for branch in self.branches for bn in branch.batchnorms()]

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
    """Stands in for the Generator of a model whose initial values are never
    read, because every stored array is about to be overwritten or only the
    parameters are counted: `uniform` hands out a read-only broadcast zero,
    which takes no memory."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(np.float32(0.0), size)


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


class _Members:
    """The arrays of an open npz archive by key, each read from it only when
    asked for: `shape(key)` reads the member's .npy header alone and gives
    the array's shape and dtype."""

    def __init__(self, archive: zipfile.ZipFile):
        self._archive = archive
        self._names = set(archive.namelist())

    def __contains__(self, key: str) -> bool:
        return f"{key}.npy" in self._names

    def shape(self, key: str) -> tuple[tuple[int, ...], np.dtype]:
        with self._archive.open(f"{key}.npy") as fh:
            version = np.lib.format.read_magic(fh)
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            shape, _, dtype = read_header(fh)
            return shape, dtype

    def __getitem__(self, key: str) -> np.ndarray:
        with self._archive.open(f"{key}.npy") as fh:
            return np.lib.format.read_array(fh, allow_pickle=False)


@contextmanager
def _checkpoint_archive(path: str | Path):
    """The `_Members` of the npz archive at path, open while the block runs.
    A file that is not such an archive (truncated, corrupt, not a zip at all),
    or a member that does not read back (a bad CRC, a short or malformed
    .npy), raises FormatError naming path."""
    try:
        with zipfile.ZipFile(path) as archive:
            yield _Members(archive)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise FormatError(f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})") from None


def _read_meta(members: _Members, path: str | Path) -> tuple[ModelCfg, GroupAssignment]:
    """The model configuration and grouping that the checkpoint's meta holds;
    FormatError naming path for a file without one or a malformed one
    (one that `ModelCfg`, `ResidualBlockCfg` or `GroupAssignment` refuses)."""
    if "meta" not in members:
        raise FormatError(f"{path}: not a model checkpoint")
    raw = bytes(members["meta"])
    try:
        meta = json.loads(raw.decode("utf-8"))
        if meta.get("version") != _CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        cfg_doc = dict(meta["model_cfg"])
        block_doc = dict(cfg_doc["block"])
        # older checkpoints also store these constants; only their one legal value loads
        legacy = ((cfg_doc, "n_classes", 2), (block_doc, "stride", 1), (block_doc, "kernel", BLOCK_KERNEL))
        for doc, key, legal in legacy:
            value = doc.pop(key, legal)
            if value != legal:
                raise FormatError(f"{path}: checkpoint has {key} {value!r}; only {legal} is supported")
        cfg_doc["block"] = ResidualBlockCfg(**block_doc)
        cfg = ModelCfg(**cfg_doc)
        assignment = GroupAssignment(
            groups={int(o): np.asarray(g, dtype=np.int64) for o, g in meta["assignment"].items()},
            n_groups=int(meta["n_groups"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError, ShapeError) as exc:
        raise FormatError(f"{path}: malformed checkpoint meta ({type(exc).__name__}: {exc})") from None
    return cfg, assignment


def _check_arrays(entries, members: _Members, path: str | Path) -> None:
    """FormatError naming path for the first of the (key, owner, attribute)
    entries whose array members lacks, holds in another shape than the
    owner's, or holds in a dtype other than the first entry's, by the .npy
    headers alone; that dtype must be float32 or float64."""
    first = None
    for key, owner, attr in entries:
        if key not in members:
            raise FormatError(f"{path}: checkpoint is missing {key}")
        shape, dtype = members.shape(key)
        if shape != getattr(owner, attr).shape:
            raise FormatError(f"{path}: shape mismatch for {key}")
        if first is None:
            if dtype not in _DTYPES:
                raise FormatError(f"{path}: {key} is {dtype}; a checkpoint's arrays are float32 or float64")
            first = key, dtype
        elif dtype != first[1]:
            raise FormatError(f"{path}: {key} is {dtype}, but {first[0]} is {first[1]}; "
                              "a checkpoint's arrays are all float32 or all float64")


def _read_arrays(entries, members: _Members, path: str | Path) -> None:
    """Check the (key, owner, attribute) entries as `_check_arrays` does, then
    set each owner's attribute to its array from members, in its stored dtype."""
    _check_arrays(entries, members, path)
    for key, owner, attr in entries:
        setattr(owner, attr, members[key])


def load_checkpoint(path: str | Path) -> tuple[GroupedResNetEnsemble, GroupAssignment]:
    """The model and grouping that `save_checkpoint` wrote to path, every
    array read; FormatError naming path for any file that is not such a
    checkpoint."""
    with _checkpoint_archive(path) as members:
        cfg, assignment = _read_meta(members, path)
        model = GroupedResNetEnsemble(cfg, _Unfilled())
        _read_arrays(model.stored_arrays(), members, path)
    return model, assignment


class CheckpointBranches:
    """The G branches of the checkpoint at path, each read from the file only
    when it is indexed, folded for inference: what `score` runs, so that no
    branch is resident before inference needs it.

    Construction reads the meta (`cfg`, `assignment`) and checks that every
    array the configuration gives is there in its shape, from the .npy
    headers alone, with `load_checkpoint`'s FormatErrors; no array data is
    read.  `branches[g]` opens the file again and reads only the
    `param/group{g}.*` and `bn/group{g}/*` arrays, a layer at a time, each
    folded as it is read (`GroupBranch.folded`), so it returns a new folded
    `GroupBranch` and an unfolded layer is alive only while it is folded.
    The caller holds its one reference, so the branch is freed when the
    caller drops it.  A member that does not read back then
    (a bad CRC, a short member) raises FormatError naming path."""

    def __init__(self, path: str | Path):
        self.path = path
        with _checkpoint_archive(path) as members:
            self.cfg, self.assignment = _read_meta(members, path)
            _check_arrays(GroupedResNetEnsemble(self.cfg, _Unfilled()).stored_arrays(), members, path)

    def __len__(self) -> int:
        return self.cfg.n_groups

    def __getitem__(self, g: int) -> GroupBranch:
        if not 0 <= g < len(self):
            raise IndexError(f"branch {g} of {len(self)}")
        skeleton = GroupBranch(self.cfg, _Unfilled())
        skeleton.classifier = LinearLayer(self.cfg.block.channels, 2, _Unfilled())
        entries = skeleton.stored_arrays(g)
        keys = {(id(owner), attr): key for key, owner, attr in entries}
        with _checkpoint_archive(self.path) as members:
            _check_arrays(entries, members, self.path)
            return skeleton.folded(lambda owner, attr: members[keys[id(owner), attr]])
