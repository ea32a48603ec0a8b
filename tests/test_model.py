import io
import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    DTYPES,
    FD_REL_TOL,
    as_float64,
    branch_grads,
    branch_keeping_everything,
    check_gradients,
    ensemble_loss_value,
    group_inputs,
    group_slices,
    in_dtype,
    mean_by_node,
    n_batchnorms,
    random_bank,
    rewrite_arrays,
    rewrite_meta,
    scattered_assignment,
    standard_forward_by_add,
    train_step_grads,
    training_forward,
    use_two_path_forward,
    use_unfolded_inference,
    weighted_sum,
)

import lgpnet.model as model_mod
import lgpnet.tensor as tensor_mod
import lgpnet.training as training_mod
from lgpnet.errors import ConfigError, FormatError, ShapeError
from lgpnet.model import (
    CheckpointBranches,
    ImprovedResidualBlock,
    ModelCfg,
    ResidualBlockCfg,
    StandardResidualBlock,
    build_model,
    ensemble_logits,
    load_checkpoint,
    save_checkpoint,
    score,
)
from lgpnet.multiscale import GroupAssignment, GroupLgp, lineage_grouping
from lgpnet.tensor import Tensor, max_pool_time
from lgpnet.training import AdamState, adam_step, ensemble_aware_loss, predict_logits


def param_count_oracle(g, blocks, ch, group_dim, mfa=True, improved=True):
    """Closed-form total parameter count, written before the implementation."""
    entry = ch * group_dim + ch + 2 * ch
    block = 2 * (3 * ch * ch + ch) + (2 * ch if improved else 4 * ch)
    mfa_params = (ch * (blocks * ch) + ch + 2 * ch) if mfa else 0
    classifier = 2 * ch + 2  # two logits
    return g * (entry + blocks * block + mfa_params + classifier)


def tiny_cfg(**overrides):
    defaults = dict(
        n_groups=2,
        n_blocks=2,
        block=ResidualBlockCfg(channels=8),
        group_input_dim=4,
    )
    defaults.update(overrides)
    return ModelCfg(**defaults)


def tiny_assignment(n_groups=2, total=8):
    per = total // n_groups
    return GroupAssignment(
        groups={total: np.repeat(np.arange(n_groups), per)}, n_groups=n_groups
    )


def block_params(block):
    return [p for _, layer in block.sublayers() for _, p in layer.named_parameters()]


def branch_params(branch):
    return [p for _, layer in branch.sublayers() for _, p in layer.named_parameters()]


def recording(monkeypatch, *names):
    """Patch each named op of lgpnet.model to append (name, args, kwargs, result) to the returned list."""
    calls = []
    for name in names:
        real = getattr(model_mod, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            result = _real(*args, **kwargs)
            calls.append((_name, args, kwargs, result))
            return result

        monkeypatch.setattr(model_mod, name, wrapper)
    return calls


def folded_arrays(branch):
    """The bytes of every parameter of the branch's convolutions and classifier,
    in `sublayers` order: all of a folded branch's arrays."""
    return [p.data.tobytes() for _, layer in branch.sublayers()
            if not isinstance(layer, (model_mod.BatchNorm1dLayer, type(None)))
            for _, p in layer.named_parameters()]


def output_array(result):
    """The array of an op's output Tensor (batchnorm1d returns it with its statistics)."""
    return (result[0] if isinstance(result, tuple) else result).data


class TestImprovedResidualBlock:
    def test_zero_second_conv_is_identity(self):
        rng = np.random.default_rng(0)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        block.conv2.weight.data[:] = 0.0
        block.conv2.bias.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 4, 6)))
        out = block.folded().forward(x)[0]
        assert np.array_equal(out.data, x.data)

    def test_single_bn_single_activation(self):
        rng = np.random.default_rng(1)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        assert n_batchnorms(block) == 1
        standard = StandardResidualBlock(ResidualBlockCfg(channels=4), rng)
        assert n_batchnorms(standard) == 2

    @pytest.mark.parametrize("improved", [True, False])
    def test_activation_sites_in_a_kept_forward(self, monkeypatch, improved):
        # a ReLU site is a batchnorm1d that applies the ReLU itself; each block's skip is
        # a residual operand, so the forward runs no op besides its convolutions and BNs
        calls = recording(monkeypatch, "conv1d", "batchnorm1d", "aggregate", "max_pool_time", "linear")
        rng = np.random.default_rng(2)
        block_type = ImprovedResidualBlock if improved else StandardResidualBlock
        block = block_type(ResidualBlockCfg(channels=4), rng)
        block.forward(Tensor(rng.normal(size=(1, 4, 5))))
        names = sorted(name for name, *_ in calls)
        relus = sum(kwargs.get("relu", False) for name, _, kwargs, _ in calls if name == "batchnorm1d")
        assert relus == (1 if improved else 2)
        assert names == ["batchnorm1d"] * n_batchnorms(block) + ["conv1d", "conv1d"]

    @pytest.mark.parametrize("improved", [True, False])
    def test_gradients_through_block(self, improved):
        rng = np.random.default_rng(3)
        block_type = ImprovedResidualBlock if improved else StandardResidualBlock
        block = as_float64(block_type(ResidualBlockCfg(channels=3), rng))
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        coeffs = rng.normal(size=(2, 3, 5))
        y, saved = block.forward(x)
        gx = block.backward(saved, x, y, coeffs)
        params = block_params(block)
        worst = check_gradients(
            lambda: weighted_sum(block.forward(x)[0], coeffs), [gx] + [p.grad for p in params],
            [x] + params
        )
        assert worst < FD_REL_TOL

    def test_channel_mismatch(self):
        rng = np.random.default_rng(4)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        with pytest.raises(ShapeError):
            block.forward(Tensor(np.zeros((1, 3, 5))))


class TestStandardResidualBlock:
    """The conventional block's skip is the residual operand of its second BN;
    the reference adds it to that BN's output apart, before a separate ReLU."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("mode", ["train", "train-perturbed", "inference"])
    def test_bitwise_as_relu_of_add(self, mode, mfa, dtype, monkeypatch):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=False, mfa=mfa)
        x = Tensor(np.random.default_rng(50).normal(size=(3, 4, 11)))
        coeffs = np.random.default_rng(51).normal(size=(3, 2))
        results = []
        for reference in (False, True):
            branch = in_dtype(build_model(cfg, seed=48).branches[0], dtype)
            if mode != "train":
                perturb_batchnorms(branch, np.random.default_rng(49))
            if mode == "inference":
                if reference:
                    monkeypatch.setattr(StandardResidualBlock, "forward", standard_forward_by_add)
                arrays = [branch.forward(x)[0].data]
            elif reference:
                logits = branch_keeping_everything(branch, x, coeffs, skip="add")
                arrays = [logits.data] + [p.grad for p in branch_params(branch)]
            else:
                logits, records = branch.forward(x, keep=True)
                branch.backward(records, coeffs)
                arrays = [logits.data] + [p.grad for p in branch_params(branch)]
            stats = [(bn.state.running_mean, bn.state.running_var) for bn in branch.batchnorms()]
            results.append(arrays + [a for pair in stats for a in pair])
        for got, ref in zip(*results, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_no_preactivation_sum_alive_after_a_kept_forward(self, monkeypatch):
        block = StandardResidualBlock(ResidualBlockCfg(channels=4), np.random.default_rng(52))
        x = Tensor(np.random.default_rng(53).normal(size=(2, 4, 9)), requires_grad=True)
        calls = recording(monkeypatch, "conv1d", "batchnorm1d")
        out, saved = block.forward(x)
        made = [weakref.ref(output_array(result)) for *_, result in calls]
        del calls[:]
        monkeypatch.undo()
        alive = [a for a in (ref() for ref in made) if a is not None]
        _, _, c2, stats2 = saved
        pre = x.data + block.bn2(c2, stats=stats2)[0].data  # x + h, what a separate ReLU would read
        assert (pre < 0).any()  # so the block's output is not that sum
        assert any(a is out.data for a in alive)  # the probe saw the block's arrays
        assert not any(np.allclose(a, pre, rtol=1e-12, atol=0.0) for a in alive if a.shape == pre.shape)


class TestGroupBranch:
    def test_embedding_dim_is_channel_count(self):
        cfg = ModelCfg(
            n_groups=1,
            n_blocks=6,
            block=ResidualBlockCfg(channels=256),
            group_input_dim=248,
        )
        model = build_model(cfg, seed=0)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 248, 32)))
        logits, records = model.branches[0].forward(x, keep=True)
        assert records[-1].shape == (1, 256) and logits.shape == (1, 2)

    def test_time_length_invariance(self):
        cfg = tiny_cfg()
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(6)
        for t in (400, 200, 50):
            logits, records = model.branches[0].forward(Tensor(rng.normal(size=(2, 4, t))), keep=True)
            assert records[-1].shape == (2, 8) and logits.shape == (2, 2)

    def test_mfa_concatenates_all_blocks(self):
        cfg = tiny_cfg()
        model = build_model(cfg, seed=2)
        branch = model.branches[0]
        assert branch.mfa_conv.weight.shape == (8, 2 * 8, 1)

    def test_without_mfa_uses_last_block(self):
        cfg = tiny_cfg(mfa=False)
        model = build_model(cfg, seed=3)
        branch = model.branches[0]
        assert branch.mfa_conv is None
        logits, records = branch.forward(Tensor(np.random.default_rng(7).normal(size=(1, 4, 10))), keep=True)
        assert records[-1].data.tobytes() == max_pool_time(records[-2][1]).data.tobytes()
        assert logits.shape == (1, 2)

    def test_zeroed_blocks_reduce_to_entry_plus_mfa(self, monkeypatch):
        cfg = tiny_cfg()
        model = as_float64(build_model(cfg, seed=4))
        branch = model.branches[0]
        for block in branch.blocks:
            block.conv2.weight.data[:] = 0.0
            block.conv2.bias.data[:] = 0.0
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 4, 12)))
        full = branch.forward(x)[0]
        # reference with every BN its own op on its running statistics: entry -> B copies
        # -> MFA -> pool, skipping the blocks
        use_unfolded_inference(monkeypatch)
        h = branch.entry_bn(branch.entry_conv(x), relu=True)[0]
        cat = Tensor(np.concatenate([h.data] * cfg.n_blocks, axis=1))
        m = branch.mfa_bn(branch.mfa_conv(cat), relu=True)[0]
        reference = branch.classifier(max_pool_time(m))
        assert np.max(np.abs(full.data - reference.data)) <= 1e-12 * np.max(np.abs(reference.data))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bn_params", ["initial", "perturbed"])
    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_gradients_bitwise_a_reference_keeping_everything(self, improved, mfa, bn_params, dtype):
        # helpers.branch_keeping_everything keeps every op output and sums each block
        # output's gradient in the former graph walk's order; the branch keeps only its
        # records and makes its BN-ReLU outputs again: the same logits, gradients and
        # running statistics
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa)
        x = Tensor(np.random.default_rng(43).normal(size=(3, 4, 11)))
        coeffs = np.random.default_rng(44).normal(size=(3, 2))
        results = []
        for reference in (False, True):
            branch = in_dtype(build_model(cfg, seed=42).branches[0], dtype)
            if bn_params == "perturbed":
                perturb_batchnorms(branch, np.random.default_rng(45))
            if reference:
                logits = branch_keeping_everything(branch, x, coeffs)
            else:
                logits, records = branch.forward(x, keep=True)
                branch.backward(records, coeffs)
                assert records == []
            stats = [a for bn in branch.batchnorms() for a in (bn.state.running_mean, bn.state.running_var)]
            results.append([logits.data] + [p.grad for p in branch_params(branch)] + stats)
        for got, ref in zip(*results, strict=True):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("improved", [True, False])
    def test_mfa_gradients_match_concatenation(self, improved):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        x = Tensor(np.random.default_rng(43).normal(size=(3, 4, 11)))
        coeffs = np.random.default_rng(44).normal(size=(3, 2))
        grads = []
        for concat in (False, True):
            branch = as_float64(build_model(cfg, seed=42).branches[0])  # train-mode BN: batch statistics
            if concat:
                branch_keeping_everything(branch, x, coeffs, mfa="concat")
                grads.append([p.grad for p in branch_params(branch)])
            else:
                grads.append(branch_grads(branch, x, coeffs))
        # a conv bias that feeds a train-mode BN has a true gradient of 0, so rounding
        # is measured against the largest gradient entry of the branch
        scale = max(np.max(np.abs(ref)) for ref in grads[1])
        worst = max(np.max(np.abs(got - ref)) for got, ref in zip(*grads)) / scale
        assert worst <= 1e-12

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("improved", [True, False])
    def test_gradients_bitwise_as_a_chain_of_residual_convs(self, improved, dtype):
        # aggregate's parts make each block output's share where a chain of residual
        # 1x1 convs would, so every gradient is summed in the same order
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        x = Tensor(np.random.default_rng(45).normal(size=(3, 4, 11)))
        coeffs = np.random.default_rng(46).normal(size=(3, 2))
        results = []
        for chain in (False, True):
            branch = in_dtype(build_model(cfg, seed=44).branches[0], dtype)
            if chain:
                logits = branch_keeping_everything(branch, x, coeffs, mfa="chain")
                grads = [p.grad for p in branch_params(branch)]
            else:
                logits, records = branch.forward(x, keep=True)
                branch.backward(records, coeffs)
                grads = [p.grad for p in branch_params(branch)]
            results.append([logits.data] + grads)
        for got, ref in zip(*results, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_no_partial_sum_alive_after_a_kept_forward(self, monkeypatch):
        cfg = tiny_cfg(n_blocks=4)
        branch = build_model(cfg, seed=46).branches[0]
        calls = recording(monkeypatch, "conv1d", "batchnorm1d", "aggregate")
        x = Tensor(np.random.default_rng(47).normal(size=(2, 4, 11)))
        _, records = branch.forward(x, keep=True)
        made = [weakref.ref(output_array(result)) for *_, result in calls]
        del calls[:]
        block_outputs = [h.data for _, h in records[1:-2]]  # improved blocks' outputs, kept
        assert len(block_outputs) == cfg.n_blocks
        w, b = branch.mfa_conv.weight.data[:, :, 0], branch.mfa_conv.bias.data
        c = cfg.block.channels
        partial = b[None, :, None] + w[:, :c] @ block_outputs[0]
        partials = [partial]
        for i, h in enumerate(block_outputs[1:-1], start=1):
            partials.append(partials[-1] + w[:, i * c : (i + 1) * c] @ h)
        alive = [a for a in (ref() for ref in made) if a is not None and a.shape == partial.shape]
        for p in partials:
            assert not any(np.allclose(a, p, rtol=1e-12, atol=0.0) for a in alive)
        assert len(made) > len(alive) > cfg.n_blocks  # the probe saw the branch's activations


def slices_for(cfg, seed, n=3, t=11):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(n, cfg.group_input_dim, t))) for _ in range(cfg.n_groups)]


class TestRecomputedBnOutputs:
    """A kept forward holds no BN-ReLU output that a later layer does not read
    as it is; backward makes each of the others again, bit for bit, where it
    reads it."""

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_no_bn_relu_output_kept(self, monkeypatch, improved, mfa):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa)
        branch = build_model(cfg, seed=60).branches[0]
        calls = recording(monkeypatch, "batchnorm1d")
        _, records = branch.forward(slices_for(cfg, 61)[0], keep=True)
        assert len(calls) == len(branch.batchnorms())
        refs = [weakref.ref(result[0].data) for *_, result in calls]
        del calls[:]
        assert [ref() for ref in refs] == [None] * len(refs)
        assert all((y is None) != improved for _, y in records[1 : 1 + cfg.n_blocks])

    @pytest.mark.parametrize("improved", [True, False])
    def test_made_again_bitwise_the_forwards(self, monkeypatch, improved):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        branch = build_model(cfg, seed=62).branches[0]
        perturb_batchnorms(branch, np.random.default_rng(63))
        calls = recording(monkeypatch, "batchnorm1d")
        _, records = branch.forward(slices_for(cfg, 64)[0], keep=True)
        made = {id(result[1][0]): result[0].data.tobytes() for *_, result in calls}
        del calls[:]
        branch.backward(records, np.ones((3, 2)))
        again = [(kwargs["stats"], result[0].data.tobytes()) for _, _, kwargs, result in calls]
        # every block's inner one, the entry's and the MFA's, and each conventional block's output
        assert len(again) == cfg.n_blocks + 2 + (0 if improved else cfg.n_blocks)
        for stats, data in again:
            assert data == made[id(stats[0])]

    def test_deep_conventional_branch(self):
        # each conventional block's output is the next one's skip; a backward that made
        # those outputs again would need each to make the one below first
        cfg = tiny_cfg(n_groups=1, n_blocks=sys.getrecursionlimit() // 2, block=ResidualBlockCfg(channels=2),
                       group_input_dim=2, improved_blocks=False, mfa=False)
        model = build_model(cfg, seed=69)
        x = Tensor(np.random.default_rng(69).normal(size=(2, 2, 3)))
        train_step_grads(model, [x], np.array([0, 1]))
        assert all(p.grad is not None and np.isfinite(p.grad).all() for p in model.parameters())

    def test_forward_without_keep_holds_nothing(self, monkeypatch):
        cfg = tiny_cfg(improved_blocks=False)
        branch = build_model(cfg, seed=65).branches[0]
        calls = recording(monkeypatch, "conv1d", "batchnorm1d", "aggregate", "max_pool_time")
        logits, records = branch.forward(slices_for(cfg, 66)[0])
        refs = [weakref.ref(output_array(result)) for *_, result in calls]
        del calls[:]
        assert records is None and len(refs) > cfg.n_blocks
        assert [ref() for ref in refs] == [None] * len(refs)
        assert logits.shape == (3, 2)

    @pytest.mark.parametrize("improved", [True, False])
    def test_folded_forward_frees_each_inner_output_before_the_next_block(self, monkeypatch, improved):
        # a folded block's record holds its inner output (its first convolution's, the
        # ReLU applied in place), so the branch drops the record before it hands the
        # block's output to the aggregation
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        branch = build_model(cfg, seed=72).branches[0].folded()
        firsts = {id(block.conv1.weight) for block in branch.blocks}
        inner = []  # a weakref to each block's inner output, in block order
        taken = []  # (block i, whether its inner output is alive) as the aggregation takes block i's output
        real_conv, real_aggregate = model_mod.conv1d, model_mod.aggregate

        def noting_conv(x, weight, *args, **kwargs):
            y = real_conv(x, weight, *args, **kwargs)
            if id(weight) in firsts:
                inner.append(weakref.ref(y.data))
            return y

        def probing_aggregate(xs, weight, bias):
            def probed():
                for i, h in enumerate(xs):
                    taken.append((i, inner[i]() is not None))
                    yield h

            return real_aggregate(probed(), weight, bias)

        monkeypatch.setattr(model_mod, "conv1d", noting_conv)
        monkeypatch.setattr(model_mod, "aggregate", probing_aggregate)
        logits = branch.forward(slices_for(cfg, 73)[0])[0]
        assert taken == [(i, False) for i in range(cfg.n_blocks)]
        assert len(inner) == cfg.n_blocks and logits.shape == (3, 2)

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_backward_holds_one_inner_output_at_a_time(self, monkeypatch, improved, mfa):
        # a block's backward makes only its own inner BN-ReLU output again, so at each
        # convolution's backward at most one block's inner output is alive.  Each output
        # is made again once: a conventional branch makes all its block outputs (each the
        # next block's skip) and the entry's at once, before it walks down the blocks
        cfg = tiny_cfg(n_blocks=6, improved_blocks=improved, mfa=mfa)
        branch = build_model(cfg, seed=67).branches[0]
        inner = {id(block.bn.state if improved else block.bn1.state) for block in branch.blocks}
        _, records = branch.forward(slices_for(cfg, 68)[0], keep=True)
        made = []  # (weakref to an output made again, whether it is a block's inner one)
        seen = []  # at each convolution's backward: (inner ones alive, all alive)
        real_bn, real_backward = model_mod.batchnorm1d, model_mod.conv1d_backward

        def noting_bn(x, state, *args, **kwargs):
            out = real_bn(x, state, *args, **kwargs)
            made.append((weakref.ref(out[0].data), id(state) in inner))
            return out

        def probing_backward(*args):
            alive = [is_inner for ref, is_inner in made if ref() is not None]
            seen.append((sum(alive), len(alive)))
            return real_backward(*args)

        monkeypatch.setattr(model_mod, "batchnorm1d", noting_bn)
        monkeypatch.setattr(model_mod, "conv1d_backward", probing_backward)
        branch.backward(records, np.ones((3, 2)))
        outputs = 0 if improved else cfg.n_blocks
        assert len(made) == cfg.n_blocks + 1 + mfa + outputs
        assert len(seen) == 2 * cfg.n_blocks + 1
        assert max(n for n, _ in seen) == 1
        assert max(n for _, n in seen) <= 2 + outputs

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_only_the_entry_convolution_leaves_its_input_gradient_unmade(self, monkeypatch, improved, mfa):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa)
        branch = build_model(cfg, seed=70).branches[0]
        _, records = branch.forward(slices_for(cfg, 71)[0], keep=True)
        calls = []  # (the convolution's weight, dx, the input gradient returned)
        real_backward = model_mod.conv1d_backward

        def noting_backward(g, x, weight, bias, dx=True):
            gx = real_backward(g, x, weight, bias, dx)
            calls.append((weight, dx, gx))
            return gx

        monkeypatch.setattr(model_mod, "conv1d_backward", noting_backward)
        branch.backward(records, np.ones((3, 2)))
        assert len(calls) == 2 * cfg.n_blocks + 1
        assert [(w is branch.entry_conv.weight, dx) for w, dx, _ in calls if not dx] == [(True, False)]
        assert calls[-1][0] is branch.entry_conv.weight and calls[-1][2] is None
        assert all(gx is not None for _, dx, gx in calls if dx)


class TestModelForward:
    def test_ensemble_is_mean_of_groups(self):
        model = build_model(tiny_cfg(), seed=5)
        rng = np.random.default_rng(9)
        out = model(rng.normal(size=(3, 8, 10)), tiny_assignment())
        stacked = np.stack([g.data for g in out])
        assert np.max(np.abs(ensemble_logits([g.data for g in out]) - stacked.mean(axis=0))) < 1e-12

    @pytest.mark.parametrize("n_groups", [1, 2, 8])
    def test_ensemble_logits_bitwise_the_mean_node(self, n_groups):
        # the library's former mean node, kept in helpers
        arrays = [np.random.default_rng(70 + g).normal(size=(5, 2)) * 10.0 for g in range(n_groups)]
        before = [a.copy() for a in arrays]
        got = ensemble_logits(arrays)
        assert got.tobytes() == mean_by_node(arrays).tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))  # the inputs are left as they were

    def test_identical_groups_and_slices_collapse(self):
        model = build_model(tiny_cfg(), seed=6)
        # copy group 0 parameters into group 1
        named = dict(model.named_parameters())
        for name, p in named.items():
            if name.startswith("group1."):
                p.data = named["group0." + name[len("group1.") :]].data.copy()
        rng = np.random.default_rng(10)
        one_slice = rng.normal(size=(2, 4, 10))
        x = np.concatenate([one_slice, one_slice], axis=1)
        out = model(x, tiny_assignment())
        assert np.array_equal(out[0].data, out[1].data)
        assert np.allclose(ensemble_logits([g.data for g in out]), out[0].data, atol=1e-15)

    def test_group_independence(self):
        model = build_model(tiny_cfg(), seed=7)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 8, 10))
        base = model(x, tiny_assignment())
        model.branches[1].classifier.bias.data += 1.0
        bumped = model(x, tiny_assignment())
        assert np.array_equal(base[0].data, bumped[0].data)
        assert not np.array_equal(base[1].data, bumped[1].data)
        assert not np.array_equal(ensemble_logits([g.data for g in base]), ensemble_logits([g.data for g in bumped]))

    def test_param_count_matches_oracle(self):
        cfg = tiny_cfg()
        model = build_model(cfg, seed=8)
        assert model.param_count() == param_count_oracle(2, 2, 8, 4)

    def test_param_count_full_size_oracle(self):
        cfg = ModelCfg()  # 8 groups, 6 blocks, 256 channels, 248-dim slices
        expected = param_count_oracle(8, 6, 256, 248)
        model = build_model(cfg, seed=0)
        assert model.param_count() == expected

    def test_describe_sums_to_total(self):
        model = build_model(tiny_cfg(), seed=9)
        breakdown = model.describe()
        total = breakdown.pop("total")
        assert sum(breakdown.values()) == total == model.param_count()

    def test_classifier_names_and_draws_after_every_branch(self):
        # each branch holds its classifier, named and stored as the ensemble's, and
        # drawn after every branch's other layers, each draw rounded to float32
        model = build_model(tiny_cfg(), seed=9)
        names = [name for name, _ in model.named_parameters()]
        assert names[-2:] == ["group1.classifier.weight", "group1.classifier.bias"]
        assert names.index("group0.classifier.weight") == names.index("group1.entry_conv.weight") - 2
        rng = np.random.default_rng(9)
        for branch in model.branches:
            for _, layer in branch.sublayers()[:-1]:
                for _, p in layer.named_parameters():
                    if p.ndim > 1:
                        fan_in = p.size // p.shape[0]
                        draw = rng.uniform(-np.sqrt(6 / fan_in), np.sqrt(6 / fan_in), p.shape)
                        assert p.data.tobytes() == draw.astype(np.float32).tobytes()
        for classifier in [branch.classifier for branch in model.branches]:
            draw = rng.uniform(-np.sqrt(6 / 8), np.sqrt(6 / 8), (2, 8))
            assert classifier.weight.data.tobytes() == draw.astype(np.float32).tobytes()

    def test_wrong_assignment_rejected(self):
        model = build_model(tiny_cfg(), seed=10)
        with pytest.raises(ShapeError):
            model(np.zeros((1, 9, 10)), tiny_assignment())

    def test_nan_input_gives_non_finite_logits(self):
        model = build_model(tiny_cfg(), seed=12)
        x = np.random.default_rng(13).normal(size=(2, 8, 10))
        x[0, 3, 4] = np.nan
        logits = ensemble_logits([g.data for g in model(x, tiny_assignment())])
        assert not np.isfinite(logits[0]).all()

    @pytest.mark.parametrize("aware", [True, False])
    def test_full_model_gradient_check(self, aware):
        cfg = tiny_cfg()
        model = as_float64(build_model(cfg, seed=11))
        rng = np.random.default_rng(12)
        slices = [Tensor(s) for s in group_slices(tiny_assignment(), rng.normal(size=(2, 8, 16)))]
        labels = np.array([0, 1])
        train_step_grads(model, slices, labels, aware)
        params = model.parameters()
        worst = check_gradients(
            lambda: ensemble_loss_value(model, slices, labels, aware), [p.grad for p in params], params
        )
        assert worst < FD_REL_TOL


class TestBranchPool:
    """A training step runs the G branches' forwards and backwards, and
    forward_slices their forwards, through tensor._parallel_map."""

    def _slices(self, seed, n_groups=4):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(2, 4, 10))) for _ in range(n_groups)]

    def _batch(self, seed, n_groups=4):
        """A `GroupLgp` of n_groups groups of 4 columns each, and a batch of 2
        samples' frames (10 of 3 dims) for it: a training step's inputs."""
        rng = np.random.default_rng(seed)
        bank = random_bank(rng, [4 * n_groups], 3)
        return GroupLgp(bank, lineage_grouping(bank, n_groups)), rng.normal(size=(2, 10, 3))

    def test_gradients_bitwise_equal_to_calling_thread_reference(self, two_workers):
        cfg = tiny_cfg(n_groups=4)
        labels = np.array([0, 1])
        pooled, reference = build_model(cfg, seed=21), build_model(cfg, seed=21)
        caller, idents = threading.get_ident(), []
        for branch in pooled.branches:
            real = branch.backward
            branch.backward = lambda *a, _real=real: idents.append(threading.get_ident()) or _real(*a)
        lgp, frames = self._batch(22)
        pooled_loss = training_mod._step(pooled, lgp, frames, labels, True, "step")
        assert len(idents) == 4 and caller not in idents
        assert train_step_grads(reference, group_inputs(lgp, frames), labels) == pooled_loss
        for (name, p), (_, q) in zip(pooled.named_parameters(), reference.named_parameters()):
            assert np.array_equal(p.grad, q.grad), name
        for bn_p, bn_q in zip(pooled.batchnorms(), reference.batchnorms()):
            assert np.array_equal(bn_p.state.running_mean, bn_q.state.running_mean)
            assert np.array_equal(bn_p.state.running_var, bn_q.state.running_var)

    def test_adam_steps_on_many_workers_match_inline_run(self, forced_pool, monkeypatch):
        # more workers than cores and a short switch interval, so the branches,
        # their backward passes and the Adam updates interleave finely
        def three_steps():
            model = build_model(tiny_cfg(n_groups=8), seed=29)
            state = AdamState(model.parameters())
            for step in range(3):
                model.zero_grad()
                training_mod._step(model, *self._batch(30 + step, 8), np.array([0, 1]), True, "step")
                adam_step(state, 1e-2)
            return model

        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        inline = three_steps()
        forced_pool(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = three_steps()
        finally:
            sys.setswitchinterval(interval)
        for (name, p), (_, q) in zip(pooled.named_parameters(), inline.named_parameters()):
            assert np.array_equal(p.data, q.data), name
            assert np.array_equal(p.grad, q.grad), name
        for bn_p, bn_q in zip(pooled.batchnorms(), inline.batchnorms()):
            assert np.array_equal(bn_p.state.running_mean, bn_q.state.running_mean)
            assert np.array_equal(bn_p.state.running_var, bn_q.state.running_var)

    def test_branch_without_backward_keeps_grad_none(self):
        model = build_model(tiny_cfg(n_groups=4), seed=23)
        runs = [branch.forward(x, keep=True) for branch, x in zip(model.branches, self._slices(24))]
        _, dlogits = ensemble_aware_loss([b.data for b, _ in runs[:3]], np.array([1, 0]))
        for branch, (_, records), g in zip(model.branches, runs, dlogits):
            branch.backward(records, g)
        for name, p in model.named_parameters():
            if name.startswith("group3."):
                assert p.grad is None, name
            else:
                assert p.grad is not None, name

    def test_error_in_one_branch_reaches_caller(self, two_workers):
        model = build_model(tiny_cfg(n_groups=4), seed=25)
        model.branches[2].entry_conv.weight.data = np.zeros((8, 5, 1))  # channel mismatch
        with pytest.raises(ShapeError, match="channel mismatch"):
            model.forward_slices(self._slices(26))
        with pytest.raises(ShapeError, match="channel mismatch"):
            training_mod._step(model, *self._batch(26), np.array([0, 1]), True, "step")

    def test_wrong_slice_count_rejected(self):
        model = build_model(tiny_cfg(n_groups=4), seed=25)
        with pytest.raises(ShapeError, match="expected 4 slices, got 3"):
            model.forward_slices(self._slices(26, n_groups=3))
        with pytest.raises(ShapeError, match="expected 4 groups, got 2"):
            training_mod._step(model, *self._batch(26, n_groups=2), np.array([0, 1]), True, "step")

    def test_forward_slices_runs_branches_on_the_pool(self, two_workers, monkeypatch):
        model = build_model(tiny_cfg(n_groups=4), seed=27)
        idents = []
        inline = [branch.forward(x)[0] for branch, x in zip(model.branches, self._slices(28))]
        real = model_mod.GroupBranch.forward

        def forward(branch, *args, **kwargs):  # the calls on the model's branches, not on their folded copies
            if any(branch is b for b in model.branches):
                idents.append(threading.get_ident())
            return real(branch, *args, **kwargs)

        monkeypatch.setattr(model_mod.GroupBranch, "forward", forward)
        pooled = model.forward_slices(self._slices(28))
        assert len(idents) == 4 and threading.get_ident() not in idents
        for got, ref in zip(pooled, inline):
            assert got.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("keep", [True, False])
    def test_a_lazy_input_is_made_on_the_branch_s_worker(self, two_workers, monkeypatch, keep):
        # input g is made once, on the thread that runs branch g: a training step asks
        # the GroupLgp for it (`input(frames, g)`) in the map call that runs the branch,
        # and forward_slices indexes a sequence that makes its inputs when indexed,
        # which the map never iterates
        model = build_model(tiny_cfg(n_groups=4), seed=31)
        made, ran = {}, {}
        lgp, frames = self._batch(44)
        real_input = GroupLgp.input

        def noting_input(self, frames, g):
            assert g not in made
            made[g] = threading.get_ident()
            return real_input(self, frames, g)

        class Lazy:
            def __len__(self):
                return 4

            def __getitem__(self, g):
                return lgp.input(frames, g)

        real = model_mod.GroupBranch.forward

        def forward(branch, *args, **kwargs):  # the calls on the model's branches, not on their folded copies
            for g, b in enumerate(model.branches):
                if branch is b:
                    ran[g] = threading.get_ident()
            return real(branch, *args, **kwargs)

        monkeypatch.setattr(model_mod.GroupBranch, "forward", forward)
        monkeypatch.setattr(GroupLgp, "input", noting_input)
        if keep:
            training_mod._step(model, lgp, frames, np.array([0, 1]), True, "step")
        else:
            model.forward_slices(Lazy())
        assert made == ran and threading.get_ident() not in made.values()


def perturb_batchnorms(owner, rng):
    """Running statistics and affine parameters away from their initial values,
    drawn in float64 and kept in the owner's dtype."""
    for bn in owner.batchnorms():
        state = bn.state
        c, dtype = state.channels, state.gamma.data.dtype
        state.running_mean = rng.normal(size=c).astype(dtype)
        state.running_var = rng.uniform(0.3, 3.0, size=c).astype(dtype)
        state.gamma.data = rng.uniform(0.5, 1.5, size=c).astype(dtype)
        state.beta.data = rng.normal(scale=0.3, size=c).astype(dtype)


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestForwardOnlyPath:
    """A forward that keeps nothing folds every BN, with its running
    statistics, into the conv before it.  The reference is the same forward
    keeping its records with each BN its own op on its running statistics
    (`helpers.use_unfolded_inference`)."""

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_matches_tensor_forward(self, improved, mfa, monkeypatch):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa)
        model = as_float64(build_model(cfg, seed=31))
        rng = np.random.default_rng(32)
        perturb_batchnorms(model, rng)
        x = rng.normal(size=(3, 8, 11))
        slices = [Tensor(s) for s in group_slices(tiny_assignment(), x)]
        folded = model(x, tiny_assignment())
        use_unfolded_inference(monkeypatch)
        reference = [branch.forward(s, keep=True)[0] for branch, s in zip(model.branches, slices)]
        assert relative_gap(
            ensemble_logits([g.data for g in folded]), ensemble_logits([g.data for g in reference])
        ) < 1e-10
        for got, ref in zip(folded, reference):
            assert relative_gap(got.data, ref.data) < 1e-10

    def test_full_size_branch_matches_tensor_forward(self, monkeypatch):
        rng = np.random.default_rng(33)
        branch = as_float64(build_model(ModelCfg(n_groups=1), seed=33).branches[0])
        perturb_batchnorms(branch, rng)
        x = Tensor(rng.normal(size=(2, 248, 60)))
        folded = branch.forward(x)[0]
        use_unfolded_inference(monkeypatch)
        reference = branch.forward(x, keep=True)[0]
        assert relative_gap(folded.data, reference.data) < 1e-10

    @pytest.mark.parametrize("improved", [True, False])
    def test_runs_no_batchnorm_or_concat_and_leaves_its_input(self, improved, monkeypatch):
        model = build_model(tiny_cfg(improved_blocks=improved), seed=34)
        perturb_batchnorms(model, np.random.default_rng(35))
        x = np.random.default_rng(36).normal(size=(2, 8, 9))
        slices = [Tensor(s) for s in group_slices(tiny_assignment(), x)]
        before = [s.data.copy() for s in slices]

        def refuse(*args, **kwargs):
            raise AssertionError("a folded forward ran batchnorm1d")

        monkeypatch.setattr(model_mod, "batchnorm1d", refuse)
        out = model.forward_slices(slices)
        assert all(np.isfinite(b.data).all() for b in out)
        for s, copy in zip(slices, before):
            assert np.array_equal(s.data, copy)

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_folded_copy_has_tap_major_convolutions_and_no_batchnorm(self, improved, mfa):
        branch = build_model(tiny_cfg(improved_blocks=improved, mfa=mfa), seed=45).branches[0]
        perturb_batchnorms(branch, np.random.default_rng(46))
        folded = branch.folded()
        assert folded.batchnorms() == []
        names = [name for name, _ in branch.sublayers()]
        assert [name for name, _ in folded.sublayers()] == names
        for (name, layer), (_, source) in zip(folded.sublayers(), branch.sublayers()):
            if isinstance(source, model_mod.BatchNorm1dLayer):
                assert layer is None, name
            elif isinstance(source, model_mod.Conv1dLayer):
                assert layer is not source and layer.weight.shape == source.weight.shape, name
                assert layer.weight.data.transpose(2, 0, 1).flags.c_contiguous, name

    @pytest.mark.parametrize("improved", [True, False])
    def test_folding_leaves_the_source_and_the_copy_refuses_to_train(self, improved):
        branch = build_model(tiny_cfg(improved_blocks=improved), seed=50).branches[0]
        perturb_batchnorms(branch, np.random.default_rng(51))
        x = Tensor(np.random.default_rng(52).normal(size=(2, 4, 9)))

        def arrays():
            return [getattr(owner, attr).tobytes() for _, owner, attr in branch.stored_arrays(0)]

        before = arrays()
        folded = branch.folded()
        logits = folded.forward(x)[0]
        assert arrays() == before
        assert logits.data.tobytes() == branch.forward(x)[0].data.tobytes()
        with pytest.raises(ValueError, match="folded branch only infers"):
            folded.forward(x, keep=True)
        assert arrays() == before

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_folded_logits_bitwise_the_two_path_forward(self, improved, mfa, dtype, monkeypatch):
        # helpers.use_two_path_forward: the fold in W's own layout, conv1d with its own
        # k == 1 path and aggregate with a held product buffer
        model = in_dtype(build_model(tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa), seed=47), dtype)
        perturb_batchnorms(model, np.random.default_rng(48))
        x = np.random.default_rng(49).normal(size=(3, 8, 11))
        logits = []
        for reference in (False, True):
            if reference:
                use_two_path_forward(monkeypatch)
            out = model.forward_slices([Tensor(s) for s in group_slices(tiny_assignment(), x)])
            logits.append([ensemble_logits([g.data for g in out]).tobytes()] + [g.data.tobytes() for g in out])
        assert logits[0] == logits[1]

    def test_only_a_training_forward_moves_the_running_statistics(self):
        model = build_model(tiny_cfg(), seed=37)
        x = np.random.default_rng(38).normal(size=(2, 8, 9))
        model(x, tiny_assignment())
        assert np.array_equal(model.batchnorms()[0].state.running_mean, np.zeros(8))
        training_forward(model, x, tiny_assignment())
        assert not np.array_equal(model.batchnorms()[0].state.running_mean, np.zeros(8))

    def test_bn_with_records_kept_is_not_folded(self, monkeypatch):
        model = build_model(tiny_cfg(), seed=42)
        perturb_batchnorms(model, np.random.default_rng(43))
        x = np.random.default_rng(44).normal(size=(2, 8, 9))
        calls = recording(monkeypatch, "batchnorm1d")
        train_step_grads(model, [Tensor(s) for s in group_slices(tiny_assignment(), x)], np.array([0, 1]))
        assert sum(kwargs["stats"] is None for _, _, kwargs, _ in calls) == len(model.batchnorms())
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_fold_is_not_cached(self):
        model = build_model(tiny_cfg(), seed=39)
        perturb_batchnorms(model, np.random.default_rng(40))
        x = np.random.default_rng(41).normal(size=(2, 8, 9))
        before = ensemble_logits([g.data for g in model(x, tiny_assignment())])
        model.batchnorms()[0].state.running_mean += 1.0
        after = ensemble_logits([g.data for g in model(x, tiny_assignment())])
        assert not np.array_equal(before, after)


class TestScore:
    def test_difference_of_logits(self):
        # bona fide is logit column 1
        assert score(np.array([[1.0, 3.0]]))[0] == pytest.approx(2.0)

    def test_equal_logits_score_zero(self):
        assert score(np.array([[0.7, 0.7]]))[0] == 0.0

    def test_shift_invariance(self):
        a = score(np.array([[1.0, 3.0]]))
        b = score(np.array([[101.0, 103.0]]))
        assert a[0] == pytest.approx(b[0])


class TestAblationWiring:
    def test_single_order_bank_changes_input_dim(self):
        multi = tiny_cfg()  # stands in for the multi-order bank: 8 dims over 2 groups
        single = tiny_cfg(group_input_dim=8)  # single order of 16 over 2 groups
        assert build_model(single, seed=0).param_count() != build_model(multi, seed=0).param_count()

    def test_no_grouping_single_branch(self):
        cfg = tiny_cfg(n_groups=1, group_input_dim=8)
        model = build_model(cfg, seed=1)
        assert len(model.branches) == 1
        out = model(np.random.default_rng(13).normal(size=(2, 8, 10)), tiny_assignment(1, 8))
        assert len(out) == 1
        assert np.array_equal(ensemble_logits([g.data for g in out]), out[0].data)

    def test_standard_blocks_add_bn_parameters(self):
        improved = build_model(tiny_cfg(), seed=2)
        standard = build_model(tiny_cfg(improved_blocks=False), seed=2)
        assert standard.param_count() == param_count_oracle(2, 2, 8, 4, improved=False)
        # exactly one extra BN (2*C params) per block per group
        assert standard.param_count() - improved.param_count() == 2 * 2 * 2 * 8
        assert all(isinstance(b, StandardResidualBlock) for br in standard.branches for b in br.blocks)

    def test_mfa_off_removes_aggregation_params(self):
        with_mfa = build_model(tiny_cfg(), seed=3)
        without = build_model(tiny_cfg(mfa=False), seed=3)
        assert without.param_count() == param_count_oracle(2, 2, 8, 4, mfa=False)
        assert without.param_count() < with_mfa.param_count()


class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        # orders 4 + 8 over 2 groups: 6 input dims per group
        model = build_model(tiny_cfg(group_input_dim=6), seed=14)
        rng = np.random.default_rng(15)
        assignment = scattered_assignment(random_bank(rng, [4, 8], 2), 2, seed=9)
        # a scattered assignment, so the roundtrip cannot pass by being contiguous
        assert not np.array_equal(assignment.groups[8], np.sort(assignment.groups[8]))
        x = rng.normal(size=(3, 12, 12))
        training_forward(model, x, assignment)  # push the BN running stats away from their init values
        before = ensemble_logits([g.data for g in model(x, assignment)])
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, assignment)
        loaded, loaded_assignment = load_checkpoint(path)
        after = ensemble_logits([g.data for g in loaded(x, loaded_assignment)])
        assert np.array_equal(before, after)
        assert loaded_assignment.n_groups == assignment.n_groups
        assert loaded_assignment.orders == [4, 8]
        for order in (4, 8):
            assert loaded_assignment.groups[order].dtype == np.int64
            assert np.array_equal(loaded_assignment.groups[order], assignment.groups[order])

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = build_model(tiny_cfg(), seed=16)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(model_mod.np.random, "default_rng", refuse)
        loaded, _ = load_checkpoint(path)
        for (name, p), (_, q) in zip(model.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(p.data, q.data), name

    def test_load_peak_is_about_the_stored_bytes(self, tmp_path):
        # the model is built around placeholders that take no memory, so the load's
        # peak is the arrays it reads; uninitialised placeholders had doubled it
        cfg = tiny_cfg(n_groups=2, block=ResidualBlockCfg(channels=96), group_input_dim=32)
        model = build_model(cfg, seed=21)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment(total=64))
        stored = sum(getattr(o, a).nbytes for _, o, a in model.stored_arrays())
        folded = sum(len(a) for a in folded_arrays(model.branches[1]))  # its BNs are stored, not folded
        del model
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(getattr(o, a).nbytes for _, o, a in loaded.stored_arrays()) == stored
        assert peak <= 1.25 * stored

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_arrays_load_in_their_stored_dtype(self, tmp_path, dtype):
        # a new model's checkpoint is float32, one written before float64; each loads,
        # folds and infers in its own dtype, with the bytes it stored
        model = in_dtype(build_model(tiny_cfg(), seed=17), dtype)
        perturb_batchnorms(model, np.random.default_rng(17))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())
        loaded, _ = load_checkpoint(path)
        with np.load(path) as data:
            for key, owner, attr in loaded.stored_arrays():
                value = getattr(owner, attr)
                assert value.dtype == dtype and data[key].dtype == dtype, key
                assert value.tobytes() == data[key].tobytes(), key
        branches = CheckpointBranches(path)
        x = Tensor(np.random.default_rng(18).normal(size=(2, 4, 9)))
        for g in range(2):
            branch = branches[g]
            assert all(p.data.dtype == dtype for _, layer in branch.sublayers() if layer is not None
                       for _, p in layer.named_parameters())
            logits = branch.forward(x)[0].data
            assert logits.dtype == dtype
            assert logits.tobytes() == model.branches[g].forward(x)[0].data.tobytes()

    @pytest.mark.parametrize("odd", ["float16", "float32"])
    def test_mixed_dtypes_are_refused_by_the_headers(self, tmp_path, odd):
        # a float16 member, or one float32 member in a float64 file: load_checkpoint and
        # CheckpointBranches both refuse the file, naming it and the member
        path = tmp_path / "model.npz"
        save_checkpoint(path, as_float64(build_model(tiny_cfg(), seed=17)), tiny_assignment())
        key = "param/group1.block0.conv2.weight"
        rewrite_arrays(path, lambda arrays: arrays.update({key: arrays[key].astype(odd)}))
        message = f"{path}: {key} is {odd}, but param/group0.entry_conv.weight is float64; "
        for read in (load_checkpoint, CheckpointBranches):
            with pytest.raises(FormatError) as refused:
                read(path)
            assert str(refused.value).startswith(message)
        first = "param/group0.entry_conv.weight"
        rewrite_arrays(path, lambda arrays: arrays.update({first: arrays[first].astype(np.float16)}))
        for read in (load_checkpoint, CheckpointBranches):
            with pytest.raises(FormatError, match=f"{first} is float16; a checkpoint's arrays are float32 or"):
                read(path)

    def test_legacy_meta_with_the_two_constants_loads_bitwise(self, tmp_path):
        """Checkpoints written while n_classes and stride (and later the block
        kernel) were config fields store them; with their one legal value such
        a file loads as one without them."""
        model = build_model(tiny_cfg(), seed=18)
        x = np.random.default_rng(18).normal(size=(3, 8, 12))
        training_forward(model, x, tiny_assignment())  # push the BN running stats away from their init values
        plain, legacy = tmp_path / "plain.npz", tmp_path / "legacy.npz"
        save_checkpoint(plain, model, tiny_assignment())
        save_checkpoint(legacy, model, tiny_assignment())
        with np.load(plain) as data:
            cfg_doc = json.loads(bytes(data["meta"]).decode("utf-8"))["model_cfg"]
        assert "n_classes" not in cfg_doc and cfg_doc["block"] == {"channels": 8}

        def add_constants(meta):
            meta["model_cfg"]["n_classes"] = 2
            meta["model_cfg"]["block"]["stride"] = 1
            meta["model_cfg"]["block"]["kernel"] = 3

        rewrite_meta(legacy, add_constants)
        (a, assignment_a), (b, assignment_b) = load_checkpoint(plain), load_checkpoint(legacy)
        assert a.cfg == b.cfg
        for (key, owner_a, attr), (_, owner_b, _) in zip(a.stored_arrays(), b.stored_arrays()):
            assert getattr(owner_a, attr).tobytes() == getattr(owner_b, attr).tobytes(), key
        bank = random_bank(np.random.default_rng(19), [8], 3)
        frames = np.random.default_rng(20).normal(size=(3, 12, 3))
        assert (predict_logits(a, GroupLgp(bank, assignment_a), frames).tobytes()
                == predict_logits(b, GroupLgp(bank, assignment_b), frames).tobytes())

    @pytest.mark.parametrize(
        "key, value", [("n_classes", 1), ("n_classes", 3), ("stride", 2), ("kernel", 1), ("kernel", 5)]
    )
    def test_legacy_meta_with_another_value_is_format_error(self, tmp_path, key, value):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(tiny_cfg(), seed=18), tiny_assignment())

        def edit(meta):
            doc = meta["model_cfg"]["block"] if key in ("stride", "kernel") else meta["model_cfg"]
            doc[key] = value

        rewrite_meta(path, edit)
        with pytest.raises(FormatError, match=f"model.npz: checkpoint has {key} {value}; only"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value", [("n_groups", 0), ("n_groups", -8), ("n_blocks", 0), ("group_input_dim", 0), ("channels", 0)]
    )
    def test_model_size_below_1_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"model.{field} must be >= 1, got {value}"):
            if field == "channels":
                ResidualBlockCfg(channels=value)
            else:
                ModelCfg(**{field: value})

    def test_missing_bn_key_is_format_error(self, tmp_path):
        model = build_model(tiny_cfg(), seed=14)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        del arrays["bn/group1/0/running_var"]
        np.savez(path, **arrays)
        with pytest.raises(FormatError, match="bn/group1/0/running_var"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key", ["param/group0.entry_conv.weight", "bn/group0/0/running_mean", "bn/group1/1/running_var"]
    )
    def test_wrong_shape_array_is_format_error(self, tmp_path, key):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(tiny_cfg(), seed=14), tiny_assignment())
        rewrite_arrays(path, lambda arrays: arrays.update({key: arrays[key].ravel()[:1]}))
        with pytest.raises(FormatError, match=f"model.npz: shape mismatch for {key}$"):
            load_checkpoint(path)

    def test_stored_arrays_are_the_checkpoint_arrays(self, tmp_path):
        model = build_model(tiny_cfg(improved_blocks=False), seed=14)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())
        with np.load(path) as data:
            files = [key for key in data.files if key != "meta"]
        assert files == [key for key, _, _ in model.stored_arrays()]
        assert len(files) == len(model.parameters()) + 2 * len(model.batchnorms())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.pop("assignment"),
            lambda meta: meta.pop("n_groups"),
            lambda meta: meta["model_cfg"].update(extra_key=1),
        ],
        ids=["no-assignment", "no-n_groups", "extra-cfg-key"],
    )
    def test_malformed_meta_is_format_error(self, tmp_path, edit):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(tiny_cfg(), seed=14), tiny_assignment())
        rewrite_meta(path, edit)
        with pytest.raises(FormatError, match="model.npz: malformed checkpoint meta"):
            load_checkpoint(path)

    @pytest.mark.parametrize("raw", [b"[1, 2]", b"{not json", b"\xff\xfe"], ids=["list", "not-json", "not-utf8"])
    def test_unparsable_meta_is_format_error(self, tmp_path, raw):
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.frombuffer(raw, dtype=np.uint8))
        with pytest.raises(FormatError, match="model.npz: malformed checkpoint meta"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage", ["cut-10", "cut-100", "cut-1000", "cut-half", "empty", "zip-magic", "text", "npy", "flipped"]
    )
    def test_unreadable_file_is_format_error(self, tmp_path, damage):
        model = build_model(tiny_cfg(), seed=14)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())
        raw = path.read_bytes()
        if damage.startswith("cut-"):
            raw = raw[: len(raw) // 2 if damage == "cut-half" else int(damage[4:])]
        elif damage == "flipped":  # one byte in the middle of a stored array's values
            at = raw.index(model.branches[0].entry_conv.weight.data.tobytes()) + 64
            raw = raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]
        elif damage == "npy":  # one array as np.save writes it, not an archive
            buf = io.BytesIO()
            np.save(buf, np.zeros(3))
            raw = buf.getvalue()
        else:
            raw = {"empty": b"", "zip-magic": b"PK\x03\x04" + bytes(50), "text": b"not a checkpoint\n"}[damage]
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="model.npz: not a readable checkpoint"):
            load_checkpoint(path)

    def test_branches_read_one_at_a_time_as_load_checkpoint_reads_them(self, tmp_path):
        model = build_model(tiny_cfg(improved_blocks=False), seed=22)
        perturb_batchnorms(model, np.random.default_rng(23))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())
        loaded, assignment = load_checkpoint(path)
        branches = CheckpointBranches(path)
        assert (branches.cfg, len(branches)) == (loaded.cfg, 2)
        assert {o: g.tolist() for o, g in branches.assignment.groups.items()} == \
            {o: g.tolist() for o, g in assignment.groups.items()}
        for g in range(2):
            branch = branches[g]  # folded as it is read
            assert branch is not branches[g]  # read afresh each time
            assert branch.batchnorms() == []
            assert folded_arrays(branch) == folded_arrays(loaded.branches[g].folded())
        for g in (2, -1):
            with pytest.raises(IndexError):
                branches[g]

    def test_branches_read_no_array_until_one_is_asked_for(self, tmp_path):
        cfg = tiny_cfg(n_groups=2, block=ResidualBlockCfg(channels=96), group_input_dim=32)
        model = as_float64(build_model(cfg, seed=24))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment(total=64))
        stored = sum(getattr(o, a).nbytes for _, o, a in model.stored_arrays())
        folded = sum(len(a) for a in folded_arrays(model.branches[1]))  # its BNs are stored, not folded
        del model
        tracemalloc.start()
        try:
            branches = CheckpointBranches(path)
            opened = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            branch = branches[1]
            one = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opened < stored / 10  # the meta and the headers
        assert one < 0.7 * stored  # one of the two branches
        assert sum(len(a) for a in folded_arrays(branch)) == folded

    def test_flipped_byte_fails_when_its_branch_is_read(self, tmp_path):
        # the last byte of a 6 KB member (float64): reading its header reads the
        # member's first 4 KB
        model = as_float64(build_model(tiny_cfg(block=ResidualBlockCfg(channels=16)), seed=14))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, tiny_assignment())
        raw = path.read_bytes()
        values = model.branches[0].blocks[1].conv2.weight.data.tobytes()
        at = raw.index(values) + len(values) - 1
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :])
        branches = CheckpointBranches(path)  # the header and the CRC are not read this far
        with pytest.raises(FormatError, match=r"model.npz: not a readable checkpoint \(BadZipFile: Bad CRC-32"):
            branches[0]
        assert branches[1].classifier.weight.data.tobytes() == model.branches[1].classifier.weight.data.tobytes()

    @pytest.mark.parametrize("damage", ["missing", "misshapen", "meta", "cut-half", "npy"])
    def test_branches_refuse_what_load_checkpoint_refuses(self, tmp_path, damage):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(tiny_cfg(), seed=14), tiny_assignment())
        key = "bn/group1/1/running_var"
        if damage == "missing":
            rewrite_arrays(path, lambda arrays: arrays.pop(key))
        elif damage == "misshapen":
            rewrite_arrays(path, lambda arrays: arrays.update({key: arrays[key][:-1]}))
        elif damage == "meta":
            rewrite_meta(path, lambda meta: meta.pop("n_groups"))
        elif damage == "cut-half":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            np.save(path.with_suffix(".npy"), np.zeros(3))
            path.write_bytes(path.with_suffix(".npy").read_bytes())
        with pytest.raises(FormatError) as loading:
            load_checkpoint(path)
        with pytest.raises(FormatError) as opening:
            CheckpointBranches(path)
        assert str(opening.value) == str(loading.value)
        assert str(loading.value).startswith(f"{path}: ")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(Exception):
            load_checkpoint(path)

