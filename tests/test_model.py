import io
import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    FD_REL_TOL,
    branch_by_concat,
    branch_by_conv_chain,
    check_gradients,
    concat_by_copy,
    mean_tensors,
    mul,
    n_batchnorms,
    random_bank,
    rewrite_arrays,
    relu,
    rewrite_meta,
    softmax_cross_entropy,
    standard_block_by_add,
    tsum,
    use_two_path_forward,
)

import lgpnet.model as model_mod
import lgpnet.tensor as tensor_mod
from lgpnet.errors import ConfigError, FormatError, ShapeError
from lgpnet.model import (
    GroupBranch,
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
from lgpnet.multiscale import GroupAssignment, GroupLgp, random_grouping
from lgpnet.tensor import Tensor, backward, no_grad
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


def graph_ops(out: Tensor) -> list[str]:
    """The op that made each node of the graph below out, read from the name of
    the node's backward closure."""
    ops, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                ops.append(node._backward.__qualname__.split(".")[0])
            stack.extend(node._prev)
    return ops


class TestImprovedResidualBlock:
    def test_zero_second_conv_is_identity(self):
        rng = np.random.default_rng(0)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        block.conv2.weight.data[:] = 0.0
        block.conv2.bias.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 4, 6)))
        out = block(x)
        assert np.array_equal(out.data, x.data)

    def test_single_bn_single_activation(self):
        rng = np.random.default_rng(1)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        assert n_batchnorms(block) == 1
        assert block.n_activations == 1
        standard = StandardResidualBlock(ResidualBlockCfg(channels=4), rng)
        assert n_batchnorms(standard) == 2
        assert standard.n_activations == 2

    def test_activation_sites_in_forward_graph(self, monkeypatch):
        # a ReLU site is a batchnorm1d that applies the ReLU itself; the graph has no
        # relu or add node, since each block's skip is a residual operand
        calls = {"n": 0}
        real_bn = model_mod.batchnorm1d

        def counting_bn(x, state, relu=False, residual=None):
            calls["n"] += relu
            return real_bn(x, state, relu=relu, residual=residual)

        monkeypatch.setattr(model_mod, "batchnorm1d", counting_bn)
        rng = np.random.default_rng(2)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        out = block(Tensor(rng.normal(size=(1, 4, 5))))
        assert calls["n"] == 1
        assert sorted(graph_ops(out)) == ["batchnorm1d", "conv1d", "conv1d"]
        calls["n"] = 0
        standard = StandardResidualBlock(ResidualBlockCfg(channels=4), rng)
        out = standard(Tensor(rng.normal(size=(1, 4, 5))))
        assert calls["n"] == 2
        assert sorted(graph_ops(out)) == ["batchnorm1d", "batchnorm1d", "conv1d", "conv1d"]

    def test_gradients_through_block(self):
        rng = np.random.default_rng(3)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=3), rng)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(2, 3, 5)))
        params = [x]
        for _, layer in block.sublayers():
            params.extend(p for _, p in layer.named_parameters())
        worst = check_gradients(lambda: tsum(mul(block(x), coeffs)), params)
        assert worst < FD_REL_TOL

    def test_channel_mismatch(self):
        rng = np.random.default_rng(4)
        block = ImprovedResidualBlock(ResidualBlockCfg(channels=4), rng)
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((1, 3, 5))))


class TestStandardResidualBlock:
    """The conventional block's skip is the residual operand of its second BN;
    the reference is its former relu(add(x, h)), `helpers.standard_block_by_add`."""

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("mode", ["train", "eval", "eval-folded"])
    def test_bitwise_as_relu_of_add(self, mode, mfa, monkeypatch):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=False, mfa=mfa)
        results = []
        for reference in (False, True):
            branch = build_model(cfg, seed=48).branches[0]
            if mode != "train":
                perturb_batchnorms(branch, np.random.default_rng(49))
            x = Tensor(np.random.default_rng(50).normal(size=(3, 4, 11)), requires_grad=True)
            coeffs = Tensor(np.random.default_rng(51).normal(size=(3, 8)))
            params = [x] + [p for _, layer in branch.sublayers() for _, p in layer.named_parameters()]
            if reference:
                monkeypatch.setattr(StandardResidualBlock, "__call__", standard_block_by_add)
            if mode == "eval-folded":
                with no_grad():
                    arrays = [branch(x).data]
            else:
                out = branch(x)
                backward(tsum(mul(out, coeffs)))
                arrays = [out.data] + [p.grad for p in params]
            stats = [(bn.state.running_mean, bn.state.running_var) for bn in branch.batchnorms()]
            results.append(arrays + [a for pair in stats for a in pair])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()

    def test_no_preactivation_sum_alive_after_a_tracked_forward(self, monkeypatch):
        block = StandardResidualBlock(ResidualBlockCfg(channels=4), np.random.default_rng(52))
        x = Tensor(np.random.default_rng(53).normal(size=(2, 4, 9)), requires_grad=True)
        made = []  # a weakref to the data of every node the forward makes
        real_result = tensor_mod._result
        monkeypatch.setattr(
            tensor_mod, "_result", lambda data, *rest: made.append(weakref.ref(data)) or real_result(data, *rest)
        )
        out = block(x)
        alive = [a for a in (ref() for ref in made) if a is not None]
        monkeypatch.undo()
        pre = standard_block_by_add(block, x)._prev[0].data  # x + h, what the reference's relu reads
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
        emb = model.branches[0](x)
        assert emb.shape == (1, 256)

    def test_time_length_invariance(self):
        cfg = tiny_cfg()
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(6)
        for t in (400, 200, 50):
            emb = model.branches[0](Tensor(rng.normal(size=(2, 4, t))))
            assert emb.shape == (2, 8)

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
        emb = branch(Tensor(np.random.default_rng(7).normal(size=(1, 4, 10))))
        assert emb.shape == (1, 8)

    def test_zeroed_blocks_reduce_to_entry_plus_mfa(self):
        cfg = tiny_cfg()
        model = build_model(cfg, seed=4)
        model.set_mode("eval")
        branch = model.branches[0]
        for block in branch.blocks:
            block.conv2.weight.data[:] = 0.0
            block.conv2.bias.data[:] = 0.0
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 4, 12)))
        with no_grad():
            full = branch(x)
        # reference with gradients on, BN unfolded: entry -> B copies -> MFA -> pool,
        # skipping the blocks
        from lgpnet.tensor import max_pool_time

        h = relu(branch.entry_bn(branch.entry_conv(x)))
        m = relu(branch.mfa_bn(branch.mfa_conv(concat_by_copy([h] * cfg.n_blocks))))
        reference = max_pool_time(m)
        assert reference.requires_grad
        assert np.max(np.abs(full.data - reference.data)) <= 1e-12 * np.max(np.abs(reference.data))

    @pytest.mark.parametrize("improved", [True, False])
    def test_split_mfa_gradients_match_concatenation(self, improved):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        branch = build_model(cfg, seed=42).branches[0]
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(3, 4, 11)), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(3, 8)))
        params = [x] + [p for _, layer in branch.sublayers() for _, p in layer.named_parameters()]
        grads = []
        for forward in (branch, lambda x: branch_by_concat(branch, x)):
            for p in params:
                p.zero_grad()
            backward(tsum(mul(forward(x), coeffs)))  # train-mode BN: batch statistics
            grads.append([p.grad for p in params])
        # a conv bias that feeds a train-mode BN has a true gradient of 0, so rounding
        # is measured against the largest gradient entry of the branch
        scale = max(np.max(np.abs(ref)) for ref in grads[1])
        worst = max(np.max(np.abs(got - ref)) for got, ref in zip(*grads)) / scale
        assert worst <= 1e-12

    @pytest.mark.parametrize("improved", [True, False])
    def test_gradients_bitwise_as_a_chain_of_residual_convs(self, improved):
        # aggregate's links make each block output's share where the former chain of
        # residual convs did, so every gradient is summed in the same order
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        branch = build_model(cfg, seed=44).branches[0]
        rng = np.random.default_rng(45)
        x = Tensor(rng.normal(size=(3, 4, 11)), requires_grad=True)
        coeffs = Tensor(rng.normal(size=(3, 8)))
        params = [x] + [p for _, layer in branch.sublayers() for _, p in layer.named_parameters()]
        results = []
        for chain in (False, True):
            for p in params:
                p.zero_grad()
            out, shares = branch_by_conv_chain(branch, x) if chain else (branch(x), None)
            backward(tsum(mul(out, coeffs)))  # train-mode BN: batch statistics
            grads = {id(p): p.grad for p in params}
            if chain:
                grads[id(branch.mfa_conv.weight)] = np.concatenate([s.grad for s in shares], axis=1)
            results.append([out.data] + [grads[id(p)] for p in params])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()

    def test_no_partial_sum_alive_after_a_tracked_forward(self, monkeypatch):
        cfg = tiny_cfg(n_blocks=4)
        branch = build_model(cfg, seed=46).branches[0]
        made = []  # a weakref to the data of every node the forward makes
        real_result = tensor_mod._result
        monkeypatch.setattr(
            tensor_mod, "_result", lambda data, *rest: made.append(weakref.ref(data)) or real_result(data, *rest)
        )
        x = Tensor(np.random.default_rng(47).normal(size=(2, 4, 11)), requires_grad=True)
        out = branch(x)
        link = out._prev[0]._prev[0]  # below pooling and the MFA BN-ReLU: aggregate's top link
        block_outputs = []
        while link is not None:
            block_outputs.insert(0, link._prev[0].data)
            link = link._prev[1] if len(link._prev) == 2 else None
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


def note_bn_outputs(monkeypatch, note):
    """Patch the model's batchnorm1d so that note(out) sees each output it makes."""
    real = model_mod.batchnorm1d

    def noting(*args, **kwargs):
        out = real(*args, **kwargs)
        note(out)
        return out

    monkeypatch.setattr(model_mod, "batchnorm1d", noting)


def slices_for(cfg, seed, n=3, t=11):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(n, cfg.group_input_dim, t))) for _ in range(cfg.n_groups)]


class TestReleasedBnOutputs:
    """A tracked forward drops every BN-ReLU output when its branch returns;
    backward remakes each one, bit for bit, when a closure first reads it."""

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_no_bn_output_alive_after_a_tracked_forward(self, monkeypatch, improved, mfa):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa)
        model = build_model(cfg, seed=60)
        refs = []
        note_bn_outputs(monkeypatch, lambda out: refs.append(weakref.ref(out.data)))
        out = model.forward_slices(slices_for(cfg, 61))
        assert all(b.requires_grad for b in out)
        assert len(refs) == len(model.batchnorms())
        assert [r() for r in refs] == [None] * len(refs)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("improved", [True, False])
    def test_remade_bn_outputs_bitwise_the_forwards(self, monkeypatch, improved, mode):
        # the standard block's second BN adds the block input, itself a released BN
        # output; read from the last block down, each read remakes that input first
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved)
        model = build_model(cfg, seed=62)
        perturb_batchnorms(model, np.random.default_rng(63))
        model.set_mode(mode)
        made = []
        note_bn_outputs(monkeypatch, lambda out: made.append((out, out.data.copy())))
        model.forward_slices(slices_for(cfg, 64))
        assert len(made) == len(model.batchnorms())
        assert all(node._data is None for node, _ in made)
        for node, forward_data in reversed(made):
            assert node.data.tobytes() == forward_data.tobytes()
            assert node._remake is None

    def test_chain_of_remakes_deeper_than_the_stack(self):
        # each conventional block's output is the next one's residual; remade by
        # recursion, a chain of half the recursion limit would overflow the stack
        cfg = tiny_cfg(n_groups=1, n_blocks=sys.getrecursionlimit() // 2, block=ResidualBlockCfg(channels=2),
                       group_input_dim=2, improved_blocks=False, mfa=False)
        model = build_model(cfg, seed=69)
        x = Tensor(np.random.default_rng(69).normal(size=(2, 2, 3)), requires_grad=True)
        out = model.forward_slices([x])
        backward(ensemble_aware_loss(out, np.array([0, 1])))
        assert x.grad is not None and np.isfinite(x.grad).all()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_no_grad_forward_releases_nothing(self, monkeypatch, mode):
        cfg = tiny_cfg(improved_blocks=False)
        model = build_model(cfg, seed=65)
        model.set_mode(mode)
        nodes = []
        real_result = tensor_mod._result
        monkeypatch.setattr(
            tensor_mod, "_result", lambda data, *rest: nodes.append(real_result(data, *rest)) or nodes[-1]
        )
        with no_grad():
            model.forward_slices(slices_for(cfg, 66))
        assert len(nodes) > cfg.n_groups
        assert all(node._data is not None and node._remake is None for node in nodes)

    def test_no_node_can_remake_after_backward(self, monkeypatch):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=False)
        model = build_model(cfg, seed=67)
        nodes = []
        real_result = tensor_mod._result
        monkeypatch.setattr(
            tensor_mod, "_result", lambda data, *rest: nodes.append(real_result(data, *rest)) or nodes[-1]
        )
        out = model.forward_slices(slices_for(cfg, 68))
        released = [node for node in nodes if node._remake is not None]
        assert len(released) == len(model.batchnorms())
        backward(ensemble_aware_loss(out, np.array([0, 1, 1])))
        assert all(node._remake is None for node in nodes)
        # each BN's own closure read its output for the ReLU mask, so each was remade
        # once; parameters updated since change none of those arrays
        before = [node._data.copy() for node in released]
        for bn in model.batchnorms():
            bn.state.gamma.data += 1.0
            bn.state.beta.data -= 1.0
        assert all(node.data.tobytes() == b.tobytes() for node, b in zip(released, before))


class TestModelForward:
    def test_ensemble_is_mean_of_groups(self):
        model = build_model(tiny_cfg(), seed=5)
        rng = np.random.default_rng(9)
        out = model(rng.normal(size=(3, 8, 10)), tiny_assignment())
        stacked = np.stack([g.data for g in out])
        assert np.max(np.abs(ensemble_logits([g.data for g in out]) - stacked.mean(axis=0))) < 1e-12

    @pytest.mark.parametrize("n_groups", [1, 2, 8])
    def test_ensemble_logits_bitwise_the_mean_node(self, n_groups):
        # the library's former mean_tensors node, kept in helpers
        arrays = [np.random.default_rng(70 + g).normal(size=(5, 2)) * 10.0 for g in range(n_groups)]
        before = [a.copy() for a in arrays]
        got = ensemble_logits(arrays)
        assert got.tobytes() == mean_tensors([Tensor(a) for a in arrays]).data.tobytes()
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
        model.set_mode("eval")
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 8, 10))
        with no_grad():
            base = model(x, tiny_assignment())
        model.classifiers[1].bias.data += 1.0
        with no_grad():
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

    def test_wrong_assignment_rejected(self):
        model = build_model(tiny_cfg(), seed=10)
        with pytest.raises(ShapeError):
            model(np.zeros((1, 9, 10)), tiny_assignment())

    def test_nan_input_gives_non_finite_logits(self):
        model = build_model(tiny_cfg(), seed=12)
        model.set_mode("eval")
        x = np.random.default_rng(13).normal(size=(2, 8, 10))
        x[0, 3, 4] = np.nan
        with no_grad():
            logits = ensemble_logits([g.data for g in model(x, tiny_assignment())])
        assert not np.isfinite(logits[0]).all()

    def test_full_model_gradient_check(self):
        cfg = tiny_cfg()
        model = build_model(cfg, seed=11)
        assignment = tiny_assignment()
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 8, 16))
        labels = np.array([0, 1])

        def loss():
            return ensemble_aware_loss(model(x, assignment), labels, aware=False)

        worst = check_gradients(loss, model.parameters())
        assert worst < FD_REL_TOL


class TestBranchPool:
    """forward_slices runs the G branches through tensor.branch_map."""

    def _slices(self, seed, n_groups=4):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(2, 4, 10))) for _ in range(n_groups)]

    def test_gradients_bitwise_equal_to_calling_thread_reference(self, two_workers):
        cfg = tiny_cfg(n_groups=4)
        labels = np.array([0, 1])
        pooled, reference = build_model(cfg, seed=21), build_model(cfg, seed=21)
        backward(ensemble_aware_loss(pooled.forward_slices(self._slices(22)), labels))
        group_logits = [
            classifier(branch(x))
            for x, branch, classifier in zip(
                self._slices(22), reference.branches, reference.classifiers
            )
        ]
        backward(ensemble_aware_loss(group_logits, labels))
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
                loss = ensemble_aware_loss(model.forward_slices(self._slices(30 + step, 8)), [0, 1])
                backward(loss)
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

    def test_branch_without_gradient_keeps_grad_none(self, two_workers):
        model = build_model(tiny_cfg(n_groups=4), seed=23)
        out = model.forward_slices(self._slices(24))
        loss = softmax_cross_entropy(mean_tensors(out[:3]), np.array([1, 0]))
        backward(loss)
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

    def test_no_grad_forward_runs_branches_on_the_pool(self, two_workers):
        model = build_model(tiny_cfg(n_groups=4), seed=27)
        model.set_mode("eval")
        idents = []

        def recording(branch):
            def call(x):
                idents.append(threading.get_ident())
                return branch(x)
            return call

        inline_branches = model.branches
        model.branches = [recording(b) for b in model.branches]
        with no_grad():
            pooled = model.forward_slices(self._slices(28))
            inline = [
                classifier(branch(x))
                for x, branch, classifier in zip(self._slices(28), inline_branches, model.classifiers)
            ]
        assert len(idents) == 4 and threading.get_ident() not in idents
        for got, ref in zip(pooled, inline):
            assert np.max(np.abs(got.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))


def perturb_batchnorms(owner, rng):
    """Running statistics and affine parameters away from their initial values."""
    for bn in owner.batchnorms():
        state = bn.state
        c = state.channels
        state.running_mean = rng.normal(size=c)
        state.running_var = rng.uniform(0.3, 3.0, size=c)
        state.gamma.data = rng.uniform(0.5, 1.5, size=c)
        state.beta.data = rng.normal(scale=0.3, size=c)
        state.mode = "eval"


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestForwardOnlyPath:
    """Under no_grad with eval-mode BN the one forward folds every BN into the
    conv before it; the same forward with gradients tracked runs each BN as
    its own op and is the reference."""

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_matches_tensor_forward(self, improved, mfa):
        cfg = tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa)
        model = build_model(cfg, seed=31)
        rng = np.random.default_rng(32)
        perturb_batchnorms(model, rng)
        x = rng.normal(size=(3, 8, 11))
        reference = model(x, tiny_assignment())
        assert all(b.requires_grad for b in reference)
        with no_grad():
            folded = model(x, tiny_assignment())
        assert relative_gap(
            ensemble_logits([g.data for g in folded]), ensemble_logits([g.data for g in reference])
        ) < 1e-10
        for got, ref in zip(folded, reference):
            assert relative_gap(got.data, ref.data) < 1e-10

    def test_full_size_branch_matches_tensor_forward(self):
        rng = np.random.default_rng(33)
        branch = GroupBranch(ModelCfg(), rng)
        perturb_batchnorms(branch, rng)
        x = Tensor(rng.normal(size=(2, 248, 60)))
        reference = branch(x)
        with no_grad():
            folded = branch(x)
        assert relative_gap(folded.data, reference.data) < 1e-10

    @pytest.mark.parametrize("improved", [True, False])
    def test_runs_no_batchnorm_or_concat_and_leaves_its_input(self, improved, monkeypatch):
        model = build_model(tiny_cfg(improved_blocks=improved), seed=34)
        perturb_batchnorms(model, np.random.default_rng(35))
        x = np.random.default_rng(36).normal(size=(2, 8, 9))
        slices = [Tensor(s) for s in tiny_assignment().split(x)]
        before = [s.data.copy() for s in slices]

        def refuse(*args):
            raise AssertionError("a folded forward ran batchnorm1d")

        monkeypatch.setattr(model_mod, "batchnorm1d", refuse)
        with no_grad():
            out = model.forward_slices(slices)
        assert all(np.isfinite(b.data).all() for b in out)
        for s, copy in zip(slices, before):
            assert np.array_equal(s.data, copy)

    @pytest.mark.parametrize("improved", [True, False])
    def test_folded_weight_is_written_in_tap_major_layout(self, improved):
        branch = GroupBranch(tiny_cfg(improved_blocks=improved), np.random.default_rng(45))
        perturb_batchnorms(branch, np.random.default_rng(46))
        layers = [layer for _, layer in branch.sublayers()]
        pairs = [(c, bn) for c, bn in zip(layers, layers[1:]) if isinstance(bn, model_mod.BatchNorm1dLayer)]
        assert len(pairs) == len(branch.batchnorms())
        with no_grad():
            for conv, bn in pairs:
                weight, _, left = model_mod._fold(conv, bn)
                assert left is None
                assert weight.shape == conv.weight.shape
                assert weight.data.transpose(2, 0, 1).flags.c_contiguous

    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    def test_folded_logits_bitwise_the_two_path_forward(self, improved, mfa, monkeypatch):
        # helpers.use_two_path_forward: the fold in W's own layout, conv1d with its own
        # k == 1 path and aggregate with a held product buffer
        model = build_model(tiny_cfg(n_blocks=3, improved_blocks=improved, mfa=mfa), seed=47)
        perturb_batchnorms(model, np.random.default_rng(48))
        x = np.random.default_rng(49).normal(size=(3, 8, 11))
        logits = []
        for reference in (False, True):
            if reference:
                use_two_path_forward(monkeypatch)
            with no_grad():
                out = model.forward_slices([Tensor(s) for s in tiny_assignment().split(x)])
            logits.append([ensemble_logits([g.data for g in out]).tobytes()] + [g.data.tobytes() for g in out])
        assert logits[0] == logits[1]

    def test_train_mode_bn_keeps_the_tensor_path(self):
        model = build_model(tiny_cfg(), seed=37)
        x = np.random.default_rng(38).normal(size=(2, 8, 9))
        with no_grad():
            model(x, tiny_assignment())
        assert not np.array_equal(model.batchnorms()[0].state.running_mean, np.zeros(8))

    def test_eval_mode_bn_with_gradients_is_not_folded(self):
        model = build_model(tiny_cfg(), seed=42)
        perturb_batchnorms(model, np.random.default_rng(43))
        x = np.random.default_rng(44).normal(size=(2, 8, 9))
        backward(tsum(mean_tensors(model(x, tiny_assignment()))))
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_fold_is_not_cached(self):
        model = build_model(tiny_cfg(), seed=39)
        perturb_batchnorms(model, np.random.default_rng(40))
        x = np.random.default_rng(41).normal(size=(2, 8, 9))
        with no_grad():
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
        assignment = random_grouping(random_bank(rng, [4, 8], 2), 2, seed=9)
        # a scattered assignment, so the roundtrip cannot pass by being contiguous
        assert not np.array_equal(assignment.groups[8], np.sort(assignment.groups[8]))
        x = rng.normal(size=(3, 12, 12))
        # push the BN running stats away from their init values
        model.set_mode("train")
        model(x, assignment)
        model.set_mode("eval")
        with no_grad():
            before = ensemble_logits([g.data for g in model(x, assignment)])
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, assignment)
        loaded, loaded_assignment = load_checkpoint(path)
        loaded.set_mode("eval")
        with no_grad():
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
        del model
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(getattr(o, a).nbytes for _, o, a in loaded.stored_arrays()) == stored
        assert peak <= 1.25 * stored

    def test_float32_arrays_load_as_float64(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(tiny_cfg(), seed=17), tiny_assignment())

        def to_float32(arrays):
            for key in arrays:
                if key != "meta":
                    arrays[key] = arrays[key].astype(np.float32)

        rewrite_arrays(path, to_float32)
        loaded, _ = load_checkpoint(path)
        with np.load(path) as data:
            for key, owner, attr in loaded.stored_arrays():
                value = getattr(owner, attr)
                assert value.dtype == np.float64, key
                assert np.array_equal(value, data[key]), key

    def test_legacy_meta_with_the_two_constants_loads_bitwise(self, tmp_path):
        """Checkpoints written while n_classes and stride were config fields store
        them; with their one legal value such a file loads as one without them."""
        model = build_model(tiny_cfg(), seed=18)
        x = np.random.default_rng(18).normal(size=(3, 8, 12))
        model.set_mode("train")
        model(x, tiny_assignment())  # push the BN running stats away from their init values
        plain, legacy = tmp_path / "plain.npz", tmp_path / "legacy.npz"
        save_checkpoint(plain, model, tiny_assignment())
        save_checkpoint(legacy, model, tiny_assignment())
        with np.load(plain) as data:
            cfg_doc = json.loads(bytes(data["meta"]).decode("utf-8"))["model_cfg"]
        assert "n_classes" not in cfg_doc and "stride" not in cfg_doc["block"]

        def add_constants(meta):
            meta["model_cfg"]["n_classes"] = 2
            meta["model_cfg"]["block"]["stride"] = 1

        rewrite_meta(legacy, add_constants)
        (a, assignment_a), (b, assignment_b) = load_checkpoint(plain), load_checkpoint(legacy)
        assert a.cfg == b.cfg
        for (key, owner_a, attr), (_, owner_b, _) in zip(a.stored_arrays(), b.stored_arrays()):
            assert getattr(owner_a, attr).tobytes() == getattr(owner_b, attr).tobytes(), key
        bank = random_bank(np.random.default_rng(19), [8], 3)
        frames = np.random.default_rng(20).normal(size=(3, 12, 3))
        assert (predict_logits(a, GroupLgp(bank, assignment_a), frames).tobytes()
                == predict_logits(b, GroupLgp(bank, assignment_b), frames).tobytes())

    @pytest.mark.parametrize("key, value", [("n_classes", 1), ("n_classes", 3), ("stride", 2)])
    def test_legacy_meta_with_another_value_is_format_error(self, tmp_path, key, value):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(tiny_cfg(), seed=18), tiny_assignment())

        def edit(meta):
            doc = meta["model_cfg"]["block"] if key == "stride" else meta["model_cfg"]
            doc[key] = value

        rewrite_meta(path, edit)
        with pytest.raises(FormatError, match=f"model.npz: checkpoint has {key} {value}; only"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("n_groups", 0), ("n_groups", -8), ("n_blocks", 0), ("kernel", -1)])
    def test_model_size_below_1_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"model.{field} must be >= 1, got {value}"):
            if field == "kernel":
                ResidualBlockCfg(kernel=value)
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

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(Exception):
            load_checkpoint(path)

