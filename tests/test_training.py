import os
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest

import lgpnet.tensor as tensor_mod

from helpers import (
    FD_REL_TOL,
    adam_step_by_expression,
    branch_keeping_everything,
    check_gradients,
    ensemble_loss_by_chain,
    ensemble_loss_value,
    random_bank,
    rewrite_arrays,
    softmax_cross_entropy,
    train_step_grads,
)

from lgpnet.errors import FormatError, LgpnetError, NonFiniteLossError, ShapeError
from lgpnet.model import GroupBranch, ModelCfg, ResidualBlockCfg, build_model, ensemble_logits, load_checkpoint
from lgpnet.multiscale import GroupAssignment, GroupLgp, ManifestFrames
from lgpnet.tensor import Tensor
import lgpnet.training as training_mod
from lgpnet.training import (
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    ensemble_aware_loss,
    evaluate_loss,
    predict_logits,
    reduce_on_plateau,
    run_epoch,
    train,
)


class TestEnsembleAwareLoss:
    def test_identical_groups_equal_plain_ce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])
        value, _ = ensemble_aware_loss([logits, logits, logits], labels)
        assert value == pytest.approx(softmax_cross_entropy(logits, labels)[0], abs=1e-12)

    def test_single_group_degenerate(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 2))
        labels = np.array([1, 0, 1])
        value, _ = ensemble_aware_loss([logits], labels)
        assert value == pytest.approx(softmax_cross_entropy(logits, labels)[0], abs=1e-12)

    def test_group_permutation_invariance(self):
        rng = np.random.default_rng(2)
        groups = [rng.normal(size=(4, 2)) for _ in range(4)]
        permuted = [groups[2], groups[0], groups[3], groups[1]]
        labels = np.array([0, 1, 0, 1])
        base, _ = ensemble_aware_loss(groups, labels)
        assert base == pytest.approx(ensemble_aware_loss(permuted, labels)[0], abs=1e-12)
        assert np.max(np.abs(ensemble_logits(groups) - ensemble_logits(permuted))) < 1e-12

    def test_nonnegative_and_zero_in_perfect_limit(self):
        labels = np.array([1, 0])
        confident = np.array([[-40.0, 40.0], [40.0, -40.0]])
        assert 0.0 <= ensemble_aware_loss([confident, confident], labels)[0] < 1e-12
        rng = np.random.default_rng(3)
        noisy = [rng.normal(size=(2, 2)) for _ in range(3)]
        assert ensemble_aware_loss(noisy, labels)[0] >= 0.0

    def test_differs_from_plain_ce_in_general(self):
        rng = np.random.default_rng(4)
        out = [rng.normal(size=(4, 2)) for _ in range(3)]
        labels = np.array([0, 1, 1, 0])
        plain, _ = ensemble_aware_loss(out, labels, aware=False)
        assert plain == softmax_cross_entropy(ensemble_logits(out), labels)[0]
        assert ensemble_aware_loss(out, labels)[0] != pytest.approx(plain, abs=1e-9)

    def test_gradients_through_tiny_model(self):
        cfg = ModelCfg(n_groups=2, n_blocks=1, block=ResidualBlockCfg(channels=4), group_input_dim=3)
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(5)
        slices = [Tensor(rng.normal(size=(2, 3, 8))) for _ in range(2)]
        labels = np.array([0, 1])
        train_step_grads(model, slices, labels)
        params = model.parameters()
        worst = check_gradients(lambda: ensemble_loss_value(model, slices, labels), [p.grad for p in params], params)
        assert worst < FD_REL_TOL

    @pytest.mark.parametrize("aware", [True, False])
    def test_finite_differences(self, aware):
        rng = np.random.default_rng(6)
        out = [Tensor(rng.normal(size=(5, 2)) * 2.0) for _ in range(3)]
        labels = np.array([0, 1, 1, 0, 1])
        _, grads = ensemble_aware_loss([b.data for b in out], labels, aware)
        worst = check_gradients(lambda: ensemble_aware_loss([b.data for b in out], labels, aware)[0], grads, out)
        assert worst < FD_REL_TOL

    @pytest.mark.parametrize("classes", ["both", "one"])
    @pytest.mark.parametrize("aware", [True, False])
    @pytest.mark.parametrize("scale", ["unit", "wide", "saturating"])
    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    @pytest.mark.parametrize("n_groups", [1, 2, 3, 8])
    def test_value_and_gradients_bitwise_the_chain(self, n_groups, n, scale, aware, classes):
        # the closed form, term by term in the chain's ops, against helpers.ensemble_loss_by_chain,
        # with labels of both classes or of one.  A count that is not a power of 2 (n = 7,
        # G = 3) makes a division inexact, so it shows a change in the order of the scalings
        rng = np.random.default_rng(1000 * n_groups + 10 * n + len(scale))
        if scale == "saturating":
            arrays = [rng.choice([-700.0, 700.0], size=(n, 2)) for _ in range(n_groups)]
        else:
            arrays = [rng.normal(size=(n, 2)) * (30.0 if scale == "wide" else 1.0) for _ in range(n_groups)]
        labels = rng.integers(0, 2, size=n) if classes == "both" else np.full(n, n % 2)
        results = []
        for loss_fn in (ensemble_aware_loss, ensemble_loss_by_chain):
            value, grads = loss_fn(arrays, labels, aware)
            results.append([np.float64(value).tobytes()] + [g.tobytes() for g in grads])
        assert np.isfinite(np.frombuffer(results[0][0])).all()
        assert results[0] == results[1]

    @pytest.mark.parametrize("aware", [True, False])
    def test_plain_numpy_over_the_group_logit_arrays(self, aware):
        # a float and one gradient array per group, the inputs left as they were;
        # without the ensemble-aware term every group shares the one gradient array
        rng = np.random.default_rng(9)
        arrays = [rng.normal(size=(2, 2)) for _ in range(8)]
        before = [a.copy() for a in arrays]
        value, grads = ensemble_aware_loss(arrays, np.array([1, 0]), aware)
        assert type(value) is float
        assert len(grads) == 8 and all(type(g) is np.ndarray and g.shape == (2, 2) for g in grads)
        assert len({id(g) for g in grads}) == (8 if aware else 1)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))

    def test_bad_labels_and_shapes_raise(self):
        out = [np.zeros((2, 2)), np.ones((2, 2))]
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
            ensemble_aware_loss(out, np.array([0, 2]))
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
            ensemble_aware_loss(out, np.array([-1, 0]), aware=False)
        with pytest.raises(ShapeError, match=r"labels must have shape \(2,\)"):
            ensemble_aware_loss(out, np.array([0, 1, 1]))
        with pytest.raises(ShapeError, match=r"labels must have shape \(2,\)"):
            ensemble_aware_loss(out, np.array([[0, 1]]))
        for bad in ([np.zeros((2, 3)), np.zeros((2, 3))], [np.zeros(2), np.zeros(2)],
                    [np.zeros((2, 2)), np.zeros((3, 2))]):
            with pytest.raises(ShapeError, match="N x 2"):
                ensemble_aware_loss(bad, np.array([0, 1]))
        with pytest.raises(ShapeError, match="at least one"):
            ensemble_aware_loss([], np.array([0, 1]))

    @pytest.mark.parametrize("aware", [True, False])
    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_steps_bitwise_the_chain(self, workers, improved, mfa, aware, forced_pool, monkeypatch):
        # two run_epoch steps (of 3 samples, then 2) and an evaluate_loss with the closed-form
        # loss and with the former chain of nodes patched into the loops: the same stored
        # arrays and losses
        if workers == 1:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        else:
            forced_pool(workers)
        cfg = ModelCfg(n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=8), group_input_dim=4,
                       improved_blocks=improved, mfa=mfa)
        rng = np.random.default_rng(76)
        lgp = GroupLgp(random_bank(rng, [8], 3), GroupAssignment(groups={8: np.repeat(np.arange(2), 4)}, n_groups=2))
        feats, labels = rng.normal(size=(5, 12, 3)), np.array([0, 1, 1, 0, 1])
        train_cfg = TrainConfig(batch_size=3, epochs=1, ensemble_aware=aware)
        results = []
        for chain in (False, True):
            with monkeypatch.context() as patch:
                if chain:
                    patch.setattr(training_mod, "ensemble_aware_loss", ensemble_loss_by_chain)
                model = build_model(cfg, seed=77)
                state = AdamState(model.parameters())
                losses = [run_epoch(model, lgp, feats, labels, train_cfg, state, np.array([2, 4, 0, 3, 1]), 1e-2)]
                losses.append(evaluate_loss(model, lgp, feats, labels, train_cfg))
            results.append([np.array(losses)] + [getattr(owner, attr) for _, owner, attr in model.stored_arrays()])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()


class TestAdam:
    def test_constant_gradient_moves_monotonically(self):
        p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        state = AdamState([p])
        previous = p.data.copy()
        for _ in range(10):
            p.grad = np.array([0.5, -0.25])
            adam_step(state, lr=0.01)
            delta = p.data - previous
            assert delta[0] < 0 and delta[1] > 0
            previous = p.data.copy()

    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        state = AdamState([p])
        p.grad = np.zeros(1)
        adam_step(state, lr=0.1)
        assert np.array_equal(p.data, [3.0])
        assert state.step_count == 1

    def test_first_step_closed_form(self):
        # with zeroed state, update = -lr * g / (|g| + eps) ~ -lr * sign(g)
        g = np.array([0.3, -2.0, 7.5])
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState([p])
        p.grad = g.copy()
        lr = 0.05
        adam_step(state, lr=lr)
        expected = -lr * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(p.data, expected, rtol=1e-9)
        assert np.allclose(p.data, -lr * np.sign(g), rtol=1e-6)

    def test_missing_grad_counts_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState([p])
        adam_step(state, lr=0.1)
        assert np.array_equal(p.data, [1.0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_place_update_is_bitwise_the_expression(self, workers, forced_pool, monkeypatch):
        # 21 arrays of mixed shapes and sizes, signed zeros among the values and
        # gradients, and one parameter that never gets a gradient; the last one spans
        # two whole scratch chunks and part of a third
        rng = np.random.default_rng(61)
        shapes = [(int(rng.integers(1, 40)),) * int(rng.integers(1, 4)) for _ in range(19)]
        shapes += [(3, 1536), (3, 2 * training_mod._ADAM_CHUNK // 3 + 5)]
        if workers == 1:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        else:
            forced_pool(workers)

        def make():
            params = [Tensor(np.random.default_rng(i).normal(size=s), requires_grad=True)
                      for i, s in enumerate(shapes)]
            params[0].data.ravel()[:2] = [0.0, -0.0]
            return params, AdamState(params)

        got, got_state = make()
        ref, ref_state = make()
        for step in range(3):
            for i, (p, q) in enumerate(zip(got, ref)):
                g = None if i == 7 else rng.normal(size=p.shape)
                if g is not None:
                    g.ravel()[0] = -0.0
                p.grad = q.grad = g
            adam_step(got_state, lr=1e-2)
            adam_step_by_expression(ref_state, lr=1e-2)
        for p, q, m, mr, v, vr in zip(got, ref, got_state.m, ref_state.m, got_state.v, ref_state.v):
            assert p.data.tobytes() == q.data.tobytes()
            assert m.tobytes() == mr.tobytes() and v.tobytes() == vr.tobytes()
        if workers == 1:  # the update ran on this thread, through two chunk-sized arrays
            assert [a.size for a in got_state.scratch.pair] == [training_mod._ADAM_CHUNK] * 2


class TestKeptRecords:
    @pytest.mark.parametrize("improved", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_steps_bitwise_a_reference_keeping_everything(self, workers, improved, forced_pool, monkeypatch):
        # the BN-ReLU outputs that backward makes again feed it the forward's bits:
        # parameters and BN statistics after two run_epoch steps are those of a backward
        # that kept every op output (helpers.branch_keeping_everything)
        if workers == 1:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        else:
            forced_pool(workers)
        cfg = ModelCfg(n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=8), group_input_dim=4,
                       improved_blocks=improved)
        rng = np.random.default_rng(74)
        lgp = GroupLgp(random_bank(rng, [8], 3), GroupAssignment(groups={8: np.repeat(np.arange(2), 4)}, n_groups=2))
        feats, labels = rng.normal(size=(4, 12, 3)), np.array([0, 1, 1, 0])
        real_forward = GroupBranch.forward

        def forward_keeping_the_slice(branch, x, keep=False):
            return real_forward(branch, x)[0], x

        def backward_keeping_everything(branch, x, dlogits):
            running = [(bn.state.running_mean, bn.state.running_var) for bn in branch.batchnorms()]
            branch_keeping_everything(branch, x, dlogits)  # its forward moves the running statistics again
            for bn, (mean, var) in zip(branch.batchnorms(), running):
                bn.state.running_mean, bn.state.running_var = mean, var

        results = []
        for reference in (False, True):
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(GroupBranch, "forward", forward_keeping_the_slice)
                    patch.setattr(GroupBranch, "backward", backward_keeping_everything)
                model = build_model(cfg, seed=75)
                state = AdamState(model.parameters())
                train_cfg = TrainConfig(batch_size=2, epochs=1)
                run_epoch(model, lgp, feats, labels, train_cfg, state, np.array([2, 0, 3, 1]), 1e-2)
            results.append([getattr(owner, attr) for _, owner, attr in model.stored_arrays()])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()


class TestReduceOnPlateau:
    def cfg(self, patience=3):
        return TrainConfig(learning_rate=1e-3, plateau_patience=patience, plateau_factor=0.5)

    def test_decreasing_history_keeps_lr(self):
        cfg = self.cfg()
        history = [1.0, 0.8, 0.6, 0.4, 0.2]
        assert reduce_on_plateau(history, cfg) == cfg.learning_rate

    def test_flat_history_reduces_once(self):
        cfg = self.cfg(patience=3)
        history = [1.0] + [1.0] * 3  # first epoch improves on inf, then 3 flat
        assert reduce_on_plateau(history, cfg) == cfg.learning_rate * 0.5

    def test_improvement_resets_counter(self):
        cfg = self.cfg(patience=3)
        history = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]  # never 3 consecutive bad epochs
        assert reduce_on_plateau(history, cfg) == cfg.learning_rate

    def test_two_plateaus_reduce_twice(self):
        cfg = self.cfg(patience=2)
        history = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
        assert reduce_on_plateau(history, cfg) == cfg.learning_rate * 0.25

    def test_min_delta_counts_tiny_improvements_as_flat(self):
        cfg = self.cfg(patience=2)
        history = [1.0, 1.0 - 1e-6, 1.0 - 2e-6]
        assert reduce_on_plateau(history, cfg) == cfg.learning_rate * 0.5

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            reduce_on_plateau([], self.cfg())


def small_train_cfg(**overrides):
    defaults = dict(learning_rate=1e-3, batch_size=8, epochs=3, seed=123)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_model_cfg(assignment):
    return ModelCfg(
        n_groups=assignment.n_groups,
        n_blocks=2,
        block=ResidualBlockCfg(channels=16),
        group_input_dim=assignment.group_dim(),
    )


class Batches:
    """Stacked frames handed out as a fresh array per batch, like ManifestFrames',
    with a weakref to each batch handed out."""

    def __init__(self, feats: np.ndarray, labels: np.ndarray):
        self.feats, self.labels = feats, labels
        self.refs = []

    def __len__(self):
        return len(self.feats)

    def __getitem__(self, idx):
        batch = self.feats[idx]
        self.refs.append(weakref.ref(batch))
        return batch


def stacked(tiny_pipeline):
    """The tiny pipeline's stacked frames, handed to train() in place of a ManifestFrames."""
    return Batches(tiny_pipeline["feats"], tiny_pipeline["labels"])


class TestTrainLoop:
    def test_diverging_loss_raises_naming_the_epoch(self, tiny_pipeline, tmp_path):
        # the first Adam step at this rate overflows the weights, so the second
        # batch of epoch 1 has a NaN loss
        ckpt = tmp_path / "model.npz"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="epoch 1"):
                train(
                    stacked(tiny_pipeline),
                    tiny_pipeline["lgp"],
                    tiny_model_cfg(tiny_pipeline["assignment"]),
                    small_train_cfg(learning_rate=1e308, epochs=2),
                    checkpoint_path=ckpt,
                )
        assert issubclass(NonFiniteLossError, LgpnetError)
        assert not ckpt.exists()

    def test_deterministic_given_seed(self, tiny_pipeline):
        kwargs = dict(
            lgp=tiny_pipeline["lgp"],
            model_cfg=tiny_model_cfg(tiny_pipeline["assignment"]),
        )
        _, log_a = train(stacked(tiny_pipeline), train_cfg=small_train_cfg(epochs=2), **kwargs)
        _, log_b = train(stacked(tiny_pipeline), train_cfg=small_train_cfg(epochs=2), **kwargs)
        assert log_a[0]["train_loss"] == log_b[0]["train_loss"]  # bitwise
        assert log_a[-1]["train_loss"] == log_b[-1]["train_loss"]

    def test_writes_epoch_log_csv(self, tiny_pipeline, tmp_path):
        log_path = tmp_path / "log.csv"
        train(
            stacked(tiny_pipeline),
            tiny_pipeline["lgp"],
            tiny_model_cfg(tiny_pipeline["assignment"]),
            small_train_cfg(epochs=2),
            log_path=log_path,
        )
        lines = log_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,dev_loss,lr"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == 1e-3

    def test_features_recomputed_every_epoch(self, tiny_pipeline, monkeypatch):
        import lgpnet.multiscale as multiscale

        original = multiscale.lfcc_extract
        calls = []

        def counting(clip, cfg):
            calls.append(clip.utt_id)
            return original(clip, cfg)

        monkeypatch.setattr(multiscale, "lfcc_extract", counting)
        feats = ManifestFrames(tiny_pipeline["manifest"], tiny_pipeline["lfcc_cfg"], 50)
        train(
            feats,
            tiny_pipeline["lgp"],
            tiny_model_cfg(tiny_pipeline["assignment"]),
            small_train_cfg(epochs=2),
        )
        assert sorted(calls) == sorted(2 * tiny_pipeline["utt_ids"])

    def test_manifest_features_train_bitwise_as_stacked_ones(self, tiny_pipeline):
        """train() only indexes its frames, so computing them from the audio per
        batch trains the same bits as handing in the stacked array."""
        manifest_feats = ManifestFrames(tiny_pipeline["manifest"], tiny_pipeline["lfcc_cfg"], 50)
        runs = [
            train(feats, tiny_pipeline["lgp"], tiny_model_cfg(tiny_pipeline["assignment"]),
                  small_train_cfg(epochs=2), dev=feats)
            for feats in (manifest_feats, stacked(tiny_pipeline))
        ]
        (model_a, log_a), (model_b, log_b) = runs
        assert log_a == log_b
        for (key, owner_a, attr), (_, owner_b, _) in zip(model_a.stored_arrays(), model_b.stored_arrays()):
            assert getattr(owner_a, attr).tobytes() == getattr(owner_b, attr).tobytes(), key

    def test_non_finite_batch_loss_names_the_epoch_and_the_batch(self, tiny_pipeline, monkeypatch):
        # the loss of epoch 2's third batch is NaN: that step raises, before its update
        losses = iter([0.5] * 5 + [np.nan])
        real_loss = training_mod.ensemble_aware_loss

        def loss_then_nan(group_logits, labels, aware):
            return next(losses), real_loss(group_logits, labels, aware)[1]

        adam_steps = []
        real_adam = training_mod.adam_step
        monkeypatch.setattr(training_mod, "ensemble_aware_loss", loss_then_nan)
        monkeypatch.setattr(training_mod, "adam_step", lambda *a: adam_steps.append(1) or real_adam(*a))
        with pytest.raises(NonFiniteLossError, match=r"^epoch 2, batch 3 of 3: loss is not finite \(nan\)$"):
            train(stacked(tiny_pipeline), tiny_pipeline["lgp"], tiny_model_cfg(tiny_pipeline["assignment"]),
                  small_train_cfg(batch_size=6, epochs=3))
        assert len(adam_steps) == 5

    def test_checkpoint_reload_reproduces_scores(self, tiny_pipeline, tmp_path):
        ckpt = tmp_path / "model.npz"
        model, _ = train(
            stacked(tiny_pipeline),
            tiny_pipeline["lgp"],
            tiny_model_cfg(tiny_pipeline["assignment"]),
            small_train_cfg(epochs=2),
            checkpoint_path=ckpt,
        )
        reloaded, assignment = load_checkpoint(ckpt)
        feats = tiny_pipeline["feats"]
        direct = predict_logits(model, tiny_pipeline["lgp"], feats)
        from_disk = predict_logits(reloaded, GroupLgp(tiny_pipeline["bank"], assignment), feats)
        assert np.array_equal(direct, from_disk)

    def test_dev_monitoring_and_best_restore(self, tiny_pipeline):
        model, log = train(
            stacked(tiny_pipeline),
            tiny_pipeline["lgp"],
            tiny_model_cfg(tiny_pipeline["assignment"]),
            small_train_cfg(epochs=3),
            dev=stacked(tiny_pipeline),
        )
        best = min(row["dev_loss"] for row in log)
        recomputed = evaluate_loss(
            model,
            tiny_pipeline["lgp"],
            tiny_pipeline["feats"],
            tiny_pipeline["labels"],
            small_train_cfg(),
        )
        assert recomputed == pytest.approx(best, abs=1e-12)

    def test_eval_loss_is_pure(self, tiny_pipeline):
        assignment = tiny_pipeline["assignment"]
        model = build_model(tiny_model_cfg(assignment), seed=5)
        cfg = small_train_cfg()
        feats, labels = tiny_pipeline["feats"], tiny_pipeline["labels"]
        first = evaluate_loss(model, tiny_pipeline["lgp"], feats, labels, cfg)
        stats_before = [bn.state.running_mean.copy() for bn in model.batchnorms()]
        second = evaluate_loss(model, tiny_pipeline["lgp"], feats, labels, cfg)
        assert first == second
        for bn, before in zip(model.batchnorms(), stats_before):
            assert np.array_equal(bn.state.running_mean, before)

    def test_run_epoch_reduces_loss_on_easy_data(self, tiny_pipeline):
        assignment = tiny_pipeline["assignment"]
        model = build_model(tiny_model_cfg(assignment), seed=6)
        cfg = small_train_cfg(batch_size=16)
        state = AdamState(model.parameters())
        feats, labels = tiny_pipeline["feats"], tiny_pipeline["labels"]
        rng = np.random.default_rng(0)
        lgp = tiny_pipeline["lgp"]
        first = run_epoch(model, lgp, feats, labels, cfg, state, rng.permutation(labels.size), cfg.learning_rate)
        for _ in range(4):
            last = run_epoch(model, lgp, feats, labels, cfg, state, rng.permutation(labels.size), cfg.learning_rate)
        assert last < first


class TestBatchMemory:
    """Each branch makes its own group's input from the batch's frames, so no
    (N, 1984, T) LGP batch and no (G, N, 248, T) gather of it ever exists."""

    N, T = 2, 40
    FULL = N * 1984 * T * 8  # the bytes of either array

    def setup(self):
        rng = np.random.default_rng(78)
        bank = random_bank(rng, [64, 128, 256, 512, 1024], 60)
        lgp = GroupLgp(bank, GroupAssignment({o: np.arange(o) % 8 for o in bank.orders}, 8))
        cfg = ModelCfg(n_groups=8, n_blocks=1, block=ResidualBlockCfg(channels=4), group_input_dim=248)
        return build_model(cfg, seed=79), lgp, rng.normal(size=(self.N, self.T, 60)), np.array([0, 1])

    def test_kept_forward_holds_no_full_width_array(self, monkeypatch):
        model, lgp, feats, labels = self.setup()
        seen = []
        real_loss = training_mod.ensemble_aware_loss

        def probing_loss(group_logits, labels, aware):
            # at the end of the forward: the peak so far, and the largest array alive
            seen.append((tracemalloc.get_traced_memory()[1],
                         max(t.size for t in tracemalloc.take_snapshot().traces)))
            return real_loss(group_logits, labels, aware)

        monkeypatch.setattr(training_mod, "ensemble_aware_loss", probing_loss)
        state = AdamState(model.parameters())
        tracemalloc.start()
        try:
            run_epoch(model, lgp, feats, labels, TrainConfig(batch_size=self.N), state, np.arange(self.N), 1e-3)
        finally:
            tracemalloc.stop()
        ((peak, largest),) = seen
        # the records hold the G inputs, FULL bytes in all, as G arrays of FULL / G
        assert peak < 1.5 * self.FULL
        assert largest <= self.FULL / 8

    def test_forward_keeping_nothing_holds_no_full_width_array(self):
        model, lgp, feats, _ = self.setup()
        tracemalloc.start()
        try:
            logits = predict_logits(model, lgp, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (self.N, 2)
        assert peak < self.FULL  # about 0.6 of it: each worker's input and its LGP temporaries


class TestBestEpochOnDisk:
    """train() keeps the best epoch in a file, not in memory."""

    def train(self, tiny_pipeline, **kwargs):
        kwargs.setdefault("train_cfg", small_train_cfg(epochs=3))
        return train(
            stacked(tiny_pipeline),
            tiny_pipeline["lgp"],
            tiny_model_cfg(tiny_pipeline["assignment"]),
            **kwargs,
        )

    def test_returned_model_holds_no_gradient(self, tiny_pipeline):
        model, _ = self.train(tiny_pipeline, train_cfg=small_train_cfg(epochs=2))
        assert all(p.grad is None for p in model.parameters())

    def test_best_epoch_reloaded_bitwise_when_a_later_one_is_worse(self, tiny_pipeline, tmp_path, monkeypatch):
        import lgpnet.training as training_mod

        written = []  # the stored arrays as each save_checkpoint call wrote them
        real_save = training_mod.save_checkpoint

        def recording_save(path, model, assignment):
            real_save(path, model, assignment)
            written.append([getattr(o, a).copy() for _, o, a in model.stored_arrays()])

        states = []
        real_adam = training_mod.AdamState

        def recording_adam(params):
            state = real_adam(params)
            states.append(weakref.ref(state))
            return state

        at_reload = []
        real_assign = training_mod._assign_stored_arrays

        def probing_assign(model, data, path):
            at_reload.append((states[0]() is None, all(p.grad is None for p in model.parameters())))
            real_assign(model, data, path)

        dev_losses = iter([0.5, 0.25, 0.375])
        monkeypatch.setattr(training_mod, "save_checkpoint", recording_save)
        monkeypatch.setattr(training_mod, "AdamState", recording_adam)
        monkeypatch.setattr(training_mod, "_assign_stored_arrays", probing_assign)
        monkeypatch.setattr(training_mod, "evaluate_loss", lambda *a, **k: next(dev_losses))
        ckpt = tmp_path / "model.npz"
        model, log = self.train(tiny_pipeline, dev=stacked(tiny_pipeline), checkpoint_path=ckpt)

        assert [row["dev_loss"] for row in log] == [0.5, 0.25, 0.375]
        assert len(written) == 2  # epochs 1 and 2 improved, epoch 3 did not
        assert at_reload == [(True, True)]  # gradients and Adam's moments gone before the reload
        best = written[1]
        returned = [getattr(o, a) for _, o, a in model.stored_arrays()]
        assert all(r.tobytes() == b.tobytes() for r, b in zip(returned, best))
        reloaded, _ = load_checkpoint(ckpt)
        assert all(r.tobytes() == b.tobytes() for r, b in zip(
            (getattr(o, a) for _, o, a in reloaded.stored_arrays()), best
        ))
        assert os.listdir(tmp_path) == ["model.npz"]

    @pytest.mark.parametrize("damage", ["missing_key", "wrong_shape"])
    def test_damaged_best_epoch_file_is_format_error(self, tiny_pipeline, tmp_path, monkeypatch, damage):
        # the reload checks the file as load_checkpoint does; a bare np.load raised KeyError
        # for a missing key and loaded a wrong-shaped array without a word
        import lgpnet.training as training_mod

        real_save = training_mod.save_checkpoint
        key = "param/group0.entry_conv.bias"

        def edit(arrays):
            if damage == "missing_key":
                del arrays[key]
            else:
                arrays[key] = arrays[key][:-1]

        def damaging_save(path, model, assignment):
            real_save(path, model, assignment)
            rewrite_arrays(path, edit)

        dev_losses = iter([0.5, 0.25, 0.375])
        monkeypatch.setattr(training_mod, "save_checkpoint", damaging_save)
        monkeypatch.setattr(training_mod, "evaluate_loss", lambda *a, **k: next(dev_losses))
        with pytest.raises(FormatError, match=r"\.m\.npz\..*\.tmp: (checkpoint is missing|shape mismatch for) " + key):
            self.train(tiny_pipeline, dev=stacked(tiny_pipeline), checkpoint_path=tmp_path / "m.npz")
        assert os.listdir(tmp_path) == []

    def test_best_last_epoch_is_not_reloaded(self, tiny_pipeline, tmp_path, monkeypatch):
        import lgpnet.training as training_mod

        restores = []
        monkeypatch.setattr(training_mod, "_assign_stored_arrays", lambda *a: restores.append(a))
        dev_losses = iter([0.5, 0.25, 0.125])
        monkeypatch.setattr(training_mod, "evaluate_loss", lambda *a, **k: next(dev_losses))
        self.train(tiny_pipeline, dev=stacked(tiny_pipeline), checkpoint_path=tmp_path / "m.npz")
        assert restores == []
        assert os.listdir(tmp_path) == ["m.npz"]

    @pytest.mark.parametrize("with_checkpoint", [True, False])
    def test_error_in_epoch_2_leaves_no_file(self, tiny_pipeline, tmp_path, monkeypatch, with_checkpoint):
        import lgpnet.training as training_mod

        out_dir, temp_dir = tmp_path / "out", tmp_path / "tmp"
        out_dir.mkdir()
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        where = out_dir if with_checkpoint else temp_dir
        during = []
        real_run_epoch = training_mod.run_epoch

        def failing_in_epoch_2(*args, **kwargs):
            during.append(os.listdir(where))
            if len(during) == 2:
                raise RuntimeError("boom")
            return real_run_epoch(*args, **kwargs)

        monkeypatch.setattr(training_mod, "run_epoch", failing_in_epoch_2)
        with pytest.raises(RuntimeError, match="boom"):
            self.train(tiny_pipeline, checkpoint_path=out_dir / "model.npz" if with_checkpoint else None)
        assert [len(names) for names in during] == [1, 1]  # the best-epoch file, made before epoch 1
        assert os.listdir(out_dir) == [] and os.listdir(temp_dir) == []

    def test_unusable_checkpoint_directory_fails_before_epoch_1(self, tiny_pipeline, tmp_path, monkeypatch):
        import lgpnet.training as training_mod

        epochs = []
        monkeypatch.setattr(training_mod, "run_epoch", lambda *a, **k: epochs.append(1))
        (tmp_path / "file").write_text("")
        with pytest.raises(FileNotFoundError):
            self.train(tiny_pipeline, checkpoint_path=tmp_path / "missing" / "model.npz")
        with pytest.raises(NotADirectoryError):
            self.train(tiny_pipeline, checkpoint_path=tmp_path / "file" / "model.npz")
        assert epochs == []

    def test_peak_memory_is_that_of_the_bare_steps(self, tiny_pipeline):
        """train() adds less than half the model's stored arrays to the traced peak of
        its run_epoch steps: no in-memory copy of the best epoch is held."""
        import lgpnet.training as training_mod

        lgp = tiny_pipeline["lgp"]
        model_cfg = tiny_model_cfg(tiny_pipeline["assignment"])
        cfg = small_train_cfg(epochs=3)
        feats = stacked(tiny_pipeline)

        def bare_steps():
            rng = np.random.default_rng(cfg.seed)
            model = training_mod.GroupedResNetEnsemble(model_cfg, rng)
            state = AdamState(model.parameters())
            for _ in range(cfg.epochs):
                perm = rng.permutation(len(feats))
                run_epoch(model, lgp, feats, feats.labels, cfg, state, perm, cfg.learning_rate)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stored = sum(getattr(o, a).nbytes for _, o, a in build_model(model_cfg).stored_arrays())
        bare = peak(bare_steps)
        full = peak(lambda: train(feats, lgp, model_cfg, cfg))
        assert full - bare < stored / 2

