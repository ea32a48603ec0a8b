import os
import tempfile
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import lgpnet.tensor as tensor_mod

from helpers import (
    DTYPES,
    FD_REL_TOL,
    adam_step_by_expression,
    as_float64,
    branch_keeping_everything,
    check_gradients,
    ensemble_loss_by_chain,
    ensemble_loss_value,
    group_inputs,
    group_logits_per_sample,
    in_dtype,
    random_bank,
    rewrite_arrays,
    softmax_cross_entropy,
    train_step_grads,
    whole_lgp,
)

from lgpnet.errors import FormatError, LgpnetError, NonFiniteLossError, ShapeError
from lgpnet.model import (
    CheckpointBranches,
    GroupBranch,
    ModelCfg,
    ResidualBlockCfg,
    build_model,
    ensemble_logits,
    load_checkpoint,
    save_checkpoint,
)
from lgpnet.multiscale import GroupAssignment, GroupLgp, ManifestFrames
from lgpnet.tensor import Tensor
import lgpnet.training as training_mod
from lgpnet.training import (
    ADAM_EPS,
    PLATEAU_FACTOR,
    PLATEAU_MIN_DELTA,
    PLATEAU_PATIENCE,
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
        model = as_float64(build_model(cfg, seed=0))
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

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("aware", [True, False])
    @pytest.mark.parametrize("mfa", [True, False])
    @pytest.mark.parametrize("improved", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_steps_bitwise_the_chain(self, workers, improved, mfa, aware, dtype, forced_pool, monkeypatch):
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
                model = in_dtype(build_model(cfg, seed=77), dtype)
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
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("improved", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_steps_bitwise_a_reference_keeping_everything(
        self, workers, improved, dtype, forced_pool, monkeypatch
    ):
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
            return real_forward(branch, x, keep=True)[0], x  # the records dropped

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
                model = in_dtype(build_model(cfg, seed=75), dtype)
                state = AdamState(model.parameters())
                train_cfg = TrainConfig(batch_size=2, epochs=1)
                run_epoch(model, lgp, feats, labels, train_cfg, state, np.array([2, 0, 3, 1]), 1e-2)
            results.append([getattr(owner, attr) for _, owner, attr in model.stored_arrays()])
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()


class TestReduceOnPlateau:
    LR = 1e-3

    def test_the_schedule_is_fixed(self):
        assert (PLATEAU_PATIENCE, PLATEAU_FACTOR, PLATEAU_MIN_DELTA) == (5, 0.5, 1e-4)

    def test_decreasing_history_keeps_lr(self):
        history = [1.0, 0.8, 0.6, 0.4, 0.2]
        assert reduce_on_plateau(history, self.LR) == self.LR

    def test_flat_history_reduces_once(self):
        history = [1.0] + [1.0] * 5  # first epoch improves on inf, then 5 flat
        assert reduce_on_plateau(history, self.LR) == self.LR * 0.5

    def test_improvement_resets_counter(self):
        history = [1.0] * 5 + [0.5] * 5  # never 5 consecutive bad epochs
        assert reduce_on_plateau(history, self.LR) == self.LR

    def test_two_plateaus_reduce_twice(self):
        history = [1.0] * 6 + [0.5] * 6
        assert reduce_on_plateau(history, self.LR) == self.LR * 0.25

    def test_min_delta_counts_tiny_improvements_as_flat(self):
        history = [1.0 - 1e-6 * i for i in range(6)]
        assert reduce_on_plateau(history, self.LR) == self.LR * 0.5

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            reduce_on_plateau([], self.LR)


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

    def test_branch_steps_and_adam_run_on_the_pool(self, tiny_pipeline, two_workers, monkeypatch):
        # the tiny model's maps touch few numbers; they run on the pool all the same
        threads = {"forward": [], "backward": [], "adam": []}

        def recording(name, real):
            def record(*args, **kwargs):
                threads[name].append(threading.get_ident())
                return real(*args, **kwargs)

            return record

        monkeypatch.setattr(GroupBranch, "forward", recording("forward", GroupBranch.forward))
        monkeypatch.setattr(GroupBranch, "backward", recording("backward", GroupBranch.backward))
        monkeypatch.setattr(training_mod, "_adam_update", recording("adam", training_mod._adam_update))
        train(stacked(tiny_pipeline), tiny_pipeline["lgp"], tiny_model_cfg(tiny_pipeline["assignment"]),
              small_train_cfg(epochs=1))
        pool = {t.ident for t in two_workers._threads}
        assert len(threads["forward"]) == len(threads["backward"]) == 2 * 2  # 2 batches of 2 branches
        for name, idents in threads.items():
            assert idents and set(idents) <= pool, name

    @pytest.mark.parametrize("loop", ["_step", "_group_logits"])
    def test_each_group_input_is_made_by_the_call_that_runs_its_branch(
        self, tiny_pipeline, two_workers, monkeypatch, loop
    ):
        # GroupLgp.input(frames, g) runs in the map call that runs branch g (or, in
        # inference, its folded copy), on that call's pool worker: no input is made ahead
        model = build_model(tiny_model_cfg(tiny_pipeline["assignment"]), seed=17)
        lgp, frames = tiny_pipeline["lgp"], tiny_pipeline["feats"][:3]
        group = {id(b): g for g, b in enumerate(model.branches)}
        made, ran, kept = {}, [], []  # kept holds every input and folded copy, so no id is reused
        real_input, real_folded, real_forward = GroupLgp.input, GroupBranch.folded, GroupBranch.forward

        def noting_input(self, x, g):
            out = real_input(self, x, g)
            made[id(out)] = (g, threading.get_ident())
            kept.append(out)
            return out

        def noting_folded(self, *args, **kwargs):
            copy = real_folded(self, *args, **kwargs)
            group[id(copy)] = group[id(self)]
            kept.append(copy)
            return copy

        def noting_forward(self, x, *args, **kwargs):
            ran.append(((group[id(self)], threading.get_ident()), made[id(x)]))
            return real_forward(self, x, *args, **kwargs)

        monkeypatch.setattr(GroupLgp, "input", noting_input)
        monkeypatch.setattr(GroupBranch, "folded", noting_folded)
        monkeypatch.setattr(GroupBranch, "forward", noting_forward)
        if loop == "_step":
            training_mod._step(model, lgp, frames, np.array([0, 1, 0]), True, "step")
        else:
            training_mod._group_logits(model, lgp, frames)
        pool = {t.ident for t in two_workers._threads}
        assert len(ran) == len(made) == (2 if loop == "_step" else 2 * 3)
        for branch, input_ in ran:
            assert branch == input_ and branch[1] in pool

    def test_features_recomputed_every_epoch(self, tiny_pipeline, monkeypatch):
        import lgpnet.multiscale as multiscale

        original = multiscale.lfcc_extract
        calls = []

        def counting(clip):
            calls.append(clip.utt_id)
            return original(clip)

        monkeypatch.setattr(multiscale, "lfcc_extract", counting)
        feats = ManifestFrames(tiny_pipeline["manifest"], 50)
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
        manifest_feats = ManifestFrames(tiny_pipeline["manifest"], 50)
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

    def test_inference_between_epochs_changes_no_training_bit(self, tiny_pipeline):
        # a dev pass and a prediction between two epochs leave nothing behind that the
        # next epoch reads: the parameters, moments and BN statistics are those of two
        # epochs back to back
        lgp, feats, labels = tiny_pipeline["lgp"], tiny_pipeline["feats"], tiny_pipeline["labels"]
        cfg = small_train_cfg(batch_size=4)
        results = []
        for inference in (False, True):
            model = build_model(tiny_model_cfg(tiny_pipeline["assignment"]), seed=8)
            state = AdamState(model.parameters())
            for epoch in (1, 2):
                run_epoch(model, lgp, feats[:8], labels[:8], cfg, state, np.arange(8)[::-1], 1e-3, epoch)
                if inference and epoch == 1:
                    evaluate_loss(model, lgp, feats[8:12], labels[8:12], cfg)
                    predict_logits(model, lgp, feats[8:11])
            results.append([getattr(owner, attr).tobytes() for _, owner, attr in model.stored_arrays()]
                           + [m.tobytes() for m in state.m + state.v])
        assert results[0] == results[1]

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


class TestInferenceIsPure:
    """However a model was made, its forward that keeps nothing
    (`forward_slices`, `__call__`) is inference: a sample's logits do not
    depend on the batch it is in, and no BN running statistic moves.

    Everything up to the pooled embedding goes sample by sample, but numpy
    computes the linear head of one sample as a matrix-vector product and
    of four as a matrix product, which sum in another order: the logits
    agree to rounding (1e-12 relative), not bit for bit.  With batch
    statistics they differed in the first digit."""

    @pytest.fixture(scope="class")
    def models(self, tiny_pipeline, tmp_path_factory):
        # float64, as a checkpoint written before models were float32 loads, for the 1e-12
        cfg = tiny_model_cfg(tiny_pipeline["assignment"])
        trained, _ = train(stacked(tiny_pipeline), tiny_pipeline["lgp"], cfg, small_train_cfg(epochs=1))
        path = tmp_path_factory.mktemp("pure") / "model.npz"
        save_checkpoint(path, as_float64(trained), tiny_pipeline["assignment"])
        return {"build_model": as_float64(build_model(cfg, seed=3)), "load_checkpoint": load_checkpoint(path)[0],
                "train": trained}

    @pytest.mark.parametrize("entry", ["forward_slices", "__call__"])
    @pytest.mark.parametrize("source", ["build_model", "load_checkpoint", "train"])
    def test_a_sample_alone_as_in_a_batch_of_4_and_no_statistic_moves(self, tiny_pipeline, models, source, entry):
        model, lgp = models[source], tiny_pipeline["lgp"]
        frames = tiny_pipeline["feats"][:4]
        running = [(bn.state.running_mean.tobytes(), bn.state.running_var.tobytes()) for bn in model.batchnorms()]

        def group_logits(batch):
            if entry == "forward_slices":
                out = model.forward_slices(group_inputs(lgp, batch))
            else:
                out = model(whole_lgp(tiny_pipeline["bank"], batch), tiny_pipeline["assignment"])
            return [g.data for g in out]

        together = group_logits(frames)
        for j in range(len(frames)):
            for alone, batched in zip(group_logits(frames[j : j + 1]), together, strict=True):
                assert np.allclose(alone, batched[j : j + 1], rtol=1e-12, atol=0.0)
        assert running == [(bn.state.running_mean.tobytes(), bn.state.running_var.tobytes())
                           for bn in model.batchnorms()]


class TestFloat32:
    """A new model is float32, and no step of training or inference makes a
    float64 array in it: under NEP 50 a float64 array or np.float64 scalar
    would upcast a float32 one silently."""

    def test_a_step_leaves_every_array_float32(self, tiny_pipeline):
        model = build_model(tiny_model_cfg(tiny_pipeline["assignment"]), seed=4)
        state = AdamState(model.parameters())
        lgp, feats, labels = tiny_pipeline["lgp"], tiny_pipeline["feats"], tiny_pipeline["labels"]
        assert feats.dtype == np.float64  # the front end stays float64
        lr = np.float64(1e-3)  # a float64 scalar rate upcasts nothing either
        loss = run_epoch(model, lgp, feats[:6], labels[:6], small_train_cfg(batch_size=4), state, np.arange(6), lr)
        assert np.isfinite(loss) and state.step_count == 2
        params = model.parameters()
        arrays = {
            "parameter": [p.data for p in params],
            "gradient": [p.grad for p in params],
            "Adam m": state.m,
            "Adam v": state.v,
            "BN statistic": [a for bn in model.batchnorms() for a in (bn.state.running_mean, bn.state.running_var)],
            "stored array": [getattr(owner, attr) for _, owner, attr in model.stored_arrays()],
        }
        for kind, values in arrays.items():
            assert values and all(a.dtype == np.float32 for a in values), kind
        assert predict_logits(model, lgp, feats[:3]).dtype == np.float32


class TestBranchMajorInference:
    """predict_logits and evaluate_loss run one folded branch at a time over a
    chunk of utterances, each utterance mapped over the workers alone through
    the branch and its classifier (`training._group_logits`): logits and
    loss are bitwise those of each sample forwarded alone, whatever the
    chunk size, inline, on 2 workers and on 8."""

    N = 14  # ragged last chunks at chunk sizes 3 and 4

    @pytest.fixture(scope="class", params=DTYPES)
    def checkpoint(self, tiny_pipeline, tmp_path_factory, request):
        model = in_dtype(build_model(tiny_model_cfg(tiny_pipeline["assignment"]), seed=31), request.param)
        rng = np.random.default_rng(32)
        for bn in model.batchnorms():  # running statistics away from their initial values, in the model's dtype
            bn.state.running_mean = rng.normal(size=bn.state.channels).astype(request.param)
            bn.state.running_var = rng.uniform(0.3, 3.0, size=bn.state.channels).astype(request.param)
        path = tmp_path_factory.mktemp("branch_major") / "model.npz"
        save_checkpoint(path, model, tiny_pipeline["assignment"])
        return path

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("source", ["memory", "checkpoint"])
    @pytest.mark.parametrize("chunk", [1, 3, 14])
    def test_bitwise_each_sample_alone(
        self, tiny_pipeline, checkpoint, monkeypatch, forced_pool, source, chunk, workers
    ):
        if workers > 1:  # 8 forced workers: more than the chunk's samples at chunk sizes 1 and 3
            forced_pool(workers)
        else:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        monkeypatch.setattr(training_mod, "_CHUNK_UTTERANCES", chunk)
        lgp = tiny_pipeline["lgp"]
        feats, labels = tiny_pipeline["feats"][: self.N], tiny_pipeline["labels"][: self.N]
        model = load_checkpoint(checkpoint)[0] if source == "memory" else CheckpointBranches(checkpoint)
        reference = group_logits_per_sample(load_checkpoint(checkpoint)[0], lgp, feats)
        assert predict_logits(model, lgp, feats).tobytes() == ensemble_logits(reference).tobytes()
        for aware in (True, False):
            cfg = TrainConfig(ensemble_aware=aware)
            assert evaluate_loss(model, lgp, feats, labels, cfg) == ensemble_aware_loss(reference, labels, aware)[0]

    def test_frames_from_the_audio_bitwise_the_stacked_frames(self, tiny_pipeline, checkpoint, monkeypatch):
        # a chunk of 6 utterances reads them in one ManifestFrames call
        monkeypatch.setattr(training_mod, "_CHUNK_UTTERANCES", 6)
        model = load_checkpoint(checkpoint)[0]
        src = ManifestFrames(tiny_pipeline["manifest"], target_frames=50)
        from_audio = predict_logits(model, tiny_pipeline["lgp"], src)
        assert from_audio.tobytes() == predict_logits(model, tiny_pipeline["lgp"], tiny_pipeline["feats"]).tobytes()


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
        real_read = training_mod._read_arrays

        def probing_read(entries, members, path):
            at_reload.append((states[0]() is None, all(o.grad is None for _, o, attr in entries if attr == "data")))
            real_read(entries, members, path)

        dev_losses = iter([0.5, 0.25, 0.375])
        monkeypatch.setattr(training_mod, "save_checkpoint", recording_save)
        monkeypatch.setattr(training_mod, "AdamState", recording_adam)
        monkeypatch.setattr(training_mod, "_read_arrays", probing_read)
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
        monkeypatch.setattr(training_mod, "_read_arrays", lambda *a: restores.append(a))
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

    def test_peak_memory_is_that_of_the_bare_steps(self, tiny_pipeline, monkeypatch):
        """train() adds less than half the model's stored arrays to the traced peak of
        its run_epoch steps: no in-memory copy of the best epoch is held.  Inline, as
        on the pool the interleaving of two branches moves either peak by more than
        half of a float32 model's arrays."""
        import lgpnet.training as training_mod

        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
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

