"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import functools
import time

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from helpers import (
    FD_REL_TOL,
    as_float64,
    build_synth_corpus,
    check_gradients,
    eer_by_threshold_sweep,
    ensemble_loss_value,
    group_inputs,
    n_batchnorms,
    random_bank,
    random_split_gmm,
    train_step_grads,
    weighted_sum,
    whole_lgp,
)

from lgpnet.corpus import build_manifest, parse_protocol
from lgpnet.evaluation import compute_eer
from lgpnet.gmm import EmConfig, _lgp_coefficients, em_fit, log_likelihood, train_by_splitting
from lgpnet.lfcc import LfccConfig
from lgpnet.model import (
    ImprovedResidualBlock,
    ModelCfg,
    ResidualBlockCfg,
    StandardResidualBlock,
    build_model,
    ensemble_logits,
)
from lgpnet.multiscale import GmmBank, GroupLgp, lineage_grouping
from lgpnet.tensor import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    batchnorm1d_backward,
    conv1d,
    conv1d_backward,
    linear,
    linear_backward,
    max_pool_time,
    max_pool_time_backward,
)
from lgpnet.training import (
    TrainConfig,
    ensemble_aware_loss,
    evaluate_loss,
    predict_logits,
    train,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")
            return result

        return wrapper

    return decorate


# -----------------------------------------------------------------------
# criterion 6/8 share one full training run


OVERFIT_SEED = 5
OVERFIT_EPOCHS = 40


def run_overfit_training(tmp_root):
    """The tiny end-to-end recipe: synthetic corpus, orders {8,16}, G=2."""
    protocol, audio_dir = build_synth_corpus(tmp_root, n_per_class=32, seed=42)
    manifest = build_manifest(parse_protocol(protocol), audio_dir)
    lfcc_cfg = LfccConfig()
    from lgpnet.corpus import read_wav
    from lgpnet.lfcc import lfcc_extract
    from lgpnet.multiscale import ManifestFrames

    frames = np.vstack([lfcc_extract(read_wav(p), lfcc_cfg).values for p, _ in manifest.entries])
    models = train_by_splitting(frames, 16, EmConfig(n_iterations=10))
    bank = GmmBank(gmms=[m for m in models if m.order in (8, 16)])
    assignment = lineage_grouping(bank, 2)
    model_cfg = ModelCfg(
        n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=16), group_input_dim=12
    )
    train_cfg = TrainConfig(
        learning_rate=1e-3, batch_size=32, epochs=OVERFIT_EPOCHS, seed=OVERFIT_SEED
    )
    feats = ManifestFrames(manifest, lfcc_cfg, 50)
    lgp = GroupLgp(bank, assignment)
    model, log = train(feats, lgp, model_cfg, train_cfg)
    labels = feats.labels
    logits = predict_logits(model, lgp, feats)
    scores = logits[:, 1] - logits[:, 0]
    return {"log": log, "labels": labels, "scores": scores, "logits": logits, "dtype": model.branches[0].dtype}


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    start = time.perf_counter()
    result = run_overfit_training(tmp_path_factory.mktemp("overfit_a"))
    result["elapsed"] = time.perf_counter() - start
    return result


class TestAcceptance:
    @criterion(1, "gradient suite")
    def test_1_gradient_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(100)

        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        ones = np.ones((2, 4, 8))
        gx = conv1d_backward(ones, x, w, b)
        worst = check_gradients(lambda: weighted_sum(conv1d(x, w, b), ones), [gx, w.grad, b.grad], [x, w, b])
        assert worst < FD_REL_TOL

        xb = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        state = as_float64(BatchNormState(2))
        coeffs = rng.normal(size=(3, 2, 6))
        _, stats = batchnorm1d(xb, state)
        gx, _ = batchnorm1d_backward(coeffs, xb, state, stats)
        params = [xb, state.gamma, state.beta]
        assert (
            check_gradients(lambda: weighted_sum(batchnorm1d(xb, state)[0], coeffs),
                            [gx, state.gamma.grad, state.beta.grad], params)
            < FD_REL_TOL
        )

        xr = Tensor(rng.normal(size=(3, 2, 6)), requires_grad=True)
        rr = Tensor(rng.normal(size=(3, 2, 6)) + 0.05, requires_grad=True)
        for p in params:
            p.zero_grad()
        out, stats = batchnorm1d(xr, state, relu=True, residual=rr)
        gx, gr = batchnorm1d_backward(coeffs, xr, state, stats, out.data)
        assert (
            check_gradients(
                lambda: weighted_sum(batchnorm1d(xr, state, relu=True, residual=rr)[0], coeffs),
                [gx, gr, state.gamma.grad, state.beta.grad],
                [xr, rr, state.gamma, state.beta],
            )
            < FD_REL_TOL
        )

        xp = Tensor(rng.normal(size=(3, 4, 7)), requires_grad=True)
        cp = rng.normal(size=(3, 4))
        assert check_gradients(
            lambda: weighted_sum(max_pool_time(xp), cp), [max_pool_time_backward(cp, xp)], [xp]
        ) < FD_REL_TOL

        xl = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        wl = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        bl = Tensor(rng.normal(size=2), requires_grad=True)
        cl = rng.normal(size=(3, 2))
        gx = linear_backward(cl, xl, wl, bl)
        worst = check_gradients(lambda: weighted_sum(linear(xl, wl, bl), cl), [gx, wl.grad, bl.grad], [xl, wl, bl])
        assert worst < FD_REL_TOL

        group_logits = [Tensor(rng.normal(size=(6, 2))) for _ in range(3)]
        labels = np.array([0, 1, 1, 0, 1, 0])
        for aware in (True, False):
            _, grads = ensemble_aware_loss([b.data for b in group_logits], labels, aware)
            assert (
                check_gradients(
                    lambda: ensemble_aware_loss([b.data for b in group_logits], labels, aware)[0], grads, group_logits
                )
                < FD_REL_TOL
            )

        block = as_float64(ImprovedResidualBlock(ResidualBlockCfg(channels=3), np.random.default_rng(101)))
        xblk = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        cblk = rng.normal(size=(2, 3, 5))
        block_params = [xblk] + [p for _, layer in block.sublayers() for _, p in layer.named_parameters()]
        yblk, saved = block.forward(xblk)
        gx = block.backward(saved, xblk, yblk, cblk)
        assert check_gradients(
            lambda: weighted_sum(block.forward(xblk)[0], cblk), [gx] + [p.grad for p in block_params[1:]],
            block_params,
        ) < FD_REL_TOL

        loss_model = as_float64(build_model(
            ModelCfg(n_groups=2, n_blocks=1, block=ResidualBlockCfg(channels=4), group_input_dim=3),
            seed=102,
        ))
        slices = [Tensor(rng.normal(size=(2, 3, 8))) for _ in range(2)]
        lab2 = np.array([0, 1])
        train_step_grads(loss_model, slices, lab2)
        params = loss_model.parameters()
        assert (
            check_gradients(lambda: ensemble_loss_value(loss_model, slices, lab2), [p.grad for p in params], params)
            < FD_REL_TOL
        )

        full = as_float64(build_model(
            ModelCfg(n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=8), group_input_dim=4),
            seed=103,
        ))
        xfull = [Tensor(rng.normal(size=(2, 4, 16))) for _ in range(2)]
        train_step_grads(full, xfull, lab2)
        params = full.parameters()
        assert (
            check_gradients(lambda: ensemble_loss_value(full, xfull, lab2), [p.grad for p in params], params)
            < FD_REL_TOL
        )

        assert time.perf_counter() - start < 60.0

    @criterion(2, "EM properties")
    def test_2_em_properties(self):
        start = time.perf_counter()
        for dataset_seed in range(5):
            rng = np.random.default_rng(200 + dataset_seed)
            data = rng.normal(size=(300, 4)) * rng.uniform(0.5, 2.0) + rng.normal(size=4)
            for order in (1, 2, 4, 8):
                model = train_by_splitting(data, order, EmConfig(n_iterations=2))[-1]
                previous = log_likelihood(model, data)
                for _ in range(6):
                    model = em_fit(model, data, EmConfig(n_iterations=1))
                    current = log_likelihood(model, data)
                    assert current >= previous - 1e-8
                    previous = current

        rng = np.random.default_rng(250)
        true_means = np.array([[-4.0, 1.0], [4.0, -1.0]])
        data = np.vstack(
            [rng.normal(loc=m, scale=0.5, size=(400, 2)) for m in true_means]
        )
        # the split children start nearly coincident, so symmetry breaking
        # needs a few dozen iterations before the means separate fully
        fitted = train_by_splitting(data, 2, EmConfig(n_iterations=40))[-1]
        estimated = fitted.means[np.argsort(fitted.means[:, 0])]
        assert np.all(np.abs(estimated - true_means) < 0.1)

        assert time.perf_counter() - start < 30.0

    @criterion(3, "LGP oracle")
    def test_3_lgp_matches_dense_log_density(self):
        rng = np.random.default_rng(300)
        gmm = random_split_gmm(rng, 16, 6)
        x = rng.normal(size=(100, 6))
        out = np.hstack([x**2, x]) @ _lgp_coefficients(gmm)  # before the per-column normalization
        for i in range(gmm.order):
            dense = multivariate_normal(mean=gmm.means[i], cov=np.diag(gmm.variances[i])).logpdf(x)
            diff = out[:, i] - dense
            assert np.var(diff) / np.mean(diff) ** 2 < 1e-10

    @criterion(4, "dimensional bookkeeping")
    def test_4_dimensions_and_lineage(self):
        rng = np.random.default_rng(400)
        bank = random_bank(rng, [64, 128, 256, 512, 1024], 60)
        frames = rng.normal(size=(1, 400, 60))
        assert whole_lgp(bank, frames).shape == (1, 1984, 400)

        inputs = group_inputs(GroupLgp(bank, lineage_grouping(bank, 8)), frames)
        assert len(inputs) == 8
        assert all(x.shape == (1, 248, 400) for x in inputs)

        for trial in range(20):
            trial_rng = np.random.default_rng(410 + trial)
            order = int(2 ** trial_rng.integers(3, 7))  # 8..64
            gmm = random_split_gmm(trial_rng, order, 4)
            n_groups = int(2 ** trial_rng.integers(0, int(np.log2(order)) + 1))
            one_bank = GmmBank(gmms=[gmm])
            assign = lineage_grouping(one_bank, n_groups)
            groups = assign.groups[order]
            # partition: every component in exactly one balanced group
            assert np.array_equal(np.sort(np.concatenate(assign.index_lists())), np.arange(order))
            assert np.all(np.bincount(groups, minlength=n_groups) == order // n_groups)
            # lineage consistency: same group iff same level-log2(G) ancestor,
            # reached by applying the split parent relation i -> i // 2
            # log2(K / G) times
            ancestor = {}
            for comp in range(order):
                node = comp
                for _ in range(int(np.log2(order // n_groups))):
                    node //= 2
                ancestor[comp] = node
            for c1 in range(order):
                for c2 in range(order):
                    assert (groups[c1] == groups[c2]) == (ancestor[c1] == ancestor[c2])

    @criterion(5, "ensemble-loss identities")
    def test_5_ensemble_identities(self):
        rng = np.random.default_rng(500)
        cfg = ModelCfg(n_groups=4, n_blocks=1, block=ResidualBlockCfg(channels=4), group_input_dim=3)
        model = as_float64(build_model(cfg, seed=501))
        named = dict(model.named_parameters())
        for name, p in named.items():
            if not name.startswith("group0."):
                source = "group0." + name.split(".", 1)[1]
                p.data = named[source].data.copy()
        labels = np.array([0, 1, 1])
        shared = rng.normal(size=(3, 3, 10))
        slices = [Tensor(shared.copy()) for _ in range(4)]
        out = [b.data for b in model.forward_slices(slices)]
        loss, _ = ensemble_aware_loss(out, labels)
        plain, _ = ensemble_aware_loss(out, labels, aware=False)
        assert abs(loss - plain) < 1e-12

        model2 = as_float64(build_model(cfg, seed=502))
        slices2 = [Tensor(rng.normal(size=(3, 3, 10))) for _ in range(4)]
        out2 = model2.forward_slices(slices2)
        base_loss, _ = ensemble_aware_loss([b.data for b in out2], labels)
        base_b = ensemble_logits([b.data for b in out2])
        perm = [2, 0, 3, 1]
        model2.branches = [model2.branches[i] for i in perm]  # each with its classifier
        out_perm = model2.forward_slices([slices2[i] for i in perm])
        assert abs(ensemble_aware_loss([b.data for b in out_perm], labels)[0] - base_loss) < 1e-12
        assert np.max(np.abs(ensemble_logits([b.data for b in out_perm]) - base_b)) < 1e-12

        for trial in range(5):
            model3 = as_float64(build_model(cfg, seed=510 + trial))
            out3 = model3.forward_slices([Tensor(rng.normal(size=(2, 3, 8))) for _ in range(4)])
            stacked = np.stack([g.data for g in out3])
            assert np.max(np.abs(ensemble_logits([g.data for g in out3]) - stacked.mean(axis=0))) < 1e-12

    @criterion(6, "end-to-end overfit")
    def test_6_overfit(self, overfit_run):
        # train() builds a float32 model, as every new model is, and the recipe overfits in it
        assert overfit_run["dtype"] == np.float32
        assert overfit_run["logits"].dtype == np.float32
        assert overfit_run["elapsed"] < 300.0
        assert len(overfit_run["log"]) <= 200
        labels = overfit_run["labels"]
        predictions = overfit_run["logits"].argmax(axis=1)
        accuracy = float((predictions == labels).mean())
        assert accuracy == 1.0
        scores = overfit_run["scores"]
        eer = compute_eer(scores[labels == 1], scores[labels == 0]).eer
        first, last = overfit_run["log"][0]["train_loss"], overfit_run["log"][-1]["train_loss"]
        print(f"float32 overfit: EER {100.0 * eer:.4f}%, train loss {first:.4g} -> {last:.4g} "
              f"over {len(overfit_run['log'])} epochs")
        assert eer == 0.0
        assert last <= 0.1 * first  # >= 90% decrease from the first epoch

    @criterion(7, "EER oracle")
    def test_7_eer_oracle(self):
        rng = np.random.default_rng(700)
        for trial in range(200):
            nb = int(rng.integers(2, 50))
            ns = int(rng.integers(2, 50))
            bona = rng.normal(loc=rng.uniform(0, 2), size=nb)
            spoof = rng.normal(size=ns)
            if trial % 3 == 0:
                bona = np.round(bona, 1)
                spoof = np.round(spoof, 1)
            assert compute_eer(bona, spoof).eer == pytest.approx(
                eer_by_threshold_sweep(bona, spoof), abs=1e-9
            )

        assert compute_eer(np.arange(10) + 10.0, np.arange(10)).eer == 0.0

        scores = rng.normal(size=2000)
        coin = rng.integers(0, 2, size=2000).astype(bool)
        assert compute_eer(scores[coin], scores[~coin]).eer == pytest.approx(0.5, abs=0.05)

    @criterion(8, "determinism")
    def test_8_determinism(self, overfit_run, tmp_path_factory):
        rerun = run_overfit_training(tmp_path_factory.mktemp("overfit_b"))
        assert rerun["log"][0]["train_loss"] == overfit_run["log"][0]["train_loss"]  # bitwise
        assert np.array_equal(rerun["scores"], overfit_run["scores"])

    @criterion(9, "ablation wiring")
    def test_9_ablation_switches(self):
        def count(cfg):
            return build_model(cfg, seed=900).param_count()

        base_cfg = ModelCfg(
            n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=16), group_input_dim=12
        )
        base = as_float64(build_model(base_cfg, seed=900))

        # "w/o multiple GMMs": a single-order bank changes every slice width
        single_gmm_cfg = ModelCfg(
            n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=16), group_input_dim=8
        )
        assert count(single_gmm_cfg) != count(base_cfg)

        # "w/o grouping and ensemble": G=1 collapses the ensemble
        no_group_cfg = ModelCfg(
            n_groups=1, n_blocks=2, block=ResidualBlockCfg(channels=16), group_input_dim=24
        )
        solo = as_float64(build_model(no_group_cfg, seed=901))
        assert len(solo.branches) == 1
        rng = np.random.default_rng(902)
        out = solo.forward_slices([Tensor(rng.normal(size=(2, 24, 10)))])
        assert len(out) == 1
        assert np.array_equal(ensemble_logits([g.data for g in out]), out[0].data)
        assert count(no_group_cfg) != count(base_cfg)

        # "w/o improved residual block": conventional blocks add one BN each
        standard_cfg = ModelCfg(
            n_groups=2,
            n_blocks=2,
            block=ResidualBlockCfg(channels=16),
            group_input_dim=12,
            improved_blocks=False,
        )
        standard = build_model(standard_cfg, seed=903)
        assert all(
            isinstance(blk, StandardResidualBlock) for br in standard.branches for blk in br.blocks
        )
        assert all(
            isinstance(blk, ImprovedResidualBlock) for br in base.branches for blk in br.blocks
        )
        assert standard.param_count() - base.param_count() == 2 * 2 * 2 * 16
        assert all(n_batchnorms(blk) == 2 for br in standard.branches for blk in br.blocks)
        assert all(n_batchnorms(blk) == 1 for br in base.branches for blk in br.blocks)

        # "w/o ensemble-aware loss": the config flag swaps the training loss
        rng = np.random.default_rng(904)
        feats = rng.normal(size=(4, 10, 3))
        labels = np.array([0, 1, 0, 1])
        assignment_groups = {8: np.array([0, 0, 0, 0, 1, 1, 1, 1]), 16: np.repeat([0, 1], 8)}
        from lgpnet.multiscale import GroupAssignment

        lgp = GroupLgp(random_bank(rng, [8, 16], 3), GroupAssignment(groups=assignment_groups, n_groups=2))
        aware = evaluate_loss(base, lgp, feats, labels, TrainConfig(ensemble_aware=True))
        plain = evaluate_loss(base, lgp, feats, labels, TrainConfig(ensemble_aware=False))
        assert aware != pytest.approx(plain, abs=1e-9)
        out = [b.data for b in base.forward_slices(group_inputs(lgp, feats))]
        assert plain == pytest.approx(ensemble_aware_loss(out, labels, aware=False)[0], abs=1e-9)
        assert aware == pytest.approx(ensemble_aware_loss(out, labels)[0], abs=1e-9)
