import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import lgpnet.gmm as gmm_mod
import lgpnet.tensor as tensor_mod
from helpers import e_step_by_waves, em_e_step_reference, random_split_gmm, whole_lgp

from lgpnet.errors import FormatError, ShapeError
from lgpnet.gmm import (
    _EM_CHUNK,
    _EM_WAVE,
    EmConfig,
    Gmm,
    _data_var,
    _e_step,
    _lgp_coefficients,
    binary_split,
    em_fit,
    load_gmm,
    log_likelihood,
    save_gmm,
    train_by_splitting,
)
from lgpnet.multiscale import GmmBank, GroupLgp, lineage_grouping

DATA = Path(__file__).parent / "data"


def v1_split_tree(order: int) -> list[tuple[int, int, int]]:
    """The version-1 node list of a binary-split GMM, built by splitting leaves.

    Leaves are split in component order; the leaf holding component c gets
    two new nodes holding components 2c and 2c+1.
    """
    nodes = [[0, -1, 0]]
    leaves = [0]
    while len(leaves) < order:
        next_leaves = []
        for node_id in leaves:
            comp = nodes[node_id][2]
            nodes[node_id][2] = -1
            for child in (2 * comp, 2 * comp + 1):
                nodes.append([len(nodes), node_id, child])
                next_leaves.append(len(nodes) - 1)
        leaves = next_leaves
    return [tuple(n) for n in nodes]


def v1_bytes(gmm: Gmm, nodes) -> bytes:
    """A version-1 GMM file: the version-2 payload plus a node section."""
    raw = b"GMM1" + struct.pack("<III", 1, gmm.dim, gmm.order)
    for arr in (gmm.weights, gmm.means, gmm.variances):
        raw += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    raw += struct.pack("<I", len(nodes))
    return raw + b"".join(struct.pack("<qqq", *n) for n in nodes)


def v2_bytes(weights, means, variances) -> bytes:
    """A version-2 GMM file holding the given parameters, unchecked."""
    k, d = np.shape(means)
    raw = b"GMM1" + struct.pack("<III", 2, d, k)
    return raw + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in (weights, means, variances))


INVALID_PARAMETERS = {
    "order 3": (np.full(3, 1 / 3), np.zeros((3, 2)), np.ones((3, 2))),
    "weights sum to 1.2": ([0.6, 0.6], np.zeros((2, 2)), np.ones((2, 2))),
    "zero variance": ([0.5, 0.5], np.zeros((2, 2)), [[1.0, 0.0], [1.0, 1.0]]),
    "NaN mean": ([0.5, 0.5], [[0.0, np.nan], [0.0, 0.0]], np.ones((2, 2))),
    "NaN weight": ([np.nan, 0.5], np.zeros((2, 2)), np.ones((2, 2))),
    "infinite variance": ([0.5, 0.5], np.zeros((2, 2)), [[1.0, np.inf], [1.0, 1.0]]),
}


def single_gaussian(mean, var):
    mean = np.atleast_2d(np.asarray(mean, dtype=np.float64))
    var = np.atleast_2d(np.asarray(var, dtype=np.float64))
    return Gmm(weights=np.array([1.0]), means=mean, variances=var)


class TestEmFit:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=2.0, scale=3.0, size=(400, 3))
        start = single_gaussian(np.zeros(3), np.ones(3))
        fitted = em_fit(start, data, EmConfig(n_iterations=1))
        assert np.allclose(fitted.means[0], data.mean(axis=0), atol=1e-12)
        assert np.allclose(fitted.variances[0], data.var(axis=0), atol=1e-12)
        assert fitted.weights[0] == pytest.approx(1.0)

    def test_recovers_two_separated_clusters(self):
        # synthetic oracle: the generative means are known
        rng = np.random.default_rng(1)
        true_means = np.array([[-4.0, 0.0], [4.0, 2.0]])
        data = np.vstack(
            [
                rng.normal(loc=true_means[0], scale=0.5, size=(500, 2)),
                rng.normal(loc=true_means[1], scale=0.5, size=(500, 2)),
            ]
        )
        # enough iterations for the near-coincident split children to separate
        cfg = EmConfig(n_iterations=40)
        models = train_by_splitting(data, 2, cfg)
        fitted = models[-1]
        est = fitted.means[np.argsort(fitted.means[:, 0])]
        assert np.all(np.abs(est - true_means) < 0.1)

    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    def test_loglik_non_decreasing(self, order):
        rng = np.random.default_rng(order)
        data = rng.normal(size=(300, 4)) + rng.integers(0, 3, size=(300, 1))
        cfg = EmConfig(n_iterations=1)
        model = train_by_splitting(data, order, EmConfig(n_iterations=2))[-1]
        previous = log_likelihood(model, data)
        for _ in range(8):
            model = em_fit(model, data, cfg)
            current = log_likelihood(model, data)
            assert current >= previous - 1e-8
            previous = current

    def test_weight_simplex_and_floor(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(256, 5))
        cfg = EmConfig(n_iterations=5)
        model = train_by_splitting(data, 8, cfg)[-1]
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.weights >= 0)
        floor = cfg.variance_floor * data.var(axis=0)
        assert np.all(model.variances >= floor - 1e-15)

    def test_empty_component_reseeded(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(64, 2))
        # one component dropped far away so it collects no responsibility
        gmm = Gmm(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [500.0, 500.0]]),
            variances=np.ones((2, 2)),
        )
        fitted = em_fit(gmm, data, EmConfig(n_iterations=3))
        assert fitted.order == 2
        assert fitted.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(fitted.means) < 100)

    def test_empty_components_reseeded_at_distinct_frames(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(500, 2))
        # components 2 and 3 are far from every frame, so both come out empty
        means = np.array([[-0.5, 0.0], [0.5, 0.0], [50.0, 50.0], [60.0, 60.0]])
        gmm = Gmm(weights=np.full(4, 0.25), means=means, variances=np.ones((4, 2)))
        once = em_fit(gmm, data, EmConfig(n_iterations=1))
        least_likely = np.argsort(em_e_step_reference(gmm, data)[0])[:2]
        assert np.array_equal(once.means[2:], data[least_likely])
        fitted = em_fit(gmm, data, EmConfig(n_iterations=5))
        assert not np.array_equal(fitted.means[2], fitted.means[3])
        assert not np.array_equal(fitted.variances[2], fitted.variances[3])

    @pytest.mark.parametrize("shape", [(50, 3), (50,), (50, 2, 1)])
    def test_frames_of_another_dim_rejected(self, shape):
        gmm = single_gaussian(np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            em_fit(gmm, np.zeros(shape), EmConfig(n_iterations=1))
        with pytest.raises(ShapeError):
            log_likelihood(gmm, np.zeros(shape))

    def test_too_few_frames_rejected(self):
        gmm = single_gaussian([0.0], [1.0])
        gmm = binary_split(gmm, EmConfig())
        with pytest.raises(ValueError):
            em_fit(gmm, np.zeros((1, 1)), EmConfig())


def max_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestFusedEStep:
    @pytest.mark.parametrize(
        "n, order, dim",
        [
            (100, 8, 3),  # fewer frames than one chunk
            (4 * _EM_CHUNK + 37, 16, 5),  # not a multiple of the chunk
            (2 * _EM_WAVE * _EM_CHUNK + 5, 4, 2),  # more chunks than two pool maps take
            (300, 1, 4),  # one component
            (500, 8, 1),  # one dimension
        ],
    )
    def test_matches_reference(self, n, order, dim):
        rng = np.random.default_rng(n + order + dim)
        gmm = random_split_gmm(rng, order, dim)
        data = rng.normal(scale=1.5, size=(n, dim)) + gmm.means[0]
        point_ll, stats = _e_step(gmm, data)
        ref_ll, nk, sum_x, sum_x2 = em_e_step_reference(gmm, data)
        np.testing.assert_allclose(point_ll, ref_ll, rtol=1e-12, atol=0)
        assert max_relative_error(stats[:, -1], nk) < 1e-12
        assert max_relative_error(stats[:, dim:-1], sum_x) < 1e-12
        assert max_relative_error(stats[:, :dim], sum_x2) < 1e-12

    def test_matches_reference_on_the_pool(self, two_workers):
        # three full chunks and a ragged one, on two workers
        rng = np.random.default_rng(23)
        n, order, dim = 3 * _EM_CHUNK + 11, 32, 6
        gmm = random_split_gmm(rng, order, dim)
        data = rng.normal(scale=1.5, size=(n, dim)) + gmm.means[0]
        point_ll, stats = _e_step(gmm, data)
        ref_ll, nk, sum_x, sum_x2 = em_e_step_reference(gmm, data)
        assert stats.shape == (order, 2 * dim + 1)
        np.testing.assert_allclose(point_ll, ref_ll, rtol=1e-12, atol=0)
        assert max_relative_error(stats[:, -1], nk) < 1e-12
        assert max_relative_error(stats[:, dim:-1], sum_x) < 1e-12
        assert max_relative_error(stats[:, :dim], sum_x2) < 1e-12

    @pytest.mark.parametrize("chunks", [1, 16, 17, 40])
    @pytest.mark.parametrize("workers", [0, 2, 3], ids=["inline", "2-workers", "3-workers"])
    def test_bitwise_equal_to_wave_sums(self, forced_pool, monkeypatch, chunks, workers):
        # the statistics are summed as each chunk finishes, in the association
        # the old per-wave arrays gave; more workers than cores and a short
        # switch interval make the chunks finish in varying order
        rng = np.random.default_rng(chunks)
        n, order, dim = chunks * _EM_CHUNK - 300, 64, 4
        gmm = random_split_gmm(rng, order, dim)
        data = rng.normal(scale=1.5, size=(n, dim)) + gmm.means[0]
        if workers:
            forced_pool(workers)
        else:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            point_ll, stats = _e_step(gmm, data)
        finally:
            sys.setswitchinterval(interval)
        ref_ll, ref_stats = e_step_by_waves(gmm, data)
        assert point_ll.tobytes() == ref_ll.tobytes()
        assert stats.shape == ref_stats.shape == (order, 2 * dim + 1)
        assert stats.tobytes() == ref_stats.tobytes()

    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        # 40 chunks hold at most the (N,) log-likelihoods more than 4 do;
        # summing per wave held up to _EM_WAVE chunk statistics at once
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        rng = np.random.default_rng(37)
        order, dim = 1024, 32
        gmm = random_split_gmm(rng, order, dim)
        stats_bytes = (2 * dim + 1) * order * 8
        peaks = []
        for chunks in (4, 40):
            data = rng.normal(size=(chunks * _EM_CHUNK, dim)) + gmm.means[0]
            tracemalloc.start()
            try:
                _e_step(gmm, data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] > 2 * stats_bytes  # numpy's buffers are traced
        assert peaks[1] - peaks[0] < stats_bytes

    def test_bank_independent_of_worker_count(self, forced_pool, monkeypatch):
        # three chunks of frames; more workers than cores and a short switch
        # interval, so the chunks finish in varying order
        rng = np.random.default_rng(19)
        n = 2 * _EM_CHUNK + 500
        data = rng.normal(size=(n, 3)) + rng.integers(0, 4, size=(n, 1))
        cfg = EmConfig(n_iterations=2)
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        inline = train_by_splitting(data, 64, cfg)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                forced_pool(workers)
                runs.append(train_by_splitting(data, 64, cfg))
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.means, b.means)
                assert np.array_equal(a.variances, b.variances)
        for a, b in zip(runs[0], inline):
            for name in ("weights", "means", "variances"):
                assert max_relative_error(getattr(a, name), getattr(b, name)) < 1e-12, name


class TestDataVariance:
    @pytest.mark.parametrize("n", [5, _EM_CHUNK - 1, _EM_CHUNK, _EM_CHUNK + 1, 40_001])
    @pytest.mark.parametrize("dim", [2, 3, 60])
    def test_bitwise_numpy_var(self, n, dim):
        rng = np.random.default_rng(n + dim)
        data = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0, size=dim) + rng.normal(scale=5.0, size=dim)
        assert _data_var(data).tobytes() == data.var(axis=0).tobytes()

    def test_one_dimension_close_to_numpy_var(self):
        # numpy sums a single column pairwise, not row by row
        data = np.random.default_rng(3).normal(loc=4.0, size=(40_001, 1))
        np.testing.assert_allclose(_data_var(data), data.var(axis=0), rtol=1e-12, atol=0)

    def test_em_fit_computes_it_when_not_given(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(3 * _EM_CHUNK + 7, 3)) * [1.0, 1e-3, 5.0]
        cfg = EmConfig(n_iterations=2)
        gmm = binary_split(single_gaussian(data.mean(axis=0), data.var(axis=0)), cfg)
        a, b = em_fit(gmm, data, cfg), em_fit(gmm, data, cfg, data.var(axis=0))
        for name in ("weights", "means", "variances"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestFrameChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_in_a_late_chunk_refused(self, bad):
        data = np.random.default_rng(2).normal(size=(3 * _EM_CHUNK, 2))
        data[-5, 1] = bad
        gmm = binary_split(single_gaussian([0.0, 0.0], [1.0, 1.0]), EmConfig())
        with pytest.raises(ValueError, match="non-finite"):
            em_fit(gmm, data, EmConfig(n_iterations=1))
        with pytest.raises(ValueError, match="non-finite"):
            train_by_splitting(data, 4, EmConfig(n_iterations=1))

    def test_too_few_frames_refused_before_any_level(self, monkeypatch):
        monkeypatch.setattr(gmm_mod, "em_fit", lambda *args: pytest.fail("a level was trained"))
        with pytest.raises(ValueError, match="need at least K=16 frames, got 10"):
            train_by_splitting(np.random.default_rng(1).normal(size=(10, 2)), 16)


class TestBinarySplit:
    def test_unit_example(self):
        gmm = single_gaussian([0.0], [1.0])
        split = binary_split(gmm, EmConfig(split_epsilon=0.2))
        assert split.order == 2
        assert np.allclose(np.sort(split.means[:, 0]), [-0.2, 0.2])
        assert np.allclose(split.weights, [0.5, 0.5])
        assert np.allclose(split.variances, 1.0)

    def test_weights_sum_preserved(self):
        rng = np.random.default_rng(4)
        gmm = random_split_gmm(rng, 8, 3)
        split = binary_split(gmm, EmConfig())
        assert split.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_splits_complete_depth2_tree(self):
        # without EM in between, component j at depth 2 sits at the root mean
        # moved by -eps or +eps for each of the two bits of j, high bit first
        root = single_gaussian([0.0], [1.0])
        mid = binary_split(root, EmConfig(split_epsilon=0.1))
        gmm = binary_split(mid, EmConfig(split_epsilon=0.1))
        assert gmm.order == 4
        assert np.allclose(gmm.means[:, 0], [-0.2, 0.0, 0.0, 0.2])
        for j in range(4):
            # the parent of j is j // 2 and its grandparent the root
            assert np.allclose(gmm.means[j] - mid.means[j // 2], (2 * (j % 2) - 1) * 0.1)
            assert np.allclose(mid.means[j // 2] - root.means[0], (2 * (j // 2) - 1) * 0.1)

    def test_children_straddle_parent_mean(self):
        rng = np.random.default_rng(5)
        gmm = random_split_gmm(rng, 4, 2)
        eps = 0.15
        split = binary_split(gmm, EmConfig(split_epsilon=eps))
        sigma = np.sqrt(gmm.variances)
        assert np.allclose(split.means[0::2], gmm.means - eps * sigma)
        assert np.allclose(split.means[1::2], gmm.means + eps * sigma)


class TestTrainBySplitting:
    def test_returns_all_orders(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(100, 2))
        models = train_by_splitting(data, 4, EmConfig(n_iterations=2))
        assert [m.order for m in models] == [1, 2, 4]

    def test_loglik_improves_with_order(self):
        # soft check: verified empirically on synthetic data, not a theorem
        rng = np.random.default_rng(7)
        data = np.vstack(
            [rng.normal(loc=c, scale=0.3, size=(200, 2)) for c in (-3.0, 0.0, 3.0, 6.0)]
        )
        models = train_by_splitting(data, 8, EmConfig(n_iterations=10))
        lls = [log_likelihood(m, data) for m in models]
        for smaller, larger in zip(lls, lls[1:]):
            assert larger >= smaller - 1e-6

    def test_parent_lineage_preserved(self):
        # every order is EM started from binary_split of the previous one, with
        # no reordering, so component j of an order descends from j // 2
        rng = np.random.default_rng(8)
        data = rng.normal(size=(200, 2))
        cfg = EmConfig(n_iterations=1)
        models = train_by_splitting(data, 4, cfg)
        for small, big in zip(models, models[1:]):
            refit = em_fit(binary_split(small, cfg), data, cfg)
            assert np.array_equal(big.weights, refit.weights)
            assert np.array_equal(big.means, refit.means)
            assert np.array_equal(big.variances, refit.variances)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(Exception):
            train_by_splitting(np.zeros((10, 2)), 6)

    def test_every_level_is_one_em_fit_call(self, monkeypatch):
        # (gmm, data, cfg) positional: the benchmark's EM metrics read args[0] and args[2]
        calls = []
        real = gmm_mod.em_fit

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(gmm_mod, "em_fit", recording)
        data = np.random.default_rng(9).normal(size=(300, 2))
        cfg = EmConfig(n_iterations=1)
        train_by_splitting(data, 8, cfg)
        assert [args[0].order for args, _ in calls] == [2, 4, 8]
        assert all(args[1] is data and args[2] is cfg and not kwargs for args, kwargs in calls)

    def test_levels_equal_split_then_em_fit(self):
        # the data variance, computed once per call, is what em_fit computes per level
        rng = np.random.default_rng(29)
        data = rng.normal(size=(600, 3)) * [1.0, 1e-3, 5.0] + rng.integers(0, 3, size=(600, 1))
        cfg = EmConfig(n_iterations=3)
        models = train_by_splitting(data, 16, cfg)
        for parent, child in zip(models, models[1:]):
            ref = em_fit(binary_split(parent, cfg), data, cfg)
            for name in ("weights", "means", "variances"):
                assert np.array_equal(getattr(child, name), getattr(ref, name)), name

    def test_frames_not_2d_rejected(self):
        with pytest.raises(ShapeError):
            train_by_splitting(np.arange(100.0), 4)


def unnormalized_lgp(gmm, x: np.ndarray) -> np.ndarray:
    """[x^2, x] @ W for (T, D) frames x: each frame's LGP before the
    per-column normalization, (T, K)."""
    return np.hstack([x**2, x]) @ _lgp_coefficients(gmm)


def normalized_lgp(gmm, x: np.ndarray) -> np.ndarray:
    """The pipeline's LGP of (T, D) frames x under one GMM, (T, K): the input
    of a one-group `GroupLgp` of a one-GMM bank, time-major."""
    return whole_lgp(GmmBank(gmms=[gmm]), x[None])[0].T


class TestLgpTransform:
    def test_zero_input_gives_zero(self):
        rng = np.random.default_rng(9)
        gmm = random_split_gmm(rng, 4, 3)
        out = unnormalized_lgp(gmm, np.zeros((5, 3)))
        assert np.all(out == 0.0)

    def test_standard_normal_component(self):
        gmm = single_gaussian(np.zeros(4), np.ones(4))
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 4))
        out = unnormalized_lgp(gmm, x)
        assert np.allclose(out[:, 0], -0.5 * np.sum(x**2, axis=1), atol=1e-12)

    def test_difference_to_dense_logpdf_is_constant(self):
        # dense log-density oracle: scipy multivariate normal per component
        rng = np.random.default_rng(11)
        gmm = random_split_gmm(rng, 16, 6)
        x = rng.normal(size=(100, 6))
        out = unnormalized_lgp(gmm, x)
        for i in range(gmm.order):
            dense = multivariate_normal(mean=gmm.means[i], cov=np.diag(gmm.variances[i])).logpdf(x)
            diff = out[:, i] - dense
            assert np.var(diff) / np.mean(diff) ** 2 < 1e-10
            expected_const = 0.5 * np.sum(gmm.means[i] ** 2 / gmm.variances[i]) + 0.5 * np.sum(
                np.log(2 * np.pi * gmm.variances[i])
            )
            assert np.allclose(diff, expected_const, rtol=1e-9)

    def test_quadratic_hessian_is_negative_precision(self):
        rng = np.random.default_rng(12)
        gmm = random_split_gmm(rng, 4, 3)
        x0 = rng.normal(size=3)
        h = 1e-4

        def y(x, i):
            prec = 1.0 / gmm.variances[i]
            return -0.5 * np.sum(x**2 * prec) + np.sum(x * prec * gmm.means[i])

        for i in range(gmm.order):
            for d in range(3):
                e = np.zeros(3)
                e[d] = h
                second = (y(x0 + e, i) - 2 * y(x0, i) + y(x0 - e, i)) / h**2
                assert second == pytest.approx(-1.0 / gmm.variances[i, d], rel=1e-4)
            # one off-diagonal mixed difference should vanish
            e0 = np.array([h, 0.0, 0.0])
            e1 = np.array([0.0, h, 0.0])
            mixed = (
                y(x0 + e0 + e1, i) - y(x0 + e0 - e1, i) - y(x0 - e0 + e1, i) + y(x0 - e0 - e1, i)
            ) / (4 * h**2)
            assert abs(mixed) < 1e-6

    def test_normalization_moments(self):
        rng = np.random.default_rng(13)
        gmm = random_split_gmm(rng, 8, 4)
        x = rng.normal(size=(400, 4))
        out = normalized_lgp(gmm, x)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-6)

    def test_zero_variance_dimension_maps_to_zero(self):
        gmm = single_gaussian(np.zeros(2), np.ones(2))
        out = normalized_lgp(gmm, np.full((10, 2), 1.5))
        assert np.all(out == 0.0)

    def test_dim_mismatch(self):
        bank = GmmBank(gmms=[single_gaussian(np.zeros(3), np.ones(3))])
        with pytest.raises(ShapeError):
            GroupLgp(bank, lineage_grouping(bank, 1)).input(np.zeros((1, 5, 4)), 0)


class TestGmmSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(14)
        gmm = random_split_gmm(rng, 8, 5)
        path = tmp_path / "gmm.bin"
        save_gmm(gmm, path)
        loaded = load_gmm(path)
        assert np.array_equal(loaded.weights, gmm.weights)
        assert np.array_equal(loaded.means, gmm.means)
        assert np.array_equal(loaded.variances, gmm.variances)
        # version 2: header plus weights, means and variances, nothing else
        raw = path.read_bytes()
        assert struct.unpack("<III", raw[4:16]) == (2, 5, 8)
        assert len(raw) == 16 + 8 * (8 + 2 * 8 * 5)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(15)
        gmm = random_split_gmm(rng, 4, 3)
        path = tmp_path / "gmm.bin"
        save_gmm(gmm, path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(FormatError):
            load_gmm(path)

    def test_order64_node_count(self, tmp_path):
        # a version-1 file of order 64 carries 64 leaves and 63 internal nodes
        rng = np.random.default_rng(16)
        gmm = random_split_gmm(rng, 64, 2)
        path = tmp_path / "gmm64.bin"
        path.write_bytes(v1_bytes(gmm, v1_split_tree(64)))
        loaded = load_gmm(path)
        assert np.array_equal(loaded.means, gmm.means)
        short = v1_split_tree(64)[:-1]
        path.write_bytes(v1_bytes(gmm, short))
        with pytest.raises(FormatError):
            load_gmm(path)

    def test_trailing_byte_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        gmm = random_split_gmm(rng, 4, 3)
        path = tmp_path / "gmm.bin"
        save_gmm(gmm, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_gmm(path)
        path.write_bytes(v1_bytes(gmm, v1_split_tree(4)) + b"\x00")
        with pytest.raises(FormatError):
            load_gmm(path)

    @pytest.mark.parametrize("case", INVALID_PARAMETERS)
    def test_invalid_parameters_are_format_errors(self, tmp_path, case):
        path = tmp_path / "bad.bin"
        path.write_bytes(v2_bytes(*INVALID_PARAMETERS[case]))
        with pytest.raises(FormatError, match="bad.bin"):
            load_gmm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_gmm(path)


class TestVersion1File:
    """tests/data/gmm_v1_order16_dim3.bin was written by the version-1 writer
    (the format with the split-tree section) from the order-16 model of
    train_by_splitting on seeded 3-d data."""

    PATH = DATA / "gmm_v1_order16_dim3.bin"

    def test_loads(self):
        gmm = load_gmm(self.PATH)
        assert (gmm.order, gmm.dim) == (16, 3)
        assert self.PATH.read_bytes() == v1_bytes(gmm, v1_split_tree(16))

    def test_resaved_as_v2_is_bitwise_equal(self, tmp_path):
        gmm = load_gmm(self.PATH)
        path = tmp_path / "v2.bin"
        save_gmm(gmm, path)
        assert struct.unpack("<I", path.read_bytes()[4:8]) == (2,)
        again = load_gmm(path)
        assert np.array_equal(again.weights, gmm.weights)
        assert np.array_equal(again.means, gmm.means)
        assert np.array_equal(again.variances, gmm.variances)

    def test_lineage_grouping_matches_oracle(self):
        bank = GmmBank(gmms=[load_gmm(self.PATH)])
        for n_groups in (1, 2, 4, 8, 16):
            expected = np.repeat(np.arange(n_groups), 16 // n_groups)
            assert np.array_equal(lineage_grouping(bank, n_groups).groups[16], expected)

    def test_changed_parent_rejected(self, tmp_path):
        raw = bytearray(self.PATH.read_bytes())
        node_section = 16 + 8 * (16 + 2 * 16 * 3) + 4
        parent_of_node_5 = node_section + 24 * 5 + 8
        assert struct.unpack_from("<q", raw, parent_of_node_5) == (2,)
        struct.pack_into("<q", raw, parent_of_node_5, 1)
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_gmm(path)


class TestGmmInvariants:
    def test_non_power_of_two_order_rejected(self):
        with pytest.raises(ValueError):
            Gmm(
                weights=np.full(3, 1 / 3),
                means=np.zeros((3, 2)),
                variances=np.ones((3, 2)),
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Gmm(weights=np.array([0.9]), means=np.zeros((1, 1)), variances=np.ones((1, 1)))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("case", ["NaN mean", "NaN weight", "infinite variance"])
    def test_non_finite_parameters_rejected(self, case):
        with pytest.raises(ValueError, match="finite"):
            Gmm(*INVALID_PARAMETERS[case])
