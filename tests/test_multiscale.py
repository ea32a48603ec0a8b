import sys

import numpy as np
import pytest
from scipy.io import wavfile

import lgpnet.tensor as tensor_mod
from helpers import (
    blas_threads,
    group_slices,
    index_lists_by_offsets,
    random_bank,
    random_grouping_by_loop,
    random_split_gmm,
    whole_lgp,
)

from lgpnet.errors import ConfigError, FormatError, ManifestError, ShapeError
from lgpnet.lfcc import fix_length, lfcc_extract
from lgpnet.model import ModelCfg, ResidualBlockCfg, build_model, load_checkpoint, save_checkpoint
from lgpnet.corpus import AudioClip, Manifest, UtteranceLabel, read_wav
from lgpnet.multiscale import (
    GmmBank,
    GroupAssignment,
    GroupLgp,
    ManifestFrames,
    lineage_grouping,
    random_grouping,
    utterance_lgp,
)


def arithmetic_grouping_oracle(order: int, n_groups: int) -> np.ndarray:
    """For a uniformly split tree, component c sits under level-(log2 G) node c // (K//G)."""
    return np.arange(order) // (order // n_groups)


def ancestor_at_level(comp: int, order: int, level_size: int) -> int:
    """Walk the split parent relation c -> c // 2 up to the level with level_size nodes."""
    while order > level_size:
        comp //= 2
        order //= 2
    return comp


def descendants_at_order(node: int, level_size: int, order: int) -> list[int]:
    """Walk the split child relation c -> (2c, 2c+1) down to the given order."""
    nodes = [node]
    while level_size < order:
        nodes = [child for c in nodes for child in (2 * c, 2 * c + 1)]
        level_size *= 2
    return nodes


class TestLineageGrouping:
    def test_group_sizes_order64_g8(self):
        rng = np.random.default_rng(0)
        bank = GmmBank(gmms=[random_split_gmm(rng, 64, 3)])
        assignment = lineage_grouping(bank, 8)
        counts = np.bincount(assignment.groups[64])
        assert np.all(counts == 8)

    def test_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(1)
        bank = random_bank(rng, [16, 32, 64], 3)
        for g in (2, 4, 8):
            assignment = lineage_grouping(bank, g)
            for order in (16, 32, 64):
                assert np.array_equal(
                    assignment.groups[order], arithmetic_grouping_oracle(order, g)
                )

    def test_shared_ancestor_cogrouped(self):
        rng = np.random.default_rng(2)
        bank = GmmBank(gmms=[random_split_gmm(rng, 64, 2)])
        assignment = lineage_grouping(bank, 8)
        seen = set()
        for node in range(8):
            comps = descendants_at_order(node, 8, 64)
            assert len(comps) == 8
            groups = {int(assignment.groups[64][c]) for c in comps}
            assert len(groups) == 1
            seen |= groups
        assert seen == set(range(8))

    def test_lineage_consistency_iff(self):
        rng = np.random.default_rng(3)
        gmm = random_split_gmm(rng, 32, 2)
        bank = GmmBank(gmms=[gmm])
        n_groups = 4
        assignment = lineage_grouping(bank, n_groups)
        ancestor = {comp: ancestor_at_level(comp, 32, n_groups) for comp in range(32)}
        assign = assignment.groups[32]
        for c1 in range(32):
            for c2 in range(32):
                assert (assign[c1] == assign[c2]) == (ancestor[c1] == ancestor[c2])

    def test_errors(self):
        rng = np.random.default_rng(4)
        bank = GmmBank(gmms=[random_split_gmm(rng, 4, 2)])
        with pytest.raises(ConfigError):
            lineage_grouping(bank, 8)  # order < G
        with pytest.raises(ConfigError):
            lineage_grouping(bank, 3)  # not a power of two


class TestRandomGrouping:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        bank = random_bank(rng, [16, 32], 3)
        a = random_grouping(bank, 4, seed=123)
        b = random_grouping(bank, 4, seed=123)
        for order in (16, 32):
            assert np.array_equal(a.groups[order], b.groups[order])

    def test_balanced(self):
        rng = np.random.default_rng(6)
        bank = GmmBank(gmms=[random_split_gmm(rng, 64, 2)])
        assignment = random_grouping(bank, 8, seed=0)
        assert np.all(np.bincount(assignment.groups[64]) == 8)

    def test_seeds_differ(self):
        rng = np.random.default_rng(7)
        bank = GmmBank(gmms=[random_split_gmm(rng, 64, 2)])
        baseline = random_grouping(bank, 8, seed=0).groups[64]
        assert any(
            not np.array_equal(random_grouping(bank, 8, seed=s).groups[64], baseline)
            for s in range(1, 11)
        )


class TestGroupLayout:
    """`columns` and `index_lists` against the nested-loop layout."""

    @pytest.fixture(scope="class")
    def banks(self):
        rng = np.random.default_rng(40)
        return [random_bank(rng, [8, 16, 32], 2), random_bank(rng, [64, 128, 256, 512, 1024], 2)]

    @pytest.mark.parametrize("n_groups", [1, 2, 4, 8])
    def test_columns_and_index_lists_match_offsets_loop(self, banks, n_groups):
        for bank in banks:
            for assignment in (
                lineage_grouping(bank, n_groups),
                random_grouping(bank, n_groups, seed=n_groups),
            ):
                expected = index_lists_by_offsets(assignment)
                got = assignment.index_lists()
                assert len(got) == n_groups
                for a, b in zip(got, expected):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert np.array_equal(assignment.columns, np.concatenate(expected))

    def test_random_grouping_matches_loop(self, banks):
        for bank in banks:
            for seed in range(5):
                expected = random_grouping_by_loop(bank, 8, seed)
                got = random_grouping(bank, 8, seed).groups
                assert sorted(got) == sorted(expected)
                for order in expected:
                    assert np.array_equal(got[order], expected[order])


class TestMultiOrderLgp:
    """The whole multi-order LGP: the one input of a one-group `GroupLgp`."""

    def test_default_bank_dimensions(self):
        rng = np.random.default_rng(8)
        bank = random_bank(rng, [64, 128, 256, 512, 1024], 8)
        assert whole_lgp(bank, rng.normal(size=(1, 400, 8))).shape == (1, 1984, 400)

    def test_single_order_bank(self):
        rng = np.random.default_rng(9)
        bank = GmmBank(gmms=[random_split_gmm(rng, 64, 4)])
        assert whole_lgp(bank, rng.normal(size=(1, 400, 4))).shape == (1, 64, 400)

    def test_block_equals_single_transform(self):
        rng = np.random.default_rng(10)
        bank = random_bank(rng, [8, 16], 3)
        frames = rng.normal(size=(1, 50, 3))
        lgp = whole_lgp(bank, frames)
        first = whole_lgp(GmmBank(gmms=bank.gmms[:1]), frames)
        second = whole_lgp(GmmBank(gmms=bank.gmms[1:]), frames)
        assert np.array_equal(lgp[:, :8], first)
        assert np.array_equal(lgp[:, 8:], second)

    def test_wrong_feature_dim_rejected(self):
        rng = np.random.default_rng(42)
        bank = random_bank(rng, [8, 16], 3)
        for dim in (2, 4, 6):
            with pytest.raises(ShapeError):
                whole_lgp(bank, rng.normal(size=(1, 10, dim)))

    def test_utterance_lgp_is_the_one_group_input_of_its_frames(self):
        rng = np.random.default_rng(43)
        clip = AudioClip(samples=0.1 * rng.normal(size=16000), sample_rate=16000)
        bank = random_bank(rng, [8, 16], 60)
        frames = fix_length(lfcc_extract(clip), 50).values
        got = utterance_lgp(clip, bank, target_frames=50).values
        assert got.tobytes() == np.ascontiguousarray(whole_lgp(bank, frames[None])[0].T).tobytes()
        with pytest.raises(ShapeError, match="feature dim 60 does not match bank dim 3"):
            utterance_lgp(clip, random_bank(rng, [8], 3))


class TestGroupSlices:
    def test_default_shape_arithmetic(self):
        rng = np.random.default_rng(11)
        bank = random_bank(rng, [64, 128, 256, 512, 1024], 4)
        assignment = lineage_grouping(bank, 8)
        assert assignment.group_dim() == (64 + 128 + 256 + 512 + 1024) // 8 == 248
        slices = group_slices(assignment, rng.normal(size=(400, 1984)))
        assert len(slices) == 8
        assert all(s.shape == (400, 248) for s in slices)

    def test_partition_reconstructs_input(self):
        rng = np.random.default_rng(12)
        bank = random_bank(rng, [8, 16, 32], 3)
        assignment = random_grouping(bank, 4, seed=3)
        feat = rng.normal(size=(20, 56))
        rebuilt = np.empty_like(feat)
        for cols, s in zip(assignment.index_lists(), group_slices(assignment, feat)):
            rebuilt[:, cols] = s
        assert np.array_equal(rebuilt, feat)

    def test_g1_row_permutation_identity(self):
        rng = np.random.default_rng(13)
        bank = random_bank(rng, [8, 16], 2)
        assignment = lineage_grouping(bank, 1)
        feat = rng.normal(size=(10, 24))
        (only,) = group_slices(assignment, feat)
        # with G=1 and ascending order/component ordering the slice is the input itself
        assert np.array_equal(only, feat)

    def test_every_component_in_exactly_one_group(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            orders = [8 << i for i in range(int(rng.integers(1, 4)))]
            bank = random_bank(rng, orders, 2)
            for g in (1, 2, 4, 8):
                assignment = lineage_grouping(bank, g)
                lists = assignment.index_lists()
                combined = np.concatenate(lists)
                assert np.array_equal(np.sort(combined), np.arange(sum(orders)))
                assert sum(x.size for x in lists) == sum(orders)


class TestAssignmentSerialization:
    def test_roundtrip(self, tmp_path):
        # an assignment is serialized as part of a model checkpoint
        rng = np.random.default_rng(16)
        bank = random_bank(rng, [8, 16], 2)
        assignment = random_grouping(bank, 4, seed=9)
        cfg = ModelCfg(
            n_groups=4,
            n_blocks=1,
            block=ResidualBlockCfg(channels=4),
            group_input_dim=(8 + 16) // 4,
        )
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(cfg, seed=0), assignment)
        _, loaded = load_checkpoint(path)
        assert loaded.n_groups == assignment.n_groups
        for order in (8, 16):
            assert np.array_equal(loaded.groups[order], assignment.groups[order])

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            GroupAssignment(groups={4: np.array([0, 0, 0, 1])}, n_groups=2)


class TestGroupAssignment:
    def test_does_not_alias_input(self):
        d = {4: [0, 0, 1, 1]}
        a = GroupAssignment(groups=d, n_groups=2)
        assert a.groups is not d
        assert type(d[4]) is list and d[4] == [0, 0, 1, 1]
        assert a.groups[4].dtype == np.int64
        source = np.array([0, 0, 1, 1])
        b = GroupAssignment(groups={4: source}, n_groups=2)
        b.groups[4][0] = 1
        assert np.array_equal(source, [0, 0, 1, 1])


class TestManifestFrames:
    @pytest.mark.parametrize(
        "idx",
        [[0, 3, 7], [9, 2, 5, 0], [4, 4, 1, 4], [6]],
        ids=["sorted", "unsorted", "repeated", "length-1"],
    )
    def test_batch_equals_stacked_rows(self, tiny_pipeline, idx):
        p = tiny_pipeline
        src = ManifestFrames(p["manifest"], p["lfcc_cfg"], 50)
        stacked = src[np.arange(len(src))]
        batch = src[np.array(idx)]
        assert batch.shape == (len(idx), 50, 60)
        assert np.array_equal(batch, stacked[idx])

    def test_batch_on_more_workers_than_cores_equals_inline(self, tiny_pipeline, forced_pool, monkeypatch):
        # workers write their utterances' rows into one batch array
        p = tiny_pipeline
        src = ManifestFrames(p["manifest"], p["lfcc_cfg"], 50)
        idx = np.array([3, 0, 7, 7, 12, 5, 9])
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        inline = src[idx]
        forced_pool(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = src[idx]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, inline)

    def test_batches_are_c_contiguous(self, tiny_pipeline):
        p = tiny_pipeline
        src = ManifestFrames(p["manifest"], p["lfcc_cfg"], 50)
        for idx in ([0, 3, 7], [5]):
            assert src[np.array(idx)].flags.c_contiguous

    @pytest.mark.parametrize("split", ["train", "dev", "eval"])
    def test_empty_manifest_names_its_split(self, tiny_pipeline, split):
        p = tiny_pipeline
        with pytest.raises(ManifestError, match=f"{split} manifest is empty"):
            ManifestFrames(Manifest(entries=[], split=split), p["lfcc_cfg"], 50)

    @pytest.mark.parametrize("frames", [0, -5])
    def test_target_frames_below_one_refused_at_construction(self, tiny_pipeline, frames):
        p = tiny_pipeline
        with pytest.raises(ShapeError, match=f"target_frames must be >= 1, got {frames}"):
            ManifestFrames(p["manifest"], p["lfcc_cfg"], frames)

    def test_unreadable_wav_fails_at_construction(self, tiny_pipeline, tmp_path):
        p = tiny_pipeline
        junk = tmp_path / "junk.wav"
        junk.write_bytes(b"junk")
        label = UtteranceLabel(utt_id="JUNK", key="spoof")
        manifest = Manifest(entries=[*p["manifest"].entries, (junk, label)])
        with pytest.raises(FormatError, match="junk.wav"):
            ManifestFrames(manifest, p["lfcc_cfg"], 50)

    def test_the_first_loud_file_of_a_batch_is_named(self, tiny_pipeline, tmp_path, two_workers):
        # finite samples whose LFCC overflows, in two files of one batch: the map stops at
        # the first failure and names the first such file in batch order
        p = tiny_pipeline
        entries = list(p["manifest"].entries[:6])
        samples = read_wav(entries[0][0]).samples
        for k in (2, 4):
            wavfile.write(tmp_path / f"LOUD{k}.wav", 16000, 1e200 * samples)
            entries[k] = (tmp_path / f"LOUD{k}.wav", entries[k][1])
        src = ManifestFrames(Manifest(entries=entries), p["lfcc_cfg"], 50)
        with pytest.raises(FormatError) as refused:
            src[np.arange(6)]
        assert str(refused.value) == f"{tmp_path / 'LOUD2.wav'}: frame 0 is not finite"
        assert np.isfinite(src[np.array([0, 1, 3, 5])]).all()

    def test_stacked_equals_each_utterance(self, tiny_pipeline):
        p = tiny_pipeline
        src = ManifestFrames(p["manifest"], p["lfcc_cfg"], 50)
        assert len(src) == len(p["manifest"])
        assert np.array_equal(src.labels, p["labels"])
        assert src.utt_ids == p["utt_ids"]
        for i, (path, _) in enumerate(p["manifest"].entries):
            one = fix_length(lfcc_extract(read_wav(path), p["lfcc_cfg"]), 50).values
            assert np.array_equal(p["feats"][i], one)


class TestGroupLgp:
    @pytest.mark.parametrize("t", [1, 2, 4, 5, 400])
    @pytest.mark.parametrize("grouping", ["lineage", "random"])
    def test_each_group_input_is_its_columns_of_the_utterance_lgp(self, grouping, t):
        # bitwise where OpenBLAS computes a column with the same kernel in the (T, 248) and
        # the (T, 1984) product: with OpenBLAS 0.3.31's SkylakeX kernels, at T >= 5 with
        # the default bank.  At T <= 4 they are picked by the product's width, so the
        # products differ by rounding, which the normalization over so few frames
        # magnifies (to 1e-11 at T = 2).
        rng = np.random.default_rng(62)
        bank = random_bank(rng, [64, 128, 256, 512, 1024], 60)
        assignment = lineage_grouping(bank, 8) if grouping == "lineage" else random_grouping(bank, 8, seed=4)
        frames = rng.normal(size=(3, t, 60))
        lgp = GroupLgp(bank, assignment)
        full = whole_lgp(bank, frames)
        for g, cols in enumerate(assignment.index_lists()):
            x = lgp.input(frames, g).data
            assert x.shape == (3, 248, t) and x.flags.c_contiguous
            for j in range(3):
                want = np.ascontiguousarray(full[j][cols])
                if 1 < t < 5:
                    assert np.allclose(x[j], want, rtol=1e-9, atol=1e-9)
                else:
                    assert x[j].tobytes() == want.tobytes()

    def test_coefficients_are_the_groups_columns(self):
        rng = np.random.default_rng(63)
        bank = random_bank(rng, [8, 16], 3)
        assignment = random_grouping(bank, 2, seed=5)
        lgp = GroupLgp(bank, assignment)
        assert lgp.assignment is assignment
        for coef, cols in zip(lgp.coefficients, assignment.index_lists()):
            assert np.array_equal(coef, bank.coefficients[:, cols])

    def test_mismatched_orders_and_frames_refused(self):
        rng = np.random.default_rng(64)
        bank = random_bank(rng, [8, 16], 3)
        with pytest.raises(ShapeError, match=r"bank orders \[8, 16\] differ from the grouping's \[8\]"):
            GroupLgp(bank, lineage_grouping(random_bank(rng, [8], 3), 2))
        lgp = GroupLgp(bank, lineage_grouping(bank, 2))
        for bad in (np.zeros((2, 5, 4)), np.zeros((5, 3))):
            with pytest.raises(ShapeError, match="are not N x T x 3"):
                lgp.input(bad, 0)


class TestGmmBank:
    def test_orders_must_increase(self):
        rng = np.random.default_rng(17)
        g8 = random_split_gmm(rng, 8, 2)
        with pytest.raises(ValueError):
            GmmBank(gmms=[g8, random_split_gmm(rng, 8, 2)])

    def test_dims_must_agree(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ShapeError):
            GmmBank(gmms=[random_split_gmm(rng, 8, 2), random_split_gmm(rng, 16, 3)])


class TestFrontEndBlasThreads:
    """LFCC and LGP features are bitwise the same whatever the BLAS thread count."""

    def test_lfcc_and_lgp_equal_at_one_and_two_threads(self):
        rng = np.random.default_rng(61)
        clip = AudioClip(samples=0.1 * rng.normal(size=64000), sample_rate=16000)  # 399 frames
        bank = random_bank(rng, [64, 128, 256, 512, 1024], 60)
        for fn in (lambda: lfcc_extract(clip).values, lambda: utterance_lgp(clip, bank).values):
            with blas_threads(1):
                one = fn()
            with blas_threads(2):
                two = fn()
            assert np.array_equal(one, two)
