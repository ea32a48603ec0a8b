import numpy as np
import pytest

from helpers import eer_by_threshold_sweep

from lgpnet.errors import ProtocolError
from lgpnet.evaluation import (
    EerResult,
    ScoreRecord,
    compute_eer,
    compute_eer_records,
    score_file_read,
    score_file_write,
)


class TestScoreFile:
    def test_roundtrip(self, tmp_path):
        records = [
            ScoreRecord("LA_E_001", 1.2345678901234567),
            ScoreRecord("LA_E_002", -3.14),
            ScoreRecord("LA_E_003", 0.0),
        ]
        path = tmp_path / "scores.txt"
        score_file_write(path, records)
        assert score_file_read(path) == records

    def test_full_double_precision(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        path = tmp_path / "scores.txt"
        score_file_write(path, [ScoreRecord("u", value)])
        assert score_file_read(path)[0].score == value

    def test_not_a_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("LA_E_001 not_a_number\n")
        with pytest.raises(ProtocolError, match=":1"):
            score_file_read(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ok 1.0\nonly_one_field\n")
        with pytest.raises(ProtocolError, match=":2"):
            score_file_read(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert score_file_read(path) == []

    def test_nonfinite_score_rejected(self):
        with pytest.raises(ValueError):
            ScoreRecord("u", float("nan"))


class TestComputeEer:
    def test_perfect_separation(self):
        result = compute_eer(np.array([1.0, 2.0, 3.0]), np.array([-3.0, -2.0, -1.0]))
        assert result.eer == 0.0

    def test_perfect_confusion(self):
        result = compute_eer(np.array([-1.0]), np.array([1.0]))
        assert result.eer == 1.0

    def test_chance_level(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=2000)
        coin = rng.integers(0, 2, size=2000).astype(bool)
        result = compute_eer(scores[coin], scores[~coin])
        assert result.eer == pytest.approx(0.5, abs=0.05)

    def test_matches_brute_force_sweep_on_random_sets(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            nb = int(rng.integers(2, 40))
            ns = int(rng.integers(2, 40))
            sep = rng.uniform(0.0, 2.0)
            bona = rng.normal(loc=sep, size=nb)
            spoof = rng.normal(size=ns)
            if rng.random() < 0.3:  # exercise tie handling
                bona = np.round(bona, 1)
                spoof = np.round(spoof, 1)
            fast = compute_eer(bona, spoof).eer
            slow = eer_by_threshold_sweep(bona, spoof)
            assert fast == pytest.approx(slow, abs=1e-9), trial

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        bona = rng.normal(loc=1.0, size=50)
        spoof = rng.normal(size=60)
        base = compute_eer(bona, spoof).eer
        for transform in (np.tanh, np.exp, lambda s: 3 * s + 7, lambda s: s**3):
            assert compute_eer(transform(bona), transform(spoof)).eer == pytest.approx(
                base, abs=1e-12
            )

    def test_tied_scores_single_operating_point(self):
        bona = np.array([1.0, 1.0, 2.0])
        spoof = np.array([1.0, 0.0, 0.0])
        base = compute_eer(bona, spoof).eer
        permuted = compute_eer(np.array([2.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0])).eer
        assert base == permuted

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            compute_eer(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            compute_eer(np.array([1.0]), np.array([]))

    def test_threshold_sits_at_crossing(self):
        bona = np.array([0.0, 2.0, 4.0])
        spoof = np.array([1.0, 3.0, 5.0])
        result = compute_eer(bona, spoof)
        assert 0.0 < result.threshold < 5.0
        assert 0.0 < result.eer <= 1.0


class TestComputeEerRecords:
    def test_joins_on_utt_id(self):
        records = [ScoreRecord("b1", 3.0), ScoreRecord("s1", -3.0), ScoreRecord("b2", 2.0)]
        labels = {"b1": "bonafide", "b2": "bonafide", "s1": "spoof"}
        result = compute_eer_records(records, labels)
        assert isinstance(result, EerResult)
        assert result.eer == 0.0

    def test_missing_label_rejected(self):
        with pytest.raises(ProtocolError, match="mystery"):
            compute_eer_records([ScoreRecord("mystery", 1.0)], {"other": "spoof"})

    def test_duplicated_utterance_rejected(self):
        records = [ScoreRecord("b1", 3.0), ScoreRecord("s1", -3.0), ScoreRecord("b1", 3.0)]
        with pytest.raises(ProtocolError, match="b1"):
            compute_eer_records(records, {"b1": "bonafide", "s1": "spoof"})

    def test_unscored_utterance_rejected(self):
        records = [ScoreRecord("b1", 3.0), ScoreRecord("s1", -3.0)]
        labels = {"b1": "bonafide", "s1": "spoof", "s2": "spoof"}
        with pytest.raises(ProtocolError, match="s2"):
            compute_eer_records(records, labels)
