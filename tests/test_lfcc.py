import numpy as np
import pytest
from scipy.fft import dct

from helpers import count_frames_by_hand, dft_power_by_hand

from lgpnet.corpus import AudioClip
from lgpnet.errors import ConfigError, ShapeError
from lgpnet.lfcc import (
    FeatureMatrix,
    LfccConfig,
    fix_length,
    frame_and_window,
    lfcc_extract,
    linear_filterbank,
    power_spectrum,
)


def clip_of(samples):
    return AudioClip(samples=np.asarray(samples, dtype=np.float64), sample_rate=16000)


class TestFraming:
    def test_480_samples_two_frames(self):
        frames = frame_and_window(clip_of(np.ones(480)), LfccConfig())
        assert frames.shape == (2, 320)
        assert frames.shape[0] == count_frames_by_hand(480, 320, 160)

    def test_320_samples_one_frame(self):
        frames = frame_and_window(clip_of(np.ones(320)), LfccConfig())
        assert frames.shape == (1, 320)

    def test_short_clip_zero_padded(self):
        frames = frame_and_window(clip_of(np.ones(100)), LfccConfig())
        assert frames.shape == (1, 320)
        # samples beyond the real signal were padding; Hamming never zeroes a sample
        assert np.all(frames[0, 100:] == 0.0)
        assert np.all(frames[0, :100] != 0.0)

    def test_hamming_window_applied(self):
        frames = frame_and_window(clip_of(np.ones(320)), LfccConfig())
        assert np.allclose(frames[0], np.hamming(320))

    def test_frame_count_against_hand_count(self):
        rng = np.random.default_rng(0)
        for n in [320, 321, 479, 480, 481, 1000, 16000, int(rng.integers(320, 50000))]:
            frames = frame_and_window(clip_of(np.ones(n)), LfccConfig())
            assert frames.shape[0] == count_frames_by_hand(n, 320, 160), n

    def test_frame_starts(self):
        x = np.arange(480, dtype=np.float64)
        frames = frame_and_window(clip_of(x), LfccConfig())
        w = np.hamming(320)
        assert np.allclose(frames[0], x[:320] * w)
        assert np.allclose(frames[1], x[160:480] * w)


class TestFrameCount:
    """LfccConfig.n_frames gives the frame count from the sample count alone."""

    @pytest.mark.parametrize(
        "n", [1, 100, 319, 320, 321, 480, 320 + 160 * 97, 320 + 160 * 97 + 159, 16000, 48_123],
    )
    def test_matches_lfcc_extract(self, n):
        cfg = LfccConfig()
        feat = lfcc_extract(clip_of(np.random.default_rng(n).normal(size=n)), cfg)
        assert cfg.n_frames(n, 16000) == feat.n_frames == count_frames_by_hand(n, 320, 160)

    @pytest.mark.parametrize("n", [50, 200, 201, 8000])
    def test_other_frame_sizes_and_rate(self, n):
        cfg = LfccConfig(frame_len_ms=25.0, frame_shift_ms=12.5)
        clip = AudioClip(samples=np.random.default_rng(n).normal(size=n), sample_rate=8000)
        assert cfg.n_frames(n, 8000) == lfcc_extract(clip, cfg).n_frames == count_frames_by_hand(n, 200, 100)


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.all(power_spectrum(np.zeros(320), 1024) == 0.0)

    def test_constant_frame_dc_bin_value(self):
        c = 0.37
        spec = power_spectrum(np.full(320, c), 1024)
        assert spec[0] == pytest.approx((320 * c) ** 2, rel=1e-12)
        assert np.argmax(spec) == 0

    def test_sinusoid_peaks_at_its_bin(self):
        # bin-center frequency: k * fs / fft_size with the frame zero-padded to 1024
        k = 40
        n = np.arange(320)
        frame = np.sin(2 * np.pi * k * n / 1024)
        spec = power_spectrum(frame, 1024)
        oracle = dft_power_by_hand(frame, 1024)
        assert np.argmax(spec) == np.argmax(oracle) == k
        assert np.allclose(spec, oracle, atol=1e-6)

    def test_matches_direct_dft_on_random_frame(self):
        rng = np.random.default_rng(1)
        frame = rng.normal(size=320)
        assert np.allclose(power_spectrum(frame, 1024), dft_power_by_hand(frame, 1024), atol=1e-8)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        frame = rng.normal(size=320)
        spec = power_spectrum(frame, 1024)
        # rfft keeps bins 0..512; bins 1..511 appear twice in the full spectrum
        full_sum = spec[0] + 2 * spec[1:-1].sum() + spec[-1]
        energy = np.sum(frame**2)
        assert full_sum == pytest.approx(1024 * energy, rel=1e-9)

    def test_frame_longer_than_fft_rejected(self):
        with pytest.raises(Exception):
            power_spectrum(np.zeros(2000), 1024)


class TestLfccExtract:
    def test_dimension_is_60(self):
        rng = np.random.default_rng(3)
        feat = lfcc_extract(clip_of(rng.normal(size=8000) * 0.1))
        assert feat.n_dims == 60

    def test_deltas_zero_for_constant_static(self):
        # a DC clip yields identical frames, so static features are constant in time
        feat = lfcc_extract(clip_of(np.full(16000, 0.5)))
        static, d1, d2 = feat.values[:, :20], feat.values[:, 20:40], feat.values[:, 40:60]
        assert np.allclose(static, static[0], atol=1e-12)
        assert np.allclose(d1, 0.0, atol=1e-12)
        assert np.allclose(d2, 0.0, atol=1e-12)

    def test_one_second_frame_count(self):
        rng = np.random.default_rng(4)
        feat = lfcc_extract(clip_of(rng.normal(size=16000) * 0.1))
        assert feat.n_frames == count_frames_by_hand(16000, 320, 160)

    def test_finite_on_silence_and_noise(self):
        assert np.all(np.isfinite(lfcc_extract(clip_of(np.zeros(4000))).values))
        rng = np.random.default_rng(5)
        assert np.all(np.isfinite(lfcc_extract(clip_of(rng.normal(size=4000))).values))

    def test_no_energy_no_deltas_dims(self):
        cfg = LfccConfig(include_energy=False, deltas=False)
        feat = lfcc_extract(clip_of(np.random.default_rng(6).normal(size=4000)), cfg)
        assert feat.n_dims == 19

    def test_dct_constant_energy_in_coefficient_zero(self):
        const = np.full(20, 3.7)
        coeffs = dct(const, type=2, norm="ortho")
        assert abs(coeffs[0]) > 1.0
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_filterbank_covers_every_filter(self):
        fb = linear_filterbank(16000, 1024, 20)
        assert fb.shape == (20, 513)
        assert np.all(fb.sum(axis=1) > 0)
        assert fb.max() == pytest.approx(1.0, abs=0.05)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LfccConfig(n_ceps=20, n_filters=20)
        with pytest.raises(ConfigError, match="lfcc.frame_len_ms = 20 gives frames of 320 samples at 16 kHz"):
            LfccConfig(fft_size=128)
        LfccConfig(frame_len_ms=64.0)  # 1024 samples fill the FFT exactly

    def test_a_frame_longer_than_the_fft_at_another_rate_is_refused(self):
        # 25 ms is 400 samples at 16 kHz, which the config accepts, but 1200 at 48 kHz
        clip = AudioClip(samples=np.ones(4800), sample_rate=48000)
        with pytest.raises(ConfigError, match="fft_size 1024 is smaller than the frame length 1200"):
            frame_and_window(clip, LfccConfig(frame_len_ms=25.0))


class TestFixLength:
    def _ramp_feature(self, t, d=4):
        values = np.arange(t, dtype=np.float64)[:, None] * np.ones(d)
        return FeatureMatrix(values=values)

    def test_truncates_head(self):
        out = fix_length(self._ramp_feature(500), 400)
        assert out.n_frames == 400
        assert np.array_equal(out.values[:, 0], np.arange(400))

    def test_identity_at_target(self):
        feat = self._ramp_feature(400)
        out = fix_length(feat, 400)
        assert np.array_equal(out.values, feat.values)

    def test_cyclic_tiling(self):
        out = fix_length(self._ramp_feature(150), 400)
        expected = np.concatenate([np.arange(150), np.arange(150), np.arange(100)])
        assert np.array_equal(out.values[:, 0], expected)

    def test_idempotent(self):
        once = fix_length(self._ramp_feature(123), 400)
        twice = fix_length(once, 400)
        assert np.array_equal(once.values, twice.values)

    @pytest.mark.parametrize("target", [0, -5])
    @pytest.mark.parametrize("t", [3, 10])
    def test_target_below_1_rejected(self, t, target):
        # -5 once kept the first t - 5 frames through a negative slice
        with pytest.raises(ShapeError, match=f"target_frames must be >= 1, got {target}"):
            fix_length(self._ramp_feature(t), target)


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FeatureMatrix(values=np.array([[np.nan, 1.0]]))

    def test_names_the_first_row_that_is_not_finite(self):
        values = np.zeros((5, 3))
        values[3, 1], values[4, 0] = np.inf, np.nan
        with pytest.raises(ValueError, match=r"^frame 3 is not finite$"):
            FeatureMatrix(values=values)

    def test_rejects_wrong_rank(self):
        with pytest.raises(Exception):
            FeatureMatrix(values=np.zeros(5))
