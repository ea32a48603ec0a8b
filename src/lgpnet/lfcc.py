"""Linear-frequency cepstral feature extraction.

Waveforms are framed with a 20 ms Hamming window and 10 ms shift, passed
through a 1024-point FFT and a bank of linearly spaced triangular filters,
log-compressed and DCT-transformed.  The static vector is log-energy plus
19 cepstra; delta and delta-delta columns bring the dimension to 60.
Features are not cached on disk: every consumer recomputes them from the
audio when it needs them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .corpus import WAV_RATE, AudioClip
from .errors import ConfigError, ShapeError
from .tensor import _blas_single_thread

LOG_FLOOR = 1e-10


@dataclass
class LfccConfig:
    frame_len_ms: float = 20.0
    frame_shift_ms: float = 10.0
    fft_size: int = 1024
    n_filters: int = 20
    n_ceps: int = 19
    include_energy: bool = True
    deltas: bool = True

    def __post_init__(self):
        if self.n_ceps >= self.n_filters:
            raise ConfigError("n_ceps must be smaller than n_filters")
        if self.frame_len_ms <= 0 or self.frame_shift_ms <= 0 or self.fft_size <= 0:
            raise ConfigError("frame/fft sizes must be positive")
        # a frame of a WAV that read_wav reads must fit the FFT; the float is
        # compared first, as a huge frame_len_ms rounds to a huge integer
        samples = self.frame_len_ms * WAV_RATE / 1000.0
        if not samples <= self.fft_size + 1 or self.frame_len(WAV_RATE) > self.fft_size:
            raise ConfigError(
                f"lfcc.frame_len_ms = {self.frame_len_ms:g} gives frames of {round(samples, 0):g} samples "
                f"at {WAV_RATE // 1000} kHz, more than lfcc.fft_size = {self.fft_size}"
            )

    def frame_len(self, sample_rate: int) -> int:
        return int(round(self.frame_len_ms * sample_rate / 1000.0))

    def frame_shift(self, sample_rate: int) -> int:
        return int(round(self.frame_shift_ms * sample_rate / 1000.0))

    def n_frames(self, n_samples: int, sample_rate: int) -> int:
        """Frames that `frame_and_window` cuts from n_samples samples: one for
        a clip shorter than a frame, else every whole frame that fits."""
        flen = self.frame_len(sample_rate)
        return (max(n_samples, flen) - flen) // self.frame_shift(sample_rate) + 1

    @property
    def n_static(self) -> int:
        return self.n_ceps + (1 if self.include_energy else 0)

    @property
    def n_dims(self) -> int:
        return self.n_static * (3 if self.deltas else 1)


@dataclass
class FeatureMatrix:
    """T x D matrix of per-frame features (time-major)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError("FeatureMatrix values must be 2-d (frames x dims)")
        bad = ~np.isfinite(self.values).all(axis=1)
        if bad.any():
            raise ValueError(f"frame {int(np.argmax(bad))} is not finite")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]


def frame_and_window(clip: AudioClip, cfg: LfccConfig) -> np.ndarray:
    """Slice a clip into Hamming-windowed frames (n_frames x frame_len).

    Clips shorter than one frame are zero-padded to exactly one frame;
    trailing samples that do not fill a whole frame are dropped.
    """
    flen = cfg.frame_len(clip.sample_rate)
    shift = cfg.frame_shift(clip.sample_rate)
    if cfg.fft_size < flen:
        raise ConfigError(f"fft_size {cfg.fft_size} is smaller than the frame length {flen}")
    x = clip.samples
    if x.size < flen:
        x = np.concatenate([x, np.zeros(flen - x.size)])
    starts = shift * np.arange(cfg.n_frames(clip.samples.size, clip.sample_rate))
    frames = x[starts[:, None] + np.arange(flen)[None, :]]
    frames *= np.hamming(flen)
    return frames


def power_spectrum(frame: np.ndarray, fft_size: int = 1024) -> np.ndarray:
    """|FFT|^2 of one frame (or a stack of frames) for bins 0..fft_size/2."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ShapeError(f"frame length {frame.shape[-1]} exceeds fft_size {fft_size}")
    power = np.abs(np.fft.rfft(frame, n=fft_size))
    return np.square(power, out=power)


def linear_filterbank(sample_rate: int, fft_size: int, n_filters: int) -> np.ndarray:
    """Triangular filters with linearly spaced edges over 0..sample_rate/2."""
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    edges = np.linspace(0.0, sample_rate / 2.0, n_filters + 2)
    fb = np.zeros((n_filters, freqs.size))
    for i in range(n_filters):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs >= left) & (freqs <= center)
        falling = (freqs > center) & (freqs <= right)
        fb[i, rising] = (freqs[rising] - left) / (center - left)
        fb[i, falling] = (right - freqs[falling]) / (right - center)
    return fb


def _delta(feat: np.ndarray, width: int = 2) -> np.ndarray:
    """Regression-based delta over +/-width frames, edges replicated."""
    padded = np.pad(feat, ((width, width), (0, 0)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, width + 1))
    out = np.zeros_like(feat)
    for n in range(1, width + 1):
        out += n * (padded[width + n : padded.shape[0] - width + n] - padded[width - n : -width - n])
    return out / denom


def lfcc_extract(clip: AudioClip, cfg: LfccConfig | None = None) -> FeatureMatrix:
    """Full LFCC pipeline: frames -> power spectrum -> filterbank -> log -> DCT.

    The static vector keeps DCT coefficients 1..n_ceps; log frame energy is
    prepended when include_energy is set.  Log inputs are floored at 1e-10
    so silent frames stay finite.  The filterbank GEMM runs at one BLAS
    thread, so the features do not depend on the CPU count.
    """
    cfg = cfg or LfccConfig()
    frames = frame_and_window(clip, cfg)
    spec = power_spectrum(frames, cfg.fft_size)
    fb = linear_filterbank(clip.sample_rate, cfg.fft_size, cfg.n_filters)
    with _blas_single_thread():
        fbank = spec @ fb.T
    log_fbank = np.log(np.maximum(fbank, LOG_FLOOR))
    ceps = dct(log_fbank, type=2, axis=1, norm="ortho")[:, 1 : cfg.n_ceps + 1]
    if cfg.include_energy:
        energy = np.log(np.maximum(np.sum(frames**2, axis=1), LOG_FLOOR))
        static = np.column_stack([energy, ceps])
    else:
        static = ceps
    if cfg.deltas:
        d1 = _delta(static)
        d2 = _delta(d1)
        feat = np.hstack([static, d1, d2])
    else:
        feat = static
    return FeatureMatrix(values=feat)


def fix_length(feat: FeatureMatrix, target_frames: int = 400) -> FeatureMatrix:
    """Force the time axis to target_frames (at least 1): truncate the tail or
    tile cyclically."""
    if target_frames < 1:
        raise ShapeError(f"target_frames must be >= 1, got {target_frames}")
    t = feat.n_frames
    if t < 1:
        raise ShapeError("cannot fix the length of an empty feature matrix")
    if t == target_frames:
        return feat
    if t > target_frames:
        values = feat.values[:target_frames]
    else:
        reps = int(np.ceil(target_frames / t))
        values = np.tile(feat.values, (reps, 1))[:target_frames]
    return FeatureMatrix(values=values.copy())

