"""Linear-frequency cepstral feature extraction.

Waveforms at `corpus.WAV_RATE` are framed with a 20 ms Hamming window and
10 ms shift, passed through a 1024-point FFT and a bank of 20 linearly
spaced triangular filters, log-compressed and DCT-transformed.  The static
vector is log-energy plus 19 cepstra; delta and delta-delta columns bring
the dimension to 60.  The front end is fixed: every stage of the pipeline
reads the same constants below.  Features are not cached on disk: every
consumer recomputes them from the audio when it needs them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .corpus import WAV_RATE, AudioClip
from .errors import ShapeError, UnsupportedAudioError
from .tensor import _blas_single_thread

LOG_FLOOR = 1e-10
FRAME_LEN = 320  # samples at WAV_RATE: 20 ms
FRAME_SHIFT = 160  # 10 ms
FFT_SIZE = 1024
N_FILTERS = 20
N_CEPS = 19
N_DIMS = 60  # log-energy and N_CEPS cepstra, with their deltas and delta-deltas


def n_frames(n_samples: int) -> int:
    """Frames that `frame_and_window` cuts from n_samples samples: one for
    a clip shorter than a frame, else every whole frame that fits."""
    return (max(n_samples, FRAME_LEN) - FRAME_LEN) // FRAME_SHIFT + 1


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


def frame_and_window(clip: AudioClip) -> np.ndarray:
    """Slice a clip into Hamming-windowed frames (n_frames x FRAME_LEN).

    Clips shorter than one frame are zero-padded to exactly one frame;
    trailing samples that do not fill a whole frame are dropped.  A clip at
    a rate other than WAV_RATE is refused, as the frame sizes assume it.
    """
    if clip.sample_rate != WAV_RATE:
        raise UnsupportedAudioError(
            f"sample rate {clip.sample_rate} Hz is unsupported: LFCC frames are "
            f"{FRAME_LEN} samples at {WAV_RATE // 1000} kHz"
        )
    x = clip.samples
    if x.size < FRAME_LEN:
        x = np.concatenate([x, np.zeros(FRAME_LEN - x.size)])
    starts = FRAME_SHIFT * np.arange(n_frames(clip.samples.size))
    frames = x[starts[:, None] + np.arange(FRAME_LEN)[None, :]]
    frames *= _WINDOW
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


# Built once, read-only; per call they took 0.24 ms of a 4.5 ms lfcc_extract (4 s clip, 2 vCPUs).
_WINDOW = np.hamming(FRAME_LEN)
_FILTERBANK = linear_filterbank(WAV_RATE, FFT_SIZE, N_FILTERS)
_WINDOW.flags.writeable = _FILTERBANK.flags.writeable = False


def _delta(feat: np.ndarray, width: int = 2) -> np.ndarray:
    """Regression-based delta over +/-width frames, edges replicated."""
    padded = np.pad(feat, ((width, width), (0, 0)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, width + 1))
    out = np.zeros_like(feat)
    for n in range(1, width + 1):
        out += n * (padded[width + n : padded.shape[0] - width + n] - padded[width - n : -width - n])
    return out / denom


def lfcc_extract(clip: AudioClip) -> FeatureMatrix:
    """Full LFCC pipeline: frames -> power spectrum -> filterbank -> log -> DCT.

    The static vector is log frame energy, then DCT coefficients 1..N_CEPS;
    its deltas and delta-deltas follow.  Log inputs are floored at 1e-10 so
    silent frames stay finite.  The filterbank GEMM runs at one BLAS
    thread, so the features do not depend on the CPU count.
    """
    frames = frame_and_window(clip)
    spec = power_spectrum(frames, FFT_SIZE)
    with _blas_single_thread():
        fbank = spec @ _FILTERBANK.T
    log_fbank = np.log(np.maximum(fbank, LOG_FLOOR))
    ceps = dct(log_fbank, type=2, axis=1, norm="ortho")[:, 1 : N_CEPS + 1]
    energy = np.log(np.maximum(np.sum(frames**2, axis=1), LOG_FLOOR))
    static = np.column_stack([energy, ceps])
    d1 = _delta(static)
    d2 = _delta(d1)
    return FeatureMatrix(values=np.hstack([static, d1, d2]))


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

