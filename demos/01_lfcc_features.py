"""Walk through the LFCC front-end on a synthetic waveform.

A 1.2-second clip combining a 440 Hz tone and noise is framed with a 20 ms
Hamming window and 10 ms shift, passed through a 1024-point FFT and a
linear triangular filterbank, and turned into 60-dimensional features
(log-energy + 19 cepstra, plus deltas and delta-deltas).
"""
import numpy as np

from lgpnet import AudioClip, fix_length, frame_and_window, lfcc_extract, power_spectrum
from lgpnet.lfcc import FFT_SIZE, N_CEPS

rng = np.random.default_rng(0)
sr = 16000
t = np.arange(int(1.2 * sr)) / sr
wave = 0.4 * np.sin(2 * np.pi * 440 * t) + 0.05 * rng.normal(size=t.size)
clip = AudioClip(samples=wave, sample_rate=sr, utt_id="demo")

frames = frame_and_window(clip)
print(f"waveform: {clip.samples.size} samples at {sr} Hz")
print(f"frames:   {frames.shape[0]} x {frames.shape[1]} (20 ms window, 10 ms shift)")

spectrum = power_spectrum(frames[10], FFT_SIZE)
peak_bin = int(np.argmax(spectrum))
print(f"frame 10 spectrum peaks at bin {peak_bin} = {peak_bin * sr / FFT_SIZE:.0f} Hz "
      f"(tone is at 440 Hz)")

feat = lfcc_extract(clip)
print(f"LFCC:     {feat.n_frames} frames x {feat.n_dims} dims "
      f"({N_CEPS} cepstra + energy, deltas, delta-deltas)")

fixed = fix_length(feat, 400)
print(f"fixed:    {fixed.n_frames} frames (truncated or cyclically tiled to 400)")

short = AudioClip(samples=wave[: sr // 4], sample_rate=sr)
tiled = fix_length(lfcc_extract(short), 400)
print(f"a 0.25 s clip has {lfcc_extract(short).n_frames} frames; "
      f"after tiling it is {tiled.n_frames} frames long")
