"""Audio and protocol-file I/O producing labeled utterance manifests.

Only mono 16 kHz PCM WAV is accepted; FLAC corpora must be converted
beforehand.  Protocol files follow the ASVspoof convention of
whitespace-separated ``speaker_id utt_id <unused> attack_id key`` lines.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import FormatError, ManifestError, ProtocolError, UnsupportedAudioError

KEY_BONAFIDE = "bonafide"
KEY_SPOOF = "spoof"

# Class indices used for training labels and logit columns everywhere in
# the package: spoof = 0, bonafide = 1 (bona fide is the "positive" class).
LABEL_SPOOF = 0
LABEL_BONAFIDE = 1

# The one sample rate `read_wav` accepts: the LFCC frame sizes are counted
# in samples at it.
WAV_RATE = 16000


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    utt_id: str = ""

    def __post_init__(self):
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("AudioClip requires a non-empty 1-d sample array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class UtteranceLabel:
    utt_id: str
    key: str
    attack_id: str | None = None

    def __post_init__(self):
        if self.key not in (KEY_BONAFIDE, KEY_SPOOF):
            raise ValueError(f"key must be '{KEY_BONAFIDE}' or '{KEY_SPOOF}', got {self.key!r}")


@dataclass
class Manifest:
    """Ordered list of (audio path, label) pairs for one corpus split."""

    entries: list[tuple[Path, UtteranceLabel]]
    split: str = "train"

    def __post_init__(self):
        if self.split not in ("train", "dev", "eval"):
            raise ValueError(f"split must be train/dev/eval, got {self.split!r}")
        counts = Counter(label.utt_id for _, label in self.entries)
        repeated = [utt_id for utt_id, n in counts.items() if n > 1]
        if repeated:
            raise ManifestError(f"duplicate utt_ids in the {self.split} manifest, "
                                f"{len(repeated)} listed more than once: {_first_few(repeated)}")

    def __len__(self):
        return len(self.entries)


def label_index(label: UtteranceLabel) -> int:
    """Class index of a label: spoof -> 0, bonafide -> 1."""
    return LABEL_BONAFIDE if label.key == KEY_BONAFIDE else LABEL_SPOOF


def _wav_samples(path: Path, mmap: bool) -> tuple[int, np.ndarray]:
    """Sample rate and sample array of a mono 16 kHz WAV of 16-bit PCM or of
    32- or 64-bit float samples."""
    try:
        rate, data = wavfile.read(path, mmap=mmap)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: not a readable PCM WAV file ({exc})") from exc
    if rate != WAV_RATE:
        raise UnsupportedAudioError(f"{path}: sample rate {rate} Hz is unsupported; resample to 16 kHz")
    if data.ndim != 1:
        raise UnsupportedAudioError(
            f"{path}: {data.shape[1]}-channel audio is unsupported; downmix to mono first"
        )
    if data.dtype not in (np.int16, np.float32, np.float64):
        raise UnsupportedAudioError(
            f"{path}: sample format {data.dtype} is unsupported (use 16-bit PCM or 32- or 64-bit float)"
        )
    return int(rate), data


def read_wav(path: str | Path, utt_id: str = "") -> AudioClip:
    """Read a mono WAV file of 16-bit int or 32- or 64-bit float samples.

    Integer samples are divided by 2^(bits-1) so both sample formats land
    on the same [-1, 1] scale.  Float samples that are NaN or infinite are
    refused with the file's path.
    """
    path = Path(path)
    rate, data = _wav_samples(path, mmap=False)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    else:
        samples = data.astype(np.float64)
        if not np.isfinite(samples).all():
            raise FormatError(f"{path}: non-finite sample values")
    return AudioClip(samples=samples, sample_rate=rate, utt_id=utt_id or path.stem)


def check_wav(path: str | Path) -> tuple[int, int]:
    """Raise what read_wav would raise on this file's header, without reading
    the samples; return the sample rate and sample count read_wav would give.

    Only the header is parsed; the sample array is memory-mapped, never read.
    Sample values (NaN or infinite floats) are checked when read_wav reads the file.
    """
    path = Path(path)
    try:
        rate, data = _wav_samples(path, mmap=True)
    except FormatError:
        # the memory map also refuses a data chunk cut short, which a full read accepts
        clip = read_wav(path)
        return clip.sample_rate, clip.samples.size
    AudioClip(samples=data, sample_rate=rate)
    return rate, data.size


def parse_protocol(path: str | Path) -> list[UtteranceLabel]:
    """Parse an ASVspoof-style protocol file into utterance labels.

    Each non-empty line holds ``speaker_id utt_id <unused> attack_id key``
    where attack_id is ``-`` for bona fide utterances.
    """
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 5:
                raise ProtocolError(
                    f"{path}:{lineno}: expected 5 whitespace-separated fields, got {len(fields)}"
                )
            _, utt_id, _, attack, key = fields
            if key not in (KEY_BONAFIDE, KEY_SPOOF):
                raise ProtocolError(f"{path}:{lineno}: unknown key {key!r}")
            labels.append(
                UtteranceLabel(utt_id=utt_id, key=key, attack_id=None if attack == "-" else attack)
            )
    return labels


def serialize_protocol(labels: list[UtteranceLabel], path: str | Path) -> None:
    """Write labels back out in the protocol format accepted by parse_protocol."""
    with open(path, "w", encoding="utf-8") as fh:
        for label in labels:
            attack = label.attack_id if label.attack_id is not None else "-"
            fh.write(f"- {label.utt_id} - {attack} {label.key}\n")


def build_manifest(
    protocol: list[UtteranceLabel], audio_dir: str | Path, split: str = "train"
) -> Manifest:
    """Resolve each utt_id to ``audio_dir/<utt_id>.wav`` in protocol order.

    Missing files raise one ManifestError line that gives their count and the
    first few ids, and says when `<utt_id>.flac` files stand in their place."""
    audio_dir = Path(audio_dir)
    entries = []
    missing = []
    for label in protocol:
        wav = audio_dir / f"{label.utt_id}.wav"
        if not wav.is_file():
            missing.append(label.utt_id)
        else:
            entries.append((wav, label))
    if missing:
        raise ManifestError(_missing_audio_message(missing, len(protocol), audio_dir))
    return Manifest(entries=entries, split=split)


def _missing_audio_message(missing: list[str], total: int, audio_dir: Path) -> str:
    """One line for the utt_ids without a WAV under audio_dir: how many, the
    first few, and how many of them are there as FLAC instead."""
    message = (f"{len(missing)} of {total} utterances have no <utt_id>.wav under {audio_dir}: "
               f"{_first_few(missing)}")
    flac = sum((audio_dir / f"{utt_id}.flac").is_file() for utt_id in missing)
    if flac:
        message += (f"; {flac} of them are there as <utt_id>.flac, which lgpnet does not read: "
                    "convert them to 16 kHz mono WAV first")
    return message


def _first_few(ids: list[str], shown: int = 5) -> str:
    """The first `shown` of ids, comma-separated, with ", ..." when there are more."""
    return ", ".join(ids[:shown]) + (", ..." if len(ids) > shown else "")
