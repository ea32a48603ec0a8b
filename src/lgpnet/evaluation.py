"""Score files and equal-error-rate computation.

Scores follow the convention "higher means more likely bona fide".  The
EER is read off the ROC at the point where the false-acceptance rate
(spoof trials accepted) equals the false-rejection rate (bona fide trials
rejected), interpolating linearly between adjacent operating points when
the two curves cross between thresholds.  Tied scores collapse into a
single operating point, and because interpolation only uses the FAR/FRR
values, the EER is invariant under any strictly increasing transform of
the scores.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ProtocolError

@dataclass(frozen=True)
class ScoreRecord:
    utt_id: str
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError(f"score for {self.utt_id} is not finite")


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float


def score_file_write(path: str | Path, records: list[ScoreRecord]) -> None:
    """Write `utt_id score` lines with full double precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.utt_id} {rec.score!r}\n")


def score_file_read(path: str | Path) -> list[ScoreRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ProtocolError(f"{path}:{lineno}: expected `utt_id score`, got {len(fields)} fields")
            utt_id, raw = fields
            try:
                value = float(raw)
            except ValueError:
                raise ProtocolError(f"{path}:{lineno}: {raw!r} is not a number") from None
            records.append(ScoreRecord(utt_id=utt_id, score=value))
    return records


def _operating_points(bona: np.ndarray, spoof: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FAR/FRR at every unique score threshold plus an accept-nothing sentinel.

    The decision at threshold t is "accept as bona fide iff score >= t", so
    FAR(t) = P(spoof >= t) and FRR(t) = P(bona < t).  Thresholds sweep the
    unique pooled scores in ascending order; FAR is non-increasing and FRR
    non-decreasing along the sweep, and tied scores collapse into one
    operating point.
    """
    thresholds = np.unique(np.concatenate([bona, spoof]))
    far = np.empty(thresholds.size + 1)
    frr = np.empty(thresholds.size + 1)
    spoof_sorted = np.sort(spoof)
    bona_sorted = np.sort(bona)
    far[:-1] = (spoof.size - np.searchsorted(spoof_sorted, thresholds, side="left")) / spoof.size
    frr[:-1] = np.searchsorted(bona_sorted, thresholds, side="left") / bona.size
    far[-1] = 0.0  # threshold above every score: nothing accepted
    frr[-1] = 1.0
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    return far, frr, thresholds


def compute_eer(bona_scores: np.ndarray, spoof_scores: np.ndarray) -> EerResult:
    """EER of bona fide vs spoof score sets.

    Finds the first sign change of FAR - FRR along the threshold sweep and
    interpolates linearly between the two adjacent operating points.  The
    first point always has FAR=1 > FRR=0 and the sentinel FAR=0 < FRR=1,
    so a crossing always exists.
    """
    bona = np.asarray(bona_scores, dtype=np.float64)
    spoof = np.asarray(spoof_scores, dtype=np.float64)
    if bona.size == 0 or spoof.size == 0:
        raise ValueError("compute_eer needs at least one bona fide and one spoof score")
    far, frr, thresholds = _operating_points(bona, spoof)
    diff = far - frr
    sign = np.sign(diff)
    idx = int(np.flatnonzero(sign[:-1] != sign[1:])[0])
    d0, d1 = diff[idx], diff[idx + 1]
    t = d0 / (d0 - d1)
    eer = far[idx] + t * (far[idx + 1] - far[idx])
    threshold = thresholds[idx] + t * (thresholds[idx + 1] - thresholds[idx])
    return EerResult(eer=float(eer), threshold=float(threshold))


def compute_eer_records(records: list[ScoreRecord], labels: dict[str, str]) -> EerResult:
    """EER from score records joined with utt_id -> key ('bonafide'/'spoof') labels.

    Every labelled utterance must have exactly one score and every score a
    label; anything else raises ProtocolError.
    """
    counts = Counter(r.utt_id for r in records)
    duplicated = [u for u, n in counts.items() if n > 1]
    if duplicated:
        raise ProtocolError(f"utterances scored more than once: {', '.join(duplicated[:10])}")
    missing = [r.utt_id for r in records if r.utt_id not in labels]
    if missing:
        raise ProtocolError(f"scores without labels: {', '.join(missing[:10])}")
    unscored = [u for u in labels if u not in counts]
    if unscored:
        raise ProtocolError(f"protocol utterances without a score: {', '.join(unscored[:10])}")
    bona = np.array([r.score for r in records if labels[r.utt_id] == "bonafide"])
    spoof = np.array([r.score for r in records if labels[r.utt_id] == "spoof"])
    return compute_eer(bona, spoof)
