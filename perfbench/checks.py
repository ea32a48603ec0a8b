"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  The oracles here are deliberately naive (loops and direct
definitions) so they do not share code paths with the program.
"""
from __future__ import annotations

import csv
import math
import re
import zipfile
from pathlib import Path

import numpy as np


def features_mb(n_utts: int, sizes) -> float:
    """Computed size of the stacked (N, D, T) float64 LGP array, in MB."""
    return n_utts * sum(sizes.orders) * sizes.target_frames * 8 / 1e6


def pooled_frames(corpus) -> np.ndarray:
    from lgpnet.corpus import read_wav
    from lgpnet.lfcc import lfcc_extract

    return np.vstack(
        [lfcc_extract(read_wav(corpus.audio_dir / f"{u}.wav")).values for u in corpus.utt_ids]
    )


def balance_problems(groups: dict[int, np.ndarray], n_groups: int) -> list[str]:
    """Each order's components split evenly over the n_groups groups."""
    problems = []
    for order, assign in groups.items():
        counts = np.bincount(assign, minlength=n_groups)
        if counts.size != n_groups or np.any(counts != order // n_groups):
            problems.append(f"groups of order {order} are unbalanced: {counts.tolist()}")
    return problems


def check_bank(gmm_dir: Path, orders, n_groups: int, frames: np.ndarray) -> list[str]:
    """Every order is saved and reloads; lineage groups are balanced; the
    log-likelihood of the training frames under the largest order is finite."""
    from lgpnet.errors import LgpnetError
    from lgpnet.gmm import log_likelihood
    from lgpnet.multiscale import lineage_grouping, load_bank

    missing = [o for o in orders if not (Path(gmm_dir) / f"gmm_{o:05d}.bin").is_file()]
    if missing:
        return [f"bank is missing orders {missing}"]
    try:
        bank = load_bank(gmm_dir)
        assignment = lineage_grouping(bank, n_groups)
    except (LgpnetError, ValueError) as exc:
        return [f"bank does not reload or group: {exc}"]
    problems = balance_problems(assignment.groups, n_groups)
    if bank.orders != list(orders):
        problems.append(f"bank orders {bank.orders} != {list(orders)}")
    ll = log_likelihood(bank.gmms[-1], frames)
    if not math.isfinite(ll):
        problems.append(f"log-likelihood at order {bank.orders[-1]} is {ll}")
    return problems


def check_training(log_path: Path, checkpoint: Path, epochs: int, param_count: int) -> list[str]:
    """Finite loss every epoch, last epoch below the first, and a checkpoint
    that reloads with the expected parameter count."""
    from lgpnet.errors import LgpnetError
    from lgpnet.model import load_checkpoint

    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(r["train_loss"]) for r in rows]
    problems = []
    if len(losses) != epochs:
        problems.append(f"{len(losses)} epochs logged, expected {epochs}")
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite training loss: {losses}")
    elif len(losses) >= 2 and not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: first {losses[0]!r}, last {losses[-1]!r}")
    try:
        model, _ = load_checkpoint(checkpoint)
    except (LgpnetError, OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        return problems + [f"checkpoint does not reload: {exc}"]
    if model.param_count() != param_count:
        problems.append(f"checkpoint has {model.param_count()} parameters, expected {param_count}")
    return problems


def read_scores(path: Path) -> dict[str, float]:
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            utt, raw = line.split()
            out[utt] = float(raw)
    return out


def check_scores(path: Path, keys: dict[str, str]) -> list[str]:
    """Every protocol utterance has exactly one finite score and nothing else does."""
    seen: dict[str, int] = {}
    problems = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        fields = line.split()
        if len(fields) != 2:
            problems.append(f"line {lineno}: expected `utt_id score`")
            continue
        utt, raw = fields
        seen[utt] = seen.get(utt, 0) + 1
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            problems.append(f"{utt}: score {raw!r} is not finite")
    missing = sorted(set(keys) - set(seen))
    extra = sorted(set(seen) - set(keys))
    dup = sorted(u for u, c in seen.items() if c > 1)
    if missing:
        problems.append(f"no score for {missing}")
    if extra:
        problems.append(f"scores for unknown utterances {extra}")
    if dup:
        problems.append(f"several scores for {dup}")
    return problems


def eer_by_sweep(bona: list[float], spoof: list[float]) -> float:
    """EER from FAR/FRR counted by hand at every distinct score."""
    points = []
    for t in sorted(set(bona) | set(spoof)):
        far = sum(s >= t for s in spoof) / len(spoof)
        frr = sum(b < t for b in bona) / len(bona)
        points.append((far, frr))
    points.append((0.0, 1.0))  # threshold above every score
    for (far0, frr0), (far1, frr1) in zip(points, points[1:]):
        d0, d1 = far0 - frr0, far1 - frr1
        if d0 == 0:
            return far0
        if (d0 > 0) != (d1 > 0) or d1 == 0:
            return far0 + d0 / (d0 - d1) * (far1 - far0)
    raise ValueError("no FAR/FRR crossing")


def check_eer_output(stdout: str, scores_path: Path, keys: dict[str, str]) -> list[str]:
    """`evaluate`'s printed EER equals a brute-force sweep over the written scores."""
    match = re.search(r"EER: ([-+0-9.eE]+)%", stdout)
    if match is None:
        return ["evaluate printed no EER"]
    scores = read_scores(scores_path)
    bona = [v for u, v in scores.items() if keys[u] == "bonafide"]
    spoof = [v for u, v in scores.items() if keys[u] == "spoof"]
    expected = 100.0 * eer_by_sweep(bona, spoof)
    printed = float(match.group(1))
    if abs(printed - expected) > 0.5e-4 + 1e-9:  # evaluate prints 4 decimals
        return [f"evaluate EER {printed}% != brute-force {expected:.6f}%"]
    return []


def check_batch_independence(ref: dict[str, float], single: dict[str, float], ids) -> list[str]:
    """Scores at batch size 1 agree with the batched scores within 1e-9."""
    problems = []
    for u in ids:
        if u not in single or u not in ref:
            problems.append(f"{u}: missing from the batch-1 re-score")
        elif abs(single[u] - ref[u]) > 1e-9:
            problems.append(f"{u}: batch-1 score {single[u]!r} != batched {ref[u]!r}")
    return problems


def lgp_by_hand(x: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """-1/2 x'inv(S)x + x'inv(S)mu per frame, then per-dimension normalization."""
    prec = 1.0 / variances
    y = np.empty((x.shape[0], means.shape[0]))
    for t, frame in enumerate(x):
        y[t] = -0.5 * (prec * frame**2).sum(axis=1) + (prec * means * frame).sum(axis=1)
    mean = y.mean(axis=0)
    std = np.sqrt(((y - mean) ** 2).mean(axis=0))
    return np.where(std > 0, (y - mean) / np.where(std > 0, std, 1.0), 0.0)


def check_lgp(corpus, utt: str, gmm_dir: Path, target_frames: int) -> list[str]:
    """One utterance's multi-order LGP matches lgp_by_hand within 1e-9."""
    from lgpnet.corpus import read_wav
    from lgpnet.lfcc import fix_length, lfcc_extract
    from lgpnet.multiscale import load_bank, utterance_lgp

    bank = load_bank(gmm_dir)
    clip = read_wav(corpus.audio_dir / f"{utt}.wav")
    got = utterance_lgp(clip, bank, None, target_frames).values
    x = fix_length(lfcc_extract(clip), target_frames).values
    want = np.hstack([lgp_by_hand(x, g.means, g.variances) for g in bank.gmms])
    if got.shape != want.shape:
        return [f"LGP of {utt} has shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    if not err <= 1e-9:
        return [f"LGP of {utt} differs from the per-frame oracle by {err:.3e}"]
    return []
