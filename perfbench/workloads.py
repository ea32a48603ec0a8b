"""The benchmark's three workloads: bank, train and score.

Each workload drives lgpnet through its command-line entry point,
``lgpnet.cli.cli_main``, called in-process.  One caller issues one command
at a time and starts the next only when the previous one has returned (a
closed loop with one client).  All inputs are synthetic two-class audio
made from the workload seed: sinusoid mixtures are bona fide, band-limited
noise is spoof.  Utterance lengths alternate between just under and just
over 400 LFCC frames, so both branches of ``fix_length`` (tile and
truncate) run in every command.
"""
from __future__ import annotations

import contextlib
import functools
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import checks
import tracing

SAMPLE_RATE = 16000


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration."""

    bank_utts: int = 48  # pooled LFCC frames (~19k) exceed EM's 16384-row chunk
    bank_iters: int = 2  # EM iterations per split level in the measured train-gmm
    setup_bank_utts: int = 6  # corpus of the bank that train and score load
    setup_bank_iters: int = 1
    train_utts: int = 3  # not a multiple of train_batch: every epoch ends on a ragged step
    train_batch: int = 2  # batch 4 peaks near 4.3 GB; 2 keeps train near 2.5 GB
    train_epochs: int = 2
    train_lr: float = 1e-4
    score_utts: int = 10  # more than one batch: the last batch is ragged
    score_batch: int = 4
    recheck_utts: int = 3  # re-scored at batch size 1 for the batch-independence check
    orders: tuple[int, ...] = (64, 128, 256, 512, 1024)
    n_groups: int = 8
    n_blocks: int = 6
    channels: int = 256
    target_frames: int = 400
    param_count: int = 22_593_552
    setup_repeats: int = 3

    @property
    def utt_seconds(self) -> float:
        """Audio length giving target_frames + 1 LFCC frames (10 ms shift, 20 ms window)."""
        return (self.target_frames + 1) * 0.01


PAPER = Sizes()


# ---------------------------------------------------------------------------
# synthetic corpus


def _tones(rng: np.random.Generator, n: int) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    wave = np.zeros(n)
    for _ in range(3):
        freq = rng.uniform(200.0, 3000.0)
        wave += rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    return wave


def _noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.convolve(rng.normal(size=n), np.ones(8) / 8.0, mode="same") * 0.2


@dataclass(frozen=True)
class Corpus:
    protocol: Path
    audio_dir: Path
    utt_ids: list[str]
    keys: dict[str, str]
    audio_s: float


def make_corpus(root: Path, n: int, rng: np.random.Generator, sizes: Sizes) -> Corpus:
    """Write n WAVs and an ASVspoof-style protocol under root.

    Utterance i is bona fide (tones) for even i and spoof (noise) for odd
    i; its length is short (under target_frames LFCC frames) when i % 4 is
    0 or 3 and long otherwise, so every class meets both fix_length paths.
    """
    audio_dir = root / "wav"
    audio_dir.mkdir(parents=True, exist_ok=True)
    lines, utt_ids, keys = [], [], {}
    total = 0
    for i in range(n):
        bona = i % 2 == 0
        short = i % 4 in (0, 3)
        scale = rng.uniform(0.75, 0.97) if short else rng.uniform(1.03, 1.25)
        n_samples = int(sizes.utt_seconds * scale * SAMPLE_RATE)
        wave = _tones(rng, n_samples) if bona else _noise(rng, n_samples)
        utt = f"BENCH_{i:04d}"
        pcm = (np.clip(wave, -1.0, 1.0) * 32000).astype(np.int16)
        wavfile.write(audio_dir / f"{utt}.wav", SAMPLE_RATE, pcm)
        key = "bonafide" if bona else "spoof"
        lines.append(f"SPK{i % 7} {utt} - {'-' if bona else 'A01'} {key}")
        utt_ids.append(utt)
        keys[utt] = key
        total += n_samples
    protocol = root / "protocol.txt"
    protocol.write_text("\n".join(lines) + "\n")
    return Corpus(protocol, audio_dir, utt_ids, keys, total / SAMPLE_RATE)


def sub_protocol(corpus: Corpus, utt_ids: list[str], path: Path) -> Path:
    """Protocol file holding only the given utterances of a corpus."""
    lines = [ln for ln in corpus.protocol.read_text().splitlines() if ln.split()[1] in utt_ids]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(path: Path, sizes: Sizes, batch: int, epochs: int = 1) -> Path:
    """key = value config file pinning every size the workloads depend on."""
    lines = [
        f"bank.orders = {' '.join(str(o) for o in sizes.orders)}",
        f"features.target_frames = {sizes.target_frames}",
        f"model.n_groups = {sizes.n_groups}",
        f"model.n_blocks = {sizes.n_blocks}",
        f"model.channels = {sizes.channels}",
        f"train.batch_size = {batch}",
        f"train.epochs = {epochs}",
        f"train.learning_rate = {sizes.train_lr!r}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# running commands


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI command: (exit code, captured stdout, seconds)."""
    from lgpnet.cli import cli_main

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One measured command (or command pair) and the result of its checks."""

    seconds: float
    work: float  # workload units done: audio-s, sample-epochs or utterances
    attempted: int
    problems: list[str]

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else 0


class Workload:
    """Setup, one measured command, and once-per-run checks of one workload."""

    name = ""
    unit = ""  # the workload unit behind `rate`
    label = ""  # workload-specific name of `rate`

    def __init__(self, root: Path, seed: int, sizes: Sizes):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.counter = 0
        self.tracer: tracing.Tracer | None = None  # set only for the traced commands
        self.rss_after_inputs = 0.0  # peak RSS before the warm-up, in MB

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        if self.tracer is None:
            return run_cli(argv)
        with tracing.installed(self.tracer):
            return run_cli(argv)

    def prepare(self, root: Path) -> None:
        """Make this workload's inputs under root (repeated; timed as set-up)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """The process's first command, whose extra cost counts as set-up."""
        self.command()

    def command(self) -> Op:
        raise NotImplementedError

    def final_checks(self) -> list[str] | None:
        """Checks made once per run, counted as one operation; None if there are none."""
        return None

    def info(self) -> dict:
        return {}

    def fresh(self, name: str) -> Path:
        """A path for one command's output, unique within the run."""
        self.counter += 1
        return self.root / f"{self.counter}_{name}"


class BankWorkload(Workload):
    """train-gmm --order 1024 on a corpus larger than one EM chunk."""

    name = "bank"
    unit = "audio-s"
    label = "bank.audio_s_per_s"

    def prepare(self, root: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.corpus = make_corpus(root / "corpus", self.sizes.bank_utts, rng, self.sizes)
        self.config = write_config(root / "bank.cfg", self.sizes, batch=self.sizes.train_batch)

    def argv(self, out: Path) -> list[str]:
        return [
            "train-gmm", "--protocol", str(self.corpus.protocol),
            "--audio-dir", str(self.corpus.audio_dir), "--out", str(out),
            "--order", str(max(self.sizes.orders)), "--iters", str(self.sizes.bank_iters),
            "--config", str(self.config),
        ]

    def command(self) -> Op:
        out = self.fresh("bank")
        code, _, seconds = self.cli(self.argv(out))
        problems = [f"train-gmm exited {code}"] if code else []
        if not problems:
            problems = checks.check_bank(out, self.sizes.orders, self.sizes.n_groups, self.frames)
        shutil.rmtree(out, ignore_errors=True)
        return Op(seconds, self.corpus.audio_s, 1, problems)

    @functools.cached_property
    def frames(self) -> np.ndarray:
        return checks.pooled_frames(self.corpus)

    def info(self) -> dict:
        return {
            "utterances": self.sizes.bank_utts,
            "audio_s": round(self.corpus.audio_s, 3),
            "pooled_frames": int(self.frames.shape[0]),
            "em_iterations_per_level": self.sizes.bank_iters,
            "max_order": max(self.sizes.orders),
        }


class _BankedWorkload(Workload):
    """Workloads that load a GMM bank trained (cheaply) in set-up."""

    def make_bank(self, root: Path, rng: np.random.Generator) -> Path:
        corpus = make_corpus(root / "bank_corpus", self.sizes.setup_bank_utts, rng, self.sizes)
        gmm_dir = root / "gmm"
        code, _, _ = run_cli([
            "train-gmm", "--protocol", str(corpus.protocol), "--audio-dir", str(corpus.audio_dir),
            "--out", str(gmm_dir), "--order", str(max(self.sizes.orders)),
            "--iters", str(self.sizes.setup_bank_iters), "--config", str(self.config),
        ])
        if code:
            raise RuntimeError(f"set-up train-gmm exited {code}")
        return gmm_dir


class TrainWorkload(_BankedWorkload):
    """train-model with the full default network on a ragged batch split."""

    name = "train"
    unit = "sample-epochs"
    label = "train.samples_per_s"

    def prepare(self, root: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        self.config = write_config(root / "train.cfg", s, batch=s.train_batch, epochs=s.train_epochs)
        self.warm_config = write_config(root / "warm.cfg", s, batch=s.train_batch, epochs=1)
        self.gmm_dir = self.make_bank(root, rng)
        self.corpus = make_corpus(root / "corpus", s.train_utts, rng, s)

    def _train(self, ckpt: Path, log: Path, config: Path) -> tuple[int, str, float]:
        return self.cli([
            "train-model", "--protocol", str(self.corpus.protocol),
            "--audio-dir", str(self.corpus.audio_dir), "--gmm-dir", str(self.gmm_dir),
            "--checkpoint", str(ckpt), "--log", str(log), "--config", str(config),
        ])

    def warm_up(self) -> None:
        """One epoch: every step shape of the measured commands, run once."""
        ckpt, log = self.fresh("warm.npz"), self.fresh("warm.csv")
        self._train(ckpt, log, self.warm_config)
        ckpt.unlink(missing_ok=True)
        log.unlink(missing_ok=True)

    def command(self) -> Op:
        s = self.sizes
        ckpt, log = self.fresh("model.npz"), self.fresh("epochs.csv")
        code, _, seconds = self._train(ckpt, log, self.config)
        problems = [f"train-model exited {code}"] if code else []
        if not problems:
            problems = checks.check_training(log, ckpt, s.train_epochs, s.param_count)
        ckpt.unlink(missing_ok=True)
        log.unlink(missing_ok=True)
        return Op(seconds, s.train_utts * s.train_epochs, s.train_epochs, problems)

    def info(self) -> dict:
        s = self.sizes
        return {
            "utterances": s.train_utts,
            "audio_s": round(self.corpus.audio_s, 3),
            "batch_size": s.train_batch,
            "epochs": s.train_epochs,
            "parameters": s.param_count,
            "features_mb": checks.features_mb(s.train_utts, s),
        }


class ScoreWorkload(_BankedWorkload):
    """score then evaluate with a full-size checkpoint written in set-up."""

    name = "score"
    unit = "utt"
    label = "score.utt_per_s"

    def prepare(self, root: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        self.config = write_config(root / "score.cfg", s, batch=s.score_batch)
        self.recheck_config = write_config(root / "score1.cfg", s, batch=1)
        self.gmm_dir = self.make_bank(root, rng)
        self.corpus = make_corpus(root / "corpus", s.score_utts, rng, s)
        self.checkpoint = root / "model.npz"
        write_checkpoint_in_child(self.config, self.gmm_dir, self.checkpoint, self.seed, s.n_groups)
        self.scores: dict[str, float] = {}

    def _score(self, protocol: Path, out: Path, config: Path) -> tuple[int, float]:
        code, _, seconds = self.cli([
            "score", "--protocol", str(protocol), "--audio-dir", str(self.corpus.audio_dir),
            "--gmm-dir", str(self.gmm_dir), "--checkpoint", str(self.checkpoint),
            "--out", str(out), "--config", str(config),
        ])
        return code, seconds

    def command(self) -> Op:
        out = self.fresh("scores.txt")
        code, seconds = self._score(self.corpus.protocol, out, self.config)
        problems = [f"score exited {code}"] if code else []
        if not problems:
            code, stdout, eval_s = self.cli(
                ["evaluate", "--scores", str(out), "--protocol", str(self.corpus.protocol)]
            )
            seconds += eval_s
            problems = [f"evaluate exited {code}"] if code else []
        if not problems:
            problems = checks.check_scores(out, self.corpus.keys)
        if not problems:
            problems = checks.check_eer_output(stdout, out, self.corpus.keys)
        if not problems and not self.scores:
            self.scores = checks.read_scores(out)
        out.unlink(missing_ok=True)
        return Op(seconds, self.sizes.score_utts, self.sizes.score_utts, problems)

    def final_checks(self) -> list[str]:
        """Batch independence and an independent LGP computation, once per run."""
        if not self.scores:
            return ["no scores to re-check"]
        ids = self.corpus.utt_ids[-self.sizes.recheck_utts:]
        protocol = sub_protocol(self.corpus, ids, self.root / "recheck_protocol.txt")
        out = self.root / "recheck_scores.txt"
        code, _ = self._score(protocol, out, self.recheck_config)
        if code:
            return [f"batch-1 score exited {code}"]
        problems = checks.check_batch_independence(self.scores, checks.read_scores(out), ids)
        problems += checks.check_lgp(self.corpus, ids[0], self.gmm_dir, self.sizes.target_frames)
        return problems

    def info(self) -> dict:
        s = self.sizes
        return {
            "utterances": s.score_utts,
            "audio_s": round(self.corpus.audio_s, 3),
            "batch_size": s.score_batch,
            "parameters": s.param_count,
            "features_mb": checks.features_mb(s.score_utts, s),
        }


def write_checkpoint(config: str, gmm_dir: str, path: str, seed: str, n_groups: str) -> None:
    """Save a randomly initialised model with the bank's lineage grouping."""
    from lgpnet.config import load_config
    from lgpnet.model import build_model, save_checkpoint
    from lgpnet.multiscale import lineage_grouping, load_bank

    model = build_model(load_config(config).model_cfg(), seed=int(seed))
    save_checkpoint(path, model, lineage_grouping(load_bank(gmm_dir), int(n_groups)))


def write_checkpoint_in_child(*args) -> None:
    """write_checkpoint in a child interpreter, waited for, so the memory it
    touches stays out of this process's peak RSS."""
    code = "import sys, workloads; workloads.write_checkpoint(*sys.argv[1:])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True)


WORKLOADS = {w.name: w for w in (BankWorkload, TrainWorkload, ScoreWorkload)}


# ---------------------------------------------------------------------------
# one run


def set_up(workload: Workload) -> float:
    """Prepare inputs setup_repeats times, then warm up; returns setup_s.

    Input preparation is repeated and its median taken, so a single slow
    repetition does not move the figure; the warm-up can only happen once
    per process and is added on top.
    """
    times = []
    previous = None
    for i in range(workload.sizes.setup_repeats):
        root = workload.root / f"setup{i}"
        root.mkdir()
        t0 = time.perf_counter()
        workload.prepare(root)
        times.append(time.perf_counter() - t0)
        if previous is not None:
            shutil.rmtree(previous)
        previous = root
    workload.rss_after_inputs = peak_rss_mb()
    t0 = time.perf_counter()
    workload.warm_up()
    return statistics.median(times) + (time.perf_counter() - t0)


def measure(workload: Workload, seconds: float, count: int | None = None) -> list[Op]:
    """Closed loop: run commands until `seconds` have passed (at least one),
    or exactly `count` commands when a count is given."""
    ops: list[Op] = []
    t0 = time.perf_counter()
    while True:
        if count is not None and len(ops) >= count:
            break
        if count is None and ops and time.perf_counter() - t0 >= seconds:
            break
        ops.append(workload.command())
    return ops


def rate(ops: list[Op]) -> float:
    """Median over commands of workload units per wall-clock second."""
    return statistics.median(op.work / op.seconds for op in ops)
