"""Command-line front end wiring the pipeline together.

Subcommands: train-gmm, train-model, score, evaluate, describe.  Nothing
is cached between commands: train-model computes the LFCC frames from the
audio batch by batch and score chunk by chunk, and each group branch its
own LGP input from them.  score checks the checkpoint's meta and array
shapes before it reads any audio, and reads and folds each branch from the
checkpoint only when inference reaches it (`model.CheckpointBranches`).
It scores each utterance alone, so `train.batch_size` does not change a
score file's bytes.  Exit codes: 0 success, 1 runtime error, 2 usage
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from . import corpus, lfcc, multiscale
from .config import load_config
from .errors import ConfigError, FormatError, LgpnetError, ManifestError
from .evaluation import ScoreRecord, compute_eer_records, score_file_read, score_file_write
from .gmm import train_by_splitting
from .model import CheckpointBranches, GroupedResNetEnsemble, _Unfilled, score
from .training import predict_logits, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgpnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-gmm", help="train the multi-order GMM bank by binary splitting")
    p.add_argument("--protocol", required=True)
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--out", required=True, help="directory for the gmm_<order>.bin files")
    p.add_argument("--order", type=int, default=None, help="largest order to train")
    p.add_argument("--iters", type=int, default=None, help="EM iterations per split level")
    p.add_argument("--config", default=None)

    p = sub.add_parser("train-model", help="train the grouped residual network ensemble")
    p.add_argument("--protocol", required=True)
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--gmm-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dev-protocol", default=None)
    p.add_argument("--dev-audio-dir", default=None)
    p.add_argument("--log", default=None, help="append-only CSV epoch log")
    p.add_argument("--config", default=None)

    p = sub.add_parser("score", help="score utterances with a trained checkpoint")
    p.add_argument("--protocol", required=True)
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--gmm-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("evaluate", help="compute the EER of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--protocol", required=True)

    p = sub.add_parser("describe", help="print configuration and parameter counts")
    p.add_argument("--config", default=None)
    return parser


def _manifest(protocol: str, audio_dir: str, split: str = "train") -> corpus.Manifest:
    """The manifest of a protocol file; a refused manifest (repeated utt_ids,
    missing WAVs) is a ManifestError that names the protocol file."""
    labels = corpus.parse_protocol(protocol)
    try:
        return corpus.build_manifest(labels, audio_dir, split=split)
    except ManifestError as exc:
        raise ManifestError(f"{protocol}: {exc}") from None


def _features(manifest: corpus.Manifest, cfg) -> multiscale.ManifestFrames:
    """manifest's LFCC frames under cfg's LFCC config and target_frames, computed
    on indexing; an empty manifest or a bad WAV header fails here."""
    return multiscale.ManifestFrames(manifest, cfg.lfcc, cfg.target_frames)


def _pooled_lfcc_frames(manifest: corpus.Manifest, cfg) -> np.ndarray:
    """Every utterance's LFCC frames, stacked in manifest order.  The workers
    write straight into one array sized from the WAV headers, so the frames
    exist once."""
    if len(manifest) == 0:
        raise ManifestError(f"{manifest.split} manifest is empty: no frames to train the GMMs on")
    headers = [corpus.check_wav(path) for path, _ in manifest.entries]
    counts = [cfg.lfcc.n_frames(n, rate) for rate, n in headers]
    ends = np.cumsum(counts, dtype=np.int64)
    frames = np.empty((int(ends[-1]), cfg.lfcc.n_dims))

    def fill(j: int, clip: corpus.AudioClip) -> None:
        feat = lfcc.lfcc_extract(clip, cfg.lfcc).values
        if len(feat) != counts[j]:
            raise FormatError(f"{manifest.entries[j][0]}: {len(feat)} frames, its header gave {counts[j]}")
        frames[ends[j] - counts[j] : ends[j]] = feat

    multiscale.map_utterances(manifest, range(len(manifest)), fill)
    return frames


def _cmd_train_gmm(args) -> int:
    cfg = load_config(args.config)
    if args.iters is not None:
        cfg.em = dataclasses.replace(cfg.em, n_iterations=args.iters)
    orders = sorted(cfg.bank_orders)
    target = args.order if args.order is not None else max(orders)
    orders = [o for o in orders if o <= target]
    if not orders or orders[-1] != target:
        raise ConfigError(f"--order {target} is not one of the bank orders {cfg.bank_orders}")
    manifest = _manifest(args.protocol, args.audio_dir)
    data = _pooled_lfcc_frames(manifest, cfg)
    print(f"training GMMs up to order {target} on {data.shape[0]} frames of dim {data.shape[1]}")
    models = train_by_splitting(data, target, cfg.em)
    by_order = {g.order: g for g in models}
    bank = multiscale.GmmBank(gmms=[by_order[o] for o in orders])
    multiscale.save_bank(bank, args.out)
    print(f"saved orders {orders} under {args.out}")
    return 0


def _grouping(cfg, bank: multiscale.GmmBank) -> multiscale.GroupAssignment:
    if cfg.grouping == "random":
        return multiscale.random_grouping(bank, cfg.n_groups, cfg.grouping_seed)
    return multiscale.lineage_grouping(bank, cfg.n_groups)


def _cmd_train_model(args) -> int:
    cfg = load_config(args.config)
    manifest = _manifest(args.protocol, args.audio_dir)
    dev_manifest = None
    if args.dev_protocol is not None:
        dev_manifest = _manifest(
            args.dev_protocol, args.dev_audio_dir or args.audio_dir, split="dev"
        )
        train_ids = {label.utt_id for _, label in manifest.entries}
        shared = [label.utt_id for _, label in dev_manifest.entries if label.utt_id in train_ids]
        if shared:  # the monitored loss would be optimistic and pick the wrong best epoch
            raise ManifestError(f"{len(shared)} utt_ids are in both the train and the dev protocol: "
                                f"{corpus._first_few(shared)}")
    bank = multiscale.load_bank(args.gmm_dir)
    if bank.orders != sorted(cfg.bank_orders):
        raise ConfigError(f"bank orders {bank.orders} do not match config {sorted(cfg.bank_orders)}")
    lgp = multiscale.GroupLgp(bank, _grouping(cfg, bank))
    feats = _features(manifest, cfg)
    dev = None if dev_manifest is None else _features(dev_manifest, cfg)
    _, log_rows = train(feats, lgp, cfg.model_cfg(), cfg.train, dev=dev,
                        checkpoint_path=args.checkpoint, log_path=args.log)
    best = min(row["dev_loss"] for row in log_rows)
    print(f"trained {len(log_rows)} epochs; best monitored loss {best:.6f}")
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_score(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    manifest = _manifest(args.protocol, args.audio_dir, split="eval")
    bank = multiscale.load_bank(args.gmm_dir)
    branches = CheckpointBranches(args.checkpoint)  # meta and array shapes checked, no array read
    assignment = branches.assignment
    if bank.orders != assignment.orders:
        raise ConfigError(
            f"bank {args.gmm_dir} holds orders {bank.orders}, "
            f"but checkpoint {args.checkpoint} was trained on orders {assignment.orders}"
        )
    feats = _features(manifest, cfg)
    lgp = multiscale.GroupLgp(bank, assignment)
    logits = predict_logits(branches, lgp, feats)
    records = [ScoreRecord(utt_id=u, score=float(s)) for u, s in zip(feats.utt_ids, score(logits))]
    score_file_write(args.out, records)
    seconds = time.perf_counter() - start
    print(f"wrote {len(records)} scores to {args.out} in {seconds:.4g} s "
          f"({len(records) / seconds:.4g} utt/s)")
    return 0


def _cmd_evaluate(args) -> int:
    records = score_file_read(args.scores)
    labels = {lab.utt_id: lab.key for lab in corpus.parse_protocol(args.protocol)}
    result = compute_eer_records(records, labels)
    print(f"EER: {100.0 * result.eer:.4f}%")
    print(f"threshold: {result.threshold!r}")
    return 0


def _cmd_describe(args) -> int:
    cfg = load_config(args.config)
    model_cfg = cfg.model_cfg()
    print("bank orders:", cfg.bank_orders)
    print("lgp dimension:", sum(cfg.bank_orders))
    print(f"groups: {model_cfg.n_groups} (input {model_cfg.group_input_dim} dims each)")
    print(f"blocks per branch: {model_cfg.n_blocks} ({model_cfg.block.channels} channels, "
          f"kernel {model_cfg.block.kernel}, improved={model_cfg.improved_blocks}, mfa={model_cfg.mfa})")
    print(f"em: {cfg.em.n_iterations} iterations, split_epsilon {cfg.em.split_epsilon}")
    print(f"train: lr {cfg.train.learning_rate}, batch {cfg.train.batch_size}, "
          f"epochs {cfg.train.epochs}, ensemble_aware={cfg.train.ensemble_aware}")
    model = GroupedResNetEnsemble(model_cfg, _Unfilled())  # counted only, so no initial values are drawn
    print("parameters:")
    breakdown = model.describe()
    total = breakdown.pop("total")
    for name, count in breakdown.items():
        print(f"  {name}: {count}")
    params = model.parameters()
    mb = sum(p.data.nbytes for p in params) / 1e6
    print(f"  total: {total} ({mb:.1f} MB {params[0].data.dtype})")
    return 0


_COMMANDS = {
    "train-gmm": _cmd_train_gmm,
    "train-model": _cmd_train_model,
    "score": _cmd_score,
    "evaluate": _cmd_evaluate,
    "describe": _cmd_describe,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (LgpnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
