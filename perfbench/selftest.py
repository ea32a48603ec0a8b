"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at tiny sizes, checks
that every metric BENCHMARK.json names appears with its unit, that the
computed FLOP counts repeat exactly, and that each output check fires on a
deliberately corrupted output.  Takes a few seconds.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import run
import workloads

TOY = None  # set in main(), after the program is importable


def toy_sizes():
    return replace(
        workloads.PAPER,
        bank_utts=6, bank_iters=1, setup_bank_utts=4, train_utts=3, train_batch=2,
        train_epochs=2, train_lr=1e-2, score_utts=7, score_batch=3, recheck_utts=2,
        orders=(8, 16), n_groups=2, n_blocks=1, channels=4, target_frames=50,
        param_count=toy_param_count(), setup_repeats=2,
    )


def toy_param_count() -> int:
    from lgpnet.config import load_config

    cfg = load_config()
    cfg.bank_orders, cfg.n_groups, cfg.n_blocks, cfg.channels = [8, 16], 2, 1, 4
    from lgpnet.model import build_model

    return build_model(cfg.model_cfg()).param_count()


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def fires(problems: list[str], what: str) -> None:
    expect(bool(problems), f"check fires on {what}: {problems[:1]}")


def check_runs(spec: dict) -> None:
    for name in ("bank", "train", "score"):
        plain = run.run_one(name, seed=3, seconds=0.01, trace=False, sizes=TOY)
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run is correct")
        for m in spec["end_to_end"]:
            got = plain["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"] and got["value"] > 0,
                   f"{name}: end-to-end {m['name']} present in {m['unit']}, non-zero")
        named = plain["info"]["named_metrics"]
        expect(all(v["unit"] for v in named.values()) and len(named) == 3,
               f"{name}: named metrics {sorted(named)} carry units")

        traced = [run.run_one(name, seed=s, seconds=0.01, trace=True, sizes=TOY) for s in (3, 4)]
        layer = traced[0]["metrics"]
        expect(traced[0]["correct"], f"{name}: traced run is correct")
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in layer or layer[m["name"]]["unit"] != m["unit"]]
        expect(not missing, f"{name}: every per-layer metric present with its unit {missing}")
        for key in ("tensor.conv1d.fwd.gflop", "tensor.conv1d.bwd.gflop", "tensor.linear.fwd.gflop"):
            a, b = (t["metrics"][key]["value"] for t in traced)
            expect(a == b, f"{name}: computed {key} repeats exactly ({a} == {b})")
        if name == "score":
            bwd = {k: v["value"] for k, v in layer.items() if ".bwd." in k or k == "training.adam_step.s"}
            expect(all(v == 0 for v in bwd.values()), "score: no backward or Adam time")
        if name in ("train", "score"):
            expect(layer["tensor.conv1d.fwd.gflop"]["value"] > 0, f"{name}: conv1d FLOPs counted")


def check_corruptions(tmp: Path) -> None:
    import checks
    from lgpnet import multiscale

    # bank
    wl = workloads.BankWorkload(tmp / "bank", 5, TOY)
    (tmp / "bank" / "in").mkdir(parents=True)
    wl.prepare(tmp / "bank" / "in")
    out = tmp / "bank" / "out"
    code, _, _ = workloads.run_cli(wl.argv(out))
    expect(code == 0 and not checks.check_bank(out, TOY.orders, 2, wl.frames), "bank output passes")
    broken = tmp / "bank" / "missing"
    shutil.copytree(out, broken)
    (broken / "gmm_00008.bin").unlink()
    fires(checks.check_bank(broken, TOY.orders, 2, wl.frames), "a bank missing one order")
    truncated = tmp / "bank" / "truncated"
    shutil.copytree(out, truncated)
    path = truncated / "gmm_00016.bin"
    path.write_bytes(path.read_bytes()[:100])
    fires(checks.check_bank(truncated, TOY.orders, 2, wl.frames), "a truncated GMM file")
    nan_frames = wl.frames.copy()
    nan_frames[0, 0] = np.nan
    fires(checks.check_bank(out, TOY.orders, 2, nan_frames), "a non-finite log-likelihood")
    skewed = {8: np.array([0, 0, 0, 0, 0, 1, 1, 1]), 16: np.arange(16) // 8}
    fires(checks.balance_problems(skewed, 2), "unbalanced groups")

    # train
    log = tmp / "epochs.csv"
    ckpt = tmp / "model.npz"
    tw = workloads.TrainWorkload(tmp / "train", 5, TOY)
    (tmp / "train" / "in").mkdir(parents=True)
    tw.prepare(tmp / "train" / "in")
    code, _, _ = workloads.run_cli([
        "train-model", "--protocol", str(tw.corpus.protocol), "--audio-dir", str(tw.corpus.audio_dir),
        "--gmm-dir", str(tw.gmm_dir), "--checkpoint", str(ckpt), "--log", str(log),
        "--config", str(tw.config),
    ])
    good = checks.check_training(log, ckpt, 2, TOY.param_count)
    expect(code == 0 and not good, f"train output passes {good}")
    rows = log.read_text().splitlines()
    bad_log = tmp / "nan.csv"
    bad_log.write_text("\n".join([rows[0], rows[1].replace(rows[1].split(",")[1], "nan"), rows[2]]))
    fires(checks.check_training(bad_log, ckpt, 2, TOY.param_count), "a NaN epoch loss")
    rising = tmp / "rising.csv"
    first, last = rows[1].split(","), rows[2].split(",")
    first[1], last[1] = last[1], first[1]
    rising.write_text("\n".join([rows[0], ",".join(first), ",".join(last)]))
    fires(checks.check_training(rising, ckpt, 2, TOY.param_count), "a loss that does not fall")
    fires(checks.check_training(log, ckpt, 3, TOY.param_count), "a missing epoch")
    fires(checks.check_training(log, ckpt, 2, TOY.param_count + 1), "a wrong parameter count")
    bad_ckpt = tmp / "bad.npz"
    bad_ckpt.write_bytes(ckpt.read_bytes()[:1000])
    fires(checks.check_training(log, bad_ckpt, 2, TOY.param_count), "a truncated checkpoint")

    # score
    sw = workloads.ScoreWorkload(tmp / "score", 5, TOY)
    (tmp / "score" / "in").mkdir(parents=True)
    sw.prepare(tmp / "score" / "in")
    scores = tmp / "scores.txt"
    code, _ = sw._score(sw.corpus.protocol, scores, sw.config)
    code2, stdout, _ = workloads.run_cli(
        ["evaluate", "--scores", str(scores), "--protocol", str(sw.corpus.protocol)]
    )
    keys = sw.corpus.keys
    expect(code == 0 and code2 == 0 and not checks.check_scores(scores, keys)
           and not checks.check_eer_output(stdout, scores, keys), "score output passes")
    lines = scores.read_text().splitlines()
    variants = {
        "a score file missing one utterance": lines[1:],
        "a NaN score": [lines[0].split()[0] + " nan"] + lines[1:],
        "a duplicated utterance": lines + lines[:1],
        "an unknown utterance": lines + ["NOT_IN_PROTOCOL 0.5"],
        "a malformed line": lines[:-1] + [lines[-1].split()[0]],
    }
    for what, content in variants.items():
        bad = tmp / "bad_scores.txt"
        bad.write_text("\n".join(content) + "\n")
        fires(checks.check_scores(bad, keys), what)
    fires(checks.check_eer_output(stdout.replace("EER: ", "EER: 1"), scores, keys), "a wrong EER")
    fires(checks.check_eer_output("", scores, keys), "no EER printed")
    ref = checks.read_scores(scores)
    ids = sw.corpus.utt_ids[:2]
    shifted = dict(ref, **{ids[0]: ref[ids[0]] + 1e-6})
    fires(checks.check_batch_independence(ref, shifted, ids), "a batch-dependent score")
    expect(not checks.check_lgp(sw.corpus, ids[0], sw.gmm_dir, TOY.target_frames), "LGP matches the oracle")
    original = multiscale.utterance_lgp

    def off_by_a_bit(*args, **kwargs):
        feat = original(*args, **kwargs)
        feat.values[3, 5] += 1e-8
        return feat

    multiscale.utterance_lgp = off_by_a_bit
    try:
        fires(checks.check_lgp(sw.corpus, ids[0], sw.gmm_dir, TOY.target_frames), "an LGP off by 1e-8")
    finally:
        multiscale.utterance_lgp = original


def main() -> int:
    global TOY
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    TOY = toy_sizes()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        check_corruptions(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
