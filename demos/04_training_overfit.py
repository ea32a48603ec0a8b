"""Train the grouped residual network ensemble end to end on toy audio.

Two trivially separable classes (sinusoid mixtures vs band-limited noise)
stand in for bona fide and spoofed speech.  The whole pipeline runs at desk
scale: LFCC, a {8,16}-order GMM bank, lineage grouping into two groups,
and a 2-block / 16-channel network trained with the ensemble-aware loss.
"""
import tempfile
from pathlib import Path

import numpy as np

from lgpnet import (
    GmmBank,
    GroupLgp,
    ManifestFrames,
    ModelCfg,
    ResidualBlockCfg,
    TrainConfig,
    build_manifest,
    compute_eer,
    lfcc_extract,
    lineage_grouping,
    parse_protocol,
    predict_logits,
    read_wav,
    train,
    train_by_splitting,
)
from lgpnet.corpus import serialize_protocol, UtteranceLabel
from scipy.io import wavfile

rng = np.random.default_rng(3)
sr = 16000
with tempfile.TemporaryDirectory(prefix="lgpnet_demo_") as tmp:  # the WAVs and the protocol go at the end
    workdir = Path(tmp)
    audio_dir = workdir / "wav"
    audio_dir.mkdir()

    labels = []
    for i in range(12):
        t = np.arange(sr) / sr
        tone = sum(
            rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * rng.uniform(200, 3000) * t) for _ in range(3)
        )
        noise = np.convolve(rng.normal(size=sr), np.ones(8) / 8, mode="same") * 0.2
        for wave, utt, key in ((tone, f"B_{i:03d}", "bonafide"), (noise, f"S_{i:03d}", "spoof")):
            wavfile.write(audio_dir / f"{utt}.wav", sr, (np.clip(wave, -1, 1) * 32000).astype(np.int16))
            labels.append(UtteranceLabel(utt_id=utt, key=key, attack_id=None if key == "bonafide" else "A01"))

    protocol = workdir / "protocol.txt"
    serialize_protocol(labels, protocol)
    manifest = build_manifest(parse_protocol(protocol), audio_dir)
    print(f"corpus: {len(manifest)} utterances under {workdir}")

    frames = np.vstack([lfcc_extract(read_wav(p)).values for p, _ in manifest.entries])
    models = train_by_splitting(frames, 16, n_iterations=8)
    bank = GmmBank(gmms=[m for m in models if m.order in (8, 16)])
    assignment = lineage_grouping(bank, 2)
    print(f"bank orders {bank.orders}; {assignment.n_groups} lineage groups")

    model_cfg = ModelCfg(n_groups=2, n_blocks=2, block=ResidualBlockCfg(channels=16), group_input_dim=12)
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=25, seed=0)
    feats = ManifestFrames(manifest, 50)  # computed from the audio batch by batch, every epoch
    lgp = GroupLgp(bank, assignment)  # each branch makes its group's LGP input from a batch's frames
    model, log = train(feats, lgp, model_cfg, train_cfg)

    print("\nepoch  train_loss")
    for row in log[::4]:
        print(f"{row['epoch']:5d}  {row['train_loss']:.4f}")

    y = feats.labels
    logits = predict_logits(model, lgp, feats)
    accuracy = (logits.argmax(axis=1) == y).mean()
    scores = logits[:, 1] - logits[:, 0]
    eer = compute_eer(scores[y == 1], scores[y == 0]).eer
    print(f"\ntrain accuracy: {100 * accuracy:.1f}%   train EER: {100 * eer:.1f}%")
