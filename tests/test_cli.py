import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from helpers import (
    as_float64,
    build_synth_corpus,
    random_bank,
    rewrite_arrays,
    rewrite_meta,
    wav_bytes_float32,
    write_full_size_score_inputs,
    write_wav_int16,
)

from lgpnet.cli import _build_parser, cli_main
from lgpnet.config import _SETTERS, PipelineConfig, load_config
from lgpnet.errors import ConfigError
from lgpnet.evaluation import compute_eer_records, score_file_read
from lgpnet.corpus import build_manifest, parse_protocol, read_wav
from lgpnet.lfcc import lfcc_extract
from lgpnet.model import load_checkpoint, save_checkpoint


TINY_CFG = """
# tiny desk-scale configuration
bank.orders = 8,16
features.target_frames = 50
model.n_groups = 2
model.n_blocks = 2
model.channels = 16
train.learning_rate = 0.001
train.batch_size = 8
train.epochs = 2
train.seed = 7
"""


def tiny_cfg_with(setting: str) -> str:
    """TINY_CFG with setting as its last line, on line len(TINY_CFG.splitlines()) + 1.
    A key may be set only once, so the key's own line in TINY_CFG is commented out."""
    key = setting.split("=", 1)[0].strip()
    return re.sub(rf"^{re.escape(key)} =", f"# {key} =", TINY_CFG, flags=re.M) + setting + "\n"


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    protocol, audio_dir = build_synth_corpus(root, n_per_class=6, seed=3)
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    return {"root": root, "protocol": protocol, "audio_dir": audio_dir, "cfg": cfg_path}


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli_main(["train-gmm", "--protocol", "p.txt"]) == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() or "--audio-dir" in err

    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_runtime_error_is_exit_1(self, capsys, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("u1 1.0\n")
        missing = tmp_path / "missing_protocol.txt"
        assert cli_main(["evaluate", "--scores", str(scores), "--protocol", str(missing)]) == 1
        assert "error" in capsys.readouterr().err.lower()


class TestDescribe:
    def test_breakdown_sums_to_total(self, cli_workspace, capsys):
        assert cli_main(["describe", "--config", str(cli_workspace["cfg"])]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = lines.index("parameters:")
        entries = [ln.strip() for ln in lines[start + 1 :] if not ln.strip().startswith("total:")]
        total_line = next(ln.strip() for ln in lines[start + 1 :] if ln.strip().startswith("total:"))
        total = int(total_line.split(":")[1].split()[0])
        assert sum(int(ln.split(":")[1]) for ln in entries) == total
        # closed-form oracle: G=2, 2 blocks, 16 channels, 12-dim slices
        ch, blocks, g, dg = 16, 2, 2, (8 + 16) // 2
        per_group = (
            (ch * dg + ch + 2 * ch)
            + blocks * (2 * (3 * ch * ch + ch) + 2 * ch)
            + (ch * blocks * ch + ch + 2 * ch)
            + (2 * ch + 2)
        )
        assert total == g * per_group

    def test_describe_default_config(self, capsys):
        assert cli_main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "1984" in out
        assert "total:" in out

    def test_describe_prints_the_dtype_and_megabytes_beside_the_total(self, cli_workspace, capsys):
        # a new network is float32: 4 bytes a parameter
        assert cli_main(["describe"]) == 0
        assert "\n  total: 22593552 (90.4 MB float32)\n" in capsys.readouterr().out
        assert cli_main(["describe", "--config", str(cli_workspace["cfg"])]) == 0
        total_line = capsys.readouterr().out.splitlines()[-1]
        count = int(total_line.split(":")[1].split()[0])
        assert total_line == f"  total: {count} ({count * 4 / 1e6:.1f} MB float32)"

    def test_describe_draws_no_full_size_parameters(self, capsys):
        # describe only counts the parameters, so it builds the model around
        # read-only broadcast zeros: it allocates well under one full-size
        # parameter set (22,593,552 values, 181 MB in float64, 90 MB in
        # float32), and prints the counts the drawn model has
        from lgpnet.cli import _cmd_describe
        from lgpnet.model import ModelCfg, build_model

        args = _build_parser().parse_args(["describe"])
        tracemalloc.start()
        try:
            assert _cmd_describe(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert "  total: 22593552 (90.4 MB float32)\n" in out
        drawn = build_model(ModelCfg(), seed=0).describe()
        drawn["total"] = f"{drawn['total']} (90.4 MB float32)"
        printed = out.split("parameters:\n", 1)[1]
        assert printed == "".join(f"  {name}: {count}\n" for name, count in drawn.items())
        assert peak < 181e6 / 10


class TestEvaluateCommand:
    def test_prints_eer_percentage(self, tmp_path, capsys):
        protocol = tmp_path / "p.txt"
        protocol.write_text(
            "S1 b1 - - bonafide\nS1 b2 - - bonafide\nS2 s1 - A01 spoof\nS2 s2 - A01 spoof\n"
        )
        scores = tmp_path / "s.txt"
        scores.write_text("b1 2.0\nb2 3.0\ns1 -1.0\ns2 -2.0\n")
        assert cli_main(["evaluate", "--scores", str(scores), "--protocol", str(protocol)]) == 0
        out = capsys.readouterr().out
        assert "EER: 0.0000%" in out

    def test_partial_score_file_is_exit_1(self, tmp_path, capsys):
        protocol = tmp_path / "p.txt"
        protocol.write_text("S1 b1 - - bonafide\nS2 s1 - A01 spoof\nS2 s2 - A01 spoof\n")
        scores = tmp_path / "s.txt"
        scores.write_text("b1 2.0\ns1 -1.0\n")
        assert cli_main(["evaluate", "--scores", str(scores), "--protocol", str(protocol)]) == 1
        assert "s2" in capsys.readouterr().err


class TestConfigFile:
    def test_load_and_defaults(self, cli_workspace):
        cfg = load_config(cli_workspace["cfg"])
        assert cfg.bank_orders == [8, 16]
        assert cfg.n_groups == 2
        assert cfg.train.epochs == 2
        assert cfg.train.ensemble_aware  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.bogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(bad)

    def test_bad_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.epochs = soon\n")
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("frames", ["0", "-5"])
    def test_target_frames_below_1_rejected(self, tmp_path, frames):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"features.target_frames = {frames}\n")
        with pytest.raises(ConfigError, match=f"features.target_frames must be >= 1, got {frames}"):
            load_config(bad)

    def test_bank_orders_in_any_order_accepted(self, tmp_path):
        cfg = tmp_path / "orders.cfg"
        # one group, since the default 8 would not split order 1
        cfg.write_text("bank.orders = 16, 1 8\nmodel.n_groups = 1\n")
        assert load_config(cfg).bank_orders == [16, 1, 8]

    @pytest.mark.parametrize("n_groups", [1, 2, 4, 8])
    def test_n_groups_power_of_2_up_to_the_smallest_order_accepted(self, tmp_path, n_groups):
        cfg = tmp_path / "groups.cfg"
        cfg.write_text(f"bank.orders = 32 8 16\nmodel.n_groups = {n_groups}\n")
        assert load_config(cfg).model_cfg().group_input_dim == 56 // n_groups

    @pytest.mark.parametrize(
        "n_groups, message",
        [(3, "must be a power of 2, got 3"), (6, "must be a power of 2, got 6"),
         (16, "model.n_groups 16 exceeds the smallest bank order 8")],
    )
    def test_n_groups_that_cannot_split_the_bank_rejected(self, tmp_path, n_groups, message):
        cfg = tmp_path / "groups.cfg"
        cfg.write_text(f"bank.orders = 32 8 16\nmodel.n_groups = {n_groups}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(bank_orders=[32, 8, 16], n_groups=n_groups).model_cfg()

    def test_model_cfg_refuses_n_groups_below_1(self):
        # the modulo by n_groups once ran first: ZeroDivisionError
        with pytest.raises(ConfigError, match="model.n_groups must be >= 1, got 0"):
            PipelineConfig(n_groups=0).model_cfg()

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"bank_orders": [12, 8], "n_groups": 4}, "bank.orders: expected distinct positive powers of 2, got '12 8'"),
         ({"target_frames": -3}, "features.target_frames must be >= 1, got -3")],
    )
    def test_a_config_built_in_code_is_checked(self, kwargs, message):
        # both were accepted, and the orders 12 and 8 gave a ModelCfg of group_input_dim 5
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**kwargs)

    def test_a_config_mutated_in_code_is_checked_by_model_cfg(self):
        cfg = PipelineConfig()
        cfg.bank_orders, cfg.n_groups = [12, 8], 4
        with pytest.raises(ConfigError, match="bank.orders: expected distinct positive powers of 2, got '12 8'"):
            cfg.model_cfg()

    def test_a_repeated_key_is_refused_naming_both_lines(self, tmp_path, capsys):
        # the last value won: describe exited 0, and train-model trained for 100 epochs
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("train.epochs = 2\n# the recipe's count\ntrain.epochs = 100\n")
        assert cli_main(["describe", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {cfg}:3: train.epochs is already set on line 1"]
        assert captured.out == ""

    def test_model_cfg_derives_group_dim(self, cli_workspace):
        cfg = load_config(cli_workspace["cfg"])
        assert cfg.model_cfg().group_input_dim == (8 + 16) // 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("key", [key for key, (_, _, typ) in _SETTERS.items() if typ is float])
    def test_non_finite_float_rejected(self, tmp_path, key, raw):
        # load_config once accepted NaN and infinity for every float key
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# a comment line\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{bad}:2: {key} must be finite, got {raw!r}")):
            load_config(bad)


class TestEndToEnd:
    def test_full_pipeline(self, cli_workspace, capsys):
        root = cli_workspace["root"]
        protocol = str(cli_workspace["protocol"])
        audio_dir = str(cli_workspace["audio_dir"])
        cfg = str(cli_workspace["cfg"])
        gmm_dir = str(root / "gmms")
        ckpt = str(root / "model.npz")
        scores_path = str(root / "scores.txt")

        assert cli_main([
            "train-gmm", "--protocol", protocol, "--audio-dir", audio_dir,
            "--out", gmm_dir, "--order", "16", "--iters", "3", "--config", cfg,
        ]) == 0
        assert sorted(p.name for p in (root / "gmms").glob("*.bin")) == [
            "gmm_00008.bin", "gmm_00016.bin",
        ]

        assert cli_main([
            "train-model", "--protocol", protocol, "--audio-dir", audio_dir,
            "--gmm-dir", gmm_dir, "--checkpoint", ckpt,
            "--log", str(root / "log.csv"), "--config", cfg,
        ]) == 0
        assert (root / "log.csv").exists()

        assert cli_main([
            "score", "--protocol", protocol, "--audio-dir", audio_dir,
            "--gmm-dir", gmm_dir, "--checkpoint", ckpt, "--out", scores_path,
            "--config", cfg,
        ]) == 0
        records = score_file_read(scores_path)
        assert len(records) == 12

        assert cli_main(["evaluate", "--scores", scores_path, "--protocol", protocol]) == 0
        out = capsys.readouterr().out
        assert "EER:" in out

        # score-then-evaluate equals the in-process evaluation
        labels = {lab.utt_id: lab.key for lab in parse_protocol(protocol)}
        in_process = compute_eer_records(records, labels)
        printed = float(out.split("EER:")[1].split("%")[0])
        assert printed == pytest.approx(100 * in_process.eer, abs=5e-5)

    def test_score_independent_of_batch_size(self, cli_workspace, tmp_path):
        common = ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"])]
        default_cfg = tmp_path / "default_batch.cfg"
        default_cfg.write_text(TINY_CFG.replace("train.batch_size = 8\n", ""))
        gmm_dir, ckpt = str(tmp_path / "gmms"), str(tmp_path / "model.npz")
        assert cli_main(["train-gmm", *common, "--out", gmm_dir, "--iters", "3", "--config", str(default_cfg)]) == 0
        assert cli_main([
            "train-model", *common, "--gmm-dir", gmm_dir, "--checkpoint", ckpt, "--config", str(default_cfg),
        ]) == 0
        scores = {}
        for batch in (1, 3, 4, 32):  # 32 is the default the checkpoint was trained at
            cfg = tmp_path / f"batch{batch}.cfg"
            cfg.write_text(default_cfg.read_text() + f"train.batch_size = {batch}\n")
            out = tmp_path / f"scores{batch}.txt"
            assert cli_main([
                "score", *common, "--gmm-dir", gmm_dir, "--checkpoint", ckpt, "--out", str(out),
                "--config", str(cfg),
            ]) == 0
            scores[batch] = out.read_bytes()
        assert len(score_file_read(tmp_path / "scores1.txt")) == 12
        for batch in (3, 4, 32):  # each utterance is scored alone, so the file's bytes are batch 1's
            assert scores[batch] == scores[1], batch

    def test_train_gmm_order_not_in_bank(self, cli_workspace, capsys):
        assert cli_main([
            "train-gmm", "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]),
            "--out", str(cli_workspace["root"] / "g2"), "--order", "12",
            "--config", str(cli_workspace["cfg"]),
        ]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_train_model_diverging_loss_is_exit_1(self, cli_workspace, capsys):
        root = cli_workspace["root"]
        cfg = root / "diverge.cfg"
        cfg.write_text(TINY_CFG.replace("train.learning_rate = 0.001", "train.learning_rate = 1e308"))
        common = [
            "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]),
            "--config", str(cfg),
        ]
        gmm_dir = str(root / "gmms_diverge")
        assert cli_main(["train-gmm", *common, "--out", gmm_dir, "--order", "16", "--iters", "3"]) == 0
        out_dir = root / "diverged"
        out_dir.mkdir()
        ckpt = out_dir / "diverged.npz"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["train-model", *common, "--gmm-dir", gmm_dir, "--checkpoint", str(ckpt)])
        assert code == 1
        assert "epoch 1" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []  # no checkpoint, and no best-epoch file left behind

    @pytest.mark.parametrize("parent", ["missing", "regular_file"])
    def test_train_model_unusable_checkpoint_directory_is_exit_1_before_epoch_1(
        self, cli_workspace, tmp_path, capsys, parent
    ):
        # (a directory without write permission cannot be tested here: the tests may run as root)
        if parent == "regular_file":
            (tmp_path / parent).write_text("")
        ckpt, log = tmp_path / parent / "model.npz", tmp_path / "log.csv"
        common = [
            "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]),
            "--config", str(cli_workspace["cfg"]),
        ]
        gmm_dir = str(cli_workspace["root"] / "gmms_ckpt_dir")
        assert cli_main(["train-gmm", *common, "--out", gmm_dir, "--order", "16", "--iters", "1"]) == 0
        capsys.readouterr()
        code = cli_main(["train-model", *common, "--gmm-dir", gmm_dir, "--checkpoint", str(ckpt), "--log", str(log)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / parent) in err
        assert "Traceback" not in err
        assert not log.exists()  # no epoch ran


class TestUnreadableAudio:
    """A WAV that cannot be read stops a command before any work is done."""

    @pytest.fixture(scope="class")
    def junk_workspace(self, cli_workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("junk")
        good = [ln for ln in cli_workspace["protocol"].read_text().splitlines() if ln.strip()]
        audio_dir = root / "wav"
        audio_dir.mkdir()
        for line in good[:2]:
            utt = line.split()[1]
            (audio_dir / f"{utt}.wav").write_bytes((cli_workspace["audio_dir"] / f"{utt}.wav").read_bytes())
        (audio_dir / "SYN_JUNK.wav").write_bytes(b"junk")
        protocol = root / "protocol.txt"
        protocol.write_text("\n".join([*good[:2], "SPK2 SYN_JUNK - A01 spoof"]) + "\n")
        gmm_dir = root / "gmms"
        assert cli_main([
            "train-gmm", "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]), "--out", str(gmm_dir),
            "--order", "16", "--iters", "3", "--config", str(cli_workspace["cfg"]),
        ]) == 0
        return {"root": root, "protocol": protocol, "audio_dir": audio_dir, "gmm_dir": gmm_dir}

    @pytest.fixture
    def feature_reads(self, monkeypatch):
        import lgpnet.multiscale as multiscale

        reads = []
        real_read = multiscale.read_wav
        monkeypatch.setattr(
            multiscale, "read_wav", lambda path, utt_id="": reads.append(path) or real_read(path, utt_id)
        )
        return reads

    def test_train_model_with_junk_dev_wav_trains_no_epoch(
        self, cli_workspace, junk_workspace, feature_reads, capsys
    ):
        root = junk_workspace["root"]
        ckpt, log = root / "model.npz", root / "log.csv"
        train = root / "train.txt"  # the train protocol without the dev set's two good utterances
        train.write_text("\n".join(cli_workspace["protocol"].read_text().splitlines()[2:]) + "\n")
        code = cli_main([
            "train-model", "--protocol", str(train),
            "--audio-dir", str(cli_workspace["audio_dir"]), "--gmm-dir", str(junk_workspace["gmm_dir"]),
            "--checkpoint", str(ckpt), "--log", str(log), "--config", str(cli_workspace["cfg"]),
            "--dev-protocol", str(junk_workspace["protocol"]),
            "--dev-audio-dir", str(junk_workspace["audio_dir"]),
        ])
        assert code == 1
        assert "SYN_JUNK.wav: not a readable PCM WAV file" in capsys.readouterr().err
        assert not ckpt.exists()
        assert not log.exists() or len(log.read_text().splitlines()) <= 1  # no epoch row
        assert feature_reads == []

    def test_score_with_junk_wav_writes_no_scores(
        self, cli_workspace, junk_workspace, feature_reads, capsys
    ):
        root = junk_workspace["root"]
        ckpt, out = root / "scoring_model.npz", root / "scores.txt"
        assert cli_main([
            "train-model", "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]), "--gmm-dir", str(junk_workspace["gmm_dir"]),
            "--checkpoint", str(ckpt), "--config", str(cli_workspace["cfg"]),
        ]) == 0
        feature_reads.clear()
        code = cli_main([
            "score", "--protocol", str(junk_workspace["protocol"]),
            "--audio-dir", str(junk_workspace["audio_dir"]), "--gmm-dir", str(junk_workspace["gmm_dir"]),
            "--checkpoint", str(ckpt), "--out", str(out), "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        assert "SYN_JUNK.wav: not a readable PCM WAV file" in capsys.readouterr().err
        assert not out.exists()
        assert feature_reads == []


class TestTrainGmmFrontEnd:
    """train-gmm reads and extracts LFCC per utterance on the worker pool."""

    def each_utterance(self, manifest):
        return np.vstack([
            lfcc_extract(read_wav(path, utt_id=label.utt_id)).values
            for path, label in manifest.entries
        ])

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    def test_frames_equal_each_utterance(self, cli_workspace, forced_pool, monkeypatch, pooled):
        import lgpnet.cli as cli
        import lgpnet.lfcc as lfcc
        import lgpnet.tensor as tensor_mod

        manifest = build_manifest(parse_protocol(cli_workspace["protocol"]), cli_workspace["audio_dir"])
        ref = self.each_utterance(manifest)
        if pooled:
            forced_pool(2)
        else:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        threads = []
        real = lfcc.lfcc_extract
        monkeypatch.setattr(
            lfcc, "lfcc_extract", lambda clip: threads.append(threading.get_ident()) or real(clip)
        )
        frames = cli._pooled_lfcc_frames(manifest)
        assert frames.shape == ref.shape and frames.tobytes() == ref.tobytes()
        assert len(threads) == len(manifest)
        assert (threading.get_ident() in threads) != pooled

    def test_frame_count_unlike_the_header_names_the_file(self, cli_workspace, monkeypatch, tmp_path, capsys):
        import lgpnet.corpus as corpus_mod

        real = corpus_mod.check_wav
        first = build_manifest(parse_protocol(cli_workspace["protocol"]), cli_workspace["audio_dir"]).entries[0][0]

        def one_frame_more(path):
            rate, n = real(path)
            return rate, n + 160 * (path == first)

        monkeypatch.setattr(corpus_mod, "check_wav", one_frame_more)
        out = tmp_path / "gmms"
        code = cli_main([
            "train-gmm", "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]), "--out", str(out),
            "--order", "16", "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        assert f"error: {first}: 99 frames, its header gave 100" in capsys.readouterr().err
        assert not list(out.glob("gmm_*.bin"))

    def test_empty_manifest_refused(self, tmp_path, capsys):
        (tmp_path / "empty.txt").write_text("")
        code = cli_main([
            "train-gmm", "--protocol", str(tmp_path / "empty.txt"), "--audio-dir", str(tmp_path),
            "--out", str(tmp_path / "gmms"), "--order", "64",
        ])
        assert code == 1
        assert "error: train manifest is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "junk"])
    def test_bad_wav_mid_manifest_names_it(self, cli_workspace, two_workers, tmp_path, capsys, bad):
        good = [ln for ln in cli_workspace["protocol"].read_text().splitlines() if ln.strip()]
        audio_dir = tmp_path / "wav"
        audio_dir.mkdir()
        for line in good:
            utt = line.split()[1]
            (audio_dir / f"{utt}.wav").write_bytes((cli_workspace["audio_dir"] / f"{utt}.wav").read_bytes())
        samples = 0.1 * np.sin(np.arange(16000) * 0.05)
        samples[4000] = np.nan
        broken = wav_bytes_float32(samples) if bad == "nan" else b"junk"
        (audio_dir / "BAD_MIDDLE.wav").write_bytes(broken)
        (audio_dir / "BAD_LAST.wav").write_bytes(broken)
        lines = [*good[:4], "SPK2 BAD_MIDDLE - A01 spoof", *good[4:], "SPK2 BAD_LAST - A01 spoof"]
        protocol = tmp_path / "protocol.txt"
        protocol.write_text("\n".join(lines) + "\n")
        out = tmp_path / "gmms"
        code = cli_main([
            "train-gmm", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
            "--out", str(out), "--order", "16", "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "BAD_MIDDLE.wav: " in err and "BAD_LAST" not in err
        assert not list(out.glob("gmm_*.bin"))


class TestScoreV1Checkpoint:
    """tests/data/ckpt_v1_tiny holds a bank, a trained checkpoint and its scores,
    all written by the code of commit 61a7020, before eval-mode BN was folded
    into the convolutions: `train-gmm`, `train-model` and `score` on
    build_synth_corpus(n_per_class=3, seed=5) with CONFIG."""

    DIR = Path(__file__).parent / "data" / "ckpt_v1_tiny"
    CONFIG = TINY_CFG.replace("train.batch_size = 8", "train.batch_size = 4")

    @pytest.fixture(scope="class")
    def scored(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("v1ckpt")
        protocol, audio_dir = build_synth_corpus(root, n_per_class=3, seed=5)
        cfg = root / "tiny.cfg"
        cfg.write_text(self.CONFIG)
        out = root / "scores.txt"
        code = cli_main([
            "score", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
            "--gmm-dir", str(self.DIR), "--checkpoint", str(self.DIR / "model.npz"),
            "--out", str(out), "--config", str(cfg),
        ])
        return code, out

    def test_scores_match_those_written_before_the_fold(self, scored):
        code, out = scored
        assert code == 0
        got, ref = score_file_read(out), score_file_read(self.DIR / "scores.txt")
        assert [r.utt_id for r in got] == [r.utt_id for r in ref]
        for g, r in zip(got, ref):
            assert abs(g.score - r.score) <= 1e-10 * max(1.0, abs(r.score))

    def test_summary_line_reports_utterances_per_second(self, tmp_path, capsys):
        protocol, audio_dir = build_synth_corpus(tmp_path, n_per_class=1, seed=6)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "scores.txt"
        assert cli_main([
            "score", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
            "--gmm-dir", str(self.DIR), "--checkpoint", str(self.DIR / "model.npz"),
            "--out", str(out), "--config", str(cfg),
        ]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        match = re.fullmatch(r"wrote (\d+) scores to (.+) in (\S+) s \((\S+) utt/s\)", line)
        assert match, line
        count, path, seconds, rate = match.groups()
        assert (int(count), path) == (2, str(out))
        assert float(seconds) > 0
        assert float(rate) == pytest.approx(2 / float(seconds), rel=2e-3)  # 4 significant digits each


class TestFloat32Scores:
    def test_full_size_scores_agree_with_the_float64_cast(self, tmp_path):
        # a full-size random checkpoint scores in float32, and the same checkpoint cast
        # to float64 in float64: 12 utterances agree within 1e-4 * max(1, |s|)
        argv = write_full_size_score_inputs(tmp_path)
        protocol, audio_dir = build_synth_corpus(tmp_path / "twelve", n_per_class=6, seed=12)
        argv[argv.index("--protocol") + 1], argv[argv.index("--audio-dir") + 1] = str(protocol), str(audio_dir)
        model, assignment = load_checkpoint(tmp_path / "model.npz")
        assert model.branches[0].dtype == np.float32
        save_checkpoint(tmp_path / "model64.npz", as_float64(model), assignment)
        del model
        scores = {}
        for name in ("model", "model64"):
            run = list(argv)
            run[run.index("--checkpoint") + 1] = str(tmp_path / f"{name}.npz")
            run[run.index("--out") + 1] = str(tmp_path / f"{name}.txt")
            assert cli_main(run) == 0
            scores[name] = score_file_read(tmp_path / f"{name}.txt")
        assert [r.utt_id for r in scores["model"]] == [r.utt_id for r in scores["model64"]]
        assert len(scores["model"]) == 12
        gaps = [abs(a.score - b.score) / max(1.0, abs(b.score)) for a, b in zip(scores["model"], scores["model64"])]
        print(f"float32 against float64 scores: largest gap {max(gaps):.3g} of max(1, |s|)")
        assert max(gaps) <= 1e-4
        assert max(gaps) > 0  # the two computed in different dtypes


class TestScoreBranchResidency:
    """score reads and folds each branch once per chunk, maps the chunk's
    samples over every worker and drops it, on the pool reading the next
    branch while it runs: weakref finalizers on the branches the reader
    returns count those alive, which are never more than two, whatever the
    worker count, and one without a pool."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        from lgpnet.model import build_model, save_checkpoint
        from lgpnet.multiscale import lineage_grouping, save_bank

        root = tmp_path_factory.mktemp("residency")
        bank = random_bank(np.random.default_rng(60), [8, 16], 60)
        save_bank(bank, root / "gmms")
        cfg_path = root / "four_groups.cfg"  # more groups than pool workers
        cfg_path.write_text(TINY_CFG.replace("model.n_groups = 2", "model.n_groups = 4"))
        model_cfg = load_config(cfg_path).model_cfg()
        save_checkpoint(root / "model.npz", build_model(model_cfg, seed=2), lineage_grouping(bank, 4))
        return root

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_at_most_two_branches_alive_each_read_once_per_chunk(
        self, cli_workspace, workspace, monkeypatch, forced_pool, tmp_path, workers
    ):
        import weakref

        import lgpnet.model as model_mod
        import lgpnet.tensor as tensor_mod
        import lgpnet.training as training_mod

        if workers > 1:
            forced_pool(workers)
        else:
            monkeypatch.setattr(tensor_mod, "_get_pool", lambda: None)
        monkeypatch.setattr(training_mod, "_CHUNK_UTTERANCES", 8)  # 12 utterances: chunks of 8 and 4
        lock = threading.Lock()
        alive, most, reads = [0], [0], []
        real_read = model_mod.CheckpointBranches.__getitem__

        def dropped():
            with lock:
                alive[0] -= 1

        def counted_read(self, g):
            branch = real_read(self, g)
            weakref.finalize(branch, dropped)
            with lock:
                alive[0] += 1
                most[0] = max(most[0], alive[0])
                reads.append(g)
            return branch

        monkeypatch.setattr(model_mod.CheckpointBranches, "__getitem__", counted_read)
        code = cli_main([
            "score", "--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(workspace / "model.npz"),
            "--out", str(tmp_path / "scores.txt"), "--config", str(workspace / "four_groups.cfg"),
        ])
        assert code == 0
        assert tensor_mod._pool_workers() == workers
        # on the pool the branch that runs and the next one, read while it runs; inline one
        assert most[0] == min(workers, 2)
        assert reads == [0, 1, 2, 3] * 2
        assert alive[0] == 0


class TestRefusedInputs:
    """Empty manifests, non-16 kHz audio and malformed checkpoints exit 1
    with an `error:` line and write no output."""

    @pytest.fixture(scope="class")
    def workspace(self, cli_workspace, tmp_path_factory):
        from lgpnet.model import build_model, save_checkpoint
        from lgpnet.multiscale import lineage_grouping, save_bank

        root = tmp_path_factory.mktemp("refused")
        bank = random_bank(np.random.default_rng(50), [8, 16], 60)
        save_bank(bank, root / "gmms")
        cfg = load_config(cli_workspace["cfg"])
        save_checkpoint(root / "model.npz", build_model(cfg.model_cfg(), seed=1), lineage_grouping(bank, 2))
        (root / "empty.txt").write_text("")
        (root / "wav8k").mkdir()
        write_wav_int16(root / "wav8k" / "LOW_RATE.wav", np.zeros(8000), sample_rate=8000)
        (root / "low_rate.txt").write_text("SPK1 LOW_RATE - - bonafide\n")
        (root / "wavnan").mkdir()
        samples = 0.1 * np.sin(np.arange(16000) * 0.05)
        samples[8000] = np.nan
        (root / "wavnan" / "NAN_SAMPLE.wav").write_bytes(wav_bytes_float32(samples))
        (root / "wavnan" / "CLEAN.wav").write_bytes(wav_bytes_float32(np.nan_to_num(samples)))
        (root / "nan.txt").write_text("SPK1 NAN_SAMPLE - - bonafide\nSPK1 CLEAN - A01 spoof\n")
        # finite float64 samples, so loud that the power spectrum overflows
        wavfile.write(root / "wavnan" / "LOUD.wav", 16000, 1e200 * np.nan_to_num(samples).astype(np.float64))
        (root / "loud.txt").write_text("SPK1 CLEAN - A01 spoof\nSPK1 LOUD - - bonafide\n")
        return root

    def _score(self, cli_workspace, root, protocol, audio_dir, checkpoint):
        return cli_main([
            "score", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
            "--gmm-dir", str(root / "gmms"), "--checkpoint", str(checkpoint),
            "--out", str(root / "scores.txt"), "--config", str(cli_workspace["cfg"]),
        ])

    @pytest.mark.parametrize("refused", ["empty-train", "empty-dev", "8khz-train", "8khz-dev"])
    def test_train_model_refuses_features_before_epoch_1(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path, refused
    ):
        import lgpnet.training

        epochs = []
        monkeypatch.setattr(lgpnet.training, "run_epoch", lambda *a, **k: epochs.append(1))
        protocol, audio_dir = cli_workspace["protocol"], cli_workspace["audio_dir"]
        if refused == "empty-train":
            protocol = workspace / "empty.txt"
        elif refused == "8khz-train":
            protocol, audio_dir = workspace / "low_rate.txt", workspace / "wav8k"
        args = ["train-model", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
                "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(tmp_path / "model.npz"),
                "--log", str(tmp_path / "log.csv"), "--config", str(cli_workspace["cfg"])]
        if refused == "empty-dev":
            args += ["--dev-protocol", str(workspace / "empty.txt")]
        elif refused == "8khz-dev":
            args += ["--dev-protocol", str(workspace / "low_rate.txt"), "--dev-audio-dir", str(workspace / "wav8k")]
        assert cli_main(args) == 1
        expected = {"empty-train": "error: train manifest is empty", "empty-dev": "error: dev manifest is empty"}.get(
            refused, "LOW_RATE.wav: sample rate 8000 Hz is unsupported"
        )
        assert expected in capsys.readouterr().err
        assert epochs == []
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no best-epoch file, no log

    @pytest.mark.parametrize("flac", [0, 3])
    def test_missing_audio_in_one_line_with_the_count_and_the_first_five(
        self, cli_workspace, workspace, capsys, tmp_path, flac
    ):
        # a wrong --audio-dir for a large corpus once listed every id in one line
        audio_dir = tmp_path / "audio"
        audio_dir.mkdir()
        ids = [f"LA_T_{i:07d}" for i in range(12)]
        write_wav_int16(audio_dir / f"{ids[0]}.wav", np.zeros(16000))
        for utt_id in ids[1 : 1 + flac]:
            (audio_dir / f"{utt_id}.flac").write_bytes(b"fLaC")
        protocol = tmp_path / "protocol.txt"
        protocol.write_text("".join(f"SPK1 {utt_id} - - bonafide\n" for utt_id in ids))
        out = tmp_path / "scores.txt"
        assert cli_main([
            "score", "--protocol", str(protocol), "--audio-dir", str(audio_dir),
            "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(workspace / "model.npz"),
            "--out", str(out), "--config", str(cli_workspace["cfg"]),
        ]) == 1
        err = capsys.readouterr().err
        line = (f"error: {protocol}: 11 of 12 utterances have no <utt_id>.wav under {audio_dir}: "
                "LA_T_0000001, LA_T_0000002, LA_T_0000003, LA_T_0000004, LA_T_0000005, ...")
        if flac:
            line += ("; 3 of them are there as <utt_id>.flac, which lgpnet does not read: "
                     "convert them to 16 kHz mono WAV first")
        assert err == line + "\n"
        assert "LA_T_0000006" not in err and "Traceback" not in err
        assert not out.exists()

    def test_a_repeated_dev_utt_id_names_the_dev_protocol(self, cli_workspace, workspace, capsys, monkeypatch, tmp_path):
        # the line named the split, not the protocol file
        import lgpnet.training

        epochs = []
        monkeypatch.setattr(lgpnet.training, "run_epoch", lambda *a, **k: epochs.append(1))
        protocol = cli_workspace["protocol"]
        line = protocol.read_text().splitlines()[0]
        dev = tmp_path / "dev.txt"
        dev.write_text(f"{line}\n{line}\n")
        out = tmp_path / "model.npz"
        assert cli_main([
            "train-model", "--protocol", str(protocol), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--dev-protocol", str(dev), "--gmm-dir", str(workspace / "gmms"),
            "--checkpoint", str(out), "--config", str(cli_workspace["cfg"]),
        ]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {dev}: duplicate utt_ids in the dev manifest, 1 listed more than once: {line.split()[1]}\n"
        assert str(protocol) not in err
        assert epochs == [] and not out.exists()

    def test_train_model_refuses_a_dev_set_that_shares_utterances_before_any_features(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path
    ):
        import lgpnet.training
        from lgpnet import lfcc, multiscale

        epochs, extracted = [], []
        monkeypatch.setattr(lgpnet.training, "run_epoch", lambda *a, **k: epochs.append(1))
        for module in (lfcc, multiscale):
            monkeypatch.setattr(module, "lfcc_extract", lambda *a, **k: extracted.append(a))
        protocol = cli_workspace["protocol"]
        shared = protocol.read_text().splitlines()
        dev = tmp_path / "dev.txt"
        dev.write_text("\n".join(shared[1:8]) + "\n")  # 7 utterances of the train protocol
        out = tmp_path / "model.npz"
        assert cli_main([
            "train-model", "--protocol", str(protocol), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--dev-protocol", str(dev), "--gmm-dir", str(workspace / "gmms"),
            "--checkpoint", str(out), "--config", str(cli_workspace["cfg"]),
        ]) == 1
        ids = [line.split()[1] for line in shared[1:6]]
        assert capsys.readouterr().err == (
            f"error: 7 utt_ids are in both the train and the dev protocol: {', '.join(ids)}, ...\n"
        )
        assert extracted == [] and epochs == []
        assert not out.exists()

    @pytest.mark.parametrize("orders", [[8], [8, 16, 32]])
    def test_score_refuses_a_bank_of_other_orders_before_any_audio(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path, orders
    ):
        # this 8/16 checkpoint against an order-8 bank once computed the first batch's
        # features, then failed on a column count naming neither file
        import lgpnet.multiscale as multiscale

        bank_dir = tmp_path / "gmms"
        multiscale.save_bank(random_bank(np.random.default_rng(51), orders, 60), bank_dir)
        reads = []
        monkeypatch.setattr(multiscale, "read_wav", lambda *a, **k: reads.append(a))
        monkeypatch.setattr(multiscale, "check_wav", lambda *a, **k: reads.append(a))
        out = tmp_path / "scores.txt"
        code = cli_main([
            "score", "--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--gmm-dir", str(bank_dir), "--checkpoint", str(workspace / "model.npz"),
            "--out", str(out), "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: bank {bank_dir} holds orders {orders}, but checkpoint {workspace / 'model.npz'} " \
            "was trained on orders [8, 16]" in err
        assert reads == []
        assert not out.exists()

    def test_score_with_empty_protocol(self, cli_workspace, workspace, capsys):
        code = self._score(
            cli_workspace, workspace, workspace / "empty.txt", cli_workspace["audio_dir"], workspace / "model.npz"
        )
        assert code == 1
        assert "error: eval manifest is empty" in capsys.readouterr().err
        assert not (workspace / "scores.txt").exists()

    def test_score_refuses_8khz_wav(self, cli_workspace, workspace, capsys):
        code = self._score(
            cli_workspace, workspace, workspace / "low_rate.txt", workspace / "wav8k", workspace / "model.npz"
        )
        assert code == 1
        assert "LOW_RATE.wav: sample rate 8000 Hz is unsupported" in capsys.readouterr().err
        assert not (workspace / "scores.txt").exists()

    @pytest.mark.parametrize("command", ["score", "train-model"])
    def test_nan_sample_names_the_file(self, cli_workspace, workspace, capsys, command):
        args = ["--protocol", str(workspace / "nan.txt"), "--audio-dir", str(workspace / "wavnan"),
                "--gmm-dir", str(workspace / "gmms"), "--config", str(cli_workspace["cfg"])]
        out = workspace / f"nan_{command}.out"
        if command == "score":
            args += ["--checkpoint", str(workspace / "model.npz"), "--out", str(out)]
        else:
            args += ["--checkpoint", str(out)]
        assert cli_main([command, *args]) == 1
        assert "NAN_SAMPLE.wav: non-finite sample values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "train-model", "train-gmm"])
    def test_non_finite_frame_names_the_file(self, cli_workspace, workspace, capsys, tmp_path, command):
        # the file's samples are finite, its LFCC frames are not; no warning or traceback
        # comes before the error line, also under python -W error
        args = ["--protocol", str(workspace / "loud.txt"), "--audio-dir", str(workspace / "wavnan"),
                "--config", str(cli_workspace["cfg"])]
        out = tmp_path / "out"
        if command == "score":
            args += ["--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(workspace / "model.npz"),
                     "--out", str(out)]
        elif command == "train-model":
            args += ["--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(out)]
        else:
            args += ["--out", str(out)]
        assert cli_main([command, *args]) == 1
        path = workspace / "wavnan" / "LOUD.wav"
        assert capsys.readouterr().err == f"error: {path}: frame 0 is not finite\n"
        assert not out.exists()

    def test_score_with_malformed_checkpoint_meta(self, cli_workspace, workspace, capsys):
        broken = workspace / "broken.npz"
        broken.write_bytes((workspace / "model.npz").read_bytes())
        rewrite_meta(broken, lambda meta: meta.pop("assignment"))
        code = self._score(cli_workspace, workspace, cli_workspace["protocol"], cli_workspace["audio_dir"], broken)
        assert code == 1
        assert "broken.npz: malformed checkpoint meta" in capsys.readouterr().err
        assert not (workspace / "scores.txt").exists()

    @pytest.mark.parametrize("case, edit, reason", [
        ("group_input_dim", lambda meta: meta["model_cfg"].update(group_input_dim=0),
         "malformed checkpoint meta (ConfigError: model.group_input_dim must be >= 1, got 0)"),
        ("n_blocks", lambda meta: meta["model_cfg"].update(n_blocks=0),
         "malformed checkpoint meta (ConfigError: model.n_blocks must be >= 1, got 0)"),
        ("kernel", lambda meta: meta["model_cfg"]["block"].update(kernel=2),
         "checkpoint has kernel 2; only 3 is supported"),
        ("assignment", lambda meta: meta["assignment"].update({"8": meta["assignment"]["8"][:-1]}),
         "malformed checkpoint meta (ShapeError: assignment for order 8 has shape (7,))"),
    ], ids=["group_input_dim", "n_blocks", "kernel", "assignment"])
    def test_meta_the_model_refuses_is_a_format_error_naming_the_file(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path, case, edit, reason
    ):
        # load_checkpoint, CheckpointBranches and score each name the file; score exits 1
        # with one error line, before any audio is read
        import lgpnet.multiscale as multiscale
        from lgpnet.errors import FormatError
        from lgpnet.model import CheckpointBranches, load_checkpoint

        broken = tmp_path / f"{case}.npz"
        broken.write_bytes((workspace / "model.npz").read_bytes())
        rewrite_meta(broken, edit)
        message = f"{broken}: {reason}"
        for read in (load_checkpoint, CheckpointBranches):
            with pytest.raises(FormatError) as refused:
                read(broken)
            assert str(refused.value) == message
        reads = []
        monkeypatch.setattr(multiscale, "read_wav", lambda *a, **k: reads.append(a))
        monkeypatch.setattr(multiscale, "check_wav", lambda *a, **k: reads.append(a))
        out = tmp_path / "scores.txt"
        code = cli_main([
            "score", "--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(broken),
            "--out", str(out), "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"  # one line, no traceback
        assert reads == []
        assert not out.exists()

    def test_score_with_wrong_shape_bn_statistic(self, cli_workspace, workspace, capsys):
        broken = workspace / "bad_bn.npz"
        broken.write_bytes((workspace / "model.npz").read_bytes())
        rewrite_arrays(broken, lambda arrays: arrays.update({"bn/group1/1/running_var": np.ones(1)}))
        code = self._score(cli_workspace, workspace, cli_workspace["protocol"], cli_workspace["audio_dir"], broken)
        assert code == 1
        assert "bad_bn.npz: shape mismatch for bn/group1/1/running_var" in capsys.readouterr().err
        assert not (workspace / "scores.txt").exists()

    @pytest.mark.parametrize("damage", ["missing", "misshapen", "float16", "float64"])
    def test_score_refuses_a_damaged_last_group_before_any_audio(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path, damage
    ):
        # score reads each branch only when a worker runs it, but checks every key,
        # shape and dtype from the .npy headers first: the last group's arrays are
        # checked too, and one array of another dtype than the rest is refused
        import lgpnet.multiscale as multiscale

        broken = tmp_path / "model.npz"
        broken.write_bytes((workspace / "model.npz").read_bytes())
        with np.load(broken) as data:
            last = [key for key in data.files if key != "meta"][-1]
        assert last.startswith("bn/group1/")  # the last group's last BN statistic
        if damage == "missing":
            key = last
            rewrite_arrays(broken, lambda arrays: arrays.pop(key))
        elif damage == "misshapen":
            key = "param/group1.classifier.weight"
            rewrite_arrays(broken, lambda arrays: arrays.update({key: arrays[key][:, :-1]}))
        else:
            key = "param/group1.classifier.weight"
            rewrite_arrays(broken, lambda arrays: arrays.update({key: arrays[key].astype(damage)}))
        reads = []
        monkeypatch.setattr(multiscale, "read_wav", lambda *a, **k: reads.append(a))
        monkeypatch.setattr(multiscale, "check_wav", lambda *a, **k: reads.append(a))
        out = tmp_path / "scores.txt"
        code = cli_main([
            "score", "--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(broken),
            "--out", str(out), "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        err = capsys.readouterr().err
        if damage in ("missing", "misshapen"):
            message = "checkpoint is missing" if damage == "missing" else "shape mismatch for"
            assert f"error: {broken}: {message} {key}\n" in err
        else:
            assert err.startswith(f"error: {broken}: {key} is {damage}, but param/group0.entry_conv.weight "
                                  "is float32; a checkpoint's arrays are all float32 or all float64\n")
        assert reads == []
        assert not out.exists()

    def test_score_with_a_flipped_byte_in_a_branch_member(self, cli_workspace, workspace, capsys, monkeypatch, tmp_path):
        import lgpnet.multiscale as multiscale

        # the last byte of a 6 KB member of a float64 checkpoint: the header check
        # reads its first 4 KB and passes, and the CRC fails when a worker reads
        # group 1's branch (the float32 member is 3 KB, read whole by the check)
        model, assignment = load_checkpoint(workspace / "model.npz")
        float64 = tmp_path / "float64.npz"
        save_checkpoint(float64, as_float64(model), assignment)
        raw = float64.read_bytes()
        with np.load(float64) as data:
            values = data["param/group1.block1.conv2.weight"].tobytes()
        at = raw.index(values) + len(values) - 1
        broken = tmp_path / "flipped.npz"
        broken.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :])
        reads = []
        real_read = multiscale.read_wav
        monkeypatch.setattr(multiscale, "read_wav", lambda *a, **k: reads.append(a) or real_read(*a, **k))
        out = tmp_path / "scores.txt"
        code = cli_main([
            "score", "--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(broken),
            "--out", str(out), "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        assert f"error: {broken}: not a readable checkpoint" in capsys.readouterr().err
        assert reads  # the checks passed, and the first chunk's audio was read
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["cut-10", "cut-100", "cut-1000", "cut-half", "zip-magic"])
    def test_score_with_unreadable_checkpoint(self, cli_workspace, workspace, capsys, damage):
        raw = (workspace / "model.npz").read_bytes()
        if damage == "zip-magic":
            raw = b"PK\x03\x04" + bytes(50)
        else:
            raw = raw[: len(raw) // 2 if damage == "cut-half" else int(damage[4:])]
        broken = workspace / f"{damage}.npz"
        broken.write_bytes(raw)
        code = self._score(cli_workspace, workspace, cli_workspace["protocol"], cli_workspace["audio_dir"], broken)
        assert code == 1
        assert f"error: {broken}: not a readable checkpoint" in capsys.readouterr().err
        assert not (workspace / "scores.txt").exists()

    @pytest.mark.parametrize("frames", ["0", "-5"])
    @pytest.mark.parametrize("command", ["score", "train-model"])
    def test_target_frames_below_1_is_exit_1_before_any_audio(
        self, cli_workspace, workspace, capsys, monkeypatch, command, frames
    ):
        import lgpnet.corpus

        def refuse(*args, **kwargs):
            raise AssertionError("a manifest was built")

        monkeypatch.setattr(lgpnet.corpus, "build_manifest", refuse)
        cfg = workspace / f"frames{frames}.cfg"
        cfg.write_text(TINY_CFG.replace("features.target_frames = 50", f"features.target_frames = {frames}"))
        out = workspace / f"frames{frames}_{command}.out"
        args = ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
                "--gmm-dir", str(workspace / "gmms"), "--config", str(cfg)]
        if command == "score":
            args += ["--checkpoint", str(workspace / "model.npz"), "--out", str(out)]
        else:
            args += ["--checkpoint", str(out)]
        assert cli_main([command, *args]) == 1
        assert f"error: features.target_frames must be >= 1, got {frames}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-gmm", "train-model", "score", "describe"])
    def test_n_classes_is_an_unknown_key_exit_1_before_any_work(
        self, cli_workspace, workspace, capsys, monkeypatch, command
    ):
        # the network always has two logits (the score is logit 1 - logit 0), so the
        # former model.n_classes key is refused like any other unknown key, even at 2
        import lgpnet.corpus

        def refuse(*args, **kwargs):
            raise AssertionError("a manifest was built")

        monkeypatch.setattr(lgpnet.corpus, "build_manifest", refuse)
        cfg = workspace / "classes.cfg"
        cfg.write_text(TINY_CFG + "model.n_classes = 2\n")
        out = workspace / f"classes_{command}.out"
        args = ["--config", str(cfg)]
        if command != "describe":
            args += ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"])]
        if command == "train-gmm":
            args += ["--out", str(out)]
        elif command == "train-model":
            args += ["--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(out)]
        elif command == "score":
            args += ["--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(workspace / "model.npz"),
                     "--out", str(out)]
        assert cli_main([command, *args]) == 1
        captured = capsys.readouterr()
        assert re.search(r"^error: .*classes\.cfg:\d+: unknown key 'model\.n_classes'$", captured.err, re.M)
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("model.n_groups", "-8"), ("model.n_groups", "0"), ("model.n_blocks", "0"), ("model.channels", "0")]
    )
    @pytest.mark.parametrize("command", ["describe", "train-model"])
    def test_model_size_below_1_is_exit_1_before_any_work(
        self, cli_workspace, workspace, capsys, monkeypatch, command, key, value
    ):
        # -8 groups once described a model of 0 parameters; 0 groups or blocks raised
        # ZeroDivisionError, each as a traceback, and 0 channels named no key
        import lgpnet.corpus

        def refuse(*args, **kwargs):
            raise AssertionError("a manifest was built")

        monkeypatch.setattr(lgpnet.corpus, "build_manifest", refuse)
        cfg = workspace / f"{key}{value}.cfg"
        cfg.write_text(tiny_cfg_with(f"{key} = {value}"))
        out = workspace / f"{key}{value}_{command}.out"
        args = ["--config", str(cfg)]
        if command == "train-model":
            args += ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
                     "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(out)]
        assert cli_main([command, *args]) == 1
        captured = capsys.readouterr()
        assert f"error: {key} must be >= 1, got {value}" in captured.err
        assert "total:" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_groups, message",
        [("3", "model.n_groups must be a power of 2, got 3"),
         ("31", "model.n_groups must be a power of 2, got 31"),
         ("16", "model.n_groups 16 exceeds the smallest bank order 8")],
    )
    @pytest.mark.parametrize("command", ["describe", "train-model", "score"])
    def test_n_groups_that_cannot_split_the_bank_is_exit_1_before_any_work(
        self, cli_workspace, workspace, capsys, monkeypatch, command, n_groups, message
    ):
        # 31 groups once described an 86,089,790-parameter model with exit 0, and
        # train-model with 3 groups built the manifest and loaded the bank first
        import lgpnet.corpus
        import lgpnet.multiscale

        def refuse(*args, **kwargs):
            raise AssertionError("a manifest was built or a bank loaded")

        monkeypatch.setattr(lgpnet.corpus, "build_manifest", refuse)
        monkeypatch.setattr(lgpnet.multiscale, "load_bank", refuse)
        cfg = workspace / f"groups{n_groups}.cfg"
        cfg.write_text(TINY_CFG.replace("model.n_groups = 2", f"model.n_groups = {n_groups}"))
        out = workspace / f"groups{n_groups}_{command}.out"
        args = ["--config", str(cfg)]
        if command != "describe":
            args += ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
                     "--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(out)]
        if command == "score":
            args[-1] = str(workspace / "model.npz")
            args += ["--out", str(out)]
        assert cli_main([command, *args]) == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "total:" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, orders",
        [("describe", ""), ("describe", "0"), ("describe", "8 -8"), ("train-gmm", "24 64"), ("train-gmm", "64 64")],
    )
    def test_malformed_bank_orders_is_exit_1_before_any_work(
        self, cli_workspace, workspace, capsys, monkeypatch, command, orders
    ):
        # describe died with a ZeroDivisionError traceback (fan-in 0); train-gmm ran EM
        # before a KeyError (24) or GmmBank (64 64) refused the orders
        import lgpnet.corpus

        def refuse(*args, **kwargs):
            raise AssertionError("a manifest was built")

        monkeypatch.setattr(lgpnet.corpus, "build_manifest", refuse)
        cfg = workspace / f"orders{orders.replace(' ', '_')}.cfg"
        cfg.write_text(tiny_cfg_with(f"bank.orders = {orders}"))
        out = workspace / f"orders{orders.replace(' ', '_')}_{command}.out"
        args = ["--config", str(cfg)]
        if command == "train-gmm":
            args += ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
                     "--out", str(out), "--order", "64"]
        assert cli_main([command, *args]) == 1
        captured = capsys.readouterr()
        line = len(TINY_CFG.splitlines()) + 1
        assert captured.err.splitlines() == [
            f"error: {cfg}:{line}: bank.orders: expected distinct positive powers of 2, got {orders!r}"
        ]
        assert "total:" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("train.learning_rate", "nan"), ("train.learning_rate", "inf"), ("train.learning_rate", "-inf")],
    )
    def test_describe_refuses_a_non_finite_float_in_one_error_line(self, workspace, capsys, key, value):
        # describe printed each of these configs and exited 0
        cfg = workspace / f"finite_{key}_{value}.cfg"
        cfg.write_text(tiny_cfg_with(f"{key} = {value}"))
        line = len(TINY_CFG.splitlines()) + 1
        assert cli_main(["describe", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {cfg}:{line}: {key} must be finite, got {value!r}"]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("model.mfa = maybe", "model.mfa: expected a boolean, got 'maybe'"),
            ("train.ensemble_aware = 2", "train.ensemble_aware: expected a boolean, got '2'"),
            ("bank.orders = 8 x", "bank.orders: expected integers, got '8 x'"),
            ("train.epochs = soon", "train.epochs expects int, got 'soon'"),
        ],
    )
    def test_describe_refuses_a_value_that_does_not_parse_naming_its_line(self, workspace, capsys, setting, message):
        # a bool or a bank.orders value that did not parse was refused without its file and line
        cfg = workspace / f"parse_{setting.split()[0]}.cfg"
        cfg.write_text(tiny_cfg_with(setting))
        line = len(TINY_CFG.splitlines()) + 1
        assert cli_main(["describe", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {cfg}:{line}: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "setting",
        ["lfcc.frame_len_ms = 25", "lfcc.frame_shift_ms = 15", "lfcc.fft_size = 512", "lfcc.n_filters = 40",
         "lfcc.n_ceps = 12", "lfcc.include_energy = false", "lfcc.deltas = false",
         "em.variance_floor = nan", "em.split_epsilon = inf", "model.kernel = 5", "train.plateau_patience = 3",
         "train.plateau_factor = -inf", "train.plateau_min_delta = nan",
         "grouping.method = lineage", "grouping.seed = 0", "em.n_iterations = 3"],
    )
    @pytest.mark.parametrize("command", ["describe", "train-gmm", "train-model", "score"])
    def test_a_removed_key_is_unknown_before_any_lfcc(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path, command, setting
    ):
        # the front end, EM's split and floor, the block kernel, the plateau schedule and
        # the grouping are fixed, and so is every key that once set them, and EM's
        # iteration count is train-gmm --iters alone; train-model once trained on frames
        # 15 ms apart, with 40 filters, over a bank that train-gmm made from the
        # defaults, and score then read the defaults again, all with exit 0
        from lgpnet import lfcc, multiscale

        extracted = []
        for module in (lfcc, multiscale):
            monkeypatch.setattr(module, "lfcc_extract", lambda *a, **k: extracted.append(a))
        cfg = tmp_path / "lfcc.cfg"
        cfg.write_text(TINY_CFG + setting + "\n")
        out = tmp_path / "out"
        args = ["--config", str(cfg)]
        if command != "describe":
            args += ["--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"])]
        if command == "train-gmm":
            args += ["--out", str(out)]
        elif command == "train-model":
            args += ["--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(out)]
        elif command == "score":
            args += ["--gmm-dir", str(workspace / "gmms"), "--checkpoint", str(workspace / "model.npz"),
                     "--out", str(out)]
        assert cli_main([command, *args]) == 1
        captured = capsys.readouterr()
        key = setting.split()[0]
        line = len(TINY_CFG.splitlines()) + 1
        assert captured.err.splitlines() == [f"error: {cfg}:{line}: unknown key {key!r}"]
        assert captured.out == "" and extracted == [] and not out.exists()

    def test_a_dev_audio_dir_without_a_dev_protocol_is_a_usage_error(
        self, cli_workspace, workspace, capsys, monkeypatch, tmp_path
    ):
        # the flag was ignored, and training monitored the train loss
        import lgpnet.corpus

        read = []
        for name in ("parse_protocol", "check_wav", "read_wav"):
            monkeypatch.setattr(lgpnet.corpus, name, lambda *a, **k: read.append(a))
        out = tmp_path / "model.npz"
        assert cli_main([
            "train-model", "--protocol", str(cli_workspace["protocol"]), "--audio-dir", str(cli_workspace["audio_dir"]),
            "--dev-audio-dir", str(cli_workspace["audio_dir"]), "--gmm-dir", str(workspace / "gmms"),
            "--checkpoint", str(out), "--config", str(cli_workspace["cfg"]),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: lgpnet")
        assert err.endswith("error: train-model: --dev-audio-dir is given without --dev-protocol\n")
        assert read == [] and not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("train.seed = -1", "train.seed must be >= 0, got -1"),
            ("train.batch_size = 0", "train.batch_size must be >= 1, got 0"),
            ("train.epochs = -2", "train.epochs must be >= 1, got -2"),
            ("train.learning_rate = 0", "train.learning_rate must be > 0, got 0.0"),
            ("train.learning_rate = -1e-3", "train.learning_rate must be > 0, got -0.001"),
            ("model.channels = 0", "model.channels must be >= 1, got 0"),
        ],
    )
    def test_describe_refuses_a_negative_seed_naming_its_key(self, workspace, capsys, setting, message):
        # describe exited 0, and train-model failed after reading the bank with numpy's
        # "expected non-negative integer", which names no key; the other settings were
        # refused naming neither key nor value
        cfg = workspace / f"seed_{setting.split()[-3]}.cfg"
        cfg.write_text(tiny_cfg_with(setting))
        assert cli_main(["describe", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_train_gmm_without_em_iterations(self, cli_workspace, workspace, capsys, monkeypatch, iters):
        import lgpnet.corpus

        monkeypatch.setattr(lgpnet.corpus, "build_manifest", lambda *a, **k: pytest.fail("a manifest was built"))
        out = workspace / f"gmms_iters{iters}"
        code = cli_main([
            "train-gmm", "--protocol", str(cli_workspace["protocol"]),
            "--audio-dir", str(cli_workspace["audio_dir"]), "--out", str(out),
            "--order", "16", "--iters", iters, "--config", str(cli_workspace["cfg"]),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: --iters must be >= 1, got {iters}\n"
        assert not list(out.glob("gmm_*.bin"))
