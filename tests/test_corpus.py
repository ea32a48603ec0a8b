import re
import warnings

import numpy as np
import pytest

from helpers import wav_bytes_float32, wav_bytes_int16, write_wav_int16

from lgpnet.corpus import (
    AudioClip,
    Manifest,
    UtteranceLabel,
    build_manifest,
    check_wav,
    label_index,
    parse_protocol,
    read_wav,
    serialize_protocol,
)
from lgpnet.errors import FormatError, ManifestError, ProtocolError, UnsupportedAudioError


class TestReadWav:
    def test_max_amplitude_normalization(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(wav_bytes_int16(np.array([32767])))
        clip = read_wav(wav)
        assert clip.samples.shape == (1,)
        assert clip.samples[0] == pytest.approx(32767 / 32768, abs=1e-9)

    def test_zero_payload(self, tmp_path):
        wav = tmp_path / "z.wav"
        wav.write_bytes(wav_bytes_int16(np.zeros(160)))
        clip = read_wav(wav)
        assert clip.sample_rate == 16000
        assert clip.samples.shape == (160,)
        assert np.all(clip.samples == 0.0)

    def test_missing_riff_magic(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"JUNK" + wav_bytes_int16(np.zeros(10))[4:])
        with pytest.raises(FormatError):
            read_wav(bad)

    def test_multichannel_rejected_with_downmix_hint(self, tmp_path):
        wav = tmp_path / "st.wav"
        stereo = np.zeros(20, dtype=np.int16)
        wav.write_bytes(wav_bytes_int16(stereo, channels=2))
        with pytest.raises(UnsupportedAudioError, match="downmix"):
            read_wav(wav)

    def test_float32_passthrough(self, tmp_path):
        wav = tmp_path / "f.wav"
        values = np.array([-0.5, 0.25, 1.0], dtype=np.float32)
        wav.write_bytes(wav_bytes_float32(values))
        clip = read_wav(wav)
        assert np.allclose(clip.samples, values)

    def test_sine_sample_count_roundtrip(self, tmp_path):
        n = 12345
        sine = (0.7 * np.sin(2 * np.pi * 440 * np.arange(n) / 16000) * 32767).astype(np.int16)
        wav = tmp_path / "s.wav"
        write_wav_int16(wav, sine)
        assert read_wav(wav).samples.size == n

    def test_utt_id_defaults_to_stem(self, tmp_path):
        wav = tmp_path / "LA_T_000.wav"
        write_wav_int16(wav, np.zeros(10))
        assert read_wav(wav).utt_id == "LA_T_000"


def raised_by(fn, path):
    try:
        fn(path)
    except Exception as exc:
        return type(exc)
    return None


class TestCheckWav:
    @pytest.mark.parametrize(
        "payload, expected",
        [
            (wav_bytes_int16(np.arange(10)), None),
            (wav_bytes_float32(np.array([0.5, -0.25])), None),
            (b"junk", FormatError),
            (b"JUNK" + wav_bytes_int16(np.zeros(10))[4:], FormatError),
            (wav_bytes_int16(np.zeros(20), channels=2), UnsupportedAudioError),
            (wav_bytes_int16(np.zeros(0)), ValueError),
            (wav_bytes_int16(np.zeros(100))[:120], None),  # data chunk cut short
            (wav_bytes_int16(np.arange(10), sample_rate=8000), UnsupportedAudioError),
        ],
        ids=["int16", "float32", "junk", "no-riff", "stereo", "no-samples", "truncated", "8kHz"],
    )
    def test_same_verdict_as_read_wav(self, tmp_path, payload, expected):
        wav = tmp_path / "a.wav"
        wav.write_bytes(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on the truncated file
            assert raised_by(read_wav, wav) is expected
            assert raised_by(check_wav, wav) is expected

    @pytest.mark.parametrize(
        "payload",
        [
            wav_bytes_int16(np.arange(10)),
            wav_bytes_float32(np.linspace(-0.5, 0.5, 777)),
            wav_bytes_int16(np.zeros(100))[:120],  # data chunk cut short
        ],
        ids=["int16", "float32", "truncated"],
    )
    def test_returns_the_rate_and_sample_count_read_wav_gives(self, tmp_path, payload):
        wav = tmp_path / "a.wav"
        wav.write_bytes(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on the truncated file
            clip = read_wav(wav)
            assert check_wav(wav) == (clip.sample_rate, clip.samples.size)

    def test_samples_are_memory_mapped_not_read(self, tmp_path, monkeypatch):
        import lgpnet.corpus as corpus_mod

        calls = []
        real_read = corpus_mod.wavfile.read

        def recording_read(path, mmap=False):
            calls.append(mmap)
            return real_read(path, mmap=mmap)

        monkeypatch.setattr(corpus_mod.wavfile, "read", recording_read)
        wav = tmp_path / "a.wav"
        write_wav_int16(wav, np.zeros(1000))
        check_wav(wav)
        assert calls == [True]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check_wav(tmp_path / "absent.wav")


class TestAudioClip:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([]), sample_rate=16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros(4), sample_rate=0)


class TestParseProtocol:
    def test_bonafide_line(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("LA_0079 LA_T_1138215 - - bonafide\n")
        labels = parse_protocol(p)
        assert labels == [UtteranceLabel(utt_id="LA_T_1138215", key="bonafide", attack_id=None)]

    def test_spoof_line_with_attack(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("LA_0079 LA_T_1271820 - A01 spoof\n")
        labels = parse_protocol(p)
        assert labels == [UtteranceLabel(utt_id="LA_T_1271820", key="spoof", attack_id="A01")]

    def test_unknown_key_names_line(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("LA_0079 LA_T_1 - - bonafide\nLA_0079 LA_T_2 - - genuine\n")
        with pytest.raises(ProtocolError, match=":2"):
            parse_protocol(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("only three fields\n")
        with pytest.raises(ProtocolError, match=":1"):
            parse_protocol(p)

    def test_serialize_parse_roundtrip(self, tmp_path):
        labels = [
            UtteranceLabel("U1", "bonafide", None),
            UtteranceLabel("U2", "spoof", "A07"),
            UtteranceLabel("U3", "spoof", None),
        ]
        p = tmp_path / "round.txt"
        serialize_protocol(labels, p)
        assert parse_protocol(p) == labels

    def test_label_index_convention(self):
        assert label_index(UtteranceLabel("a", "bonafide")) == 1
        assert label_index(UtteranceLabel("b", "spoof")) == 0


class TestBuildManifest:
    def _labels(self):
        return [
            UtteranceLabel("U1", "bonafide"),
            UtteranceLabel("U2", "spoof", "A01"),
            UtteranceLabel("U3", "bonafide"),
        ]

    def test_all_present_keeps_protocol_order(self, tmp_path):
        for u in ("U1", "U2", "U3"):
            write_wav_int16(tmp_path / f"{u}.wav", np.zeros(10))
        manifest = build_manifest(self._labels(), tmp_path)
        assert [lab.utt_id for _, lab in manifest.entries] == ["U1", "U2", "U3"]
        assert len(manifest) == 3

    def test_missing_file_named(self, tmp_path):
        for u in ("U1", "U3"):
            write_wav_int16(tmp_path / f"{u}.wav", np.zeros(10))
        with pytest.raises(ManifestError, match="U2"):
            build_manifest(self._labels(), tmp_path)

    def test_empty_protocol_gives_empty_manifest(self, tmp_path):
        manifest = build_manifest([], tmp_path)
        assert len(manifest) == 0

    def test_duplicate_utt_ids_rejected(self, tmp_path):
        # the message once named neither a count nor an id
        ids = [f"U{i}" for i in range(8)]
        for utt_id in ids:
            write_wav_int16(tmp_path / f"{utt_id}.wav", np.zeros(10))
        order = ids + ids[6:0:-1] + ["U7"]  # U6 ... U1 and U7 listed again, in another order
        labels = [UtteranceLabel(utt_id, "bonafide") for utt_id in order]
        line = "duplicate utt_ids in the eval manifest, 7 listed more than once: U1, U2, U3, U4, U5, ..."
        with pytest.raises(ManifestError, match=f"^{re.escape(line)}$"):
            build_manifest(labels, tmp_path, split="eval")

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            Manifest(entries=[], split="test")
