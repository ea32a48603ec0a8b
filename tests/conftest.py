from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lgpnet.tensor as tensor_mod

from helpers import build_synth_corpus

from lgpnet.corpus import build_manifest, parse_protocol
from lgpnet.gmm import EmConfig, train_by_splitting
from lgpnet.lfcc import lfcc_extract
from lgpnet.multiscale import GmmBank, GroupLgp, ManifestFrames, lineage_grouping


@pytest.fixture
def forced_pool(monkeypatch):
    """forced_pool(n) runs the tensor engine's pool regions on n worker
    threads, whatever the CPU count, with the BLAS library pinned as in a
    real pool region."""
    pools = []

    def make(workers: int) -> ThreadPoolExecutor:
        pool = ThreadPoolExecutor(max_workers=workers, initializer=tensor_mod._mark_worker)
        pools.append(pool)
        monkeypatch.setattr(tensor_mod, "_get_pool", lambda: pool)
        monkeypatch.setattr(tensor_mod, "_blas_controls", tensor_mod._find_blas_controls())
        return pool

    yield make
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def two_workers(forced_pool):
    return forced_pool(2)


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """Small two-class corpus on disk: 8 tone + 8 noise waveforms."""
    root = tmp_path_factory.mktemp("corpus")
    protocol, audio_dir = build_synth_corpus(root, n_per_class=8, seed=11)
    return protocol, audio_dir


@pytest.fixture(scope="session")
def tiny_pipeline(synth_corpus):
    """Manifest + order-{8,16} bank + G=2 lineage grouping and its GroupLgp +
    stacked fixed-length LFCC frames."""
    protocol, audio_dir = synth_corpus
    manifest = build_manifest(parse_protocol(protocol), audio_dir)
    frames = np.vstack([lfcc_extract_from(path) for path, _ in manifest.entries])
    models = train_by_splitting(frames, 16, EmConfig(n_iterations=4))
    bank = GmmBank(gmms=[m for m in models if m.order in (8, 16)])
    assignment = lineage_grouping(bank, 2)
    src = ManifestFrames(manifest, target_frames=50)
    return {
        "manifest": manifest,
        "bank": bank,
        "assignment": assignment,
        "lgp": GroupLgp(bank, assignment),
        "feats": src[np.arange(len(src))],
        "labels": src.labels,
        "utt_ids": src.utt_ids,
    }


def lfcc_extract_from(path):
    from lgpnet.corpus import read_wav

    return lfcc_extract(read_wav(path)).values
