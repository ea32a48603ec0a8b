"""Multi-order LGP features and their partition into groups.

A bank of GMMs with increasing orders produces one LGP block per order;
the blocks are concatenated along the feature axis (64+128+256+512+1024 =
1984 dims for the default bank).  Components are then assigned to G groups
either at random or by their split lineage: components descending from the
same branch of the binary-split tree land in the same group.  Binary
splitting puts the children of component i at 2i and 2i+1, so at order K
the branch of component i at the G-node level is simply i // (K // G).

`ManifestLgp` computes a manifest's features batch by batch from the audio,
so memory grows with the batch size, not the corpus size.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import AudioClip, Manifest, check_wav, label_index, read_wav
from .errors import ConfigError, ShapeError
from .gmm import Gmm, lgp_transform, load_gmm, save_gmm
from .lfcc import FeatureMatrix, LfccConfig, fix_length, lfcc_extract


@dataclass
class GmmBank:
    gmms: list[Gmm]

    def __post_init__(self):
        orders = [g.order for g in self.gmms]
        if not orders:
            raise ValueError("bank must hold at least one GMM")
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError(f"bank orders must be strictly increasing, got {orders}")
        dims = {g.dim for g in self.gmms}
        if len(dims) != 1:
            raise ShapeError(f"bank GMMs disagree on feature dimension: {sorted(dims)}")

    @property
    def orders(self) -> list[int]:
        return [g.order for g in self.gmms]

    @property
    def total_components(self) -> int:
        return sum(self.orders)

    @property
    def dim(self) -> int:
        return self.gmms[0].dim


@dataclass
class GroupAssignment:
    """Per-order map from component index to group id in 0..n_groups-1."""

    groups: dict[int, np.ndarray]  # order -> (order,) int array
    n_groups: int

    def __post_init__(self):
        self.groups = {order: np.array(g, dtype=np.int64) for order, g in self.groups.items()}
        for order, g in self.groups.items():
            if g.shape != (order,):
                raise ShapeError(f"assignment for order {order} has shape {g.shape}")
            counts = np.bincount(g, minlength=self.n_groups)
            if counts.size > self.n_groups or np.any(counts != order // self.n_groups):
                raise ValueError(f"assignment for order {order} is not balanced over {self.n_groups} groups")

    @property
    def orders(self) -> list[int]:
        return sorted(self.groups)

    def group_dim(self) -> int:
        return sum(self.orders) // self.n_groups

    def index_lists(self) -> list[np.ndarray]:
        """Concatenated-feature column indices per group.

        Columns of the concatenated LGP matrix are ordered by ascending GMM
        order, then component index; within each group the same ordering is
        kept, which pins the row layout of every group slice.
        """
        offsets = {}
        off = 0
        for order in self.orders:
            offsets[order] = off
            off += order
        out = []
        for g in range(self.n_groups):
            cols = []
            for order in self.orders:
                comps = np.flatnonzero(self.groups[order] == g)
                cols.append(comps + offsets[order])
            out.append(np.concatenate(cols))
        return out


def _check_grouping_args(bank: GmmBank, n_groups: int) -> None:
    if n_groups < 1 or n_groups & (n_groups - 1):
        raise ConfigError(f"group count must be a power of 2, got {n_groups}")
    low = min(bank.orders)
    if low < n_groups:
        raise ConfigError(f"every GMM order must be >= the group count ({low} < {n_groups})")


def lineage_grouping(bank: GmmBank, n_groups: int) -> GroupAssignment:
    """Group components by their shared ancestor in the split tree.

    Group g is the g-th node, left to right, of the tree level with
    n_groups nodes.  Its leaves at order K are the contiguous components
    [g * K/G, (g+1) * K/G), because every split maps i to 2i and 2i+1.
    """
    _check_grouping_args(bank, n_groups)
    groups = {
        order: np.arange(order, dtype=np.int64) // (order // n_groups) for order in bank.orders
    }
    return GroupAssignment(groups=groups, n_groups=n_groups)


def random_grouping(bank: GmmBank, n_groups: int, seed: int) -> GroupAssignment:
    """Uniformly random balanced partition of each order's components."""
    _check_grouping_args(bank, n_groups)
    rng = np.random.default_rng(seed)
    groups = {}
    for gmm in bank.gmms:
        perm = rng.permutation(gmm.order)
        assign = np.empty(gmm.order, dtype=np.int64)
        per_group = gmm.order // n_groups
        for g in range(n_groups):
            assign[perm[g * per_group : (g + 1) * per_group]] = g
        groups[gmm.order] = assign
    return GroupAssignment(groups=groups, n_groups=n_groups)


def extract_multiscale_lgp(bank: GmmBank, lfcc_feat: FeatureMatrix) -> FeatureMatrix:
    """Concatenate each order's normalized LGP block along the feature axis."""
    blocks = [lgp_transform(g, lfcc_feat).values for g in bank.gmms]
    return FeatureMatrix(values=np.hstack(blocks))


def group_slices(assignment: GroupAssignment, feat: FeatureMatrix) -> list[FeatureMatrix]:
    """Split a concatenated LGP matrix into its G group slices."""
    total = sum(assignment.orders)
    if feat.n_dims != total:
        raise ShapeError(f"feature dim {feat.n_dims} does not match assignment total {total}")
    return [FeatureMatrix(values=feat.values[:, cols]) for cols in assignment.index_lists()]


def save_bank(bank: GmmBank, directory: str | Path) -> None:
    """One model file per order, named gmm_<order>.bin."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for gmm in bank.gmms:
        save_gmm(gmm, directory / f"gmm_{gmm.order:05d}.bin")


def load_bank(directory: str | Path) -> GmmBank:
    directory = Path(directory)
    paths = sorted(directory.glob("gmm_*.bin"))
    if not paths:
        raise FileNotFoundError(f"no gmm_*.bin files under {directory}")
    return GmmBank(gmms=[load_gmm(p) for p in paths])


def utterance_lgp(
    clip: AudioClip,
    bank: GmmBank,
    lfcc_cfg: LfccConfig | None = None,
    target_frames: int = 400,
) -> FeatureMatrix:
    """Waveform -> fixed-length LFCC -> concatenated multi-order LGP."""
    feat = fix_length(lfcc_extract(clip, lfcc_cfg), target_frames)
    return extract_multiscale_lgp(bank, feat)


class ManifestLgp:
    """A manifest's (N, D, T) LGP features, computed from the audio on indexing.

    `src[idx]` reads, transforms and stacks only the utterances in the 1-d
    index array `idx`, giving a (len(idx), D, T) array that is bitwise equal
    to the same rows of the fully stacked features.  The feature axis comes
    first within each utterance (channels-first) because that is the layout
    the 1-d convolution stack consumes.  Construction checks every WAV
    header (`check_wav`), so an unreadable file fails before any batch.
    """

    def __init__(
        self,
        manifest: Manifest,
        bank: GmmBank,
        lfcc_cfg: LfccConfig | None = None,
        target_frames: int = 400,
    ):
        for wav_path, _ in manifest.entries:
            check_wav(wav_path)
        self.manifest = manifest
        self.bank = bank
        self.lfcc_cfg = lfcc_cfg
        self.target_frames = target_frames
        self.labels = np.asarray([label_index(lab) for _, lab in manifest.entries], dtype=np.int64)
        self.utt_ids = [lab.utt_id for _, lab in manifest.entries]

    def __len__(self) -> int:
        return len(self.manifest)

    def __getitem__(self, idx) -> np.ndarray:
        feats = []
        for i in np.asarray(idx, dtype=np.int64):
            wav_path, label = self.manifest.entries[i]
            clip = read_wav(wav_path, utt_id=label.utt_id)
            feats.append(utterance_lgp(clip, self.bank, self.lfcc_cfg, self.target_frames).values.T)
        return np.stack(feats)


def manifest_lgp_features(
    manifest: Manifest,
    bank: GmmBank,
    lfcc_cfg: LfccConfig | None = None,
    target_frames: int = 400,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stacked (N, D, T) LGP features, (N,) labels, and utt_ids for a manifest."""
    src = ManifestLgp(manifest, bank, lfcc_cfg, target_frames)
    return src[np.arange(len(src))], src.labels, src.utt_ids
