"""Multi-order LGP features and their partition into groups.

A bank of GMMs with increasing orders gives one LGP column per component,
by ascending order, then component index (1984 columns for the default
bank): one GEMM over the bank's stacked coefficients, then per-column
normalization.  Components are assigned to G groups either at random or by
their split lineage: binary splitting puts the children of component i at
2i and 2i+1, so at order K the branch of component i at the G-node level is
i // (K // G).  `GroupAssignment.columns` permutes the columns into group
order, and `GroupAssignment.index_lists` gives each group's columns.

The pipeline never builds all 1984 columns of a batch.  `ManifestFrames`
computes a manifest's fixed-length LFCC frames batch by batch from the
audio, so memory grows with the batch size, not the corpus size.
`GroupLgp` holds each group's own coefficient columns, and
`GroupLgp.input(frames, g)` makes group g's (N, 248, T) input from a
batch's frames.  The training and inference loops call it inside the map
call that runs branch g (`tensor._parallel_map`), so each group's input is
made on its branch's worker.  Each column's GEMM and normalization read
only that column's coefficients, so group g's input holds the columns
`index_lists()[g]` of the whole multi-order LGP, which a one-group
`GroupLgp` (`lineage_grouping(bank, 1)`) gives: bitwise wherever OpenBLAS
computes a column with the same kernel in the narrow and the full product
(OpenBLAS 0.3.31's SkylakeX kernels do at the default bank and 5 or more
frames), and to rounding elsewhere.
`map_utterances` runs per-utterance work (read, LFCC) as a map, under the
map contract of `tensor._ordered_map`: every OpenBLAS runs at one thread
for its calls, so the features are bitwise the same whatever the CPU count.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import AudioClip, Manifest, check_wav, label_index, read_wav
from .errors import ConfigError, FormatError, ManifestError, ShapeError
from .gmm import Gmm, _lgp, _lgp_coefficients, load_gmm, save_gmm
from .lfcc import FeatureMatrix, LfccConfig, fix_length, lfcc_extract
from .tensor import Tensor, _parallel_map


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
        # (2D, sum K): every order's [-1/2 inv(S); inv(S) mu]' side by side
        self.coefficients = np.hstack([_lgp_coefficients(g) for g in self.gmms])

    @property
    def orders(self) -> list[int]:
        return [g.order for g in self.gmms]

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
        # a stable sort keeps the concatenated column order within each group
        self.columns = np.argsort(np.concatenate([self.groups[o] for o in self.orders]), kind="stable")
        self.columns.flags.writeable = False  # index_lists hands out views of it

    @property
    def orders(self) -> list[int]:
        return sorted(self.groups)

    def group_dim(self) -> int:
        return sum(self.orders) // self.n_groups

    def index_lists(self) -> list[np.ndarray]:
        """Concatenated-feature column indices per group (views of `columns`)."""
        return np.split(self.columns, self.n_groups)


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
    """Uniformly random balanced partition: lineage arithmetic on a random permutation per order."""
    _check_grouping_args(bank, n_groups)
    rng = np.random.default_rng(seed)
    groups = {order: np.empty(order, dtype=np.int64) for order in bank.orders}
    for order, assign in groups.items():
        assign[rng.permutation(order)] = np.arange(order) // (order // n_groups)
    return GroupAssignment(groups=groups, n_groups=n_groups)


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
    """Waveform -> fixed-length LFCC -> the normalized LGP of every bank
    order, concatenated along the feature axis, from one GEMM."""
    feat = fix_length(lfcc_extract(clip, lfcc_cfg), target_frames)
    if feat.n_dims != bank.dim:
        raise ShapeError(f"feature dim {feat.n_dims} does not match bank dim {bank.dim}")
    return FeatureMatrix(values=_lgp(feat.values, bank.coefficients))


def map_utterances(manifest: Manifest, idx, fn) -> list:
    """[fn(j, clip_j) for each j], where clip_j is manifest entry idx[j] as
    `read_wav` reads it, as one map (`tensor._parallel_map`; the contract is
    `tensor._ordered_map`'s).

    A ValueError from fn, such as FeatureMatrix's refusal of an LFCC frame
    that is not finite (from audio loud enough to overflow the power
    spectrum, which then warns no more), is raised as FormatError naming
    the file: "<path>: frame <i> is not finite".  The map raises the first
    error in idx order, so the first failing file is the one named.
    """
    entries = [manifest.entries[i] for i in idx]

    def one(j: int):
        path, label = entries[j]
        clip = read_wav(path, utt_id=label.utt_id)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(j, clip)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None

    return _parallel_map(one, len(entries))


class GroupLgp:
    """Each group's LGP coefficients: `coefficients[g]` is the (2D, group_dim)
    block `bank.coefficients[:, assignment.index_lists()[g]]`, made once."""

    def __init__(self, bank: GmmBank, assignment: GroupAssignment):
        if bank.orders != assignment.orders:
            raise ShapeError(f"bank orders {bank.orders} differ from the grouping's {assignment.orders}")
        self.assignment = assignment
        self.dim = bank.dim
        self.coefficients = [bank.coefficients[:, cols] for cols in assignment.index_lists()]

    def input(self, frames: np.ndarray, g: int) -> Tensor:
        """Group g's input for an (N, T, D) batch of frames: a new
        (N, group_dim, T) float64 Tensor, in the front end's dtype (the
        branch casts it to its own), whose sample j's channels are
        `gmm._lgp(frames[j], coefficients[g])` transposed, channels-first as
        the 1-d convolution stack consumes them."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[2] != self.dim:
            raise ShapeError(f"frames of shape {frames.shape} are not N x T x {self.dim}")
        coef = self.coefficients[g]
        n, t, _ = frames.shape
        out = np.empty((n, coef.shape[1], t))
        for j in range(n):
            out[j] = _lgp(frames[j], coef).T
        return Tensor(out)


class ManifestFrames:
    """A manifest's (N, T, D) fixed-length LFCC frames, computed from the audio
    on indexing.

    `src[idx]` reads and transforms only the utterances in the 1-d index
    array `idx`, on the worker pool (`map_utterances`), into a C-contiguous
    (len(idx), target_frames, D) array, bitwise equal to the same rows of
    the fully stacked frames.  A frame that is not finite raises
    FormatError naming the utterance's file.  Construction refuses an empty
    manifest and checks every WAV header (`check_wav`), so an unreadable
    file fails before any batch.
    """

    def __init__(
        self,
        manifest: Manifest,
        lfcc_cfg: LfccConfig | None = None,
        target_frames: int = 400,
    ):
        if len(manifest) == 0:
            raise ManifestError(f"{manifest.split} manifest is empty: no utterances to compute features for")
        if target_frames < 1:
            raise ShapeError(f"target_frames must be >= 1, got {target_frames}")
        for wav_path, _ in manifest.entries:
            check_wav(wav_path)
        self.manifest = manifest
        self.lfcc_cfg = lfcc_cfg or LfccConfig()
        self.target_frames = target_frames
        self.labels = np.asarray([label_index(lab) for _, lab in manifest.entries], dtype=np.int64)
        self.utt_ids = [lab.utt_id for _, lab in manifest.entries]

    def __len__(self) -> int:
        return len(self.manifest)

    def __getitem__(self, idx) -> np.ndarray:
        out = np.empty((len(idx), self.target_frames, self.lfcc_cfg.n_dims))

        def fill(j: int, clip: AudioClip) -> None:
            out[j] = fix_length(lfcc_extract(clip, self.lfcc_cfg), self.target_frames).values

        map_utterances(self.manifest, idx, fill)
        return out
