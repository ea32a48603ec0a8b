"""Group the components of a multi-order bank by split lineage.

Components descending from the same branch of the split tree get the same
group, so each group sees a coherent region of the feature space.  Binary
splitting puts the children of component i at 2i and 2i+1, so at order K
component i belongs to group i // (K // G).  Random grouping is the
baseline alternative.  Each group's network branch reads only its own
columns of the concatenated multi-order LGP matrix, so the pipeline makes
each group's input from the LFCC frames with that group's GMM coefficients
alone (`GroupLgp`), never the whole matrix.
"""
import numpy as np

from lgpnet import (
    GmmBank,
    GroupLgp,
    lineage_grouping,
    random_grouping,
    train_by_splitting,
)

rng = np.random.default_rng(2)
data = np.vstack([rng.normal(loc=c, scale=0.5, size=(300, 3)) for c in (-4.0, 0.0, 4.0)])

models = train_by_splitting(data, 32, n_iterations=8)
bank = GmmBank(gmms=[m for m in models if m.order in (8, 16, 32)])
print(f"bank orders: {bank.orders}, total components: {sum(bank.orders)}")

lineage = lineage_grouping(bank, 4)
rand = random_grouping(bank, 4, seed=0)
print("\norder 8 lineage groups:", lineage.groups[8])
print("order 8 random groups: ", rand.groups[8])
for order in bank.orders:
    assert np.array_equal(lineage.groups[order], np.arange(order) // (order // 4))
print("lineage group of component i at order K is i // (K // 4)")
print("lineage keeps split siblings together; random scatters them")

frames = rng.normal(size=(1, 50, 3))  # a batch of one utterance's frames
lgp = GroupLgp(bank, lineage_grouping(bank, 1)).input(frames, 0).data  # one group: the whole LGP
print(f"\nmulti-order LGP: {lgp.shape} (utterances x {8}+{16}+{32} dims x frames)")

grouped = GroupLgp(bank, lineage)
inputs = [grouped.input(frames, g).data for g in range(lineage.n_groups)]
print(f"{len(inputs)} group inputs of shape {inputs[0].shape} (utterances x dims x frames)")
for x, cols in zip(inputs, lineage.index_lists()):
    assert np.allclose(x, lgp[:, cols], rtol=1e-12, atol=1e-12)
total = sum(x.shape[1] for x in inputs)
print(f"each is its group's columns of the LGP; dims sum back to {total} = {sum(bank.orders)}")
