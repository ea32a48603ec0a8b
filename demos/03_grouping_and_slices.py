"""Group the components of a multi-order bank by split lineage.

Components descending from the same branch of the split tree get the same
group, so each group sees a coherent region of the feature space.  Binary
splitting puts the children of component i at 2i and 2i+1, so at order K
component i belongs to group i // (K // G).  Random grouping is the
baseline alternative.  The concatenated multi-order LGP
matrix is then sliced per group for the per-group network branches.
"""
import numpy as np

from lgpnet import (
    EmConfig,
    FeatureMatrix,
    GmmBank,
    extract_multiscale_lgp,
    lineage_grouping,
    random_grouping,
    train_by_splitting,
)

rng = np.random.default_rng(2)
data = np.vstack([rng.normal(loc=c, scale=0.5, size=(300, 3)) for c in (-4.0, 0.0, 4.0)])

models = train_by_splitting(data, 32, EmConfig(n_iterations=8))
bank = GmmBank(gmms=[m for m in models if m.order in (8, 16, 32)])
print(f"bank orders: {bank.orders}, total components: {bank.total_components}")

lineage = lineage_grouping(bank, 4)
rand = random_grouping(bank, 4, seed=0)
print("\norder 8 lineage groups:", lineage.groups[8])
print("order 8 random groups: ", rand.groups[8])
for order in bank.orders:
    assert np.array_equal(lineage.groups[order], np.arange(order) // (order // 4))
print("lineage group of component i at order K is i // (K // 4)")
print("lineage keeps split siblings together; random scatters them")

feat = FeatureMatrix(values=rng.normal(size=(50, 3)))
lgp = extract_multiscale_lgp(bank, feat)
print(f"\nmulti-order LGP: {lgp.values.shape} (frames x {8}+{16}+{32} dims)")

slices = lineage.split(lgp.values)
print(f"{len(slices)} group slices of shape {slices[0].shape}")
total = sum(s.shape[1] for s in slices)
print(f"slice dims sum back to {total} = {bank.total_components}")
