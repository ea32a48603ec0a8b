"""Boot a GMM from one component to sixteen by binary splitting.

Every split doubles the order by perturbing each mean along +/- epsilon
standard deviations, then EM re-estimates the model.  All intermediate
orders come out of the single run.  A split puts the children of
component i at 2i and 2i+1, so the split history is index arithmetic: at
order K the subtree under the g-th of n nodes holds components
[g*K/n, (g+1)*K/n).  The LGP features of a frame are its log density
under each component without the terms that do not depend on it, each
normalized over the utterance's frames; a one-group `GroupLgp` gives all
of them.
"""
import numpy as np

from lgpnet import EmConfig, GmmBank, GroupLgp, lineage_grouping, log_likelihood, train_by_splitting

rng = np.random.default_rng(1)
centers = np.array([[-6, 0], [-2, 3], [2, -3], [6, 1]], dtype=float)
data = np.vstack([rng.normal(loc=c, scale=0.6, size=(400, 2)) for c in centers])

models = train_by_splitting(data, 16, EmConfig(n_iterations=15))
print("order   per-frame log-likelihood")
for model in models:
    print(f"{model.order:5d}   {log_likelihood(model, data) / data.shape[0]:.4f}")

final = models[-1]
components = np.arange(final.order)
print(f"\nsplit tree: {2 * final.order - 1} nodes, {final.order} leaves")
for node in range(4):
    comps = components[components // (final.order // 4) == node].tolist()
    print(f"  subtree under order-4 component {node}: components {comps}")

bank = GmmBank(gmms=[final])
lgp = GroupLgp(bank, lineage_grouping(bank, 1)).input(data[None, :5], 0).data[0]  # a batch of one utterance
print(f"\nLGP of 5 frames under the order-16 model: {lgp.shape} (dims x frames)")
print("frame 0:", np.round(lgp[:4, 0], 2), "...")
