"""Boot a GMM from one component to sixteen by binary splitting.

Every split doubles the order by perturbing each mean along +/- epsilon
standard deviations, then EM re-estimates the model.  All intermediate
orders come out of the single run.  A split puts the children of
component i at 2i and 2i+1, so the split history is index arithmetic: at
order K the subtree under the g-th of n nodes holds components
[g*K/n, (g+1)*K/n).
"""
import numpy as np

from lgpnet import EmConfig, FeatureMatrix, lgp_transform, log_likelihood, train_by_splitting

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

frames = FeatureMatrix(values=data[:5])
lgp = lgp_transform(final, frames, normalize=False)
print(f"\nLGP of 5 frames under the order-16 model: {lgp.values.shape}")
print("frame 0:", np.round(lgp.values[0, :4], 2), "...")
