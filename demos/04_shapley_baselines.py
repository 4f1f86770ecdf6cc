# Coalition-based attribution over modalities, and the hybrid variant.
#
# Exact Shapley values need 2^M forward passes of the original model (absent
# modalities zeroed). The decomposition needs one sweep of M+1 component
# streams, and its bias component can itself be redistributed by a small
# Shapley game, keeping efficiency while staying stable under cross-modal
# replacement.

import numpy as np

import modaldecomp as md

# a hand-checkable affine case: F(a, b) = 2a + 3b + 1 at a = b = 1
from modaldecomp import LayerSpec, ModelGraph

layers = [
    LayerSpec("a", "Input", [], {"modality": 0, "shape": (1,)}),
    LayerSpec("b", "Input", [], {"modality": 1, "shape": (1,)}),
    LayerSpec("cat", "ConcatFusion", ["a", "b"], {"axis": 0}),
    LayerSpec("head", "Dense", ["cat"], {"weight": np.array([[2.0, 3.0]]), "bias": np.array([1.0])}),
]
toy = ModelGraph(layers, "head", 2)
attr = md.shapley(toy, {0: np.array([1.0]), 1: np.array([1.0])})
print("toy F(a,b) = 2a + 3b + 1 at (1,1):")
print(f"  phi_0 = {attr.per_modality[0][0]:.1f}, phi_1 = {attr.per_modality[1][0]:.1f}, "
      f"base = {attr.base[0]:.1f}  ({attr.n_forwards} forwards)")

# a nonlinear fusion net: plain coalition scores vs the hybrid
model = md.gen_synthetic_model(seed=13, spec=md.GenSpec(grid=16, channels=6, depth=3))
samples = md.gen_sample_set(seed=17, model=model, n=4)
x = samples[0]

plain = md.shapley(model, x)
hybrid = md.hybrid_shapley(model, x)
print(f"\nnonlinear net: efficiency residual plain {plain.efficiency_residual():.2e}, "
      f"hybrid {hybrid.efficiency_residual():.2e}")

# stability: replace modality 0, compare modality 1's attribution
pert = dict(x)
pert[0] = samples[2][0]
state = md.record(model, x)
plain_pert = md.shapley(model, pert)
hybrid_pert = md.hybrid_shapley(model, pert, state=state)
print("correlation of modality-1 attribution under m0 replacement:")
print(f"  plain coalition scores: {md.pearson(plain.per_modality[1], plain_pert.per_modality[1]):.4f}")
print(f"  hybrid decomposition:   {md.pearson(hybrid.per_modality[1], hybrid_pert.per_modality[1]):.4f}")
