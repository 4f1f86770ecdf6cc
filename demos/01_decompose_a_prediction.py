# Decompose one prediction of a two-sensor fusion net into per-modality maps.
#
# One sweep pushes the inputs through the net as separate component streams,
# freezing each non-linearity at the sum of its input streams as it goes; this
# splits the prediction exactly: m0 + m1 + bias == original output, at every layer.

import numpy as np

import modaldecomp as md

model = md.gen_synthetic_model(seed=7, spec=md.GenSpec(grid=32, channels=8, depth=3))
samples = md.gen_sample_set(seed=3, model=model, n=4)

result = md.decompose(model, samples[0])
out = result.output

print(f"model: {len(model.layers)} layers, {model.modalities} modalities")
print(f"output shape: {out.shape}, components: {out.parts.shape[0]}")

# the components really do sum back to the prediction of a plain forward pass
residuals = md.equality_residuals(model, result.components, result.state)
print(f"max per-layer equality residual: {max(residuals.values()):.3e}")

for i, label in enumerate(md.component_labels(model.modalities)):
    part = out.parts[i]
    print(f"  {label:>5}: |mean| {abs(part.mean()):.4f}  max {part.max():+.4f}  min {part.min():+.4f}")

# separation: replace modality 1's input, keep the recorded linearization
perturbed = dict(samples[0])
perturbed[1] = samples[2][1]
pert_out = md.propagate(model, result.state, perturbed, md.SplitConfig())[model.output]
print("modality 0 component unchanged under m1 replacement:",
      np.array_equal(out.modality(0), pert_out.modality(0)))
print("modality 1 component changed:",
      not np.array_equal(out.modality(1), pert_out.modality(1)))
