"""Forward-only runtime and exact modality decomposition for fusion networks.

One sweep propagates per-modality components (plus a bias component)
through the network, freezing every non-linear layer into a linear surrogate
at the sum of its input components; this splits the original prediction
exactly into per-sensor contributions. Perturbation metrics, bias-splitting
variants and Shapley baselines quantify how cleanly the modalities separate.
"""

from .decompose import (
    EQUALITY_TOL,
    DecomposedTensor,
    DecompositionError,
    DecompositionResult,
    RecordedState,
    SplitConfig,
    apply_frozen,
    component_labels,
    decompose,
    equality_residuals,
    lin_activation,
    lin_affine,
    lin_batchnorm,
    lin_concat,
    lin_instancenorm,
    lin_layernorm,
    lin_matmul,
    lin_residual_add,
    lin_softmax,
    propagate,
    record,
    split_input,
)
from .metrics import (
    CellStats,
    MetricConfig,
    SeparationReport,
    format_table,
    mse,
    pearson,
    pearson_degenerate,
    perturbation_protocol,
    report_to_json,
    variant_matrix,
)
from .model import (
    LAYER_KINDS,
    LayerSpec,
    ModelError,
    ModelGraph,
    forward,
    load_model,
    save_model,
)
from .shapley import Attribution, hybrid_shapley, shapley
from .synth import (
    GenSpec,
    SampleSet,
    gen_sample_set,
    gen_synthetic_model,
    load_samples,
    save_samples,
)

__version__ = "0.1.0"

__all__ = [
    "EQUALITY_TOL",
    "Attribution",
    "CellStats",
    "DecomposedTensor",
    "DecompositionError",
    "DecompositionResult",
    "GenSpec",
    "LAYER_KINDS",
    "LayerSpec",
    "MetricConfig",
    "ModelError",
    "ModelGraph",
    "RecordedState",
    "SampleSet",
    "SeparationReport",
    "SplitConfig",
    "apply_frozen",
    "component_labels",
    "decompose",
    "equality_residuals",
    "forward",
    "format_table",
    "gen_sample_set",
    "gen_synthetic_model",
    "hybrid_shapley",
    "lin_activation",
    "lin_affine",
    "lin_batchnorm",
    "lin_concat",
    "lin_instancenorm",
    "lin_layernorm",
    "lin_matmul",
    "lin_residual_add",
    "lin_softmax",
    "load_model",
    "load_samples",
    "mse",
    "pearson",
    "pearson_degenerate",
    "perturbation_protocol",
    "propagate",
    "record",
    "report_to_json",
    "save_model",
    "save_samples",
    "shapley",
    "split_input",
    "variant_matrix",
]
