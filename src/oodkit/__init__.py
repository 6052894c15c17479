"""Toolkit for analyzing softmax confidence as an out-of-distribution
detection signal: uncertainty estimators and their gradients, GMM density
scoring, valid-OOD-region geometry, decision-boundary structure synthesis
and audits, AUROC attribution, and a desk-scale reference-network trainer.
"""

from .core import (
    AngleDecomposition,
    FeatureMatrix,
    LabelVector,
    SoftmaxHead,
    decompose,
    load_features,
    load_head,
    logits,
    save_features,
    save_head,
    softmax,
)
from .errors import (
    ArgmaxTieError,
    ConfigError,
    DataFormatError,
    DegenerateWeightError,
    DimensionError,
    NotFittedError,
    NumericalError,
    OodkitError,
    SingularModelError,
)
from .estimators import (
    UncertaintyScore,
    grad_u_density,
    grad_u_entropy,
    grad_u_max,
    score_batch,
    u_cool,
    u_density,
    u_entropy,
    u_max,
    u_mental,
)
from .geometry import (
    DensityRegion,
    LinearApproxRegion,
    SlabRegion,
    density_region,
    empirical_threshold,
    fit_linear_region,
    mc_region_mass,
    solve_alpha_exact_k2,
)
from .gmm import EmConfig, GaussianMixture, fit_em
from .metrics import AttributionReport, attribute, auroc, pca_project
from .refnet import (
    MlpModel,
    MlpSpec,
    SyntheticTask,
    TrainConfig,
    confidence_sweep,
    depth_study,
    generate,
    train,
)
from .structure import (
    OptimalStructureSpec,
    StructureReport,
    angle_stats,
    audit_head,
    gen_counterfactual_head,
    gen_optimal_head,
    regularized_xent,
    synthesize_cluster_features,
)

__version__ = "0.1.0"
