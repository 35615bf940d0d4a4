"""Bi-stochastic kernel normalization and graph Laplacians.

Symmetric Sinkhorn-Knopp scaling of Gaussian kernel matrices, the
resulting bistochastic graph Laplacians, the classical degree-based
alternative, synthetic 1D-manifold datasets with outlier noise models,
and reproducible convergence / robustness / spectral-embedding
experiments on top of them.
"""

from .errors import DegenerateInputError, NumericalFailureError, UsageError
from .experiments import (
    NOISE_SEED_OFFSET,
    AlignmentResult,
    EmbeddingRecord,
    EmbeddingResult,
    LaplacianKind,
    PointwiseResult,
    SweepRecord,
    align_pair,
    embedding_experiment,
    epsilon_sweep,
    noisy_dataset,
    pointwise_experiment,
    rel_errors,
    slope_fit,
)
from .kernel import (
    Affinity,
    build_affinity,
    gaussian_kernel,
    kernel_moments,
    normalized_prefactor,
)
from .laplacian import (
    EigenPairs,
    LaplacianForm,
    LaplacianOp,
    apply_rescaled,
    laplacian_from_affinity,
    smallest_eigenpairs,
)
from .manifold import (
    Dataset,
    DensitySpec,
    circle_point,
    curve_point,
    delta_p_f,
    density,
    density_cdf,
    density_cdf_inverse,
    embed_ambient,
    population_reference,
    sample_dataset,
    test_function,
)
from .noise import NoiseKind, NoiseModel, add_noise, attenuation, cross_term_stats
from .sinkhorn import (
    ScalingResult,
    SkConfig,
    approx_sym_sk,
    dm_scale,
    scaling_residual,
)

__version__ = "0.1.0"
