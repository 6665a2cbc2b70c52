"""winfer: weighted (context-sensitive) information-theoretic quantities.

Weighted distances, divergences and entropies; optimal weighted error-losses
and their finite-n bound chains; the weighted type-II error exponent; and
weighted Cramer-Rao / van Trees bounds with Monte Carlo verification.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Distribution,
    FiniteDistribution,
    IntegrationConfig,
    Support,
    WeightFunction,
    finite_difference_gradient,
    integrate,
    sample,
)
from .divergence import (  # noqa: F401
    DivergenceValue,
    HypothesisProblem,
    bhattacharyya_coeff,
    bhattacharyya_div,
    chernoff_coeff,
    chernoff_div,
    delta,
    hellinger,
    kl,
    renyi_div,
    renyi_entropy,
    renyi_entropy_ext,
    shannon_entropy,
    tsallis_div,
    weight_mass,
    weighted_tv,
    weighted_tv_sup_oracle,
)
from .errors import WinferError  # noqa: F401
from .expfam import (  # noqa: F401
    AdjointFamily,
    ExponentialFamily,
    adjoint_coefficients,
    bregman,
    burbea_rao,
    catalog_family,
    expfam_bhattacharyya,
    expfam_chernoff,
    expfam_kl,
    expfam_renyi,
    expfam_shannon,
    gaussian_tv_closed_form,
    weighted_bregman,
)
from .testing import (  # noqa: F401
    DecisionRule,
    ProductProblem,
    TiltedPair,
    error_bound_report,
    error_losses,
    min_total_error,
    nfold_error_bounds,
    optimal_rule,
    stein_sanov_empirical,
    stein_sanov_limit,
)
from .estimation import (  # noqa: F401
    EstimatorSpec,
    ParametricModel,
    PriorSpec,
    cramer_rao,
    gaussian_scale_model,
    gaussian_shift_model,
    kl_expansion_check,
    nfold_weighted_fisher,
    van_trees,
    weighted_fisher,
    weighted_fisher_aux,
)
