"""Norm-constrained least squares over kernel spaces with adaptive selection
of the constraint radius (fixed kernel) and of width plus radius (Gaussian
family), together with closed-form risk-bound calculators and a seeded Monte
Carlo harness for verifying the underlying high-probability events.
"""

from .data import Dataset
from .errors import ConstraintError, InputError, NumericalError, RkhsBallError
from .estimator import (
    ConstrainedFit,
    GramEigen,
    eigen_gram,
    empirical_sq_distance,
    fit_constrained,
    mu_of_r,
)
from .kernels import (
    GaussianKernel,
    chaining_constant_bound,
    covering_number_bound,
    cross_gram,
    entropy_integral_bound,
    gram,
    width_grid,
)
from .selection_fixed import (
    GLConfig,
    SelectionResult,
    gl_criterion,
    radius_grid,
    select_radius,
    tau_min_fixed,
)
from .selection_gauss import (
    GaussGLConfig,
    gauss_gl_criterion,
    select_width_radius,
    tau_min_gauss,
)
from . import experiments, theory

__version__ = "0.1.0"
