"""Moment-based identifiability analysis and parameter recovery for
homoscedastic Gaussian mixtures."""

from .errors import (
    DimensionMismatchError,
    HomomentError,
    InconsistentMomentsError,
    InputError,
    InsufficientOrderError,
    ModelMismatchError,
    PreconditionError,
    RankDeficientMomentsError,
    SingularSystemError,
    SymmetricMixtureError,
)
from .estimate import (
    Estimate,
    fit_two_gaussians,
    fit_univariate,
    sample_cumulants,
)
from .geometry import (
    DefectReport,
    defect_report,
    predicted_defect_order3,
    veronese_report,
)
from .models import (
    HomoscedasticParams,
    LaplaceParams,
    sample_mixture,
)
from .ranktest import (
    HankelPencil,
    MembershipVerdict,
    estimate_components,
    secant_membership,
)
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "DefectReport",
    "DimensionMismatchError",
    "Estimate",
    "HankelPencil",
    "HomomentError",
    "HomoscedasticParams",
    "InconsistentMomentsError",
    "InputError",
    "InsufficientOrderError",
    "LaplaceParams",
    "MembershipVerdict",
    "ModelMismatchError",
    "PreconditionError",
    "RankDeficientMomentsError",
    "SingularSystemError",
    "SymmetricMixtureError",
    "TruncatedSeries",
    "defect_report",
    "estimate_components",
    "fit_two_gaussians",
    "fit_univariate",
    "predicted_defect_order3",
    "sample_cumulants",
    "sample_mixture",
    "secant_membership",
    "veronese_report",
]
