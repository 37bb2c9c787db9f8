"""rieszlab: numerical diagnostics for finite vector systems.

The package analyzes truncated vector sequences in complex n-space for
two-sided bound constants, completeness, biorthogonal duals and dual
structure, provides generators for the classical example families and for
Gaussian Gabor systems on time-frequency point sets, and runs
truncation-scaling studies that expose how those quantities behave as the
truncation grows.
"""

from types import ModuleType as _ModuleType

from .diagnostics import (
    BoundsReport,
    GramSpectrum,
    RieszBounds,
    Verdict,
    VerdictKind,
    bessel_bound,
    classify,
    completeness_defect,
    gram_spectrum,
    riesz_bounds,
    span_distance,
)
from .duals import (
    biorthogonality_residual,
    duality_identity_residual,
    minimal_dual,
)
from .errors import (
    CriteriaDisagreementError,
    DimensionError,
    FitDomainError,
    IllConditionedError,
    MatrixParseError,
    NoBiorthogonalSequenceError,
    RieszLabError,
    TruncationError,
)
from .generators import (
    GaborDiscretization,
    GeneratedPair,
    PointSet2D,
    als_point_set,
    alternating_weighted_pair,
    gaussian_gabor,
    lattice_points,
    orthonormal,
    punctured_lattice,
    random_riesz,
    weighted_pair,
    young_example,
    young_general,
)
from .scaling import (
    FamilySpec,
    GrowthFit,
    ScalingReport,
    SizeMetrics,
    TrendVerdict,
    fit_growth,
    run_family,
)
from .seqcore import VectorSequence

__version__ = "0.1.0"

#: Every name imported above is public; submodules are not re-exported.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
