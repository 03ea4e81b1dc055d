"""Conformal deformations, isotropic hyperelastic energies, and stress field checks.

The package verifies, numerically and with closed forms, that suitable
isotropic energies produce spatially constant Cauchy stress on conformal
deformation fields, and provides the surrounding toolbox: small-matrix
algebra, conformal map constructions, derivative chains with independent
finite-difference oracles, rank-one convexity certificates, the linearized
(conformal Killing) picture, and field sampling with CSV/JSON/SVG output.
"""

__version__ = "0.1.0"

from .exceptions import ConfmechError, InadmissibleDomainWarning, LeavesGLPlus
from .tensors import (
    cofactor,
    conformality_residual,
    det,
    dev,
    frobenius_norm,
    svd,
    sym,
    transpose_inverse,
)
from .conformal import (
    ConformalDecomposition,
    DeformationMap,
    HyperplaneReflection,
    InversionFlip,
    MoebiusMap,
    SphereReflection,
    decompose_conformal,
    fd_gradient,
    is_conformal_at,
)
from .energies import (
    BUILTIN_ENERGIES,
    CompositeEnergy,
    DistortionEnergy,
    EnergyModel,
    IsochoricNeoHooke,
    PlanarRatioEnergy,
    VolumetricTerm,
    builtin_energy,
    fd_first_derivative,
    fd_second_form,
)
from .convexity import (
    ConvexityReport,
    HCriterionResult,
    KSReport,
    LineScanResult,
    h_criterion,
    knowles_sternberg,
    ks_grid_scan,
    lh_form,
    random_def_gradient,
    rank_one_line_scan,
    ratio_minus_one_squared,
    ratio_minus_one_squared_derivatives,
    scan_rank_one_convexity,
)
from .linearized import (
    KernelDisplacement,
    conformal_quadratic_approx,
    kernel_displacement,
    quadratic_approx_error,
    sigma_lin,
    w_lin_2d,
    w_lin_3d_composite,
)
from .fields import (
    AnnulusDomain,
    FieldSample,
    FieldSamples,
    JumpReport,
    Lcg64,
    StressFieldSummary,
    admissible_annulus,
    jump_check,
    sample_annulus,
    stress_field,
    summary_to_dict,
    write_field_csv,
    write_summary_json,
)
from .gridplot import DiskRegion, grid_polylines, render_grid_svg
