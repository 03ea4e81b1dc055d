"""Conformal deformations, isotropic hyperelastic energies, and stress field checks.

The package verifies, numerically and with closed forms, that suitable
isotropic energies produce spatially constant Cauchy stress on conformal
deformation fields, and provides the surrounding toolbox: small-matrix
algebra, conformal map constructions, derivative chains with independent
finite-difference oracles, rank-one convexity certificates, the linearized
(conformal Killing) picture, and field sampling with CSV/JSON/SVG output.

`import confmech` loads no module of the package: each exported name, and
each module by its own name (confmech.fields), is imported on first access
(PEP 562) and then kept in the package.  Every module goes through the one
table _EXPORTS, so a process loads the modules it uses and no others; the
command line (confmech.cli) loads convexity, gridplot and linearized only
in the subcommands that call them.
"""

import importlib

__version__ = "0.1.0"

# each exported name under the module that defines it
_EXPORTS = {
    "exceptions": ("ConfmechError", "InadmissibleDomainWarning", "LeavesGLPlus"),
    "tensors": ("cofactor", "conformality_residual", "det", "dev", "frobenius_norm", "svd", "sym"),
    "conformal": (
        "DeformationMap", "HyperplaneReflection", "InversionFlip", "MoebiusMap", "SphereReflection", "fd_gradient",
        "is_conformal_at",
    ),
    "energies": (
        "BUILTIN_ENERGIES", "CompositeEnergy", "DistortionEnergy", "EnergyModel", "IsochoricNeoHooke",
        "PlanarRatioEnergy", "VolumetricTerm", "builtin_energy", "fd_first_derivative", "fd_second_form",
    ),
    "convexity": (
        "ConvexityReport", "HCriterionResult", "KSReport", "LineScanResult", "h_criterion", "knowles_sternberg",
        "ks_grid_scan", "lh_form", "random_def_gradient", "rank_one_line_scan", "ratio_profile",
        "scan_rank_one_convexity",
    ),
    "linearized": (
        "KernelDisplacement", "conformal_quadratic_approx", "kernel_displacement", "quadratic_approx_error",
        "sigma_lin", "w_lin_2d",
    ),
    "fields": (
        "AnnulusDomain", "FieldSamples", "JumpReport", "Lcg64", "StressFieldSummary", "admissible_annulus",
        "jump_check", "sample_annulus", "stress_field", "summary_to_dict", "write_field_csv", "write_summary_json",
    ),
    "gridplot": ("DiskRegion", "grid_polylines", "render_grid_svg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An exported name or a module of the table, imported on first access and kept in the package."""
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = importlib.import_module("." + module, __name__)  # which binds the module in the package
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
