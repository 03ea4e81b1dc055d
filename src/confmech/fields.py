"""Spatial stress fields of deformation maps, and jump compatibility checks.

stress_field samples points of an annulus, pushes each through a map's
gradient and an energy's Cauchy stress, and summarizes how homogeneous the
resulting field is.  Point sampling uses a self-contained 64-bit linear
congruential generator (Knuth's MMIX multiplier 6364136223846793005 and
increment 1442695040888963407, top 53 bits as the uniform draw) advanced
sequentially per coordinate, so a fixed seed reproduces the exact same
bytes in the CSV output everywhere.

jump_check measures rank-one compatibility of two gradients through
numpy's SVD of F1 - F2, which resolves a zero singular value to rounding
level (eigenvalues of (F1 - F2)^T (F1 - F2) would square it away).  For planar
conformal pairs it also reports det(F1 - F2) as the sum of two squares,
the reason two distinct conformal states can never form a laminate.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import InadmissibleDomainWarning, InvalidSplice
from .energies import CompositeEnergy
from .conformal import fd_gradient
from .tensors import as_square, det, frobenius_norm, require_gl_plus

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1


class Lcg64:
    """Deterministic 64-bit linear congruential generator (documented in module docstring)."""

    def __init__(self, seed):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & LCG_MASK
        self.next_uniform()  # decorrelate small seeds

    def next_uniform(self):
        self.state = (LCG_MULT * self.state + LCG_INC) & LCG_MASK
        return (self.state >> 11) / float(1 << 53)


@dataclass(frozen=True)
class AnnulusDomain:
    dim: int
    r_min: float
    r_max: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")


def admissible_annulus(map_kind, c=np.e + 2.0):
    """Annulus on which det grad phi spans exactly [e, c] for the builtin maps.

    map_kind "phi2d" (det = |x|^{-4}) or "phi3d" (det = |x|^{-6}); endpoints
    included, r in [c^{-1/4}, e^{-1/4}] resp. [c^{-1/6}, e^{-1/6}].
    """
    if not c > np.e:
        raise InvalidSplice("need c > e for a nondegenerate admissible annulus")
    if map_kind == "phi2d":
        return AnnulusDomain(2, float(c) ** -0.25, float(np.e) ** -0.25)
    if map_kind == "phi3d":
        return AnnulusDomain(3, float(c) ** (-1.0 / 6.0), float(np.e) ** (-1.0 / 6.0))
    raise ValueError("map_kind must be 'phi2d' or 'phi3d', got %r" % (map_kind,))


def sample_annulus(dom, n, seed=0):
    """n points uniform in the annulus by seeded rejection from the bounding box."""
    gen = Lcg64(seed)
    pts = np.empty((int(n), dom.dim))
    have = 0
    while have < n:
        x = np.array([(2.0 * gen.next_uniform() - 1.0) * dom.r_max for _ in range(dom.dim)])
        r = np.sqrt(x @ x)
        if dom.r_min <= r <= dom.r_max:
            pts[have] = x
            have += 1
    return pts


@dataclass(frozen=True)
class FieldSample:
    x: np.ndarray
    F: np.ndarray
    det_F: float
    sigma: np.ndarray
    energy: float


@dataclass(frozen=True)
class StressFieldSummary:
    n_samples: int
    mean_sigma: np.ndarray
    max_deviation: float  # max Frobenius distance of any sigma from the mean
    det_range: tuple
    admissible: bool  # det_range inside [e, c]
    homogeneous: bool  # max_deviation <= tol


def _summarize(samples, tol, energy):
    sigmas = np.stack([s.sigma for s in samples])
    mean = sigmas.mean(axis=0)
    deviation = float(np.max(np.sqrt(np.sum((sigmas - mean) ** 2, axis=(1, 2)))))
    dets = [s.det_F for s in samples]
    lo, hi = float(min(dets)), float(max(dets))
    band = (np.e, energy.vol.c) if isinstance(energy, CompositeEnergy) else (np.e, np.e + 2.0)
    return StressFieldSummary(
        n_samples=len(samples),
        mean_sigma=mean,
        max_deviation=deviation,
        det_range=(lo, hi),
        admissible=band[0] <= lo and hi <= band[1],
        homogeneous=deviation <= tol,
    )


def stress_field(energy, mapping, dom, n, seed=0, tol=1e-10, use_fd=False, fd_step=1e-5):
    """Sample the Cauchy stress field sigma(x) of a deformation over an annulus.

    Returns (samples, summary).  With use_fd the deformation gradients come
    from central differences of the map instead of the analytic Jacobian
    (tolerances around 1e-5 are then appropriate).  For composite energies
    an InadmissibleDomainWarning is emitted when the determinant range
    leaves [e, c].
    """
    if energy.dim != dom.dim:
        raise ValueError("energy dimension %d != domain dimension %d" % (energy.dim, dom.dim))
    pts = sample_annulus(dom, n, seed)
    samples = []
    for x in pts:
        F = fd_gradient(mapping, x, fd_step) if use_fd else mapping.gradient(x)
        d = require_gl_plus(F)
        samples.append(
            FieldSample(
                x=x, F=F, det_F=d, sigma=energy.cauchy_stress(F), energy=energy.value(F)
            )
        )
    summary = _summarize(samples, tol, energy)
    if isinstance(energy, CompositeEnergy) and not summary.admissible:
        warnings.warn(
            "determinant range %r leaves the admissible interval [e, %r]"
            % (summary.det_range, energy.vol.c),
            InadmissibleDomainWarning,
        )
    return samples, summary


def affine_reference_check(energy, A, dom, n, seed=0, tol=1e-14):
    """Constant-gradient control: the field of x -> A x must be exactly homogeneous."""
    A = as_square(A)
    d = require_gl_plus(A)
    pts = sample_annulus(dom, n, seed)
    sigma = energy.cauchy_stress(A)
    w = energy.value(A)
    samples = [FieldSample(x=x, F=A, det_F=d, sigma=sigma, energy=w) for x in pts]
    return _summarize(samples, tol, energy)


@dataclass(frozen=True)
class JumpReport:
    f1: np.ndarray
    f2: np.ndarray
    difference_singular_values: np.ndarray
    rank: int
    det_difference: float
    rank_one_connected: bool
    det_square_terms: tuple | None  # ((a1-a2)^2, (b1-b2)^2) for planar conformal pairs


def _conformal_2x2_params(F, tol=1e-8):
    """(a, b) with F = [[a, b], [-b, a]], or None if F is not of that form."""
    scale = tol * max(1.0, frobenius_norm(F))
    if abs(F[0, 0] - F[1, 1]) <= scale and abs(F[0, 1] + F[1, 0]) <= scale:
        return float(F[0, 0]), float(F[0, 1])
    return None


def jump_check(F1, F2, tol=1e-9):
    """Rank-one compatibility report for the jump F1 - F2.

    A singular value counts as nonzero above tol (1 + |F1| + |F2|).  When
    both matrices are planar similarities [[a, b], [-b, a]], det(F1 - F2)
    decomposes as (a1-a2)^2 + (b1-b2)^2, reported in det_square_terms; it
    is positive whenever F1 != F2, so the jump has full rank and the two
    states are never rank-one connected.
    """
    F1 = as_square(F1)
    F2 = as_square(F2)
    if F1.shape != F2.shape:
        raise ValueError("gradients must have the same shape")
    D = F1 - F2
    svals = np.linalg.svd(D, compute_uv=False)
    thresh = tol * (1.0 + frobenius_norm(F1) + frobenius_norm(F2))
    rank = int(np.sum(svals > thresh))
    square_terms = None
    if F1.shape[0] == 2:
        p1 = _conformal_2x2_params(F1)
        p2 = _conformal_2x2_params(F2)
        if p1 is not None and p2 is not None:
            square_terms = ((p1[0] - p2[0]) ** 2, (p1[1] - p2[1]) ** 2)
    return JumpReport(
        f1=F1,
        f2=F2,
        difference_singular_values=svals,
        rank=rank,
        det_difference=det(D),
        rank_one_connected=rank == 1,
        det_square_terms=square_terms,
    )


CSV_DIGITS = "%.17g"


def write_field_csv(path, samples):
    """Write samples as CSV: x1,x2[,x3],detF,s11,s12,...,energy with 17 significant digits."""
    if not samples:
        raise ValueError("no samples to write")
    dim = samples[0].x.shape[0]
    header = ["x%d" % (i + 1) for i in range(dim)]
    header += ["detF"]
    header += ["s%d%d" % (i + 1, j + 1) for i in range(dim) for j in range(dim)]
    header += ["energy"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            row = [CSV_DIGITS % v for v in s.x]
            row.append(CSV_DIGITS % s.det_F)
            row.extend(CSV_DIGITS % v for v in s.sigma.reshape(-1))
            row.append(CSV_DIGITS % s.energy)
            writer.writerow(row)


def summary_to_dict(summary):
    return {
        "n_samples": summary.n_samples,
        "mean_sigma": summary.mean_sigma.tolist(),
        "max_deviation": summary.max_deviation,
        "det_range": list(summary.det_range),
        "admissible": summary.admissible,
        "homogeneous": summary.homogeneous,
    }


def write_summary_json(path, summary):
    with open(path, "w") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2)
        fh.write("\n")
