"""Spatial stress fields of deformation maps, and jump compatibility checks.

stress_field samples points of an annulus, pushes the whole stack of points
through a map's gradient and an energy's Cauchy stress, and summarizes how
homogeneous the resulting field is.  Point sampling uses a self-contained
64-bit linear congruential generator (Knuth's MMIX multiplier
6364136223846793005 and increment 1442695040888963407, top 53 bits as the
uniform draw), one draw per coordinate, so a fixed seed reproduces the
exact same bytes in the CSV output everywhere.  The sampler takes its draws
in blocks by jump-ahead, s_{i+m} = A_m s_i + C_m (mod 2^64), in uint64
arithmetic (F. Brown, "Random number generation with arbitrary strides",
Trans. ANS 1994); the blocks are the exact stream of Lcg64.next_uniform,
and the points are the first n accepted, in stream order.

jump_check measures rank-one compatibility of one pair of gradients
through numpy's SVD of F1 - F2, which resolves a zero singular value to
rounding level (eigenvalues of (F1 - F2)^T (F1 - F2) would square it away).
For planar conformal pairs it also reports det(F1 - F2) as the sum of two
squares, the reason two distinct conformal states can never form a laminate.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfmechError, InadmissibleDomainWarning, InvalidSplice
from .energies import DEFAULT_C, CompositeEnergy, _values
from .conformal import fd_gradient
from .tensors import as_square, det, require_gl_plus

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1
# points drawn per block at most, whatever the acceptance rate
SAMPLER_BLOCK = 1 << 16
# expected bounding-box points of one sample at most
SAMPLER_BUDGET = 1 << 26


def _lcg_step(state):
    return (LCG_MULT * state + LCG_INC) & LCG_MASK


class Lcg64:
    """Deterministic 64-bit linear congruential generator (documented in module docstring)."""

    def __init__(self, seed):
        # one step past the seed decorrelates small seeds
        self.state = _lcg_step((int(seed) ^ 0x9E3779B97F4A7C15) & LCG_MASK)

    def next_uniform(self):
        self.state = _lcg_step(self.state)
        return (self.state >> 11) / float(1 << 53)

    def uniforms(self, k):
        """The next k >= 1 draws as an array, the values of k next_uniform calls.

        Block m of the states follows from the first m by s_{i+m} = A_m s_i
        + C_m, with (A_m, C_m) doubled to (A_m^2, A_m C_m + C_m) each step.
        """
        s = np.empty(k, dtype=np.uint64)
        s[0] = _lcg_step(self.state)
        a, c, m = LCG_MULT, LCG_INC, 1
        while m < k:
            j = min(m, k - m)
            s[m:m + j] = s[:j] * np.uint64(a) + np.uint64(c)
            a, c, m = a * a & LCG_MASK, (a * c + c) & LCG_MASK, 2 * m
        self.state = int(s[-1])
        return (s >> np.uint64(11)) / float(1 << 53)


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

    def acceptance_rate(self):
        """Share of the bounding box [-r_max, r_max]^dim inside the annulus."""
        ball = np.pi / 4.0 if self.dim == 2 else np.pi / 6.0
        return ball * (1.0 - (self.r_min / self.r_max) ** self.dim)


def admissible_annulus(map_kind, c=DEFAULT_C):
    """Annulus on which det grad phi spans exactly [e, c] for the builtin maps.

    map_kind "phi2d" (det = |x|^{-4}) or "phi3d" (det = |x|^{-6}); endpoints
    included, r in [c^{-1/4}, e^{-1/4}] resp. [c^{-1/6}, e^{-1/6}].
    """
    if not (np.isfinite(c) and c > np.e):
        raise InvalidSplice("need a finite c > e for a nondegenerate admissible annulus")
    if map_kind == "phi2d":
        return AnnulusDomain(2, float(c) ** -0.25, float(np.e) ** -0.25)
    if map_kind == "phi3d":
        return AnnulusDomain(3, float(c) ** (-1.0 / 6.0), float(np.e) ** (-1.0 / 6.0))
    raise ValueError("map_kind must be 'phi2d' or 'phi3d', got %r" % (map_kind,))


def sample_annulus(dom, n, seed=0):
    """n points uniform in the annulus by seeded rejection from the bounding box.

    Each block draws about the number of points the rest of n needs at the
    domain's acceptance rate, at most SAMPLER_BLOCK; |x|^2 comes from
    vecdot, the BLAS ddot of x @ x.  A shell so thin that n points take
    more than SAMPLER_BUDGET expected draws is refused with a ConfmechError
    before any draw.
    """
    n = int(n)
    gen = Lcg64(seed)
    rate = dom.acceptance_rate()
    if n > SAMPLER_BUDGET * rate:
        raise ConfmechError(
            "annulus %r <= |x| <= %r keeps a share %.3g of its bounding box: %d points need "
            "about %.3g draws, more than the budget of %d"
            % (dom.r_min, dom.r_max, rate, n, n / rate, SAMPLER_BUDGET)
        )
    blocks = [np.empty((0, dom.dim))]
    have = 0
    while have < n:
        size = min(SAMPLER_BLOCK, int(1.05 * (n - have) / rate) + 16)
        x = ((2.0 * gen.uniforms(size * dom.dim) - 1.0) * dom.r_max).reshape(size, dom.dim)
        r = np.sqrt(np.vecdot(x, x))
        x = x[(dom.r_min <= r) & (r <= dom.r_max)][: n - have]
        blocks.append(x)
        have += len(x)
    return np.concatenate(blocks)


@dataclass(frozen=True)
class FieldSample:
    """One point of a sampled field."""

    x: np.ndarray
    F: np.ndarray
    det_F: float
    sigma: np.ndarray
    energy: float


@dataclass(frozen=True)
class FieldSamples:
    """A sampled field as stacks: point i is x[i], F[i], det_F[i], sigma[i], energy[i]."""

    x: np.ndarray  # (n, dim)
    F: np.ndarray  # (n, dim, dim)
    det_F: np.ndarray  # (n,)
    sigma: np.ndarray  # (n, dim, dim)
    energy: np.ndarray  # (n,)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return FieldSample(
            self.x[i], self.F[i], float(self.det_F[i]), self.sigma[i], float(self.energy[i])
        )


@dataclass(frozen=True)
class StressFieldSummary:
    n_samples: int
    mean_sigma: np.ndarray
    max_deviation: float  # max Frobenius distance of any sigma from the mean
    det_range: tuple
    admissible: bool | None  # det_range inside [e, c]; None for a non-composite energy
    homogeneous: bool  # max_deviation <= tol
    worst_point: FieldSample  # the first point at max_deviation


def _field(energy, x, F):
    """The samples of an energy's field with gradients F at points x, all as stacks."""
    det_F, value, sigma = require_gl_plus(F), _values(energy, F), energy.cauchy_stress(F)
    if np.shape(sigma) != F.shape:
        raise ConfmechError(
            "cauchy_stress must take a stack of n matrices: for n = %d, cauchy_stress has "
            "shape %s (want %s)" % (len(F), np.shape(sigma), F.shape)
        )
    return FieldSamples(x, F, det_F, sigma, value)


def _summarize(samples, tol, energy):
    # a stress near the float range gives an infinite or NaN summary, which the CLI refuses
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.sigma.mean(axis=0)
        deviations = np.sqrt(np.sum((samples.sigma - mean) ** 2, axis=(1, 2)))
    worst = int(np.argmax(deviations))
    deviation = float(deviations[worst])
    lo, hi = float(np.min(samples.det_F)), float(np.max(samples.det_F))
    # only a composite energy has a determinant band, its constant-slope [e, c]
    admissible = (np.e <= lo and hi <= energy.vol.c) if isinstance(energy, CompositeEnergy) else None
    return StressFieldSummary(
        n_samples=len(samples),
        mean_sigma=mean,
        max_deviation=deviation,
        det_range=(lo, hi),
        admissible=admissible,
        homogeneous=deviation <= tol,
        worst_point=samples[worst],
    )


def stress_field(energy, mapping, dom, n, seed=0, tol=1e-10, use_fd=False):
    """Sample the Cauchy stress field sigma(x) of a deformation over an annulus.

    Returns (samples, summary), samples a FieldSamples of stacks.  With
    use_fd the deformation gradients come from central differences of the
    map (fd_gradient) instead of the analytic gradient (tolerances around
    1e-5 are then appropriate).  For composite energies an
    InadmissibleDomainWarning is emitted when the determinant range leaves
    [e, c]; other energies have no band, and their summary's admissible is
    None.
    """
    if energy.dim != dom.dim:
        raise ValueError("energy dimension %d != domain dimension %d" % (energy.dim, dom.dim))
    x = sample_annulus(dom, n, seed)
    F = fd_gradient(mapping, x) if use_fd else mapping.gradient(x)
    samples = _field(energy, x, F)
    summary = _summarize(samples, tol, energy)
    if summary.admissible is False:
        warnings.warn(
            "determinant range %r leaves the admissible interval [e, %r]"
            % (summary.det_range, energy.vol.c),
            InadmissibleDomainWarning,
        )
    return samples, summary


# |F1| + |F2| at most: det(F1 - F2) and the squared similarity terms stay finite
JUMP_NORM_MAX = 1e100


@dataclass(frozen=True)
class JumpReport:
    difference_singular_values: np.ndarray
    rank: int
    det_difference: float
    rank_one_connected: bool
    det_square_terms: tuple | None  # ((a1-a2)^2, (b1-b2)^2) for planar conformal pairs


def jump_check(F1, F2, tol=1e-9):
    """Rank-one compatibility report for the jump F1 - F2.

    A singular value counts as nonzero above tol (1 + |F1| + |F2|).  When
    both matrices are planar similarities [[a, b], [-b, a]] (entries equal
    to 1e-8 max(1, |F|)), det(F1 - F2) decomposes as (a1-a2)^2 + (b1-b2)^2,
    reported in det_square_terms; it is positive whenever F1 != F2, so the
    jump has full rank and the two states are never rank-one connected.
    The report holds no copy of F1 and F2.  |F1| + |F2| above JUMP_NORM_MAX
    (or NaN) is refused with a ConfmechError before any product of entries
    could overflow.
    """
    F1 = as_square(F1)
    F2 = as_square(F2)
    if F1.shape != F2.shape:
        raise ValueError("gradients must have the same shape")
    e1, e2 = F1.ravel().tolist(), F2.ravel().tolist()
    n1, n2 = math.hypot(*e1), math.hypot(*e2)
    if not n1 + n2 <= JUMP_NORM_MAX:
        raise ConfmechError("jump too large: |F1| + |F2| = %r exceeds %r" % (n1 + n2, JUMP_NORM_MAX))
    D = F1 - F2
    # LAPACK's bits are the reported singular values
    svals = np.linalg.svd(D, compute_uv=False)
    thresh = tol * (1.0 + n1 + n2)
    rank = sum(v > thresh for v in svals.tolist())
    square_terms = None
    if len(e1) == 4:
        s1, s2 = 1e-8 * max(1.0, n1), 1e-8 * max(1.0, n2)
        if (abs(e1[0] - e1[3]) <= s1 and abs(e1[1] + e1[2]) <= s1
                and abs(e2[0] - e2[3]) <= s2 and abs(e2[1] + e2[2]) <= s2):
            square_terms = ((e1[0] - e2[0]) ** 2, (e1[1] - e2[1]) ** 2)
    return JumpReport(
        difference_singular_values=svals,
        rank=rank,
        det_difference=det(D),
        rank_one_connected=rank == 1,
        det_square_terms=square_terms,
    )


CSV_DIGITS = "%.17g"
# formatting each distinct value once pays while at most this share of the cells is distinct
CSV_DISTINCT_SHARE = 0.75


def _csv_cells(table):
    """The table's cells in row-major order as %-arguments, with their conversion.

    Cells are keyed by their 64-bit patterns, so -0.0 and 0.0, NaN payloads
    and subnormals keep their own texts.  While at most CSV_DISTINCT_SHARE of
    the cells are distinct, each distinct value is formatted with CSV_DIGITS
    once and its text stands in for every cell that holds it (conversion
    "%s"); otherwise the floats are formatted cell by cell.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    bits = table.view(np.uint64).ravel()
    # a sort counts the distinct cells in a fifth of the time of np.unique with
    # return_inverse, which only the distinct-value route needs
    ordered = np.sort(bits)
    if 1 + np.count_nonzero(ordered[1:] != ordered[:-1]) > CSV_DISTINCT_SHARE * bits.size:
        return tuple(table.ravel().tolist()), CSV_DIGITS
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = ((CSV_DIGITS + ",") * len(distinct) % tuple(distinct.view(np.float64).tolist())).split(",")
    return tuple(np.array(texts, dtype=object)[inverse].tolist()), "%s"


def write_field_csv(path, samples):
    """Write samples as CSV: x1,x2[,x3],detF,s11,s12,...,energy with 17 significant digits.

    The table is formatted as one block, with the comma separators and the
    \\r\\n line ends of the csv module's default dialect.  A field of
    constant stress is mostly repeats, so each distinct value is formatted
    once (_csv_cells); the bytes are those of CSV_DIGITS on every cell.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples to write")
    dim = samples.x.shape[1]
    header = ["x%d" % (i + 1) for i in range(dim)]
    header += ["detF"]
    header += ["s%d%d" % (i + 1, j + 1) for i in range(dim) for j in range(dim)]
    header += ["energy"]
    table = np.column_stack(
        [samples.x, samples.det_F, samples.sigma.reshape(n, -1), samples.energy]
    )
    cells, conversion = _csv_cells(table)
    row = ",".join([conversion] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write((row * n) % cells)


def summary_to_dict(summary):
    worst = summary.worst_point
    return {
        "n_samples": summary.n_samples,
        "mean_sigma": summary.mean_sigma.tolist(),
        "max_deviation": summary.max_deviation,
        "det_range": list(summary.det_range),
        "admissible": summary.admissible,
        "homogeneous": summary.homogeneous,
        "worst_point": {
            "x": worst.x.tolist(),
            "F": worst.F.tolist(),
            "det_F": worst.det_F,
            "sigma": worst.sigma.tolist(),
            "deviation": summary.max_deviation,
        },
    }


def write_summary_json(path, summary):
    with open(path, "w") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2, allow_nan=False)
        fh.write("\n")
