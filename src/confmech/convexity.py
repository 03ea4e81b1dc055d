"""Rank-one convexity certificates.

Three complementary instruments:

* the Legendre-Hadamard quadratic form on rank-one directions (lh_form and
  the Monte-Carlo driver scan_rank_one_convexity),
* 1D restrictions W(F + t xi (x) eta) classified by second differences
  (rank_one_line_scan),
* the classical two-dimensional ellipticity conditions on the principal
  stretch representation g(l1, l2) (knowles_sternberg), together with the
  convex/non-decreasing criterion on the ratio profile h (h_criterion).

lh_form takes one (F, xi, eta) or stacks of them, in one second_form
call.  random_def_gradient draws its stretches and angles in one
rng.random call, scaled by Generator.uniform's own formula; the scan draws
each sample in the same call and one more for xi and eta, builds F as a
stack and evaluates the LH form once.  knowles_sternberg takes analytic
partials and one pair of stretches or arrays of them, in one body, into one
KSReport of arrays, so ks_grid_scan evaluates its whole grid at once.  A
line scan evaluates the energy once, on the stack of its LINE_SAMPLES
points, and the h criterion calls h once, on the array of its H_SAMPLES
samples.

A line scan whose segment leaves the det band of tensors.require_gl_plus
raises LeavesGLPlus, which scan_rank_one_convexity catches.  That scan never
silently promotes a borderline result: values inside the band +-MARGIN
count as "elliptic" only when the energy's second_form is analytic
(energy.analytic), otherwise the verdict is "inconclusive".
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energies import _profile, _values
from .exceptions import ConfmechError, LeavesGLPlus
from .tensors import (
    as_square, from_entries, libm_pow, refuse_where, require_count, require_dim, require_gl_plus, require_seed
)

EQ_BAND = 1e-6  # relative |l1 - l2| band switching to the coincident-stretch condition
MARGIN = 1e-9  # verdict band of the LH scan, and of a line scan relative to its largest |W|
STRETCH_RANGE = (0.1, 10.0)  # of the scan's random deformation gradients
ANGLES = {2: 1, 3: 3}  # angles of one rotation: one in 2D, three Euler angles in 3D
LINE_SAMPLES = 41  # points of a line scan's segment
H_SAMPLES = 2000  # points of h_criterion's profile on [1, 50]


def lh_form(energy, F, xi, eta):
    """Normalized Legendre-Hadamard form D^2 W(F)[xi (x) eta] / (|xi|^2 |eta|^2).

    One matrix F with vectors xi, eta, or a stack of matrices (..., n, n)
    with stacks of vectors (..., n): one second_form call either way.  A
    |xi|^2 |eta|^2 that is 0 or not finite is refused with a ConfmechError.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = np.vecdot(xi, xi) * np.vecdot(eta, eta)
    refuse_where(n2 == 0.0, "xi and eta must be nonzero")
    refuse_where(~np.isfinite(n2), "|xi|^2 |eta|^2 must be finite, got %r", n2)
    return energy.second_form(F, xi[..., :, None] * eta[..., None, :]) / n2


@dataclass(frozen=True)
class LineScanResult:
    verdict: str  # strictly_convex | convex | nonconvex
    min_second_difference: float
    t_at_min: float


def rank_one_line_scan(energy, F, xi, eta, t_max=1.0):
    """Classify t -> W(F + t xi (x) eta) on [0, t_max] by centered second differences.

    Raises LeavesGLPlus where some sample point's det leaves the det band of
    tensors.require_gl_plus, where the energies refuse F; the
    classification margin is MARGIN times the largest sampled |W|, at least
    1.  value is called once, on the stack of the LINE_SAMPLES sample points.
    A t_max that is not finite, or one so large that a sample point F +
    t xi eta^T is not finite, is refused with a ConfmechError.
    """
    F = as_square(F)
    refuse_where(not math.isfinite(t_max), "t_max must be finite, got %r", float(t_max))
    ts = np.linspace(0.0, float(t_max), LINE_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.outer(np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))
        Ft = F + ts[:, None, None] * H
    message = "F + t xi eta^T is not finite for 0 <= t <= t_max = %r"
    refuse_where(not np.isfinite(Ft).all(), message, float(t_max))
    try:
        require_gl_plus(Ft)
    except ConfmechError as exc:
        raise LeavesGLPlus("F + t xi eta^T, 0 <= t <= %r, leaves GL+: %s" % (float(t_max), exc)) from None
    values = _values(energy, Ft)
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    scale = MARGIN * max(1.0, float(np.max(np.abs(values))))
    k = int(np.argmin(d2))
    worst = float(d2[k])
    if worst < -scale:
        verdict = "nonconvex"
    elif worst > scale:
        verdict = "strictly_convex"
    else:
        verdict = "convex"
    return LineScanResult(verdict=verdict, min_second_difference=worst, t_at_min=float(ts[k + 1]))


class KSReport(NamedTuple):
    """The planar ellipticity conditions at one pair of stretches, or at each point of arrays of them.

    lambda1, lambda2, coincident and strict have the shape of the broadcast
    stretches (numpy scalars for one pair), and values one more axis of the
    5 applicable values: g11, g22, then cond_ii and cond_iv off the
    coincident-stretch band or cond_iii's two expressions on it, then cond_v.
    A NaN value means the square root of g11 g22 was undefined, which
    already violates g11 > 0 or g22 > 0.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    values: np.ndarray  # (..., 5)
    coincident: np.ndarray  # |l1 - l2| <= EQ_BAND (l1 + l2), where cond_iii applies
    strict: np.ndarray  # every value finite and above its point's margin


# an overflow or a 0/0 gives a value that is not finite, and so not strict
@np.errstate(all="ignore")
def knowles_sternberg(g, lam1, lam2, derivatives):
    """Evaluate the planar strict-ellipticity conditions for W = g(l1, l2).

    lam1 and lam2 are one pair of stretches or arrays that broadcast
    together; either way the conditions are evaluated once, on arrays, into
    one KSReport.  Strictness requires every applicable value above the
    margin 1e-10 (1 + |g| + |g1| + |g2|) of its point.  A stretch that is
    not positive and finite is refused with a ConfmechError; a point whose
    partials or conditions overflow has a value that is not finite, and is
    not strict.

    Parameters
    ----------
    g : callable (l1, l2) -> real, symmetric; takes arrays
    derivatives : callable (l1, l2) -> (g1, g2, g11, g22, g12)
        Analytic partials, taking arrays.
    """
    l1, l2 = np.broadcast_arrays(np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float))
    ok = (0.0 < l1) & (l1 < math.inf) & (0.0 < l2) & (l2 < math.inf)
    refuse_where(~ok, "principal stretches must be positive and finite")
    g1, g2, g11, g22, g12 = (np.asarray(v, dtype=float) for v in derivatives(l1, l2))
    margin = 1e-10 * (1.0 + np.abs(g(l1, l2)) + np.abs(g1) + np.abs(g2))

    coincident = np.abs(l1 - l2) <= EQ_BAND * (l1 + l2)
    # cond_ii and cond_iv do not apply on the band: divide there by 1, not by l1 - l2 = 0
    gap = np.where(coincident, 1.0, l1 - l2)
    radicand = g11 * g22
    root = np.sqrt(np.where(radicand < 0.0, np.nan, radicand))
    cond_ii_or_iii = np.where(coincident, g11 - g12 + g1 / l1, (l1 * g1 - l2 * g2) / gap)
    cond_iv_or_iii = np.where(coincident, g22 - g12 + g2 / l2, root + g12 + (g1 - g2) / gap)
    cond_v = root - g12 + (g1 + g2) / (l1 + l2)
    values = np.stack(np.broadcast_arrays(g11, g22, cond_ii_or_iii, cond_iv_or_iii, cond_v), axis=-1)
    strict = np.all(np.isfinite(values) & (values > margin[..., None]), axis=-1)
    return KSReport(l1[()], l2[()], values, coincident[()], strict[()])


def ratio_minus_one_squared(l1, l2):
    """g(l1, l2) = (max/min - 1)^2, one pair or arrays of stretches.

    This is the g whose Knowles-Sternberg grid check-convexity reports for
    iso2d-klin2; that energy's own profile is h(s) = s^2 - 1, not (s - 1)^2.
    """
    s = np.where(l1 >= l2, l1 / l2, l2 / l1)
    return libm_pow(s - 1.0, 2.0)


def ratio_minus_one_squared_derivatives(l1, l2):
    """Analytic partials of ratio_minus_one_squared, one pair or arrays of stretches.

    The branch formulas hold for l1 >= l2; the other branch follows by symmetry.
    """
    swap = l1 < l2
    a = np.where(swap, l2, l1)
    b = np.where(swap, l1, l2)
    ga = 2.0 * (a - b) / libm_pow(b, 2.0)
    gb = -2.0 * a * (a - b) / libm_pow(b, 3.0)
    gaa = 2.0 / libm_pow(b, 2.0)
    gbb = 2.0 * a * (3.0 * a - 2.0 * b) / libm_pow(b, 4.0)
    g12 = 2.0 * (b - 2.0 * a) / libm_pow(b, 3.0)
    pairs = ((gb, ga), (ga, gb), (gbb, gaa), (gaa, gbb), (g12, g12))
    return tuple(np.where(swap, x, y)[()] for x, y in pairs)


@dataclass(frozen=True)
class HCriterionResult:
    verdict: str  # strictly rank-one convex | rank-one convex | not rank-one convex
    convex: bool
    strictly_convex: bool
    nondecreasing: bool
    increasing: bool
    min_second_difference: float
    min_first_difference: float


def h_criterion(h):
    """Classify W(F) = h(lmax/lmin) through the profile h on [1, 50].

    A convex non-decreasing profile is equivalent to rank-one convexity of
    the induced planar energy; strictly convex and increasing is equivalent
    to strict rank-one convexity.  The verdict names the stronger property
    that holds, with differences inside 1e-10 times the largest |h| (at
    least 1) counted as zero.  h takes arrays: it is called once, on the
    H_SAMPLES sample points (a constant result is broadcast).
    """
    ss = np.linspace(1.0, 50.0, H_SAMPLES)
    values = _profile(h, ss)
    scale = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    d1 = np.diff(values)
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    convex = bool(np.all(d2 >= -scale))
    strictly_convex = bool(np.all(d2 > scale))
    nondecreasing = bool(np.all(d1 >= -scale))
    increasing = bool(np.all(d1 > scale))
    if strictly_convex and increasing:
        verdict = "strictly rank-one convex"
    elif convex and nondecreasing:
        verdict = "rank-one convex"
    else:
        verdict = "not rank-one convex"
    return HCriterionResult(
        verdict=verdict,
        convex=convex,
        strictly_convex=strictly_convex,
        nondecreasing=nondecreasing,
        increasing=increasing,
        min_second_difference=float(np.min(d2)),
        min_first_difference=float(np.min(d1)),
    )


def _rotations(angles):
    """The rotation of angles (..., 1) in 2D or of Euler angles (..., 3) in 3D; one or a stack."""
    axes = (-1, *range(angles.ndim - 1))  # views, the angles first
    c, s = np.cos(angles).transpose(axes), np.sin(angles).transpose(axes)
    if len(c) == 1:
        return from_entries([[c[0], -s[0]], [s[0], c[0]]])
    (ca, cb, cg), (sa, sb, sg) = c, s
    z, o = np.zeros_like(ca), np.ones_like(ca)
    Rz1 = from_entries([[ca, -sa, z], [sa, ca, z], [z, z, o]])
    Ry = from_entries([[cb, z, sb], [z, o, z], [-sb, z, cb]])
    Rz2 = from_entries([[cg, -sg, z], [sg, cg, z], [z, z, o]])
    return Rz1 @ Ry @ Rz2


def _def_gradients(U, dim, stretch_range):
    """Q1 diag(l) Q2 of one draw U, or of each draw of a stack U (..., dim + 2 a) of uniforms.

    U holds the dim log-stretches, then the a angles of Q1 and the a of Q2
    (a = 1 in 2D, the three Euler angles in 3D), scaled by Generator.uniform's
    own formula low + (high - low) u: the values one uniform call each would draw.
    """
    a = ANGLES[dim]
    lo, hi = np.log(stretch_range[0]), np.log(stretch_range[1])
    low = np.array([lo] * dim + [0.0] * (2 * a))
    high = np.array([hi] * dim + [2.0 * np.pi] * (2 * a))
    U = low + (high - low) * U
    lams, Q1, Q2 = np.exp(U[..., :dim]), _rotations(U[..., dim:dim + a]), _rotations(U[..., dim + a:])
    return Q1 @ (lams[..., None, :] * np.eye(dim)) @ Q2


def random_def_gradient(rng, dim, stretch_range=STRETCH_RANGE):
    """Q1 diag(l) Q2 with log-uniform stretches, from one rng.random call; always in GL+."""
    require_dim(dim)
    return _def_gradients(rng.random(dim + 2 * ANGLES[dim]), dim, stretch_range)


def _scan_draws(rng, dim, n_samples):
    """Stacks (uniforms of F, xi, eta) of n_samples scan samples.

    Two generator calls per sample: the rng.random call of
    random_def_gradient, then one rng.standard_normal for xi and eta.
    """
    require_dim(dim)
    U = np.empty((n_samples, dim + 2 * ANGLES[dim]))
    N = np.empty((n_samples, 2 * dim))
    for i in range(n_samples):
        rng.random(out=U[i])
        rng.standard_normal(out=N[i])
    return U, N[:, :dim], N[:, dim:]


@dataclass(frozen=True)
class ConvexityReport:
    verdict: str  # strictly-elliptic | elliptic | violated | inconclusive
    min_lh_form: float
    n_samples: int
    witnesses: list = field(default_factory=list)  # (F, xi, eta, value) near the minimum


def scan_rank_one_convexity(energy, n_samples=1000, seed=0):
    """Monte-Carlo scan of the Legendre-Hadamard form on rank-one directions.

    Deterministic for a fixed seed (numpy default_rng).  Each sample draws
    F, with stretches log-uniform in STRETCH_RANGE, then xi, then eta, in
    two generator calls (_scan_draws), and the LH form is evaluated once on
    the whole stack.  The minimum and the three witnesses
    are taken over the values that are not NaN (an overflowing second form
    gives NaN), ties in sample order; with no such value the verdict is
    "inconclusive".  The verdict band is +-MARGIN.  A negative minimum below
    the band is re-confirmed by a 1D line scan around the witness before the
    verdict "violated" is issued; without confirmation the scan reports
    "inconclusive" rather than guessing.  An n_samples that is not an int of
    at least 1, and a seed that is not an int of at least 0, are refused
    with a ConfmechError.
    """
    n_samples = require_count(n_samples, "n_samples")
    rng = np.random.default_rng(require_seed(seed, numpy=True))
    U, xi, eta = _scan_draws(rng, energy.dim, n_samples)
    Fs = _def_gradients(U, energy.dim, STRETCH_RANGE)
    xis, etas = (v / np.sqrt(np.vecdot(v, v))[:, None] for v in (xi, eta))
    values = lh_form(energy, Fs, xis, etas)
    order = np.argsort(values, kind="stable")  # NaN last
    order = order[~np.isnan(values[order])]
    witnesses = [(Fs[i], xis[i], etas[i], float(values[i])) for i in order[:3]]
    min_val = values[order[0]] if len(order) else math.nan

    if min_val > MARGIN:
        verdict = "strictly-elliptic"
    elif min_val < -MARGIN:
        F, xi, eta = Fs[order[0]], xis[order[0]], etas[order[0]]
        try:
            scan = rank_one_line_scan(energy, F - 0.05 * np.outer(xi, eta), xi, eta, t_max=0.1)
        except LeavesGLPlus:
            scan = rank_one_line_scan(energy, F, xi, eta, t_max=0.05)
        verdict = "violated" if scan.verdict == "nonconvex" else "inconclusive"
    else:
        verdict = "elliptic" if energy.analytic and not math.isnan(min_val) else "inconclusive"
    return ConvexityReport(
        verdict=verdict,
        min_lh_form=float(min_val),
        n_samples=n_samples,
        witnesses=witnesses,
    )


def ks_grid_scan(g, lam_values, derivatives):
    """knowles_sternberg over the grid lam_values x lam_values, l1 outer and l2 inner.

    One knowles_sternberg call on the whole grid, so g and derivatives must
    take arrays; returns its KSReport, of grid shape (len(lam_values),) * 2.
    """
    l1, l2 = np.meshgrid(lam_values, lam_values, indexing="ij")
    return knowles_sternberg(g, l1, l2, derivatives=derivatives)
