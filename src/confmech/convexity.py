"""Rank-one convexity certificates.

Three complementary instruments:

* the Legendre-Hadamard quadratic form on rank-one directions (lh_form and
  the Monte-Carlo driver scan_rank_one_convexity),
* 1D restrictions W(F + t xi (x) eta) classified by second differences
  (rank_one_line_scan, semi_strict_check),
* the classical two-dimensional ellipticity conditions on the principal
  stretch representation g(l1, l2) (knowles_sternberg), together with the
  convex/non-decreasing criterion on the ratio profile h (h_criterion).

lh_form takes one (F, xi, eta) or stacks of them, in one second_form
call.  The scan draws its samples one at a time, in the order of the
one-sample helpers random_def_gradient and random_rotation (which are the
one-draw case of the same builder), builds F as a stack and evaluates the
LH form once.  The line scans, the Knowles-Sternberg conditions and the h
criterion take one point at a time.

The scan driver never silently promotes a borderline result: values inside
the margin band count as "elliptic" only when the energy's second_form is
analytic (energy.analytic), otherwise the verdict is "inconclusive".
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import LeavesGLPlus, TooFewSamples
from .tensors import as_square, det, first_true, from_entries

EQ_BAND = 1e-6  # relative |l1 - l2| band switching to the coincident-stretch condition


def lh_form(energy, F, xi, eta):
    """Normalized Legendre-Hadamard form D^2 W(F)[xi (x) eta] / (|xi|^2 |eta|^2).

    One matrix F with vectors xi, eta, or a stack of matrices (..., n, n)
    with stacks of vectors (..., n): one second_form call either way.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n2 = np.vecdot(xi, xi) * np.vecdot(eta, eta)
    if first_true(n2 == 0.0) is not None:
        raise ValueError("xi and eta must be nonzero")
    return energy.second_form(F, xi[..., :, None] * eta[..., None, :]) / n2


@dataclass(frozen=True)
class LineScanResult:
    verdict: str  # strictly_convex | convex | nonconvex
    min_second_difference: float
    t_at_min: float


def rank_one_line_scan(energy, F, xi, eta, t_max=1.0, n_samples=41, margin=1e-9):
    """Classify t -> W(F + t xi (x) eta) on [0, t_max] by centered second differences.

    Raises LeavesGLPlus when any sample point has non-positive determinant;
    the classification margin is relative to the largest sampled |W|.
    """
    F = as_square(F)
    if n_samples < 3:
        raise TooFewSamples("need at least 3 samples on the segment")
    H = np.outer(np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))
    ts = np.linspace(0.0, float(t_max), int(n_samples))
    values = []
    for t in ts:
        Ft = F + t * H
        if not det(Ft) > 0.0:
            raise LeavesGLPlus("det(F + t xi eta^T) <= 0 at t = %r" % (t,))
        values.append(energy.value(Ft))
    values = np.asarray(values)
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    scale = margin * max(1.0, float(np.max(np.abs(values))))
    k = int(np.argmin(d2))
    worst = float(d2[k])
    if worst < -scale:
        verdict = "nonconvex"
    elif worst > scale:
        verdict = "strictly_convex"
    else:
        verdict = "convex"
    return LineScanResult(verdict=verdict, min_second_difference=worst, t_at_min=float(ts[k + 1]))


def semi_strict_check(values, margin=1e-9):
    """Classify a uniformly sampled 1D restriction.

    strict       all second differences above the margin
    semi_strict  convex with flat (affine, non-constant) stretches
    convex_only  convex with genuinely constant stretches
    nonconvex    some second difference below minus the margin
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.shape[0] < 5:
        raise TooFewSamples("need at least 5 samples")
    scale = margin * max(1.0, float(np.max(np.abs(values))))
    d1 = np.diff(values)
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    if np.any(d2 < -scale):
        return "nonconvex"
    if np.all(d2 > scale):
        return "strict"
    flat = np.abs(d2) <= scale
    # a flat second difference spans the first-difference pair (k, k+1)
    for k in np.nonzero(flat)[0]:
        if abs(d1[k]) <= scale and abs(d1[k + 1]) <= scale:
            return "convex_only"
    return "semi_strict"


@dataclass(frozen=True)
class KSReport:
    """Left-hand sides of the planar ellipticity conditions at one (l1, l2).

    cond_i and cond_iii hold their two expressions as pairs; cond_ii and
    cond_iv apply only off the coincident-stretch band, cond_iii only on it.
    NaN entries mean the square root of g11 g22 was undefined, which already
    violates cond_i.
    """

    lambda1: float
    lambda2: float
    cond_i: tuple
    cond_ii: float | None
    cond_iii: tuple | None
    cond_iv: float | None
    cond_v: float
    strict: bool

    def applicable_values(self):
        vals = list(self.cond_i)
        if self.cond_ii is not None:
            vals.append(self.cond_ii)
        if self.cond_iii is not None:
            vals.extend(self.cond_iii)
        if self.cond_iv is not None:
            vals.append(self.cond_iv)
        vals.append(self.cond_v)
        return vals


def _fd_g_partials(g, l1, l2, rel_step=1e-5):
    h1 = rel_step * l1
    h2 = rel_step * l2
    g1 = (g(l1 + h1, l2) - g(l1 - h1, l2)) / (2.0 * h1)
    g2 = (g(l1, l2 + h2) - g(l1, l2 - h2)) / (2.0 * h2)
    g11 = (g(l1 + h1, l2) - 2.0 * g(l1, l2) + g(l1 - h1, l2)) / h1**2
    g22 = (g(l1, l2 + h2) - 2.0 * g(l1, l2) + g(l1, l2 - h2)) / h2**2
    g12 = (
        g(l1 + h1, l2 + h2) - g(l1 + h1, l2 - h2) - g(l1 - h1, l2 + h2) + g(l1 - h1, l2 - h2)
    ) / (4.0 * h1 * h2)
    return g1, g2, g11, g22, g12


def knowles_sternberg(g, lam1, lam2, derivatives=None, strictness_margin=None, fd_step=1e-5):
    """Evaluate the planar strict-ellipticity conditions for W = g(l1, l2).

    Parameters
    ----------
    g : callable (l1, l2) -> real, symmetric
    derivatives : callable (l1, l2) -> (g1, g2, g11, g22, g12), optional
        Analytic partials; central differences with relative step fd_step
        per axis otherwise.
    strictness_margin : float, optional
        Strictness requires every applicable value above this; defaults to
        1e-10 (1 + |g| + |g1| + |g2|).
    """
    l1 = float(lam1)
    l2 = float(lam2)
    if not (l1 > 0.0 and l2 > 0.0):
        raise ValueError("principal stretches must be positive")
    if derivatives is not None:
        g1, g2, g11, g22, g12 = (float(v) for v in derivatives(l1, l2))
    else:
        g1, g2, g11, g22, g12 = _fd_g_partials(g, l1, l2, fd_step)
    if strictness_margin is None:
        strictness_margin = 1e-10 * (1.0 + abs(float(g(l1, l2))) + abs(g1) + abs(g2))

    on_diagonal = abs(l1 - l2) <= EQ_BAND * (l1 + l2)
    cond_i = (g11, g22)
    cond_ii = None if on_diagonal else (l1 * g1 - l2 * g2) / (l1 - l2)
    cond_iii = (g11 - g12 + g1 / l1, g22 - g12 + g2 / l2) if on_diagonal else None

    radicand = g11 * g22
    if radicand < 0.0:
        root = math.nan
    else:
        root = math.sqrt(radicand)
    cond_iv = None if on_diagonal else root + g12 + (g1 - g2) / (l1 - l2)
    cond_v = root - g12 + (g1 + g2) / (l1 + l2)

    report = KSReport(
        lambda1=l1,
        lambda2=l2,
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        cond_iv=cond_iv,
        cond_v=cond_v,
        strict=False,
    )
    vals = report.applicable_values()
    strict = all(np.isfinite(v) and v > strictness_margin for v in vals)
    return replace(report, strict=strict)


def ratio_minus_one_squared(l1, l2):
    """g(l1, l2) = (max/min - 1)^2, the stretch representation of the squared builtin."""
    s = l1 / l2 if l1 >= l2 else l2 / l1
    return (s - 1.0) ** 2


def ratio_minus_one_squared_derivatives(l1, l2):
    """Analytic partials of ratio_minus_one_squared (branch formulas plus symmetry)."""
    if l1 >= l2:
        g1 = 2.0 * (l1 - l2) / l2**2
        g2 = -2.0 * l1 * (l1 - l2) / l2**3
        g11 = 2.0 / l2**2
        g22 = 2.0 * l1 * (3.0 * l1 - 2.0 * l2) / l2**4
        g12 = 2.0 * (l2 - 2.0 * l1) / l2**3
        return g1, g2, g11, g22, g12
    g1, g2, g11, g22, g12 = ratio_minus_one_squared_derivatives(l2, l1)
    return g2, g1, g22, g11, g12


@dataclass(frozen=True)
class HCriterionResult:
    verdict: str  # strictly rank-one convex | rank-one convex | not rank-one convex
    convex: bool
    strictly_convex: bool
    nondecreasing: bool
    increasing: bool
    min_second_difference: float
    min_first_difference: float


def h_criterion(h, mode="strict", s_max=50.0, n_samples=2000, margin=1e-10):
    """Classify W(F) = h(lmax/lmin) through the profile h on [1, s_max].

    A convex non-decreasing profile is equivalent to rank-one convexity of
    the induced planar energy; strictly convex and increasing is equivalent
    to strict rank-one convexity.  mode picks which of the two questions the
    verdict answers.
    """
    if mode not in ("convex", "strict"):
        raise ValueError("mode must be 'convex' or 'strict'")
    ss = np.linspace(1.0, float(s_max), int(n_samples))
    values = np.asarray([float(h(s)) for s in ss])
    scale = margin * max(1.0, float(np.max(np.abs(values))))
    d1 = np.diff(values)
    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    convex = bool(np.all(d2 >= -scale))
    strictly_convex = bool(np.all(d2 > scale))
    nondecreasing = bool(np.all(d1 >= -scale))
    increasing = bool(np.all(d1 > scale))
    if mode == "strict":
        if strictly_convex and increasing:
            verdict = "strictly rank-one convex"
        elif convex and nondecreasing:
            verdict = "rank-one convex"
        else:
            verdict = "not rank-one convex"
    else:
        verdict = "rank-one convex" if convex and nondecreasing else "not rank-one convex"
    return HCriterionResult(
        verdict=verdict,
        convex=convex,
        strictly_convex=strictly_convex,
        nondecreasing=nondecreasing,
        increasing=increasing,
        min_second_difference=float(np.min(d2)),
        min_first_difference=float(np.min(d1)),
    )


def _angles(rng, dim):
    """The uniform angle (2D) or the three uniform Euler angles (3D) of one rotation."""
    return rng.uniform(0.0, 2.0 * np.pi, size=1 if dim == 2 else 3)


def _rotations(angles):
    """The rotation of angles (..., 1) in 2D or of Euler angles (..., 3) in 3D; one or a stack."""
    c, s = np.moveaxis(np.cos(angles), -1, 0), np.moveaxis(np.sin(angles), -1, 0)
    if len(c) == 1:
        return from_entries([[c[0], -s[0]], [s[0], c[0]]])
    (ca, cb, cg), (sa, sb, sg) = c, s
    z, o = np.zeros_like(ca), np.ones_like(ca)
    Rz1 = from_entries([[ca, -sa, z], [sa, ca, z], [z, z, o]])
    Ry = from_entries([[cb, z, sb], [z, o, z], [-sb, z, cb]])
    Rz2 = from_entries([[cg, -sg, z], [sg, cg, z], [z, z, o]])
    return Rz1 @ Ry @ Rz2


def _def_gradient_draws(rng, dim, stretch_range):
    """The draws of one random_def_gradient: log-stretches, then the angles of Q1 and of Q2."""
    lo, hi = stretch_range
    return rng.uniform(np.log(lo), np.log(hi), size=dim), _angles(rng, dim), _angles(rng, dim)


def _def_gradients(log_stretches, angles1, angles2):
    """Q1 diag(exp(log_stretches)) Q2 of one draw, or of each draw of stacked draws."""
    lams = np.exp(log_stretches)
    return _rotations(angles1) @ (lams[..., None, :] * np.eye(lams.shape[-1])) @ _rotations(angles2)


def random_rotation(rng, dim):
    """Rotation from uniform angles (2D) or uniform Euler angles (3D)."""
    return _rotations(_angles(rng, dim))


def random_def_gradient(rng, dim, stretch_range=(0.1, 10.0)):
    """Q1 diag(l) Q2 with log-uniform stretches; always in GL+."""
    return _def_gradients(*_def_gradient_draws(rng, dim, stretch_range))


def _direction(rng, dim):
    """A standard normal vector, drawn again until its norm exceeds 1e-8; not normalized."""
    while True:
        v = rng.standard_normal(dim)
        if math.sqrt(v @ v) > 1e-8:
            return v


@dataclass(frozen=True)
class ConvexityReport:
    verdict: str  # strictly-elliptic | elliptic | violated | inconclusive
    min_lh_form: float
    n_samples: int
    witnesses: list = field(default_factory=list)  # (F, xi, eta, value) near the minimum


def scan_rank_one_convexity(
    energy,
    n_samples=1000,
    seed=0,
    stretch_range=(0.1, 10.0),
    margin=1e-9,
    n_witnesses=3,
):
    """Monte-Carlo scan of the Legendre-Hadamard form on rank-one directions.

    Deterministic for a fixed seed (numpy default_rng).  Each sample draws
    F, then xi, then eta; the draws are collected one sample at a time, in
    that order, and the LH form is evaluated once on the whole stack.  The
    minimum and the witnesses are taken over the values that are not NaN
    (an overflowing second form gives NaN), ties in sample order; with no
    such value the verdict is "inconclusive".  A negative minimum below the
    margin is re-confirmed by a 1D line scan around the witness before the
    verdict "violated" is issued; without confirmation the scan reports
    "inconclusive" rather than guessing.
    """
    rng = np.random.default_rng(seed)
    dim = energy.dim
    draws = [
        (*_def_gradient_draws(rng, dim, stretch_range), _direction(rng, dim), _direction(rng, dim))
        for _ in range(int(n_samples))
    ]
    logs, angles1, angles2, xi, eta = (np.array(column) for column in zip(*draws))
    Fs = _def_gradients(logs, angles1, angles2)
    xis, etas = (v / np.sqrt(np.vecdot(v, v))[:, None] for v in (xi, eta))
    values = lh_form(energy, Fs, xis, etas)
    order = np.argsort(values, kind="stable")  # NaN last
    order = order[~np.isnan(values[order])]
    witnesses = [(Fs[i], xis[i], etas[i], float(values[i])) for i in order[:n_witnesses]]
    min_val = values[order[0]] if len(order) else math.nan

    if min_val > margin:
        verdict = "strictly-elliptic"
    elif min_val < -margin:
        F, xi, eta = Fs[order[0]], xis[order[0]], etas[order[0]]
        confirmed = False
        try:
            scan = rank_one_line_scan(energy, F - 0.05 * np.outer(xi, eta), xi, eta, t_max=0.1)
            confirmed = scan.verdict == "nonconvex"
        except LeavesGLPlus:
            scan = rank_one_line_scan(energy, F, xi, eta, t_max=0.05)
            confirmed = scan.verdict == "nonconvex"
        verdict = "violated" if confirmed else "inconclusive"
    else:
        verdict = "elliptic" if energy.analytic and not math.isnan(min_val) else "inconclusive"
    return ConvexityReport(
        verdict=verdict,
        min_lh_form=float(min_val),
        n_samples=int(n_samples),
        witnesses=witnesses,
    )


def ks_grid_scan(g, lam_values, derivatives=None):
    """knowles_sternberg over a grid; returns the list of per-point reports."""
    reports = []
    for l1 in lam_values:
        for l2 in lam_values:
            reports.append(knowles_sternberg(g, l1, l2, derivatives=derivatives))
    return reports
