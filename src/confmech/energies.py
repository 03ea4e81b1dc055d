"""Isotropic hyperelastic energies on GL+(n) and their derivative chains.

Four families:

* DistortionEnergy     -- planar W(F) = K - 1 with K = ||F||^2 / (2 det F)
* PlanarRatioEnergy    -- planar W(F) = h(lmax/lmin) through the singular values,
                          the generic planar class
* IsochoricNeoHooke    -- W(F) = ||F||^2 / det(F)^{2/3} - 3 in three dimensions
* CompositeEnergy      -- isochoric part plus a volumetric splice f(det F)

Every energy exposes value / first_derivative / second_form / cauchy_stress.
The four families are closed forms, PlanarRatioEnergy's from its profile's
derivatives through _ratio_partials, the one chain rule to the stretch
partials, which convexity.ratio_profile shares, nearly coincident planar
singular values included (the closed form's limit), and set `analytic`;
an EnergyModel subclass that defines value() only inherits the
finite-difference routes and keeps analytic = False.  The module level
fd_* functions are the independent oracles: they touch nothing but
value() and are the comparison side of every derivative test.

Throughout, first_derivative returns the Frechet derivative D_F W (same
shape as F) and second_form returns the scalar D^2 W(F)[H, H].  The Cauchy
stress is sigma = (1/det F) D_F W F^T.

value, first_derivative, cauchy_stress and second_form take one matrix or
a stack (..., n, n) in one body; second_form takes directions H of F's
size (tensors.require_direction refuses another) that broadcast against
F.  Inner products sum over the two matrix axes, in the
order np.sum takes for one matrix, and every power goes through
tensors.libm_pow, so a matrix of a stack gets the bits it gets alone.  Every
energy's value, a value-only subclass's too, maps (..., n, n) to (...): the
fd_* oracles, the line scan and the composite's invariance probe call it on
stacks through _values, which refuses a value that does not.
"""

import numbers

import numpy as np

from .exceptions import ConfmechError
from .tensors import (
    _entries,
    _singular_values,
    as_square,
    cofactor,
    inner,
    libm_pow,
    refuse_where,
    require_direction,
    require_gl_plus,
    svd,
    transpose,
)

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4

# default splice point c of the volumetric term's constant-slope band [e, c]
DEFAULT_C = np.e + 2.0

# singular value ratios closer to 1 than this are treated as coincident
TIE_GAP = 1e-12
NEAR_TIE_GAP = 1e-8
# the scalings at which CompositeEnergy probes its iso part, the first the matrix itself
INVARIANCE_SCALES = (1.0, 0.5, 1.7, 3.0)


def _values(energy, F):
    """energy.value on F (..., n, n), refused with one line unless it has one value per matrix."""
    v = energy.value(F)
    if np.shape(v) != F.shape[:-2]:
        raise ConfmechError(
            "%s.value must take a stack (..., n, n) and return (...): value has shape %s (want %s)"
            % (type(energy).__name__, np.shape(v), F.shape[:-2])
        )
    return v


def fd_first_derivative(energy, F):
    """Entry-wise central-difference derivative of energy.value at F, one matrix or a stack.

    The oracle side of every derivative check; uses value() only, in one
    call on the 2 n^2 shifted matrices of each matrix of F, with the step
    FD_STEP_FIRST max(1, |F|).
    """
    F = as_square(F, stack=True)
    n = F.shape[-1]
    step = FD_STEP_FIRST * np.maximum(1.0, np.sqrt(inner(F, F)))
    # E[..., i, j] is the matrix with step at (i, j) and zeros elsewhere
    E = step[..., None, None, None, None] * np.eye(n * n).reshape(n, n, n, n)
    F = F[..., None, None, :, :]
    vp, vm = _values(energy, np.stack([F + E, F - E]))
    return (vp - vm) / (2.0 * step[..., None, None])


def fd_second_form(energy, F, H):
    """Central second difference of t -> energy.value(F + t H) at t = 0; exactly 0.0 where H = 0.

    F and H are one matrix or stacks that broadcast together; the step
    along H / |H| is FD_STEP_SECOND max(1, |F|).
    """
    F = as_square(F, stack=True)
    H = require_direction(F, H)
    nrm = np.sqrt(inner(H, H))
    zero = nrm == 0.0
    step = FD_STEP_SECOND * np.maximum(1.0, np.sqrt(inner(F, F)))
    dF = step[..., None, None] * (H / np.where(zero, 1.0, nrm)[..., None, None])
    w0, wp, wm = (_values(energy, G) for G in (F, F + dF, F - dF))
    return np.where(zero, 0.0, libm_pow(nrm, 2.0) * (wp - 2.0 * w0 + wm) / libm_pow(step, 2.0))[()]


def _profile(fn, x):
    """fn at each x, as floats in the shape of x: a constant is broadcast, a result that cannot be is refused."""
    flat = np.reshape(x, -1)  # one ratio too: numpy's scalar x ** 2 is pow, its array x ** 2 is x * x
    v = np.asarray(fn(flat), dtype=float)
    if v.shape != flat.shape:
        try:
            v = np.broadcast_to(v, flat.shape)
        except ValueError:
            message = "a profile must return a constant or one value per ratio: shape %s (want %s)"
            raise ConfmechError(message % (v.shape, np.shape(x))) from None
    return v.reshape(np.shape(x))[()]


def _ratio_partials(dh, d2h, l1, l2):
    """(g1, g2, g11, g22, g12) of g(l1, l2) = h(l1 / l2) at l1 >= l2, one pair or arrays, from dh and d2h.

    The one chain rule of PlanarRatioEnergy.second_form and convexity.ratio_profile.
    """
    ratio = l1 / l2
    h1, h2 = _profile(dh, ratio), _profile(d2h, ratio)
    l2_sq = libm_pow(l2, 2.0)
    g1, g2 = h1 / l2, -h1 * ratio / l2
    g11 = h2 / l2_sq
    g22 = (h2 * ratio * ratio + 2.0 * h1 * ratio) / l2_sq
    g12 = -(h2 * ratio + h1) / l2_sq
    return g1, g2, g11, g22, g12


class EnergyModel:
    """Contract shared by all energies; derivative routes default to FD.

    A subclass that defines value() alone, taking (..., n, n) to (...), gets
    the finite-difference first_derivative and second_form.
    """

    dim = None
    label = "energy"
    analytic = False  # True when first_derivative and second_form are closed forms

    def _check_dim(self, F):
        """F as a C-contiguous matrix or stack (..., n, n) of this energy's dimension.

        matmul rounds a stack laid out matrix axes first otherwise than a
        C-contiguous one, so a stack's bits would depend on its layout.
        """
        F = as_square(F, stack=True)
        refuse_where(self.dim not in (2, 3), "%s must set dim to 2 or 3, got dim = %r", self.label, self.dim)
        if F.shape[-1] != self.dim:
            raise ConfmechError(
                "%s is a %dD energy, got a %dx%d matrix"
                % (self.label, self.dim, F.shape[-1], F.shape[-1])
            )
        return np.ascontiguousarray(F)

    def _checked(self, F):
        """(F, det F): F through _check_dim, then refused by require_gl_plus outside the det band."""
        F = self._check_dim(F)
        return F, require_gl_plus(F)

    def _checked_inverse(self, F):
        """(F, det F, F^{-T}): F^{-T} = Cof F / det F, from the det that _checked has band-checked."""
        F, d = self._checked(F)
        return F, d, cofactor(F) / d[..., None, None]

    def _second_form_terms(self, F, H):
        """F checked, H, det F, <F^{-T}, H> and <F^{-T} H^T F^{-T}, H>: the closed forms' terms."""
        F, d, FiT = self._checked_inverse(F)
        H = require_direction(F, H)
        return F, H, d, inner(FiT, H), inner(FiT @ transpose(H) @ FiT, H)

    def value(self, F):
        raise NotImplementedError

    def first_derivative(self, F):
        return fd_first_derivative(self, self._check_dim(F))

    def second_form(self, F, H):
        return fd_second_form(self, self._check_dim(F), H)

    def cauchy_stress(self, F):
        """sigma = D_F W F^T / det F."""
        F, d = self._checked(F)
        return (self.first_derivative(F) @ transpose(F)) / d[..., None, None]


class DistortionEnergy(EnergyModel):
    """Planar isotropic energy W(F) = K(F) - 1, K = ||F||^2 / (2 det F) = (s + 1/s) / 2, s = lmax/lmin.

    The builtin iso2d-psi: zero exactly on CSO(2), every derivative a closed form in F, with no SVD.
    """

    dim = 2
    label = "distortion-minus-one"
    analytic = True

    def _distortion(self, F, d):
        return 0.5 * inner(F, F) / d

    def value(self, F):
        return self._distortion(*self._checked(F)) - 1.0

    def first_derivative(self, F):
        # D_F W = (2F - ||F||^2 F^{-T}) / (2 det F)
        F, d, FiT = self._checked_inverse(F)
        return (2.0 * F - inner(F, F)[..., None, None] * FiT) / (2.0 * d)[..., None, None]

    def second_form(self, F, H):
        # D^2 K[H, H]
        F, H, d, gh, ghh = self._second_form_terms(F, H)
        n2 = inner(F, F)
        fh = inner(F, H)
        hh = inner(H, H)
        return 0.5 * (2.0 * hh - 4.0 * fh * gh + n2 * gh * gh + n2 * ghh) / d

    def cauchy_stress(self, F):
        # sigma = F F^T / det^2 - (K / det) id
        F, d = self._checked(F)
        K = self._distortion(F, d)
        det_sq = libm_pow(d, 2.0)[..., None, None]
        return F @ transpose(F) / det_sq - (K / d)[..., None, None] * np.eye(2)


class PlanarRatioEnergy(EnergyModel):
    """Planar isotropic energy W(F) = h(lmax/lmin).

    h is evaluated at the sorted ratio s = lmax/lmin >= 1, which realizes the
    symmetry h(s) = h(1/s) without requiring the caller to supply it.  On the
    set lmax = lmin the energy attains its minimum whenever h'(1+) >= 0, and
    the gradient (hence the Cauchy stress) is reported as exactly 0 there:
    the stress of these energies must vanish identically on the conformal
    group, and 0 is the minimal-norm subgradient at a minimum even when h
    has a corner.  With h'(1) > 0 that 0 is a convention, not a derivative:
    W is a cone at every conformal F, so a gradient that leaves the tie by
    rounding (a finite-difference one) gets the cone's slope instead.
    h'(1+) < 0 leaves no canonical value and raises a ConfmechError.

    value, first_derivative, cauchy_stress and second_form take one matrix
    or a stack (..., 2, 2) through the closed-form 2x2 SVD, so h, dh and
    d2h are called on an array of ratios and must broadcast (a constant is
    broadcast to the ratios' shape).  At nearly coincident singular values,
    inside NEAR_TIE_GAP, second_form takes its closed form's limit when
    h'(1) = 0, and raises a ConfmechError otherwise.
    """

    dim = 2
    analytic = True

    def __init__(self, h, dh, d2h, label="ratio-energy"):
        self.h = h
        self.dh = dh
        self.d2h = d2h
        self.label = label

    def value(self, F):
        s, _ = _singular_values(self._check_dim(F))
        return _profile(self.h, s[..., 0] / s[..., 1])

    def first_derivative(self, F):
        U, s, V = svd(self._check_dim(F))
        ratio = s[..., 0] / s[..., 1]
        h1 = _profile(self.dh, ratio)
        tie = ratio - 1.0 < TIE_GAP
        message = "h decreases into the coincident singular values (h'(1+) = %r)"
        refuse_where(tie & (h1 < -1e-8), message, h1, note=True)
        outer0 = U[..., :, 0, None] * V[..., None, :, 0]
        outer1 = U[..., :, 1, None] * V[..., None, :, 1]
        P = h1[..., None, None] * (outer0 - ratio[..., None, None] * outer1) / s[..., 1, None, None]
        # a minimum of the energy on the conformal set: the stress must vanish
        P[tie] = 0.0
        return P

    def second_form(self, F, H):
        """D^2 W[H, H] of g(l1, l2) = h(l1 / l2), l1 >= l2, in the SVD frame Ht = U^T H V.

        The form has diagonal block g_ij and off-diagonal coefficients
        (l1 g1 - l2 g2)/(l1^2 - l2^2) and (l2 g1 - l1 g2)/(l1^2 - l2^2), whose
        common limit as l1 -> l2 is g11 = h''/l2^2 when h'(1) = 0.
        """
        F = self._check_dim(F)
        H = require_direction(F, H)
        U, s, V = svd(F)
        s0, s1 = s[..., 0], s[..., 1]
        near = (s0 - s1) / s0 < NEAR_TIE_GAP
        no_form = near & ~(np.abs(_profile(self.dh, 1.0)) <= 1e-8)
        refuse_where(no_form, "no second derivative at coincident singular values", note=True)
        g1, g2, g11, g22, g12 = _ratio_partials(self.dh, self.d2h, s0, s1)
        Ht = _entries(transpose(U) @ np.ascontiguousarray(H) @ V)
        denom = libm_pow(s0, 2.0) - libm_pow(s1, 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at a tie, where g11 is taken
            a = np.where(near, g11, (s0 * g1 - s1 * g2) / denom)
            b = np.where(near, g11, (s1 * g1 - s0 * g2) / denom)
        (h00, h01), (h10, h11) = Ht[0], Ht[1]
        quad = g11 * libm_pow(h00, 2.0) + g22 * libm_pow(h11, 2.0) + 2.0 * g12 * h00 * h11
        return quad + (a * (libm_pow(h01, 2.0) + libm_pow(h10, 2.0)) + 2.0 * b * h01 * h10)


class IsochoricNeoHooke(EnergyModel):
    """W(F) = ||F||^2 / det(F)^{2/3} - 3 on GL+(3); vanishes exactly on CSO(3)."""

    dim = 3
    label = "isochoric-neo-hooke"
    analytic = True

    def value(self, F):
        F, d = self._checked(F)
        return inner(F, F) / libm_pow(d, 2.0 / 3.0) - 3.0

    def first_derivative(self, F):
        F, d, FiT = self._checked_inverse(F)
        n2 = inner(F, F)[..., None, None]
        return (2.0 * F - (2.0 / 3.0) * n2 * FiT) / libm_pow(d, 2.0 / 3.0)[..., None, None]

    def second_form(self, F, H):
        F, H, d, gh, ghh = self._second_form_terms(F, H)
        scale = libm_pow(d, 2.0 / 3.0)
        n2s = inner(F, F) / scale
        fh = inner(F, H)
        return (
            -(8.0 / 3.0) * gh * fh / scale
            + 2.0 * inner(H, H) / scale
            + (4.0 / 9.0) * n2s * gh * gh
            + (2.0 / 3.0) * n2s * ghh
        )

    def cauchy_stress(self, F):
        F, d = self._checked(F)
        scale = libm_pow(d, 5.0 / 3.0)[..., None, None]
        n2 = inner(F, F)[..., None, None]
        return 2.0 * (F @ transpose(F)) / scale - (2.0 / 3.0) * n2 / scale * np.eye(3)


class VolumetricTerm:
    """The C^1 volumetric splice f with minimum at 1 and constant slope band.

        f(t) = ln^2 t                                   t < e
        f(t) = 1 + 2 (t - e) / e                        e <= t <= c
        f(t) = 1 + (2/e) (exp(t - c) + c - e - 1)       t > c

    f is C^1 everywhere with f(1) = f'(1) = 0, f''(1) = 2, and f' = 2/e on
    the whole band [e, c].  value, slope and curvature (f'') take one t or
    an array, each branch computed on its own entries only, with numpy's log
    and exp, which give the same bits on an array as on one float.  The
    second derivative jumps at t = c and is one-sided at t = e, so curvature
    raises a ConfmechError there.
    """

    def __init__(self, c=DEFAULT_C):
        if not (isinstance(c, numbers.Real) and np.isfinite(c) and c > np.e):
            raise ConfmechError("splice point c = %r must be finite and strictly above e" % (c,))
        self.c = float(c)

    def _by_branch(self, t, low, band, high):
        """low(t) where t < e, band(t) on [e, c], high(t) where t > c; one t or an array.

        Each formula sees only the entries of its own branch.  Past t = c + 709
        exp(t - c) overflows to +inf without a warning: that is the value of
        the t > c branch in floating point.
        """
        t = np.asarray(t, dtype=float)
        refuse_where(~(t > 0.0), "volumetric argument t = %r must be positive", t)
        lo, hi = t < np.e, t > self.c
        out = np.empty(t.shape)
        for mask, formula in ((lo, low), (~(lo | hi), band)):
            out[mask] = formula(t[mask])
        with np.errstate(over="ignore"):
            out[hi] = high(t[hi])
        return out[()]

    def value(self, t):
        """f(t), of one t or of each entry of an array."""
        e, c = np.e, self.c
        return self._by_branch(
            t,
            _log_squared,
            lambda t: 1.0 + 2.0 * (t - e) / e,
            lambda t: 1.0 + (2.0 / e) * (np.exp(t - c) + c - e - 1.0),
        )

    def slope(self, t):
        """f'(t), of one t or of each entry of an array."""
        e, c = np.e, self.c
        return self._by_branch(
            t,
            lambda t: 2.0 * np.log(t) / t,
            lambda t: np.full_like(t, 2.0 / e),
            lambda t: (2.0 / e) * np.exp(t - c),
        )

    def curvature(self, t):
        """f''(t), of one t or of each entry of an array; a ConfmechError at t = e or t = c."""
        e, c, t = np.e, self.c, np.asarray(t, dtype=float)
        message = "volumetric second derivative is one-sided at the splice point t = %r"
        refuse_where((t == e) | (t == c), message, t)
        return self._by_branch(t, _log_curvature, lambda t: 0.0, lambda t: (2.0 / e) * np.exp(t - c))


def _log_squared(t):
    lg = np.log(t)
    return lg * lg


def _log_curvature(t):
    """f''(t) = 2 (1 - ln t) / t^2 below e; +inf, its correct rounding, past the float range."""
    with np.errstate(over="ignore", divide="ignore"):
        return 2.0 * (1.0 - np.log(t)) / libm_pow(t, 2.0)


class CompositeEnergy(EnergyModel):
    """W(F) = W_iso(F / det^{1/n}) + f(det F) for a conformally invariant W_iso.

    Invariance of the isochoric part makes W_iso(F / det^{1/n}) = W_iso(F),
    so all derivative chains reduce to the iso chains plus cofactor terms.
    The constructor refuses an iso part whose values differ by more than a
    relative 1e-8 across the INVARIANCE_SCALES multiples of the identity, or
    of the shear I + N (N the ones just above the diagonal), in one call.
    """

    def __init__(self, iso, vol):
        self.iso = iso
        self.vol = vol
        self.dim = iso.dim
        self.label = "composite-" + iso.label
        n = self.dim
        probe = np.multiply.outer(INVARIANCE_SCALES, np.stack([np.eye(n), np.eye(n) + np.eye(n, k=1)]))
        v = _values(iso, probe)
        kept = np.abs(v - v[0]) <= 1e-8 * (1.0 + np.abs(v[0]))
        refuse_where(~kept, "iso part must be conformally invariant to compose")
        self.analytic = iso.analytic

    def value(self, F):
        F, d = self._checked(F)
        return self.iso.value(F / libm_pow(d, 1.0 / self.dim)[..., None, None]) + self.vol.value(d)

    def _checked_slope(self, F):
        """F checked, and f'(det F), refused where it is +inf (inf * 0 is NaN): past c + 709."""
        F, d = self._checked(F)
        slope = self.vol.slope(d)
        message = "det F = %r is past the volumetric exp overflow at c + 709"
        refuse_where(np.isinf(slope), message, d, note=True)
        return F, slope[..., None, None]

    def first_derivative(self, F):
        F, slope = self._checked_slope(F)
        return self.iso.first_derivative(F) + slope * cofactor(F)

    def second_form(self, F, H):
        F, H, d, gh, ghh = self._second_form_terms(F, H)
        curvature = self.vol.curvature(d)
        cof_h = d * gh
        # D^2 det[H,H] = det (  <F^{-T},H>^2 - <F^{-T} H^T F^{-T}, H> )
        det_curv = d * (gh * gh - ghh)
        iso, slope = self.iso.second_form(F, H), self.vol.slope(d)
        # near t = c + 709, f'' * cof_h^2 may overflow to +inf, its value; past
        # it f' = f'' = inf, det_curv is rounding noise (zero for a rank-one H)
        # and inf * noise may cancel the cof_h term to NaN, so those rows take
        # f' out as a factor, and a factor of exactly 0 leaves the iso form;
        # the other rows keep this expression and its bits
        with np.errstate(over="ignore", invalid="ignore"):
            form = iso + curvature * cof_h * cof_h + slope * det_curv
            factor = cof_h * cof_h + det_curv
            past = np.where(factor == 0.0, iso, iso + slope * factor)
            return np.where(np.isinf(slope), past, form)[()]

    def cauchy_stress(self, F):
        F, slope = self._checked_slope(F)
        return self.iso.cauchy_stress(F) + slope * np.eye(self.dim)


BUILTIN_ENERGIES = ("iso2d-klin2", "iso2d-psi", "iso3d", "composite2d", "composite3d")


def builtin_energy(name, c=DEFAULT_C):
    """Construct one of the named energies used by the command line tools.

    iso2d-klin2 is W(F) = (lmax/lmin)^2 - 1, in the distortion K
    (K + sqrt(K^2 - 1))^2 - 1, and iso2d-psi is DistortionEnergy,
    W(F) = K(F) - 1 in closed form: both vanish exactly on CSO(2) and are
    strictly rank-one convex.  composite2d and composite3d add
    VolumetricTerm(c) to iso2d-klin2 and iso3d.  klin2's h'(1) = 2 is a
    corner on CSO(2), where its stress is the minimal-norm subgradient 0 by
    convention; iso2d-psi and iso3d are smooth.  Every name refuses a c that
    VolumetricTerm refuses, with or without a volumetric part.
    """
    vol = VolumetricTerm(c)
    if name == "iso2d-psi":
        return DistortionEnergy()
    if name in ("iso2d-klin2", "composite2d"):
        iso = PlanarRatioEnergy(
            h=lambda s: s * s - 1.0,
            dh=lambda s: 2.0 * s,
            d2h=lambda s: 2.0,
            label="linear-distortion-squared",
        )
    elif name in ("iso3d", "composite3d"):
        iso = IsochoricNeoHooke()
    else:
        raise ConfmechError("unknown energy %r (choose from %s)" % (name, ", ".join(BUILTIN_ENERGIES)))
    return CompositeEnergy(iso, vol) if name.startswith("composite") else iso
