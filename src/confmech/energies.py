"""Isotropic hyperelastic energies on GL+(n) and their derivative chains.

Four families:

* DistortionEnergy     -- planar W(F) = psi(K) with K = ||F||^2 / (2 det F)
* PlanarRatioEnergy    -- planar W(F) = h(lmax/lmin) through the singular values
* IsochoricNeoHooke    -- W(F) = ||F||^2 / det(F)^{2/3} - 3 in three dimensions
* CompositeEnergy      -- isochoric part plus a volumetric splice f(det F)

Every energy exposes value / first_derivative / second_form / cauchy_stress.
The four families take closed-form profile derivatives and set the boolean
`analytic`; an EnergyModel subclass that defines value() only inherits the
finite-difference routes and keeps analytic = False.  The module level fd_*
functions are the independent oracles: they touch nothing but value() and
are the comparison side of every derivative test.

Throughout, first_derivative returns the Frechet derivative D_F W (same
shape as F) and second_form returns the scalar D^2 W(F)[H, H].  The Cauchy
stress is sigma = (1/det F) D_F W F^T.

value, first_derivative, cauchy_stress and second_form take one matrix or
a stack (..., n, n) in one body; second_form takes directions H that
broadcast against F.  Inner products sum over the two matrix axes, in the
order np.sum takes for one matrix, and every power goes through
tensors.libm_pow, so a matrix of a stack gets the bits it gets alone.  A
value-only subclass's value is called as written, on one matrix at a time:
the base class's finite-difference first_derivative and second_form loop
over a stack themselves.
"""

from collections import namedtuple

import numpy as np

from .exceptions import InvalidSplice, NonPositiveArgument, NotDifferentiable
from .tensors import (
    _entries,
    as_square,
    cofactor,
    first_true,
    frobenius_norm,
    inner,
    libm_pow,
    require_gl_plus,
    svd,
    transpose_inverse,
)

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4

# singular value ratios closer to 1 than this are treated as coincident
TIE_GAP = 1e-12
NEAR_TIE_GAP = 1e-8


def fd_first_derivative(energy, F, h=FD_STEP_FIRST):
    """Entry-wise central-difference derivative of energy.value at F.

    The oracle side of every derivative check; uses value() only.
    """
    F = as_square(F)
    step = h * max(1.0, frobenius_norm(F))
    n = F.shape[0]
    P = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = step
            P[i, j] = (energy.value(F + E) - energy.value(F - E)) / (2.0 * step)
    return P


def fd_second_form(energy, F, H, h=FD_STEP_SECOND):
    """Central second difference of t -> energy.value(F + t H) at t = 0."""
    F = as_square(F)
    H = as_square(H)
    nrm = frobenius_norm(H)
    if nrm == 0.0:
        return 0.0
    Hn = H / nrm
    step = h * max(1.0, frobenius_norm(F))
    w0 = energy.value(F)
    wp = energy.value(F + step * Hn)
    wm = energy.value(F - step * Hn)
    return nrm**2 * (wp - 2.0 * w0 + wm) / step**2


def _profile(fn, x):
    """fn at each x, as floats in the shape of x (a constant result is broadcast)."""
    v = np.asarray(fn(x), dtype=float)
    if v.shape != np.shape(x):
        v = np.broadcast_to(v, np.shape(x))
    return v[()]


def _stack_note(a, i):
    """Where entry i of a, one value per matrix, sits: nothing for one matrix."""
    return " (matrix %d of the stack)" % i if np.ndim(a) else ""


def _each_matrix(fn, F, *H):
    """fn(F, *H) for one matrix, or fn on each matrix of a stack (with its directions H).

    The results are stacked in the shape of F's (broadcast) leading axes.
    """
    F, *H = np.broadcast_arrays(F, *H)
    if F.ndim == 2:
        return fn(F, *H)
    n = F.shape[-1]
    out = np.array([fn(*item) for item in zip(*(M.reshape(-1, n, n) for M in (F, *H)))])
    return out.reshape(F.shape[:-2] + out.shape[1:])


class EnergyModel:
    """Contract shared by all energies; derivative routes default to FD.

    A subclass that defines value() alone gets the finite-difference
    first_derivative and second_form, which call value() on one matrix at
    a time, also for a stack.
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
        if F.shape[-1] != self.dim:
            raise ValueError(
                "%s is a %dD energy, got a %dx%d matrix"
                % (self.label, self.dim, F.shape[-1], F.shape[-1])
            )
        return np.ascontiguousarray(F)

    def value(self, F):
        raise NotImplementedError

    def first_derivative(self, F):
        return _each_matrix(lambda G: fd_first_derivative(self, G), self._check_dim(F))

    def second_form(self, F, H):
        F = self._check_dim(F)
        return _each_matrix(lambda G, D: fd_second_form(self, G, D), F, as_square(H, stack=True))

    def cauchy_stress(self, F):
        """sigma = D_F W F^T / det F."""
        F = self._check_dim(F)
        d = require_gl_plus(F)
        return (self.first_derivative(F) @ np.swapaxes(F, -2, -1)) / d[..., None, None]


class DistortionEnergy(EnergyModel):
    """Planar isotropic energy W(F) = psi(K(F)), K = ||F||^2 / (2 det F).

    Parameters
    ----------
    psi : callable on [1, inf)
    dpsi, d2psi : callables
        Analytic first and second derivatives of psi.

    psi, dpsi and d2psi are called on an array of distortions K for a stack
    and must broadcast (a constant is broadcast to the shape of K).
    """

    dim = 2
    analytic = True

    def __init__(self, psi, dpsi, d2psi, label="psi-distortion"):
        self.psi = psi
        self.dpsi = dpsi
        self.d2psi = d2psi
        self.label = label

    def _distortion(self, F):
        d = require_gl_plus(F)
        return 0.5 * inner(F, F) / d, d

    def _psi_d(self, fn, K, name):
        """psi' or psi'' (fn, named name) at K, one value or an array of them."""
        v = _profile(fn, K)
        i = first_true(~np.isfinite(v))
        if i is not None:
            raise NotDifferentiable(
                "%s is not finite at K = %r%s" % (name, float(np.ravel(K)[i]), _stack_note(K, i))
            )
        return v

    def value(self, F):
        K, _ = self._distortion(self._check_dim(F))
        return _profile(self.psi, K)

    def first_derivative(self, F):
        # D_F W = psi'(K) (2F - ||F||^2 F^{-T}) / (2 det F)
        F = self._check_dim(F)
        K, d = self._distortion(F)
        FiT = transpose_inverse(F)
        dpsi = self._psi_d(self.dpsi, K, "psi'")[..., None, None]
        return dpsi * (2.0 * F - inner(F, F)[..., None, None] * FiT) / (2.0 * d)[..., None, None]

    def second_form(self, F, H):
        F = self._check_dim(F)
        H = as_square(H, stack=True)
        K, d = self._distortion(F)
        FiT = transpose_inverse(F)
        n2 = inner(F, F)
        fh = inner(F, H)
        gh = inner(FiT, H)
        hh = inner(H, H)
        ghh = inner(FiT @ np.swapaxes(H, -2, -1) @ FiT, H)
        dK = 0.5 * (2.0 * fh - n2 * gh) / d
        d2K = 0.5 * (2.0 * hh - 4.0 * fh * gh + n2 * gh * gh + n2 * ghh) / d
        psi_2 = self._psi_d(self.d2psi, K, "psi''")
        return psi_2 * dK * dK + self._psi_d(self.dpsi, K, "psi'") * d2K

    def cauchy_stress(self, F):
        # sigma = psi'(K) [ F F^T / det^2 - (K / det) id ]
        F = self._check_dim(F)
        K, d = self._distortion(F)
        dpsi = self._psi_d(self.dpsi, K, "psi'")[..., None, None]
        det_sq = libm_pow(d, 2.0)[..., None, None]
        return dpsi * (F @ np.swapaxes(F, -2, -1) / det_sq - (K / d)[..., None, None] * np.eye(2))


def _ratio_g_partials(h1, h2, s, lam2):
    """Partials of g(l1, l2) = h(l1/l2) on the l1 >= l2 branch; arrays or scalars."""
    lam2_sq = libm_pow(lam2, 2.0)
    g1 = h1 / lam2
    g2 = -h1 * s / lam2
    g11 = h2 / lam2_sq
    g22 = (h2 * s * s + 2.0 * h1 * s) / lam2_sq
    g12 = -(h2 * s + h1) / lam2_sq
    return g1, g2, g11, g22, g12


def _principal_second_form(g1, g2, g11, g22, g12, U, s, V, H):
    """Second derivative of an isotropic energy, assembled in the SVD frame.

    For W(F) = g(singular values) with distinct singular values,
    D^2 W[H, H] in the frame Ht = U^T H V is the quadratic form with
    diagonal block g_ij and the classical off-diagonal coefficients
    (li gi - lj gj)/(li^2 - lj^2) and (lj gi - li gj)/(li^2 - lj^2).
    U, V, H are stacks (..., 2, 2), s (..., 2), the g's one value per matrix.
    """
    Ht = _entries(np.swapaxes(U, -2, -1) @ H @ V)
    s0, s1 = s[..., 0], s[..., 1]
    quad = (
        g11 * libm_pow(Ht[0, 0], 2.0)
        + g22 * libm_pow(Ht[1, 1], 2.0)
        + 2.0 * g12 * Ht[0, 0] * Ht[1, 1]
    )
    denom = libm_pow(s0, 2.0) - libm_pow(s1, 2.0)
    a = (s0 * g1 - s1 * g2) / denom
    b = (s1 * g1 - s0 * g2) / denom
    quad += a * (libm_pow(Ht[0, 1], 2.0) + libm_pow(Ht[1, 0], 2.0)) + 2.0 * b * Ht[0, 1] * Ht[1, 0]
    return quad


class PlanarRatioEnergy(EnergyModel):
    """Planar isotropic energy W(F) = h(lmax/lmin).

    h is evaluated at the sorted ratio s = lmax/lmin >= 1, which realizes the
    symmetry h(s) = h(1/s) without requiring the caller to supply it.  On the
    set lmax = lmin the energy attains its minimum whenever h'(1+) >= 0, and
    the gradient (hence the Cauchy stress) is reported as exactly 0 there:
    the stress of these energies must vanish identically on the conformal
    group, and 0 is the minimal-norm subgradient at a minimum even when h
    has a corner.  h'(1+) < 0 leaves no canonical value and raises
    NotDifferentiable.

    value, first_derivative, cauchy_stress and second_form take one matrix
    or a stack (..., 2, 2) through the closed-form 2x2 SVD, so h, dh and
    d2h are called on an array of ratios and must broadcast (a constant is
    broadcast to the ratios' shape).  second_form has no closed form at
    nearly coincident singular values: such a matrix gets a central second
    difference of the value when h'(1) = 0, and NotDifferentiable otherwise.
    """

    dim = 2
    analytic = True

    def __init__(self, h, dh, d2h, label="ratio-energy"):
        self.h = h
        self.dh = dh
        self.d2h = d2h
        self.label = label

    def value(self, F):
        U, s, V = svd(self._check_dim(F))
        return _profile(self.h, s[..., 0] / s[..., 1])

    def first_derivative(self, F):
        U, s, V = svd(self._check_dim(F))
        ratio = s[..., 0] / s[..., 1]
        h1 = _profile(self.dh, ratio)
        tie = ratio - 1.0 < TIE_GAP
        i = first_true(tie & (h1 < -1e-8))
        if i is not None:
            raise NotDifferentiable(
                "h decreases into the coincident singular values (h'(1+) = %r)%s"
                % (float(np.ravel(h1)[i]), _stack_note(ratio, i))
            )
        outer0 = U[..., :, 0, None] * V[..., None, :, 0]
        outer1 = U[..., :, 1, None] * V[..., None, :, 1]
        P = h1[..., None, None] * (outer0 - ratio[..., None, None] * outer1) / s[..., 1, None, None]
        # a minimum of the energy on the conformal set: the stress must vanish
        P[tie] = 0.0
        return P

    def second_form(self, F, H):
        F, H = np.broadcast_arrays(self._check_dim(F), as_square(H, stack=True))
        shape = F.shape[:-2]
        F, H = F.reshape(-1, 2, 2), H.reshape(-1, 2, 2)
        U, s, V = svd(F)
        ratio = s[:, 0] / s[:, 1]
        h1 = _profile(self.dh, ratio)
        near = (s[:, 0] - s[:, 1]) / s[:, 0] < NEAR_TIE_GAP
        i = first_true(near & ~(np.abs(h1) <= 1e-8))
        if i is not None:
            raise NotDifferentiable(
                "no second derivative at coincident singular values%s"
                % _stack_note(ratio.reshape(shape), i)
            )
        out = np.empty(len(F))
        for k in np.flatnonzero(near):
            out[k] = fd_second_form(self, F[k], H[k])
        far = ~near
        if far.any():
            h2 = _profile(self.d2h, ratio[far])
            g = _ratio_g_partials(h1[far], h2, ratio[far], s[far, 1])
            out[far] = _principal_second_form(*g, U[far], s[far], V[far], H[far])
        return out.reshape(shape)[()]


def linear_distortion_squared():
    """The builtin planar energy W(F) = (lmax/lmin)^2 - 1.

    Expressed through the distortion K it is (K + sqrt(K^2 - 1))^2 - 1;
    vanishes exactly on CSO(2) and is strictly rank-one convex.
    """
    return PlanarRatioEnergy(
        h=lambda s: s * s - 1.0,
        dh=lambda s: 2.0 * s,
        d2h=lambda s: 2.0,
        label="linear-distortion-squared",
    )


def distortion_minus_one():
    """The builtin planar energy W(F) = K(F) - 1 (rank-one convex, not strictly)."""
    return DistortionEnergy(
        psi=lambda K: K - 1.0,
        dpsi=lambda K: 1.0,
        d2psi=lambda K: 0.0,
        label="distortion-minus-one",
    )


class IsochoricNeoHooke(EnergyModel):
    """W(F) = ||F||^2 / det(F)^{2/3} - 3 on GL+(3); vanishes exactly on CSO(3)."""

    dim = 3
    label = "isochoric-neo-hooke"
    analytic = True

    def value(self, F):
        F = self._check_dim(F)
        d = require_gl_plus(F)
        return np.sum(F * F, axis=(-2, -1)) / libm_pow(d, 2.0 / 3.0) - 3.0

    def first_derivative(self, F):
        F = self._check_dim(F)
        d = require_gl_plus(F)
        FiT = transpose_inverse(F)
        n2 = np.sum(F * F, axis=(-2, -1))[..., None, None]
        return (2.0 * F - (2.0 / 3.0) * n2 * FiT) / libm_pow(d, 2.0 / 3.0)[..., None, None]

    def second_form(self, F, H):
        F = self._check_dim(F)
        H = as_square(H, stack=True)
        d = require_gl_plus(F)
        FiT = transpose_inverse(F)
        scale = libm_pow(d, 2.0 / 3.0)
        n2s = inner(F, F) / scale
        fh = inner(F, H)
        gh = inner(FiT, H)
        return (
            -(8.0 / 3.0) * gh * fh / scale
            + 2.0 * inner(H, H) / scale
            + (4.0 / 9.0) * n2s * gh * gh
            + (2.0 / 3.0) * n2s * inner(FiT @ np.swapaxes(H, -2, -1) @ FiT, H)
        )

    def cauchy_stress(self, F):
        F = self._check_dim(F)
        d = require_gl_plus(F)
        scale = libm_pow(d, 5.0 / 3.0)[..., None, None]
        n2 = np.sum(F * F, axis=(-2, -1))[..., None, None]
        return 2.0 * (F @ np.swapaxes(F, -2, -1)) / scale - (2.0 / 3.0) * n2 / scale * np.eye(3)


VolumetricValues = namedtuple("VolumetricValues", ["value", "d1", "d2"])


class VolumetricTerm:
    """The C^1 volumetric splice f with minimum at 1 and constant slope band.

        f(t) = ln^2 t                                   t < e
        f(t) = 1 + 2 (t - e) / e                        e <= t <= c
        f(t) = 1 + (2/e) (exp(t - c) + c - e - 1)       t > c

    f is C^1 everywhere with f(1) = f'(1) = 0, f''(1) = 2, and f' = 2/e on
    the whole band [e, c].  value, slope and curvature (f'') take arrays,
    each branch computed on its own entries only, with numpy's log and exp,
    which give the same bits on an array as on one float.  The second
    derivative jumps at t = c and is one-sided at t = e, so curvature raises
    NotDifferentiable there; evaluate() reports it for one t, as a
    (left, right) pair exactly at the splice points and as a float elsewhere.
    """

    def __init__(self, c=np.e + 2.0):
        if not (np.isfinite(c) and c > np.e):
            raise InvalidSplice("splice point c = %r must be finite and strictly above e" % (c,))
        self.c = float(c)

    def _by_branch(self, t, low, band, high):
        """low(t) where t < e, band(t) on [e, c], high(t) where t > c; one t or an array.

        Each formula sees only the entries of its own branch.  Past t = c + 709
        exp(t - c) overflows to +inf without a warning: that is the value of
        the t > c branch in floating point.
        """
        t = np.asarray(t, dtype=float)
        i = first_true(~(t > 0.0))
        if i is not None:
            bad = float(t.flat[i])
            raise NonPositiveArgument("volumetric argument t = %r must be positive" % (bad,))
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
        """f''(t), of one t or of each entry of an array; NotDifferentiable at t = e or t = c."""
        e, c = np.e, self.c
        i = first_true((np.asarray(t) == e) | (np.asarray(t) == c))
        if i is not None:
            raise NotDifferentiable(
                "volumetric second derivative is one-sided at the splice point t = %r"
                % (float(np.ravel(t)[i]),)
            )
        return self._by_branch(
            t,
            lambda t: 2.0 * (1.0 - np.log(t)) / libm_pow(t, 2.0),
            lambda t: 0.0,
            lambda t: (2.0 / e) * np.exp(t - c),
        )

    def evaluate(self, t):
        """f, f' and f'' at one t; f'' is a (left, right) pair at t = e and t = c."""
        t = float(t)
        d2 = {np.e: (0.0, 0.0), self.c: (0.0, 2.0 / np.e)}.get(t)
        if d2 is None:
            d2 = float(self.curvature(t))
        return VolumetricValues(float(self.value(t)), float(self.slope(t)), d2)


def _log_squared(t):
    lg = np.log(t)
    return lg * lg


class CompositeEnergy(EnergyModel):
    """W(F) = W_iso(F / det^{1/n}) + f(det F) for a conformally invariant W_iso.

    Invariance of the isochoric part makes W_iso(F / det^{1/n}) = W_iso(F),
    so all derivative chains reduce to the iso chains plus cofactor terms;
    the constructor probes the invariance once and refuses energies that
    fail it.
    """

    def __init__(self, iso, vol, label=None):
        self.iso = iso
        self.vol = vol
        self.dim = iso.dim
        self.label = label or ("composite-" + iso.label)
        probe = np.eye(self.dim) * 1.0
        a, b = iso.value(1.7 * probe), iso.value(probe)
        if abs(a - b) > 1e-8 * (1.0 + abs(b)):
            raise ValueError("iso part must be conformally invariant to compose")
        self.analytic = iso.analytic

    def value(self, F):
        F = self._check_dim(F)
        d = require_gl_plus(F)
        return self.iso.value(F / libm_pow(d, 1.0 / self.dim)[..., None, None]) + self.vol.value(d)

    def first_derivative(self, F):
        F = self._check_dim(F)
        d = require_gl_plus(F)
        return self.iso.first_derivative(F) + self.vol.slope(d)[..., None, None] * cofactor(F)

    def second_form(self, F, H):
        F = self._check_dim(F)
        H = as_square(H, stack=True)
        d = require_gl_plus(F)
        curvature = self.vol.curvature(d)
        FiT = transpose_inverse(F)
        gh = inner(FiT, H)
        cof_h = d * gh
        # D^2 det[H,H] = det (  <F^{-T},H>^2 - <F^{-T} H^T F^{-T}, H> )
        det_curv = d * (gh * gh - inner(FiT @ np.swapaxes(H, -2, -1) @ FiT, H))
        iso, slope = self.iso.second_form(F, H), self.vol.slope(d)
        # near t = c + 709, f'' * cof_h^2 may overflow to +inf, its value; past
        # it f' = f'' = inf, det_curv is rounding noise (zero for a rank-one H)
        # and inf * noise may cancel the cof_h term to NaN, so those rows take
        # f' out as a factor; the other rows keep this expression and its bits
        with np.errstate(over="ignore", invalid="ignore"):
            form = iso + curvature * cof_h * cof_h + slope * det_curv
            return np.where(np.isinf(slope), iso + slope * (cof_h * cof_h + det_curv), form)[()]

    def cauchy_stress(self, F):
        F = self._check_dim(F)
        d = require_gl_plus(F)
        return self.iso.cauchy_stress(F) + self.vol.slope(d)[..., None, None] * np.eye(self.dim)


BUILTIN_ENERGIES = ("iso2d-klin2", "iso2d-psi", "iso3d", "composite2d", "composite3d")


def builtin_energy(name, c=np.e + 2.0):
    """Construct one of the named energies used by the command line tools."""
    if name == "iso2d-klin2":
        return linear_distortion_squared()
    if name == "iso2d-psi":
        return distortion_minus_one()
    if name == "iso3d":
        return IsochoricNeoHooke()
    if name == "composite2d":
        return CompositeEnergy(linear_distortion_squared(), VolumetricTerm(c))
    if name == "composite3d":
        return CompositeEnergy(IsochoricNeoHooke(), VolumetricTerm(c))
    raise ValueError("unknown energy %r (choose from %s)" % (name, ", ".join(BUILTIN_ENERGIES)))
