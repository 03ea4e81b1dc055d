"""Linearized picture: trace-free symmetrized gradients and conformal Killing fields.

The planar quadratic energy |dev sym grad u|^2 (mu = 1) vanishes exactly on the
displacements whose symmetrized gradient is a multiple of the identity, the
(planar) conformal Killing fields

    u(x) = (1/2) [ 2 <w, x> x - w |x|^2 ] + (p id + A) x + b,   A skew.

kernel_displacement evaluates that family with an analytic gradient, for
one field at one point or for stacks of fields and points; the
quadratic approximation of the inversion-with-flip map around (0.5, 0) is the
member with w = (16, 0), p = -13, A = 0, b = (6, 0); its closeness to the true
map is measured on the small disk where the approximation was derived.
"""

from collections import namedtuple

import numpy as np

from .conformal import InversionFlip, _as_point
from .exceptions import ConfmechError
from .tensors import as_square, dev, from_entries, refuse_where, sym


def w_lin_2d(grad_u):
    """Quadratic energy |dev_2 sym grad u|^2 (shear modulus mu = 1)."""
    G = as_square(grad_u)
    if G.shape[0] != 2:
        raise ConfmechError("w_lin_2d expects a 2x2 displacement gradient")
    D = dev(sym(G))
    return float(np.sum(D * D))


def sigma_lin(grad_u):
    """Linearized stress 2 dev sym grad u (mu = 1), of one gradient or of each in a stack."""
    G = as_square(grad_u, stack=True)
    if G.shape[-1] != 2:
        raise ConfmechError("sigma_lin expects a 2x2 displacement gradient")
    return 2.0 * dev(sym(G))


class KernelDisplacement(namedtuple("KernelDisplacement", "beta gamma p_hat spin b_hat")):
    """Parameters (beta, gamma, p_hat, spin, b_hat) of a planar conformal Killing field.

    The skew part is A = [[0, spin], [-spin, 0]].  One field, or a
    stack of them: beta, gamma, p_hat and spin of shape (...), b_hat (..., 2).
    An immutable NamedTuple that takes b_hat as a point, also in _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, beta, gamma, p_hat, spin, b_hat):
        return super().__new__(cls, beta, gamma, p_hat, spin, _as_point(b_hat, 2, stack=True))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def w(self):
        """The quadratic-part direction vector (-gamma, beta)."""
        return np.stack([-np.asarray(self.gamma, float), np.asarray(self.beta, float)], axis=-1)


def kernel_displacement(k, x):
    """Evaluate a kernel field: returns (u, grad_u) with the gradient in closed form.

    grad u = <w, x> id + x (x) w - w (x) x + p_hat id + A, whose
    symmetrized trace-free part vanishes identically.  x is one point or a
    stack (..., 2), and k one field or a stack of fields that broadcasts
    against it; dots are vecdot (BLAS ddot) and M x is matvec, as for one point.
    """
    x = _as_point(x, 2, stack=True)
    w = k.w
    wx = np.vecdot(w, x)[..., None]
    p_id = np.asarray(k.p_hat, float)[..., None, None] * np.eye(2)
    zero = np.zeros_like(k.spin, dtype=float)
    A = from_entries([[zero, k.spin], [-np.asarray(k.spin, float), zero]])
    u = 0.5 * (2.0 * wx * x - w * np.vecdot(x, x)[..., None]) + np.matvec(p_id + A, x) + k.b_hat
    outer_xw = x[..., :, None] * w[..., None, :]
    outer_wx = w[..., :, None] * x[..., None, :]
    grad = wx[..., None] * np.eye(2) + outer_xw - outer_wx + p_id + A
    return u, grad


def conformal_quadratic_approx():
    """The quadratic approximation of (x1,-x2)/|x|^2 around (0.5, 0), a kernel field.

    u = (1/2)[2<w,x>x - w|x|^2] + p x + b with w = (16, 0), p = -13 and
    b = (6, 0); w = (-gamma, beta).
    """
    return KernelDisplacement(beta=0.0, gamma=-16.0, p_hat=-13.0, spin=0.0, b_hat=(6.0, 0.0))


def quadratic_approx_error(radius=0.15):
    """Max |x + u(x) - phi(x)| of the quadratic approximation over a disk.

    Sampled at 500 uniform points of the disk, seed 0, around the expansion
    point (0.5, 0); the approximation is exact there and degrades like the
    cube of the distance from it.  A radius outside [0, 0.5), where the disk
    would reach the map's singular point at the origin, is refused.
    """
    refuse_where(not 0.0 <= radius < 0.5, "radius must be at least 0 and below 0.5, got %r", radius)
    # per sample a radius draw in [0, 1) then an angle draw in [0, 2 pi)
    draws = np.random.default_rng(0).uniform([0.0, 0.0], [1.0, 2.0 * np.pi], (500, 2))
    r, a = radius * np.sqrt(draws[:, 0]), draws[:, 1]
    x = np.array([0.5, 0.0]) + r[:, None] * np.stack([np.cos(a), np.sin(a)], axis=-1)
    u, _ = kernel_displacement(conformal_quadratic_approx(), x)
    gap = x + u - InversionFlip(2).evaluate(x)
    return float(np.max(np.sqrt(np.vecdot(gap, gap)), initial=0.0))
