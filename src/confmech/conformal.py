"""Conformal deformations in two and three dimensions.

Maps are small objects with evaluate/gradient methods: reflections across
spheres and hyperplanes, their compositions (Moebius maps), the planar
fractional-linear map in complex form, and the inversion-with-flip map
(x1, -x2 [, x3]) / |x|^2 whose gradient is hard coded in closed form.

evaluate and gradient take one point or a stack of points (..., dim) in one
body.  A Moebius composition takes each chain-rule step as one stacked
matmul, and the fractional-linear map is numpy complex arithmetic on
z = x1 + i x2.  The finite-difference gradient (fd_gradient) makes one
evaluate call on x + h e_j and one on x - h e_j for each axis j, with
h = FD_STEP.

A map built from an odd number of reflections reverses orientation; its
gradient is refused (the chain-rule derivative is available to compositions
internally, but a deformation gradient must have positive determinant).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfmechError, NonOrientationPreserving, NotConformal, SingularPoint
from .tensors import (
    as_square,
    conformality_residual,
    det,
    first_true,
    from_entries,
    libm_pow,
    require_gl_plus,
)

SINGULAR_RADIUS = 1e-14
FD_STEP = 1e-5  # of fd_gradient, for the conformality checks and stress fields alike


def _as_point(x, dim=None, stack=False):
    """x as a 2- or 3-vector, or with stack=True as a stack (..., dim) of them."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] not in (2, 3) or (x.ndim > 1 and not stack):
        raise ValueError("expected a 2- or 3-vector, got shape %s" % (x.shape,))
    if dim is not None and x.shape[-1] != dim:
        raise ValueError("expected a %d-vector, got %d" % (dim, x.shape[-1]))
    return x


class DeformationMap:
    """Common behaviour: orientation-checked gradient on top of a raw derivative matrix."""

    dim = None

    def evaluate(self, x):
        raise NotImplementedError

    def _jacobian(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.evaluate(x)

    def gradient(self, x):
        """Deformation gradient at x, or at each point of a stack x of shape (..., dim).

        Raises NonOrientationPreserving, naming the first such point, where det <= 0.
        """
        x = _as_point(x, self.dim, stack=True)
        J = self._jacobian(x)
        d = det(J)
        i = first_true(~(d > 0.0))
        if i is not None:
            raise NonOrientationPreserving(
                "map reverses orientation at %s (det = %r)"
                % (x.reshape(-1, self.dim)[i], float(np.ravel(d)[i]))
            )
        return J


class SphereReflection(DeformationMap):
    """Reflection across the sphere |x - center| = radius (an inversion)."""

    def __init__(self, center, radius):
        self.center = _as_point(center)
        if not (np.all(np.isfinite(self.center)) and radius > 0.0 and np.isfinite(radius)):
            raise ConfmechError(
                "a sphere needs a finite center and a finite radius > 0, got %s and %r"
                % (self.center, float(radius))
            )
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def _offset(self, x):
        """x - center and its squared length; SingularPoint, naming the first such point, at the center."""
        y = x - self.center
        d2 = np.vecdot(y, y)
        i = first_true(np.sqrt(d2) < SINGULAR_RADIUS)
        if i is not None:
            raise SingularPoint("reflection center reached at %s" % (x.reshape(-1, self.dim)[i],))
        return y, d2

    def evaluate(self, x):
        y, d2 = self._offset(_as_point(x, self.dim, stack=True))
        return self.center + (self.radius**2 / d2)[..., None] * y

    def _jacobian(self, x):
        y, d2 = self._offset(x)
        yhat = y / np.sqrt(d2)[..., None]
        outer = yhat[..., :, None] * yhat[..., None, :]
        return (self.radius**2 / d2)[..., None, None] * (np.eye(self.dim) - 2.0 * outer)


class HyperplaneReflection(DeformationMap):
    """Reflection across the plane <normal, x> = offset; normal must be unit."""

    def __init__(self, normal, offset=0.0):
        normal = _as_point(normal)
        nrm = float(np.sqrt(normal @ normal))
        if not (abs(nrm - 1.0) <= 1e-12 and np.isfinite(offset)):
            raise ConfmechError(
                "a plane needs a unit normal and a finite offset, got |n| = %r and offset %r"
                % (nrm, float(offset))
            )
        self.normal = normal / nrm
        self.offset = float(offset)
        self.dim = normal.shape[0]
        self._matrix = np.eye(self.dim) - 2.0 * np.outer(self.normal, self.normal)

    def evaluate(self, x):
        x = _as_point(x, self.dim, stack=True)
        return x - 2.0 * (np.vecdot(x, self.normal) - self.offset)[..., None] * self.normal

    def _jacobian(self, x):
        return np.broadcast_to(self._matrix, x.shape + (self.dim,))


class MoebiusMap(DeformationMap):
    """Composition of stacked reflections, applied first-to-last.

    Orientation-preserving exactly when the number of steps is even.
    """

    def __init__(self, steps):
        steps = list(steps)
        if not steps:
            raise ConfmechError("need at least one reflection step")
        dims = {s.dim for s in steps}
        if len(dims) != 1:
            raise ConfmechError("mixed dimensions in composition: %s" % dims)
        self.steps = steps
        self.dim = dims.pop()

    def evaluate(self, x):
        y = _as_point(x, self.dim, stack=True)
        for s in self.steps:
            y = s.evaluate(y)
        return y

    def _jacobian(self, x):
        y = x
        J = np.eye(self.dim)
        for s in self.steps:
            J = s._jacobian(y) @ J
            y = s.evaluate(y)
        return J


class ComplexMoebius(DeformationMap):
    """Planar map z -> (a z + b) / (c z + d) acting on (x1, x2) as z = x1 + i x2."""

    dim = 2

    def __init__(self, a, b, c, d):
        self.a = complex(a)
        self.b = complex(b)
        self.c = complex(c)
        self.d = complex(d)
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("ad - bc must be nonzero")

    def _w(self, x):
        # z = x1 + i x2 with a trailing axis of length 1, so that one point is an
        # array too: numpy's complex loops round otherwise than its complex scalars
        z = np.ascontiguousarray(x).view(complex)
        w = self.c * z + self.d
        i = first_true(np.abs(w) < SINGULAR_RADIUS)
        if i is not None:
            raise SingularPoint("pole of the fractional-linear map at %s" % (x.reshape(-1, 2)[i],))
        return z, w

    def evaluate(self, x):
        z, w = self._w(_as_point(x, 2, stack=True))
        return ((self.a * z + self.b) / w).view(float)

    def _jacobian(self, x):
        _, w = self._w(x)
        fp = ((self.a * self.d - self.b * self.c) / (w * w))[..., 0]
        return from_entries([[fp.real, -fp.imag], [fp.imag, fp.real]])


class InversionFlip(DeformationMap):
    """The conformal map (x1, -x2)/|x|^2, and its 3D analogue (x1, -x2, x3)/|x|^2.

    In 2D this is the complex reciprocal z -> 1/z. Equals the unit-sphere
    inversion followed by a reflection of the second coordinate, hence
    orientation preserving, with det grad = |x|^{-4} in 2D and |x|^{-6} in
    3D.  The gradient is hard coded; evaluate and gradient take stacks of points.
    """

    def __init__(self, dim):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim

    def _rho(self, x):
        # vecdot is BLAS ddot per point, the bits of x @ x
        rho = np.vecdot(x, x)
        if first_true(np.sqrt(rho) < SINGULAR_RADIUS) is not None:
            raise SingularPoint("origin is the singular point of the inversion")
        return rho

    def evaluate(self, x):
        x = _as_point(x, self.dim, stack=True)
        y = x / self._rho(x)[..., None]
        y[..., 1] *= -1.0
        return y

    def _jacobian(self, x):
        rho = self._rho(x)
        coords = x.transpose(-1, *range(x.ndim - 1))  # a view, the coordinates first
        if self.dim == 2:
            x1, x2 = coords
            rows = [
                [rho - 2.0 * x1 * x1, -2.0 * x1 * x2],
                [2.0 * x1 * x2, -rho + 2.0 * x2 * x2],
            ]
        else:
            x1, x2, x3 = coords
            rows = [
                [rho - 2.0 * x1 * x1, -2.0 * x1 * x2, -2.0 * x1 * x3],
                [2.0 * x1 * x2, -rho + 2.0 * x2 * x2, 2.0 * x2 * x3],
                [-2.0 * x1 * x3, -2.0 * x2 * x3, rho - 2.0 * x3 * x3],
            ]
        return from_entries(rows) / libm_pow(rho, 2.0)[..., None, None]

    def as_reflections(self):
        """The same map as an explicit two-reflection composition (cross-check)."""
        e2 = np.zeros(self.dim)
        e2[1] = 1.0
        return MoebiusMap(
            [SphereReflection(np.zeros(self.dim), 1.0), HyperplaneReflection(e2, 0.0)]
        )


def fd_gradient(mapping, x):
    """Central-difference derivative matrix of a map at x, or at each point of a stack x (..., dim).

    Column j is d(map)/d(x_j), from one evaluate call on x + h e_j and one
    on x - h e_j, h = FD_STEP.
    """
    x = _as_point(x, mapping.dim, stack=True)
    columns = [
        (mapping.evaluate(x + FD_STEP * e) - mapping.evaluate(x - FD_STEP * e)) / (2.0 * FD_STEP)
        for e in np.eye(mapping.dim)
    ]
    return np.stack(columns, axis=-1)


def is_conformal_at(mapping, x, tol=1e-10, use_fd=False):
    """(verdict, residual) of the conformality test at x, or arrays of both for a stack x (..., dim).

    Checks grad^T grad / det^{2/n} = id on the analytic gradient, or on the
    finite-difference one with use_fd (where tol ~ 1e-6 is appropriate).
    A NaN residual fails.
    """
    x = _as_point(x, mapping.dim, stack=True)
    F = fd_gradient(mapping, x) if use_fd else mapping.gradient(x)
    residual = conformality_residual(F)
    return residual <= tol, residual


@dataclass(frozen=True)
class ConformalDecomposition:
    scale: float  # the conformal factor lambda > 0
    rotation: np.ndarray  # in SO(n)
    residual: float


def decompose_conformal(F):
    """Split F in CSO(n) as (scale, rotation); raises NotConformal beyond the residual 1e-10."""
    F = as_square(F)
    d = require_gl_plus(F)
    residual = conformality_residual(F)
    if residual > 1e-10:
        raise NotConformal("residual %r exceeds tolerance 1e-10" % (residual,))
    lam = d ** (1.0 / F.shape[0])
    return ConformalDecomposition(scale=lam, rotation=F / lam, residual=residual)
