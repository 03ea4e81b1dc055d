"""Conformal deformations in two and three dimensions.

Maps are small objects with evaluate/gradient methods: reflections across
spheres and hyperplanes, their compositions (Moebius maps), the planar
fractional-linear map in complex form, and the inversion-with-flip map
(x1, -x2 [, x3]) / |x|^2 whose gradient is hard coded in closed form.

A map built from an odd number of reflections reverses orientation; its
gradient is refused (the chain-rule derivative is available to compositions
internally, but a deformation gradient must have positive determinant).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NonOrientationPreserving, NotConformal, SingularPoint
from .tensors import as_square, conformality_residual, det, require_gl_plus

SINGULAR_RADIUS = 1e-14


def _as_point(x, dim=None):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] not in (2, 3):
        raise ValueError("expected a 2- or 3-vector, got shape %s" % (x.shape,))
    if dim is not None and x.shape[0] != dim:
        raise ValueError("expected a %d-vector, got %d" % (dim, x.shape[0]))
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
        """Deformation gradient at x; raises NonOrientationPreserving if det <= 0."""
        J = self._jacobian(_as_point(x, self.dim))
        if not det(J) > 0.0:
            raise NonOrientationPreserving(
                "map reverses orientation at %s (det = %r)" % (x, det(J))
            )
        return J


class SphereReflection(DeformationMap):
    """Reflection across the sphere |x - center| = radius (an inversion)."""

    def __init__(self, center, radius):
        self.center = _as_point(center)
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def evaluate(self, x):
        y = _as_point(x, self.dim) - self.center
        d2 = float(y @ y)
        if np.sqrt(d2) < SINGULAR_RADIUS:
            raise SingularPoint("reflection center reached at %s" % (x,))
        return self.center + (self.radius**2 / d2) * y

    def _jacobian(self, x):
        y = x - self.center
        d2 = float(y @ y)
        if np.sqrt(d2) < SINGULAR_RADIUS:
            raise SingularPoint("reflection center reached at %s" % (x,))
        n = self.dim
        yhat = y / np.sqrt(d2)
        return (self.radius**2 / d2) * (np.eye(n) - 2.0 * np.outer(yhat, yhat))


class HyperplaneReflection(DeformationMap):
    """Reflection across the plane <normal, x> = offset; normal must be unit."""

    def __init__(self, normal, offset=0.0):
        normal = _as_point(normal)
        nrm = float(np.sqrt(normal @ normal))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector (|n| = %r)" % nrm)
        self.normal = normal / nrm
        self.offset = float(offset)
        self.dim = normal.shape[0]

    def evaluate(self, x):
        x = _as_point(x, self.dim)
        return x - 2.0 * (float(self.normal @ x) - self.offset) * self.normal

    def _jacobian(self, x):
        return np.eye(self.dim) - 2.0 * np.outer(self.normal, self.normal)


class MoebiusMap(DeformationMap):
    """Composition of reflections, applied first-to-last.

    Orientation-preserving exactly when the number of steps is even; probe
    with is_orientation_preserving at any regular point.
    """

    def __init__(self, steps):
        steps = list(steps)
        if not steps:
            raise ValueError("need at least one reflection step")
        dims = {s.dim for s in steps}
        if len(dims) != 1:
            raise ValueError("mixed dimensions in composition: %s" % dims)
        self.steps = steps
        self.dim = dims.pop()

    def evaluate(self, x):
        y = _as_point(x, self.dim)
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

    def is_orientation_preserving(self, probe_x):
        return det(self._jacobian(_as_point(probe_x, self.dim))) > 0.0


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
        z = complex(x[0], x[1])
        w = self.c * z + self.d
        if abs(w) < SINGULAR_RADIUS:
            raise SingularPoint("pole of the fractional-linear map at %s" % (x,))
        return z, w

    def evaluate(self, x):
        z, w = self._w(_as_point(x, 2))
        f = (self.a * z + self.b) / w
        return np.array([f.real, f.imag])

    def _jacobian(self, x):
        _, w = self._w(x)
        fp = (self.a * self.d - self.b * self.c) / (w * w)
        return np.array([[fp.real, -fp.imag], [fp.imag, fp.real]])


class InversionFlip(DeformationMap):
    """The conformal map (x1, -x2)/|x|^2, and its 3D analogue (x1, -x2, x3)/|x|^2.

    In 2D this is the complex reciprocal z -> 1/z. Equals the unit-sphere
    inversion followed by a reflection of the second coordinate, hence
    orientation preserving; gradient and determinant are hard coded:
    det grad = |x|^{-4} in 2D and |x|^{-6} in 3D.
    """

    def __init__(self, dim):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim

    def _rho(self, x):
        rho = float(x @ x)
        if np.sqrt(rho) < SINGULAR_RADIUS:
            raise SingularPoint("origin is the singular point of the inversion")
        return rho

    def evaluate(self, x):
        x = _as_point(x, self.dim)
        rho = self._rho(x)
        y = x / rho
        y[1] = -y[1]
        return y

    def _jacobian(self, x):
        rho = self._rho(x)
        if self.dim == 2:
            x1, x2 = x
            return (
                np.array(
                    [
                        [rho - 2.0 * x1 * x1, -2.0 * x1 * x2],
                        [2.0 * x1 * x2, -rho + 2.0 * x2 * x2],
                    ]
                )
                / rho**2
            )
        x1, x2, x3 = x
        return (
            np.array(
                [
                    [rho - 2.0 * x1 * x1, -2.0 * x1 * x2, -2.0 * x1 * x3],
                    [2.0 * x1 * x2, -rho + 2.0 * x2 * x2, 2.0 * x2 * x3],
                    [-2.0 * x1 * x3, -2.0 * x2 * x3, rho - 2.0 * x3 * x3],
                ]
            )
            / rho**2
        )

    def det_gradient(self, x):
        rho = self._rho(_as_point(x, self.dim))
        return rho**-2 if self.dim == 2 else rho**-3

    def as_reflections(self):
        """The same map as an explicit two-reflection composition (cross-check)."""
        e2 = np.zeros(self.dim)
        e2[1] = 1.0
        return MoebiusMap(
            [SphereReflection(np.zeros(self.dim), 1.0), HyperplaneReflection(e2, 0.0)]
        )


class AffineMap(DeformationMap):
    """x -> A x + b; handy as an identity/shear reference."""

    def __init__(self, A, b=None):
        self.A = as_square(A)
        self.dim = self.A.shape[0]
        self.b = np.zeros(self.dim) if b is None else _as_point(b, self.dim)

    def evaluate(self, x):
        return self.A @ _as_point(x, self.dim) + self.b

    def _jacobian(self, x):
        return self.A.copy()


def fd_gradient(mapping, x, h=1e-5):
    """Central-difference derivative matrix of a map; columns are d(map)/d(x_j)."""
    x = _as_point(x, mapping.dim)
    n = x.shape[0]
    J = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        J[:, j] = (mapping.evaluate(x + step) - mapping.evaluate(x - step)) / (2.0 * h)
    return J


def is_conformal_at(mapping, x, tol=1e-10, use_fd=False, h=1e-5):
    """(verdict, residual) of the conformality test at x.

    Checks grad^T grad / det^{2/n} = id on the analytic gradient, or on the
    finite-difference one with use_fd (where tol ~ 1e-6 is appropriate).
    """
    F = fd_gradient(mapping, x, h) if use_fd else mapping.gradient(x)
    residual = conformality_residual(F)
    return residual <= tol, residual


@dataclass(frozen=True)
class ConformalDecomposition:
    scale: float  # the conformal factor lambda > 0
    rotation: np.ndarray  # in SO(n)
    residual: float


def decompose_conformal(F, tol=1e-10):
    """Split F in CSO(n) as (scale, rotation); raises NotConformal beyond tol."""
    F = as_square(F)
    d = require_gl_plus(F)
    residual = conformality_residual(F)
    if residual > tol:
        raise NotConformal("residual %r exceeds tolerance %r" % (residual, tol))
    lam = d ** (1.0 / F.shape[0])
    return ConformalDecomposition(scale=lam, rotation=F / lam, residual=residual)
