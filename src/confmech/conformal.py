"""Conformal deformations in two and three dimensions.

Maps are small objects with evaluate/gradient methods: reflections across
spheres and hyperplanes, the inversion-with-flip map (x1, -x2 [, x3]) / |x|^2,
whose gradient S (|x|^2 id - 2 x (x) x) / |x|^4, S negating the x2 row, is
one closed form in 2D and 3D, and Moebius maps, chains of these steps (the
command line's moebius: grammar builds them, every planar fractional-linear
map among them).  Any other map is the one step of its own chain.

evaluate and gradient take one point or a stack of points (..., dim) in one
body, and run the chain once: each step's image and derivative from one
pass over its parts, each chain-rule step one stacked matmul, and no image
of the last step.  The finite-difference gradient (fd_gradient) makes one
evaluate call on x + h e_j and one on x - h e_j for each axis j, with
h = FD_STEP, and refuses a point where the images' rounding swallows the step.

A map whose derivative has a negative det (an odd number of reflections)
reverses orientation; its gradient is refused, as is one whose det
overflows or underflows to 0.  A plane offset above DET_CEILING in size,
and a sphere radius whose square overflows, are refused where the
reflection is built.  Every refusal is a ConfmechError, and one at a point
names the point the caller gave, also from a later step of a chain.
"""

import numpy as np

from .exceptions import ConfmechError
from .tensors import (
    DET_CEILING,
    conformality_residual,
    det,
    from_entries,
    libm_pow,
    refuse_where,
    require_dim,
    require_tolerance,
)

SINGULAR_RADIUS = 1e-14
RADIUS_CEILING = float(np.sqrt(np.finfo(float).max))  # the largest radius whose square is finite
FD_STEP = 1e-5  # of fd_gradient, for the conformality checks and stress fields alike
# the share of a central difference that the images' rounding may hold: 20 bits are kept
FD_ROUNDING_MAX = 2.0**-20


def _as_point(x, dim=None, stack=False):
    """x as a 2- or 3-vector, or with stack=True as a stack (..., dim) of them."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] not in (2, 3) or (x.ndim > 1 and not stack):
        raise ConfmechError("expected a 2- or 3-vector, got shape %s" % (x.shape,))
    if dim is not None and x.shape[-1] != dim:
        raise ConfmechError("expected a %d-vector, got %d" % (dim, x.shape[-1]))
    return x


class DeformationMap:
    """Common behaviour: one chain rule, and an orientation-checked gradient on top of it.

    A map is the chain of its steps, or its own one step.  A step gives
    _parts(x, points), then the image _image(*parts) and the matrix
    _derivative(*parts).  A refusal in _parts names the point of points, a
    stack in x's order, where x fails: the caller's point, also at a later
    step.  A map may instead override evaluate and _jacobian.
    """

    dim = None

    def evaluate(self, x):
        y = x = _as_point(x, self.dim, stack=True)
        for s in getattr(self, "steps", (self,)):
            y = s._image(*s._parts(y, x))
        return y

    def _jacobian(self, x):
        # one pass: each step's image and derivative from one _parts call, and no last image;
        # every step keeps the order of the stack, so a refusal at an image names x
        steps = getattr(self, "steps", (self,))
        parts = steps[0]._parts(x, x)
        J = steps[0]._derivative(*parts)
        for before, s in zip(steps, steps[1:]):
            parts = s._parts(before._image(*parts), x)
            J = s._derivative(*parts) @ J
        return J

    def __call__(self, x):
        return self.evaluate(x)

    def gradient(self, x):
        """Deformation gradient at x, or at each point of a stack x of shape (..., dim).

        Raises a ConfmechError, naming the first such point, where det
        overflows or underflows to 0, or where det < 0.
        """
        x = _as_point(x, self.dim, stack=True)
        J = self._jacobian(x)
        with np.errstate(over="ignore", invalid="ignore"):
            d = det(J)
        past = ~np.isfinite(d) | (d == 0.0)
        if past.any():
            refuse_where(past, "det grad %s at %s", np.where(d == 0.0, "underflows to 0", "overflows"), x)
        refuse_where(~(d > 0.0), "map reverses orientation at %s (det = %r)", x, d)
        return J


class SphereReflection(DeformationMap):
    """Reflection across the sphere |x - center| = radius (an inversion); radius^2 must be finite."""

    def __init__(self, center, radius):
        self.center = _as_point(center)
        if not (np.all(np.isfinite(self.center)) and radius > 0.0 and np.isfinite(radius)):
            raise ConfmechError(
                "a sphere needs a finite center and a finite radius > 0, got %s and %r"
                % (self.center, float(radius))
            )
        if not radius <= RADIUS_CEILING:
            raise ConfmechError("sphere radius %r: its square overflows" % (float(radius),))
        self.dim = self.center.shape[0]
        self.radius_sq = float(radius) ** 2

    def _parts(self, x, points):
        """x - center, its squared length and the scale radius^2 / |x - center|^2 of the reflection.

        A ConfmechError, naming the point of points where x first fails, at
        the center or where the scale is above DET_CEILING (it would overflow
        the map's next steps).  Where |x - center|^2 overflows, the scale is 0.
        """
        with np.errstate(over="ignore", divide="ignore"):
            y = x - self.center
            d2 = np.vecdot(y, y)
            scale = self.radius_sq / d2
        refuse_where(np.sqrt(d2) < SINGULAR_RADIUS, "reflection center reached at %s", points)
        message = "reflection scale radius^2 / |x - center|^2 = %r is above %r at %s"
        refuse_where(~(scale <= DET_CEILING), message, scale, DET_CEILING, points)
        return y, d2, scale

    def _image(self, y, d2, scale):
        return self.center + scale[..., None] * y

    def _derivative(self, y, d2, scale):
        yhat = y / np.sqrt(d2)[..., None]
        outer = yhat[..., :, None] * yhat[..., None, :]
        return scale[..., None, None] * (np.eye(self.dim) - 2.0 * outer)


class HyperplaneReflection(DeformationMap):
    """Reflection across the plane <normal, x> = offset; a unit normal, |offset| <= DET_CEILING."""

    def __init__(self, normal, offset):
        normal = _as_point(normal)
        nrm = float(np.sqrt(normal @ normal))
        if not (abs(nrm - 1.0) <= 1e-12 and abs(offset) <= DET_CEILING):
            raise ConfmechError(
                "a plane needs a unit normal and an offset of at most %r in size, got |n| = %r and "
                "offset %r" % (DET_CEILING, nrm, float(offset))
            )
        self.normal = normal / nrm
        self.offset = float(offset)
        self.dim = normal.shape[0]
        self._matrix = np.eye(self.dim) - 2.0 * np.outer(self.normal, self.normal)

    def _parts(self, x, points):
        return (x,)

    def _image(self, x):
        return x - 2.0 * (np.vecdot(x, self.normal) - self.offset)[..., None] * self.normal

    def _derivative(self, x):
        return np.broadcast_to(self._matrix, x.shape + (self.dim,))


class MoebiusMap(DeformationMap):
    """Composition of steps (reflections, InversionFlips), applied first-to-last.

    Orientation-preserving exactly when the number of reflections is even,
    an InversionFlip counting as two.
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


class InversionFlip(DeformationMap):
    """The conformal map (x1, -x2)/|x|^2, and its 3D analogue (x1, -x2, x3)/|x|^2.

    In 2D this is the complex reciprocal z -> 1/z. Equals the unit-sphere
    inversion followed by a reflection of the second coordinate, hence
    orientation preserving, with det grad = |x|^{-4} in 2D and |x|^{-6} in
    3D.  The gradient is hard coded; it refuses the origin and a point whose
    |x|^2 overflows, and is a MoebiusMap step too.
    """

    def __init__(self, dim):
        require_dim(dim)
        self.dim = dim

    def _parts(self, x, points):
        # rho = |x|^2 by vecdot, BLAS ddot per point, the bits of x @ x; past the float range it is +inf
        with np.errstate(over="ignore"):
            rho = np.vecdot(x, x)
        refuse_where(np.sqrt(rho) < SINGULAR_RADIUS, "origin is the singular point of the inversion")
        refuse_where(rho == np.inf, "|x|^2 overflows at %s", points)
        return x, rho

    def _image(self, x, rho):
        y = x / rho[..., None]
        y[..., 1] *= -1.0
        return y

    def _derivative(self, x, rho):
        coords = x.transpose(-1, *range(x.ndim - 1))  # a view, the coordinates first
        # S (rho id - 2 x (x) x) / rho^2, S negating the x2 row, entry by entry:
        # row i is s_i rho e_i + (-2 s_i x_i) x, with the products in this order
        rows = []
        for i, (s, xi) in enumerate(zip((1.0, -1.0, 1.0), coords)):
            row = [(-2.0 * s * xi) * xj for xj in coords]
            row[i] = s * rho + row[i]
            rows.append(row)
        return from_entries(rows) / libm_pow(rho, 2.0)[..., None, None]


def fd_gradient(mapping, x):
    """Central-difference derivative matrix of a map at x, or at each point of a stack x (..., dim).

    Column j is d(map)/d(x_j), from one evaluate call on x + h e_j and one
    on x - h e_j, h = FD_STEP.  Where the images' rounding, eps times their
    largest entry, is above FD_ROUNDING_MAX of the differences' largest
    entry, the step is lost next to the images' size: a ConfmechError names
    the first such point.
    """
    x = _as_point(x, mapping.dim, stack=True)
    steps = (FD_STEP, -FD_STEP)
    images = np.array([[mapping.evaluate(x + h * e) for h in steps] for e in np.eye(mapping.dim)])
    differences = np.stack(list(images[:, 0] - images[:, 1]), axis=-1)
    size = np.max(np.abs(images), axis=(0, 1, -1))
    spread = np.max(np.abs(differences), axis=(-2, -1))
    lost = ~(np.finfo(float).eps * size <= FD_ROUNDING_MAX * spread)
    message = "finite-difference step %r is lost next to images of size %.3g at %s: their difference "
    refuse_where(lost, message + "%.3g keeps fewer than 20 bits", FD_STEP, size, x, spread)
    return differences / (2.0 * FD_STEP)


def is_conformal_at(mapping, x, tol=1e-10, use_fd=False):
    """(verdict, residual) of the conformality test at x, or arrays of both for a stack x (..., dim).

    Checks grad^T grad / det^{2/n} = id on the analytic gradient, or on the
    finite-difference one with use_fd (where tol ~ 1e-6 is appropriate).
    A NaN residual fails; a tol that is not finite and at least 0 is refused.
    """
    require_tolerance(tol)
    x = _as_point(x, mapping.dim, stack=True)
    F = fd_gradient(mapping, x) if use_fd else mapping.gradient(x)
    residual = conformality_residual(F)
    return residual <= tol, residual
