"""Small-matrix algebra for 2x2 and 3x3 matrices, one at a time or in stacks.

Determinants and cofactors are written out entry by entry on the matrix
axes moved to the front, so they take one matrix or a stack of shape
(..., n, n) alike.  det_of_entries is the one det formula: det takes it in
arrays, on one matrix as on a stack, and jump_check in Python floats on
the entries it has already unpacked.
The planar ratio energy reads a 2x2 F through its split F z = c z + a conj(z)
(_split, _planar_svd): singular values |c| +- |a| and rotations from half
angles.  Elsewhere singular values come from LAPACK's SVD of the matrix
itself (jump_check calls np.linalg.svd's gufunc directly).  Neither route
forms F^T F, which would square the small ones away.
These routes take one matrix or a stack in one body: branches go through
np.where, products through stacked matmuls on C-contiguous operands and dots
through vecdot, so each matrix of a stack gets the bits it gets alone.

GL+ is taken as the det band [1 / DET_CEILING, DET_CEILING]: require_gl_plus
refuses a det outside it, and the line scan leaves GL+ there.
refuse_where raises the library's refusals at the first failing entry of a
stack, and those of the count rule (require_count), the seed rule
(require_seed), the tolerance rule (require_tolerance), the dimension
rule (require_dim) and the direction rule (require_direction, whose stacks
must broadcast: require_broadcast) of the entry points that take a count, a
seed, a tolerance, a dimension or a direction.

Powers of stacks go through libm_pow, one libm call per element: a stack
then gives the bits that a scalar power of each element gives.  Inner
products, norms and the conformality residual sum over the two matrix
axes, which adds each matrix's entries in the order np.sum takes for one.
"""

import math
import numbers

import numpy as np

from .exceptions import ConfmechError

# the det band [1 / DET_CEILING, DET_CEILING] of GL+: dets outside it are refused,
# so the energies' powers of det F, up to det^2, neither overflow nor underflow
DET_CEILING = 1e100


def as_square(M, stack=False):
    """M as a float 2x2 or 3x3 matrix, or with stack=True as a stack (..., n, n) of them."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] not in ((2, 2), (3, 3)) or (M.ndim > 2 and not stack):
        raise ConfmechError("expected a 2x2 or 3x3 matrix, got shape %s" % (M.shape,))
    return M


def libm_pow(a, p):
    """a ** p element by element through libm pow, as a scalar power computes it.

    numpy's array power takes a SIMD route on AVX-512 hosts that differs
    from libm in the last bit on about 5 % of inputs, and its a ** 2 is
    a * a, which differs from pow(a, 2) on about 1 in 1000.  Stacked
    formulas therefore take every power from here.  Where math.pow raises
    (a power past the float range, a pole such as 0 ** -1, a negative base
    with a fractional p), the element gets C's IEEE result, +-inf or NaN,
    from numpy's float64 scalar power; every other element keeps its bits.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist()
    try:
        out = np.fromiter(map(math.pow, flat, [p] * len(flat)), float, len(flat))
    except (OverflowError, ValueError):
        out = np.array([_ieee_pow(v, p) for v in flat])
    return out.reshape(a.shape)[()]


def _ieee_pow(v, p):
    """math.pow(v, p), or C's IEEE result (+-inf or NaN) where math.pow raises."""
    try:
        return math.pow(v, p)
    except (OverflowError, ValueError):
        with np.errstate(all="ignore"):
            return float(np.float64(v) ** p)


def _entries(M):
    """M, matrix axes first, as a view: m[i, j] is a scalar for one matrix, an array for a stack."""
    return M if M.ndim == 2 else M.transpose(-2, -1, *range(M.ndim - 2))


def from_entries(rows):
    """The matrix, or C-contiguous stack, whose (i, j) entry is rows[i][j] (scalars or arrays)."""
    M = np.array(rows)
    return M if M.ndim == 2 else np.ascontiguousarray(M.transpose(*range(2, M.ndim), 0, 1))


def transpose(M):
    """M^T of one matrix or a stack, C-contiguous: matmul gives a transposed view's bits, faster."""
    return np.ascontiguousarray(np.swapaxes(M, -2, -1))


def det_of_entries(m):
    """det by cofactor expansion along the first row, from the 4 or 9 row-major entries m[k].

    Python floats of one matrix round each step as numpy scalars do; arrays give a stack's dets.
    """
    if len(m) == 4:
        return m[0] * m[3] - m[1] * m[2]
    return (
        m[0] * (m[4] * m[8] - m[5] * m[7])
        - m[1] * (m[3] * m[8] - m[5] * m[6])
        + m[2] * (m[3] * m[7] - m[4] * m[6])
    )


def det(M):
    """Determinant of one matrix, an np.float64, or of each in a stack, with the same bits."""
    M = as_square(M, stack=True)
    n = M.shape[-1]
    return det_of_entries(M.reshape(-1, n * n).T).reshape(M.shape[:-2])[()]


def cofactor(M):
    """Cofactor matrix, Cof M = det(M) M^{-T} for invertible M; stacks allowed."""
    m = _entries(as_square(M, stack=True))
    if m.shape[0] == 2:
        rows = [[m[1, 1], -m[1, 0]], [-m[0, 1], m[0, 0]]]
    else:
        # the minor of the two rows and columns after (i, j), cyclically, carries the sign
        rows = [[m[(i + 1) % 3, (j + 1) % 3] * m[(i + 2) % 3, (j + 2) % 3]
                 - m[(i + 1) % 3, (j + 2) % 3] * m[(i + 2) % 3, (j + 1) % 3] for j in range(3)] for i in range(3)]
    return from_entries(rows)


def refuse_where(bad, message, *at, note=False):
    """Raise a ConfmechError at the first True entry of bad, a boolean scalar or stack, if it has one.

    The line is message % (the entry of each of at there): each of at that
    is an array holds one value or point per entry of bad, a scalar is a
    constant, and one value is given as a Python float, int or str.  With
    note, a stack's entry adds its index, " (matrix i of the stack)".  A
    Python bool, such as a plain float comparison gives, takes no numpy call.
    """
    if not (bad if type(bad) is bool else bad.any()):
        return
    bad = np.asarray(bad)
    i = int(np.argmax(bad))
    entries = [np.asarray(v).reshape(bad.size, -1)[i] if np.ndim(v) else np.asarray(v) for v in at]
    text = message % tuple(v.item() if v.size == 1 else v for v in entries)
    raise ConfmechError(text + (" (matrix %d of the stack)" % i if note and bad.ndim else ""))


# which compare as 0 and 1, where a count, a seed or a tolerance is meant
_BOOLS = (bool, np.bool_)


def require_count(n, name):
    """n as an int, refused unless it is an int (a float such as 2.0 is not, nor a bool) of at least 1."""
    ok = isinstance(n, numbers.Integral) and type(n) not in _BOOLS and n >= 1
    refuse_where(not ok, "%s must be an int of at least 1, got %r", name, n)
    return int(n)


def require_seed(seed, numpy=False):
    """seed as an int, refused unless it is an int (a float such as 2.0 is not, nor a bool); with numpy, >= 0.

    numpy's default_rng takes seeds >= 0 only, where the Lcg64 sampler takes any int.
    """
    ok = isinstance(seed, numbers.Integral) and type(seed) not in _BOOLS and not (numpy and seed < 0)
    refuse_where(not ok, "seed must be an int%s, got %r", " of at least 0" if numpy else "", seed)
    return int(seed)


def require_dim(dim):
    """Refuse a dim that is not the int 2 or 3 (a float such as 2.0 is not)."""
    ok = isinstance(dim, numbers.Integral) and dim in (2, 3)
    refuse_where(not ok, "dim must be the int 2 or 3, got %r", dim)


def require_tolerance(tol):
    """Refuse a tol that is not a real number (a str, None or a complex is not, nor a bool), finite and at least 0."""
    ok = isinstance(tol, numbers.Real) and type(tol) not in _BOOLS and 0.0 <= tol < math.inf
    refuse_where(not ok, "tol must be finite and at least 0, got %r", tol)


def require_broadcast(names, *shapes):
    """Refuse with one line stack shapes that do not broadcast together; names names their operands."""
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        shapes = ", ".join(map(str, shapes))
        raise ConfmechError("stacks of %s do not broadcast: shapes %s" % (names, shapes)) from None


def require_direction(F, H):
    """H as a matrix or stack, refused with one line unless it is F's size and its stack broadcasts with F's."""
    H = as_square(H, stack=True)
    refuse_where(H.shape[-1] != F.shape[-1], "direction H is %dx%d, F is %dx%d", *H.shape[-2:], *F.shape[-2:])
    require_broadcast("F and H", F.shape[:-2], H.shape[:-2])
    return H


def require_gl_plus(F):
    """Return det F, raising a ConfmechError outside the det band [1 / DET_CEILING, DET_CEILING].

    A det at or below 0, or NaN, is "not strictly positive", any other is
    "below" or "above" the band.  For a stack, the dets of all its matrices;
    the error names the first matrix whose det fails.  det past the float
    range, +inf included, warns of nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = det(F)
    inside = (d >= 1.0 / DET_CEILING) & (d <= DET_CEILING)
    if not inside.all():
        side = np.where(d > 1.0, "above %r" % DET_CEILING, "below %r" % (1.0 / DET_CEILING))
        side = np.where(d > 0.0, side, "not strictly positive")
        refuse_where(~inside, "det = %r is %s", d, side, note=True)
    return d


def sym(M):
    M = as_square(M, stack=True)
    return 0.5 * (M + np.swapaxes(M, -2, -1))


def dev(M):
    M = as_square(M, stack=True)
    n = M.shape[-1]
    return M - (np.trace(M, axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n)


def frobenius_norm(M):
    """||M||_F of one matrix (a float), or of each matrix of a stack."""
    M = as_square(M, stack=True)
    r = np.sqrt(inner(M, M))
    return float(r) if M.ndim == 2 else r


def inner(A, B):
    """Frobenius inner product <A, B> = tr(A^T B), of one pair or of each pair of two stacks.

    np.sum over the two matrix axes adds the n^2 products in the order
    np.sum takes for one matrix, so a stack gets the bits of each matrix alone.
    """
    return np.sum(np.asarray(A) * np.asarray(B), axis=(-2, -1))


def _polar(x, y):
    """|z| and z / |z| as (cos, sin), of z = x + i y or of stacks; (1, 0), its zero positive, where z = 0."""
    r = np.hypot(x, y)
    zero = r == 0.0
    r1 = np.where(zero, 1.0, r)
    return r, np.where(zero, 1.0, x / r1), np.where(zero, 0.0, y / r1)


def _split(F):
    """(_polar(c), _polar(a)) of a 2x2 F or stack, acting on z = x1 + i x2 as F z = c z + a conj(z).

    c = ((F11 + F22) + i (F21 - F12)) / 2 and a = ((F11 - F22) + i (F21 + F12)) / 2: the singular
    values are |c| +- |a|, and s - 1 = 2 |a| / (|c| - |a|) does not cancel next to the tie a = 0.
    """
    refuse_where(F.shape[-2:] != (2, 2), "expected a 2x2 matrix or stack, got shape %s", str(F.shape))
    f = _entries(F)
    c = _polar(0.5 * (f[0, 0] + f[1, 1]), 0.5 * (f[1, 0] - f[0, 1]))
    return c, _polar(0.5 * (f[0, 0] - f[1, 1]), 0.5 * (f[1, 0] + f[0, 1]))


def _half_turn(x, y):
    """The unit vector at half the angle in (-pi, pi] of (x, y) != 0: (r + x, y), or for x < 0 its parallel."""
    r = np.hypot(x, y)
    right = x >= 0.0
    hx = np.where(right, r + x, np.abs(y))
    hy = np.where(right, y, np.where(y < 0.0, x - r, r - x))  # no cancellation on either side
    return _polar(hx, hy)[1:]


def _rotation(x, y):
    """The rotation [[x, -y], [y, x]], one or a stack; 0.0 - y keeps a zero positive."""
    return from_entries([[x, 0.0 - y], [y, x]])


def _planar_svd(F):
    """(U, |c|, |a|, V) of F in GL+(2) or a stack: F = U diag(|c| + |a|, |c| - |a|) V^T.

    V turns by half the angle of a conj(c) and U by arg c more: with z = V w, F z = U (|c| w + |a| conj(w)).
    """
    (c, cx, cy), (a, ax, ay) = _split(F)
    require_gl_plus(F)
    vx, vy = _half_turn(ax * cx + ay * cy, ay * cx - ax * cy)
    return _rotation(*_polar(vx * cx - vy * cy, vy * cx + vx * cy)[1:]), c, a, _rotation(vx, vy)


def svd(F):
    """(U, s, V) with F = U diag(s) V^T, s = (|c| + |a|, |c| - |a|), of F in GL+(2) or a stack (..., 2, 2)."""
    U, c, a, V = _planar_svd(as_square(F, stack=True))
    return U, np.stack([c + a, c - a], axis=-1), V


def eig_sym(S):
    """Eigenvalues m +- |a|, m = tr S / 2, and eigenvector columns V of a symmetric 2x2 or stack.

    V turns by arg(a) / 2: at a tie a = 0 it is the identity, with positive zeros.
    """
    S = as_square(S, stack=True)
    _, (r, x, y) = _split(S)
    m = 0.5 * np.trace(S, axis1=-2, axis2=-1)
    return np.stack([m + r, m - r], axis=-1), _rotation(*_half_turn(x, y))


def conformality_residual(F):
    """|| F^T F / det(F)^{2/n} - id ||_F, zero exactly on CSO(n); a float, or an array for a stack."""
    F = as_square(F, stack=True)
    n = F.shape[-1]
    d = require_gl_plus(F)
    C = transpose(F) @ F
    return frobenius_norm(C / libm_pow(d, 2.0 / n)[..., None, None] - np.eye(n))
