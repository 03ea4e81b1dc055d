"""Small-matrix algebra for 2x2 and 3x3 matrices, one at a time or in stacks.

Determinants and cofactors are written out entry by entry on the matrix
axes moved to the front, so they take one matrix or a stack of shape
(..., n, n) alike.  det_of_entries is the one det formula: det takes it in
arrays, on one matrix as on a stack, and jump_check in Python floats on
the entries it has already unpacked.
The planar ratio energy takes its singular values from a closed-form 2x2
route (_singular_values, svd) whose arithmetic pins field CSV bytes;
elsewhere from LAPACK's SVD of the matrix itself (jump_check calls the
gufunc behind np.linalg.svd directly), never from M^T M, which would
square the small ones away.  The 2x2 routes take one
matrix or a stack (..., 2, 2) in one body: branches go through np.where,
products through stacked matmuls on C-contiguous operands and dots through
vecdot, so each matrix of a stack gets the bits it gets alone.

GL+ is taken as the det band [1 / DET_CEILING, DET_CEILING]: require_gl_plus
refuses a det outside it, the line scan leaves GL+ there, and transpose_inverse
takes |det| below it as singular.
refuse_where raises the library's refusals at the first failing entry of a
stack, and those of the count rule (require_count), the seed rule
(require_seed), the tolerance rule (require_tolerance) and the dimension
rule (require_dim) of the entry points that take a count, a seed, a
tolerance or a dimension.

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
SMALLEST_NORMAL = 2.0**-1022


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
        rows = [
            [
                m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
                -(m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0]),
                m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0],
            ],
            [
                -(m[0, 1] * m[2, 2] - m[0, 2] * m[2, 1]),
                m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
                -(m[0, 0] * m[2, 1] - m[0, 1] * m[2, 0]),
            ],
            [
                m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
                -(m[0, 0] * m[1, 2] - m[0, 2] * m[1, 0]),
                m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0],
            ],
        ]
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


def require_count(n, name):
    """n as an int, refused unless it is an int (a float such as 2.0 is not) of at least 1."""
    ok = isinstance(n, numbers.Integral) and n >= 1
    refuse_where(not ok, "%s must be an int of at least 1, got %r", name, n)
    return int(n)


def require_seed(seed, numpy=False):
    """seed as an int, refused unless it is an int (a float such as 2.0 is not); with numpy, of at least 0.

    numpy's default_rng takes seeds >= 0 only, where the Lcg64 sampler takes any int.
    """
    ok = isinstance(seed, numbers.Integral) and not (numpy and seed < 0)
    refuse_where(not ok, "seed must be an int%s, got %r", " of at least 0" if numpy else "", seed)
    return int(seed)


def require_dim(dim):
    """Refuse a dim that is not the int 2 or 3 (a float such as 2.0 is not)."""
    ok = isinstance(dim, numbers.Integral) and dim in (2, 3)
    refuse_where(not ok, "dim must be the int 2 or 3, got %r", dim)


def require_tolerance(tol):
    """Refuse a tol that is not finite and at least 0, by one float comparison."""
    refuse_where(not 0.0 <= tol < math.inf, "tol must be finite and at least 0, got %r", tol)


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


def transpose_inverse(F):
    """F^{-T} = Cof(F) / det(F), of one matrix or each in a stack; singular if |det| < 1 / DET_CEILING."""
    F = as_square(F, stack=True)
    d = det(F)
    refuse_where(np.abs(d) < 1.0 / DET_CEILING, "matrix is numerically singular, det = %r", d)
    return cofactor(F) / d[..., None, None]


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


def _eigenvalues(S):
    """Descending eigenvalues w (..., 2) of a symmetric 2x2 S or stack, and its half-gap (d, b, r)."""
    s = _entries(S)
    m, d, b = 0.5 * (s[0, 0] + s[1, 1]), 0.5 * (s[0, 0] - s[1, 1]), 0.5 * (s[0, 1] + s[1, 0])
    r = np.hypot(d, b)  # never sqrt(m^2 - det), which cancels near multiples of the identity
    return np.stack([m + r, m - r], axis=-1), (d, b, r)


def _eigenvectors(d, b, r):
    """The orthonormal eigenvectors, as columns, of the symmetric 2x2 with half-gap (d, b, r)."""
    # pick the larger-norm solution (x, y) of (S - w1 I) v = 0 for stability;
    # it is (0, 0) exactly when r == 0, and V is then the identity
    tie = r == 0.0
    x = np.where(d >= 0.0, d + r, b)
    y = np.where(d >= 0.0, b, r - d)
    # hypot keeps few digits of subnormal x and y (an off-diagonal of rounding
    # size at a near-tie); scaling both by 2^600 is exact and keeps V orthonormal
    up = np.where(r < SMALLEST_NORMAL, 2.0**600, 1.0)
    x, y = x * up, y * up
    nrm = np.where(tie, 1.0, np.hypot(x, y))
    x = np.where(tie, 1.0, x / nrm)
    y = y / nrm
    return from_entries([[x, np.where(tie, 0.0, -y)], [np.where(tie, 0.0, y), x]])


def eig_sym(S):
    """Descending eigenvalues w and orthonormal eigenvector columns V of a symmetric 2x2 or stack."""
    S = np.asarray(S, dtype=float)
    if S.shape[-2:] != (2, 2):
        raise ConfmechError("eig_sym takes 2x2 matrices, got shape %s" % (S.shape,))
    w, gap = _eigenvalues(S)
    return w, _eigenvectors(*gap)


def _singular_values(F):
    """Descending singular values s (..., 2) of a float F in GL+(2) or stack, and F^T F's half-gap."""
    d = require_gl_plus(F)
    w, gap = _eigenvalues(transpose(F) @ F)
    s = np.sqrt(np.maximum(w, 0.0))
    # where w2 < 1e-8 w1, sqrt(w2) holds the rounding of w1 more than s2: s2 = det F / s1
    s[..., 1] = np.where(w[..., 1] < 1e-8 * w[..., 0], d / s[..., 0], s[..., 1])
    return s, gap


def svd(F):
    """Deterministic SVD of F in GL+(2), or of each matrix of a stack (..., 2, 2).

    Returns (U, s, V) with F = U diag(s) V^T: s from _singular_values, V the
    eigenvectors of F^T F, U = F V / s re-orthonormalized by Gram-Schmidt,
    which matters only when the singular values are strongly graded.
    """
    F = as_square(F, stack=True)
    s, gap = _singular_values(F)
    V = _eigenvectors(*gap)
    U = (F @ V) / s[..., None, :]
    u0, u1 = U[..., :, 0], U[..., :, 1]  # views: Gram-Schmidt writes into U
    u0 /= np.sqrt(np.vecdot(u0, u0))[..., None]
    u1 -= np.vecdot(u0, u1)[..., None] * u0
    u1 /= np.sqrt(np.vecdot(u1, u1))[..., None]
    return U, s, V


def conformality_residual(F):
    """|| F^T F / det(F)^{2/n} - id ||_F, zero exactly on CSO(n); a float, or an array for a stack."""
    F = as_square(F, stack=True)
    n = F.shape[-1]
    d = require_gl_plus(F)
    C = transpose(F) @ F
    return frobenius_norm(C / libm_pow(d, 2.0 / n)[..., None, None] - np.eye(n))
