"""Small-matrix algebra for 2x2 and 3x3 matrices, one at a time or in stacks.

Determinants and cofactors are written out entry by entry on the matrix
axes moved to the front, so they take one matrix or a stack of shape
(..., n, n) alike, with scalar arithmetic for one matrix.
The planar ratio energy takes its singular values from a closed-form 2x2
route (_singular_values, svd) whose arithmetic pins field CSV bytes;
elsewhere from numpy's SVD of the matrix itself (jump_check), never from
M^T M, which would square the small ones away.  The 2x2 routes take one
matrix or a stack (..., 2, 2) in one body: branches go through np.where,
products through stacked matmuls on C-contiguous operands and dots through
vecdot, so each matrix of a stack gets the bits it gets alone.

Powers of stacks go through libm_pow, one libm call per element: a stack
then gives the bits that a scalar power of each element gives.  Inner
products, norms and the conformality residual sum over the two matrix
axes, which adds each matrix's entries in the order np.sum takes for one.
"""

import math

import numpy as np

from .exceptions import ConfmechError, NotInGLPlus

# dets at or below this are treated as non-positive; no clamping anywhere
DET_FLOOR = 1e-300
# dets above this or below its reciprocal are refused: the energies' powers of
# det F, up to det^2, neither overflow nor underflow
DET_CEILING = 1e100
SMALLEST_NORMAL = 2.0**-1022


def as_square(M, stack=False):
    """M as a float 2x2 or 3x3 matrix, or with stack=True as a stack (..., n, n) of them."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] not in ((2, 2), (3, 3)) or (M.ndim > 2 and not stack):
        raise ValueError("expected a 2x2 or 3x3 matrix, got shape %s" % (M.shape,))
    return M


def libm_pow(a, p):
    """a ** p element by element through libm pow, as a scalar power computes it.

    numpy's array power takes a SIMD route on AVX-512 hosts that differs
    from libm in the last bit on about 5 % of inputs, and its a ** 2 is
    a * a, which differs from pow(a, 2) on about 1 in 1000.  Stacked
    formulas therefore take every power from here.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist()
    return np.fromiter(map(math.pow, flat, [p] * len(flat)), float, len(flat)).reshape(a.shape)[()]


def first_true(mask):
    """Index of the first True entry of a boolean scalar or array, or None if none is."""
    if not mask.any():
        return None
    return int(np.argmax(mask))


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


def det(M):
    """Determinant by cofactor expansion, of one matrix or of each in a stack."""
    m = _entries(as_square(M, stack=True))
    if m.shape[0] == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


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


def _stack_note(a, i):
    """Where entry i of a, one value per matrix, sits: nothing for one matrix."""
    return " (matrix %d of the stack)" % i if np.ndim(a) else ""


def require_gl_plus(F):
    """Return det F, raising NotInGLPlus when it is not strictly positive.

    For a stack, the dets of all its matrices; the error names the first
    matrix whose det fails.  A det above DET_CEILING, +inf included, or
    below its reciprocal is refused with a ConfmechError; det past the
    float range warns of nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = det(F)
    i = first_true(~(d > DET_FLOOR))
    if i is not None:
        raise NotInGLPlus(
            "det = %r is not strictly positive%s" % (float(np.ravel(d)[i]), _stack_note(d, i))
        )
    i = first_true((d < 1.0 / DET_CEILING) | (d > DET_CEILING))  # NaN failed above
    if i is not None:
        at = float(np.ravel(d)[i])
        side = (at, "above", DET_CEILING) if at > 1.0 else (at, "below", 1.0 / DET_CEILING)
        raise ConfmechError("det = %r is %s %r%s" % (*side, _stack_note(d, i)))
    return d


def transpose_inverse(F):
    """F^{-T} = Cof(F) / det(F), of one matrix or of each in a stack."""
    F = as_square(F, stack=True)
    d = det(F)
    i = first_true(np.abs(d) <= DET_FLOOR)
    if i is not None:
        raise NotInGLPlus("matrix is numerically singular, det = %r" % (float(np.ravel(d)[i]),))
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
        raise ValueError("eig_sym takes 2x2 matrices, got shape %s" % (S.shape,))
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
    r = np.sqrt(np.sum((C / libm_pow(d, 2.0 / n)[..., None, None] - np.eye(n)) ** 2, axis=(-2, -1)))
    return float(r) if F.ndim == 2 else r
