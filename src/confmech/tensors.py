"""Closed-form algebra for 2x2 and 3x3 matrices.

Everything here is written out entry by entry so results are deterministic
and independent of LAPACK: cofactor-expansion determinants, a stable
closed-form symmetric 2x2 eigensolver, and a cyclic Jacobi sweep for
symmetric 3x3 matrices (eigenvalue accumulation with a hard sweep cap).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NotInGLPlus

# dets at or below this are treated as non-positive; no clamping anywhere
DET_FLOOR = 1e-300

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 50


def as_square(M):
    M = np.asarray(M, dtype=float)
    if M.shape not in ((2, 2), (3, 3)):
        raise ValueError("expected a 2x2 or 3x3 matrix, got shape %s" % (M.shape,))
    return M


def det(M):
    """Determinant by cofactor expansion."""
    M = as_square(M)
    if M.shape[0] == 2:
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def cofactor(M):
    """Cofactor matrix, Cof M = det(M) M^{-T} for invertible M."""
    M = as_square(M)
    if M.shape[0] == 2:
        return np.array([[M[1, 1], -M[1, 0]], [-M[0, 1], M[0, 0]]])
    return np.array(
        [
            [
                M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1],
                -(M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0]),
                M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0],
            ],
            [
                -(M[0, 1] * M[2, 2] - M[0, 2] * M[2, 1]),
                M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0],
                -(M[0, 0] * M[2, 1] - M[0, 1] * M[2, 0]),
            ],
            [
                M[0, 1] * M[1, 2] - M[0, 2] * M[1, 1],
                -(M[0, 0] * M[1, 2] - M[0, 2] * M[1, 0]),
                M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0],
            ],
        ]
    )


def require_gl_plus(F):
    """Return det F, raising NotInGLPlus when it is not strictly positive."""
    d = det(F)
    if not d > DET_FLOOR:
        raise NotInGLPlus("det = %r is not strictly positive" % (d,))
    return d


def inverse(M):
    d = det(M)
    if abs(d) <= DET_FLOOR:
        raise NotInGLPlus("matrix is numerically singular, det = %r" % (d,))
    return cofactor(M).T / d


def transpose_inverse(F):
    """F^{-T} = Cof(F) / det(F)."""
    d = det(F)
    if abs(d) <= DET_FLOOR:
        raise NotInGLPlus("matrix is numerically singular, det = %r" % (d,))
    return cofactor(F) / d


def sym(M):
    M = as_square(M)
    return 0.5 * (M + M.T)


def dev(M):
    M = as_square(M)
    n = M.shape[0]
    return M - (np.trace(M) / n) * np.eye(n)


def frobenius_norm(M):
    M = as_square(M)
    return float(np.sqrt(np.sum(M * M)))


def inner(A, B):
    """Frobenius inner product <A, B> = tr(A^T B)."""
    return float(np.sum(np.asarray(A) * np.asarray(B)))


def eig_sym_2(S):
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric 2x2.

    The half-gap is computed as hypot((a-c)/2, b), never via m^2 - det: the
    difference form cancels catastrophically for near-multiples of the
    identity, which is exactly the regime the conformality checks live in.
    """
    a = S[0, 0]
    c = S[1, 1]
    b = 0.5 * (S[0, 1] + S[1, 0])
    m = 0.5 * (a + c)
    d = 0.5 * (a - c)
    r = np.hypot(d, b)
    w = np.array([m + r, m - r])
    if r == 0.0:
        return w, np.eye(2)
    # pick the larger-norm solution of (S - w1 I) v = 0 for stability
    if d >= 0.0:
        v1 = np.array([d + r, b])
    else:
        v1 = np.array([b, r - d])
    nrm = np.hypot(v1[0], v1[1])
    if nrm == 0.0:
        return w, np.eye(2)
    v1 = v1 / nrm
    V = np.column_stack([v1, np.array([-v1[1], v1[0]])])
    return w, V


def eig_sym_3(S, tol=JACOBI_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi for a symmetric 3x3: eigenvalues descending, vectors in columns."""
    A = 0.5 * (S + S.T)
    V = np.eye(3)
    scale = max(1.0, float(np.sqrt(np.sum(A * A))))
    for _ in range(max_sweeps):
        off = np.sqrt(A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2)
        if off < tol * scale:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = A[p, q]
            if apq == 0.0:
                continue
            tau = (A[q, q] - A[p, p]) / (2.0 * apq)
            t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0.0 else 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            R = np.eye(3)
            R[p, p] = c
            R[q, q] = c
            R[p, q] = s
            R[q, p] = -s
            A = R.T @ A @ R
            A = 0.5 * (A + A.T)
            V = V @ R
    w = np.diag(A).copy()
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def eig_sym(S):
    S = as_square(S)
    return eig_sym_2(S) if S.shape[0] == 2 else eig_sym_3(S)


def _semi_axes(M):
    """Singular values of an arbitrary square matrix, descending (zeros allowed)."""
    M = as_square(M)
    w, _ = eig_sym(M.T @ M)
    return np.sqrt(np.maximum(w, 0.0))


def singular_values(F):
    """Singular values of F in GL+, descending. Raises NotInGLPlus otherwise."""
    F = as_square(F)
    require_gl_plus(F)
    return _semi_axes(F)


def operator_norm(M):
    return float(_semi_axes(M)[0])


def svd(F):
    """Deterministic SVD of F in GL+: returns (U, s, V) with F = U diag(s) V^T.

    Built on the symmetric eigensolvers above: V from F^T F, then U = F V / s.
    U is re-orthonormalized by Gram-Schmidt, which matters only when the
    singular values are strongly graded.
    """
    F = as_square(F)
    require_gl_plus(F)
    w, V = eig_sym(F.T @ F)
    s = np.sqrt(np.maximum(w, 0.0))
    U = (F @ V) / s
    for j in range(U.shape[1]):
        for k in range(j):
            U[:, j] -= (U[:, k] @ U[:, j]) * U[:, k]
        U[:, j] /= np.sqrt(U[:, j] @ U[:, j])
    return U, s, V


def conformality_residual(F):
    """|| F^T F / det(F)^{2/n} - id ||_F, zero exactly on CSO(n)."""
    F = as_square(F)
    n = F.shape[0]
    d = require_gl_plus(F)
    C = F.T @ F
    return float(np.sqrt(np.sum((C / d ** (2.0 / n) - np.eye(n)) ** 2)))


@dataclass(frozen=True)
class DistortionReport:
    big_K: float  # ||F||^2 / (n det^{2/n}); equals  ||F||^2 / (2 det)  for n = 2
    lin_K: float  # lambda_max / lambda_min; equals opnorm^2 / det for n = 2
    conformality_residual: float


def distortions(F):
    """Distortion measures of F in GL+. Both K's are >= 1, = 1 exactly on CSO(n)."""
    F = as_square(F)
    n = F.shape[0]
    d = require_gl_plus(F)
    big = float(np.sum(F * F) / (n * d ** (2.0 / n)))
    s = _semi_axes(F)
    return DistortionReport(
        big_K=big,
        lin_K=float(s[0] / s[-1]),
        conformality_residual=conformality_residual(F),
    )
