"""Tensor utilities: determinants, eigen/SVD routines, distortion measures."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import confmech as cm
from confmech.tensors import eig_sym


def random_rotation(rng, dim):
    """A rotation from the draws of one rotation of random_def_gradient."""
    return cm.convexity._rotations(rng.uniform(0.0, 2.0 * np.pi, size=cm.convexity.ANGLES[dim]))


def jump_singular_values(F):
    """The singular values jump_check reports for F, the jump from the zero matrix."""
    return cm.jump_check(F, np.zeros_like(F)).difference_singular_values


def test_det_and_cofactor_2x2():
    F = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert cm.det(F) == 5.5
    C = cm.cofactor(F)
    # F Cof(F)^T = det(F) id
    assert np.allclose(F @ C.T, 5.5 * np.eye(2), atol=1e-14)


def test_det_and_cofactor_3x3():
    rng = np.random.default_rng(5)
    F = rng.standard_normal((3, 3))
    d = cm.det(F)
    assert abs(d - np.linalg.det(F)) <= 1e-12 * max(1.0, abs(d))
    C = cm.cofactor(F)
    assert np.allclose(F @ C.T, d * np.eye(3), atol=1e-12)


def test_inverse_and_transpose_inverse():
    F = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert np.allclose(cm.transpose_inverse(F), np.linalg.inv(F).T, atol=1e-15)


def test_transpose_inverse_refuses_a_singular_matrix():
    # |det| below 1 / DET_CEILING, the det band's floor, is singular; a negative det is not
    with pytest.raises(cm.ConfmechError, match=r"^matrix is numerically singular, det = 0\.0$"):
        cm.transpose_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(cm.ConfmechError, match=r"^matrix is numerically singular, det = 9\.9+7e-103$"):
        cm.transpose_inverse(np.stack([np.eye(3), 1e-34 * np.eye(3)]))
    assert np.array_equal(cm.transpose_inverse(np.diag([-2.0, 1.0])), np.diag([-0.5, 1.0]))


def test_gl_plus_guard():
    with pytest.raises(cm.ConfmechError, match=r"^det = -1\.0 is not strictly positive$"):
        cm.svd(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(cm.ConfmechError, match=r"^det = 0\.0 is not strictly positive$"):
        cm.svd(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_sym_dev_tr_decomposition():
    M = np.array([[1.0, 4.0], [-2.0, 3.0]])
    S = cm.sym(M)
    D = cm.dev(S)
    t = float(np.trace(M))
    assert np.allclose(S, 0.5 * (M + M.T))
    assert abs(np.trace(D)) <= 1e-15
    assert t == 4.0
    assert np.allclose(D + (t / 2.0) * np.eye(2), S)


def test_eig_sym_2_known_values():
    w, V = eig_sym(np.array([[2.0, 1.0], [1.0, 3.0]]))
    expect = np.array([(5.0 + np.sqrt(5.0)) / 2.0, (5.0 - np.sqrt(5.0)) / 2.0])
    assert np.allclose(w, expect, atol=1e-14)
    S = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(V @ np.diag(w) @ V.T, S, atol=1e-14)
    assert np.allclose(V.T @ V, np.eye(2), atol=1e-14)


def test_eig_sym_2_near_multiple_eigenvalue_is_stable():
    # a naive sqrt(mean^2 - det) half-gap loses half the digits here
    S = np.eye(2) + 1e-13 * np.array([[1.0, 0.5], [0.5, -1.0]])
    w, V = eig_sym(S)
    assert np.all(np.abs(w - 1.0) < 1e-12)
    assert np.allclose(V @ np.diag(w) @ V.T, S, atol=1e-15)


def test_eig_sym_dispatch():
    w2, _ = eig_sym(np.eye(2) * 3.0)
    assert np.allclose(w2, [3.0, 3.0])
    with pytest.raises(ValueError):
        eig_sym(np.eye(3) * 3.0)


def test_singular_values_and_operator_norm():
    F = np.diag([2.0, 1.0])
    s = jump_singular_values(F)
    assert np.allclose(s, [2.0, 1.0])
    assert s[0] == 2.0
    assert cm.frobenius_norm(F) == np.sqrt(5.0)
    # ties are not special-cased: duplicates allowed, descending order kept
    s_tie = jump_singular_values(1.5 * np.eye(3))
    assert s_tie[0] >= s_tie[1] >= s_tie[2]
    assert np.allclose(s_tie, 1.5)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        F = cm.random_def_gradient(rng, 2, (0.2, 5.0))
        U, s, V = cm.svd(F)
        assert np.allclose(U @ np.diag(s) @ V.T, F, atol=1e-11 * max(1.0, s[0]))
        assert np.allclose(U.T @ U, np.eye(2), atol=1e-12)
        assert np.allclose(V.T @ V, np.eye(2), atol=1e-12)
        assert s[0] >= s[-1] > 0
    with pytest.raises(ValueError):
        cm.svd(2.0 * np.eye(3))


def test_graded_singular_values_are_not_squared_away():
    # solving through F^T F would square 1e-9 below the rounding of 1, making lin_K inf
    rng = np.random.default_rng(31)
    for graded in ([1.0, 1e-9], [1.0, 1e-4, 1e-9]):
        dim = len(graded)
        for _ in range(20):
            F = random_rotation(rng, dim) @ np.diag(graded) @ random_rotation(rng, dim)
            s = jump_singular_values(F)
            assert np.all(np.abs(s - graded) <= 1e-5 * np.asarray(graded))
            lin_K = s[0] / s[-1]
            assert np.isfinite(lin_K) and abs(lin_K - 1e9) <= 1e-5 * 1e9


def test_closed_form_svd_of_graded_matrices():
    # sqrt of the small eigenvalue of F^T F squares 1e-9 into rounding: the
    # ratio energy read 1.8e16 (or inf, with a divide by zero) for 1e18
    rng = np.random.default_rng(32)
    E = cm.builtin_energy("iso2d-klin2")
    for _ in range(20):
        F = random_rotation(rng, 2) @ np.diag([1.0, 1e-9]) @ random_rotation(rng, 2)
        U, s, V = cm.svd(F)
        ref = np.linalg.svd(F, compute_uv=False)
        assert abs(s[1] - ref[1]) <= 1e-14 * ref[0]
        assert np.allclose(U @ np.diag(s) @ V.T, F, rtol=0.0, atol=1e-14)
        assert abs(E.value(F) - (ref[0] / ref[1]) ** 2) <= 1e-5 * 1e18


def test_distortions_planar_identity_links_big_and_lin():
    # the two builtin planar families agree: with K = ||F||^2 / (2 det F) from
    # iso2d-psi = K - 1 and s = lmax / lmin from iso2d-klin2 = s^2 - 1, s = K + sqrt(K^2 - 1)
    rng = np.random.default_rng(3)
    F = np.stack([cm.random_def_gradient(rng, 2, (0.2, 5.0)) for _ in range(200)])
    K = cm.builtin_energy("iso2d-psi").value(F) + 1.0
    s = np.sqrt(cm.builtin_energy("iso2d-klin2").value(F) + 1.0)
    assert np.all(K >= 1.0) and np.all(s >= 1.0)
    expect = K + np.sqrt(K * K - 1.0)
    assert np.all(np.abs(s - expect) <= 1e-12 * expect)


def test_conformality_residual_zero_iff_conformal():
    assert cm.conformality_residual(np.array([[1.0, -1.0], [1.0, 1.0]])) == 0.0
    r = cm.conformality_residual(np.diag([2.0, 1.0]))
    assert r > 0.1
    # K = ||F||^2 / (2 det F), the distortion of the iso2d-psi energy K - 1
    K = cm.builtin_energy("iso2d-psi").value(np.diag([2.0, 1.0])) + 1.0
    assert (r <= 1e-12) == (abs(K - 1.0) <= 1e-12)


@pytest.mark.parametrize("n_stack", [1, 257])
@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_det_cofactor_match_one_matrix_bits(dim, n_stack):
    rng = np.random.default_rng(40 + dim)
    F = np.stack([cm.random_def_gradient(rng, dim) for _ in range(n_stack)])
    d = cm.det(F)
    assert d.shape == (n_stack,)
    assert np.array_equal(d, [cm.det(f) for f in F])
    assert np.array_equal(cm.cofactor(F), [cm.cofactor(f) for f in F])
    assert np.array_equal(cm.tensors.require_gl_plus(F), d)


def test_stacked_gl_plus_guard_names_first_bad_matrix():
    F = np.stack([np.eye(3), np.diag([1.0, 1.0, -2.0]), -np.eye(3)])
    with pytest.raises(cm.ConfmechError, match=r"det = -2\.0 is not strictly positive \(matrix 1 "):
        cm.tensors.require_gl_plus(F)
    with pytest.raises(cm.ConfmechError, match="not strictly positive") as exc:
        cm.tensors.require_gl_plus(-np.eye(3))
    assert str(exc.value) == "det = -1.0 is not strictly positive"


def test_gl_plus_guard_refuses_a_det_above_the_ceiling_without_a_warning():
    # det 1e200 made iso3d's det^(5/3) raise OverflowError; det past the float
    # range (+inf, or NaN from inf - inf) raised "overflow" RuntimeWarnings
    F = np.stack([np.eye(2), np.diag([1e100, 1e100]), np.diag([1e200, 1e200])])
    with pytest.raises(cm.ConfmechError, match=r"det = 1e\+200 is above 1e\+100 \(matrix 1 "):
        cm.tensors.require_gl_plus(F)
    for big in (np.diag([1e200, 1e200]), np.full((3, 3), 1e200)):
        with pytest.raises(cm.ConfmechError, match=r"det = (inf|nan) "):
            cm.tensors.require_gl_plus(big)
    assert 0.0 < cm.tensors.require_gl_plus(np.diag([1e49, 1e49])) <= 1e100
    with pytest.raises(cm.ConfmechError, match="above 1e"):
        cm.builtin_energy("iso3d").cauchy_stress(np.diag([1e62, 1e62, 1e62]))


def test_gl_plus_guard_refuses_a_det_below_the_ceilings_reciprocal_without_a_warning():
    # below about 1e-162 (2D) and 1e-194 (3D) iso2d-psi's det^2 and iso3d's
    # det^(5/3) underflowed to 0, and cauchy_stress raised "divide by zero"
    F = np.stack([np.eye(2), np.diag([1e-50, 1e-50]), np.diag([0.5, 2e-150])])
    with pytest.raises(cm.ConfmechError, match=r"det = 1e-150 is below 1e-100 \(matrix 2 "):
        cm.tensors.require_gl_plus(F)
    for name, F in (("iso2d-psi", np.diag([1e-90, 1e-90])), ("iso3d", np.diag([1e-70, 1e-70, 1e-70]))):
        with pytest.raises(cm.ConfmechError, match="below 1e-100"):
            cm.builtin_energy(name).cauchy_stress(F)


def test_libm_pow_matches_scalar_power_bits():
    # the scalar a ** p is libm's pow; an array np.power may take a SIMD route
    a = np.random.default_rng(41).uniform(0.5, 6.0, 5000)
    for p in (2.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 3.0, -3.0):
        assert np.array_equal(cm.tensors.libm_pow(a, p), [float(v) ** p for v in a])
    assert cm.tensors.libm_pow(2.0, 0.5) == 2.0**0.5


@pytest.mark.filterwarnings("error")
def test_libm_pow_gives_ieee_results_where_math_pow_raises():
    # math.pow raised OverflowError past the float range and ValueError at a pole or a
    # negative base with a fractional p; those elements take C's pow, the others keep their bits
    pow_ = cm.tensors.libm_pow
    a = np.array([1e200, -1e200, 1.5, -2.0])
    assert pow_(a, 3.0).tolist() == [np.inf, -np.inf, 1.5**3.0, -8.0]
    assert pow_(np.array([0.0, -0.0, 4.0]), -1.0).tolist() == [np.inf, -np.inf, 0.25]
    assert np.isnan(pow_(-2.0, 0.5)) and pow_(np.array([-2.0, 4.0]), 0.5)[1] == 2.0
    assert pow_(1e300, 2.0) == np.inf


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def svd_cases(rng):
    """GL+(2) matrices for both eig_sym branches, ties (r == 0) and graded singular values."""
    cases = [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]  # d > 0, d < 0
    cases += [a * np.eye(2) for a in (0.5, 3.0)] + [np.array([[0.0, -2.0], [2.0, 0.0]])]  # r == 0
    cases += [a * rotation(t) for a, t in zip(rng.uniform(0.2, 5.0, 20), rng.uniform(-3, 3, 20))]
    cases += [cm.random_def_gradient(rng, 2, (0.2, 5.0)) for _ in range(100)]
    for grade in (1e-2, 1e-4, 1e-6):
        cases += [rotation(t) @ np.diag([1.0, grade]) @ rotation(u) for t, u in rng.uniform(-3, 3, (10, 2))]
    return np.stack(cases)


def test_stacked_eig_sym_and_svd_match_one_matrix_bits():
    F = svd_cases(np.random.default_rng(60))
    C = np.swapaxes(F, -2, -1) @ F
    gap = C[:, 0, 0] - C[:, 1, 1]
    assert np.any(gap > 0.0) and np.any(gap < 0.0)
    w, V = eig_sym(C)
    assert w.shape == (len(F), 2) and V.shape == (len(F), 2, 2)
    U, s, W = cm.svd(F)
    for i, (f, c) in enumerate(zip(F, C)):
        assert bits(w[i]) + bits(V[i]) == b"".join(map(bits, eig_sym(c)))
        assert bits(U[i]) + bits(s[i]) + bits(W[i]) == b"".join(map(bits, cm.svd(f)))
    # r == 0: the identity frame, with positive zeros
    ties = np.abs(gap) + np.abs(C[:, 0, 1]) == 0.0
    assert ties.sum() == 3 and bits(V[ties]) == bits(np.broadcast_to(np.eye(2), V[ties].shape))
    with pytest.raises(ValueError):
        eig_sym(np.stack([np.eye(3)] * 2))


@st.composite
def gl_plus_2(draw):
    """a R(t) (id + gap M): exact ties at gap 0, near-ties at small gaps."""
    scale = draw(st.floats(0.1, 10.0))
    angle = draw(st.floats(-np.pi, np.pi))
    gap = draw(st.one_of(st.just(0.0), st.floats(-16.0, 0.0).map(lambda k: 10.0**k)))
    M = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))).reshape(2, 2)
    F = scale * rotation(angle) @ (np.eye(2) + gap * M)
    assume(cm.det(F) > 1e-2 * scale * scale)
    return F


@st.composite
def graded_gl_plus_2(draw):
    """a R(t) diag(1, g) R(u), 1e-12 <= g <= 1e-5: s2 = det F / s1, as below w2 = 1e-8 w1."""
    scale = draw(st.floats(0.1, 10.0))
    t, u = draw(st.floats(-np.pi, np.pi)), draw(st.floats(-np.pi, np.pi))
    F = scale * rotation(t) @ np.diag([1.0, 10.0 ** draw(st.floats(-12.0, -5.0))]) @ rotation(u)
    assume(cm.det(F) > 0.0)
    return F


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.one_of(gl_plus_2(), graded_gl_plus_2()), min_size=1, max_size=6))
def test_stacked_svd_properties_on_gl_plus(matrices):
    F = np.stack(matrices)
    U, s, V = cm.svd(F)
    # the singular-values step alone, on both sides of the w2 < 1e-8 w1 switch
    assert bits(cm.tensors._singular_values(F)[0]) == bits(s)
    for i, f in enumerate(F):
        assert abs(s[i, 1] - np.linalg.svd(f, compute_uv=False)[1]) <= 1e-11 * s[i, 0]
        assert bits(U[i]) + bits(s[i]) + bits(V[i]) == b"".join(map(bits, cm.svd(f)))
        assert bits(cm.tensors._singular_values(f)[0]) == bits(s[i])
        assert np.allclose(U[i].T @ U[i], np.eye(2), rtol=0.0, atol=1e-14)
        assert np.allclose(V[i].T @ V[i], np.eye(2), rtol=0.0, atol=1e-14)
        assert np.allclose(U[i] @ np.diag(s[i]) @ V[i].T, f, rtol=0.0, atol=1e-12 * s[i, 0])
        assert s[i, 0] >= s[i, 1] > 0.0


def transpose_cases(rng, dim, n=2000):
    """Random, graded (1e-12 <= g <= 1e-5) and near-tie stacks of dim x dim matrices."""

    def rotations():
        return cm.convexity._rotations(rng.uniform(0.0, 2.0 * np.pi, (n, 1 if dim == 2 else 3)))

    grades = 10.0 ** rng.uniform(-12.0, -5.0, (n, dim))
    grades[:, 0] = 1.0
    graded = rotations() @ (grades[:, None, :] * np.eye(dim)) @ rotations()
    gaps = 10.0 ** rng.uniform(-16.0, -8.0, (n, 1, 1))
    near = rng.uniform(0.2, 5.0, (n, 1, 1)) * rotations() @ (np.eye(dim) + gaps * rng.normal(size=(n, dim, dim)))
    return np.concatenate([rng.normal(size=(n, dim, dim)), graded, near])


@pytest.mark.parametrize("dim", [2, 3])
def test_contiguous_transpose_keeps_the_matmul_bits(dim):
    # matmul on a transposed view takes slower BLAS routes than on a copy;
    # the products must not change a bit for the copy
    rng = np.random.default_rng(70 + dim)
    F = transpose_cases(rng, dim)
    H = transpose_cases(rng, dim)
    A = np.roll(F, 1, axis=0)
    T = cm.tensors.transpose
    assert T(F).flags.c_contiguous and np.array_equal(T(F), np.swapaxes(F, -2, -1))
    # the stacks, then one matrix at a time (a 2D matmul) of each kind
    for f, h, a in [(F, H, A)] + [(F[i], H[i], A[i]) for i in range(0, len(F), 20)]:
        assert bits(T(f) @ f) == bits(np.swapaxes(f, -2, -1) @ f)
        assert bits(f @ T(f)) == bits(f @ np.swapaxes(f, -2, -1))
        assert bits(a @ T(h) @ a) == bits(a @ np.swapaxes(h, -2, -1) @ a)


@pytest.mark.parametrize("dim", [2, 3])
def test_det_of_one_matrix_is_an_np_float64_with_the_bits_of_python_floats(dim):
    # det takes det_of_entries on arrays alone; jump_check takes it on Python floats
    rng = np.random.default_rng(50 + dim)
    for F in [cm.random_def_gradient(rng, dim) for _ in range(200)] + [np.eye(dim)]:
        d = cm.det(F)
        assert type(d) is np.float64
        assert d == cm.tensors.det_of_entries(F.ravel().tolist())
