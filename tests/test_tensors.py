"""Tensor utilities: determinants, eigen/SVD routines, distortion measures."""

import numpy as np
import pytest

import confmech as cm
from confmech.tensors import eig_sym


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
    assert np.allclose(cm.inverse(F) @ F, np.eye(2), atol=1e-14)
    assert np.allclose(cm.transpose_inverse(F), cm.inverse(F).T, atol=1e-15)


def test_gl_plus_guard():
    with pytest.raises(cm.NotInGLPlus):
        cm.singular_values(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(cm.NotInGLPlus):
        cm.singular_values(np.array([[1.0, 1.0], [1.0, 1.0]]))


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
    s = cm.singular_values(F)
    assert np.allclose(s, [2.0, 1.0])
    assert cm.operator_norm(F) == 2.0
    assert cm.frobenius_norm(F) == np.sqrt(5.0)
    # ties are not special-cased: duplicates allowed, descending order kept
    s_tie = cm.singular_values(1.5 * np.eye(3))
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
            F = cm.random_rotation(rng, dim) @ np.diag(graded) @ cm.random_rotation(rng, dim)
            s = cm.singular_values(F)
            assert np.all(np.abs(s - graded) <= 1e-5 * np.asarray(graded))
            lin_K = cm.distortions(F).lin_K
            assert np.isfinite(lin_K) and abs(lin_K - 1e9) <= 1e-5 * 1e9


def test_distortions_identity_and_diag():
    d_id = cm.distortions(np.eye(2))
    assert d_id.big_K == 1.0 and d_id.lin_K == 1.0
    assert d_id.conformality_residual == 0.0
    d = cm.distortions(np.diag([2.0, 1.0]))
    assert d.big_K == 1.25
    assert d.lin_K == 2.0


def test_distortions_scaled_rotation_is_conformal():
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    d = cm.distortions(4.0 * R)
    assert abs(d.big_K - 1.0) <= 1e-12
    assert abs(d.lin_K - 1.0) <= 1e-12
    assert d.conformality_residual <= 1e-12


def test_distortions_planar_identity_links_big_and_lin():
    rng = np.random.default_rng(3)
    for _ in range(200):
        F = cm.random_def_gradient(rng, 2, (0.2, 5.0))
        d = cm.distortions(F)
        expect = d.big_K + np.sqrt(max(d.big_K**2 - 1.0, 0.0))
        assert abs(d.lin_K - expect) <= 1e-10 * max(1.0, expect)


def test_distortions_lower_bounds():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        for _ in range(200):
            F = cm.random_def_gradient(rng, dim, (0.1, 10.0))
            d = cm.distortions(F)
            assert d.big_K >= 1.0 - 1e-12
            assert d.lin_K >= 1.0 - 1e-12


def test_conformality_residual_zero_iff_conformal():
    assert cm.conformality_residual(np.array([[1.0, -1.0], [1.0, 1.0]])) == 0.0
    r = cm.conformality_residual(np.diag([2.0, 1.0]))
    assert r > 0.1
    d = cm.distortions(np.diag([2.0, 1.0]))
    assert (d.conformality_residual <= 1e-12) == (abs(d.big_K - 1.0) <= 1e-12)
