"""Linearized picture: quadratic energies, the rigid+conformal kernel, Taylor check."""

import numpy as np
import pytest

import confmech as cm
from confmech.tensors import dev, sym


def test_w_lin_2d_values():
    G = np.array([[1.0, 0.5], [0.5, -1.0]])  # already symmetric, trace free
    assert abs(cm.w_lin_2d(G) - float(np.sum(G * G))) <= 1e-14
    # pure spin and pure dilation carry no planar energy
    assert cm.w_lin_2d(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 0.0
    assert cm.w_lin_2d(np.eye(2)) == 0.0


def test_sigma_lin_is_deviatoric_symmetric_gradient():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((2, 2))
    assert np.array_equal(cm.sigma_lin(G), 2.0 * dev(sym(G)))


def test_kernel_displacement_closed_form_point():
    k = cm.KernelDisplacement(beta=1.5, gamma=-0.25, p_hat=0.75, spin=0.5, b_hat=(0.3, -0.2))
    assert np.allclose(k.w, [0.25, 1.5])
    u, G = cm.kernel_displacement(k, np.array([0.4, -0.7]))
    assert np.allclose(u, [-0.21125, -0.7475], atol=1e-15)
    assert np.allclose(G, [[-0.2, 1.275], [-1.275, -0.2]], atol=1e-14)


def test_kernel_displacement_stacks_match_one_point_bits():
    rng = np.random.default_rng(8)
    draws = rng.uniform(-2.0, 2.0, size=(257, 8))
    k = cm.KernelDisplacement(*draws[:, :4].T, b_hat=draws[:, 4:6])
    u, G = cm.kernel_displacement(k, draws[:, 6:])
    for i, row in enumerate(draws):
        ki = cm.KernelDisplacement(*row[:4], b_hat=row[4:6])
        ui, Gi = cm.kernel_displacement(ki, row[6:])
        assert np.array_equal(u[i], ui) and np.array_equal(G[i], Gi)
    # one field at a stack of points
    k1 = cm.KernelDisplacement(1.0, -0.5, 0.25, 2.0, (0.0, 0.0))
    u1, _ = cm.kernel_displacement(k1, draws[:, 6:])
    assert np.array_equal(u1, [cm.kernel_displacement(k1, x)[0] for x in draws[:, 6:]])
    with pytest.raises(ValueError):
        cm.KernelDisplacement(0.0, 0.0, 0.0, np.zeros(3), b_hat=np.zeros((3, 3)))


def test_kernel_gradient_structure():
    # grad u = <w, x> id + x (x) w - w (x) x + p id + A for every parameter set
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = cm.KernelDisplacement(
            beta=rng.uniform(-2, 2),
            gamma=rng.uniform(-2, 2),
            p_hat=rng.uniform(-2, 2),
            spin=rng.uniform(-2, 2),
            b_hat=rng.uniform(-2, 2, size=2),
        )
        x = rng.uniform(-1.5, 1.5, size=2)
        u, G = cm.kernel_displacement(k, x)
        D = dev(sym(G))
        assert np.max(np.abs(D)) <= 1e-12
        assert np.max(np.abs(cm.sigma_lin(G))) <= 1e-12
        assert cm.w_lin_2d(G) <= 1e-12


def test_kernel_gradient_matches_fd():
    k = cm.KernelDisplacement(0.8, 0.3, -0.4, 1.2, (0.1, 0.9))
    x0 = np.array([0.6, -0.2])
    _, G = cm.kernel_displacement(k, x0)
    h = 1e-6
    Gfd = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        up, _ = cm.kernel_displacement(k, x0 + step)
        um, _ = cm.kernel_displacement(k, x0 - step)
        Gfd[:, j] = (up - um) / (2.0 * h)
    assert np.max(np.abs(G - Gfd)) <= 1e-8


def test_conformal_quadratic_approx_coefficients():
    q = cm.conformal_quadratic_approx()
    assert np.array_equal(q.w, [16.0, 0.0])
    assert q.p_hat == -13.0
    assert np.array_equal(q.b_hat, [6.0, 0.0])
    assert q.spin == 0.0


def test_quadratic_approx_exact_at_expansion_point():
    q = cm.conformal_quadratic_approx()
    x0 = np.array([0.5, 0.0])
    phi = cm.InversionFlip(2)
    approx = x0 + cm.kernel_displacement(q, x0)[0]
    assert np.all(approx == phi(x0))  # (2, 0) exactly, no tolerance


def test_quadratic_approx_is_a_kernel_member():
    q = cm.conformal_quadratic_approx()
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.array([0.5, 0.0]) + 0.15 * rng.uniform(-1.0, 1.0, size=2)
        u, G = cm.kernel_displacement(q, x)
        # u = (1/2)[2<w,x>x - w|x|^2] + p x + b with w = (16, 0), p = -13, b = (6, 0)
        w = np.array([16.0, 0.0])
        expect = 0.5 * (2.0 * (w @ x) * x - w * (x @ x)) - 13.0 * x + np.array([6.0, 0.0])
        assert np.allclose(u, expect, atol=1e-13)
        assert np.max(np.abs(dev(sym(G)))) <= 1e-12


def test_quadratic_approx_error_small_on_disk():
    err = cm.quadratic_approx_error()
    assert err <= 0.08
    # the error is genuinely quadratic-small, not zero
    assert err > 1e-4
    tighter = cm.quadratic_approx_error(radius=0.05)
    assert tighter < err


def test_quadratic_approx_error_deterministic():
    assert cm.quadratic_approx_error() == cm.quadratic_approx_error()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [np.nan, np.inf, -0.1, 0.5])
def test_quadratic_approx_error_refuses_a_disk_off_its_rule(radius):
    # a NaN radius returned nan; from 0.5 on the disk reaches the map's singular origin
    with pytest.raises(cm.ConfmechError, match=r"^radius must be at least 0 and below 0\.5, got "):
        cm.quadratic_approx_error(radius=radius)
    assert cm.quadratic_approx_error(radius=0.0) == 0.0
