"""Conformal maps: reflections, Moebius compositions, the inversion-flip maps."""

import numpy as np
import pytest

import confmech as cm


def test_inversion_flip_2d_point_values():
    phi = cm.InversionFlip(2)
    assert np.allclose(phi(np.array([0.5, 0.0])), [2.0, 0.0])
    # x -> (x1, -x2)/|x|^2, here |x|^2 = 0.25
    assert np.allclose(phi(np.array([0.3, -0.4])), [1.2, 1.6])


def test_inversion_flip_2d_gradient_closed_form():
    phi = cm.InversionFlip(2)
    x = np.array([0.5, 0.0])
    G = phi.gradient(x)
    assert np.allclose(G, [[-4.0, 0.0], [0.0, -4.0]], atol=1e-14)
    assert abs(cm.det(G) - 16.0) <= 1e-12
    x2 = np.array([0.3, -0.4])
    G2 = phi.gradient(x2)
    assert np.allclose(G2, [[1.12, 3.84], [-3.84, 1.12]], atol=1e-12)
    assert abs(cm.det(G2) - 16.0) <= 1e-10


def test_inversion_flip_gradient_matches_fd():
    rng = np.random.default_rng(2)
    for dim in (2, 3):
        phi = cm.InversionFlip(dim)
        for _ in range(25):
            x = rng.uniform(0.3, 1.2, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            G = phi.gradient(x)
            Gfd = cm.fd_gradient(phi, x)
            assert np.max(np.abs(G - Gfd)) <= 1e-6 * max(1.0, np.max(np.abs(G)))


def test_inversion_flip_det_power_laws():
    rng = np.random.default_rng(4)
    phi2, phi3 = cm.InversionFlip(2), cm.InversionFlip(3)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=2)
        if np.dot(x, x) < 0.01:
            continue
        r2 = float(np.dot(x, x))
        assert abs(cm.det(phi2.gradient(x)) - r2**-2) <= 1e-10 * r2**-2
        y = rng.uniform(-1.5, 1.5, size=3)
        if np.dot(y, y) < 0.01:
            continue
        q2 = float(np.dot(y, y))
        assert abs(cm.det(phi3.gradient(y)) - q2**-3) <= 1e-10 * q2**-3


def test_inversion_flip_is_orientation_preserving():
    for dim in (2, 3):
        phi = cm.InversionFlip(dim)
        x = np.full(dim, 0.6)
        G = phi.gradient(x)
        assert cm.det(G) > 0


def test_inversion_flip_equals_two_reflections():
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        phi = cm.InversionFlip(dim)
        refl = phi.as_reflections()
        for _ in range(20):
            x = rng.uniform(0.2, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            assert np.allclose(refl(x), phi(x), atol=1e-12)
            assert np.allclose(refl.gradient(x), phi.gradient(x), atol=1e-9)


def test_inversion_flip_singularity_raises():
    phi = cm.InversionFlip(2)
    with pytest.raises(cm.SingularPoint):
        phi(np.zeros(2))


def test_sphere_reflection_fixes_sphere_and_involutes():
    sr = cm.SphereReflection(np.zeros(2), 1.0)
    on_sphere = np.array([np.cos(0.3), np.sin(0.3)])
    assert np.allclose(sr(on_sphere), on_sphere, atol=1e-14)
    x = np.array([0.4, 0.1])
    assert np.allclose(sr(sr(x)), x, atol=1e-13)
    # a lone reflection reverses orientation, so the deformation-gradient
    # contract refuses it; the raw jacobian shows the negative determinant
    with pytest.raises(cm.NonOrientationPreserving):
        sr.gradient(x)
    assert cm.det(sr._jacobian(x)) < 0


def test_hyperplane_reflection_basics():
    hp = cm.HyperplaneReflection(np.array([0.0, 1.0]), 0.0)
    assert np.allclose(hp(np.array([1.5, 0.7])), [1.5, -0.7])
    assert np.allclose(hp(hp(np.array([0.2, -0.9]))), [0.2, -0.9])
    with pytest.raises(cm.NonOrientationPreserving):
        hp.gradient(np.array([1.0, 1.0]))
    assert cm.det(hp._jacobian(np.array([1.0, 1.0]))) < 0
    with pytest.raises(ValueError):
        cm.HyperplaneReflection(np.array([0.0, 2.0]), 0.0)


def test_moebius_composition_chain_rule():
    steps = [
        cm.SphereReflection(np.array([0.1, -0.2]), 1.3),
        cm.HyperplaneReflection(np.array([1.0, 0.0]), 0.2),
    ]
    mo = cm.MoebiusMap(steps)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, size=2)
        G = mo.gradient(x)
        Gfd = cm.fd_gradient(mo, x)
        assert np.max(np.abs(G - Gfd)) <= 1e-5 * max(1.0, np.max(np.abs(G)))
    assert cm.det(mo._jacobian(np.array([0.3, 0.4]))) > 0.0


def test_moebius_odd_composition_reverses_orientation():
    mo = cm.MoebiusMap([cm.SphereReflection(np.zeros(2), 1.0)])
    assert cm.det(mo._jacobian(np.array([0.5, 0.2]))) < 0.0
    with pytest.raises(cm.NonOrientationPreserving):
        mo.gradient(np.array([0.5, 0.2]))


def test_complex_moebius_matches_inversion_flip():
    # (0 z + 1)/(1 z + 0) = 1/z, which is the planar inversion-flip map
    mo = cm.ComplexMoebius(0, 1, 1, 0)
    phi = cm.InversionFlip(2)
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = rng.uniform(0.2, 1.4, size=2) * rng.choice([-1.0, 1.0], size=2)
        assert np.allclose(mo(x), phi(x), atol=1e-12)
        assert np.allclose(mo.gradient(x), phi.gradient(x), atol=1e-10)


def test_complex_moebius_pole_and_degenerate():
    mo = cm.ComplexMoebius(1.0, 2.0, 1.0, -0.5)
    with pytest.raises(cm.SingularPoint):
        mo(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        cm.ComplexMoebius(1.0, 2.0, 2.0, 4.0)


def test_complex_moebius_gradient_is_conformal():
    mo = cm.ComplexMoebius(1.5, 0.25, -0.3, 1.0)
    rng = np.random.default_rng(19)
    for _ in range(25):
        x = rng.uniform(-1.0, 1.0, size=2)
        ok, residual = cm.is_conformal_at(mo, x)
        assert ok and residual <= 1e-10


class AffineMap(cm.DeformationMap):
    """x -> A x + b on one point or a stack of points."""

    def __init__(self, A, b):
        self.A, self.b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        self.dim = len(self.b)

    def evaluate(self, x):
        return np.asarray(x) @ self.A.T + self.b

    def _jacobian(self, x):
        return np.broadcast_to(self.A, np.shape(x)[:-1] + self.A.shape)


def test_affine_map_gradient_constant():
    A = np.array([[1.2, 0.3], [-0.1, 0.9]])
    b = np.array([0.5, -1.0])
    aff = AffineMap(A, b)
    assert np.allclose(aff(np.array([1.0, 2.0])), A @ np.array([1.0, 2.0]) + b)
    assert np.allclose(aff.gradient(np.array([-3.0, 7.0])), A)
    pts = np.array([[-3.0, 7.0], [0.5, 0.25]])
    assert np.allclose(aff.gradient(pts), [A, A])
    assert np.allclose(cm.fd_gradient(aff, pts), [A, A])


def test_is_conformal_at_rejects_nonconformal():
    aff = AffineMap(np.diag([2.0, 1.0]), np.zeros(2))
    ok, residual = cm.is_conformal_at(aff, np.array([0.2, 0.2]))
    assert not ok and residual > 0.1


def test_is_conformal_fd_option_agrees():
    phi = cm.InversionFlip(2)
    x = np.array([0.4, -0.3])
    ok_a, res_a = cm.is_conformal_at(phi, x)
    ok_f, res_f = cm.is_conformal_at(phi, x, use_fd=True)
    assert ok_a
    assert ok_f or res_f <= 1e-6  # fd residual is step-limited


def test_decompose_conformal():
    dec = cm.decompose_conformal(np.array([[1.0, -1.0], [1.0, 1.0]]))
    assert abs(dec.scale - np.sqrt(2.0)) <= 1e-14
    c = np.cos(np.pi / 4.0)
    assert np.allclose(dec.rotation, [[c, -c], [c, c]], atol=1e-14)
    assert dec.residual <= 1e-14
    with pytest.raises(cm.NotConformal):
        cm.decompose_conformal(np.diag([2.0, 1.0]))


def test_gradient_field_of_map_is_everywhere_conformal():
    rng = np.random.default_rng(31)
    for dim in (2, 3):
        phi = cm.InversionFlip(dim)
        for _ in range(50):
            x = rng.uniform(0.4, 1.2, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            G = phi.gradient(x)
            assert cm.conformality_residual(G) <= 1e-10


@pytest.mark.parametrize("n_stack", [1, 257])
def test_stacked_gradients_match_one_point_bits(n_stack):
    for dim in (2, 3):
        dom = cm.AnnulusDomain(dim, 0.3, 1.2)
        pts = cm.sample_annulus(dom, n_stack, seed=dim)
        e2 = np.eye(dim)[1]
        maps = [
            cm.InversionFlip(dim),
            cm.MoebiusMap([cm.SphereReflection(np.zeros(dim), 1.0), cm.HyperplaneReflection(e2)]),
        ]
        if dim == 2:
            maps.append(cm.ComplexMoebius(1.5, 0.25, -0.3, 1.0))
        for phi in maps:
            J = phi.gradient(pts)
            assert J.shape == (n_stack, dim, dim)
            assert np.array_equal(J, [phi.gradient(x) for x in pts])
            assert np.array_equal(phi.evaluate(pts), [phi.evaluate(x) for x in pts])
            assert np.array_equal(cm.fd_gradient(phi, pts), [cm.fd_gradient(phi, x) for x in pts])
            ok, residual = cm.is_conformal_at(phi, pts, use_fd=True)
            assert np.array_equal(residual, [cm.is_conformal_at(phi, x, use_fd=True)[1] for x in pts])
            assert np.array_equal(cm.conformality_residual(J), [cm.conformality_residual(G) for G in J])
        # det grad of the inversion-flip is |x|^{-2n}
        rho = np.vecdot(pts, pts)
        assert np.allclose(cm.det(maps[0].gradient(pts)), rho**-dim, rtol=1e-12, atol=0.0)


def test_stacked_gradient_names_first_orientation_reversing_point():
    odd = cm.MoebiusMap([cm.SphereReflection([0.0, 0.0], 1.0)])
    pts = np.array([[0.5, 0.25], [0.75, 0.5]])
    with pytest.raises(cm.NonOrientationPreserving, match=r"at \[0\.5 +0\.25\] \(det = -"):
        odd.gradient(pts)
