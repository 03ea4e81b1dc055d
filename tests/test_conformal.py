"""Conformal maps: reflections, Moebius compositions, the inversion-flip maps."""

import numpy as np
import pytest

import confmech as cm
from confmech.cli import parse_map_spec
from confmech.tensors import from_entries, libm_pow


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


def inversion_flip_rows(x):
    """The gradient of InversionFlip at points x (..., dim), each entry written out by hand.

    The bit-for-bit oracle of the one formula S (rho id - 2 x (x) x) / rho^2 that
    InversionFlip._derivative takes in 2D and 3D.
    """
    rho = np.vecdot(x, x)
    coords = x.transpose(-1, *range(x.ndim - 1))
    if x.shape[-1] == 2:
        x1, x2 = coords
        rows = [
            [rho - 2.0 * x1 * x1, -2.0 * x1 * x2],
            [2.0 * x1 * x2, -rho + 2.0 * x2 * x2],
        ]
    else:
        x1, x2, x3 = coords
        rows = [
            [rho - 2.0 * x1 * x1, -2.0 * x1 * x2, -2.0 * x1 * x3],
            [2.0 * x1 * x2, -rho + 2.0 * x2 * x2, 2.0 * x2 * x3],
            [-2.0 * x1 * x3, -2.0 * x2 * x3, rho - 2.0 * x3 * x3],
        ]
    return from_entries(rows) / libm_pow(rho, 2.0)[..., None, None]


@pytest.mark.parametrize("dim", [2, 3])
def test_inversion_flip_gradient_matches_the_hand_written_rows_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    # |x| from 1e-6 to 1e6, with coordinates that are zero (of either sign), tiny or negative
    size = (4000, dim)
    x = 10.0 ** rng.uniform(-6.0, 6.0, size=(size[0], 1)) * rng.standard_normal(size)
    u = rng.random(size)
    x = np.where(u < 0.2, 0.0, np.where(u < 0.3, -0.0, np.where(u < 0.45, 1e-9 * x, x)))
    ties = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.5, 0.0, 0.0], [-0.0, 0.7, -0.0]])[:, :dim]
    x = np.concatenate([x[np.sqrt(np.vecdot(x, x)) > 1e-12], ties, 1e6 * ties, 1e-6 * ties])
    phi = cm.InversionFlip(dim)
    assert phi.gradient(x).tobytes() == inversion_flip_rows(x).tobytes()
    for p in x[-3 * len(ties):]:
        assert phi.gradient(p).tobytes() == inversion_flip_rows(p).tobytes()


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
        # the unit-sphere inversion, then the reflection of x2
        sphere, plane = cm.SphereReflection(np.zeros(dim), 1.0), cm.HyperplaneReflection(np.eye(dim)[1], 0.0)
        refl = cm.MoebiusMap([sphere, plane])
        for _ in range(20):
            x = rng.uniform(0.2, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            assert np.allclose(refl(x), phi(x), atol=1e-12)
            assert np.allclose(refl.gradient(x), phi.gradient(x), atol=1e-9)


def test_inversion_flip_singularity_raises():
    phi = cm.InversionFlip(2)
    with pytest.raises(cm.ConfmechError, match=r"^origin is the singular point of the inversion$"):
        phi(np.zeros(2))


def test_sphere_reflection_fixes_sphere_and_involutes():
    sr = cm.SphereReflection(np.zeros(2), 1.0)
    on_sphere = np.array([np.cos(0.3), np.sin(0.3)])
    assert np.allclose(sr(on_sphere), on_sphere, atol=1e-14)
    x = np.array([0.4, 0.1])
    assert np.allclose(sr(sr(x)), x, atol=1e-13)
    # a lone reflection reverses orientation, so the deformation-gradient
    # contract refuses it; the raw jacobian shows the negative determinant
    with pytest.raises(cm.ConfmechError, match=r"^map reverses orientation at \[0\.4 0\.1\] \(det = -"):
        sr.gradient(x)
    assert cm.det(sr._jacobian(x)) < 0


def test_hyperplane_reflection_basics():
    hp = cm.HyperplaneReflection(np.array([0.0, 1.0]), 0.0)
    assert np.allclose(hp(np.array([1.5, 0.7])), [1.5, -0.7])
    assert np.allclose(hp(hp(np.array([0.2, -0.9]))), [0.2, -0.9])
    with pytest.raises(cm.ConfmechError, match=r"^map reverses orientation at \[1\. 1\.\] \(det = -1\.0\)$"):
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
    with pytest.raises(cm.ConfmechError, match=r"^map reverses orientation at \[0\.5 0\.2\] \(det = -"):
        mo.gradient(np.array([0.5, 0.2]))


def complex_moebius(a, b, c, d, x):
    """f(z) = (a z + b) / (c z + d) and the matrix of f'(z) at points x (..., 2), z = x1 + i x2.

    The complex-arithmetic oracle of the planar Moebius maps that the
    moebius: reflection grammar builds.
    """
    z = x[..., 0] + 1j * x[..., 1]
    w = c * z + d
    f = (a * z + b) / w
    fp = (a * d - b * c) / (w * w)
    rows = [[fp.real, -fp.imag], [fp.imag, fp.real]]
    return np.stack([f.real, f.imag], axis=-1), np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def assert_matches_complex_moebius(mapping, coefficients, x):
    f, fp = complex_moebius(*coefficients, x)
    scale = np.max(np.abs(f), axis=-1, keepdims=True)
    assert np.all(np.abs(mapping.evaluate(x) - f) <= 1e-14 * scale)
    scale = np.max(np.abs(fp), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(mapping.gradient(x) - fp) <= 1e-14 * scale)


def test_complex_moebius_matches_inversion_flip():
    # (0 z + 1)/(1 z + 0) = 1/z: the planar inversion-flip map, and its reflection spec
    x = cm.sample_annulus(cm.AnnulusDomain(2, 0.2, 1.4), 500, seed=6)
    assert_matches_complex_moebius(cm.InversionFlip(2), (0, 1, 1, 0), x)
    assert_matches_complex_moebius(parse_map_spec("moebius:sphere(0,0;1)+plane(0,1;0)")[0], (0, 1, 1, 0), x)


def test_complex_moebius_gradient_is_conformal():
    # z -> 1 + 4 / conj(z - 1), then conjugation: (z + 3) / (z - 1), pole at z = 1
    mo, _ = parse_map_spec("moebius:sphere(1,0;2)+plane(0,1;0)")
    x = np.array([1.0, 0.0]) + cm.sample_annulus(cm.AnnulusDomain(2, 0.05, 3.0), 2000, seed=19)
    assert_matches_complex_moebius(mo, (1, 3, 1, -1), x)
    assert np.all(cm.is_conformal_at(mo, x)[0])


def test_complex_moebius_pole_and_degenerate():
    # the pole of (z + 3) / (z - 1) is the sphere's center, and near it the
    # scale of (z + 1e120 - 1) / (z - 1) leaves the float range; a sphere of
    # radius 0 (ad - bc = 0) or with an overflowing square is refused
    mo, _ = parse_map_spec("moebius:sphere(1,0;2)+plane(0,1;0)")
    with pytest.raises(cm.ConfmechError, match="reflection center reached"):
        mo(np.array([1.0, 0.0]))
    huge, _ = parse_map_spec("moebius:sphere(1,0;1e60)+plane(0,1;0)")
    with pytest.raises(cm.ConfmechError, match=r"scale .* is above 1e\+100"):
        huge.gradient(np.array([1.5, 0.0]))
    for radius in (0.0, 1e200):
        with pytest.raises(cm.ConfmechError):
            cm.SphereReflection([1.0, 0.0], radius)


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
            cm.MoebiusMap([cm.SphereReflection(np.zeros(dim), 1.0), cm.HyperplaneReflection(e2, 0.0)]),
        ]
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


def test_gradient_refuses_a_det_past_the_float_range():
    # each sphere scales by 1e98 at x = (1, 0), so det grad = 1e392 overflowed,
    # with an "overflow" RuntimeWarning, and the gradient was returned
    first = cm.SphereReflection([0.0, 0.0], 1e49)
    y = first.evaluate(np.array([1.0, 0.0]))
    mo = cm.MoebiusMap([first, cm.SphereReflection(y + [0.0, 1.0], 1e49)])
    with pytest.raises(cm.ConfmechError, match=r"det grad overflows at \[1\. 0\.\]"):
        mo.gradient(np.array([[2.0, 0.0], [1.0, 0.0]]))


def test_gradient_names_a_det_that_underflows_to_zero():
    # each sphere scales by about 1e-98, so det grad ~ 1e-588 underflowed to 0,
    # which was reported as "map reverses orientation (det = 0.0)"
    mo = cm.MoebiusMap([cm.SphereReflection(np.zeros(3), 1e-49), cm.SphereReflection([1.0, 0.0, 0.0], 1e-49)])
    with pytest.raises(cm.ConfmechError, match=r"det grad underflows to 0 at \[0\.5 0\.5 0\.5\]"):
        mo.gradient(np.full(3, 0.5))


def test_geometry_near_the_float_range_is_refused_without_a_warning():
    # a center at 1e200 overflowed |x - center|^2 ("overflow" warning), and at
    # 1e150 its scale 1e-300 underflowed det grad to 0, "reverses orientation";
    # an offset of 1e308 overflowed the plane's image; the FD step, lost next to
    # the image, gave "det = 0.0 is not strictly positive"
    e2 = cm.HyperplaneReflection([0.0, 1.0], 0.0)
    for center in (1e200, 1e150):
        far = cm.MoebiusMap([cm.SphereReflection([center, 0.0], 1.0), e2])
        assert np.all(np.isfinite(far.evaluate(np.array([1.0, 0.0]))))
        with pytest.raises(cm.ConfmechError, match=r"det grad underflows to 0 at \[1\. 0\.\]"):
            far.gradient(np.array([1.0, 0.0]))
        lost = r"^finite-difference step 1e-05 is lost next to images of size %.0e at \[1\. 0\.\]" % center
        with pytest.raises(cm.ConfmechError, match=lost.replace("+", r"\+")):
            cm.is_conformal_at(far, np.array([1.0, 0.0]), use_fd=True)
    for offset in (1e308, -1.5e100, np.nan):
        with pytest.raises(cm.ConfmechError, match="offset of at most 1e"):
            cm.HyperplaneReflection([0.0, 1.0], offset)
    assert cm.HyperplaneReflection([0.0, 1.0], -1e100).evaluate(np.zeros(2))[1] == -2e100


@pytest.mark.parametrize("dim", [2, 3])
def test_inversion_flip_refuses_a_point_whose_square_overflows_without_a_warning(dim):
    # |x|^2 overflowed in vecdot ("overflow encountered", an error under pytest's
    # filterwarnings) and the image of such a point was 0
    phi = cm.InversionFlip(dim)
    x = np.zeros((3, dim))
    x[:, 0] = (1.0, 1e200, -1e300)
    for call in (phi.evaluate, phi.gradient):
        with pytest.raises(cm.ConfmechError, match=r"^\|x\|\^2 overflows at \[ ?1\.e\+200"):
            call(x)
    # the largest point whose square is finite keeps its image
    edge = np.zeros(dim)
    edge[0] = 1e154
    assert phi.evaluate(edge)[0] == 1.0 / 1e154


def two_pass_chain(steps, x):
    """The image and chain-rule derivative of reflection steps at x (..., dim), one step at a time.

    A copy of the two-pass chain the Moebius map took before its one-pass
    gradient: each step's derivative at y, then its image y, every formula
    written out here.
    """
    dim = x.shape[-1]
    J = np.eye(dim)
    for s in steps:
        if isinstance(s, cm.SphereReflection):
            y = x - s.center
            d2 = np.vecdot(y, y)
            scale = s.radius_sq / d2
            yhat = y / np.sqrt(d2)[..., None]
            Js = scale[..., None, None] * (np.eye(dim) - 2.0 * (yhat[..., :, None] * yhat[..., None, :]))
            x = s.center + scale[..., None] * y
        else:
            Js = np.broadcast_to(np.eye(dim) - 2.0 * np.outer(s.normal, s.normal), x.shape + (dim,))
            x = x - 2.0 * (np.vecdot(x, s.normal) - s.offset)[..., None] * s.normal
        J = Js @ J
    return x, J


@pytest.mark.parametrize("dim", [2, 3])
def test_one_pass_moebius_gradient_matches_the_two_pass_chain_bit_for_bit(dim, monkeypatch):
    e = np.eye(dim)
    tilted = np.r_[0.6, 0.8, np.zeros(dim - 2)]
    chains = [
        [cm.SphereReflection(np.zeros(dim), 1.0), cm.HyperplaneReflection(e[1], 0.0)],
        [cm.SphereReflection(0.1 * e[0] - 0.2 * e[1], 1.3), cm.SphereReflection(2.0 * e[0], 0.8)],
        [cm.HyperplaneReflection(tilted, 0.3), cm.SphereReflection(e[1], 2.0),
         cm.SphereReflection(-0.5 * e[0], 0.7), cm.HyperplaneReflection(e[0], -0.1)],
    ]
    pts = cm.sample_annulus(cm.AnnulusDomain(dim, 0.3, 1.2), 500, seed=dim)
    calls = []
    for cls in (cm.SphereReflection, cm.HyperplaneReflection):
        monkeypatch.setattr(
            cls, "_parts", lambda self, x, pts, parts=cls._parts: calls.append(self) or parts(self, x, pts)
        )
    for steps in chains:
        mo = cm.MoebiusMap(steps)
        image, J = two_pass_chain(steps, pts)
        calls.clear()
        assert mo.gradient(pts).tobytes() == J.tobytes()
        assert calls == steps  # each step's parts once, the last image never
        assert mo.evaluate(pts).tobytes() == image.tobytes()
        for p in pts[:5]:
            assert mo.gradient(p).tobytes() == two_pass_chain(steps, p)[1].tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_inversion_flip_is_a_moebius_step(dim):
    # one step: the chain gives the map's own bits; two steps: x -> 1/conj(1/conj(x)) is the identity
    phi = cm.InversionFlip(dim)
    pts = cm.sample_annulus(cm.AnnulusDomain(dim, 0.3, 1.2), 500, seed=dim)
    one, two = cm.MoebiusMap([phi]), cm.MoebiusMap([phi] * 2)
    assert one.evaluate(pts).tobytes() == phi.evaluate(pts).tobytes()
    assert one.gradient(pts).tobytes() == phi.gradient(pts).tobytes()
    size = np.sqrt(np.vecdot(pts, pts))
    assert np.all(np.max(np.abs(two.evaluate(pts) - pts), axis=-1) <= 1e-15 * size)
    assert np.max(np.abs(two.gradient(pts) - np.eye(dim))) <= 1e-14
    assert np.all(cm.is_conformal_at(two, pts)[0])
    with pytest.raises(cm.ConfmechError, match=r"^\|x\|\^2 overflows at \[ ?1\.e\+200"):
        cm.MoebiusMap([phi, phi]).gradient(np.r_[1e200, np.zeros(dim - 1)])


def test_stacked_gradient_names_first_orientation_reversing_point():
    odd = cm.MoebiusMap([cm.SphereReflection([0.0, 0.0], 1.0)])
    pts = np.array([[0.5, 0.25], [0.75, 0.5]])
    with pytest.raises(cm.ConfmechError, match=r"at \[0\.5 +0\.25\] \(det = -"):
        odd.gradient(pts)
