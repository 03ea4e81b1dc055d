"""Energy models: values, derivative chains, tie handling, volumetric splice."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmech as cm
from confmech.energies import fd_first_derivative, fd_second_form
from confmech.tensors import as_square, frobenius_norm, inner, require_gl_plus

F21 = np.diag([2.0, 1.0])


def fd_second_form_from_first(energy, F, H, h=1e-6):
    """Central difference of t -> <first_derivative(F + t H), H> at t = 0.

    Differencing the analytic gradient instead of the value keeps the
    rounding floor near 1e-9 relative, far below what a second difference
    of the value can reach in double precision.  The gradient itself is
    anchored to value() through fd_first_derivative, so the two oracles
    together still validate the full chain.
    """
    F = as_square(F)
    H = as_square(H)
    step = h * max(1.0, frobenius_norm(F))
    Pp = energy.first_derivative(F + step * H)
    Pm = energy.first_derivative(F - step * H)
    return float(inner(Pp - Pm, H)) / (2.0 * step)


def stretch_ratio(F):
    """lmax / lmin of F."""
    s = np.linalg.svd(F, compute_uv=False)
    return s[0] / s[-1]


def random_rotation(rng, dim):
    """A rotation from the draws of one rotation of random_def_gradient."""
    return cm.convexity._rotations(rng.uniform(0.0, 2.0 * np.pi, size=cm.convexity.ANGLES[dim]))


def conformal_2x2(scale, angle):
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


def test_builtin_registry():
    assert set(cm.BUILTIN_ENERGIES) == {
        "iso2d-klin2",
        "iso2d-psi",
        "iso3d",
        "composite2d",
        "composite3d",
    }
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        assert E.dim in (2, 3)
        assert E.analytic is True
    with pytest.raises(ValueError):
        cm.builtin_energy("no-such-energy")


def test_klin2_values():
    E = cm.builtin_energy("iso2d-klin2")
    assert E.value(np.eye(2)) == 0.0
    assert E.value(F21) == 3.0
    # ratio symmetry: swapping the stretches changes nothing
    assert E.value(np.diag([1.0, 2.0])) == 3.0
    assert abs(E.value(conformal_2x2(3.0, 0.4))) <= 1e-12


def test_klin2_first_derivative_closed_form():
    E = cm.builtin_energy("iso2d-klin2")
    P = E.first_derivative(F21)
    assert np.allclose(P, [[4.0, 0.0], [0.0, -8.0]], atol=1e-12)


class Klin2ThroughK(cm.EnergyModel):
    """klin2 as psi(K) = (K + sqrt(K^2 - 1))^2 - 1, value only: the smooth-distortion route."""

    dim = 2

    def value(self, F):
        F = as_square(F, stack=True)
        K = 0.5 * inner(F, F) / require_gl_plus(F)
        return (K + np.sqrt(K * K - 1.0)) ** 2 - 1.0


def test_klin2_matches_psi_representation_off_ties():
    # same energy through the distortion K, where both are defined
    Epsi = Klin2ThroughK()
    Ek = cm.builtin_energy("iso2d-klin2")
    rng = np.random.default_rng(44)
    for _ in range(50):
        F = cm.random_def_gradient(rng, 2, (0.3, 4.0))
        if stretch_ratio(F) < 1.01:
            continue
        a, b = Ek.value(F), Epsi.value(F)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_klin2_gradient_and_stress_vanish_on_ties():
    E = cm.builtin_energy("iso2d-klin2")
    for F in (np.eye(2), conformal_2x2(2.5, 1.1), conformal_2x2(0.3, -0.6)):
        assert np.all(E.first_derivative(F) == 0.0)
        assert np.all(E.cauchy_stress(F) == 0.0)


def test_klin2_second_form_refuses_ties():
    E = cm.builtin_energy("iso2d-klin2")
    with pytest.raises(cm.ConfmechError, match=r"^no second derivative at coincident singular values$"):
        E.second_form(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_ratio_energy_with_smooth_minimum_is_differentiable_at_ties():
    E = cm.PlanarRatioEnergy(
        lambda s: (s - 1.0) ** 2,
        dh=lambda s: 2.0 * (s - 1.0),
        d2h=lambda s: 2.0,
        label="ratio-minus-one-squared",
    )
    assert np.all(E.first_derivative(np.eye(2)) == 0.0)
    P = E.first_derivative(F21)
    Pfd = fd_first_derivative(E, F21)
    assert np.max(np.abs(P - Pfd)) <= 1e-7


def test_psi_energy_values_and_gradient():
    E = cm.builtin_energy("iso2d-psi")
    assert E.value(np.eye(2)) == 0.0
    assert abs(E.value(F21) - 0.25) <= 1e-15
    assert abs(E.value(conformal_2x2(4.0, 0.7))) <= 1e-12
    P = E.first_derivative(F21)
    assert np.allclose(P, [[0.375, 0.0], [0.0, -0.75]], atol=1e-14)
    sig = E.cauchy_stress(conformal_2x2(1.7, 0.3))
    assert np.max(np.abs(sig)) <= 1e-12


def test_psi_energy_bits_are_pinned():
    # K - 1 in closed form keeps the bits it had as psi(K) with psi' = 1 and psi'' = 0
    rng = np.random.default_rng(29)
    F = np.stack([cm.random_def_gradient(rng, 2) for _ in range(498)] + [np.eye(2), [[1.5, -2.0], [2.0, 1.5]]])
    H = rng.standard_normal((500, 2, 2))
    E = cm.builtin_energy("iso2d-psi")
    digests = {
        name: hashlib.sha256(out.tobytes()).hexdigest()
        for name, out in (
            ("value", E.value(F)),
            ("first_derivative", E.first_derivative(F)),
            ("second_form", E.second_form(F, H)),
            ("cauchy_stress", E.cauchy_stress(F)),
        )
    }
    assert digests == {
        "value": "346bb5c86e7a3c77bf77f405e674c96e608159ce11e72df67c800e76f8c9186f",
        "first_derivative": "8e9fd4a3ae1a9441d53add3053a5f47262606b82be9c26827c008a744e290ba1",
        "second_form": "855af904a0afdd1e97662e68fdd8d2eaf77ea11e60113b6c061a5640ba737cf9",
        "cauchy_stress": "9603e17dc2914e2fbeefb44b065d88d3ad3b33ad02d502b8536989e045edd2f0",
    }


def test_iso3d_values():
    E = cm.builtin_energy("iso3d")
    assert abs(E.value(np.eye(3))) <= 1e-15
    assert abs(E.value(np.diag([2.0, 1.0, 1.0])) - 0.7797631496846198) <= 1e-14
    # conformal invariance: any positive multiple of a rotation is a minimum
    rng = np.random.default_rng(10)
    R = random_rotation(rng, 3)
    assert abs(E.value(2.2 * R)) <= 1e-12
    assert np.max(np.abs(E.cauchy_stress(2.2 * R))) <= 1e-12
    # ||F||^2 / det^{2/3} >= 3 by AM-GM on the squared stretches: never negative
    F = np.stack([cm.random_def_gradient(rng, 3, (0.1, 10.0)) for _ in range(200)])
    assert np.all(E.value(F) >= -3e-12)


def test_iso3d_second_form_at_identity():
    E = cm.builtin_energy("iso3d")
    H = np.zeros((3, 3))
    H[0, 0] = 1.0
    q = E.second_form(np.eye(3), H)
    assert abs(q - 8.0 / 3.0) <= 1e-12
    qfd = fd_second_form(E, np.eye(3), H)
    assert abs(qfd - 8.0 / 3.0) <= 1e-5


def test_gl_plus_enforced():
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        bad = np.eye(E.dim)
        bad[0, 0] = -1.0
        with pytest.raises(cm.ConfmechError, match=r"^det = -1\.0 is not strictly positive$"):
            E.value(bad)


def test_wrong_dimension_rejected():
    E = cm.builtin_energy("iso3d")
    with pytest.raises(ValueError):
        E.value(np.eye(2))


def test_first_derivative_matches_fd():
    rng = np.random.default_rng(77)
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        for _ in range(10):
            F = cm.random_def_gradient(rng, E.dim, (0.5, 2.0))
            if E.dim == 2 and stretch_ratio(F) < 1.05:
                continue
            d = cm.det(F)
            if min(abs(d - np.e), abs(d - (np.e + 2.0))) < 0.05:
                continue
            P = E.first_derivative(F)
            Pfd = fd_first_derivative(E, F)
            assert np.max(np.abs(P - Pfd)) <= 1e-6 * max(1.0, np.max(np.abs(Pfd)))


def test_second_form_matches_both_fd_oracles():
    rng = np.random.default_rng(78)
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        for _ in range(10):
            F = cm.random_def_gradient(rng, E.dim, (0.5, 2.0))
            if E.dim == 2 and stretch_ratio(F) < 1.05:
                continue
            d = cm.det(F)
            if min(abs(d - np.e), abs(d - (np.e + 2.0))) < 0.05:
                continue
            H = rng.standard_normal((E.dim, E.dim))
            q = E.second_form(F, H)
            q_grad = fd_second_form_from_first(E, F, H)
            assert abs(q - q_grad) <= 1e-6 * max(1.0, abs(q_grad))
            q_val = fd_second_form(E, F, H)
            assert abs(q - q_val) <= 1e-3 * max(1.0, abs(q_val))


def test_cauchy_stress_consistent_with_first_derivative():
    rng = np.random.default_rng(79)
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        F = cm.random_def_gradient(rng, E.dim, (0.6, 1.8))
        sig = E.cauchy_stress(F)
        expect = (E.first_derivative(F) @ F.T) / cm.det(F)
        assert np.max(np.abs(sig - expect)) <= 1e-9 * max(1.0, np.max(np.abs(expect)))


def test_volumetric_minimum_and_curvature():
    vol = cm.VolumetricTerm()
    assert vol.value(1.0) == 0.0 and vol.slope(1.0) == 0.0 and vol.curvature(1.0) == 2.0


def test_volumetric_branch_values():
    vol = cm.VolumetricTerm()
    c = np.e + 2.0
    assert vol.c == c
    assert abs(vol.value(np.e) - 1.0) <= 1e-15
    assert abs(vol.slope(np.e) - 2.0 / np.e) <= 1e-15
    assert abs(vol.value(c) - 2.4715177646857693) <= 1e-15
    assert abs(vol.slope(c) - 2.0 / np.e) <= 1e-15
    # f'' is one-sided at the splice points: 0 on the band, 2/e just past c
    inside = np.array([np.nextafter(np.e, np.inf), np.nextafter(c, 0.0)])
    assert np.array_equal(vol.curvature(inside), [0.0, 0.0])
    assert abs(vol.curvature(np.nextafter(c, np.inf)) - 2.0 / np.e) <= 1e-15


def test_volumetric_constant_slope_band():
    vol = cm.VolumetricTerm()
    for t in np.linspace(np.e, vol.c, 23):
        assert vol.slope(t) == 2.0 / np.e


def test_volumetric_c1_splices():
    vol = cm.VolumetricTerm()
    h = 1e-8
    for t0 in (np.e, vol.c):
        assert abs(vol.value(t0 + h) - vol.value(t0 - h)) <= 1e-7
        assert abs(vol.slope(t0 + h) - vol.slope(t0 - h)) <= 1e-7


def test_volumetric_slope_nonzero_away_from_one():
    vol = cm.VolumetricTerm()
    for t in (0.2, 0.7, 1.3, 2.0, np.e, 3.5, vol.c, 5.0, 8.0):
        assert vol.slope(t) != 0.0
    # and convex: curvature is nonnegative on every branch
    for t in (0.2, 0.9, 1.5, 3.0, 5.5, 9.0):
        assert vol.curvature(t) >= 0.0


def test_volumetric_guards():
    for c in (1.0, np.e, float("inf"), float("nan")):
        with pytest.raises(cm.ConfmechError, match=r"^splice point c = \S+ must be finite and strictly above e$"):
            cm.VolumetricTerm(c=c)
    vol = cm.VolumetricTerm()
    for f in (vol.value, vol.slope, vol.curvature):
        with pytest.raises(cm.ConfmechError, match=r"^volumetric argument t = 0\.0 must be positive$"):
            f(0.0)
        with pytest.raises(cm.ConfmechError, match=r"^volumetric argument t = -2\.0 must be positive$"):
            f(-2.0)


def test_composite_second_form_past_the_exp_overflow():
    # det F = 800 > c + 709: f' = f'' = (2/e) exp(t - c) overflow to inf, and for
    # this rank-one H det_curv is exactly 0, so f' * det_curv alone is NaN.
    # det F = c + 705 keeps f' finite (about 1.1e306), but with cof_h = 100 the
    # product f'' * cof_h * cof_h overflows
    E = cm.builtin_energy("composite3d")
    near = np.diag([(E.vol.c + 705.0) / 100.0, 10.0, 10.0])
    F = np.stack([800.0 ** (1.0 / 3.0) * np.eye(3), np.diag([2.0, 1.0, 1.5]), near])
    H = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert E.vol.value(800.0) == E.vol.slope(800.0) == E.vol.curvature(800.0) == np.inf
        assert np.isfinite(E.vol.slope(cm.det(near)))
        q = E.second_form(F, H)
        one = [E.second_form(f, H) for f in F]
    # the finite row keeps the bits it gets alone
    assert q[0] == q[2] == np.inf and np.isfinite(q[1]) and np.array_equal(q, one)


@pytest.mark.filterwarnings("error")
def test_composite_second_form_past_the_exp_overflow_with_a_zero_factor_is_the_iso_form():
    # past c + 709 f' = f'' = inf is taken out as a factor of cof_h^2 + det_curv; where that
    # factor is exactly 0 (H = 0, or a rank-one H with <F^-T, H> = 0 at a multiple of I) the
    # volumetric term is 0, and inf * 0 was NaN
    E2, E3 = cm.builtin_energy("composite2d"), cm.builtin_energy("composite3d")
    F2 = 30.0 * np.diag([1.1, 1.0])
    assert E2.second_form(F2, np.zeros((2, 2))) == 0.0
    F3, H3 = 1000.0 * np.eye(3), np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    q = E3.second_form(F3, H3)
    assert np.isfinite(q) and q == E3.iso.second_form(F3, H3)
    # in a stack, next to a row past the overflow with a positive factor and a finite row
    F = np.stack([F3, F3, np.diag([2.0, 1.0, 1.5])])
    H = np.stack([H3, np.eye(3), H3])
    stacked = E3.second_form(F, H)
    assert stacked[1] == np.inf and np.array_equal(stacked, [E3.second_form(f, h) for f, h in zip(F, H)])
    assert stacked[0] == q


@pytest.mark.parametrize("name, F", [
    ("composite3d", np.diag([10.0, 10.0, 8.0])),
    ("composite2d", np.diag([30.0, 30.0])),
])
def test_composite_stress_and_derivative_refuse_det_past_the_exp_overflow(name, F):
    # det F = 800 or 900 > c + 709: f' is +inf, and inf * 0 off the diagonal
    # of f' id or f' Cof F was NaN with an "invalid value" RuntimeWarning
    E = cm.builtin_energy(name)
    finite = np.diag([2.0, 1.0, 1.5][: E.dim])
    for method in (E.cauchy_stress, E.first_derivative):
        with pytest.raises(cm.ConfmechError, match="matrix 1 of the stack"):
            method(np.stack([finite, F]))
        with pytest.raises(cm.ConfmechError, match="past the volumetric exp overflow"):
            method(F)
        # finite rows keep the bits they get alone
        assert np.array_equal(method(np.stack([finite, finite])), np.stack([method(finite)] * 2))


def test_composite_value_splits():
    for name, iso_name in (("composite2d", "iso2d-klin2"), ("composite3d", "iso3d")):
        E = cm.builtin_energy(name)
        iso = cm.builtin_energy(iso_name)
        vol = cm.VolumetricTerm()
        rng = np.random.default_rng(3)
        F = cm.random_def_gradient(rng, E.dim, (0.6, 1.9))
        d = cm.det(F)
        expect = iso.value(F / d ** (1.0 / E.dim)) + vol.value(d)
        assert abs(E.value(F) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_composite_iso_part_is_scale_invariant_under_the_hood():
    E = cm.builtin_energy("composite2d")
    rng = np.random.default_rng(13)
    F = cm.random_def_gradient(rng, 2, (0.6, 1.9))
    # the isochoric summand ignores pure volume changes entirely
    a = E.value(F) - cm.VolumetricTerm().value(cm.det(F))
    G = 1.9 * F
    b = E.value(G) - cm.VolumetricTerm().value(cm.det(G))
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_composite_refuses_noninvariant_iso_part():
    class Frobenius2(cm.EnergyModel):
        dim = 2
        label = "frob"

        def value(self, F):
            return np.sum(F * F, axis=(-2, -1))

    with pytest.raises(ValueError):
        cm.CompositeEnergy(Frobenius2(), cm.VolumetricTerm())


def test_composite_stress_is_two_over_e_on_admissible_conformal_gradients():
    two_over_e = 2.0 / np.e
    E2 = cm.builtin_energy("composite2d")
    E3 = cm.builtin_energy("composite3d")
    # conformal F with det inside the constant-slope band (e, e+2)
    F2 = conformal_2x2(np.sqrt(3.2), 0.8)  # det = 3.2
    sig2 = E2.cauchy_stress(F2)
    assert np.max(np.abs(sig2 - two_over_e * np.eye(2))) <= 1e-12
    rng = np.random.default_rng(21)
    R = random_rotation(rng, 3)
    F3 = 3.3 ** (1.0 / 3.0) * R  # det = 3.3
    sig3 = E3.cauchy_stress(F3)
    assert np.max(np.abs(sig3 - two_over_e * np.eye(3))) <= 1e-12


def test_fd_second_form_zero_direction():
    E = cm.builtin_energy("iso3d")
    assert fd_second_form(E, np.eye(3), np.zeros((3, 3))) == 0.0
    # a zero direction next to a nonzero one in the same stack
    H = np.stack([np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0])])
    q = fd_second_form(E, np.eye(3), H)
    assert q[0] == 0.0 and q[1] == fd_second_form(E, np.eye(3), H[1])
    assert abs(q[1] - 8.0 / 3.0) <= 1e-5


@pytest.mark.parametrize("n_stack", [1, 257])
@pytest.mark.parametrize("name", cm.BUILTIN_ENERGIES)
def test_stacked_value_and_stress_match_one_matrix_bits(name, n_stack):
    # near-conformal gradients put composite dets on and off the [e, c] band
    E = cm.builtin_energy(name)
    rng = np.random.default_rng(50)
    F = np.stack(
        [
            rng.uniform(0.8, 2.0) * random_rotation(rng, E.dim)
            + 0.05 * rng.standard_normal((E.dim, E.dim))
            for _ in range(n_stack)
        ]
    )
    assert np.array_equal(E.value(F), [E.value(f) for f in F])
    assert np.array_equal(E.cauchy_stress(F), [E.cauchy_stress(f) for f in F])
    assert np.array_equal(E.first_derivative(F), [E.first_derivative(f) for f in F])
    H = rng.standard_normal(F.shape)
    assert np.array_equal(E.second_form(F, H), [E.second_form(f, h) for f, h in zip(F, H)])
    xi, eta = rng.standard_normal(F.shape[:2]), rng.standard_normal(F.shape[:2])
    q = cm.lh_form(E, F, xi, eta)
    assert np.array_equal(q, [cm.lh_form(E, *item) for item in zip(F, xi, eta)])
    assert np.array_equal(fd_first_derivative(E, F), [fd_first_derivative(E, f) for f in F])
    q_fd = fd_second_form(E, F, H)
    assert np.array_equal(q_fd, [fd_second_form(E, f, h) for f, h in zip(F, H)])


def test_value_only_subclass_is_lifted_to_stacks():
    # the FD routes call the stacked value on a stack, with the bits of each matrix alone
    class SquaredNorm(cm.EnergyModel):
        dim = 2

        def value(self, F):
            F = self._check_dim(F)
            return np.sum(F * F, axis=(-2, -1))

    F = np.stack([np.eye(2), 2.0 * np.eye(2)])
    assert SquaredNorm().value(F[1]) == 8.0
    assert SquaredNorm().cauchy_stress(F).shape == (2, 2, 2)
    H = np.stack([np.eye(2), np.ones((2, 2))])
    q = SquaredNorm().second_form(F, H)
    assert np.array_equal(q, [SquaredNorm().second_form(f, h) for f, h in zip(F, H)])
    assert np.allclose(q, [4.0, 8.0], rtol=1e-6)


def test_value_of_one_matrix_only_is_refused_with_one_line():
    class OneMatrixValue(cm.EnergyModel):
        dim = 2

        def value(self, F):
            return float(np.sum(self._check_dim(F) ** 2))

    E = OneMatrixValue()
    assert E.value(np.eye(2)) == 2.0
    e1 = np.array([1.0, 0.0])
    for call in (
        lambda: E.first_derivative(np.eye(2)),
        lambda: E.second_form(np.stack([np.eye(2), np.eye(2)]), np.eye(2)),
        lambda: cm.rank_one_line_scan(E, np.eye(2), e1, e1),
        lambda: cm.CompositeEnergy(E, cm.VolumetricTerm()),
    ):
        with pytest.raises(cm.ConfmechError, match=r"^OneMatrixValue\.value must take a stack") as exc:
            call()
        assert "\n" not in str(exc.value)
        assert "value has shape ()" in str(exc.value)


def test_a_profile_whose_result_does_not_broadcast_is_refused_with_one_line():
    # a plain ValueError, "operands could not be broadcast", escaped from _profile
    def pair(s):
        return np.array([1.0, 2.0])

    g, partials = cm.ratio_profile(pair, pair, pair)
    for call, shapes in (
        (lambda: cm.h_criterion(pair), "(2,) (want (2000,))"),
        (lambda: cm.PlanarRatioEnergy(h=pair, dh=pair, d2h=pair).value(np.diag([2.0, 1.0])), "(2,) (want ())"),
        (lambda: g(np.ones(3), np.ones(3)), "(2,) (want (3,))"),
        (lambda: partials(np.ones(3), np.ones(3)), "(2,) (want (3,))"),
    ):
        with pytest.raises(cm.ConfmechError) as exc:
            call()
        assert str(exc.value) == "a profile must return a constant or one value per ratio: shape " + shapes
    # a constant, and one value per ratio, are taken as before
    E = cm.PlanarRatioEnergy(h=lambda s: 1.0, dh=lambda s: 0.0, d2h=lambda s: 0.0)
    assert E.value(np.stack([np.eye(2), np.diag([2.0, 1.0])])).tolist() == [1.0, 1.0]
    assert cm.h_criterion(lambda s: s).verdict == "rank-one convex"


def test_volumetric_curvature_below_e_overflows_to_inf_without_a_warning():
    # t^2 is subnormal at 1e-160 (the quotient overflows) and 0 at 1e-300
    vol = cm.VolumetricTerm()
    t = np.array([1e-300, 1e-160, 1e-150, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d2 = vol.curvature(t)
        one = [vol.curvature(s) for s in t]
        assert vol.curvature(1e-160) == np.inf
    assert d2[0] == d2[1] == np.inf and np.isfinite(d2[2]) and np.array_equal(d2, one)


def test_volumetric_arrays_match_scalar_evaluate():
    vol = cm.VolumetricTerm()
    t = np.concatenate([np.linspace(0.05, 6.0, 400), [np.e, vol.c]])
    assert np.array_equal(vol.value(t), [vol.value(s) for s in t])
    assert np.array_equal(vol.slope(t), [vol.slope(s) for s in t])
    assert np.array_equal(vol.curvature(t[:-2]), [vol.curvature(s) for s in t[:-2]])
    for splice in (np.e, vol.c):
        with pytest.raises(cm.ConfmechError, match="one-sided"):
            vol.curvature(np.array([1.0, splice]))
    with pytest.raises(cm.ConfmechError, match=r"^volumetric argument t = 0\.0 must be positive$"):
        vol.value(np.array([1.0, 0.0]))


def test_stacked_ratio_energy_names_first_nondifferentiable_matrix():
    # a constant h' is broadcast over the stack's ratios
    E = cm.PlanarRatioEnergy(lambda s: 1.0 - s, dh=lambda s: -1.0, d2h=lambda s: 0.0)
    F = np.stack([np.diag([2.0, 1.0]), 1.5 * np.eye(2), conformal_2x2(2.0, 0.4)])
    assert np.array_equal(E.value(F), [-1.0, 0.0, 0.0])
    assert np.array_equal(E.first_derivative(F[:1]), [E.first_derivative(F[0])])
    with pytest.raises(cm.ConfmechError, match=r"h'\(1\+\) = -1\.0\) \(matrix 1 of the stack\)"):
        E.first_derivative(F)
    with pytest.raises(cm.ConfmechError, match=r"^h decreases into the coincident singular values") as exc:
        E.cauchy_stress(F[2])
    assert str(exc.value).endswith("(h'(1+) = -1.0)")


def test_ratio_energy_second_form_at_near_coincident_singular_values_is_the_closed_form_limit():
    # with h'(1) = 0 both off-diagonal coefficients tend to g11 = h''/l2^2 as l1 -> l2, the
    # value second_form takes inside NEAR_TIE_GAP; a central difference there is off by 3.5e-5
    E = ratio_minus_one_squared_energy()
    H = np.array([[0.3, -1.0], [0.7, 0.2]])
    for lam, angle in ((1.0, 0.0), (1.3, 0.2), (0.02, 2.5), (40.0, -1.1)):
        # at F = lam R, D^2 W[H, H] = 2 ((K00 - K11)^2 + (K01 + K10)^2) with K = R^T H / lam
        R = conformal_2x2(1.0, angle)
        K = R.T @ H / lam
        exact = 2.0 * ((K[0, 0] - K[1, 1]) ** 2 + (K[0, 1] + K[1, 0]) ** 2)
        assert abs(E.second_form(lam * R, H) - exact) <= 1e-13 * exact
    # the limit meets the closed form at the band's edge
    R = conformal_2x2(1.3, 0.2)
    edge = [E.second_form(R @ np.diag([1.0 + k * cm.energies.NEAR_TIE_GAP, 1.0]), H) for k in (0.99, 1.01)]
    assert abs(edge[0] - edge[1]) <= 1e-7 * abs(edge[1])
    # one pass over a stack: each matrix, near or far, and each direction gets its bits alone
    near = R @ np.diag([1.0 + 1e-10, 1.0])
    forms = E.second_form(np.stack([near, F21]), H)
    assert forms[0] == E.second_form(near, H) and forms[1] == E.second_form(F21, H)
    assert np.array_equal(E.second_form(near, np.stack([H, 2.0 * H])), [forms[0], E.second_form(near, 2.0 * H)])
    # klin2 (h'(1) = 2) has a corner there, and names the matrix of F's stack
    with pytest.raises(cm.ConfmechError, match=r"^no second derivative at coincident singular values "
                       r"\(matrix 1 of the stack\)$"):
        cm.builtin_energy("iso2d-klin2").second_form(np.stack([F21, near]), H)


@pytest.mark.parametrize("name", ["composite2d", "composite3d"])
def test_stack_bits_do_not_depend_on_memory_layout(name):
    # matmul rounds a stack stored matrix axes first otherwise than a C-contiguous one
    E = cm.builtin_energy(name)
    kind = "phi%dd" % E.dim
    F = cm.InversionFlip(E.dim).gradient(cm.sample_annulus(cm.admissible_annulus(kind), 1000, seed=0))
    F_t = np.moveaxis(np.ascontiguousarray(np.moveaxis(F, 0, -1)), -1, 0)
    assert np.array_equal(F_t, F) and not F_t.flags.c_contiguous
    for method in (E.value, E.cauchy_stress):
        assert method(F_t).tobytes() == method(F).tobytes()


def test_composite_refuses_an_iso_part_that_is_invariant_only_on_the_identity():
    # (K(F) - 1) det F is 0 on every multiple of the identity, the one matrix the
    # probe used to scale, and 0.5 s^2 on s times a shear
    class DistortionTimesDet(cm.EnergyModel):
        dim = 2

        def value(self, F):
            F, d = self._checked(F)
            return (0.5 * inner(F, F) / d - 1.0) * d

    with pytest.raises(cm.ConfmechError, match=r"^iso part must be conformally invariant to compose$"):
        cm.CompositeEnergy(DistortionTimesDet(), cm.VolumetricTerm())
    for name in ("composite2d", "composite3d"):
        assert cm.builtin_energy(name).label.startswith("composite-")


def ulps_from(a, k):
    """The float k steps of np.nextafter from a."""
    for _ in range(abs(k)):
        a = np.nextafter(a, np.inf if k > 0 else -np.inf)
    return float(a)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    c=st.floats(np.e + 0.05, 20.0),
    k=st.integers(-6, 6),
    band=st.floats(0.0, 1.0),
    far=st.floats(700.0, 720.0),
)
def test_volumetric_splice_at_its_ends_and_past_the_exp_overflow(c, k, band, far):
    vol = cm.VolumetricTerm(c)
    two_over_e = 2.0 / np.e
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for end in (np.e, vol.c):
            t = ulps_from(end, k)
            # value and slope are continuous at the splice points, with slopes 2/e and 0 or 2/e
            assert abs(vol.value(t) - vol.value(end)) <= abs(t - end) + 4.0 * np.spacing(vol.value(end))
            assert abs(vol.slope(t) - two_over_e) <= abs(t - end) + 1e-15
            if k == 0:
                with pytest.raises(cm.ConfmechError, match=r"^volumetric second derivative is one-sided at "):
                    vol.curvature(t)
            else:
                assert np.isfinite(vol.curvature(t))
        # the slope is exactly 2/e on the whole band [e, c]
        inside = [np.e, ulps_from(np.e, abs(k)), np.e + band * (vol.c - np.e), ulps_from(vol.c, -abs(k)), vol.c]
        assert np.all(vol.slope(np.array(inside)) == two_over_e)
        # past c + 709.78, exp(t - c) overflows to +inf, the branch's value, quietly
        t = vol.c + far
        value, slope = vol.value(t), vol.slope(t)
        if t - vol.c > 709.79:
            assert value == np.inf and slope == np.inf
        elif t - vol.c < 709.78:
            assert np.isfinite(value) and np.isfinite(slope) and value >= slope


def ratio_minus_one_squared_energy():
    return cm.PlanarRatioEnergy(lambda s: (s - 1.0) ** 2, dh=lambda s: 2.0 * (s - 1.0), d2h=lambda s: 2.0)


def test_a_user_profile_gives_a_matrix_of_a_stack_the_bits_it_gets_alone():
    # numpy's scalar x ** 2 is pow and its array x ** 2 is x * x: a profile called on a
    # scalar for one matrix gave 2 of these matrices another last bit than in the stack
    E = ratio_minus_one_squared_energy()
    rng = np.random.default_rng(0)
    F = np.array([cm.random_def_gradient(rng, 2) for _ in range(2000)])
    alone = [E.value(f) for f in F]
    assert {type(v) for v in alone} == {np.float64}
    assert E.value(F).tobytes() == np.array(alone).tobytes()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    # s - 1 on [0, 3] TIE_GAP, or on NEAR_TIE_GAP times [0.1, 3] taken log-uniformly
    gap=st.one_of(
        st.floats(0.0, 3.0).map(lambda u: u * cm.energies.TIE_GAP),
        st.floats(-1.0, 0.5).map(lambda u: 10.0**u * cm.energies.NEAR_TIE_GAP),
    ),
    scale=st.floats(0.5, 2.0),
    angles=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
)
def test_planar_ratio_energies_next_to_the_tie_gaps(gap, scale, angles):
    R1, R2 = (conformal_2x2(1.0, a) for a in angles)
    F = scale * R1 @ np.diag([1.0 + gap, 1.0]) @ R2
    s, _ = cm.tensors._singular_values(F)
    tie = s[0] / s[1] - 1.0 < cm.energies.TIE_GAP
    near = (s[0] - s[1]) / s[0] < cm.energies.NEAR_TIE_GAP
    H = np.array([[0.3, -1.0], [0.7, 0.2]])
    smooth, klin2 = ratio_minus_one_squared_energy(), cm.builtin_energy("iso2d-klin2")
    if tie:
        # the minimal-norm subgradient on the conformal set, for a corner (klin2) and a smooth h alike
        assert np.all(smooth.cauchy_stress(F) == 0.0) and np.all(klin2.cauchy_stress(F) == 0.0)
    # h = (s - 1)^2 has h'(1) = 0: its energy is C^2 at the ties, and its derivatives those of value()
    assert np.max(np.abs(smooth.first_derivative(F) - fd_first_derivative(smooth, F))) <= 1e-8
    # the second difference's step, about 1e-4, is wider than the gap, where W has two derivatives
    # only: it is off by up to about 4e-5 relative there
    form = smooth.second_form(F, H)
    assert abs(form - fd_second_form(smooth, F, H)) <= 1e-4 * abs(form)
    if near:
        with pytest.raises(cm.ConfmechError) as exc:
            klin2.second_form(F, H)
        assert str(exc.value) == "no second derivative at coincident singular values"
    else:
        assert np.isfinite(klin2.second_form(F, H))


# the one-line refusals an energy may give inside the det band: klin2's corner at the
# ties, and the composite's first derivative and stress past the exp overflow at c + 709
BAND_EDGE_REFUSALS = (
    r"^no second derivative at coincident singular values$",
    r"^det F = \S+ is past the volumetric exp overflow at c \+ 709$",
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(cm.BUILTIN_ENERGIES),
    edge=st.sampled_from([1e-100, 1e100]),
    angles=st.tuples(*[st.floats(0.0, 6.0)] * 3),
    stretch=st.sampled_from([0.0, 1e-9, 0.3]),
)
def test_builtins_at_the_edges_of_the_det_band(name, edge, angles, stretch):
    E = cm.builtin_energy(name)
    n = E.dim
    R = cm.convexity._rotations(np.array(angles[: 1 if n == 2 else 3]))
    Q = R @ np.diag([1.0 + stretch] + [1.0] * (n - 1))
    lam = edge ** (1.0 / n)
    lam *= (edge / cm.det(lam * Q)) ** (1.0 / n)  # a power of a ratio near 1 is right to an ulp
    sides = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # lam a few ulps either way moves det F a few ulps across the edge
        for k in range(-3, 4):
            F = ulps_from(lam, k) * Q
            d = cm.det(F)
            inside = 1e-100 <= d <= 1e100
            sides.add(inside)
            methods = (E.value, E.first_derivative, E.cauchy_stress, lambda F: E.second_form(F, F))
            if not inside:
                side = "below 1e-100" if d < 1.0 else r"above 1e\+100"
                with pytest.raises(cm.ConfmechError, match=r"^det = \S+ is %s \(matrix 0 of the stack\)$" % side):
                    require_gl_plus(F[None])
                for method in methods:
                    with pytest.raises(cm.ConfmechError, match=r"^det = \S+ is (below|above) "):
                        method(F)
                continue
            assert require_gl_plus(F) == d
            for method in methods:
                try:
                    out = method(F)
                except cm.ConfmechError as exc:
                    assert any(re.match(p, str(exc)) for p in BAND_EDGE_REFUSALS), str(exc)
                    continue
                if name.startswith("composite") and edge > 1.0 and method in (methods[0], methods[3]):
                    # past c + 709 the volumetric part is +inf, and so are these (H = F has cof_h > 0)
                    assert out == np.inf
                else:
                    assert np.all(np.isfinite(out))
    assert sides == {True, False}


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(["iso2d-klin2", "iso2d-psi", "iso3d"]),
    drift=st.sampled_from([np.log, np.sin, lambda d: d - 1.0 / d]),
    factor=st.floats(0.5, 2.0),
)
def test_composite_probe_tells_an_iso_part_invariant_to_1e_10_from_one_invariant_to_1e_6(name, drift, factor):
    # W + eps (1 + |W|) g(det F) changes by a relative eps g under the probe's scalings
    base = cm.builtin_energy(name)

    class Drifting(cm.EnergyModel):
        dim = base.dim

        def __init__(self, eps):
            self.eps = eps

        def value(self, F):
            F, d = self._checked(F)
            w = base.value(F)
            return w + self.eps * (1.0 + np.abs(w)) * drift(d)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cm.CompositeEnergy(Drifting(factor * 1e-10), cm.VolumetricTerm())
        with pytest.raises(cm.ConfmechError, match=r"^iso part must be conformally invariant to compose$"):
            cm.CompositeEnergy(Drifting(factor * 1e-6), cm.VolumetricTerm())
