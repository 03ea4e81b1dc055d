"""Acceptance gate: the ten headline checks, one per test, one verdict line each.

Every check prints `criterion NN: PASS/FAIL (...)` before asserting, so a
`pytest -s tests/test_acceptance.py` run shows the full scoreboard.  Seeds
are fixed; the whole module is budgeted to run in well under a minute.
"""

import time

import numpy as np
import pytest

import confmech as cm
from confmech.energies import fd_first_derivative, fd_second_form
from confmech.tensors import dev, sym
from test_convexity import def_gradient
from test_energies import fd_second_form_from_first

TWO_OVER_E = 2.0 / np.e


def _verdict(num, ok, detail):
    print("criterion %2d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_constant_stress_nonaffine_3d():
    """Composite 3D energy on the admissible annulus: sigma = (2/e) id everywhere."""
    t0 = time.perf_counter()
    E = cm.builtin_energy("composite3d")
    phi = cm.InversionFlip(3)
    dom = cm.admissible_annulus("phi3d")
    samples, summary = cm.stress_field(E, phi, dom, n=10000, seed=42)
    target = TWO_OVER_E * np.eye(3)
    worst = max(float(np.sqrt(np.sum((s.sigma - target) ** 2))) for s in samples)
    grads = [s.F for s in samples]
    spread = max(
        float(np.sqrt(np.sum((grads[0] - G) ** 2))) for G in grads[1:]
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and spread > 1e-2 and elapsed < 5.0 and summary.homogeneous
    _verdict(
        1,
        ok,
        "max |sigma - (2/e)id| = %.2e, gradient spread %.2f, %.2fs"
        % (worst, spread, elapsed),
    )


def test_criterion_02_planar_stress_free_counterexample():
    """Squared-ratio energy on the 2D conformal field: stress vanishes."""
    E = cm.builtin_energy("iso2d-klin2")
    phi = cm.InversionFlip(2)
    dom = cm.admissible_annulus("phi2d")
    samples, _ = cm.stress_field(E, phi, dom, n=10000, seed=42)
    worst = max(float(np.sqrt(np.sum(s.sigma**2))) for s in samples)
    _verdict(2, worst <= 1e-10, "max |sigma| = %.2e over 10000 points" % worst)


def test_criterion_03_strict_rank_one_convexity_3d():
    """LH form of the 3D isochoric energy: positive on random rank-one data, 8/3 at id."""
    E = cm.builtin_energy("iso3d")
    # the scan's stream: per sample the draws of random_def_gradient(rng, 3,
    # (0.1, 10)), then xi and eta, each standard normal
    conv = cm.convexity
    U, xi, eta = conv._scan_draws(np.random.default_rng(7), 3, 10000)
    min_q = np.min(cm.lh_form(E, conv._def_gradients(U, 3), xi, eta))
    e1 = np.array([1.0, 0.0, 0.0])
    q_an = cm.lh_form(E, np.eye(3), e1, e1)
    H = np.outer(e1, e1)
    q_fd = fd_second_form(E, np.eye(3), H)
    ok = (
        min_q > 0.0
        and abs(q_an - 8.0 / 3.0) <= 1e-5
        and abs(q_fd - 8.0 / 3.0) <= 1e-5
    )
    _verdict(
        3,
        ok,
        "min LH form %.3e, value at identity %.8f analytic / %.8f fd"
        % (min_q, q_an, q_fd),
    )


def test_criterion_04_strict_rank_one_convexity_2d():
    """Two-sided stretch criteria for the squared ratio energy on a log grid."""
    lams = np.logspace(-1.0, 1.0, 30)
    g, partials = cm.ratio_profile(lambda s: (s - 1.0) ** 2, lambda s: 2.0 * (s - 1.0), lambda s: 2.0)
    grid = cm.ks_grid_scan(g, lams, derivatives=partials)
    all_positive = bool(np.all(grid.values > 0.0))
    spot = cm.knowles_sternberg(g, 2.0, 1.0, derivatives=partials)
    # g11, g22 and cond_ii: off the coincident-stretch band
    spot_ok = not spot.coincident and bool(np.all(np.abs(spot.values[:3] - [2.0, 16.0, 8.0]) <= 1e-6))
    ok = all_positive and spot_ok and grid.strict.shape == (30, 30)
    _verdict(
        4,
        ok,
        "%d grid points, min condition value %.3e, spot values (%.1f, %.1f, %.1f)"
        % (grid.strict.size, np.min(grid.values), *spot.values[:3]),
    )


def _fd_valid_sample(rng, E):
    """Draw F where central differencing is trustworthy for every energy.

    Rejected: nearly coincident 2D singular values (the ratio energies are
    not C^2 across the tie) and determinants within 0.05 of a volumetric
    splice point (the composite energies are only C^1 there).
    """
    while True:
        F = def_gradient(rng, E.dim, (0.5, 2.0))
        if E.dim == 2:
            s = np.linalg.svd(F, compute_uv=False)
            if (s[0] - s[1]) / s[0] < 0.05:
                continue
        d = cm.det(F)
        if abs(d - np.e) < 0.05 or abs(d - (np.e + 2.0)) < 0.05:
            continue
        return F


def test_criterion_05_derivative_oracles():
    """Analytic derivative chains against central finite differences, 5 energies."""
    rng = np.random.default_rng(123)
    worst1 = worst2 = 0.0
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        for _ in range(100):
            F = _fd_valid_sample(rng, E)
            P = E.first_derivative(F)
            P_fd = fd_first_derivative(E, F)
            rel1 = float(np.max(np.abs(P - P_fd))) / max(1.0, float(np.max(np.abs(P_fd))))
            H = rng.standard_normal((E.dim, E.dim))
            q = E.second_form(F, H)
            q_fd = fd_second_form_from_first(E, F, H)
            rel2 = abs(q - q_fd) / max(1.0, abs(q_fd))
            worst1 = max(worst1, rel1)
            worst2 = max(worst2, rel2)
    ok = worst1 <= 1e-6 and worst2 <= 1e-6
    _verdict(
        5,
        ok,
        "500 samples: worst first-derivative rel %.2e, worst second-form rel %.2e"
        % (worst1, worst2),
    )


def test_criterion_06_conformality_of_the_maps():
    """Gradients of both inversion-flip maps: F^T F = det^{2/n} id, det power laws."""
    worst_res = worst_det = 0.0
    for dim, power in ((2, 2), (3, 3)):
        phi = cm.InversionFlip(dim)
        dom = cm.AnnulusDomain(dim, 0.5, 1.5)
        for x in cm.sample_annulus(dom, 10000, seed=dim):
            G = phi.gradient(x)
            r2 = float(x @ x)
            metric = r2**-2  # F^T F = |x|^{-4} id in both dimensions
            jac = r2**-power  # det = |x|^{-4} in 2D, |x|^{-6} in 3D
            res = float(np.sqrt(np.sum((G.T @ G - metric * np.eye(dim)) ** 2)))
            worst_res = max(worst_res, res / metric)
            worst_det = max(worst_det, abs(cm.det(G) - jac) / jac)
    ok = worst_res <= 1e-10 and worst_det <= 1e-10
    _verdict(
        6,
        ok,
        "worst relative F^T F residual %.2e, worst det error %.2e over 2x10000 points"
        % (worst_res, worst_det),
    )


def test_criterion_07_linearized_kernel():
    """Kernel displacement fields: trace-free symmetric part and stress vanish."""
    rng = np.random.default_rng(5)
    # per sample: beta, gamma, p_hat, spin and b_hat in [-5, 5), then x in [-2, 2)^2
    low = np.array([-5.0] * 6 + [-2.0] * 2)
    draws = rng.uniform(low, -low, size=(10000, len(low)))
    k = cm.KernelDisplacement(*draws[:, :4].T, b_hat=draws[:, 4:6])
    _, G = cm.kernel_displacement(k, draws[:, 6:])
    worst_dev = float(np.max(np.sqrt(np.sum(dev(sym(G)) ** 2, axis=(-2, -1)))))
    worst_sig = float(np.max(np.abs(cm.sigma_lin(G))))
    q = cm.conformal_quadratic_approx()
    x0 = np.array([0.5, 0.0])
    exact = np.array_equal(x0 + cm.kernel_displacement(q, x0)[0], cm.InversionFlip(2)(x0))
    worst_wlin = 0.0
    for _ in range(1000):
        x = x0 + 0.15 * rng.uniform(-1.0, 1.0, size=2)
        _, G = cm.kernel_displacement(q, x)
        worst_wlin = max(worst_wlin, cm.w_lin_2d(G))
    ok = worst_dev <= 1e-12 and worst_sig <= 1e-12 and exact and worst_wlin <= 1e-12
    _verdict(
        7,
        ok,
        "worst |dev sym| %.1e, worst |sigma_lin| %.1e, expansion point exact: %s, "
        "worst W_lin %.1e" % (worst_dev, worst_sig, exact, worst_wlin),
    )


def test_criterion_08_volumetric_splice():
    """The volumetric term: C^1 splices, constant slope band, curvature at 1."""
    vol = cm.VolumetricTerm()
    e, c = np.e, vol.c
    # one-sided branch formulas evaluated at the splice points
    val_e = (np.log(e) ** 2, 1.0)
    slope_e = (2.0 * np.log(e) / e, 2.0 / e)
    val_c = (1.0 + 2.0 * (c - e) / e, 1.0 + (2.0 / e) * (np.exp(c - c) + c - e - 1.0))
    slope_c = (2.0 / e, (2.0 / e) * np.exp(c - c))
    match = max(
        abs(val_e[0] - val_e[1]),
        abs(slope_e[0] - slope_e[1]),
        abs(val_c[0] - val_c[1]),
        abs(slope_c[0] - slope_c[1]),
    )
    band_exact = bool(np.all(vol.slope(np.linspace(e, c, 200)) == 2.0 / e))
    curvature = float(vol.curvature(1.0))
    away_from_one = np.array([0.1, 0.5, 0.9, 1.1, 2.0, e, 3.0, 4.0, c, 6.0, 10.0])
    slopes_nonzero = bool(np.all(vol.slope(away_from_one) != 0.0))
    ok = (
        match <= 1e-10
        and abs(val_e[1] - 1.0) <= 1e-10
        and band_exact
        and curvature == 2.0
        and slopes_nonzero
    )
    _verdict(
        8,
        ok,
        "splice mismatch %.1e, slope 2/e on [e, c]: %s, f''(1) = %s"
        % (match, band_exact, curvature),
    )


def test_criterion_09_laminate_incompatibility():
    """Conformal gradient pairs are never rank-one connected; the affine pair is."""
    rng = np.random.default_rng(97)
    params = rng.uniform(-3.0, 3.0, size=(100000, 4))
    worst_id = 0.0
    all_rank2 = True
    all_positive = True
    for a1, b1, a2, b2 in params:
        if (a1, b1) == (a2, b2):
            continue
        F1 = np.array([[a1, b1], [-b1, a1]])
        F2 = np.array([[a2, b2], [-b2, a2]])
        rep = cm.jump_check(F1, F2)
        expect = (a1 - a2) ** 2 + (b1 - b2) ** 2
        worst_id = max(
            worst_id, abs(rep.det_difference - expect) / max(1.0, expect)
        )
        all_positive = all_positive and rep.det_difference > 0.0
        all_rank2 = all_rank2 and rep.rank == 2
    canonical = cm.jump_check(
        np.eye(2), np.eye(2) + np.outer([1.0, 0.0], [0.0, 1.0])
    )
    ok = (
        worst_id <= 1e-12
        and all_positive
        and all_rank2
        and canonical.rank == 1
        and canonical.rank_one_connected
    )
    _verdict(
        9,
        ok,
        "100000 pairs: worst determinant identity error %.1e, all rank 2: %s, "
        "canonical pair rank %d" % (worst_id, all_rank2, canonical.rank),
    )


def test_criterion_10_negative_control_widened_annulus():
    """Outside the admissible band the composite stress field is inhomogeneous."""
    E = cm.builtin_energy("composite2d")
    phi = cm.InversionFlip(2)
    wide = cm.AnnulusDomain(2, 0.5, 0.95)
    with pytest.warns(cm.InadmissibleDomainWarning):
        _, summary = cm.stress_field(E, phi, wide, n=10000, seed=42)
    ok = (not summary.homogeneous) and summary.max_deviation > 1e-2
    _verdict(
        10,
        ok,
        "homogeneous = %s, max deviation %.3e"
        % (summary.homogeneous, summary.max_deviation),
    )
