"""Rank-one convexity checks: LH form, line scans, Knowles-Sternberg, h-criterion."""

import numpy as np
import pytest

import confmech as cm


class NegFrobenius(cm.EnergyModel):
    """Concave control energy; every rank-one direction violates ellipticity."""

    dim = 2
    label = "neg-frob"

    def value(self, F):
        return -np.sum(F * F, axis=(-2, -1))


class Det2(cm.EnergyModel):
    """Null Lagrangian: D^2 det(F)[H, H] = 2 det H vanishes on every rank-one H."""

    dim = 2
    label = "det"

    def value(self, F):
        return cm.det(F)

    def second_form(self, F, H):
        return 2.0 * cm.det(H)


class OverflowingForm(cm.EnergyModel):
    """Stacked second form |H|^2 / det F, NaN where det F > bound (as an overflowing exp gives)."""

    dim = 2
    label = "overflowing"
    analytic = True

    def __init__(self, bound):
        self.bound = bound

    def value(self, F):
        return np.zeros(np.shape(F)[:-2])

    def second_form(self, F, H):
        d = cm.det(F)
        return np.where(d > self.bound, np.nan, cm.tensors.inner(H, H) / d)


def test_lh_form_iso3d_at_identity():
    E = cm.builtin_energy("iso3d")
    e1 = np.array([1.0, 0.0, 0.0])
    q = cm.lh_form(E, np.eye(3), e1, e1)
    assert abs(q - 8.0 / 3.0) <= 1e-10


def test_lh_form_normalizes_direction_lengths():
    E = cm.builtin_energy("iso3d")
    e1 = np.array([1.0, 0.0, 0.0])
    q1 = cm.lh_form(E, np.eye(3), e1, e1)
    q2 = cm.lh_form(E, np.eye(3), 3.0 * e1, 0.5 * e1)
    assert abs(q1 - q2) <= 1e-9


def test_lh_form_positive_on_random_samples():
    E = cm.builtin_energy("iso3d")
    rng = np.random.default_rng(15)
    for _ in range(300):
        F = cm.random_def_gradient(rng, 3, (0.1, 10.0))
        xi = rng.standard_normal(3)
        eta = rng.standard_normal(3)
        assert cm.lh_form(E, F, xi, eta) > 0.0


def test_rank_one_line_scan_verdicts():
    E = cm.builtin_energy("iso2d-klin2")
    F0 = np.eye(2) + 0.3 * np.array([[1.0, 0.0], [0.0, 0.0]])
    e1 = np.array([1.0, 0.0])
    scan = cm.rank_one_line_scan(E, F0, e1, e1)
    assert scan.verdict == "strictly_convex"
    assert scan.min_second_difference > 0.0
    bad = cm.rank_one_line_scan(NegFrobenius(), np.eye(2), e1, e1, t_max=0.5)
    assert bad.verdict == "nonconvex"


def test_line_scan_of_a_null_lagrangian_is_convex_but_not_strictly():
    # W = det F is affine along a rank-one line: its second differences are rounding,
    # inside the band MARGIN max(1, |W|) (det runs from 3.15 down to 1.62 here)
    F = np.array([[2.0, 0.5], [-0.3, 1.5]])
    scan = cm.rank_one_line_scan(Det2(), F, np.array([0.6, 0.8]), np.array([1.0, -2.0]), t_max=0.5)
    assert scan.verdict == "convex"
    assert abs(scan.min_second_difference) <= cm.convexity.MARGIN * 3.15


def test_rank_one_line_scan_guards():
    E = cm.builtin_energy("iso2d-klin2")
    e1 = np.array([1.0, 0.0])
    with pytest.raises(cm.LeavesGLPlus):
        cm.rank_one_line_scan(E, np.eye(2), -e1, e1, t_max=2.0)


def test_rank_one_line_scan_leaves_gl_plus_at_the_det_floor():
    # det F = 1e-301 > 0 on the whole segment, but below the det band [1e-100, 1e100],
    # where the energies refuse F: the scan raises its own LeavesGLPlus, which
    # scan_rank_one_convexity's confirmation step catches, not the energy's ConfmechError
    E = cm.builtin_energy("iso3d")
    e1 = np.array([1.0, 0.0, 0.0])
    F = np.diag([1e-101, 1e-100, 1e-100])
    with pytest.raises(cm.LeavesGLPlus, match=r"^F \+ t xi eta\^T, 0 <= t <= 1e-110, leaves GL\+: det = \S+ is below "
                       r"1e-100 \(matrix 0 of the stack\)$"):
        cm.rank_one_line_scan(E, F, e1, e1, t_max=1e-110)


@pytest.mark.parametrize("scale, side", [(1e-34, "below 1e-100"), (1e34, "above 1e\\+100")])
def test_rank_one_line_scan_leaves_gl_plus_on_both_sides_of_the_det_band(scale, side):
    # det = 1e-102 or 1e102: the energies refuse it, and the scan leaves GL+ the same way;
    # it raised the energy's plain ConfmechError, which scan_rank_one_convexity does not catch
    E = cm.builtin_energy("iso3d")
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(cm.LeavesGLPlus, match=r"leaves GL\+: det = \S+ is %s \(matrix 0 of the stack\)$" % side):
        cm.rank_one_line_scan(E, scale * np.eye(3), e1, e1, t_max=1e-40)


def test_knowles_sternberg_spot_values():
    rep = cm.knowles_sternberg(
        cm.ratio_minus_one_squared,
        2.0,
        1.0,
        derivatives=cm.ratio_minus_one_squared_derivatives,
    )
    assert not rep.coincident  # stretches are far from coincident: g11, g22, cond_ii, cond_iv, cond_v
    want = [2.0, 16.0, 8.0, np.sqrt(32.0), np.sqrt(32.0) + 16.0 / 3.0]
    assert np.all(np.abs(rep.values - want) <= 1e-12)
    assert rep.strict


def fd_g_partials(g, l1, l2):
    """Central-difference (g1, g2, g11, g22, g12) of g at stretches l1, l2, relative step 1e-5 per axis.

    The oracle of analytic stretch partials such as ratio_minus_one_squared_derivatives.
    """
    h1 = 1e-5 * l1
    h2 = 1e-5 * l2
    g1 = (g(l1 + h1, l2) - g(l1 - h1, l2)) / (2.0 * h1)
    g2 = (g(l1, l2 + h2) - g(l1, l2 - h2)) / (2.0 * h2)
    g11 = (g(l1 + h1, l2) - 2.0 * g(l1, l2) + g(l1 - h1, l2)) / (h1 * h1)
    g22 = (g(l1, l2 + h2) - 2.0 * g(l1, l2) + g(l1, l2 - h2)) / (h2 * h2)
    g12 = (
        g(l1 + h1, l2 + h2) - g(l1 + h1, l2 - h2) - g(l1 - h1, l2 + h2) + g(l1 - h1, l2 - h2)
    ) / (4.0 * h1 * h2)
    return g1, g2, g11, g22, g12


def fd_ratio_partials(l1, l2):
    return fd_g_partials(cm.ratio_minus_one_squared, l1, l2)


def test_knowles_sternberg_fd_route_agrees():
    rep = cm.knowles_sternberg(cm.ratio_minus_one_squared, 2.0, 1.0, derivatives=fd_ratio_partials)
    assert abs(rep.values[0] - 2.0) <= 1e-4
    assert abs(rep.values[1] - 16.0) <= 1e-4
    assert abs(rep.values[2] - 8.0) <= 1e-6
    assert rep.strict
    # the analytic partials against their oracle, on both branches and off the band
    l1, l2 = np.meshgrid(np.logspace(-1.0, 1.0, 15), np.logspace(-1.0, 1.0, 15) * 1.03)
    analytic = cm.ratio_minus_one_squared_derivatives(l1, l2)
    for got, want in zip(analytic, fd_ratio_partials(l1, l2), strict=True):
        assert np.all(np.abs(got - want) <= 1e-4 * (1.0 + np.abs(got)))


def test_knowles_sternberg_diagonal_band():
    rep = cm.knowles_sternberg(
        cm.ratio_minus_one_squared,
        1.0,
        1.0,
        derivatives=cm.ratio_minus_one_squared_derivatives,
    )
    # coincident stretches: conditions ii and iv are replaced by iii's two expressions
    assert rep.coincident and rep.strict
    assert rep.values.tolist() == [2.0, 2.0, 4.0, 4.0, 4.0]


def test_knowles_sternberg_symmetry_in_the_stretches():
    a = cm.knowles_sternberg(
        cm.ratio_minus_one_squared, 3.0, 0.5,
        derivatives=cm.ratio_minus_one_squared_derivatives,
    )
    b = cm.knowles_sternberg(
        cm.ratio_minus_one_squared, 0.5, 3.0,
        derivatives=cm.ratio_minus_one_squared_derivatives,
    )
    assert a.strict and b.strict
    assert abs(a.values[2] - b.values[2]) <= 1e-10


def test_ks_grid_scan_log_grid_all_strict():
    lams = np.logspace(-1.0, 1.0, 12)
    grid = cm.ks_grid_scan(
        cm.ratio_minus_one_squared, lams,
        derivatives=cm.ratio_minus_one_squared_derivatives,
    )
    assert grid.strict.shape == (12, 12) and grid.values.shape == (12, 12, 5)
    assert np.all(grid.strict)
    assert np.all(grid.values > 0.0)


def saddle(l1, l2):
    """Not elliptic: g11 g22 < 0, so cond_iv and cond_v are NaN off the band."""
    return l1 * l1 - l2 * l2


def fd_saddle_partials(l1, l2):
    return fd_g_partials(saddle, l1, l2)


@pytest.mark.parametrize(
    "g, derivatives",
    [
        (cm.ratio_minus_one_squared, cm.ratio_minus_one_squared_derivatives),
        (cm.ratio_minus_one_squared, fd_ratio_partials),
        (saddle, fd_saddle_partials),
    ],
)
def test_stacked_ks_grid_matches_one_point_reports(g, derivatives):
    # a log grid plus stretches inside (1 + 1e-7) and just outside (1 + 3e-6) the band
    lams = np.concatenate([np.logspace(-1.0, 1.0, 9), [1.0, 1.0 + 1e-7, 1.0 + 3e-6]])
    grid = cm.ks_grid_scan(g, lams, derivatives=derivatives)
    points = [cm.knowles_sternberg(g, a, b, derivatives=derivatives) for a in lams for b in lams]
    assert grid.values.shape == (12, 12, 5) and len(points) == 144
    assert np.any(grid.coincident) and not np.all(grid.coincident)
    for field, column in zip(cm.KSReport._fields, grid, strict=True):
        # the bits of each point's own report, NaN included
        stacked = np.stack([getattr(p, field) for p in points])
        assert stacked.tobytes() == column.reshape(stacked.shape).tobytes()
        assert stacked.dtype == column.dtype
    assert bool(np.all(grid.strict)) == (g is not saddle)
    # strict is the rule of the conditions: g11, g22 and cond_v hold, and cond_iii's two
    # expressions on the coincident-stretch band or cond_ii and cond_iv off it
    l1, l2 = grid.lambda1, grid.lambda2
    g1, g2, g11, g22, g12 = derivatives(l1, l2)
    margin = 1e-10 * (1.0 + np.abs(g(l1, l2)) + np.abs(g1) + np.abs(g2))
    root = np.sqrt(np.maximum(g11 * g22, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_ii = (l1 * g1 - l2 * g2) / (l1 - l2)
        cond_iv = np.where(g11 * g22 < 0.0, np.nan, root + g12 + (g1 - g2) / (l1 - l2))
    cond_iii = (g11 - g12 + g1 / l1, g22 - g12 + g2 / l2)
    cond_v = np.where(g11 * g22 < 0.0, np.nan, root - g12 + (g1 + g2) / (l1 + l2))

    def holds(v):
        return np.isfinite(v) & (v > margin)

    on_band = holds(cond_iii[0]) & holds(cond_iii[1])
    rule = holds(g11) & holds(g22) & np.where(grid.coincident, on_band, holds(cond_ii) & holds(cond_iv))
    assert np.array_equal(grid.strict, rule & holds(cond_v))


def test_one_point_knowles_sternberg_keeps_its_values_and_types():
    rep = cm.knowles_sternberg(
        cm.ratio_minus_one_squared, 2.0, 1.0, derivatives=cm.ratio_minus_one_squared_derivatives
    )
    # one pair: numpy scalars, and values one axis of 5
    assert (rep.lambda1, rep.lambda2) == (2.0, 1.0)
    assert type(rep.lambda1) is np.float64 and type(rep.strict) is np.bool_ and rep.strict
    assert rep.values.shape == (5,) and rep.values[:3].tolist() == [2.0, 16.0, 8.0]
    assert rep.values[3] == np.sqrt(32.0)
    diag = cm.knowles_sternberg(
        cm.ratio_minus_one_squared, 1.0, 1.0, derivatives=cm.ratio_minus_one_squared_derivatives
    )
    assert diag.values.tolist() == [2.0, 2.0, 4.0, 4.0, 4.0]
    assert all(type(v) is float for v in diag.values.tolist())


def test_ratio_minus_one_squared_derivative_closed_forms():
    g1, g2, g11, g22, g12 = cm.ratio_minus_one_squared_derivatives(2.0, 1.0)
    assert (g1, g2, g11, g22, g12) == (2.0, -4.0, 2.0, 16.0, -6.0)


def test_h_criterion_accepts_square_families():
    res = cm.h_criterion(lambda s: (s - 1.0) ** 2)
    assert res.convex and res.strictly_convex and res.increasing
    assert res.verdict == "strictly rank-one convex"
    res2 = cm.h_criterion(lambda s: s * s - 1.0)
    assert res2.convex and res2.increasing


def test_h_criterion_rejects_concave():
    res = cm.h_criterion(np.sqrt)
    assert not res.convex


@pytest.mark.parametrize(
    "h, verdict, strictly_convex, increasing",
    [
        (lambda s: s * s - 1.0, "strictly rank-one convex", True, True),
        # linear: convex and increasing, but not strictly convex
        (lambda s: s - 1.0, "rank-one convex", False, True),
        (np.sqrt, "not rank-one convex", False, True),
    ],
    ids=["s^2-1", "s-1", "sqrt"],
)
def test_h_criterion_verdicts(h, verdict, strictly_convex, increasing):
    res = cm.h_criterion(h)
    assert res.verdict == verdict
    assert (res.strictly_convex, res.increasing) == (strictly_convex, increasing)
    assert res.convex == (verdict != "not rank-one convex")


def test_scan_rank_one_convexity_builtins_strict():
    for name in cm.BUILTIN_ENERGIES:
        E = cm.builtin_energy(name)
        rep = cm.scan_rank_one_convexity(E, n_samples=300, seed=5)
        assert rep.verdict == "strictly-elliptic", (name, rep.verdict, rep.min_lh_form)
        assert rep.min_lh_form > 0.0
        assert rep.n_samples == 300
        assert len(rep.witnesses) == 3


def test_scan_rank_one_convexity_detects_violation():
    rep = cm.scan_rank_one_convexity(NegFrobenius(), n_samples=200, seed=1)
    assert rep.verdict == "violated"
    assert rep.min_lh_form < -1.0


def test_scan_borderline_verdict_needs_analytic_second_form():
    E = Det2()
    assert not E.analytic
    assert cm.scan_rank_one_convexity(E, n_samples=50, seed=5).verdict == "inconclusive"
    E.analytic = True
    assert cm.scan_rank_one_convexity(E, n_samples=50, seed=5).verdict == "elliptic"


def test_scan_minimum_and_witnesses_skip_nan():
    # seed 0 draws det F = 0.65, 9.07, 6.45: the LH values are [1.54, NaN, 0.155],
    # a NaN ahead of the minimum, which a sort on NaN keys leaves in place
    rep = cm.scan_rank_one_convexity(OverflowingForm(8.0), n_samples=3, seed=0)
    values = [w[3] for w in rep.witnesses]
    assert rep.min_lh_form == values[0] and 0.15 < values[0] < 0.16
    assert len(values) == 2 and 1.5 < values[1] < 1.6
    assert rep.verdict == "strictly-elliptic"
    nothing = cm.scan_rank_one_convexity(OverflowingForm(0.0), n_samples=3, seed=0)
    assert nothing.verdict == "inconclusive"
    assert np.isnan(nothing.min_lh_form) and nothing.witnesses == []


def test_scan_is_deterministic_for_fixed_seed():
    E = cm.builtin_energy("iso2d-psi")
    a = cm.scan_rank_one_convexity(E, n_samples=100, seed=9)
    b = cm.scan_rank_one_convexity(E, n_samples=100, seed=9)
    assert a.min_lh_form == b.min_lh_form


def sequential_draws(rng, dim, n):
    """The scan's (F, xi, eta), one sample at a time: F = Q1 diag(l) Q2 from Generator.uniform
    draws of the log-stretches and of the angles of Q1 and Q2, then xi, then eta."""
    conv = cm.convexity
    lo, hi = np.log(conv.STRETCH_RANGE[0]), np.log(conv.STRETCH_RANGE[1])
    a = conv.ANGLES[dim]
    draws = []
    for _ in range(n):
        logs = rng.uniform(lo, hi, size=dim)
        Q1 = conv._rotations(rng.uniform(0.0, 2.0 * np.pi, size=a))
        Q2 = conv._rotations(rng.uniform(0.0, 2.0 * np.pi, size=a))
        F = Q1 @ (np.exp(logs)[None, :] * np.eye(dim)) @ Q2
        draws.append((F, rng.standard_normal(dim), rng.standard_normal(dim)))
    return [np.array(column) for column in zip(*draws)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 3, 500])
def test_scan_block_draws_equal_the_one_sample_stream(dim, n):
    conv = cm.convexity
    for seed in (0, 1, 7, 123):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        one = np.random.default_rng(seed)
        U, xi, eta = conv._scan_draws(rng, dim, n)
        got = [conv._def_gradients(U, dim, conv.STRETCH_RANGE), xi, eta]
        singles = [
            (cm.random_def_gradient(one, dim), one.standard_normal(dim), one.standard_normal(dim))
            for _ in range(n)
        ]
        for want in (sequential_draws(ref, dim, n), [np.array(c) for c in zip(*singles)]):
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and np.array_equal(a, b)
        assert rng.bit_generator.state == ref.bit_generator.state == one.bit_generator.state


def test_random_rotation_and_def_gradient():
    rng = np.random.default_rng(2)
    for dim in (2, 3):
        R = cm.convexity._rotations(rng.uniform(0.0, 2.0 * np.pi, size=cm.convexity.ANGLES[dim]))
        assert np.allclose(R.T @ R, np.eye(dim), atol=1e-12)
        assert abs(cm.det(R) - 1.0) <= 1e-12
        F = cm.random_def_gradient(rng, dim, (0.5, 2.0))
        s = np.linalg.svd(F, compute_uv=False)
        assert s[0] <= 2.0 + 1e-9 and s[-1] >= 0.5 - 1e-9


@pytest.mark.filterwarnings("error")
def test_dimensions_and_line_ends_out_of_their_rules_are_refused_with_one_line():
    # KeyError: 4, KeyError: None and a TypeError from "%d" % None; an infinite t_max
    # warned in linspace, and a NaN one said "leaves GL+: det = nan"; t_max = 1e308
    # overflowed t xi eta^T in multiply, though det(I + t e1 e2^T) = 1 stays in the band
    class Dimless(cm.EnergyModel):
        def value(self, F):
            return np.zeros(np.shape(F)[:-2])

    rng = np.random.default_rng(0)
    E = cm.builtin_energy("iso3d")
    cases = [
        (lambda: cm.random_def_gradient(rng, 4), "dim must be the int 2 or 3, got 4"),
        (lambda: cm.random_def_gradient(rng, 2.0), "dim must be the int 2 or 3, got 2.0"),
        (lambda: cm.scan_rank_one_convexity(Dimless(), 5), "dim must be the int 2 or 3, got None"),
        (lambda: Dimless().first_derivative(np.eye(2)), "energy must set dim to 2 or 3, got dim = None"),
        (lambda: cm.rank_one_line_scan(E, np.eye(3), [1.0, 0, 0], [0, 1.0, 0], t_max=np.inf),
         "t_max must be finite, got inf"),
        (lambda: cm.rank_one_line_scan(E, np.eye(3), [1.0, 0, 0], [0, 1.0, 0], t_max=np.nan),
         "t_max must be finite, got nan"),
        (lambda: cm.rank_one_line_scan(E, np.eye(3), [2.0, 0, 0], [0, 1.0, 0], t_max=1e308),
         "F + t xi eta^T is not finite for 0 <= t <= t_max = 1e+308"),
    ]
    for call, line in cases:
        with pytest.raises(cm.ConfmechError) as exc:
            call()
        assert str(exc.value) == line
    assert cm.random_def_gradient(rng, np.int64(3)).shape == (3, 3)


@pytest.mark.filterwarnings("error")
def test_knowles_sternberg_refuses_stretches_that_are_not_finite_and_marks_overflow_not_strict():
    # an infinite stretch passed the positivity check and warned in a divide, and
    # (1e200, 1e-200) warned "divide by zero" in the partials
    g, dg = cm.ratio_minus_one_squared, cm.ratio_minus_one_squared_derivatives
    for l1, l2 in ((np.inf, 1.0), (1.0, np.nan), (2.0, -np.inf), ([1.5, np.inf], 0.5)):
        with pytest.raises(cm.ConfmechError) as exc:
            cm.knowles_sternberg(g, l1, l2, dg)
        assert str(exc.value) == "principal stretches must be positive and finite"
    one = cm.knowles_sternberg(g, 1.5, 0.5, dg)
    grid = cm.knowles_sternberg(g, [1e200, 1.5], [1e-200, 0.5], dg)
    assert one.strict and grid.strict.tolist() == [False, True]
    assert not np.isfinite(grid.values[0]).all()
    assert grid.values[1].tobytes() == one.values.tobytes()


@pytest.mark.filterwarnings("error")
def test_knowles_sternberg_past_the_float_range_of_a_power_is_not_strict():
    # b^4 = 1e400 in the partials: libm_pow raised "OverflowError: math range error"
    g, dg = cm.ratio_minus_one_squared, cm.ratio_minus_one_squared_derivatives
    report = cm.knowles_sternberg(g, 1e100, 1e100, dg)
    assert isinstance(report, cm.KSReport) and not report.strict


@pytest.mark.filterwarnings("error")
def test_lh_form_refuses_directions_whose_squared_lengths_overflow():
    # |xi|^2 |eta|^2 overflowed in vecdot, and the form came out NaN
    E = cm.builtin_energy("iso3d")
    for xi, eta, got in (
        ((1e200, 0.0, 0.0), (1e200, 0.0, 0.0), "inf"),
        ((np.inf, 0.0, 0.0), (0.0, 0.0, 0.0), "nan"),
        ((np.nan, 0.0, 0.0), (1.0, 0.0, 0.0), "nan"),
    ):
        with pytest.raises(cm.ConfmechError) as exc:
            cm.lh_form(E, np.eye(3), xi, eta)
        assert str(exc.value) == "|xi|^2 |eta|^2 must be finite, got %s" % got
    with pytest.raises(cm.ConfmechError, match="must be finite, got inf"):
        cm.lh_form(E, np.stack([np.eye(3)] * 2), [[1.0, 0.0, 0.0], [1e200, 0.0, 0.0]], [[0.0, 1.0, 0.0]] * 2)
    # a finite |xi|^2 |eta|^2 keeps the normalization
    assert abs(cm.lh_form(E, np.eye(3), (1e100, 0.0, 0.0), (1e-100, 0.0, 0.0)) - 8.0 / 3.0) <= 1e-10
