"""Field sampling, stress summaries, jump checks, CSV/JSON output, grid figures."""

import gc
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmech as cm
from test_conformal import AffineMap


def conformal_2x2(a, b):
    return np.array([[a, b], [-b, a]])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_lcg_reproducible_stream():
    g = cm.Lcg64(1)
    draws = [g.next_uniform() for _ in range(3)]
    assert draws == [0.2583139341082118, 0.6591820017156436, 0.7543423396746848]
    g2 = cm.Lcg64(1)
    assert [g2.next_uniform() for _ in range(3)] == draws
    # different seeds decorrelate immediately
    assert cm.Lcg64(2).next_uniform() != draws[0]


def test_lcg_uniform_range():
    g = cm.Lcg64(99)
    xs = [g.next_uniform() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_annulus_domain_validation():
    with pytest.raises(ValueError):
        cm.AnnulusDomain(4, 0.5, 0.9)
    with pytest.raises(ValueError):
        cm.AnnulusDomain(2, 0.9, 0.5)
    with pytest.raises(ValueError):
        cm.AnnulusDomain(2, 0.0, 0.5)
    with pytest.raises(ValueError):
        cm.AnnulusDomain(2, 0.5, 0.5)  # sample_annulus would never return


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, line", [
    # |x|^2 overflowed in vecdot: sample_annulus warned, kept no draw and never returned
    ((2, 0.5, 1e300), "annulus 0.5 <= |x| <= 1e+300 needs r_min >= 2^-511 and r_max sqrt(dim) <= "),
    # |x|^2 underflowed to 0 below every r_min: no draw was kept either
    ((2, 1e-300, 2e-300), "annulus 1e-300 <= |x| <= 2e-300 needs r_min >= 2^-511 "),
    # the box corners' |x|^2 overflowed, with a warning
    ((3, 0.5, 1e154), "annulus 0.5 <= |x| <= 1e+154 needs "),
    # accepted, then numpy's TypeError in sample_annulus
    ((2.0, 0.5, 0.9), "dim must be the int 2 or 3, got 2.0"),
], ids=["square-overflows", "square-underflows", "box-corner-overflows", "float-dim"])
def test_annulus_domain_refuses_what_the_sampler_cannot_draw(args, line):
    with pytest.raises(cm.ConfmechError) as exc:
        cm.AnnulusDomain(*args)
    assert str(exc.value).startswith(line) and "\n" not in str(exc.value)


@pytest.mark.filterwarnings("error")
def test_annulus_domain_at_its_radius_limits_samples():
    ceiling = cm.conformal.RADIUS_CEILING
    for dom in (cm.AnnulusDomain(2, 2.0**-511, 2.0**-510), cm.AnnulusDomain(np.int64(3), 1.0, ceiling / 2.0)):
        r = np.linalg.norm(cm.sample_annulus(dom, 50, seed=1), axis=1)
        assert np.all((r >= dom.r_min * (1.0 - 1e-14)) & (r <= dom.r_max * (1.0 + 1e-14)))


def test_admissible_annulus_radii():
    dom2 = cm.admissible_annulus("phi2d")
    assert dom2.dim == 2
    assert abs(dom2.r_min - (np.e + 2.0) ** -0.25) <= 1e-15
    assert abs(dom2.r_max - np.e**-0.25) <= 1e-15
    dom3 = cm.admissible_annulus("phi3d")
    assert dom3.dim == 3
    assert abs(dom3.r_min - (np.e + 2.0) ** (-1.0 / 6.0)) <= 1e-15
    assert abs(dom3.r_max - np.e ** (-1.0 / 6.0)) <= 1e-15
    with pytest.raises(cm.ConfmechError, match=r"^splice point c = 1\.0 must be finite and strictly above e$"):
        cm.admissible_annulus("phi2d", c=1.0)
    with pytest.raises(ValueError):
        cm.admissible_annulus("phi9d")


def test_admissible_annulus_det_band():
    # on the admissible annulus the jacobian determinant spans exactly [e, c]
    for kind, power in (("phi2d", 2), ("phi3d", 3)):
        dom = cm.admissible_annulus(kind)
        phi = cm.InversionFlip(dom.dim)
        for pt in cm.sample_annulus(dom, 200, seed=6):
            d = cm.det(phi.gradient(pt))
            assert np.e - 1e-9 <= d <= np.e + 2.0 + 1e-9


def test_sample_annulus_in_bounds_and_seeded():
    dom = cm.AnnulusDomain(2, 0.4, 0.9)
    pts = cm.sample_annulus(dom, 500, seed=12)
    radii = [float(np.sqrt(p @ p)) for p in pts]
    assert len(pts) == 500
    assert min(radii) >= 0.4 and max(radii) <= 0.9
    again = cm.sample_annulus(dom, 500, seed=12)
    assert all(np.array_equal(a, b) for a, b in zip(pts, again))
    other = cm.sample_annulus(dom, 500, seed=13)
    assert not np.array_equal(pts[0], other[0])


def test_stress_field_homogeneous_on_admissible_annulus():
    E = cm.builtin_energy("composite2d")
    phi = cm.InversionFlip(2)
    dom = cm.admissible_annulus("phi2d")
    samples, summary = cm.stress_field(E, phi, dom, n=300, seed=3)
    assert len(samples) == 300
    assert summary.homogeneous and summary.admissible
    assert summary.max_deviation <= 1e-10
    assert np.max(np.abs(summary.mean_sigma - (2.0 / np.e) * np.eye(2))) <= 1e-12
    lo, hi = summary.det_range
    assert lo >= np.e - 1e-9 and hi <= np.e + 2.0 + 1e-9


def test_stress_field_klin2_is_stress_free():
    E = cm.builtin_energy("iso2d-klin2")
    phi = cm.InversionFlip(2)
    dom = cm.admissible_annulus("phi2d")
    samples, summary = cm.stress_field(E, phi, dom, n=300, seed=3)
    assert summary.homogeneous
    assert all(np.all(s.sigma == 0.0) for s in samples)


def test_the_smooth_planar_composite_is_homogeneous_on_phi2d_with_and_without_fd_gradients():
    # (K - 1) + f(det F): its iso part is smooth on CSO(2), where composite2d's klin2 has a corner,
    # so its field holds with finite-difference gradients too, and composite2d's does not
    E, phi, dom = cm.CompositeEnergy(cm.DistortionEnergy(), cm.VolumetricTerm()), cm.InversionFlip(2), \
        cm.admissible_annulus("phi2d")
    _, exact = cm.stress_field(E, phi, dom, n=1000, seed=1, tol=1e-10)
    assert exact.homogeneous and exact.admissible and exact.max_deviation <= 1e-13
    _, fd = cm.stress_field(E, phi, dom, n=1000, seed=1, tol=1e-5, use_fd=True)
    assert fd.homogeneous and fd.max_deviation <= 1e-9
    _, corner = cm.stress_field(cm.builtin_energy("composite2d"), phi, dom, n=1000, seed=1, tol=1e-5, use_fd=True)
    assert not corner.homogeneous and corner.max_deviation > 1.0


def test_stress_field_warns_and_reports_inhomogeneous_outside_band():
    E = cm.builtin_energy("composite2d")
    phi = cm.InversionFlip(2)
    wide = cm.AnnulusDomain(2, 0.5, 0.95)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        _, summary = cm.stress_field(E, phi, wide, n=400, seed=11)
    assert any(issubclass(w.category, cm.InadmissibleDomainWarning) for w in wlist)
    assert not summary.admissible
    assert not summary.homogeneous
    assert summary.max_deviation > 1e-2


def test_stress_field_fd_route_close_to_analytic():
    E = cm.builtin_energy("composite3d")
    phi = cm.InversionFlip(3)
    dom = cm.admissible_annulus("phi3d")
    _, s_an = cm.stress_field(E, phi, dom, n=50, seed=2)
    _, s_fd = cm.stress_field(E, phi, dom, n=50, seed=2, use_fd=True)
    assert np.max(np.abs(s_an.mean_sigma - s_fd.mean_sigma)) <= 1e-5


def test_stress_field_deterministic():
    E = cm.builtin_energy("composite3d")
    phi = cm.InversionFlip(3)
    dom = cm.admissible_annulus("phi3d")
    a, sa = cm.stress_field(E, phi, dom, n=40, seed=8)
    b, sb = cm.stress_field(E, phi, dom, n=40, seed=8)
    assert all(np.array_equal(p.x, q.x) for p, q in zip(a, b))
    assert sa.max_deviation == sb.max_deviation


def test_affine_reference_check():
    # constant-gradient control: the field of x -> A x is homogeneous to rounding
    E = cm.builtin_energy("iso2d-psi")
    dom = cm.AnnulusDomain(2, 0.4, 0.9)
    A = np.array([[1.2, 0.3], [-0.1, 0.9]])
    samples, summary = cm.stress_field(E, AffineMap(A, np.zeros(2)), dom, n=50, seed=1, tol=1e-14)
    assert summary.homogeneous and np.all(samples.sigma == E.cauchy_stress(A))
    assert np.any(samples.sigma != 0.0)


def test_field_of_an_energy_that_does_not_take_stacks_is_refused():
    class OneMatrixValue(cm.EnergyModel):
        dim = 2

        def value(self, F):
            return float(np.sum(self._check_dim(F) ** 2))

    class OneStress(OneMatrixValue):
        def value(self, F):
            return np.sum(self._check_dim(F) ** 2, axis=(-2, -1))

        def cauchy_stress(self, F):
            return np.eye(2)

    dom = cm.AnnulusDomain(2, 0.5, 0.9)
    with pytest.raises(cm.ConfmechError, match=r"value has shape \(\) \(want \(5,\)\)"):
        cm.stress_field(OneMatrixValue(), cm.InversionFlip(2), dom, 5)
    with pytest.raises(cm.ConfmechError, match=r"cauchy_stress has shape \(2, 2\) \(want \(5, 2, 2\)\)"):
        cm.stress_field(OneStress(), AffineMap(np.eye(2), np.zeros(2)), dom, 5)


def test_jump_check_conformal_pair():
    F1 = conformal_2x2(1.0, 2.0)
    F2 = conformal_2x2(3.0, -1.0)
    rep = cm.jump_check(F1, F2)
    # det(F1 - F2) = (a1-a2)^2 + (b1-b2)^2 = 4 + 9
    assert rep.det_difference == 13.0
    assert rep.det_square_terms == (4.0, 9.0)
    assert rep.rank == 2
    assert not rep.rank_one_connected


def test_jump_check_random_conformal_pairs():
    rng = np.random.default_rng(14)
    for _ in range(500):
        a1, b1, a2, b2 = rng.uniform(-3.0, 3.0, size=4)
        F1, F2 = conformal_2x2(a1, b1), conformal_2x2(a2, b2)
        if abs(a1 - a2) + abs(b1 - b2) < 1e-9:
            continue
        rep = cm.jump_check(F1, F2)
        expect = (a1 - a2) ** 2 + (b1 - b2) ** 2
        assert abs(rep.det_difference - expect) <= 1e-12 * max(1.0, expect)
        assert rep.det_difference > 0.0
        assert rep.rank == 2 and not rep.rank_one_connected


def test_jump_check_rank_one_pair():
    # the canonical compatible pair: gradients differing by e1 (x) e2
    F1 = np.eye(2)
    F2 = np.eye(2) + np.outer([1.0, 0.0], [0.0, 1.0])
    rep = cm.jump_check(F1, F2)
    assert rep.rank == 1
    assert rep.rank_one_connected
    assert abs(rep.det_difference) <= 1e-15


def test_jump_check_exact_rank_one_jumps():
    # F2 = F1 + a (x) b: eigenvalues of D^T D lose the zero singular values
    # to cancellation, so the rank must come from an SVD of D itself
    rng = np.random.default_rng(31)
    for dim in (2, 3):
        for _ in range(500):
            F1 = cm.random_def_gradient(rng, dim)
            F2 = F1 + np.outer(rng.standard_normal(dim), rng.standard_normal(dim))
            rep = cm.jump_check(F1, F2)
            assert rep.rank == 1 and rep.rank_one_connected


def test_jump_check_equal_pair_rank_zero():
    F = conformal_2x2(1.5, -0.5)
    rep = cm.jump_check(F, F)
    assert rep.rank == 0
    assert not rep.rank_one_connected


def numpy_scalar_jump(F1, F2, tol):
    """(singular values, rank, det, square terms) of F1 - F2 by the formulas before the Python-float route.

    The rank is a generator sum over np.linalg.svd's values, and det the
    cofactor expansion on numpy scalars D[i, j].
    """
    e1, e2 = F1.ravel().tolist(), F2.ravel().tolist()
    n1, n2 = math.hypot(*e1), math.hypot(*e2)
    D = F1 - F2
    svals = np.linalg.svd(D, compute_uv=False)
    thresh = tol * (1.0 + n1 + n2)
    rank = sum(v > thresh for v in svals.tolist())
    if D.shape == (2, 2):
        det = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    else:
        det = (
            D[0, 0] * (D[1, 1] * D[2, 2] - D[1, 2] * D[2, 1])
            - D[0, 1] * (D[1, 0] * D[2, 2] - D[1, 2] * D[2, 0])
            + D[0, 2] * (D[1, 0] * D[2, 1] - D[1, 1] * D[2, 0])
        )
    square_terms = None
    if len(e1) == 4:
        s1, s2 = 1e-8 * max(1.0, n1), 1e-8 * max(1.0, n2)
        if (abs(e1[0] - e1[3]) <= s1 and abs(e1[1] + e1[2]) <= s1
                and abs(e2[0] - e2[3]) <= s2 and abs(e2[1] + e2[2]) <= s2):
            square_terms = ((e1[0] - e2[0]) ** 2, (e1[1] - e2[1]) ** 2)
    return svals, rank, det, square_terms


def jump_pairs(rng, dim, k):
    """(F1, F2, tol) for k random, k exactly rank-one, k nearly rank-one and, in 2D, k similarity pairs.

    A nearly rank-one pair takes tol so that the rank threshold lies within
    3 ulps of the second singular value of F1 - F2.
    """
    out = []
    for _ in range(k):
        out.append((cm.random_def_gradient(rng, dim), cm.random_def_gradient(rng, dim), 1e-9))
        F1 = cm.random_def_gradient(rng, dim)
        out.append((F1, F1 + np.outer(rng.standard_normal(dim), rng.standard_normal(dim)), 1e-9))
        nudge = 10.0 ** rng.uniform(-14, -6) * rng.standard_normal((dim, dim))
        F2 = F1 + np.outer(rng.standard_normal(dim), rng.standard_normal(dim)) + nudge
        s2 = np.linalg.svd(F1 - F2, compute_uv=False)[1]
        tol = s2 / (1.0 + np.linalg.norm(F1) + np.linalg.norm(F2))
        step = int(rng.integers(-3, 4))
        for _ in range(abs(step)):
            tol = np.nextafter(tol, math.copysign(np.inf, step))
        out.append((F1, F2, float(tol)))
        if dim == 2:
            a1, b1, a2, b2 = rng.uniform(-3.0, 3.0, size=4) * 10.0 ** rng.integers(-3, 4)
            # a similarity on the edge of the 1e-8 band now and then
            skew = 1e-8 * max(1.0, math.hypot(a1, b1, b1, a1)) * rng.choice([0.0, 0.5, 1.0, 1.5])
            out.append((conformal_2x2(a1, b1) + [[skew, 0.0], [0.0, 0.0]], conformal_2x2(a2, b2), 1e-9))
    return out


def degenerate_jump_pairs(rng, dim):
    """(F1, F2) with F1 - F2 zero, rank one, with a zero row, diagonal or subnormal, at scales 5e-324 to 1e100.

    Entries stay within scale / (3 dim), so |F1| + |F2| <= scale / 2, inside JUMP_NORM_MAX.
    """
    out = []
    for scale in (5e-324, 1e-310, 1e-300, 1e-150, 1.0, 1e50, 1e100):
        for _ in range(20):
            F1 = rng.uniform(-1.0, 1.0, (dim, dim)) / (6 * dim)
            row = rng.uniform(-1.0, 1.0, (dim, dim)) / (6 * dim)
            row[int(rng.integers(dim))] = 0.0
            differences = (
                np.zeros((dim, dim)),
                np.outer(rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)) / (6 * dim),
                row,
                np.diag(rng.uniform(-1.0, 1.0, dim)) / (6 * dim),
            )
            out += [(scale * F1, scale * (F1 - D)) for D in differences]
            # subnormal entries, integer multiples of the smallest one
            k = rng.integers(-40, 41, (2, dim, dim)).astype(float)
            out.append((k[0] * 5e-324, k[1] * 5e-324))
    return out


@pytest.mark.filterwarnings("error")
def test_jump_check_has_the_bits_of_the_numpy_scalar_formulas():
    rng = np.random.default_rng(2024)
    pairs = jump_pairs(rng, 2, 1500) + jump_pairs(rng, 3, 1500)
    assert len(pairs) >= 10_000
    pairs += [(F1, F2, 1e-9) for F1, F2 in degenerate_jump_pairs(rng, 2) + degenerate_jump_pairs(rng, 3)]
    ranks, dets = set(), {2: [], 3: []}
    for F1, F2, tol in pairs:
        rep = cm.jump_check(F1, F2, tol=tol)
        svals, rank, det, square_terms = numpy_scalar_jump(F1, F2, tol)
        assert rep.difference_singular_values.tobytes() == svals.tobytes()
        assert rep.rank == rank and rep.rank_one_connected == (rank == 1)
        assert type(rep.det_difference) is np.float64 and float(rep.det_difference).hex() == float(det).hex()
        assert rep.det_square_terms == square_terms
        assert float(cm.det(F1 - F2)).hex() == float(det).hex()
        ranks.add((F1.shape[0], rank, square_terms is not None))
        dets[F1.shape[0]].append((F1 - F2, det))
    # the stacked route, on a (k, n, n) stack and on a (k/5, 5, n, n) one, has the same bits
    for group in dets.values():
        stack, want = np.array([D for D, _ in group]), np.array([d for _, d in group])
        assert cm.det(stack).tobytes() == want.tobytes()
        assert cm.det(stack.reshape(-1, 5, *stack.shape[1:])).tobytes() == want.tobytes()
    # every kind of pair came out: full rank, rank one, both sides of the threshold, similarities, zero jumps
    assert {(2, 0, False), (2, 1, False), (2, 2, False), (2, 2, True), (3, 0, False), (3, 1, False), (3, 2, False),
            (3, 3, False)} <= ranks


def strided(M):
    """M as a non-contiguous view: every other row and column of a larger array."""
    big = np.zeros((2 * len(M), 2 * len(M)))
    big[::2, ::2] = M
    return big[::2, ::2]


def as_matrix(M):
    """M as an np.matrix, without numpy's warning that the subclass is not recommended."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(M)


# inputs that skip as_square's call (a float64 np.ndarray) and inputs that go through it
JUMP_INPUTS = {
    "list": lambda M: M.tolist(),
    "int": lambda M: np.rint(4.0 * M).astype(np.int64),
    "float32": lambda M: M.astype(np.float32),
    "big-endian": lambda M: M.astype(">f8"),
    "fortran": np.asfortranarray,
    "strided": strided,
    "matrix": as_matrix,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", JUMP_INPUTS)
def test_jump_check_takes_each_kind_of_matrix_as_its_float64_c_array(kind):
    rng = np.random.default_rng(32)
    pairs = [(conformal_2x2(1.0, 2.0), conformal_2x2(3.0, -1.0)), (np.eye(3), 2.0 * np.eye(3))]
    for dim in (2, 3):
        for _ in range(20):
            F1 = cm.random_def_gradient(rng, dim)
            pairs.append((F1, F1 + np.outer(rng.standard_normal(dim), rng.standard_normal(dim))))
            pairs.append((F1, cm.random_def_gradient(rng, dim)))
    convert = JUMP_INPUTS[kind]
    for F1, F2 in pairs:
        A1, A2 = convert(F1), convert(F2)
        rep = cm.jump_check(A1, A2)
        C1, C2 = np.ascontiguousarray(A1, dtype=float), np.ascontiguousarray(A2, dtype=float)
        svals, rank, det, square_terms = numpy_scalar_jump(C1, C2, 1e-9)
        assert rep.difference_singular_values.tobytes() == svals.tobytes()
        assert type(rep.rank) is int and rep.rank == rank
        assert type(rep.det_difference) is np.float64 and float(rep.det_difference).hex() == float(det).hex()
        assert rep.det_square_terms == square_terms and rep.rank_one_connected == (rank == 1)


@pytest.mark.filterwarnings("error")
def test_jump_check_takes_each_kind_of_tolerance_as_its_float():
    rng = np.random.default_rng(33)
    F1 = cm.random_def_gradient(rng, 3)
    F2 = F1 + np.outer(rng.standard_normal(3), rng.standard_normal(3))
    for tol in (0, 0.0, np.float64(1e-9), 1e-9, 5e-324, np.float64(5e-324), 1, np.float32(0.5)):
        rep = cm.jump_check(F1, F2, tol=tol)
        svals, rank, det, _ = numpy_scalar_jump(F1, F2, float(tol))
        assert rep.difference_singular_values.tobytes() == svals.tobytes()
        assert type(rep.rank) is int and rep.rank == rank, tol
        assert type(rep.det_difference) is np.float64 and float(rep.det_difference).hex() == float(det).hex()
    assert [cm.jump_check(F1, F2, tol=tol).rank for tol in (0, 5e-324, 1e-9, 1)] == [3, 3, 1, 0]


def test_jump_and_ks_reports_refuse_attribute_assignment():
    rep = cm.jump_check(np.eye(2), 2.0 * np.eye(2))
    g, partials = cm.ratio_profile(lambda s: (s - 1.0) ** 2, lambda s: 2.0 * (s - 1.0), lambda s: 2.0)
    ks = cm.knowles_sternberg(g, 1.5, 0.5, partials)
    for report, name, value in ((rep, "rank", 1), (ks, "strict", False)):
        with pytest.raises(AttributeError):
            setattr(report, name, value)
    assert rep.rank == 2 and rep._fields[0] == "difference_singular_values"
    assert ks._fields == ("lambda1", "lambda2", "values", "coincident", "strict")


def test_field_csv_schema_and_determinism(tmp_path):
    E = cm.builtin_energy("composite2d")
    phi = cm.InversionFlip(2)
    dom = cm.admissible_annulus("phi2d")
    samples, _ = cm.stress_field(E, phi, dom, n=25, seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cm.write_field_csv(p1, samples)
    samples2, _ = cm.stress_field(E, phi, dom, n=25, seed=4)
    cm.write_field_csv(p2, samples2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2  # byte-for-byte reproducible
    header = b1.decode().splitlines()[0]
    assert header == "x1,x2,detF,s11,s12,s21,s22,energy"
    assert len(b1.decode().splitlines()) == 26
    assert sha256(p1) == "b429798bb12057c6920e4fa6ef9360d84d361341ce91daf0c5015123b28ab3aa"


def test_field_csv_3d_header(tmp_path):
    E = cm.builtin_energy("composite3d")
    phi = cm.InversionFlip(3)
    dom = cm.admissible_annulus("phi3d")
    samples, _ = cm.stress_field(E, phi, dom, n=5, seed=4)
    path = tmp_path / "f3.csv"
    cm.write_field_csv(path, samples)
    header = path.read_text().splitlines()[0]
    assert header.startswith("x1,x2,x3,detF,s11,s12,s13,s21")
    assert header.endswith("s33,energy")
    assert sha256(path) == "ee07182fb0b32fddebe37eb7925f90830f15ad63935ddd6f3f2ba03c4db6ada0"


def test_field_csv_demo_bytes(tmp_path):
    # the field demos/04_stress_field_counterexample.py writes
    E = cm.builtin_energy("composite2d")
    samples, _ = cm.stress_field(E, cm.InversionFlip(2), cm.admissible_annulus("phi2d"), n=200, seed=0)
    path = tmp_path / "composite2d_field.csv"
    cm.write_field_csv(path, samples)
    assert sha256(path) == "ff3c8a2fe963d6640c5001be1f73d8da17aa1e688a9aacba0c65c819daccf73b"


def test_field_csv_rejects_empty():
    with pytest.raises(ValueError):
        cm.write_field_csv("/tmp/never-written.csv", [])


def one_template_csv(samples):
    """The CSV of samples with %.17g formatted on every cell, as one template."""
    n, dim = samples.x.shape
    header = ["x%d" % (i + 1) for i in range(dim)] + ["detF"]
    header += ["s%d%d" % (i + 1, j + 1) for i in range(dim) for j in range(dim)] + ["energy"]
    table = np.column_stack([samples.x, samples.det_F, samples.sigma.reshape(n, -1), samples.energy])
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    return (",".join(header) + "\r\n" + (row * n) % tuple(table.ravel().tolist())).encode()


# signed zeros, NaNs of three bit patterns, infinities, subnormals, the criterion-1 stress
EDGE_VALUES = [
    0.0, -0.0, np.nan, -np.nan, np.uint64(0x7FF8000000000001).view(np.float64),
    np.inf, -np.inf, 5e-324, -2.5e-310, 2.0 / np.e, 1.0 / 3.0,
]
cell_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=True, allow_infinity=True))


def float_bits(v):
    return np.float64(v).view(np.uint64).item()


@st.composite
def adversarial_fields(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    size = n * (dim * dim + dim + 2)
    kind = draw(st.sampled_from(["all equal", "all distinct", "few values", "edge values"]))
    if kind == "all equal":
        cells = [draw(cell_values)] * size
    elif kind == "all distinct":
        cells = draw(st.lists(cell_values, min_size=size, max_size=size, unique_by=float_bits))
    else:
        pool = draw(st.lists(cell_values, min_size=1, max_size=4)) if kind == "few values" else EDGE_VALUES
        cells = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    table = np.array(cells, dtype=np.float64).reshape(n, -1)
    sigma = table[:, dim + 1:-1].reshape(n, dim, dim).copy()
    if draw(st.booleans()):
        i, j = np.triu_indices(dim, 1)
        sigma[:, j, i] = sigma[:, i, j]
    return cm.FieldSamples(table[:, :dim], np.zeros((n, dim, dim)), table[:, dim], sigma, table[:, -1])


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(adversarial_fields())
def test_field_csv_bytes_match_one_template_per_cell(tmp_path_factory, samples):
    path = tmp_path_factory.getbasetemp() / "adversarial.csv"
    cm.write_field_csv(path, samples)
    assert path.read_bytes() == one_template_csv(samples)


def assert_g17_texts(values):
    values = np.asarray(values, dtype=np.float64)
    got = cm.fields._g17_texts(values).tolist()
    want = [("%.17g" % v).encode() for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]


EXPONENT_BITS = np.uint64(0x7FF << 52)


@st.composite
def bit_batches(draw):
    """1 000 to 4 000 distinct raw 64-bit patterns, sorted as np.unique sorts the CSV cells.

    Half the batches keep their exponents in a drawn window, so that runs of
    one decade and sign are long in any part of the range.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, size=draw(st.integers(1000, 4000)), dtype=np.uint64)
    if draw(st.booleans()):
        low, high = sorted([draw(st.integers(0, 0x7FF)), draw(st.integers(0, 0x7FF))])
        exponents = rng.integers(low, high + 1, size=len(bits)).astype(np.uint64)
        bits = (bits & ~EXPONENT_BITS) | (exponents << np.uint64(52))
    return np.unique(bits)


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(bit_batches())
def test_g17_kernel_gives_the_texts_of_percent_17g(bits):
    assert_g17_texts(bits.view(np.float64))


def test_g17_kernel_at_zeros_nans_subnormals_powers_of_ten_and_ties():
    special = np.array(
        [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
         0x7FF0000000000001, 0xFFF4000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
         0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(np.float64)
    powers = np.array([float("1e%d" % k) for k in range(-300, 301)])
    near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    # exact ties at the 17th digit: the kernel leaves them to '%.17g' itself
    ties = [1234567890123456.75, 1234567890123456.25, -1234567890123456.25]
    values = np.concatenate([special, near, -near, ties])
    assert_g17_texts(values)  # in this order: runs of one value
    assert_g17_texts(np.unique(values.view(np.uint64)).view(np.float64))
    assert cm.fields._g17_texts(np.array(ties)).tolist() == [
        b"1234567890123456.8", b"1234567890123456.2", b"-1234567890123456.2"
    ]


# characters the escaper must treat apart: quotes, backslashes, control characters, non-ASCII
JSON_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028", "\U0001f600"])
json_keys = st.text(st.one_of(JSON_AWKWARD, st.characters()), max_size=8)
json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and -0.0 too
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1.5, 0.1, 1.7976931348623157e308]),
)
json_scalars = st.one_of(
    json_floats,
    json_floats.map(np.float64),
    st.integers(-(2**70), 2**70),
    st.integers(2**64, 2**200),
    st.booleans(),
    st.none(),
    json_keys,
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple), st.dictionaries(json_keys, inner, max_size=6)
    ),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(json_payloads)
def test_json_text_is_the_text_of_json_dumps(payload):
    assert cm.fields.json_text(payload) == json.dumps(payload, indent=2, allow_nan=False)


def test_json_text_keeps_the_sign_of_each_zero_next_to_a_repeated_float():
    # 0.0 == -0.0 as dict keys: a memo that held zeros would give the second one the first one's text
    payload = {"a": [0.0, -0.0, 1.5, 1.5, -0.0, 0.0], "b": -0.0, "c": (1.5, np.float64(-0.0), np.float64(0.0)), "d": 0.0}
    text = cm.fields.json_text(payload)
    assert text == json.dumps(payload, indent=2, allow_nan=False)
    assert text.count("-0.0") == 4 and text.count("1.5") == 3


def test_json_text_leaves_no_reference_cycle():
    # pieces held by a reference cycle stay alive until the cycle collector runs, and show in the peak RSS
    payload = {"a": [1.5, {"b": [2.5, "c"]}], "d": (0.0, None)}
    gc.collect()
    gc.disable()
    try:
        cm.fields.json_text(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "payload, words",
    [
        ({1: 2.0}, "keys must be str, not int"),
        ({"a": np.array([1.0, 2.0])}, "Object of type ndarray is not JSON serializable"),
        ([np.float32(1.5)], "Object of type float32 is not JSON serializable"),
        ({"a": {1.5}}, "Object of type set is not JSON serializable"),
        ([1.0, [math.inf]], "Out of range float values are not JSON compliant: inf"),
        # a key at depth, inside a tuple, a list and a dict
        ([({"a": {(1, 2): 0.5}},)], "keys must be str, not tuple"),
        # json.dumps writes the key True as "true"; json_text refuses it
        ({True: 1.0}, "keys must be str, not bool"),
    ],
)
def test_json_text_refuses_what_json_has_no_text_for_with_one_line(payload, words):
    with pytest.raises(cm.ConfmechError) as exc:
        cm.fields.json_text(payload)
    assert str(exc.value) == "the result is not valid JSON: " + words


def test_summary_json_round_trip(tmp_path):
    E = cm.builtin_energy("composite2d")
    phi = cm.InversionFlip(2)
    dom = cm.admissible_annulus("phi2d")
    _, summary = cm.stress_field(E, phi, dom, n=30, seed=9)
    path = tmp_path / "summary.json"
    cm.write_summary_json(path, summary)
    loaded = json.loads(path.read_text())
    assert loaded["n_samples"] == 30
    assert loaded["homogeneous"] is True
    assert loaded["admissible"] is True
    assert abs(loaded["mean_sigma"][0][0] - 2.0 / np.e) <= 1e-12
    assert set(loaded) == {
        "n_samples",
        "mean_sigma",
        "max_deviation",
        "det_range",
        "admissible",
        "homogeneous",
        "worst_point",
    }
    worst = loaded["worst_point"]
    assert set(worst) == {"x", "F", "det_F", "sigma", "deviation"}
    assert worst["deviation"] == loaded["max_deviation"]


def test_grid_polylines_inside_region():
    region = cm.DiskRegion(np.array([0.5, 0.0]), 0.21)
    lines = cm.grid_polylines(region, spacing=0.0147 * 4)
    assert len(lines) > 4
    for line in lines:
        r = np.sqrt(np.sum((line - region.center) ** 2, axis=1))
        assert np.all(r <= region.radius + 1e-9)
    # last polyline is the closed boundary outline
    outline = lines[-1]
    assert np.allclose(outline[0], outline[-1], atol=1e-12)


def test_deform_polylines_applies_map(tmp_path):
    region = cm.DiskRegion(np.array([0.5, 0.0]), 0.2)
    phi = cm.InversionFlip(2)
    lines, images = cm.render_grid_svg(phi, region, tmp_path / "grid.svg", spacing=0.1)
    ref = cm.grid_polylines(region, spacing=0.1)
    assert len(lines) == len(ref) and all(np.array_equal(a, b) for a, b in zip(lines, ref))
    assert len(images) == len(lines)
    for src, img in zip(lines, images):
        k = len(src) // 2
        assert np.allclose(img[k], phi(src[k]), atol=1e-12)


def test_render_grid_svg(tmp_path):
    region = cm.DiskRegion(np.array([0.5, 0.0]), 0.21)
    phi = cm.InversionFlip(2)
    out = tmp_path / "grid.svg"
    ref, img = cm.render_grid_svg(phi, region, out, spacing=0.0147 * 3)
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == len(ref) + len(img)
    assert text.count("<circle") == 2 * 9  # 8 boundary markers + center, per panel
    assert len(ref) == len(img)


def per_chord_polylines(region, spacing, samples_per_line):
    """grid_polylines one chord at a time in Python floats: a copy of the loop the array formulas replaced."""
    cx, cy = region.center
    r = region.radius
    lines = []
    for axis, (a, b) in enumerate(((cx, cy), (cy, cx))):
        for k in range(int(np.ceil((a - r) / spacing)), int(np.floor((a + r) / spacing)) + 1):
            level = k * spacing
            half = r * r - (level - a) ** 2
            if half <= 0.0:
                continue
            half = np.sqrt(half)
            along = np.linspace(b - half, b + half, samples_per_line)
            chord = [np.full_like(along, level), along]
            lines.append(np.column_stack(chord[::-1] if axis else chord))
    ang = np.linspace(0.0, 2.0 * np.pi, 2 * samples_per_line)
    lines.append(np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)]))
    return lines


def assert_grid_polylines_match_the_per_chord_loop(region, spacing, n):
    lines, want = cm.grid_polylines(region, spacing, n), per_chord_polylines(region, spacing, n)
    assert len(lines) == len(want), (region, spacing, n)
    for got, line in zip(lines, want):
        assert got.shape == line.shape and got.tobytes() == line.tobytes(), (region, spacing, n)
    return want


def test_array_grid_polylines_match_the_per_chord_loop_bit_for_bit():
    # a disk so far from the axis that its rim chords have b - half == b + half: there one
    # np.linspace over all chords takes its zero-step route for every chord, and moves
    # points of the others by an ulp of b
    far = cm.DiskRegion((0.0, 4503599627382841.0), 25.0)
    assert_grid_polylines_match_the_per_chord_loop(far, 1.2499999999999991, 41)
    rng = np.random.default_rng(2020)
    rim = flat = 0
    for i in range(1200):
        r = float(10.0 ** rng.uniform(-3.0, 3.0))
        spacing = r / int(rng.integers(1, 9)) if i % 2 else r / rng.uniform(0.3, 8.0)
        spacing *= 1.0 + 2.0**-52 * int(rng.integers(-2, 3))
        # a center on the grid and a spacing of r / k, or next to it, put levels on and next to the rim
        center = rng.integers(-3, 4, 2) * spacing if i % 3 else rng.uniform(-3.0, 3.0, 2) * r
        if i % 4 == 1:
            # so far from the axis that b - half == b + half on a chord next to the rim
            center[1] = r * 10.0 ** rng.uniform(7.0, 12.0)
        region = cm.DiskRegion(center if i % 5 else tuple(center.tolist()), r)
        n = int(rng.choice([1, 2, 7, 41, 42]))
        want = assert_grid_polylines_match_the_per_chord_loop(region, spacing, n)
        extents = [np.ptp(line, axis=0).max() for line in want[:-1] if n > 1]
        rim += any(0.0 < e <= 1e-6 * r for e in extents)
        flat += any(e == 0.0 for e in extents)
    # both edge cases were drawn
    assert rim > 10 and flat > 10, (rim, flat)


@pytest.mark.parametrize("spacing", [0.0, -0.1, np.inf, np.nan])
def test_grid_polylines_refuses_a_spacing_not_finite_and_above_zero(spacing):
    # 0.0 raised ZeroDivisionError; -0.1 drew the outline alone
    with pytest.raises(cm.ConfmechError, match=r"^grid spacing must be finite and greater than 0, got "):
        cm.grid_polylines(cm.DiskRegion((0.5, 0.0), 0.21), spacing)


def test_grid_polylines_refuses_a_chord_index_past_two_to_the_53():
    # k spacing is not exact past 2^53; at 1e300 the grid was one degenerate chord
    message = r"^spacing 0\.1: chord index \(\|c\| \+ r\) / spacing = 1e\+301 > 2\^53$"
    with pytest.raises(cm.ConfmechError, match=message):
        cm.grid_polylines(cm.DiskRegion((1e300, 0.0), 1.0), 0.1)
    assert len(cm.grid_polylines(cm.DiskRegion((0.0, 2.0**52), 1.0), 1.0)) == 3


def test_disk_region_refuses_a_center_not_finite_and_a_radius_whose_square_overflows():
    for center in ((np.nan, 0.0), (0.0, -np.inf)):
        with pytest.raises(cm.ConfmechError, match=r"^disk needs a finite center and a radius > 0 of finite square"):
            cm.DiskRegion(center, 1.0)
    # 1e200 squared raised OverflowError in grid_polylines; the next float above sqrt(max) overflows too
    for radius in (0.0, -1.0, np.nan, 1e200, 1.3407807929942597e154):
        with pytest.raises(cm.ConfmechError, match=r"^disk needs a finite center and a radius > 0 of finite square"):
            cm.DiskRegion((0.0, 0.0), radius)
    # the largest radius whose square is finite
    assert len(cm.grid_polylines(cm.DiskRegion((0.0, 0.0), 1.3407807929942596e154), 1e153)) > 20


def test_disk_region_refuses_a_center_that_is_not_two_numbers():
    # grid_polylines unpacked a 3-vector center as cx, cy: a plain "too many values to unpack"
    bad = [((0.0, 0.0, 0.0), "(0.0, 0.0, 0.0)"), ((1.0,), "(1.0,)"), (5.0, "5.0"), ("ab", "'ab'"),
           ((1.0, "2"), "(1.0, '2')"), (np.zeros((2, 2)), "array([[0., 0.], [0., 0.]])")]
    for center, shown in bad:
        with pytest.raises(cm.ConfmechError) as exc:
            cm.grid_polylines(cm.DiskRegion(center, 1.0), 0.1)
        assert str(exc.value) == "disk center must be two numbers, got " + shown
    assert len(cm.grid_polylines(cm.DiskRegion((np.float64(0.5), 0), 0.21), 0.0147)) == 59


@pytest.mark.parametrize(
    "spec",
    [
        "phi2d",
        "moebius:sphere(0,0;1)+plane(0,1;0)",
        "moebius:sphere(0.1,0.2;0.7)",
        "moebius:sphere(-0.3,0.1;0.9)+plane(0.6,0.8;0.1)+sphere(1,-1;2)+plane(0,1;0.3)",
    ],
)
def test_render_grid_svg_maps_each_picture_in_one_evaluate_call(tmp_path, spec):
    mapping, _ = cm.cli.parse_map_spec(spec)
    evaluate, calls = mapping.evaluate, []
    mapping.evaluate = lambda x: calls.append(np.shape(x)) or evaluate(x)
    pictures = ((cm.DiskRegion((0.5, 0.0), 0.21), 0.0147), (cm.DiskRegion((0.4, -0.6), 0.3), 0.05))
    for region, spacing in pictures:
        calls.clear()
        ref, img = cm.render_grid_svg(mapping, region, tmp_path / "g.svg", spacing=spacing)
        # the polylines, the markers and the center: one stack, where each was one call
        assert calls == [(sum(map(len, ref)) + 8 + 1, 2)]
        assert len(img) == len(ref)
        for line, image in zip(ref, img):
            assert image.tobytes() == evaluate(line).tobytes()
    # the default picture took 61 calls: 58 polylines, the markers and the center
    assert len(cm.grid_polylines(cm.DiskRegion((0.5, 0.0), 0.21), 0.0147)) + 2 == 61


def scalar_rejection(dom, n, seed):
    """The sampler one next_uniform draw at a time, as the stream defines it."""
    gen = cm.Lcg64(seed)
    pts = []
    while len(pts) < n:
        x = np.array([(2.0 * gen.next_uniform() - 1.0) * dom.r_max for _ in range(dom.dim)])
        if dom.r_min <= np.sqrt(x @ x) <= dom.r_max:
            pts.append(x)
    return np.array(pts).reshape(n, dom.dim)


def test_lcg_blocks_continue_the_scalar_stream():
    g, ref = cm.Lcg64(7), cm.Lcg64(7)
    for k in (1, 2, 3, 5, 64, 1000, 4097):
        block = g.uniforms(k)
        assert block.tolist() == [ref.next_uniform() for _ in range(k)]
    assert g.state == ref.state


@pytest.mark.parametrize(
    "dom, n",
    [
        (cm.AnnulusDomain(2, 0.4, 0.9), 1),
        (cm.AnnulusDomain(3, 0.4, 0.9), 1),
        (cm.AnnulusDomain(2, 0.4, 0.9), 777),
        (cm.admissible_annulus("phi3d"), 1000),
        # thin shells: about 2e5 and 7e5 draws, several blocks of SAMPLER_BLOCK points
        (cm.AnnulusDomain(2, 0.9999, 1.0), 15),
        (cm.AnnulusDomain(3, 0.9999, 1.0), 16),
    ],
)
def test_block_sampler_equals_scalar_stream(dom, n):
    assert np.array_equal(cm.sample_annulus(dom, n, seed=n), scalar_rejection(dom, n, n))


def test_thin_annulus_over_the_draw_budget_is_refused():
    # c just above e: the admissible phi3d shell keeps 1.5e-10 of its box, about 7e10 draws
    for c in (2.71828183, 2.7182818284590456):
        with pytest.raises(cm.ConfmechError, match="budget"):
            cm.sample_annulus(cm.admissible_annulus("phi3d", c=c), 10)


def test_draw_budget_leaves_the_stream_under_it_unchanged(monkeypatch):
    dom = cm.AnnulusDomain(2, 0.9, 1.0)
    n = 40
    monkeypatch.setattr(cm.fields, "SAMPLER_BUDGET", int(np.ceil(n / dom.acceptance_rate())))
    assert np.array_equal(cm.sample_annulus(dom, n, seed=3), scalar_rejection(dom, n, 3))
    with pytest.raises(cm.ConfmechError, match="budget"):
        cm.sample_annulus(dom, n + 1, seed=3)


@pytest.mark.parametrize(
    "seed, digest, use_fd",
    [
        # perfbench/reference.json, field3d-csv, n = 1000: CSVs of the seed commit
        (0, "6d59eee173641ea812a9b689e066fe926fe7bb86e45f1bdcf52a4a94489af413", False),
        (10, "c619c2b7ff05e6387c6f819491286af731dcb0e0c31741d72c419238517546ee", False),
        # FD gradients, 79 % distinct cells: recorded with one %.17g per cell
        (0, "26e13551f825b8da6c415ce4647dd9aa5383f44de01a65dc93e2688508ad5389", True),
    ],
)
def test_field_csv_1000_point_bytes(tmp_path, seed, digest, use_fd):
    # pow(rho, 2) against rho * rho alone changes one of these files
    E = cm.builtin_energy("composite3d")
    dom = cm.admissible_annulus("phi3d")
    samples, _ = cm.stress_field(E, cm.InversionFlip(3), dom, 1000, seed=seed, use_fd=use_fd)
    path = tmp_path / "f.csv"
    cm.write_field_csv(path, samples)
    assert sha256(path) == digest


@pytest.mark.parametrize(
    "seed, dom, digest, use_fd",
    [
        (0, cm.admissible_annulus("phi2d"), "1647258c53a97a035de43f1eb0004bb1ec37da2a3556c983885c4e4093a651a8", False),
        (10, cm.admissible_annulus("phi2d"), "9300c18389eb46c9671179d8534ff28c3fd59a5f0321ffa982d06e178e441ca4", False),
        (11, cm.AnnulusDomain(2, 0.5, 0.95), "cc48d77313e1cc4ab9661918423bea1ad23f5b6eba3b30cef338daa2020dab06", False),
        # FD gradients, 95 % distinct cells: recorded with one %.17g per cell
        (0, cm.admissible_annulus("phi2d"), "cb6c8740e2b3bd339dedd9471cc9980d0201b93e769763513aac873808253c78", True),
    ],
)
def test_field_csv_2d_1000_point_bytes(tmp_path, seed, dom, digest, use_fd):
    # recorded with the planar split F z = c z + a conj(z), one matrix at a time; the stack must agree
    E = cm.builtin_energy("composite2d")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.InadmissibleDomainWarning)
        samples, _ = cm.stress_field(E, cm.InversionFlip(2), dom, 1000, seed=seed, use_fd=use_fd)
    path = tmp_path / "f.csv"
    cm.write_field_csv(path, samples)
    assert sha256(path) == digest


def test_worst_point_is_the_largest_deviation():
    E = cm.builtin_energy("composite2d")
    wide = cm.AnnulusDomain(2, 0.5, 0.95)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.InadmissibleDomainWarning)
        samples, summary = cm.stress_field(E, cm.InversionFlip(2), wide, n=300, seed=11)
    worst = summary.worst_point
    deviations = [np.sqrt(np.sum((s.sigma - summary.mean_sigma) ** 2)) for s in samples]
    i = int(np.argmax(deviations))
    assert summary.max_deviation == deviations[i]
    assert np.array_equal(worst.x, samples[i].x) and np.array_equal(worst.F, samples[i].F)
    assert worst.det_F == cm.det(worst.F) and np.array_equal(worst.sigma, samples[i].sigma)


def test_disk_region_rejects_nonpositive_radius():
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            cm.DiskRegion((0.5, 0.0), radius)



def _composite2d_field(n, tol=1e-10):
    energy, domain = cm.builtin_energy("composite2d"), cm.admissible_annulus("phi2d")
    return cm.stress_field(energy, cm.InversionFlip(2), domain, n, tol=tol)


COUNT_LINE = "%s must be an int of at least 1, got %r"
TOL_LINE = "tol must be finite and at least 0, got %r"
# each failed at the parent: for n = 0 and -3, numpy's ValueError; n = 2.5 took 2 points;
# the tolerances refuted a field or a map that holds; the jump from I to I had rank 2, the
# scan of no samples was "inconclusive", and samples_per_line 0 drew empty polylines and -2
# raised numpy's ValueError; sample_annulus took seed 1.5 as seed 1 and "7" as seed 7, and the
# scan raised numpy's ValueError for seed -1 and a TypeError for seed 2.0; a tol or a splice
# point c that is not a real number (a str, None, a complex) met Python's or numpy's TypeError
NOT_REAL = ("1e-9", None, 1j)
C_LINE = "splice point c = %r must be finite and strictly above e"
LIBRARY_REFUSALS = [
    *[pytest.param(lambda n=n: _composite2d_field(n), COUNT_LINE % ("n", n), id="stress_field-n=%r" % n)
      for n in (0, -3, 2.5)],
    *[pytest.param(lambda n=n: cm.sample_annulus(cm.AnnulusDomain(2, 0.5, 0.9), n), COUNT_LINE % ("n", n),
                   id="sample_annulus-n=%r" % n) for n in (0, -3, 2.5)],
    *[pytest.param(lambda tol=tol: _composite2d_field(5, tol), TOL_LINE % tol, id="stress_field-tol=%r" % tol)
      for tol in (np.nan, -1.0, *NOT_REAL)],
    *[pytest.param(lambda tol=tol: cm.is_conformal_at(cm.InversionFlip(2), [[0.6, 0.2]], tol=tol), TOL_LINE % tol,
                   id="is_conformal_at-tol=%r" % tol) for tol in (np.nan, -1.0, *NOT_REAL)],
    *[pytest.param(lambda tol=tol: cm.jump_check(np.eye(2), np.eye(2), tol=tol), TOL_LINE % tol,
                   id="jump_check-tol=%r" % tol) for tol in (-1, True, np.nan, np.inf, *NOT_REAL)],
    *[pytest.param(lambda c=c: cm.VolumetricTerm(c), C_LINE % (c,), id="VolumetricTerm-c=%r" % (c,))
      for c in NOT_REAL],
    *[pytest.param(lambda c=c: cm.builtin_energy("iso3d", c=c), C_LINE % (c,), id="builtin_energy-c=%r" % (c,))
      for c in NOT_REAL],
    *[pytest.param(lambda c=c: cm.admissible_annulus("phi2d", c=c), C_LINE % (c,),
                   id="admissible_annulus-c=%r" % (c,)) for c in NOT_REAL],
    # and, refused at the parent too, what jump_check's fast paths leave to as_square and the
    # norm guard; a 2x2 and a 3x3 would meet numpy's broadcast error if F1 - F2 came first
    *[pytest.param(lambda F1=F1, F2=F2: cm.jump_check(F1, F2), line, id="jump_check-" + name)
      for name, F1, F2, line in (
          ("2x2-3x3", np.eye(2), np.eye(3), "gradients must have the same shape"),
          ("3x3-int-2x2", np.eye(3), [[1, 0], [0, 1]], "gradients must have the same shape"),
          ("stack", np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), "expected a 2x2 or 3x3 matrix, got shape (2, 2, 2)"),
          ("4x4", np.eye(4), np.eye(4), "expected a 2x2 or 3x3 matrix, got shape (4, 4)"),
          ("nan", np.eye(2), np.full((2, 2), np.nan), "jump too large: |F1| + |F2| = nan, not at most 1e+100"),
      )],
    pytest.param(lambda: cm.scan_rank_one_convexity(cm.builtin_energy("iso3d"), n_samples=0),
                 COUNT_LINE % ("n_samples", 0), id="scan_rank_one_convexity-n_samples=0"),
    *[pytest.param(lambda k=k: cm.grid_polylines(cm.DiskRegion((0.5, 0.0), 0.21), 0.0147, samples_per_line=k),
                   COUNT_LINE % ("samples_per_line", k), id="grid_polylines-samples_per_line=%d" % k)
      for k in (0, -2)],
    *[pytest.param(lambda seed=seed: cm.sample_annulus(cm.AnnulusDomain(2, 0.5, 0.9), 3, seed=seed),
                   "seed must be an int, got %r" % seed, id="sample_annulus-seed=%r" % seed) for seed in (1.5, "7")],
    *[pytest.param(lambda seed=seed: cm.scan_rank_one_convexity(cm.builtin_energy("iso3d"), 5, seed=seed),
                   "seed must be an int of at least 0, got %r" % seed, id="scan_rank_one_convexity-seed=%r" % seed)
      for seed in (-1, 2.0)],
]


@pytest.mark.parametrize("call, line", LIBRARY_REFUSALS)
def test_the_library_refuses_a_count_or_a_tolerance_out_of_its_rule_with_one_line(call, line):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cm.ConfmechError) as exc:
            call()
    assert str(exc.value) == line


# each was taken while the rules let a bool through, since a bool is a numbers.Integral and
# compares as 0 or 1: one point, "strictly-elliptic" from one sample, a field checked at tolerance 1.0
BOOL_REFUSALS = [
    (lambda: cm.sample_annulus(cm.admissible_annulus("phi2d"), True, seed=False), COUNT_LINE % ("n", True)),
    (lambda: cm.sample_annulus(cm.admissible_annulus("phi2d"), 3, seed=False), "seed must be an int, got False"),
    (lambda: cm.scan_rank_one_convexity(cm.builtin_energy("iso3d"), True, seed=True),
     COUNT_LINE % ("n_samples", True)),
    (lambda: cm.scan_rank_one_convexity(cm.builtin_energy("iso3d"), 3, seed=True),
     "seed must be an int of at least 0, got True"),
    (lambda: _composite2d_field(5, tol=True), TOL_LINE % True),
    (lambda: cm.jump_check(np.eye(2), np.eye(2), tol=np.True_), TOL_LINE % True),
]


def test_a_bool_is_refused_as_a_count_a_seed_and_a_tolerance():
    for call, line in BOOL_REFUSALS:
        with pytest.raises(cm.ConfmechError) as exc:
            call()
        assert str(exc.value) == line


def test_counts_of_numpy_integer_types_are_taken():
    dom = cm.AnnulusDomain(2, 0.5, 0.9)
    assert np.array_equal(cm.sample_annulus(dom, np.int64(7), seed=3), cm.sample_annulus(dom, 7, seed=3))
    # seeds too, negative ones included: Lcg64 takes any int
    assert np.array_equal(cm.sample_annulus(dom, 7, seed=np.int64(-3)), cm.sample_annulus(dom, 7, seed=-3))
    assert cm.jump_check(np.eye(2), np.eye(2), tol=0.0).rank == 0


def test_strictness_is_sharp_a_rank_one_convex_energy_has_equal_stress_across_rank_one_jumps():
    # W = (lmax/lmin - 1) + f(det F): h = s - 1 is convex and increasing, so W is rank-one
    # convex, but h'' = 0, so not strictly.  On F = Q diag(l, 1) Q^T with l in [e, c],
    # sigma = Q diag(1, -1) Q^T + (2/e) id for every l, and the F differ by rank-one jumps
    W = cm.CompositeEnergy(
        cm.PlanarRatioEnergy(h=lambda s: s - 1.0, dh=lambda s: 1.0, d2h=lambda s: 0.0), cm.VolumetricTerm()
    )
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.array([[c, -s], [s, c]])
    F = np.stack([Q @ np.diag([lam, 1.0]) @ Q.T for lam in (np.e, 3.0, 3.5, 4.0, cm.energies.DEFAULT_C)])
    sigma = W.cauchy_stress(F)
    assert np.max(np.abs(sigma[:, None] - sigma[None])) <= 1e-14
    assert np.max(np.abs(sigma - Q @ np.diag([1.0, -1.0]) @ Q.T - (2.0 / np.e) * np.eye(2))) <= 1e-14
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert [cm.jump_check(F[i], F[j]).rank for i, j in pairs] == [1] * 10
    assert cm.h_criterion(lambda s: s - 1.0).verdict == "rank-one convex"
    # no point meets the Knowles-Sternberg conditions: g is linear in the larger stretch, whose g_ii is 0
    g, partials = cm.ratio_profile(lambda s: s - 1.0, lambda s: 1.0, lambda s: 0.0)
    grid = cm.ks_grid_scan(g, np.logspace(-1.0, 1.0, 30), derivatives=partials)
    assert not grid.strict.any() and np.all(np.min(grid.values[..., :2], axis=-1) == 0.0)
    # composite2d, strictly rank-one convex, has no such family: its stress differs on the same F
    sigma2 = cm.builtin_energy("composite2d").cauchy_stress(F)
    assert np.max(np.abs(sigma2[:, None] - sigma2[None])) > 1.0


def test_equal_stress_across_a_rank_one_jump_zeroes_the_product_that_strictness_makes_positive():
    # Mihai & Neff (2017): across F_j = F_i + a (x) n, Cof F_j n = Cof F_i n, so equal sigma gives
    # equal Piola tractions DW n, and <DW(F_j) - DW(F_i), a (x) n> = 0, which strictness forbids
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.array([[c, -s], [s, c]])
    F = np.stack([Q @ np.diag([lam, 1.0]) @ Q.T for lam in (np.e, 3.0, 3.5, 4.0, cm.energies.DEFAULT_C)])
    n = Q[:, 0]
    i, j = np.triu_indices(5, 1)
    jumps = F[j] - F[i]
    cof_n = cm.cofactor(F) @ n
    assert np.max(np.abs(cof_n[j] - cof_n[i])) <= 1e-14

    def product_and_stress_gap(W):
        P, sigma = W.first_derivative(F), W.cauchy_stress(F)
        product = np.sum((P[j] - P[i]) * jumps, axis=(-2, -1)) / np.sum(jumps * jumps, axis=(-2, -1))
        return product, np.max(np.abs(sigma[j] - sigma[i]), axis=(-2, -1))

    # h = s - 1, rank-one convex but not strictly: equal stress, and the product is 0
    sharp = cm.CompositeEnergy(
        cm.PlanarRatioEnergy(h=lambda s: s - 1.0, dh=lambda s: 1.0, d2h=lambda s: 0.0), cm.VolumetricTerm()
    )
    product, gap = product_and_stress_gap(sharp)
    assert np.max(np.abs(product)) <= 1e-14 and np.max(gap) <= 1e-14
    # the smooth strictly rank-one convex composite and composite2d: a positive product, unequal stress
    product, gap = product_and_stress_gap(cm.CompositeEnergy(cm.DistortionEnergy(), cm.VolumetricTerm()))
    assert np.min(product) >= 5e-3 and np.min(gap) >= 4e-3
    product, gap = product_and_stress_gap(cm.builtin_energy("composite2d"))
    assert np.min(product) >= 1.9 and np.min(gap) >= 0.5


@pytest.mark.parametrize("name", ["composite2d", "composite3d"])
def test_the_affine_map_a_id_with_a_to_the_n_in_the_band_has_the_conformal_fields_stress(name):
    # x -> a x with a^n in [e, c] has sigma = (2/e) id, the constant stress of phi2d and phi3d
    E = cm.builtin_energy(name)
    t = np.linspace(np.e, cm.energies.DEFAULT_C, 7)
    F = (t ** (1.0 / E.dim))[:, None, None] * np.eye(E.dim)
    assert np.max(np.abs(E.cauchy_stress(F) - (2.0 / np.e) * np.eye(E.dim))) <= 1e-15
