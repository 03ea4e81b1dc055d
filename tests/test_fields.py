"""Field sampling, stress summaries, jump checks, CSV/JSON output, grid figures."""

import hashlib
import json
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
    assert sha256(p1) == "344c2087b076f3a71fd4649864394047d0d4e5fed48eaac86c3517a198d00370"


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
    assert sha256(path) == "6a3347f223d8dcabd4f0d81304d771bdd141778d378a049c6b27ba5b49b45f48"


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
        (0, cm.admissible_annulus("phi2d"), "8b25d7ffcccae077a12600df47b86ec379ecdc657110e3886893dc50d660b9eb", False),
        (10, cm.admissible_annulus("phi2d"), "8147a72cba20541b640f6acdccf272620cfb7a318d962bd33a8bfef322231e24", False),
        (11, cm.AnnulusDomain(2, 0.5, 0.95), "7c6a0bc8601eadf17a2e69260f52494e5555b5ae93e4dd972b30f130134a79d5", False),
        # FD gradients, 95 % distinct cells: recorded with one %.17g per cell
        (0, cm.admissible_annulus("phi2d"), "cfe8b3589c4b950a37c81d6e69b8eebe569a0f711e08d9e8fe32630bf0adea01", True),
    ],
)
def test_field_csv_2d_1000_point_bytes(tmp_path, seed, dom, digest, use_fd):
    # recorded with the one-matrix closed-form 2x2 SVD; the stacked one must agree
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
