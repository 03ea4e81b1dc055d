"""Command line interface, exercised in process through main()."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmech
from confmech.cli import CLOSED_PIPE_EXIT, build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(argv, timeout=60):
    """The finished `python -W error::RuntimeWarning -m confmech.cli argv` process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "confmech.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_stress_field_homogeneous_exit_zero(capsys, tmp_path):
    csv_path = tmp_path / "field.csv"
    json_path = tmp_path / "summary.json"
    code, out = run(
        capsys,
        "stress-field",
        "--energy", "composite3d",
        "--map", "phi3d",
        "--n", "200",
        "--seed", "42",
        "--out", str(csv_path),
        "--summary", str(json_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["homogeneous"] is True and payload["admissible"] is True
    assert abs(payload["mean_sigma"][0][0] - 2.0 / np.e) <= 1e-10
    assert csv_path.exists() and json_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("x1,x2,x3,detF,s11")
    saved = json.loads(json_path.read_text())
    assert saved["n_samples"] == 200


def test_stress_field_klin2_planar(capsys):
    code, out = run(
        capsys,
        "stress-field",
        "--energy", "iso2d-klin2",
        "--map", "phi2d",
        "--n", "150",
        "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation"] <= 1e-10
    # only a composite energy has a determinant band to be admissible in
    assert payload["admissible"] is None


def test_stress_field_moebius_map(capsys):
    # sphere inversion followed by a plane reflection is exactly the 2D map
    code, out = run(
        capsys,
        "stress-field",
        "--energy", "iso2d-klin2",
        "--map", "moebius:sphere(0,0;1)+plane(0,1;0)",
        "--n", "100",
        "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["domain"] == {"r_min": 0.5, "r_max": 0.9, "dim": 2}


def test_stress_field_dimension_mismatch_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stress-field", "--energy", "iso3d", "--map", "phi2d"])
    assert exc.value.code == 2


def test_stress_field_inhomogeneous_exit_one(capsys):
    # the moebius spelling runs on the default annulus 0.5 <= |x| <= 0.9,
    # where det grad leaves the constant-slope band: composite stress varies
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out = run(
            capsys,
            "stress-field",
            "--energy", "composite2d",
            "--map", "moebius:sphere(0,0;1)+plane(0,1;0)",
            "--n", "150",
            "--seed", "3",
        )
    assert code == 1
    payload = json.loads(out)
    assert payload["homogeneous"] is False and payload["admissible"] is False
    assert payload["max_deviation"] > 1e-2


def test_check_convexity_klin2(capsys):
    code, out = run(
        capsys,
        "check-convexity",
        "--energy", "iso2d-klin2",
        "--samples", "300",
        "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "strictly-elliptic"
    assert len(payload["witnesses"]) == 3


def test_check_convexity_payload_has_one_shape_for_every_builtin(capsys):
    # iso2d-klin2's payload carried a Knowles-Sternberg grid of (s - 1)^2, not of its own s^2 - 1
    for name in confmech.BUILTIN_ENERGIES:
        code, out = run(
            capsys, "check-convexity", "--energy", name, "--samples", "200"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "strictly-elliptic"
        assert list(payload) == ["energy", "verdict", "min_lh_form", "n_samples", "witnesses"]


def test_check_conformal_phi_maps(capsys):
    for spec in ("phi2d", "phi3d"):
        code, out = run(capsys, "check-conformal", "--map", spec, "--n", "300")
        assert code == 0
        payload = json.loads(out)
        assert payload["conformal"] is True
        assert payload["max_residual"] <= 1e-10


def test_check_conformal_fd_route(capsys):
    code, out = run(
        capsys, "check-conformal", "--map", "phi2d", "--n", "50", "--fd"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tol"] == 1e-6


def test_composite2d_fd_field_shows_the_corner_of_its_iso_part_on_cso2(capsys):
    # iso2d-klin2 has h(s) = s^2 - 1, h'(1) = 2: W is a cone at every conformal F, and its
    # stress there is the minimal-norm subgradient 0 by convention; the FD gradients of phi2d
    # leave the tie by about 1e-10, where the stress is the cone's slope, so the field
    # jumps.  composite3d's iso part is smooth, and its FD field is homogeneous
    argv = ("stress-field", "--map", "phi2d", "--energy", "composite2d", "--n", "1000", "--seed", "1")
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["max_deviation"] <= 1e-10
    code, out = run(capsys, *argv, "--fd")
    payload = json.loads(out)
    assert code == 1 and payload["admissible"] is True and payload["homogeneous"] is False
    assert 1.0 <= payload["max_deviation"] <= 1.1
    # the iso parts alone: klin2's zero stress on phi2d holds only by that convention, and
    # iso2d-psi = K - 1, with h'(1) = 0, is stress free with a true derivative
    iso_argv = ("stress-field", "--map", "phi2d", "--n", "1000", "--seed", "1", "--fd")
    code, out = run(capsys, *iso_argv, "--energy", "iso2d-psi")
    assert code == 0 and json.loads(out)["max_deviation"] <= 1e-9
    code, out = run(capsys, *iso_argv, "--energy", "iso2d-klin2")
    assert code == 1 and json.loads(out)["max_deviation"] >= 1.0
    code, out = run(capsys, "stress-field", "--map", "phi3d", "--energy", "composite3d", "--n", "1000",
                    "--seed", "1", "--fd")
    payload = json.loads(out)
    assert code == 0 and payload["homogeneous"] is True and payload["max_deviation"] <= 1e-9


def test_check_conformal_moebius(capsys):
    code, out = run(
        capsys,
        "check-conformal",
        "--map", "moebius:sphere(0.1,-0.2;1.3)+plane(1,0;0.2)",
        "--n", "200",
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_bad_map_spec_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check-conformal", "--map", "spiral"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["check-conformal", "--map", "moebius:sphere(0,0)"])
    assert exc2.value.code == 2
    # bad counts, a splice below e, an orientation-reversing chain, zero spacing
    field = ["stress-field", "--energy", "composite2d", "--map", "phi2d"]
    for argv in (
        field + ["--n", "0"],
        field + ["--n", "-3"],
        field + ["--c", "2.0"],
        ["stress-field", "--energy", "composite2d", "--map", "moebius:sphere(0,0;1)"],
        ["check-conformal", "--map", "moebius:sphere(0,0;1)"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--spacing", "0"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--resolution", "0"],
        ["check-convexity", "--energy", "iso3d", "--samples", "0"],
        ["linearized-demo", "--n", "0"],
        # a negative or non-finite tolerance is a bad argument, not a refutation
        field + ["--n", "5", "--tol", "-1"],
        field + ["--n", "5", "--tol", "nan"],
        ["check-conformal", "--map", "phi2d", "--n", "5", "--tol", "-1"],
        ["check-conformal", "--map", "phi2d", "--n", "5", "--tol", "inf"],
        ["jump-check", "--f1", "1,0,0,1", "--f2", "1,1,0,1", "--tol", "nan"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--radius", "0"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--radius", "-1"],
        # a splice point at infinity leaves no admissible annulus and no volumetric term
        field + ["--n", "5", "--c", "inf"],
        ["stress-field", "--energy", "composite3d", "--map", "phi3d", "--n", "5", "--c", "inf"],
        ["stress-field", "--energy", "iso2d-klin2", "--map", "phi2d", "--n", "5", "--c", "inf"],
        ["check-convexity", "--energy", "composite2d", "--samples", "5", "--c", "inf"],
        # non-finite numbers and degenerate reflections
        ["jump-check", "--f1", "1,2,3,nan", "--f2", "1,0,0,1"],
        ["jump-check", "--f1", "1,2,3,inf", "--f2", "1,0,0,1"],
        ["check-conformal", "--map", "moebius:plane(0,0;1)+plane(0,1;0)", "--n", "5"],
        ["check-conformal", "--map", "moebius:sphere(0,0;0)+plane(0,1;0)", "--n", "5"],
        ["check-conformal", "--map", "moebius:sphere(0,0;nan)+plane(0,1;0)", "--n", "5"],
        ["check-conformal", "--map", "moebius:sphere(0,0;1)+plane(0,1;nan)", "--n", "5"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--cx", "nan"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--cx", "inf"],
        ["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"), "--cy", "nan"],
    ):
        with pytest.raises(SystemExit) as exc3:
            main(argv)
        assert exc3.value.code == 2, argv


def test_negative_seed_is_a_usage_error_where_numpy_draws(capsys):
    # numpy's default_rng refuses seeds below 0; the Lcg64 sampler takes any int
    for argv in (
        ["check-convexity", "--energy", "iso3d", "--samples", "5", "--seed", "-1"],
        ["linearized-demo", "--n", "5", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert line.endswith("seed must be an int of at least 0, got -1"), line
    code, _ = run(capsys, "check-conformal", "--map", "phi2d", "--n", "5", "--seed", "-1")
    assert code == 0


def test_thin_annulus_exits_two_instead_of_hanging():
    # a fresh process under a timeout: rejection sampling of this shell takes about 7e10 draws
    argv = ["stress-field", "--energy", "composite3d", "--map", "phi3d", "--c", "2.71828183"]
    proc = run_subprocess([*argv, "--n", "10"], timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "budget" in proc.stderr.strip().splitlines()[-1]


def test_composite_field_past_the_exp_overflow_exits_two_without_a_warning():
    # det F reaches 4.4e4 on this shell: f' is +inf, and the stress was NaN with
    # "invalid value" RuntimeWarnings, exit 1 and NaN/Infinity in the payload
    argv = ["stress-field", "--energy", "composite3d", "--map", "moebius:sphere(0,0,0;3)+plane(0,1,0;0)"]
    proc = run_subprocess([*argv, "--n", "20"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Warning" not in proc.stderr
    assert "past the volumetric exp overflow" in proc.stderr.strip().splitlines()[-1]


def test_non_finite_payload_exits_two_with_one_line(capsys, tmp_path, monkeypatch):
    # a NaN field printed NaN, not JSON, with exit 1, after its CSV and its NaN
    # summary were written; now it exits 2 with one line and writes no file
    def nan_field(*args, **kwargs):
        samples, summary = confmech.stress_field(*args, **kwargs)
        return samples, summary._replace(max_deviation=math.nan)

    monkeypatch.setattr(confmech.cli, "stress_field", nan_field)
    files = ["--out", str(tmp_path / "f.csv"), "--summary", str(tmp_path / "s.json")]
    with pytest.raises(SystemExit) as exc:
        main(["stress-field", "--energy", "iso2d-klin2", "--map", "phi2d", "--n", "5", *files])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("confmech stress-field: error: the result is not valid JSON")
    assert list(tmp_path.iterdir()) == []
    energy, phi, dom = confmech.builtin_energy("iso2d-klin2"), confmech.InversionFlip(2), confmech.admissible_annulus("phi2d")
    _, summary = nan_field(energy, phi, dom, 5)
    with pytest.raises(ValueError, match="Out of range float"):
        confmech.write_summary_json(tmp_path / "s.json", summary)


@pytest.mark.parametrize(
    "value, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (np.float64("nan"), "nan")]
)
def test_a_non_finite_payload_value_gives_the_json_module_line(capsys, monkeypatch, value, shown):
    def field(*args, **kwargs):
        samples, summary = confmech.stress_field(*args, **kwargs)
        return samples, summary._replace(max_deviation=value)

    monkeypatch.setattr(confmech.cli, "stress_field", field)
    with pytest.raises(SystemExit) as exc:
        main(["stress-field", "--energy", "iso2d-klin2", "--map", "phi2d", "--n", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "confmech stress-field: error: the result is not valid JSON: "
        "Out of range float values are not JSON compliant: " + shown
    )


def test_a_non_finite_summary_is_refused_before_its_file_is_opened(tmp_path):
    # json.dump streamed the summary into the open file and stopped at the NaN, leaving a partial file
    energy, phi, dom = confmech.builtin_energy("iso2d-klin2"), confmech.InversionFlip(2), confmech.admissible_annulus("phi2d")
    _, summary = confmech.stress_field(energy, phi, dom, 5)
    path = tmp_path / "s.json"
    with pytest.raises(confmech.ConfmechError, match="Out of range float values are not JSON compliant: nan"):
        confmech.write_summary_json(path, summary._replace(max_deviation=math.nan))
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check-conformal", "--map", "moebius:sphere(0,0;1e200)+plane(0,1;0)", "--n", "5"],
        ["stress-field", "--energy", "iso3d", "--map", "moebius:sphere(0,0,0;1e200)+plane(0,1,0;0)", "--n", "5"],
        ["stress-field", "--energy", "iso2d-klin2", "--map", "moebius:sphere(0,0;1e100)+plane(0,1;0)", "--n", "5"],
        ["check-conformal", "--map", "moebius:sphere(1e200,0;1)+plane(0,1;0)", "--n", "5"],
        ["stress-field", "--energy", "iso3d", "--map", "moebius:sphere(0,1e200,0;1)+plane(0,1,0;0)", "--n", "5"],
        ["check-conformal", "--map", "moebius:sphere(0,0;1)+plane(0,1;1e308)", "--n", "5", "--fd"],
        ["stress-field", "--energy", "composite2d", "--map", "moebius:sphere(0,0;1)+plane(0,1;1e308)", "--n", "5"],
    ],
    ids=[
        "sphere-1e200-check-conformal", "sphere-1e200-stress-field", "sphere-1e100-stress-field",
        "center-1e200-check-conformal", "center-1e200-stress-field",
        "offset-1e308-check-conformal", "offset-1e308-stress-field",
    ],
)
def test_overflowing_sphere_exits_two_with_one_line_and_no_file(tmp_path, argv):
    # radius 1e200 ended in an OverflowError traceback (exit 1) from radius**2;
    # radius 1e100 wrote a NaN summary, and under -W error ended in a traceback;
    # a center at 1e200 overflowed |x - center|^2 and an offset at 1e308 the
    # plane's image, each with a warning, and without -W error a center far
    # from the points exited 2 as "reverses orientation (det = 0.0)"
    summary = ["--summary", str(tmp_path / "s.json")] if argv[0] == "stress-field" else []
    proc = run_subprocess([*argv, *summary])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("confmech %s: error: " % argv[0])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stress-field", "--energy", "iso3d", "--map", "phi2d", "--n", "5"],
         "energy dimension 3 != domain dimension 2"),
        (["stress-field", "--energy", "composite2d", "--map", "moebius:sphere(0,0,0;1)+plane(0,1,0;0)",
          "--n", "5"], "energy dimension 2 != domain dimension 3"),
        (["jump-check", "--f1", "1,0,0,1", "--f2", "1,0,0,0,1,0,0,0,1"],
         "gradients must have the same shape"),
        (["jump-check", "--f1", "1,2,3,nan", "--f2", "1,0,0,1"],
         "jump too large: |F1| + |F2| = nan, not at most 1e+100"),
        (["check-conformal", "--map", "moebius:sphere(1,2,3,4;1)+plane(0,1;0)", "--n", "5"],
         "expected a 2- or 3-vector, got shape (4,)"),
        (["check-conformal", "--map", "moebius:sphere(0,0;nan)+plane(0,1;0)", "--n", "5"],
         "a sphere needs a finite center and a finite radius > 0, got [0. 0.] and nan"),
        (["check-conformal", "--map", "moebius:sphere(0,0;1)+plane(0,1;nan)", "--n", "5"],
         "a plane needs a unit normal and an offset of at most 1e+100 in size, got |n| = 1.0 and offset nan"),
    ],
    ids=["dim-3-on-2", "dim-2-on-3", "jump-4-vs-9", "jump-nan", "sphere-4-coords", "sphere-nan", "plane-nan"],
)
def test_the_library_refusal_exits_two_with_one_line(argv, message):
    # the command line re-checked these rules itself before the library's
    # refusals were ConfmechErrors; the library's own line is printed now
    proc = run_subprocess(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "confmech %s: error: %s" % (argv[0], message)


def test_a_later_moebius_step_names_the_sampled_point():
    # the second sphere's scale leaves the det band at the image [0.808 0.985]
    # of the first sample under the first step; the message names the sample
    proc = run_subprocess(["check-conformal", "--map", "moebius:sphere(0,0;1)+sphere(1,0;1e51)", "--n", "5"])
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines()[-1].endswith("is above 1e+100 at [0.49806785 0.60665422]")


@pytest.mark.parametrize(
    "extra", [["--spacing", "1e-300"], ["--spacing", "5e-324"], ["--resolution", "20000"]],
    ids=["spacing-1e-300", "spacing-min-subnormal", "resolution-20000"],
)
def test_render_grid_refuses_a_grid_past_the_vertex_budget(tmp_path, extra):
    # a tiny spacing looped over every chord for longer than any timeout; at 20 000
    # points a line the default grid counts up to 1.2e6 vertices
    out = tmp_path / "g.svg"
    proc = run_subprocess(["render-grid", "--map", "phi2d", "--out", str(out), *extra], timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].endswith("vertices, above the budget of 1048576")
    assert not out.exists()


def moebius_spec(center, radius, offset="0"):
    """A sphere step of this center and radius, then the reflection across x2 = offset, all as texts."""
    normal = ",".join("1" if i == 1 else "0" for i in range(len(center)))
    return "moebius:sphere(%s;%s)+plane(%s;%s)" % (",".join(center), radius, normal, offset)


def run_quietly(argv):
    """(exit code, stderr) of main(argv) in process, with stdout and stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_spec_never_ends_in_a_traceback(spec, dim, fd, composite):
    """check-conformal and stress-field on spec exit 0, 1 or 2, with warnings as errors; their codes.

    pytest's filterwarnings makes a RuntimeWarning an error here, as -W
    error::RuntimeWarning does on the command line.  Exit 2 ends in one
    error line under the usage.
    """
    energy = ("composite%dd" if composite else ("iso%dd-klin2" if dim == 2 else "iso%dd")) % dim
    commands = [
        ["check-conformal", "--map", spec, "--n", "5"],
        ["stress-field", "--energy", energy, "--map", spec, "--n", "5"],
    ]
    codes = []
    for argv in commands:
        code, err = run_quietly(argv + (["--fd"] if fd else []))
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("usage: ") and err.count(": error: ") == 1, (argv, err)
            assert err.splitlines()[-1].startswith("confmech %s: error: " % argv[0]), (argv, err)
        codes.append(code)
    return codes


@pytest.mark.filterwarnings("ignore::confmech.InadmissibleDomainWarning")
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3]),
    # radii from 1e-3 to 1e300: below, across and past the overflows of radius^2 and det F
    exponent=st.integers(-3, 299),
    mantissa=st.floats(1.0, 10.0),
    center=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    fd=st.booleans(),
    composite=st.booleans(),
)
def test_moebius_radii_never_end_in_a_traceback(dim, exponent, mantissa, center, fd, composite):
    # as repr writes them, 1e+100 with its exponent's sign
    spec = moebius_spec([repr(c) for c in center[:dim]], repr(mantissa * 10.0**exponent))
    assert_spec_never_ends_in_a_traceback(spec, dim, fd, composite)


@pytest.mark.filterwarnings("ignore::confmech.InadmissibleDomainWarning")
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3]),
    # sizes from 1e-3 to 1e308: a sphere center or a plane offset at the float range
    exponent=st.integers(-3, 308),
    mantissa=st.floats(1.0, 1.7),
    sign=st.sampled_from([1, -1]),
    axis=st.integers(0, 2),
    offset=st.booleans(),
    radius=st.sampled_from(["1e-3", "1", "1e100"]),
    fd=st.booleans(),
    composite=st.booleans(),
)
def test_moebius_centers_and_offsets_never_end_in_a_traceback(
    dim, exponent, mantissa, sign, axis, offset, radius, fd, composite
):
    # written <mantissa>e<exponent>, so a grammar that splits at an exponent's '+' cannot hide it
    size = "%s%re%d" % ("-" if sign < 0 else "", mantissa, exponent)
    center = ["0"] * dim
    if offset:
        spec = moebius_spec(center, radius, size)
    else:
        center[axis % dim] = size
        spec = moebius_spec(center, radius)
    assert_spec_never_ends_in_a_traceback(spec, dim, fd, composite)


def repr_number(max_exponent, signs=(1.0, -1.0)):
    """Texts of numbers from 1e-3 up to about 10^max_exponent in size, as repr writes them."""
    return st.builds(
        lambda sign, mantissa, exponent: repr(sign * mantissa * 10.0**exponent),
        st.sampled_from(signs), st.floats(1.0, 9.99), st.integers(-3, max_exponent),
    )


@st.composite
def reflection_chain(draw, dim):
    """moebius: text of two to four sphere or plane steps in dim dimensions."""
    coordinate = st.one_of(st.sampled_from(["0", "0.5", "-1"]), repr_number(308))
    steps = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            center = draw(st.lists(coordinate, min_size=dim, max_size=dim))
            radius = draw(st.one_of(st.sampled_from(["1", "0.3"]), repr_number(300, signs=(1.0,))))
            steps.append("sphere(%s;%s)" % (",".join(center), radius))
        else:
            # a unit normal from one or two angles, each entry written as repr writes it
            t, p = draw(st.floats(0.0, 6.3)), draw(st.floats(0.0, 3.2))
            normal = [math.cos(t), math.sin(t)] if dim == 2 else [
                math.cos(t) * math.sin(p), math.sin(t) * math.sin(p), math.cos(p)]
            steps.append("plane(%s;%s)" % (",".join(map(repr, normal)), draw(coordinate)))
    return "moebius:" + "+".join(steps)


@pytest.mark.filterwarnings("ignore::confmech.InadmissibleDomainWarning")
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from([2, 3]), fd=st.booleans())
def test_moebius_chains_never_end_in_a_traceback(data, dim, fd):
    spec = data.draw(reflection_chain(dim))
    codes = assert_spec_never_ends_in_a_traceback(spec, dim, fd, composite=False)
    # an odd number of reflections reverses orientation
    if spec.count("(") % 2:
        assert codes == [2, 2], spec


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--map", "phi2d", "--radius", "1e200", "--spacing", "1e199"],
         "disk needs a finite center and a radius > 0 of finite square: [0.5 0. ], 1e+200"),
        (["--map", "phi2d", "--cx", "1e300", "--radius", "1", "--spacing", "0.1"],
         "spacing 0.1: chord index (|c| + r) / spacing = 1e+301 > 2^53"),
        # the points of a panel, or of its image, all one float apart at most: no box to scale
        (["--map", "phi2d", "--cx", "1e17", "--radius", "1", "--spacing", "100"],
         "points near [ 1.0e+17 -1.1e+00] span too little next to their size to draw"),
        (["--map", "moebius:sphere(0,0;1)+plane(0,1;1e100)", "--cy", "1e6", "--radius", "1", "--spacing", "0.1"],
         "points near [-5.05e-011  2.00e+100] span too little next to their size to draw"),
    ],
    ids=["radius-1e200", "center-1e300", "box-1e17", "image-box-2e100"],
)
def test_render_grid_past_the_float_range_exits_two_with_one_line_and_no_file(tmp_path, extra, message):
    # the radius ended in an OverflowError traceback; the center wrote a degenerate SVG, or
    # ended in an "overflow encountered in vecdot" traceback under warnings as errors; the
    # boxes ended in "divide by zero" tracebacks there
    out = tmp_path / "g.svg"
    code, err = run_quietly(["render-grid", "--out", str(out), *extra])
    assert code == 2 and err.splitlines()[-1] == "confmech render-grid: error: " + message
    assert not out.exists()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    center=st.lists(repr_number(300), min_size=2, max_size=2),
    radius=repr_number(300, signs=(1.0,)),
    # spacings from radius / 40 up: at most about 7 000 vertices a picture
    stretch=st.floats(-1.61, 3.0),
    spec=st.sampled_from(["phi2d", "moebius:sphere(0.3,-0.2;1.5)+plane(0.6,0.8;0.1)"]),
)
def test_render_grid_writes_an_svg_or_exits_two_with_one_line(center, radius, stretch, spec):
    spacing = repr(float(radius) * 10.0**stretch)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "g.svg")
        argv = ["render-grid", "--map", spec, "--out", out, "--cx", center[0], "--cy", center[1],
                "--radius", radius, "--spacing", spacing]
        code, err = run_quietly(argv)
        assert code in (0, 2), argv
        if code == 0:
            assert open(out).read().endswith("</svg>\n"), argv
        else:
            assert err.count(": error: ") == 1 and err.splitlines()[-1].startswith("confmech render-grid: error: ")
            assert not os.path.exists(out), argv


@pytest.mark.parametrize("command", [["check-conformal"], ["stress-field", "--energy", "iso2d-klin2"]])
def test_moebius_numbers_take_a_signed_exponent(capsys, command):
    # the spec was split at every '+', so 1e+2 was refused as "bad reflection step 'sphere(0,0;1e'"
    payloads = []
    for radius in ("1e+2", "1e2", "100.0"):
        spec = "moebius:sphere(0.1,0;%s)+plane(0,1;0)" % radius
        code, out = run(capsys, *command, "--map", spec, "--n", "20")
        payload = json.loads(out)
        assert code in (0, 1) and payload.pop("map") == spec
        payloads.append(payload)
    assert payloads[0] == payloads[1] == payloads[2]


FLOAT_FLAGS = [
    ["stress-field", "--energy", "composite2d", "--map", "phi2d", "--n", "5", "--c"],
    ["stress-field", "--energy", "composite2d", "--map", "phi2d", "--n", "5", "--tol"],
    ["check-convexity", "--energy", "composite3d", "--samples", "5", "--c"],
    ["check-conformal", "--map", "phi2d", "--n", "5", "--tol"],
    ["jump-check", "--f1", "1,0,0,1", "--f2", "1,1,0,1", "--tol"],
    ["render-grid", "--map", "phi2d", "--out", "g.svg", "--spacing"],
    ["render-grid", "--map", "phi2d", "--out", "g.svg", "--cx"],
    ["render-grid", "--map", "phi2d", "--out", "g.svg", "--cy"],
    ["render-grid", "--map", "phi2d", "--out", "g.svg", "--radius"],
]


@pytest.mark.parametrize("argv", FLOAT_FLAGS, ids=lambda argv: argv[0] + " " + argv[-1])
def test_float_flags_take_a_negative_value_with_an_exponent(tmp_path, monkeypatch, argv):
    # argparse took -1e+20 for an option: "argument --cx: expected one argument"
    monkeypatch.chdir(tmp_path)
    for value in ("-1e+20", "-2.5e-3", "-.5", "-3"):
        joined = run_quietly(argv[:-1] + [argv[-1] + "=" + value])
        assert run_quietly(argv + [value]) == joined
        assert "expected one argument" not in joined[1]


def test_a_negative_center_with_an_exponent_reaches_the_chord_index_refusal(tmp_path):
    code, err = run_quietly(["render-grid", "--map", "phi2d", "--out", str(tmp_path / "g.svg"),
                             "--cx", "-1e+20"])
    assert code == 2 and err.splitlines()[-1] == (
        "confmech render-grid: error: spacing 0.0147: chord index (|c| + r) / spacing = 6.8e+21 > 2^53"
    )
    # the matrices of jump-check start with a minus as well
    code, err = run_quietly(["jump-check", "--f1", "-1,0,0,-1", "--f2", "-1,1,0,-1"])
    assert code == 0 and err == ""


def test_fd_step_lost_next_to_a_far_plane_exits_two_naming_the_step(capsys):
    # the step vanished in the image's rounding: "det = 0.0 is not strictly positive",
    # while the analytic check exits 0
    spec = "moebius:sphere(0,0;1)+plane(0,1;1e20)"
    assert run(capsys, "check-conformal", "--map", spec, "--n", "5")[0] == 0
    for command in (["check-conformal"], ["stress-field", "--energy", "iso2d-klin2"]):
        code, err = run_quietly(command + ["--fd", "--map", spec, "--n", "5"])
        assert code == 2
        lost = "finite-difference step 1e-05 is lost next to images of size 2e+20 at ["
        assert err.splitlines()[-1].startswith("confmech %s: error: %s" % (command[0], lost))


def test_python_dash_m_confmech_runs_the_command_line():
    # "No module named confmech.__main__"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "confmech", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0 and proc.stdout == "confmech %s\n" % confmech.__version__


# the modules that only some subcommands use, and the dataclasses no record is built with
LAZY_MODULES = ("confmech.convexity", "confmech.linearized", "confmech.gridplot", "dataclasses")
COLD_START = """
import json, sys
import confmech, confmech.cli
{setup}
code = confmech.cli.main({argv!r})
print(json.dumps([code, [m for m in {lazy!r} if m in sys.modules]]))
"""


def cold_start(argv, setup=""):
    """(exit code, loaded LAZY_MODULES) of cli.main(argv) in a fresh process that imports confmech and its cli."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    code = COLD_START.format(setup=setup, argv=argv, lazy=LAZY_MODULES)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def test_stress_field_loads_no_module_it_does_not_use(tmp_path):
    # the field3d-csv benchmark's objects, then its command
    setup = 'confmech.builtin_energy("composite3d"), confmech.InversionFlip(3), confmech.admissible_annulus("phi3d")'
    argv = ["stress-field", "--energy", "composite3d", "--map", "phi3d", "--n", "100",
            "--out", str(tmp_path / "f.csv"), "--summary", str(tmp_path / "s.json")]
    assert cold_start(argv, setup) == (0, [])


@pytest.mark.parametrize("argv, module", [
    (["check-convexity", "--energy", "iso2d-klin2", "--samples", "20"], "confmech.convexity"),
    (["render-grid", "--map", "phi2d", "--out", "grid.svg"], "confmech.gridplot"),
    (["linearized-demo", "--n", "20"], "confmech.linearized"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_cold_subcommand_loads_its_module(tmp_path, argv, module):
    argv = [str(tmp_path / a) if a == "grid.svg" else a for a in argv]
    assert cold_start(argv) == (0, [module])


def test_usage_error_prints_plain_floats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-conformal", "--map", "moebius:sphere(0,0;1)"])
    assert exc.value.code == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert "det = -" in line and "np.float64" not in line


def test_library_and_command_errors_print_the_subcommand_usage(capsys):
    # a ConfmechError from the library, and one raised by a command
    for argv in (
        ["check-conformal", "--map", "moebius:sphere(0,0;1)"],
        ["stress-field", "--energy", "iso3d", "--map", "phi2d", "--n", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: confmech %s " % argv[0]), err


def test_unwritable_output_path_exits_two_with_one_line(capsys, tmp_path):
    missing = tmp_path / "missing"
    field = ["stress-field", "--energy", "composite2d", "--map", "phi2d", "--n", "5"]
    for argv, path in (
        (["jump-check", "--f1", "1,0,0,1", "--f2", "1,1,0,1", "--out"], missing / "jump.json"),
        (field + ["--out"], missing / "field.csv"),
        (field + ["--summary"], missing / "summary.json"),
        (["render-grid", "--map", "phi2d", "--out"], missing / "grid.svg"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(path)])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: confmech %s " % argv[0]), err
        last = err.strip().splitlines()[-1]
        assert last.startswith("confmech %s: error: " % argv[0]) and str(path) in last, err


def test_closed_stdout_is_not_a_usage_error(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["jump-check", "--f1", "1,0,0,1", "--f2", "1,1,0,1"])


@pytest.mark.parametrize(
    "entry",
    [["-m", "confmech"], ["-m", "confmech.cli"], ["-c", "import sys; from confmech.cli import run; sys.exit(run())"]],
    ids=["python-m-confmech", "python-m-confmech-cli", "script"],
)
def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(entry):
    # `confmech check-convexity ... | head -3` printed a BrokenPipeError traceback and exited 1.
    # No payload is larger than a pipe holds, so the reader closes its end before the command
    # writes: the write fails however small the payload is.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    argv = ["check-convexity", "--energy", "iso2d-klin2", "--samples", "3"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, *entry, *argv], stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    with proc:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (CLOSED_PIPE_EXIT, b"")
    # the installed script runs what the "script" case runs
    assert 'confmech = "confmech.cli:run"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("c", ["nan", "-1e+3"])
@pytest.mark.parametrize(
    "command",
    [
        ["check-convexity", "--energy", "iso3d", "--samples", "3"],
        ["check-convexity", "--energy", "iso2d-psi", "--samples", "3"],
        ["stress-field", "--energy", "iso3d", "--map", "phi3d", "--n", "3"],
    ],
    ids=["convexity-iso3d", "convexity-iso2d-psi", "field-iso3d"],
)
def test_a_bad_splice_point_exits_two_for_every_energy(capsys, command, c):
    # check-convexity dropped --c for an energy without a volumetric part and exited 0
    with pytest.raises(SystemExit) as exc:
        main(command + ["--c", c])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = "splice point c = %r must be finite and strictly above e" % float(c)
    assert err.strip().splitlines()[-1] == "confmech %s: error: %s" % (command[0], message)


@pytest.mark.parametrize(
    "command",
    [
        "check-convexity --energy iso2d-klin2 --samples 50 --seed 1",
        "check-conformal --map phi2d --n 50",
        # a zero tolerance refutes the FD route: the exit code 1 goes with the file too
        "check-conformal --map phi2d --n 50 --fd --tol 0",
        "jump-check --f1 1,2,-2,1 --f2 3,-1,1,3",
        "linearized-demo --n 50",
    ],
)
def test_json_out_file_holds_the_stdout_bytes(capsys, tmp_path, command):
    code, out = run(capsys, *command.split())
    path = tmp_path / "payload.json"
    assert run(capsys, *command.split(), "--out", str(path)) == (code, "")
    assert path.read_bytes() == out.encode()


def test_stress_field_worst_point_in_payload_and_summary(capsys, tmp_path):
    summary_path = tmp_path / "summary.json"
    code, out = run(
        capsys,
        "stress-field",
        "--energy", "composite3d",
        "--map", "phi3d",
        "--n", "300",
        "--seed", "7",
        "--summary", str(summary_path),
    )
    assert code == 0
    payload = json.loads(out)
    saved = json.loads(summary_path.read_text())
    assert all(payload[k] == v for k, v in saved.items())
    worst = payload["worst_point"]
    assert set(worst) == {"x", "F", "det_F", "sigma", "deviation"}
    assert worst["deviation"] == payload["max_deviation"]
    assert np.linalg.norm(worst["x"]) <= payload["domain"]["r_max"]
    assert abs(worst["det_F"] - np.linalg.det(worst["F"])) <= 1e-12 * worst["det_F"]
    assert np.max(np.abs(np.array(worst["sigma"]) - 2.0 / np.e * np.eye(3))) <= 1e-10


def test_jump_check_conformal_pair(capsys):
    code, out = run(
        capsys,
        "jump-check",
        "--f1", "1,2,-2,1",
        "--f2", "3,-1,1,3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["det_difference"] == 13.0
    assert payload["rank"] == 2
    assert payload["rank_one_connected"] is False
    assert payload["det_square_terms"] == [4.0, 9.0]


def test_jump_check_rank_one_pair(capsys):
    code, out = run(
        capsys,
        "jump-check",
        "--f1", "1,0,0,1",
        "--f2", "1,1,0,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["rank_one_connected"] is True


def test_jump_check_3d_pair(capsys):
    code, out = run(
        capsys,
        "jump-check",
        "--f1", "1,0,0,0,1,0,0,0,1",
        "--f2", "2,0,0,0,2,0,0,0,2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert "det_square_terms" not in payload


def test_jump_check_bad_matrix_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["jump-check", "--f1", "1,2,3", "--f2", "1,2,3,4"])
    assert exc.value.code == 2


def test_jump_check_refuses_a_jump_that_would_overflow(capsys):
    # finite entries whose difference or its products overflow ended in an
    # OverflowError, in "Infinity" in the JSON, or in NaN singular values
    for f1, f2 in (
        ("1e200,0,0,1e200", "1,0,0,1"),
        ("1e200,0,0,1e200", "1,2,3,4"),
        ("1e308,1e308,1e308,1e308", "-1e308,-1e308,-1e308,-1e308"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["jump-check", "--f1", f1, "--f2=" + f2])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("confmech jump-check: error: jump too large")


def test_jump_check_refuses_an_svd_that_did_not_converge(capsys, monkeypatch):
    # LAPACK reports non-convergence as NaN singular values; np.linalg.svd raised a
    # LinAlgError there, which the CLI does not catch
    monkeypatch.setattr(confmech.fields, "_lapack_svd", lambda D: np.full(len(D), np.nan))
    with pytest.raises(confmech.ConfmechError) as exc:
        confmech.jump_check(np.eye(3), 2.0 * np.eye(3))
    assert str(exc.value) == "the SVD of F1 - F2 did not converge"
    with pytest.raises(SystemExit) as exc:
        main(["jump-check", "--f1", "1,0,0,1", "--f2", "2,0,0,2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "confmech jump-check: error: the SVD of F1 - F2 did not converge"


def test_render_grid(capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, out = run(
        capsys,
        "render-grid",
        "--map", "phi2d",
        "--out", str(out_path),
        "--spacing", "0.05",
        "--resolution", "24",
    )
    assert code == 0
    assert str(out_path) in out
    text = out_path.read_text()
    assert text.startswith("<svg ") and "</svg>" in text


REFERENCE_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")


def _reference_svg_digest():
    with open(REFERENCE_JSON) as fh:
        return json.load(fh)["render-grid.svg"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the benchmark's render-grid call, pinned in perfbench/reference.json
        (["--map", "phi2d"], None),
        # recorded with the one-point evaluate loop of gridplot
        (
            ["--map", "moebius:sphere(0,0;1)+plane(0,1;0)", "--resolution", "24",
             "--spacing", "0.05"],
            "edca0bfe330dd7723633187f1e8f3a43dfb0cd76ecd5b9be5a68a9af09d74d1e",
        ),
        (
            ["--map", "moebius:sphere(0.1,0.2;0.7)"],
            "4b725739f85427c79dfd519f51baf521b24d19eaf114eaf004a2d0e1236224b2",
        ),
    ],
)
def test_render_grid_svg_bytes(capsys, tmp_path, argv, digest):
    out_path = tmp_path / "fig.svg"
    code, _ = run(capsys, "render-grid", *argv, "--out", str(out_path))
    assert code == 0
    want = digest or _reference_svg_digest()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want


def test_render_grid_rejects_3d(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["render-grid", "--map", "phi3d", "--out", str(tmp_path / "x.svg")])
    assert exc.value.code == 2


def test_linearized_demo(capsys):
    code, out = run(capsys, "linearized-demo", "--n", "300", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_dev_sym_norm"] <= 1e-12
    assert payload["max_sigma_lin_norm"] <= 1e-12
    q = payload["quadratic_approx"]
    assert q["w"] == [16.0, 0.0]
    assert q["p"] == -13.0
    assert q["b"] == [6.0, 0.0]
    assert q["value_at_expansion_point"] == [2.0, 0.0]
    assert q["max_error_on_disk"] <= 0.08


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_energy_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check-convexity", "--energy", "mystery"])
    assert exc.value.code == 2


def test_main_reuses_its_parser_across_calls(capsys):
    # one parser per process; each call still answers as a fresh process does
    calls = [
        ["stress-field", "--energy", "composite2d", "--map", "phi2d", "--n", "5", "--c", "inf"],
        ["stress-field", "--energy", "composite2d", "--map", "phi2d", "--n", "50", "--seed", "3"],
        ["jump-check", "--f1", "1,0,0,1", "--f2", "1,1,0,1"],
        ["stress-field", "--energy", "composite2d", "--map", "phi2d", "--n", "0"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "confmech.cli", *argv], capture_output=True, text=True, env=env
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
    assert build_parser() is build_parser()


# stdout SHA-256 of the certificate commands, recorded before the certificates
# were evaluated as stacks; every value printed is a full-precision float
CERTIFICATE_PAYLOADS = {
    "check-convexity --energy iso2d-klin2 --samples 500 --seed 0": "eb08786168e769fb0b5158939e19a99a95a33f7504595cb4ca475e6aedaef6c1",
    "check-convexity --energy iso2d-klin2 --samples 500 --seed 3": "0018d9d0eff4a8e635ff69b4c07794c47294bca4ff99a2156bbcee9b40f7768a",
    "check-convexity --energy iso2d-psi --samples 500 --seed 0": "baa7980e66924293a168a8a6f9c06279e5a6532e2bb5381ba20b47317be75b27",
    "check-convexity --energy iso2d-psi --samples 500 --seed 3": "b592c53e42831cc7e3b995be0d189b7b091d7feab9b94c0d85c18318e4b15de8",
    "check-convexity --energy iso3d --samples 500 --seed 0": "eb547f0adc2927dab1b1c717b374ead5206346f6c3d011d371e57ea3bf2d8629",
    "check-convexity --energy iso3d --samples 500 --seed 3": "100f1d41841fb7ed3487b0b161919fa0aa70adbdbe8a80b9e120c7c9c0ee1aa6",
    "check-convexity --energy composite2d --samples 500 --seed 0": "a7c7f4196b501c3af2b284f506a1e0921fe295c12cccbb1af58066f10e10781d",
    "check-convexity --energy composite2d --samples 500 --seed 3": "3459ca045a088ab48bee00591ba1ebff73128fdd054b758589c46005deba275b",
    "check-convexity --energy composite3d --samples 500 --seed 0": "65a869a033b23c5ee3cd9fc0ddee78e1f8e9bc55eb06a5de2a508fc456c2230d",
    # one sample has det F > c + 709: exp(t - c) overflows and its LH value is +inf
    "check-convexity --energy composite3d --samples 500 --seed 3": "0d2ce57c4f6b730d68938df91570cb49966949bec151da8eb7530a4cebee3cb6",
    # the same for one sample here: +inf, where the overflow once gave NaN (the same stdout)
    "check-convexity --energy composite3d --samples 500 --seed 14": "6ffdbb5c26d5e8e91919f9c8db75c19ade04e3a9fb922a9be24e13d8722f1cee",
    "check-conformal --map phi3d --n 1000 --seed 0": "1eb43d79f7db2169d62851b0e606ab83e2333e1cbb227f69b8ecfce31ab62071",
    "check-conformal --map moebius:sphere(0,0,0;1)+plane(0,1,0;0) --n 1000 --seed 0": "f7ff3f8f54bf6b3d3fc7b44c5f83d572fae32f7e2e232c98ae3155ff0bb95a18",
    "check-conformal --map phi2d --n 1000 --seed 0 --fd": "883dcf7c2486c5c86d420715ed5a25faefde232874ff48ce54af47817876033b",
    "linearized-demo --n 500 --seed 0": "7fbaf431f04554222ca48e8b81fc72c9b03bee11dde739a0385c7edc02995704",
    "jump-check --f1 1,2,-2,1 --f2 3,-1,1,3": "53d2f2d1511b1c46aca9acf117171f290a4d09bf4c1a423f7ec4b020d5c1f90e",
    "jump-check --f1 1,0,0,1 --f2 1,1,0,1": "3a6b15cb9b6e9cd5f98e959029c06bae4902f8e1714569366d99398d59d8b6d1",
    "jump-check --f1 1,0,0,0,1,0,0,0,1 --f2 2,0,0,0,2,0,0,0,2": "0b4e90beda3fd45fe5f1d2e430f5ab3b9f1afc5cb0450987ed6b6a395a6ed65c",
}


def test_certificate_payload_bytes(capsys):
    # an overflow warning is an error here (pyproject's filterwarnings)
    for command, want in CERTIFICATE_PAYLOADS.items():
        code, out = run(capsys, *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == want, command
