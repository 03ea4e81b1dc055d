"""Command line interface, exercised in process through main()."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import confmech
from confmech.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    assert payload["ks_all_strict"] is True
    assert len(payload["ks_grid"]) == 900
    assert len(payload["witnesses"]) == 3


def test_check_convexity_other_energies(capsys):
    for name in ("iso2d-psi", "iso3d", "composite2d", "composite3d"):
        code, out = run(
            capsys, "check-convexity", "--energy", name, "--samples", "200"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "strictly-elliptic"
        assert "ks_grid" not in payload


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
        assert line.endswith("argument --seed: must be at least 0, got -1"), line
    code, _ = run(capsys, "check-conformal", "--map", "phi2d", "--n", "5", "--seed", "-1")
    assert code == 0


def test_thin_annulus_exits_two_instead_of_hanging():
    # a fresh process under a timeout: rejection sampling of this shell takes about 7e10 draws
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    argv = ["stress-field", "--energy", "composite3d", "--map", "phi3d", "--c", "2.71828183"]
    proc = subprocess.run(
        [sys.executable, "-m", "confmech.cli", *argv, "--n", "10"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "budget" in proc.stderr.strip().splitlines()[-1]


def test_composite_field_past_the_exp_overflow_exits_two_without_a_warning():
    # det F reaches 4.4e4 on this shell: f' is +inf, and the stress was NaN with
    # "invalid value" RuntimeWarnings, exit 1 and NaN/Infinity in the payload
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(confmech.__file__)))
    argv = ["stress-field", "--energy", "composite3d", "--map", "moebius:sphere(0,0,0;3)+plane(0,1,0;0)"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "confmech.cli", *argv, "--n", "20"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Warning" not in proc.stderr
    assert "past the volumetric exp overflow" in proc.stderr.strip().splitlines()[-1]


def test_non_finite_payload_exits_two_with_one_line(capsys):
    # a sphere of radius 1e100 puts det F at +inf: the field is NaN throughout,
    # which the payload printed as NaN, not JSON, with exit 1
    argv = ["stress-field", "--energy", "iso2d-klin2", "--map", "moebius:sphere(0,0;1e100)+plane(0,1;0)"]
    with np.errstate(all="ignore"), pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("confmech stress-field: error: the result is not valid JSON")


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
    "check-convexity --energy iso2d-klin2 --samples 500 --seed 0": "8031caeb4644face4ca4583f51645a3e7414ffe01608e3014fd5293e5c1ff620",
    "check-convexity --energy iso2d-klin2 --samples 500 --seed 3": "276832dc23e42fd801fd4a3e6d5dded3b3d511b08eff04ea4d44ad9ab02a1029",
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
