"""Command line interface, exercised in process through main()."""

import json

import numpy as np
import pytest

from confmech.cli import main


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
    assert payload["homogeneous"] is True
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
    assert payload["homogeneous"] is False
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
    ):
        with pytest.raises(SystemExit) as exc3:
            main(argv)
        assert exc3.value.code == 2, argv


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
