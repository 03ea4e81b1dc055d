"""Command line front end.

Subcommands: stress-field, check-convexity, check-conformal, jump-check,
render-grid, linearized-demo.  Exit codes: 0 on success, 1 when a
verification fails (an inhomogeneous field, a violated or unconfirmed
convexity scan, a failed conformality check), 2 on usage errors and on
arguments the library rejects with a ConfmechError.

Map argument grammar: `phi2d`, `phi3d`, or `moebius:<spec>` where <spec> is
reflection steps joined by '+', each `sphere(cx,cy[,cz];r)` or
`plane(nx,ny[,nz];offset)`; e.g.  moebius:sphere(0,0;1)+plane(0,1;0)
is exactly phi2d.  Möbius maps are sampled on the default annulus
0.5 <= |x| <= 0.9 since no admissible determinant band is known for them.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .conformal import (
    HyperplaneReflection,
    InversionFlip,
    MoebiusMap,
    SphereReflection,
    is_conformal_at,
)
from .convexity import (
    ks_grid_scan,
    ratio_minus_one_squared,
    ratio_minus_one_squared_derivatives,
    scan_rank_one_convexity,
)
from .energies import BUILTIN_ENERGIES, builtin_energy
from .exceptions import ConfmechError
from .fields import (
    AnnulusDomain,
    admissible_annulus,
    jump_check,
    sample_annulus,
    stress_field,
    write_field_csv,
    write_summary_json,
    summary_to_dict,
)
from .gridplot import DiskRegion, render_grid_svg
from .linearized import (
    KernelDisplacement,
    conformal_quadratic_approx,
    kernel_displacement,
    quadratic_approx_error,
    sigma_lin,
    w_lin_2d,
)
from .tensors import dev, frobenius_norm, sym

_STEP_RE = re.compile(r"^(sphere|plane)\(([^;]+);([^)]+)\)$")


def count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def positive(text):
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be greater than 0, got %r" % value)
    return value


def parse_map_spec(spec, parser):
    if spec == "phi2d":
        return InversionFlip(2), "phi2d"
    if spec == "phi3d":
        return InversionFlip(3), "phi3d"
    if not spec.startswith("moebius:"):
        parser.error("unknown map %r (phi2d, phi3d, or moebius:<spec>)" % (spec,))
    steps = []
    for part in spec[len("moebius:"):].split("+"):
        m = _STEP_RE.match(part.strip())
        if m is None:
            parser.error("bad reflection step %r" % (part,))
        kind, coords, last = m.groups()
        try:
            vec = [float(v) for v in coords.split(",")]
            val = float(last)
        except ValueError:
            parser.error("bad numbers in reflection step %r" % (part,))
        if len(vec) not in (2, 3):
            parser.error("reflection step %r must have 2 or 3 coordinates" % (part,))
        if kind == "sphere":
            steps.append(SphereReflection(np.asarray(vec), val))
        else:
            steps.append(HyperplaneReflection(np.asarray(vec), val))
    try:
        return MoebiusMap(steps), "moebius"
    except ValueError as exc:
        parser.error(str(exc))


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_stress_field(args, parser):
    energy = builtin_energy(args.energy, c=args.c)
    mapping, kind = parse_map_spec(args.map, parser)
    if mapping.dim != energy.dim:
        parser.error(
            "map %s is %dD but energy %s is %dD"
            % (args.map, mapping.dim, args.energy, energy.dim)
        )
    if kind in ("phi2d", "phi3d"):
        dom = admissible_annulus(kind, c=args.c)
    else:
        dom = AnnulusDomain(mapping.dim, 0.5, 0.9)
    tol = args.tol if args.tol is not None else (1e-5 if args.fd else 1e-10)
    samples, summary = stress_field(
        energy, mapping, dom, args.n, seed=args.seed, tol=tol, use_fd=args.fd
    )
    if args.out:
        write_field_csv(args.out, samples)
    if args.summary:
        write_summary_json(args.summary, summary)
    payload = summary_to_dict(summary)
    payload["energy"] = args.energy
    payload["map"] = args.map
    payload["domain"] = {"r_min": dom.r_min, "r_max": dom.r_max, "dim": dom.dim}
    _emit(payload, None)
    return 0 if summary.homogeneous else 1


def _cmd_check_convexity(args, parser):
    energy = builtin_energy(args.energy, c=args.c)
    report = scan_rank_one_convexity(energy, n_samples=args.samples, seed=args.seed)
    payload = {
        "energy": args.energy,
        "verdict": report.verdict,
        "min_lh_form": report.min_lh_form,
        "n_samples": report.n_samples,
        "witnesses": [
            {"F": F.tolist(), "xi": xi.tolist(), "eta": eta.tolist(), "lh_form": v}
            for F, xi, eta, v in report.witnesses
        ],
    }
    if args.energy == "iso2d-klin2":
        lams = np.logspace(-1.0, 1.0, 30)
        grid = ks_grid_scan(
            ratio_minus_one_squared, lams, derivatives=ratio_minus_one_squared_derivatives
        )
        payload["ks_grid"] = [
            {
                "lambda1": r.lambda1,
                "lambda2": r.lambda2,
                "values": [v for v in r.applicable_values()],
                "strict": r.strict,
            }
            for r in grid
        ]
        payload["ks_all_strict"] = all(r.strict for r in grid)
    _emit(payload, args.out)
    return 0 if report.verdict in ("strictly-elliptic", "elliptic") else 1


def _cmd_check_conformal(args, parser):
    mapping, kind = parse_map_spec(args.map, parser)
    tol = args.tol if args.tol is not None else (1e-6 if args.fd else 1e-10)
    dom = AnnulusDomain(mapping.dim, 0.5, 1.5)
    pts = sample_annulus(dom, args.n, seed=args.seed)
    worst = 0.0
    failures = 0
    for x in pts:
        ok, residual = is_conformal_at(mapping, x, tol=tol, use_fd=args.fd)
        worst = max(worst, residual)
        failures += 0 if ok else 1
    payload = {
        "map": args.map,
        "n_samples": int(args.n),
        "tol": tol,
        "max_residual": worst,
        "failures": failures,
        "conformal": failures == 0,
    }
    _emit(payload, args.out)
    return 0 if failures == 0 else 1


def _parse_matrix(text, parser, flag):
    vals = [v for v in text.replace(";", ",").split(",") if v.strip()]
    if len(vals) not in (4, 9):
        parser.error("%s needs 4 or 9 comma-separated entries (row-major)" % flag)
    try:
        flat = np.array([float(v) for v in vals])
    except ValueError:
        parser.error("bad number in %s" % flag)
    n = 2 if flat.size == 4 else 3
    return flat.reshape(n, n)


def _cmd_jump_check(args, parser):
    F1 = _parse_matrix(args.f1, parser, "--f1")
    F2 = _parse_matrix(args.f2, parser, "--f2")
    if F1.shape != F2.shape:
        parser.error("--f1 and --f2 must have the same dimension")
    report = jump_check(F1, F2, tol=args.tol)
    payload = {
        "f1": report.f1.tolist(),
        "f2": report.f2.tolist(),
        "difference_singular_values": report.difference_singular_values.tolist(),
        "rank": report.rank,
        "det_difference": report.det_difference,
        "rank_one_connected": report.rank_one_connected,
    }
    if report.det_square_terms is not None:
        payload["det_square_terms"] = list(report.det_square_terms)
    _emit(payload, args.out)
    return 0


def _cmd_render_grid(args, parser):
    mapping, _ = parse_map_spec(args.map, parser)
    if mapping.dim != 2:
        parser.error("render-grid draws planar maps only")
    region = DiskRegion(center=(args.cx, args.cy), radius=args.radius)
    render_grid_svg(
        mapping,
        region,
        args.out,
        spacing=args.spacing,
        samples_per_line=args.resolution,
    )
    print("wrote %s" % args.out)
    return 0


def _cmd_linearized_demo(args, parser):
    rng = np.random.default_rng(args.seed)
    worst_dev = 0.0
    worst_sigma = 0.0
    for _ in range(int(args.n)):
        k = KernelDisplacement.from_scalars(
            beta=rng.uniform(-2, 2),
            gamma=rng.uniform(-2, 2),
            p_hat=rng.uniform(-2, 2),
            spin=rng.uniform(-2, 2),
            b_hat=rng.uniform(-2, 2, size=2),
        )
        x = rng.uniform(-1.5, 1.5, size=2)
        _, grad = kernel_displacement(k, x)
        D = dev(sym(grad))
        worst_dev = max(worst_dev, frobenius_norm(D))
        worst_sigma = max(worst_sigma, frobenius_norm(sigma_lin(grad)))
    approx = conformal_quadratic_approx()
    x0 = np.array([0.5, 0.0])
    at_center = x0 + approx.displacement(x0)
    approx_err = quadratic_approx_error()
    payload = {
        "kernel_samples": int(args.n),
        "max_dev_sym_norm": worst_dev,
        "max_sigma_lin_norm": worst_sigma,
        "w_lin_2d_at_kernel": w_lin_2d(grad),
        "quadratic_approx": {
            "w": approx.w.tolist(),
            "p": approx.p,
            "b": approx.b.tolist(),
            "value_at_expansion_point": at_center.tolist(),
            "max_error_on_disk": approx_err,
        },
    }
    _emit(payload, args.out)
    # measured max error on the r=0.15 disk is 0.072; 0.08 leaves slack
    ok = worst_dev <= 1e-12 and worst_sigma <= 1e-12 and approx_err <= 0.08
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confmech",
        description="Conformal deformations, hyperelastic energies, and stress field checks.",
    )
    parser.add_argument("--version", action="version", version="confmech " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stress-field", help="sample a Cauchy stress field over an annulus")
    p.add_argument("--energy", required=True, choices=BUILTIN_ENERGIES)
    p.add_argument("--map", required=True)
    p.add_argument("--c", type=float, default=np.e + 2.0, help="volumetric splice point")
    p.add_argument("--n", type=count, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="homogeneity tolerance")
    p.add_argument("--fd", action="store_true", help="finite-difference map gradients")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--summary", default=None, help="JSON summary path")
    p.set_defaults(func=_cmd_stress_field)

    p = sub.add_parser("check-convexity", help="Monte-Carlo rank-one convexity scan")
    p.add_argument("--energy", required=True, choices=BUILTIN_ENERGIES)
    p.add_argument("--c", type=float, default=np.e + 2.0)
    p.add_argument("--samples", type=count, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_convexity)

    p = sub.add_parser("check-conformal", help="conformality residuals of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--fd", action="store_true", help="check the FD gradient instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_conformal)

    p = sub.add_parser("jump-check", help="rank-one compatibility of two gradients")
    p.add_argument("--f1", required=True, help="row-major entries, e.g. '1,0,0,1'")
    p.add_argument("--f2", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_jump_check)

    p = sub.add_parser("render-grid", help="SVG of a gridded disk and its image")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=count, default=42, help="samples per grid line")
    p.add_argument("--spacing", type=positive, default=0.0147)
    p.add_argument("--cx", type=float, default=0.5)
    p.add_argument("--cy", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=0.21)
    p.set_defaults(func=_cmd_render_grid)

    p = sub.add_parser("linearized-demo", help="kernel fields and the quadratic approximation")
    p.add_argument("--n", type=count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_linearized_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ConfmechError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
