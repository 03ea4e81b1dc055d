"""Command line front end.

Subcommands: stress-field, check-convexity, check-conformal, jump-check,
render-grid, linearized-demo.  Each returns its payload and verdict, and
main alone writes the payload and picks the exit code: 0 on success, 1 when
a verification fails (an inhomogeneous field, a violated or unconfirmed
convexity scan, a failed conformality check), 2 on usage errors, arguments
the library rejects with a ConfmechError and output paths that cannot be
written, each with a one-line message under the subcommand's usage; the
commands re-check none of the rules that the library refuses.

Map argument grammar: `phi2d`, `phi3d`, or `moebius:<spec>` where <spec> is
reflection steps joined by '+', each `sphere(cx,cy[,cz];r)` or
`plane(nx,ny[,nz];offset)`, numbers as Python writes them (1e+100 too);
e.g.  moebius:sphere(0,0;1)+plane(0,1;0) is exactly phi2d.  Möbius maps are
sampled on the default annulus 0.5 <= |x| <= 0.9 since no admissible
determinant band is known for them.

Payloads are written by fields.json_text, with the bytes of
json.dumps(payload, indent=2); a payload that holds a NaN or an infinity is
refused with exit 2 and one line, "the result is not valid JSON: ...".
"""

import argparse
import functools
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
from .energies import BUILTIN_ENERGIES, DEFAULT_C, builtin_energy
from .exceptions import ConfmechError
from .fields import (
    AnnulusDomain,
    admissible_annulus,
    json_text,
    jump_check,
    sample_annulus,
    stress_field,
    write_field_csv,
    write_summary_json,
    summary_to_dict,
)
from .gridplot import GRID_SPACING, SAMPLES_PER_LINE, DiskRegion, render_grid_svg
from .linearized import (
    KernelDisplacement,
    conformal_quadratic_approx,
    kernel_displacement,
    quadratic_approx_error,
    sigma_lin,
    w_lin_2d,
)
from .tensors import dev, frobenius_norm, require_count, require_seed, sym

# a word that argparse must take as a negative number; its own pattern misses -1e+20
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")
_LONG_OPTION = re.compile(r"--\w[\w-]*")
_STEP_RE = re.compile(r"^(sphere|plane)\(([^;]+);([^)]+)\)$")
# a '+' joins two steps only where the next step starts; 1e+100 keeps its sign
_STEP_JOIN = re.compile(r"\+(?=\s*(?:sphere|plane)\()")


def parse_map_spec(spec):
    """(map, kind) of a map argument; a ConfmechError names what is wrong with it."""
    if spec == "phi2d":
        return InversionFlip(2), "phi2d"
    if spec == "phi3d":
        return InversionFlip(3), "phi3d"
    if not spec.startswith("moebius:"):
        raise ConfmechError("unknown map %r (phi2d, phi3d, or moebius:<spec>)" % (spec,))
    steps = []
    for part in _STEP_JOIN.split(spec[len("moebius:"):]):
        m = _STEP_RE.match(part.strip())
        if m is None:
            raise ConfmechError("bad reflection step %r" % (part,))
        kind, coords, last = m.groups()
        try:
            vec = [float(v) for v in coords.split(",")]
            val = float(last)
        except ValueError:
            raise ConfmechError("bad numbers in reflection step %r" % (part,)) from None
        if kind == "sphere":
            steps.append(SphereReflection(np.asarray(vec), val))
        else:
            steps.append(HyperplaneReflection(np.asarray(vec), val))
    # the reflections refuse bad numbers and shapes, and the composition mixed dimensions
    return MoebiusMap(steps), "moebius"


def _cmd_stress_field(args):
    energy = builtin_energy(args.energy, c=args.c)
    mapping, kind = parse_map_spec(args.map)
    if kind in ("phi2d", "phi3d"):
        dom = admissible_annulus(kind, c=args.c)
    else:
        dom = AnnulusDomain(mapping.dim, 0.5, 0.9)
    tol = args.tol if args.tol is not None else (1e-5 if args.fd else 1e-10)
    samples, summary = stress_field(
        energy, mapping, dom, args.n, seed=args.seed, tol=tol, use_fd=args.fd
    )
    payload = summary_to_dict(summary)
    payload["energy"] = args.energy
    payload["map"] = args.map
    payload["domain"] = {"r_min": dom.r_min, "r_max": dom.r_max, "dim": dom.dim}
    text = json_text(payload)  # a field that is not finite is refused before any file is written
    if args.out:
        write_field_csv(args.out, samples)
    if args.summary:
        write_summary_json(args.summary, summary)
    return text, summary.homogeneous


def _cmd_check_convexity(args):
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
        # tolist: Python floats and bools, one row per point in C order
        a, b, ok = (c.ravel().tolist() for c in (grid.lambda1, grid.lambda2, grid.strict))
        payload["ks_grid"] = [
            {"lambda1": x, "lambda2": y, "values": v, "strict": s}
            for x, y, v, s in zip(a, b, grid.values.reshape(-1, 5).tolist(), ok)
        ]
        payload["ks_all_strict"] = bool(grid.strict.all())
    return payload, report.verdict in ("strictly-elliptic", "elliptic")


def _cmd_check_conformal(args):
    mapping, kind = parse_map_spec(args.map)
    tol = args.tol if args.tol is not None else (1e-6 if args.fd else 1e-10)
    dom = AnnulusDomain(mapping.dim, 0.5, 1.5)
    pts = sample_annulus(dom, args.n, seed=args.seed)
    ok, residuals = is_conformal_at(mapping, pts, tol=tol, use_fd=args.fd)
    failures = int(np.count_nonzero(~ok))
    worst = _max_ignoring_nan(residuals)
    payload = {
        "map": args.map,
        "n_samples": args.n,
        "tol": tol,
        "max_residual": worst,
        "failures": failures,
        "conformal": failures == 0,
    }
    return payload, failures == 0


def _max_ignoring_nan(values):
    """max(0.0, v1, v2, ...) as a running max() takes it: a NaN never wins."""
    return float(np.max(values, where=~np.isnan(values), initial=0.0))


def _parse_matrix(text, flag):
    vals = [v for v in text.replace(";", ",").split(",") if v.strip()]
    if len(vals) not in (4, 9):
        raise ConfmechError("%s needs 4 or 9 comma-separated entries (row-major)" % flag)
    try:
        flat = np.array([float(v) for v in vals])
    except ValueError:
        raise ConfmechError("bad number in %s" % flag) from None
    n = 2 if flat.size == 4 else 3
    return flat.reshape(n, n)


def _cmd_jump_check(args):
    F1 = _parse_matrix(args.f1, "--f1")
    F2 = _parse_matrix(args.f2, "--f2")
    report = jump_check(F1, F2, tol=args.tol)
    payload = {
        "f1": F1.tolist(),
        "f2": F2.tolist(),
        "difference_singular_values": report.difference_singular_values.tolist(),
        "rank": report.rank,
        "det_difference": report.det_difference,
        "rank_one_connected": report.rank_one_connected,
    }
    if report.det_square_terms is not None:
        payload["det_square_terms"] = list(report.det_square_terms)
    return payload, True


def _cmd_render_grid(args):
    mapping, _ = parse_map_spec(args.map)
    if mapping.dim != 2:
        raise ConfmechError("render-grid draws planar maps only")
    region = DiskRegion(center=(args.cx, args.cy), radius=args.radius)
    render_grid_svg(
        mapping,
        region,
        args.out,
        spacing=args.spacing,
        samples_per_line=args.resolution,
    )
    return "wrote %s" % args.out, True


def _cmd_linearized_demo(args):
    # per sample: beta, gamma, p_hat, spin and b_hat in [-2, 2), then x in [-1.5, 1.5)^2
    n = require_count(args.n, "n")
    low = np.array([-2.0] * 6 + [-1.5] * 2)
    draws = np.random.default_rng(require_seed(args.seed, numpy=True)).uniform(low, -low, size=(n, len(low)))
    k = KernelDisplacement(*draws[:, :4].T, b_hat=draws[:, 4:6])
    _, grads = kernel_displacement(k, draws[:, 6:])
    worst_dev = _max_ignoring_nan(frobenius_norm(dev(sym(grads))))
    worst_sigma = _max_ignoring_nan(frobenius_norm(sigma_lin(grads)))
    grad = grads[-1]
    approx = conformal_quadratic_approx()
    x0 = np.array([0.5, 0.0])
    at_center = x0 + kernel_displacement(approx, x0)[0]
    approx_err = quadratic_approx_error()
    payload = {
        "kernel_samples": n,
        "max_dev_sym_norm": worst_dev,
        "max_sigma_lin_norm": worst_sigma,
        "w_lin_2d_at_kernel": w_lin_2d(grad),
        "quadratic_approx": {
            "w": approx.w.tolist(),
            "p": approx.p_hat,
            "b": approx.b_hat.tolist(),
            "value_at_expansion_point": at_center.tolist(),
            "max_error_on_disk": approx_err,
        },
    }
    # measured max error on the r=0.15 disk is 0.072; 0.08 leaves slack
    return payload, worst_dev <= 1e-12 and worst_sigma <= 1e-12 and approx_err <= 0.08


@functools.cache
def build_parser():
    """The argparse parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="confmech",
        description="Conformal deformations, hyperelastic energies, and stress field checks.",
    )
    parser.add_argument("--version", action="version", version="confmech " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stress-field", help="sample a Cauchy stress field over an annulus")
    p.add_argument("--energy", required=True, choices=BUILTIN_ENERGIES)
    p.add_argument("--map", required=True)
    p.add_argument("--c", type=float, default=DEFAULT_C, help="volumetric splice point")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="homogeneity tolerance")
    p.add_argument("--fd", action="store_true", help="finite-difference map gradients")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--summary", default=None, help="JSON summary path")
    p.set_defaults(func=_cmd_stress_field, parser=p)

    p = sub.add_parser("check-convexity", help="Monte-Carlo rank-one convexity scan")
    p.add_argument("--energy", required=True, choices=BUILTIN_ENERGIES)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="json_out", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_check_convexity, parser=p)

    p = sub.add_parser("check-conformal", help="conformality residuals of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--fd", action="store_true", help="check the FD gradient instead")
    p.add_argument("--out", dest="json_out", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_check_conformal, parser=p)

    p = sub.add_parser("jump-check", help="rank-one compatibility of two gradients")
    p.add_argument("--f1", required=True, help="row-major entries, e.g. '1,0,0,1'")
    p.add_argument("--f2", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", dest="json_out", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_jump_check, parser=p)

    p = sub.add_parser("render-grid", help="SVG of a gridded disk and its image")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=SAMPLES_PER_LINE, help="samples per grid line")
    p.add_argument("--spacing", type=float, default=GRID_SPACING)
    p.add_argument("--cx", type=float, default=0.5)
    p.add_argument("--cy", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=0.21)
    p.set_defaults(func=_cmd_render_grid, parser=p)

    p = sub.add_parser("linearized-demo", help="kernel fields and the quadratic approximation")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="json_out", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_linearized_demo, parser=p)
    return parser


def _negative_values_joined(argv):
    """argv with each word that starts as a negative number joined to the long option before it by '='.

    argparse reads a word such as -1e+20 or -1,0,0,1 after an option as an
    unknown option, not as its value; --cx=-1e+20 it reads as the value.
    No option of this parser starts with '-' and a digit.
    """
    words = []
    for word in argv:
        if words and _NEGATIVE_NUMBER.match(word) and _LONG_OPTION.fullmatch(words[-1]):
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def main(argv=None):
    """Run one subcommand, write its payload and return its exit code.

    A dict payload goes out as indented JSON (fields.json_text), to the JSON --out file
    (dest json_out) or to stdout; a text payload (stress-field's JSON, made
    before its files are written, or a line) is printed.  A ConfmechError
    or OSError, from the command, the JSON or the file write, exits 2 through
    its own parser; stdout is written outside that route, so a closed pipe is
    not reported as a usage error.
    """
    args = build_parser().parse_args(_negative_values_joined(sys.argv[1:] if argv is None else argv))
    try:
        payload, ok = args.func(args)
        text = payload if isinstance(payload, str) else json_text(payload)
        out = getattr(args, "json_out", None)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
    except (ConfmechError, OSError) as exc:
        args.parser.error(str(exc))
    if not out:
        print(text)
    return 0 if ok else 1


# the shell's status of a writer killed by SIGPIPE
CLOSED_PIPE_EXIT = 128 + 13


def run():
    """main's exit code, for `confmech` and `python -m confmech`: a reader that closes stdout
    early (`confmech ... | head -3`) ends the command quietly with CLOSED_PIPE_EXIT."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = None  # and no second BrokenPipeError when Python flushes stdout at exit
        return CLOSED_PIPE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(run())
