"""The benchmark's workloads: inputs from a seed, short timed steps, output checks.

A workload is a list of steps built from the benchmark seed.  Each step is
one short program call (about 0.1 s on the reference host), timed on its
own; one pass runs every step once.  run.py repeats passes and reports, per
step, the fastest repeat: on a shared host contention slows stretches of
seconds, and the minimum of a short step repeats far better than the time
of a long pass.

A step's check runs after the pass, outside the timing, and compares what
the call returned or wrote with the expected verdicts and bytes.  Program
functions are looked up on their modules at call time (cli.main,
fields.stress_field, fields.jump_check), so the tracer in spans.py sees
them when it is installed.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from setup_probe import MOEBIUS_SPEC, construct

TWO_OVER_E = 2.0 / math.e
STRESS_TOL = 1e-10  # acceptance criterion 1
REFERENCE_SEEDS = 100  # benchmark seeds (mod this) with recorded field3d-csv CSV hashes
STEP_SEEDS = 10  # CLI seeds per benchmark seed: 10 * (seed % REFERENCE_SEEDS) + step

SIZES = {
    "full": dict(field_steps=10, points=1000, reps=2, scan=500, conformal=1000, jumps=2000, jump_chunk=500, kernel=500),
    "tiny": dict(field_steps=2, points=100, reps=2, scan=50, conformal=50, jumps=100, jump_chunk=50, kernel=25),
}


def field3d_argv(n, seed, csv_path, summary_path):
    return [
        "stress-field", "--energy", "composite3d", "--map", "phi3d",
        "--n", str(n), "--seed", str(seed), "--out", csv_path, "--summary", summary_path,
    ]


def field3d_cli_seeds(seed, steps):
    base = STEP_SEEDS * (seed % REFERENCE_SEEDS)
    return [base + i for i in range(steps)]


def render_grid_argv(svg_path):
    return ["render-grid", "--map", "phi2d", "--out", svg_path]


def call_cli(cli, argv):
    """(exit code, stdout) of one cli.main call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rank_errors: int = 0  # exact rank-one jumps reported with a higher rank: the known defect, not in failed
    problems: list = field(default_factory=list)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.rank_errors += other.rank_errors
        self.problems.extend(other.problems)


@dataclass
class Step:
    call: object  # () -> output; the timed program work
    check: object  # output -> Tally
    kind: str  # steps of one kind do the same work on other seeds
    rate: object  # name of the rate this step's items count toward, or None
    items: int


def _cli_step(cli, argv, kind, rate, items, check):
    return Step(lambda: call_cli(cli, argv), check, kind, rate, items)


def _exit_check(what):
    def check(output):
        t = Tally()
        t.expect(output[0] == 0, what)
        return t

    return check


def field3d_csv(cm, cli, seed, size, outdir, reference):
    """Criterion 1 end to end: composite3d on phi3d, CSV and summary written."""
    sz = SIZES[size]
    n = sz["points"]
    hashes = reference["field3d-csv"][str(n)]
    steps = []
    for i, cli_seed in enumerate(field3d_cli_seeds(seed, sz["field_steps"])):
        csv_path = os.path.join(outdir, "field3d-%d.csv" % i)
        summary_path = os.path.join(outdir, "field3d-%d-summary.json" % i)

        def check(output, csv_path=csv_path, summary_path=summary_path, want=hashes[str(cli_seed)]):
            code, text = output
            t = Tally()
            payload = json.loads(text)
            t.expect(
                code == 0 and payload["homogeneous"] and payload["admissible"]
                and payload["n_samples"] == n,
                "stress-field verdict",
            )
            with open(summary_path) as fh:
                summary = json.load(fh)
            t.expect(all(payload.get(k) == v for k, v in summary.items()), "summary file")
            t.expect(sha256_of(csv_path) == want, "CSV sha256")
            bad = rows = 0
            with open(csv_path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                cols = [header.index("s%d%d" % (a, b)) for a in (1, 2, 3) for b in (1, 2, 3)]
                target = [TWO_OVER_E if a == b else 0.0 for a in (1, 2, 3) for b in (1, 2, 3)]
                for row in reader:
                    rows += 1
                    dev2 = sum((float(row[c]) - s) ** 2 for c, s in zip(cols, target))
                    bad += not math.sqrt(dev2) <= STRESS_TOL
            bad += max(0, n - rows)
            t.attempted += n
            t.failed += bad
            if bad:
                t.problems.append("points with |sigma - (2/e) id| > %g" % STRESS_TOL)
            return t

        argv = field3d_argv(n, cli_seed, csv_path, summary_path)
        steps.append(_cli_step(cli, argv, "stress-field 3d", "points_per_s", n, check))
    return steps


def field2d_ratio(cm, cli, seed, size, outdir, reference):
    """composite2d on phi2d through the SVD ratio energy, plus the criterion 10 control."""
    sz = SIZES[size]
    n = sz["points"]
    energy, flip, _, wide = construct(cm, "field2d-ratio")

    def check_admissible(output):
        code, text = output
        t = Tally()
        payload = json.loads(text)
        mean_err = np.max(np.abs(np.array(payload["mean_sigma"]) - TWO_OVER_E * np.eye(2)))
        t.expect(
            code == 0 and payload["homogeneous"] and payload["admissible"]
            and payload["n_samples"] == n and mean_err <= STRESS_TOL,
            "stress-field verdict on the admissible annulus",
        )
        return t

    def control(step_seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, summary = cm.fields.stress_field(energy, flip, wide, n, seed=step_seed)
        return summary, [w.category for w in caught]

    def check_control(output):
        summary, categories = output
        t = Tally()
        warned = any(issubclass(c, cm.InadmissibleDomainWarning) for c in categories)
        t.expect(
            warned and not summary.homogeneous and summary.max_deviation > 1e-2,
            "negative control on AnnulusDomain(2, 0.5, 0.95)",
        )
        return t

    steps = []
    for i in range(sz["field_steps"] // 2):
        step_seed = STEP_SEEDS * seed + i
        argv = ["stress-field", "--energy", "composite2d", "--map", "phi2d",
                "--n", str(n), "--seed", str(step_seed)]
        steps.append(_cli_step(cli, argv, "stress-field 2d", "points_per_s", n, check_admissible))
        steps.append(Step(lambda s=step_seed: control(s), check_control, "control", "points_per_s", n))
    return steps


def certify(cm, cli, seed, size, outdir, reference):
    """Every other verdict: convexity scans, conformality, jump ranks, linearized, grid.

    Each CLI call runs `reps` times on different seeds, so each kind of step
    has several repeats per pass.
    """
    sz = SIZES[size]
    reps = sz["reps"]
    rng = np.random.default_rng(seed)
    steps = []

    def seeds():
        return [str(s) for s in rng.integers(0, 2**31, size=reps)]

    for energy in cm.BUILTIN_ENERGIES:
        def check_scan(output, energy=energy):
            code, text = output
            payload = json.loads(text)
            t = Tally()
            t.expect(
                code == 0 and payload["verdict"] == "strictly-elliptic"
                and payload["n_samples"] == sz["scan"],
                "check-convexity %s" % energy,
            )
            return t

        for s in seeds():
            argv = ["check-convexity", "--energy", energy, "--samples", str(sz["scan"]), "--seed", s]
            steps.append(_cli_step(cli, argv, argv[0] + " " + energy, "lh_forms_per_s", sz["scan"], check_scan))

    for spec in ("phi3d", MOEBIUS_SPEC):
        def check_conformal(output, spec=spec):
            code, text = output
            payload = json.loads(text)
            t = Tally()
            t.expect(code == 0 and payload["conformal"] and payload["failures"] == 0,
                     "check-conformal %s" % spec)
            return t

        for s in seeds():
            argv = ["check-conformal", "--map", spec, "--n", str(sz["conformal"]), "--seed", s]
            steps.append(_cli_step(cli, argv, argv[0] + " " + spec, "points_per_s", sz["conformal"], check_conformal))

    # (F1, F2, expected rank): criterion 9's planar conformal pairs, then exact
    # jumps F1 + a (x) b in 2D and 3D.
    groups = {"pairs": []}
    for a1, b1, a2, b2 in rng.uniform(-3.0, 3.0, size=(sz["jumps"], 4)):
        groups["pairs"].append((np.array([[a1, b1], [-b1, a1]]), np.array([[a2, b2], [-b2, a2]]), 2))
    for dim in (2, 3):
        group = groups["exact %dd" % dim] = []
        for _ in range(sz["jumps"]):
            F1 = cm.random_def_gradient(rng, dim)
            group.append((F1, F1 + np.outer(rng.standard_normal(dim), rng.standard_normal(dim)), 1))

    def check_jumps(reports, chunk):
        t = Tally()
        for (_, _, expected), rep in zip(chunk, reports):
            t.attempted += 1
            if rep.rank == expected and (expected == 1 or rep.det_difference > 0.0):
                continue
            if expected == 1 and rep.rank > 1:
                t.rank_errors += 1  # the known defect: recorded, not failed
                continue
            t.failed += 1
            if expected == 1:
                t.problems.append("exact rank-one jump reported rank %d" % rep.rank)
            else:
                t.problems.append("planar conformal pair reported rank %d" % rep.rank)
        return t

    k = sz["jump_chunk"]
    for name, jumps in groups.items():
        for lo in range(0, len(jumps), k):
            chunk = jumps[lo:lo + k]
            steps.append(Step(
                lambda chunk=chunk: [cm.fields.jump_check(F1, F2) for F1, F2, _ in chunk],
                lambda reports, chunk=chunk: check_jumps(reports, chunk),
                "jump_check " + name,
                "jumps_per_s",
                len(chunk),
            ))

    for s in seeds():
        argv = ["linearized-demo", "--n", str(sz["kernel"]), "--seed", s]
        steps.append(_cli_step(cli, argv, argv[0], None, sz["kernel"], _exit_check(argv[0])))

    svg_path = os.path.join(outdir, "certify-grid.svg")

    def check_grid(output):
        t = Tally()
        t.expect(output[0] == 0 and sha256_of(svg_path) == reference["render-grid.svg"], "render-grid SVG")
        return t

    steps.append(_cli_step(cli, render_grid_argv(svg_path), "render-grid", None, 1, check_grid))
    return steps


WORKLOADS = {"field3d-csv": field3d_csv, "field2d-ratio": field2d_ratio, "certify": certify}
