"""confmech benchmark: one workload, timed steps, output checks, one JSON result.

Run from the repository root (single process, single-threaded BLAS):

    python3 perfbench/run.py --workload field3d-csv --seed 1 --seconds 30 --trace 0

A workload (workloads.py) is a list of short steps; a pass runs each step
once and every pass's outputs are checked.  Passes repeat for --seconds.
--trace 0 leaves the program untouched and reports the end-to-end metrics
of BENCHMARK.json.  --trace 1 alternates untraced passes with passes under
the tracer of spans.py, reports the per-layer metrics, and writes the spans
to .perfbench-out/trace-<workload>-seed<seed>.json.  A readable table comes
first; the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts wrong verdicts and mismatched outputs, and `correct` is
false when there is any.  Exact rank-one jumps that jump_check reports
with a higher rank are a known defect (baseline.json): they are counted apart, as
fields.jump_check.rank_errors in the traced run and in the table, not in
`failed`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 21
MIN_PASSES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]
# Printed in the table only: they are undefined on the field workloads, and
# every JSON metric must be nonzero on every workload.
STAGE_RATES = ("lh_forms_per_s", "jumps_per_s")

PER_LAYER = [
    ("fields.sample_annulus.s", "s"),
    ("fields.sample_annulus.draws_per_point", "draws/point"),
    ("conformal.gradient.s", "s"),
    ("conformal.gradient.calls", "count"),
    ("energies.cauchy_stress.s", "s"),
    ("energies.cauchy_stress.calls", "count"),
    ("energies.value.s", "s"),
    ("energies.value.calls", "count"),
    ("fields.stress_field.self_s", "s"),
    ("tensors.svd.s", "s"),
    ("tensors.svd.calls", "count"),
    ("tensors.eig_sym.s", "s"),
    ("tensors.eig_sym.calls", "count"),
    ("fields.write_field_csv.s", "s"),
    ("fields.write_field_csv.bytes", "bytes"),
    ("energies.second_form.s", "s"),
    ("convexity.lh_form.calls", "count"),
    ("convexity.rank_one_line_scan.calls", "count"),
    ("convexity.scan_rank_one_convexity.self_s", "s"),
    ("fields.jump_check.s", "s"),
    ("fields.jump_check.rank_errors", "count"),
    ("conformal.is_conformal_at.s", "s"),
    ("linearized.kernel_displacement.s", "s"),
    ("gridplot.render_grid_svg.s", "s"),
    ("cli.main.stress-field.self_s", "s"),
    ("cli.main.check-convexity.self_s", "s"),
    ("cli.main.check-conformal.self_s", "s"),
    ("cli.main.linearized-demo.self_s", "s"),
    ("cli.main.render-grid.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def parse_args():
    p = argparse.ArgumentParser(description="confmech benchmark")
    p.add_argument("--workload", required=True, choices=("field3d-csv", "field2d-ratio", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def probe_setup(workload):
    """Seconds of import confmech + workload construction in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_pass(steps, tracer=None):
    """Run every step once: (seconds per step, outputs, per-step layer metrics)."""
    clock = time.perf_counter
    times, outputs, layers = [], [], []
    for step in steps:
        lo = tracer.mark() if tracer else 0
        t0 = clock()
        outputs.append(step.call())
        times.append(clock() - t0)
        if tracer:
            layers.append(tracer.metrics_since(lo))
    return times, outputs, layers


def check_pass(steps, outputs, tally):
    t = Tally()
    for step, out in zip(steps, outputs):
        t.add(step.check(out))
    tally.add(t)
    return t


def best(steps, passes):
    """Each step's seconds at the fastest per-item time seen for its kind.

    On a shared host, contention slows stretches of seconds; the fastest
    repeat of short steps repeats far better than a median or a whole pass.
    Steps of one kind do the same work on other seeds, so they pool repeats.
    """
    unit = {}
    for times in passes:
        for step, t in zip(steps, times):
            unit[step.kind] = min(unit.get(step.kind, t / step.items), t / step.items)
    return [unit[step.kind] * step.items for step in steps]


def best_rates(steps, best_times):
    rates = {}
    for name in {s.rate for s in steps if s.rate}:
        picked = [(s.items, t) for s, t in zip(steps, best_times) if s.rate == name]
        rates[name] = sum(i for i, _ in picked) / sum(t for _, t in picked)
    return rates


def measure(steps, seconds, tally, tracer=None, between=None):
    """Passes for `seconds`; with a tracer every second pass is traced.

    between() runs after each pass, and its time extends the window.
    Returns (untraced step times, traced step times, traced layer metrics,
    rank errors of each traced pass), one list entry per pass.
    """
    plain, traced, layers, rank_errors = [], [], [], []
    want_traced = MIN_PASSES if tracer else 0
    t_end = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or len(traced) < want_traced or time.perf_counter() < t_end:
        on = tracer is not None and len(traced) < len(plain)
        if on:
            tracer.install()
        try:
            times, outputs, step_layers = run_pass(steps, tracer if on else None)
        finally:
            if on:
                tracer.uninstall()
        t = check_pass(steps, outputs, tally)
        if on:
            traced.append(times)
            layers.append(step_layers)
            rank_errors.append(t.rank_errors)
        else:
            plain.append(times)
        if between is not None:
            t0 = time.perf_counter()
            between()
            t_end += time.perf_counter() - t0
    return plain, traced, layers, rank_errors


def exact(name, values):
    if len(set(values)) != 1:
        raise RuntimeError("count %s differs between passes of one seed: %r" % (name, values))
    return values[0]


def layer_metrics(steps, plain, traced, layers, rank_errors):
    """Seconds: per step, the best traced pass, summed over steps.  Counts:
    summed over steps, and required to repeat exactly on every traced pass."""
    agg = {}
    for key in sorted({k for p in layers for step in p for k in step}):
        columns = zip(*[[step.get(key, 0) for step in p] for p in layers])  # one per step
        if key.endswith(".s") or key.endswith(".self_s"):
            agg[key] = sum(min(c) for c in columns)
        else:
            agg[key] = sum(exact(key, c) for c in columns)
    points = agg.get("fields.sample_annulus.points", 0)
    draws = agg.get("fields.sample_annulus.draws", 0)
    agg["fields.sample_annulus.draws_per_point"] = draws / points if points else 0.0
    agg["fields.jump_check.rank_errors"] = exact("fields.jump_check.rank_errors", rank_errors)
    agg["trace.overhead_s"] = sum(best(steps, traced)) - sum(best(steps, plain))
    return {
        name: {"value": agg.get(name, 0.0 if unit == "s" else 0), "unit": unit}
        for name, unit in PER_LAYER
    }


def main():
    args = parse_args()
    if not (SRC / "confmech" / "__init__.py").is_file():
        sys.exit("perfbench: no confmech sources under %s" % SRC)
    OUT.mkdir(exist_ok=True)

    sys.path.insert(0, str(SRC))
    import confmech
    import confmech.cli

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    steps = WORKLOADS[args.workload](confmech, confmech.cli, args.seed, args.size, str(OUT), reference)
    tally = Tally()
    check_pass(steps, run_pass(steps)[1], tally)  # warm-up pass, checked but not timed

    print(
        "env: python %s, numpy %s, nproc %d, BLAS threads %s"
        % (platform.python_version(), numpy.__version__, os.cpu_count(), os.environ["OPENBLAS_NUM_THREADS"])
    )
    tracer = Tracer(confmech) if args.trace else None
    # Set-up samples run between passes, so that like the steps they sample
    # the host over the whole window; setup_s is the fastest of them.
    setups = []

    def between():
        if not tracer and len(setups) < SETUP_REPEATS:
            setups.append(probe_setup(args.workload))

    plain, traced, layers, rank_errors = measure(steps, args.seconds, tally, tracer, between)
    if tracer:
        metrics = layer_metrics(steps, plain, traced, layers, rank_errors)
        path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        print("%s, seed %d: %d traced / %d untraced passes of %d steps, spans in %s"
              % (args.workload, args.seed, len(traced), len(plain), len(steps), path.relative_to(ROOT)))
        for name, m in metrics.items():
            print("  %-42s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        while len(setups) < SETUP_REPEATS:
            setups.append(probe_setup(args.workload))
        setup_s = min(setups)
        best_times = best(steps, plain)
        rates = best_rates(steps, best_times)
        pass_walls = [sum(p) for p in plain]
        values = {
            "setup_s": setup_s,
            "wall_s": sum(best_times),
            "points_per_s": rates["points_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("%s, seed %d: %d passes of %d steps; fastest per-item time of each step kind"
              % (args.workload, args.seed, len(plain), len(steps)))
        print("  %-16s %12.6g s (whole passes: median %.6g, worst %.6g)"
              % ("wall_s", values["wall_s"], statistics.median(pass_walls), max(pass_walls)))
        for name in ("points_per_s",) + STAGE_RATES:
            print("  %-16s %12s" % (name, "%.6g 1/s" % rates[name] if name in rates else "n/a"))
        print("  %-16s %12.6g s (fastest of %d fresh processes; median %.6g)"
              % ("setup_s", setup_s, SETUP_REPEATS, statistics.median(setups)))
        print("  %-16s %12.6g MiB" % ("peak_rss_mb", values["peak_rss_mb"]))
    print("  %-16s %12.6g (%d of %d)" % ("failed_frac", tally.failed / tally.attempted, tally.failed, tally.attempted))
    print("  %-16s %12.6g (%d exact rank-one jumps reported with a higher rank; known defect, not in failed)"
          % ("rank_error_frac", tally.rank_errors / tally.attempted, tally.rank_errors))
    for problem in sorted(set(tally.problems)):
        print("  FAILED: %s" % problem)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
