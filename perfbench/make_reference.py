"""Record the reference outputs the benchmark compares against, in reference.json.

For each size, and every CLI seed the field3d-csv steps of benchmark seeds
0 .. REFERENCE_SEEDS-1 use, it records the SHA-256 of the CSV that
`stress-field --out` writes; and the SHA-256 of the render-grid SVG.  Run
from the repository root, once, at a commit whose output bytes are known
good:

    python3 perfbench/make_reference.py --commit <sha>

Re-recording after a change to the program would hide a change of its bytes.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import confmech.cli as cli  # noqa: E402

from workloads import (  # noqa: E402
    REFERENCE_SEEDS,
    SIZES,
    call_cli,
    field3d_argv,
    field3d_cli_seeds,
    render_grid_argv,
    sha256_of,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the outputs come from")
    args = parser.parse_args()
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    csv_path, summary_path, svg_path = (str(out / f) for f in ("ref.csv", "ref.json", "ref.svg"))
    ref = {"commit": args.commit, "field3d-csv": {}}
    for size in SIZES.values():
        n = size["points"]
        hashes = {}
        for seed in range(REFERENCE_SEEDS):
            for cli_seed in field3d_cli_seeds(seed, size["field_steps"]):
                code, _ = call_cli(cli, field3d_argv(n, cli_seed, csv_path, summary_path))
                if code != 0:
                    raise SystemExit("stress-field failed for seed %d" % cli_seed)
                hashes[str(cli_seed)] = sha256_of(csv_path)
        ref["field3d-csv"][str(n)] = hashes
    if call_cli(cli, render_grid_argv(svg_path))[0] != 0:
        raise SystemExit("render-grid failed")
    ref["render-grid.svg"] = sha256_of(svg_path)
    for path in (csv_path, summary_path, svg_path):
        os.remove(path)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
