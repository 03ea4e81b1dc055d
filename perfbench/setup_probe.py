"""Print the set-up time of one workload, measured in this fresh process.

Set-up is `import confmech` (with its CLI module, and numpy through it)
plus construction of the workload's energies, maps and domains.  run.py
starts this script 21 times between passes and reports the fastest as
setup_s:

    python3 perfbench/setup_probe.py field3d-csv

This module imports nothing outside the standard library at top level, so
that workloads.py can share construct() without numpy loading before the
clock starts.
"""

import sys
import time
from pathlib import Path

MOEBIUS_SPEC = "moebius:sphere(0,0,0;1)+plane(0,1,0;0)"


def construct(cm, name):
    """The energies, maps and domains workload `name` needs."""
    if name == "field3d-csv":
        return [cm.builtin_energy("composite3d"), cm.InversionFlip(3), cm.admissible_annulus("phi3d")]
    if name == "field2d-ratio":
        return [
            cm.builtin_energy("composite2d"),
            cm.InversionFlip(2),
            cm.admissible_annulus("phi2d"),
            cm.AnnulusDomain(2, 0.5, 0.95),
        ]
    if name == "certify":
        energies = [cm.builtin_energy(e) for e in cm.BUILTIN_ENERGIES]
        # the map MOEBIUS_SPEC names
        moebius = cm.MoebiusMap(
            [cm.SphereReflection([0.0, 0.0, 0.0], 1.0), cm.HyperplaneReflection([0.0, 1.0, 0.0], 0.0)]
        )
        return energies + [cm.InversionFlip(3), moebius, cm.InversionFlip(2)]
    raise ValueError("unknown workload %r" % (name,))


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import confmech
    import confmech.cli  # noqa: F401

    construct(confmech, sys.argv[1])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
