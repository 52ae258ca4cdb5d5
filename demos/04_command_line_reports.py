"""
Driving everything from one JSON config
=======================================

The ``lingrow`` command line tool takes a single JSON config describing
the density, grid, problem, solver schedule, and audit balls, and writes
its results as PGM images, CSV tables, and JSON reports.  This script
builds a config, runs ``full-report`` twice, and shows that the outputs
are byte-for-byte reproducible for a fixed config and seed.
"""

import json
import os
import tempfile

from lingrow.cli import main
from lingrow.pgmio import read_pgm

# ---------------------------------------------------------------------------
# a small inpainting run: 32x32, noisy spike datum, explicit audit ball

config = {
    "seed": 5,
    "density": {"kind": "minimal_surface"},
    "grid": {"nx": 32, "ny": 32, "h": 1.0 / 32},
    "solver": {"mu": 1.5, "delta_schedule": [0.1, 0.01, 0.001],
               "residual_tol": 1e-9},
    "problem": {
        "kind": "fidelity",
        "density": {"kind": "minimal_surface"},
        "f": {"synthetic": {"kind": "inverse_sqrt_spike",
                            "center": [0.8, 0.8], "cap": 100.0,
                            "noise": 0.5}},
        "mask": {"rect": [0.1, 0.4, 0.3, 0.6]},
        "lambda": 0.5,
    },
    "ball": {"center": [0.5, 0.5], "r0": 0.35, "j_max": 3},
    "s_values": [0.0, 1.0],
    "minimality_trials": 25,
}

work = tempfile.mkdtemp(prefix="lingrow_demo_")
cfg_path = os.path.join(work, "run.json")
with open(cfg_path, "w") as fh:
    json.dump(config, fh, indent=1)

# ---------------------------------------------------------------------------
# run the full pipeline twice into separate directories

for name in ("first", "second"):
    out = os.path.join(work, name)
    code = main(["full-report", "--config", cfg_path, "--out", out])
    print(f"{name} run exit code: {code}")

first, second = (os.path.join(work, n) for n in ("first", "second"))
print("\nartifacts:")
for fname in sorted(os.listdir(first)):
    a = open(os.path.join(first, fname), "rb").read()
    b = open(os.path.join(second, fname), "rb").read()
    print(f"  {fname:24s} {len(a):>7d} bytes  "
          f"{'identical' if a == b else 'DIFFERS'}")

# ---------------------------------------------------------------------------
# peek inside the summary and one of the rendered solutions

with open(os.path.join(first, "report.json")) as fh:
    report = json.load(fh)
print("\nreport.json:", json.dumps(report, indent=2, sort_keys=True))

ints, maxval = read_pgm(os.path.join(first, "solution_0p001.pgm"))
print(f"solution_0p001.pgm: {ints.shape[0]}x{ints.shape[1]}, "
      f"levels 0..{maxval}, used {ints.min()}..{ints.max()}")
print(f"\n(outputs left in {work})")
