"""The benchmark workloads: inputs made from a seed, and the job a child
process runs on them.

Why each workload exists:

* ``dirichlet_spike_128`` - CLI ``full-report`` on the 128x128 Dirichlet
  edge-spike config.  The ghost-ring kernels and the Armijo/Barzilai-Borwein
  solver do nearly all the work; rung 0 is the longest.
* ``fidelity_inpaint_128`` - CLI ``full-report`` on the 128x128 capped
  inverse-sqrt inpainting config with an automatically selected ball.  The
  Neumann + mask kernels and the ill-conditioned delta = 1e-2 rung dominate;
  a mesh-independent solver has to show its gain here.

What the seed changes: it drives the minimality probe directions (the
config ``seed``).  The noisy inpainting datum is the
fixed seed-0 realization, written as a CSV input, because the noise
realization moves the total iteration count by about +-20% (seeds 0-5 give
5954-8506 iterations), which would swamp the run-to-run spread the benchmark
has to resolve.
"""

from __future__ import annotations

import json
import os

import numpy as np

NAMES = ("dirichlet_spike_128", "fidelity_inpaint_128")

# Smoke sizes exercise the same code paths on tiny grids in about a second;
# they exist for the benchmark's own tests, not for measurement.
_SIZES = {
    "dirichlet_spike_128": {"full": {"n": 128, "j_max": 8},
                            "smoke": {"n": 32, "j_max": 3}},
    "fidelity_inpaint_128": {
        "full": {"n": 128, "x0": [0.25, 0.45], "j_max": 6},
        "smoke": {"n": 64, "x0": [0.5, 0.5], "j_max": 2}},
}

FINAL_DELTA = 1e-4
MU = 1.5
MINIMALITY_TRIALS = 100
S_VALUES = [0.0, 1.0, 3.0]
# Dirichlet datum: tall pyramid on the bottom edge over an affine background
SPIKE = {"height": 100.0, "width": 0.1, "center": [0.5, 0.0],
         "background": [2.0, 1.0, 1.0]}
# Inpainting datum: capped inverse-sqrt spike plus Gaussian noise
INVERSE_SQRT = {"cap": 100.0, "noise": 0.5, "center": [0.8, 0.8],
                "noise_seed": 0}
MASK_RECT = [0.1, 0.4, 0.3, 0.6]
LAMBDA = 0.5


def sizes(name: str, smoke: bool) -> dict:
    return _SIZES[name]["smoke" if smoke else "full"]


def cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * (1.0 / n)


def snap(n: int, point) -> tuple[float, float]:
    """Nearest cell center of the unit square with n x n cells."""
    h = 1.0 / n
    i = int(np.clip(round(point[0] / h - 0.5), 0, n - 1))
    j = int(np.clip(round(point[1] / h - 0.5), 0, n - 1))
    return ((i + 0.5) * h, (j + 0.5) * h)


def spike_datum(n: int):
    """The edge-spike boundary datum as a function of (X, Y), centre snapped
    to a cell centre as the config loader does."""
    cx, cy = snap(n, SPIKE["center"])
    c, ax, ay = SPIKE["background"]

    def fn(X, Y):
        r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
        return (SPIKE["height"] * np.maximum(0.0, 1.0 - r / SPIKE["width"])
                + c + ax * X + ay * Y)

    return fn


def inverse_sqrt_datum(n: int) -> np.ndarray:
    """Noisy capped inverse-sqrt datum, shape (n, n, 1)."""
    xs = cell_centers(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    cx, cy = snap(n, INVERSE_SQRT["center"])
    r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
    with np.errstate(divide="ignore"):
        v = r ** (-0.5)
    f = np.minimum(INVERSE_SQRT["cap"], v)[:, :, None]
    rng = np.random.default_rng(INVERSE_SQRT["noise_seed"])
    return f + INVERSE_SQRT["noise"] * rng.standard_normal(f.shape)


def write_csv(path: str, values: np.ndarray) -> None:
    """The documented field CSV layout: ``x,y,channel,value`` rows with
    full-precision floats, x outermost."""
    nx, ny, nc = values.shape
    xs = [repr(float(x)) for x in cell_centers(nx)]
    ys = [repr(float(y)) for y in cell_centers(ny)]
    rows = ["x,y,channel,value"]
    for i in range(nx):
        for j in range(ny):
            for c in range(nc):
                rows.append(f"{xs[i]},{ys[j]},{c},{float(values[i, j, c])!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _cli_config(name: str, seed: int, smoke: bool) -> dict:
    sz = sizes(name, smoke)
    n = sz["n"]
    cfg = {"seed": seed, "grid": {"nx": n, "ny": n, "h": 1.0 / n},
           "solver": {"mu": MU}, "minimality_trials": MINIMALITY_TRIALS,
           "s_values": S_VALUES}
    if name == "dirichlet_spike_128":
        datum = dict(kind="edge_spike", **SPIKE)
        cfg["problem"] = {"kind": "dirichlet",
                          "density": {"kind": "minimal_surface"},
                          "u0": {"synthetic": datum}}
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.3, "j_max": sz["j_max"]}
    else:
        cfg["problem"] = {"kind": "fidelity",
                          "density": {"kind": "minimal_surface"},
                          "f": {"csv": {"path": "datum.csv"}},
                          "mask": {"rect": MASK_RECT}, "lambda": LAMBDA}
        cfg["ball"] = {"auto": True, "x0": sz["x0"], "j_max": sz["j_max"]}
    return cfg


def make_job(name: str, seed: int, smoke: bool, input_dir: str) -> dict:
    """Write the seed's inputs into input_dir; return the child's job."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    os.makedirs(input_dir, exist_ok=True)
    n = sizes(name, smoke)["n"]
    if name == "fidelity_inpaint_128":
        write_csv(os.path.join(input_dir, "datum.csv"), inverse_sqrt_datum(n))
    config = os.path.join(input_dir, "config.json")
    with open(config, "w") as fh:
        json.dump(_cli_config(name, seed, smoke), fh, indent=1)
    return {"workload": name, "n": n, "config": config,
            "command": "full-report"}
