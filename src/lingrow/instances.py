"""Synthetic problem instances shared by the CLI, the demos, and the tests.

Two families drive the interior-boundedness audits:

* a Dirichlet problem on the unit square whose datum is a gentle affine
  background plus a tall, narrow pyramid centered on one edge (sup ~ 100,
  moderate gradient mass): the minimizer detaches from the spike and stays
  of background size inside;
* a fidelity (denoising/inpainting) problem whose datum is a truncated
  inverse-square-root spike plus noise, snapped to a cell center so the
  truncation actually binds on the grid.
"""

from __future__ import annotations

import numpy as np

from .energy import DirichletProblem, FidelityProblem
from .grids import Field, Grid2, Mask
from .profiles import minimal_surface

__all__ = [
    "make_function",
    "make_field",
    "snap_to_cell",
    "dirichlet_boundary_spike",
    "fidelity_inverse_sqrt",
]


def make_function(spec: dict):
    """Build a sampling function ``fn(X, Y)`` from a synthetic-field
    description, by its ``kind``:

    * ``constant``: ``value`` everywhere;
    * ``affine``: ``c + ax x + ay y``;
    * ``edge_spike``: a pyramid of ``height`` and base radius ``width``
      sitting at ``center``, on the affine ``background = (c, ax, ay)``;
    * ``inverse_sqrt_spike``: ``min(cap, |x - center|^(-1/2))``, infinite
      at the center, then capped.
    """
    kind = spec.get("kind")
    if kind == "constant":
        value = float(spec["value"])
        return lambda X, Y: np.full_like(np.asarray(X, dtype=float), value)
    if kind == "affine":
        ax, ay, c = (float(spec.get(k, 0.0)) for k in ("ax", "ay", "c"))
        return lambda X, Y: ax * X + ay * Y + c
    if kind == "edge_spike":
        height = float(spec.get("height", 100.0))
        width = float(spec.get("width", 0.1))
        cx, cy = spec.get("center", (0.5, 0.0))
        c, ax, ay = spec.get("background", (0.0, 0.0, 0.0))

        def spike(X, Y):
            r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
            return (height * np.maximum(0.0, 1.0 - r / width)
                    + c + ax * X + ay * Y)

        return spike
    if kind == "inverse_sqrt_spike":
        (cx, cy), cap = spec["center"], float(spec.get("cap", 100.0))

        def inverse_sqrt(X, Y):
            r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
            with np.errstate(divide="ignore"):
                return np.minimum(cap, r ** (-0.5))

        return inverse_sqrt
    raise ValueError(f"unknown synthetic field kind {kind!r}")


def make_field(grid: Grid2, spec: dict, seed: int | None = None) -> Field:
    """Sample a synthetic description at cell centers, with its ``center``
    snapped to the nearest one, plus optional noise: ``noise`` times
    ``np.random.default_rng(seed).standard_normal``, the one use of
    ``numpy.random`` in the package."""
    spec = dict(spec)
    if "center" in spec:
        spec["center"] = snap_to_cell(grid, tuple(spec["center"]))
    u = Field.from_function(grid, make_function(spec))
    sigma = float(spec.get("noise", 0.0))
    if sigma > 0.0:
        if seed is None:
            raise ValueError("noisy synthetic fields need a seed")
        rng = np.random.default_rng(seed)
        u = Field(grid, u.values + sigma * rng.standard_normal(u.values.shape))
    return u


def snap_to_cell(grid: Grid2, point) -> tuple[float, float]:
    """Nearest cell center; keeps singular data aligned with the grid."""
    i = int(np.clip(round(point[0] / grid.h - 0.5), 0, grid.nx - 1))
    j = int(np.clip(round(point[1] / grid.h - 0.5), 0, grid.ny - 1))
    return ((i + 0.5) * grid.h, (j + 0.5) * grid.h)


def dirichlet_boundary_spike(nx: int = 128, ny: int = 128) -> DirichletProblem:
    """Unit-square Dirichlet problem with a tall pyramid on one edge.

    The datum is a pyramid of height 100 and base radius 0.1 centred at
    (0.5, 0) on top of the gentle affine background ``2 + x + y``; the
    density is the minimal-surface one.  The background keeps the interior
    solution of order one, so relative stability statistics on interior
    balls measure the spike's (lack of) influence rather than noise around
    zero.  The centre is sampled as given, where a config's ``edge_spike``
    snaps it to a cell centre: at 128^2 this datum peaks at 96.98 against
    102.51 (they differ by up to 5.52), and its ladder takes 9/6/3/3 Newton
    steps against 8/7/3/3.
    """
    spike = {"kind": "edge_spike", "height": 100.0, "width": 0.1,
             "center": (0.5, 0.0), "background": (2.0, 1.0, 1.0)}
    return DirichletProblem.from_function(Grid2(nx, ny, 1.0 / nx),
                                          make_function(spike),
                                          minimal_surface())


def fidelity_inverse_sqrt(nx: int = 128, ny: int = 128,
                          mask_rect=(0.1, 0.4, 0.3, 0.6)) -> FidelityProblem:
    """Denoising/inpainting instance with a capped inverse-sqrt spike.

    The datum is ``min(100, |x - c|^(-1/2))`` around c = (0.8, 0.8),
    snapped to a cell center so the sampled sup equals the cap, plus
    Gaussian noise of standard deviation 0.5 drawn from seed 0; the data
    weight is 0.5 and the density the minimal-surface one.
    ``mask_rect=None`` gives pure denoising.
    """
    grid = Grid2(nx, ny, 1.0 / nx)
    f = make_field(grid, {"kind": "inverse_sqrt_spike", "center": (0.8, 0.8),
                          "cap": 100.0, "noise": 0.5}, seed=0)
    mask = Mask.empty(grid) if mask_rect is None \
        else Mask.from_rect(grid, *mask_rect)
    return FidelityProblem(grid, f, mask, 0.5, minimal_surface())
