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
    "constant_fn",
    "affine_fn",
    "edge_spike_fn",
    "inverse_sqrt_fn",
    "make_function",
    "make_field",
    "snap_to_cell",
    "dirichlet_boundary_spike",
    "fidelity_inverse_sqrt",
]


def constant_fn(value: float):
    return lambda X, Y: np.full_like(np.asarray(X, dtype=float), value)


def affine_fn(ax: float, ay: float, c: float):
    return lambda X, Y: ax * X + ay * Y + c


def edge_spike_fn(height: float, width: float, center=(0.5, 0.0),
                  background=(0.0, 0.0, 0.0)):
    """Pyramid of the given height and base radius sitting at ``center``.

    ``background=(c, ax, ay)`` adds the affine field c + ax x + ay y.
    """
    cx, cy = center
    c, ax, ay = background

    def fn(X, Y):
        r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
        return height * np.maximum(0.0, 1.0 - r / width) + c + ax * X + ay * Y

    return fn


def inverse_sqrt_fn(center, cap: float):
    """min(cap, |x - center|^(-1/2)); infinite at the center, then capped."""
    cx, cy = center

    def fn(X, Y):
        r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
        with np.errstate(divide="ignore"):
            v = r ** (-0.5)
        return np.minimum(cap, v)

    return fn


def make_function(spec: dict):
    """Build a sampling function from a synthetic-field description."""
    kind = spec.get("kind")
    if kind == "constant":
        return constant_fn(float(spec["value"]))
    if kind == "affine":
        return affine_fn(float(spec.get("ax", 0.0)), float(spec.get("ay", 0.0)),
                         float(spec.get("c", 0.0)))
    if kind == "edge_spike":
        return edge_spike_fn(float(spec.get("height", 100.0)),
                             float(spec.get("width", 0.1)),
                             tuple(spec.get("center", (0.5, 0.0))),
                             tuple(spec.get("background", (0.0, 0.0, 0.0))))
    if kind == "inverse_sqrt_spike":
        return inverse_sqrt_fn(tuple(spec["center"]),
                               float(spec.get("cap", 100.0)))
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
    zero.
    """
    grid = Grid2(nx, ny, 1.0 / nx)
    fn = edge_spike_fn(100.0, 0.1, (0.5, 0.0), (2.0, 1.0, 1.0))
    return DirichletProblem.from_function(grid, fn, minimal_surface())


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
