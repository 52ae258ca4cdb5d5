"""Uniform 2D cell-centered grids, fields, and the discrete calculus.

The domain is the rectangle (0, nx*h) x (0, ny*h) with cell centers at
((i+0.5)h, (j+0.5)h).  Differences of cell values are formed in one place,
``ring_differences``, and ``ring_adjoint`` is its exact adjoint.  They work
on the ring layout: the (nx, ny) values are surrounded by a ring of nodes,
and the (nx+1) x (ny+1) difference cells reach one step past every edge;
cell (I, J) links ring node (I, J) to (I+1, J) and to (I, J+1), where ring
node (i+1, j+1) is value (i, j).  The ring nodes are zero, so the pair is
linear, and a boundary rule is data on that layout: a Dirichlet datum adds
its constant ring differences to those of the values
(``energy.DirichletProblem.ring_offset``), and ``neumann_live`` masks the
differences of homogeneous Neumann data: only those between two values
stay, so the ring row and column and the differences that would leave the
grid are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid2",
    "Field",
    "Mask",
    "Ball",
    "neumann_live",
    "ring_differences",
    "ring_adjoint",
    "sup_on",
    "lp_on_log",
]

_MAX_CELLS = 2 ** 24


@dataclass(frozen=True)
class Grid2:
    """Uniform grid: cell counts nx, ny >= 2 and spacing h > 0."""

    nx: int
    ny: int
    h: float

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError("nx and ny must be at least 2")
        if self.nx * self.ny > _MAX_CELLS:
            raise ValueError("grid exceeds the cell-count cap")
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ValueError("h must be positive and finite")

    @property
    def lx(self) -> float:
        return self.nx * self.h

    @property
    def ly(self) -> float:
        return self.ny * self.h

    def xs(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.h

    def ys(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.h

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of cell centers, shapes (nx, ny)."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def xs_ext(self) -> np.ndarray:
        return (np.arange(self.nx + 2) - 0.5) * self.h

    def ys_ext(self) -> np.ndarray:
        return (np.arange(self.ny + 2) - 0.5) * self.h

    def contains_ball(self, b: "Ball") -> bool:
        cx, cy = b.center
        return (cx - b.radius > 0.0 and cx + b.radius < self.lx
                and cy - b.radius > 0.0 and cy + b.radius < self.ly)

    def cells_in_ball(self, b: "Ball") -> np.ndarray:
        """Boolean (nx, ny) array: cell center strictly inside the ball."""
        X, Y = self.centers()
        return (X - b.center[0]) ** 2 + (Y - b.center[1]) ** 2 < b.radius ** 2

    def boundary_distance(self, x: float, y: float) -> float:
        return min(x, self.lx - x, y, self.ly - y)


@dataclass
class Field:
    """Values on grid cells, shape (nx, ny, channels)."""

    grid: Grid2
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.shape[:2] != (self.grid.nx, self.grid.ny):
            raise ValueError("values shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        self.values = v

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    @classmethod
    def zeros(cls, grid: Grid2, channels: int = 1) -> "Field":
        return cls(grid, np.zeros((grid.nx, grid.ny, channels)))

    @classmethod
    def full(cls, grid: Grid2, value: float, channels: int = 1) -> "Field":
        return cls(grid, np.full((grid.nx, grid.ny, channels), float(value)))

    @classmethod
    def from_function(cls, grid: Grid2, fn) -> "Field":
        """Sample ``fn(x, y)`` (scalar or one value per channel) at cell
        centers."""
        X, Y = grid.centers()
        out = np.asarray(fn(X, Y), dtype=float)
        if out.ndim == 0:  # constant function
            out = np.full((grid.nx, grid.ny), float(out))
        return cls(grid, out)

    def magnitude(self) -> np.ndarray:
        """Per-cell euclidean norm across channels, shape (nx, ny)."""
        return np.sqrt(np.sum(self.values * self.values, axis=2))


@dataclass
class Mask:
    """Boolean cell membership on a grid (e.g. the missing-data region)."""

    grid: Grid2
    member: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.member, dtype=bool)
        if m.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("mask shape does not match the grid")
        if m.all():
            raise ValueError("mask must leave at least one cell uncovered")
        self.member = m

    @classmethod
    def empty(cls, grid: Grid2) -> "Mask":
        return cls(grid, np.zeros((grid.nx, grid.ny), dtype=bool))

    @classmethod
    def from_rect(cls, grid: Grid2, x0: float, y0: float,
                  x1: float, y1: float) -> "Mask":
        X, Y = grid.centers()
        return cls(grid, (X > x0) & (X < x1) & (Y > y0) & (Y < y1))


@dataclass(frozen=True)
class Ball:
    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValueError("ball radius must be positive")


def ring_differences(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences ``(dx, dy)`` of cell values ``v`` (shape
    ``(mx, my, N)``) over a zero ring: arrays of shape ``(mx+1, my+1, N)``
    with ``dx[I, J] = ring[I+1, J] - ring[I, J]`` and
    ``dy[I, J] = ring[I, J+1] - ring[I, J]``, where ring node
    ``(i+1, j+1)`` is ``v[i, j]`` and every other ring node is 0."""
    mx, my, n = v.shape
    ring = np.zeros((mx + 2, my + 2, n))
    ring[1:-1, 1:-1] = v
    base = ring[:-1, :-1]
    return ring[1:, :-1] - base, ring[:-1, 1:] - base


def ring_adjoint(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """The exact adjoint of ``ring_differences`` under plain sums:
    ``sum(dx * fx + dy * fy) == sum(v * ring_adjoint(fx, fy))``."""
    out = fx[:-1, 1:] - fx[1:, 1:]
    out += fy[1:, :-1]
    out -= fy[1:, 1:]
    return out


def neumann_live(grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of shape ``(nx+1, ny+1, 1)`` for the ``dx`` and ``dy``
    of ``ring_differences`` that link two values: the homogeneous Neumann
    rule keeps these and zeroes the rest."""
    live_x = np.zeros((grid.nx + 1, grid.ny + 1, 1), dtype=bool)
    live_x[1:-1, 1:] = True
    live_y = np.zeros((grid.nx + 1, grid.ny + 1, 1), dtype=bool)
    live_y[1:, 1:-1] = True
    return live_x, live_y


def _ball_cells(u: Field, b: Ball) -> np.ndarray:
    if not u.grid.contains_ball(b):
        raise ValueError("ball is not contained in the domain")
    inside = u.grid.cells_in_ball(b)
    if not inside.any():
        raise ValueError("ball contains no cell centers")
    return inside


def sup_on(u: Field, b: Ball) -> float:
    """Max of the per-cell magnitude over cells strictly inside the ball."""
    inside = _ball_cells(u, b)
    return float(np.max(u.magnitude()[inside]))


def lp_on_log(u: Field, b: Ball, p: float) -> float:
    """log of the midpoint-rule integral of |u|^p over the ball.

    Factored through the maximum so large exponents neither overflow nor
    underflow.  Returns -inf when u vanishes on the ball.
    """
    if p <= 0.0:
        raise ValueError("p must be positive")
    inside = _ball_cells(u, b)
    mag = u.magnitude()[inside]
    m = float(np.max(mag))
    if m == 0.0:
        return -np.inf
    scaled = mag / m
    s = float(np.sum(scaled ** p))
    return p * np.log(m) + np.log(s) + 2.0 * np.log(u.grid.h)
