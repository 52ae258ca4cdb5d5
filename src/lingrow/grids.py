"""Uniform 2D cell-centered grids, fields, and the discrete calculus.

The domain is the rectangle (0, nx*h) x (0, ny*h) with cell centers at
((i+0.5)h, (j+0.5)h).  ``Field`` holds cell values as ``(nx, ny, N)``
arrays.  The kernels hold them on the padded node layout instead (``pad``):
a C-contiguous ``(mx+2, my+2, N)`` array whose ring of nodes is zero, node
``(i+1, j+1)`` being value ``(i, j)``.  Read as ``L = (mx+2)(my+2)`` rows of
``N``, a forward difference is one contiguous slice difference: ``S = my+2``
rows apart in x, one row apart in y.

Differences of cell values are formed in one place, ``ring_differences``,
and ``ring_adjoint`` is its exact adjoint; inner products of padded arrays
are formed in one place too, ``dot``.  Difference cell ``(I, J)``,
``0 <= I <= mx``, links node ``(I, J)`` to ``(I+1, J)`` and to
``(I, J+1)`` and sits on the row of node ``(I, J)``, so a difference array
has shape ``(mx+1, my+2, N)``.  Its last slot ``J = my+1`` links two ring
nodes and is 0; tensors and masks keep it so.  The ring is zero, so the
pair is linear, and a boundary rule is data on this layout: a Dirichlet
datum adds its constant ring differences to those of the values
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
    "pad",
    "dot",
    "ring_differences",
    "ring_adjoint",
    "check_ball",
    "sup_on",
]

_MAX_CELLS = 2 ** 24
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Grid2:
    """Uniform grid: cell counts nx, ny >= 2 and spacing h > 0, with h^2
    at least the smallest normal float and the squared side finite."""

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
        # squared distances across the domain must stay floats
        side = float(max(self.nx, self.ny) * self.h)
        if not np.isfinite(side * side):
            raise ValueError("h is too large: the squared side of the "
                             "domain overflows a float")
        # the energies weigh each cell by h^2, a normal float
        if self.h * self.h < _TINY:
            raise ValueError("h is too small: its square underflows the "
                             "normal floats")

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

    def sq_distances(self, point: tuple[float, float]) -> np.ndarray:
        """Squared distances of the cell centers to ``point``, shape
        (nx, ny)."""
        X, Y = self.centers()
        return (X - point[0]) ** 2 + (Y - point[1]) ** 2

    def cells_in_ball(self, b: "Ball") -> np.ndarray:
        """Boolean (nx, ny) array: cell center strictly inside the ball."""
        return self.sq_distances(b.center) < b.radius ** 2

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
        """Per-cell euclidean norm over the channels, shape (nx, ny): a
        running ``hypot`` over the channel slices in order, which overflows
        only where the norm itself does."""
        m = np.abs(self.values[:, :, 0])
        for c in range(1, self.channels):
            np.hypot(m, self.values[:, :, c], out=m)
        return m


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
        """The cells whose centres lie strictly inside the rectangle
        ``(x0, x1) x (y0, y1)``, which must have area."""
        if not (x0 < x1 and y0 < y1):
            raise ValueError("rect [x0, y0, x1, y1] needs x0 < x1 and y0 < y1")
        X, Y = grid.centers()
        return cls(grid, (X > x0) & (X < x1) & (Y > y0) & (Y < y1))


@dataclass(frozen=True)
class Ball:
    """The open disc of positive ``radius`` around ``center``."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValueError("ball radius must be positive")


def pad(v: np.ndarray) -> np.ndarray:
    """Cell values ``v`` (shape ``(mx, my, N)``) on the padded node layout:
    a new C-contiguous ``(mx+2, my+2, N)`` array with a zero ring."""
    mx, my, n = v.shape
    p = np.zeros((mx + 2, my + 2, n))
    p[1:-1, 1:-1] = v
    return p


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product ``sum(a * b)`` of two arrays of one shape, summed by
    numpy's own loop in one fixed order.  ``np.vdot`` would hand a long
    vector to BLAS, which may split the sum over its threads, so the thread
    count would pick the rounding of every inner product."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def ring_differences(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences ``(dx, dy)`` of a padded array ``p`` (shape
    ``(mx+2, my+2, N)``): arrays of shape ``(mx+1, my+2, N)`` with
    ``dx[I, J] = p[I+1, J] - p[I, J]`` and ``dy[I, J] = p[I, J+1] - p[I, J]``
    for ``J <= my``, and 0 in the slot ``J = my+1`` when the ring of ``p``
    is zero."""
    rows, s, n = p.shape
    flat = p.reshape(rows * s, n)
    m = (rows - 1) * s
    dx = flat[s:] - flat[:m]
    dy = flat[1:m + 1] - flat[:m]
    return dx.reshape(rows - 1, s, n), dy.reshape(rows - 1, s, n)


def ring_adjoint(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """The exact adjoint of ``ring_differences`` on arrays with a zero ring,
    under plain sums: ``sum(dx * fx + dy * fy) == sum(p * ring_adjoint(fx,
    fy))``.  The result is padded, with a zero ring."""
    rows, s, n = fx.shape
    m = rows * s
    fx, fy = fx.reshape(m, n), fy.reshape(m, n)
    out = np.empty((m + s, n))
    body = out[s:m]
    np.subtract(fx[:m - s], fx[s:], out=body)
    body += fy[s - 1:m - 1]
    body -= fy[s:]
    out[:s] = 0.0
    out[m:] = 0.0
    out = out.reshape(rows + 1, s, n)
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def neumann_live(grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of shape ``(nx+1, ny+2, 1)`` for the ``dx`` and ``dy``
    of ``ring_differences`` that link two values: the homogeneous Neumann
    rule keeps these and zeroes the rest."""
    live_x = np.zeros((grid.nx + 1, grid.ny + 2, 1), dtype=bool)
    live_x[1:-1, 1:-1] = True
    live_y = np.zeros((grid.nx + 1, grid.ny + 2, 1), dtype=bool)
    live_y[1:, 1:-2] = True
    return live_x, live_y


def check_ball(grid: Grid2, b: Ball) -> None:
    """Raise ``ValueError`` unless the ball lies strictly inside the domain
    and holds a cell centre, read from the two axes alone: the nearest
    centre's squared distance is ``min_i (x_i - cx)^2 + min_j (y_j -
    cy)^2``, and rounding is monotone, so the test agrees with
    ``grid.cells_in_ball(b).any()``."""
    if not grid.contains_ball(b):
        raise ValueError("ball is not contained in the domain")
    cx, cy = b.center
    d2 = np.min((grid.xs() - cx) ** 2) + np.min((grid.ys() - cy) ** 2)
    if not d2 < b.radius ** 2:
        raise ValueError("ball contains no cell centers")


def sup_on(u: Field, b: Ball) -> float:
    """Max of the per-cell magnitude over cells strictly inside the ball;
    ``check_ball`` decides which balls it reads."""
    check_ball(u.grid, b)
    return float(np.max(u.magnitude()[u.grid.cells_in_ball(b)]))
