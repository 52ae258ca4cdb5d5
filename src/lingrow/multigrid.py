"""Galerkin aggregation multigrid for the Newton systems, in numpy.

An operator on an ``(mx, my)`` grid of cell values is stored as a sum of
three-node elements on a zero ghost ring: difference cell ``(i, j)`` of the
ring layout, ``0 <= i <= mx``, ``0 <= j <= my``, links ring node ``(i, j)``
to ``(i+1, j)`` and ``(i, j+1)`` (ring node ``(p+1, q+1)`` is value
``(p, q)``; ring nodes are 0) and adds ``d^T T d`` for the differences
``d = (v[i+1, j] - v[i, j], v[i, j+1] - v[i, j])`` and a symmetric positive
semi-definite 2x2 tensor ``T`` per cell, plus a diagonal mass.  Arrays
carry a trailing channel axis; the channels do not couple.

The coarse operator ``P^T A P`` of 2x2 piecewise-constant aggregates
(``ceil(m/2)`` per axis, so odd sizes and ``mx != my`` work) is again of this
form, one level down.  Fine cell ``i`` lands in coarse cell ``(i+1)//2``;
its x difference survives only when its two nodes lie in different
aggregates (``i`` even, or the last cell, whose right node is the ring), and
likewise in y.  So the coarse tensors are sums of the fine ones with the
vanishing differences masked out, one parity class at a time, and no
stencil is ever formed.

One V-cycle smooths with damped Jacobi on the exact diagonal, the same
sweep before and after the coarse correction, and solves the 1x1 level
exactly; it is a symmetric positive definite preconditioner (every level
has ``A <= 3 D``, and the damping keeps ``omega * 3 < 2``).  A singular
1x1 level, a pure Neumann operator without mass, gets its pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Level", "Multigrid", "prolong", "restrict"]

# Jacobi damping; each level satisfies A <= 3 D (three nodes per element)
_OMEGA = 0.65


class Level:
    """One level's operator: cell tensors on the ring layout and a mass."""

    __slots__ = ("txx", "txy", "tyy", "mass", "shape", "inv_diag")

    def __init__(self, txx: np.ndarray, txy: np.ndarray, tyy: np.ndarray,
                 mass: np.ndarray | None):
        self.txx, self.txy, self.tyy, self.mass = txx, txy, tyy, mass
        self.shape = (txx.shape[0] - 1, txx.shape[1] - 1)
        diag = txx[1:, 1:] + 2.0 * txy[1:, 1:]
        diag += tyy[1:, 1:]
        diag += txx[:-1, 1:]
        diag += tyy[1:, :-1]
        if mass is not None:
            diag += mass
        # 0 where a level has nothing to invert (its pseudo-inverse)
        self.inv_diag = np.divide(1.0, diag, out=np.zeros_like(diag),
                                  where=diag > 0.0)

    def apply(self, v: np.ndarray) -> np.ndarray:
        mx, my, n = v.shape
        dx = np.zeros((mx + 1, my + 1, n))
        dx[:-1, 1:] = v
        dx[1:, 1:] -= v
        dy = np.zeros((mx + 1, my + 1, n))
        dy[1:, :-1] = v
        dy[1:, 1:] -= v
        fx = self.txx * dx
        dx *= self.txy
        fx += self.txy * dy
        dy *= self.tyy
        dy += dx  # fy
        del dx
        out = fx[:-1, 1:] - fx[1:, 1:]
        del fx
        out += dy[1:, :-1]
        out -= dy[1:, 1:]
        if self.mass is not None:
            out += self.mass * v
        return out

    def coarsen(self) -> "Level":
        mx, my = self.shape
        cx, cy = -(-mx // 2), -(-my // 2)
        jx = np.arange(mx + 1) % 2 == 0
        jx[-1] = True
        jy = np.arange(my + 1) % 2 == 0
        jy[-1] = True
        jx, jy = jx[:, None, None], jy[None, :, None]

        def pool(t):
            # coarse cell I sums fine cells 2I-1 and 2I
            out = np.zeros((2 * (cx + 1), 2 * (cy + 1), t.shape[2]))
            out[1:mx + 2, 1:my + 2] = t
            return out.reshape(cx + 1, 2, cy + 1, 2, -1).sum(axis=(1, 3))

        mass = None if self.mass is None else restrict(self.mass)
        return Level(pool(self.txx * jx), pool(self.txy * (jx & jy)),
                     pool(self.tyy * jy), mass)


def restrict(r: np.ndarray) -> np.ndarray:
    """``P^T r``: sums over the 2x2 aggregates."""
    hx, hy = r.shape[0] // 2, r.shape[1] // 2
    out = r[0::2, 0::2].copy()
    out[:hx] += r[1::2, 0::2]
    out[:, :hy] += r[0::2, 1::2]
    out[:hx, :hy] += r[1::2, 1::2]
    return out


def prolong(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out += P x``: each aggregate's value added on its cells."""
    hx, hy = out.shape[0] // 2, out.shape[1] // 2
    out[0::2, 0::2] += x
    out[1::2, 0::2] += x[:hx]
    out[0::2, 1::2] += x[:, :hy]
    out[1::2, 1::2] += x[:hx, :hy]
    return out


class _Finest:
    """The finest level: the operator's own product and the diagonal of
    its cell tensors, which are dropped once pooled."""

    __slots__ = ("apply", "shape", "inv_diag")

    def __init__(self, apply, level: Level):
        self.apply = apply
        self.shape, self.inv_diag = level.shape, level.inv_diag


class Multigrid:
    """The level hierarchy of an operator down to 1x1, built once per
    Newton step from its cell tensors ``(txx, txy, tyy, mass)``.

    ``apply`` is the operator's product, which the finest level uses so
    that the fine tensors need not be kept.  ``vcycle`` is a loop over the
    list of levels, so nothing but this object holds the level arrays, and
    they go when it does.
    """

    def __init__(self, tensors, apply):
        fine = Level(*tensors)
        self.levels = [_Finest(apply, fine)]
        while fine.shape != (1, 1):
            fine = fine.coarsen()
            self.levels.append(fine)

    def vcycle(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle from a zero guess: an approximation of ``A^-1 r``."""
        stack = []
        for level in self.levels[:-1]:
            x = level.inv_diag * r
            x *= _OMEGA
            stack.append((level, r, x))
            res = level.apply(x)
            np.subtract(r, res, out=res)
            r = restrict(res)
        x = self.levels[-1].inv_diag * r
        for level, r, x_fine in reversed(stack):
            x = prolong(x, x_fine)
            res = level.apply(x)
            np.subtract(r, res, out=res)
            res *= level.inv_diag
            res *= _OMEGA
            x += res
        return x
