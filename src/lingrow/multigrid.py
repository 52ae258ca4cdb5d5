"""Galerkin aggregation multigrid for the Newton systems, in numpy.

An operator on an ``(mx, my)`` grid of cell values is stored as a sum of
three-node elements on the zero ring of ``grids.ring_differences``:
difference cell ``(i, j)`` of the ring layout, ``0 <= i <= mx``,
``0 <= j <= my``, links ring node ``(i, j)`` to ``(i+1, j)`` and
``(i, j+1)`` (ring node ``(p+1, q+1)`` is value ``(p, q)``; ring nodes
are 0) and adds ``d^T T d`` for the differences
``d = (v[i+1, j] - v[i, j], v[i, j+1] - v[i, j])`` and a symmetric positive
semi-definite 2x2 tensor ``T`` per cell, plus a diagonal mass.  Arrays
carry a trailing channel axis; the channels do not couple.

The finest level is stored once per Newton step, built from the Hessian's
cell tensors (``Level``); for one channel it is the Hessian itself, so its
``apply`` serves as the conjugate-gradient product as well as the
smoother's.  The coarse operator ``P^T A P`` of 2x2 piecewise-constant
aggregates (``ceil(m/2)`` per axis, so odd sizes and ``mx != my`` work) is
again of this form, one level down.  Fine cell ``i`` lands in coarse cell
``(i+1)//2``; its x difference survives only when its two nodes lie in
different aggregates (``i`` even, or the last cell, whose right node is the
ring), and likewise in y.  So the coarse tensors are sums of the fine ones
with the vanishing differences masked out, pooled one axis at a time by
strided slices (even rows copied, odd rows added onto the next coarse
row), and no stencil is ever formed.

Coarsening stops at the first level with at most ``_DENSE_MAX`` cells per
axis, which is solved exactly: its matrix is assembled per channel, shifted
on the constants and inverted once per hierarchy by one ``np.linalg.inv``
(``Level.dense_inverse``).  A singular level, a pure Neumann operator
without mass (it annihilates constants), gets its pseudo-inverse, and a
nearly singular one (little mass) stays exact.  One V-cycle smooths with
damped Jacobi on the exact diagonal (each level stores the damped inverse
diagonal, so a sweep is one multiply), the same sweep before and after the
coarse correction; it is a symmetric positive definite preconditioner
(every level has ``A <= 3 D``, and the damping keeps ``omega * 3 < 2``).
A grid no larger than the dense threshold is a single level, where the
V-cycle is ``A^-1``.
"""

from __future__ import annotations

import numpy as np

from .grids import ring_adjoint, ring_differences

__all__ = ["Level", "Multigrid", "prolong", "restrict"]

# Jacobi damping; each level satisfies A <= 3 D (three nodes per element)
_OMEGA = 0.65
# the coarsest level has at most this many cells per axis
_DENSE_MAX = 8


class Level:
    """One level's operator: cell tensors on the ring layout and a mass."""

    __slots__ = ("txx", "txy", "tyy", "mass", "shape", "inv_diag", "jacobi")

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
        # 0 where a level has nothing to invert (a lone Neumann cell)
        self.inv_diag = np.divide(1.0, diag, out=np.zeros_like(diag),
                                  where=diag > 0.0)
        # the damped Jacobi sweep's factor
        self.jacobi = _OMEGA * self.inv_diag

    def apply(self, v: np.ndarray) -> np.ndarray:
        dx, dy = ring_differences(v)
        fx = self.txx * dx
        dx *= self.txy
        fx += self.txy * dy
        dy *= self.tyy
        dy += dx  # fy
        del dx
        out = ring_adjoint(fx, dy)
        del fx
        if self.mass is not None:
            out += self.mass * v
        return out

    def coarsen(self) -> "Level":
        mx, my = self.shape
        jx = np.arange(mx + 1) % 2 == 0
        jx[-1] = True
        jy = np.arange(my + 1) % 2 == 0
        jy[-1] = True
        jx, jy = jx[:, None, None], jy[None, :, None]
        mass = None if self.mass is None else restrict(self.mass)
        return Level(_pool(self.txx * jx), _pool(self.txy * (jx & jy)),
                     _pool(self.tyy * jy), mass)

    def dense_inverse(self):
        """``A^-1`` per channel for ``m`` cells in C order, as a factor
        ``(inv, z, rho)``: ``A^-1 r = inv r + z (z . r) / rho`` (shapes
        ``(channels, m, m)``, ``(m, channels)``, ``(channels,)``); the
        pseudo-inverse where ``A`` annihilates constants.

        ``A`` may be singular or nearly so on constants (a Neumann operator
        with little or no mass), so the inverse formed is that of
        ``B = A + c 11^T / m``, ``c = tr(A) / m``, and the constant mode
        is restored by Sherman-Morrison: with ``s = A 1`` we have
        ``B 1 = s + c 1``, hence ``A^-1 = B^-1 + z z^T / (s . z)`` for
        ``z = 1 - B^-1 s``.  The differences of a constant are exactly 0,
        so ``s`` holds only the mass and the ring links, and ``s . z`` is
        accurate however small; the rank-one term is kept apart because
        it can exceed ``B^-1`` by many orders.  Where ``s = 0``,
        ``z = 1`` and ``rho = -c m`` give ``A^+ = B^-1 - 11^T / (c m)``.
        """
        mx, my = self.shape
        m = mx * my
        eye = np.eye(m).reshape(mx, my, m)
        ones = np.ones((mx, my, 1))
        invs, zs, rhos = [], [], []
        for ch in range(self.txx.shape[2]):
            one = slice(ch, ch + 1)
            sub = Level(self.txx[..., one], self.txy[..., one],
                        self.tyy[..., one],
                        None if self.mass is None else self.mass[..., one])
            a = sub.apply(eye).reshape(m, m)
            shift = np.trace(a) / m
            a += shift / m
            inv = np.linalg.inv(a)
            s = sub.apply(ones).ravel()
            z = 1.0 - inv @ s
            rho = float(np.dot(s, z))
            invs.append(inv)
            zs.append(z)
            rhos.append(rho if rho > 0.0 else -shift * m)
        return np.stack(invs), np.stack(zs, axis=1), np.array(rhos)


def _pool(t: np.ndarray) -> np.ndarray:
    """Coarse ring cell ``I`` sums fine ring cells ``2I-1`` and ``2I`` of
    each axis: even rows are copied, odd rows added onto the next one."""
    nx, ny = t.shape[0], t.shape[1]
    rows = np.empty((nx // 2 + 1,) + t.shape[1:])
    rows[:(nx + 1) // 2] = t[0::2]
    rows[(nx + 1) // 2:] = 0.0
    rows[1:] += t[1::2]
    out = np.empty((rows.shape[0], ny // 2 + 1, t.shape[2]))
    out[:, :(ny + 1) // 2] = rows[:, 0::2]
    out[:, (ny + 1) // 2:] = 0.0
    out[:, 1:] += rows[:, 1::2]
    return out


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


class Multigrid:
    """The level hierarchy of an operator, built once per Newton step from
    its finest ``Level`` down to the first level with at most
    ``_DENSE_MAX`` cells per axis, whose inverse is stored dense.

    ``vcycle`` is a loop over the list of levels, so nothing but this
    object holds the level arrays, and they go when it does.
    """

    def __init__(self, fine: Level):
        self.levels = [fine]
        while max(fine.shape) > _DENSE_MAX:
            fine = fine.coarsen()
            self.levels.append(fine)
        self.coarse_inv = fine.dense_inverse()

    def vcycle(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle from a zero guess: an approximation of ``A^-1 r``."""
        stack = []
        for level in self.levels[:-1]:
            x = level.jacobi * r
            stack.append((level, r, x))
            res = level.apply(x)
            np.subtract(r, res, out=res)
            r = restrict(res)
        inv, z, rho = self.coarse_inv
        rc = r.reshape(z.shape)
        x = np.einsum("cij,jc->ic", inv, rc)
        x += z * (np.einsum("ic,ic->c", z, rc) / rho)
        x = x.reshape(r.shape)
        for level, r, x_fine in reversed(stack):
            x = prolong(x, x_fine)
            res = level.apply(x)
            np.subtract(r, res, out=res)
            res *= level.jacobi
            x += res
        return x
