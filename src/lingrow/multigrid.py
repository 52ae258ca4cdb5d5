"""Galerkin aggregation multigrid for the Newton systems, in numpy.

An operator on an ``(mx, my)`` grid of cell values is stored as a sum of
three-node elements on the padded layout of ``grids``: difference cell
``(I, J)``, ``0 <= I <= mx``, ``0 <= J <= my``, links node ``(I, J)`` to
``(I+1, J)`` and ``(I, J+1)`` (node ``(p+1, q+1)`` is value ``(p, q)``; the
ring nodes are 0) and adds ``d^T T d`` for the differences
``d = (v[I+1, J] - v[I, J], v[I, J+1] - v[I, J])`` and a symmetric positive
semi-definite 2x2 tensor ``T`` per cell, plus a diagonal mass.  The tensors
are ``(mx+1, my+2, N)`` arrays, 0 in the slot ``J = my+1``; the mass, the
Jacobi factor and every vector are padded ``(mx+2, my+2, N)`` arrays with a
zero ring.  The channels do not couple.

The finest level is stored once per Newton step, built from the Hessian's
cell tensors (``Level``); for one channel it is the Hessian itself, so its
``apply`` serves as the conjugate-gradient product as well as the
smoother's.  The coarse operator ``P^T A P`` of 2x2 piecewise-constant
aggregates (``ceil(m/2)`` per axis, so odd sizes and ``mx != my`` work) is
again of this form, one level down.  Fine cell ``i`` lands in coarse cell
``(i+1)//2``; its x difference survives only when its two nodes lie in
different aggregates (``i`` even, or the last cell, whose right node is the
ring), and likewise in y.  So the coarse ``txx`` is the fine one at the
selected x cells, pair-summed along y by strided slices (even cells
copied, odd cells added onto the next coarse cell); ``tyy`` is the fine
one at the selected y cells, pair-summed along x; ``txy`` is the fine one
at the cells selected along both axes.  No stencil is ever formed.
``restrict`` sums the four strided fine terms of each aggregate into the
interior of a zero-ring coarse array, and ``prolong`` adds the coarse
interior, each cell repeated twice per axis, onto the fine interior, so
neither writes a ring.

Coarsening stops at the first level with at most ``_DENSE_MAX`` cells per
axis, which is solved exactly: its matrix is assembled per channel, shifted
on the constants and inverted once per hierarchy by one ``np.linalg.inv``
(``Level.dense_inverse``).  A singular level, a pure Neumann operator
without mass (it annihilates constants), gets its pseudo-inverse, and a
nearly singular one (little mass) stays exact.  One V-cycle smooths with
damped Jacobi on the exact diagonal (each level stores its damped inverse
diagonal, so a sweep is one multiply), the same sweep before and after the
coarse correction; it is a symmetric positive definite preconditioner
(every level has ``A <= 3 D``, and the damping keeps ``omega * 3 < 2``).
A grid no larger than the dense threshold is a single level, where the
V-cycle is ``A^-1``.
"""

from __future__ import annotations

import numpy as np

from .grids import pad, ring_adjoint, ring_differences

__all__ = ["Level", "Multigrid"]

# Jacobi damping; each level satisfies A <= 3 D (three nodes per element)
_OMEGA = 0.65
# the coarsest level has at most this many cells per axis
_DENSE_MAX = 8


class Level:
    """One level's operator: cell tensors and a mass on the padded layout."""

    __slots__ = ("txx", "txy", "tyy", "mass", "shape", "jacobi")

    def __init__(self, txx: np.ndarray, txy: np.ndarray, tyy: np.ndarray,
                 mass: np.ndarray | None):
        self.txx, self.txy, self.tyy, self.mass = txx, txy, tyy, mass
        rows, s, n = txx.shape
        self.shape = (rows - 1, s - 2)
        m = rows * s
        xx, xy, yy = (t.reshape(m, n) for t in (txx, txy, tyy))
        # node k collects its own cell (both differences -1), the cell
        # before it in x (+1 in x) and the one before it in y (+1 in y)
        diag = np.zeros((m + s, n))
        body = diag[s:m]
        np.add(xx[s:], 2.0 * xy[s:], out=body)
        body += yy[s:]
        body += xx[:m - s]
        body += yy[s - 1:m - 1]
        diag = diag.reshape(rows + 1, s, n)
        diag[:, 0] = 0.0
        diag[:, -1] = 0.0
        if mass is not None:
            diag += mass
        # the damped Jacobi sweep's factor: 0 on the ring, and where a
        # level has nothing to invert (a lone Neumann cell)
        self.jacobi = _OMEGA * np.divide(1.0, diag, out=np.zeros_like(diag),
                                         where=diag > 0.0)

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
        # the differences that link two aggregates: even cells and the last;
        # in y the zero slot my+1 comes last and gives the coarse one
        kx = np.minimum(np.arange(0, mx + 2, 2), mx)
        ky = np.append(np.minimum(np.arange(0, my + 2, 2), my), my + 1)
        mass = None if self.mass is None else restrict(self.mass)
        return Level(_pair_sum(self.txx[kx], 1, ky.size),
                     self.txy[np.ix_(kx, ky)],
                     _pair_sum(self.tyy[:, ky], 0, kx.size), mass)

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
        eye = pad(np.eye(m).reshape(mx, my, m))
        ones = pad(np.ones((mx, my, 1)))
        invs, zs, rhos = [], [], []
        for ch in range(self.txx.shape[2]):
            one = slice(ch, ch + 1)
            sub = Level(self.txx[..., one], self.txy[..., one],
                        self.tyy[..., one],
                        None if self.mass is None else self.mass[..., one])
            a = sub.apply(eye)[1:-1, 1:-1].reshape(m, m)
            shift = np.trace(a) / m
            a += shift / m
            inv = np.linalg.inv(a)
            s = sub.apply(ones)[1:-1, 1:-1].ravel()
            z = 1.0 - inv @ s
            rho = float(np.dot(s, z))
            invs.append(inv)
            zs.append(z)
            rhos.append(rho if rho > 0.0 else -shift * m)
        return np.stack(invs), np.stack(zs, axis=1), np.array(rhos)


def _pair_sum(t: np.ndarray, axis: int, n: int) -> np.ndarray:
    """``n`` coarse cells along ``axis``: cell ``I`` sums fine cells ``2I-1``
    and ``2I`` (even cells copied, odd ones added onto the next cell), and
    is 0 past the end of ``t``."""
    out = np.zeros(t.shape[:axis] + (n,) + t.shape[axis + 1:])
    fine, coarse = np.moveaxis(t, axis, 0), np.moveaxis(out, axis, 0)
    even, odd = fine[0::2], fine[1::2]
    coarse[:len(even)] = even
    coarse[1:len(odd) + 1] += odd
    return out


def restrict(r: np.ndarray) -> np.ndarray:
    """``P^T r``: sums over the 2x2 aggregates, padded in and out.  Coarse
    node ``(I, J)`` sums fine nodes ``2I-1`` and ``2I`` of each axis, where
    an odd size reaches the zero ring; the sum is taken into the interior
    of the zero-ring coarse array."""
    cx, cy = (r.shape[0] - 1) // 2, (r.shape[1] - 1) // 2
    odd_x, even_x = slice(1, 2 * cx, 2), slice(2, 2 * cx + 1, 2)
    odd_y, even_y = slice(1, 2 * cy, 2), slice(2, 2 * cy + 1, 2)
    out = np.zeros((cx + 2, cy + 2) + r.shape[2:])
    cells = out[1:-1, 1:-1]
    np.add(r[odd_x, odd_y], r[even_x, odd_y], out=cells)
    cells += r[odd_x, even_y]
    cells += r[even_x, even_y]
    return out


def prolong(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out += P x``: each aggregate's value added on its cells, padded in
    and out.  Fine cell ``i`` takes coarse cell ``i//2`` (fine node ``I``
    coarse node ``(I+1)//2``), so the coarse interior, each cell repeated
    along x and then along y and cut to the fine size, is added onto the
    fine interior in one pass; the ring of ``out`` is not written."""
    mx, my = out.shape[0] - 2, out.shape[1] - 2
    up = x[1:-1, 1:-1].repeat(2, axis=0)[:mx].repeat(2, axis=1)[:, :my]
    out[1:-1, 1:-1] += up
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
        """One V-cycle from a zero guess: an approximation of ``A^-1 r``,
        padded like ``r``."""
        stack = []
        for level in self.levels[:-1]:
            x = level.jacobi * r
            stack.append((level, r, x))
            res = level.apply(x)
            np.subtract(r, res, out=res)
            r = restrict(res)
        inv, z, rho = self.coarse_inv
        cells = r[1:-1, 1:-1]
        rc = cells.reshape(z.shape)
        x = np.einsum("cij,jc->ic", inv, rc)
        x += z * (np.einsum("ic,ic->c", z, rc) / rho)
        x = pad(x.reshape(cells.shape))
        for level, r, x_fine in reversed(stack):
            x = prolong(x, x_fine)
            res = level.apply(x)
            np.subtract(r, res, out=res)
            res *= level.jacobi
            x += res
        return x
