"""Discrete energies of linear growth and their Euler residuals.

Two problem classes:

* ``DirichletProblem``: minimize the integral of ``F(grad w)`` with the
  boundary datum imposed through a frozen ghost ring.  The difference cells
  reach one step past every edge; their sum is normalized by
  ``nx*ny / ((nx+1)*(ny+1))`` so the energy of an affine field is exactly
  ``area * F(A)`` and affine data are exact critical points.
* ``FidelityProblem``: minimize ``F(grad w)`` plus ``lam * (w - f_delta)^2``
  off the missing-data mask, with homogeneous Neumann differences.

A ``RegularizationState`` adds ``delta * phi_mu`` to the density, producing
the strictly elliptic energies the continuation solver walks down.
``euler_residual`` is the exact gradient of the discrete energy with respect
to the cell values (finite-difference checkable), and ``Hessian`` its
matrix-free derivative, which the Newton solver inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (Ball, DirichletGhost, Field, Grid2, Mask, NeumannZero,
                    divergence_adjoint, gradient_forward)
from .profiles import (ProfileAt, RadialProfile, combined, profile_d2,
                       profile_eval, recession_slope)

__all__ = [
    "DirichletProblem",
    "FidelityProblem",
    "RegularizationState",
    "clip_data",
    "energy_dirichlet",
    "energy_fidelity",
    "energy_relaxed",
    "relaxed_boundary_penalty",
    "euler_residual",
    "total_variation",
]

# the fields live on 2D grids, so the admissible exponent window for the
# regularizer is 1 < mu < 1 + 2/n with n = 2 for the Dirichlet class and
# 1 < mu < 2 for the fidelity class (the same interval in this dimension)
_SPACE_DIM = 2


@dataclass(frozen=True)
class RegularizationState:
    """One rung of the continuation ladder: density becomes
    ``delta * phi_mu + base``."""

    delta: float
    mu: float
    kind: str  # "dirichlet" | "fidelity"

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.kind == "dirichlet":
            hi = 1.0 + 2.0 / _SPACE_DIM
        elif self.kind == "fidelity":
            hi = 2.0
        else:
            raise ValueError("kind must be 'dirichlet' or 'fidelity'")
        if not (1.0 < self.mu < hi):
            raise ValueError(f"mu must lie in (1, {hi:g}) for {self.kind}")

    def apply(self, base: RadialProfile) -> RadialProfile:
        return combined(self.delta, self.mu, base)


@dataclass
class DirichletProblem:
    grid: Grid2
    ghost: DirichletGhost
    density: RadialProfile

    def __post_init__(self) -> None:
        expect = (self.grid.nx + 2, self.grid.ny + 2)
        if self.ghost.u0_ext.shape[:2] != expect:
            raise ValueError("ghost ring shape does not match the grid")

    @property
    def channels(self) -> int:
        return self.ghost.u0_ext.shape[2]

    @property
    def kind(self) -> str:
        return "dirichlet"

    def u0_interior(self) -> Field:
        return self.ghost.interior(self.grid)

    @classmethod
    def from_function(cls, grid: Grid2, fn, density: RadialProfile,
                      channels: int = 1) -> "DirichletProblem":
        return cls(grid, DirichletGhost.from_function(grid, fn, channels), density)

    @classmethod
    def from_field(cls, u0: Field, density: RadialProfile) -> "DirichletProblem":
        return cls(u0.grid, DirichletGhost.from_field(u0), density)


@dataclass
class FidelityProblem:
    grid: Grid2
    f: Field
    mask: Mask
    lam: float
    density: RadialProfile

    def __post_init__(self) -> None:
        if self.f.grid != self.grid or self.mask.grid != self.grid:
            raise ValueError("data and mask must live on the problem grid")
        if self.f.channels != 1:
            raise ValueError("fidelity problems are scalar")
        if not (self.lam > 0.0):
            raise ValueError("lam must be positive")

    @property
    def channels(self) -> int:
        return 1

    @property
    def kind(self) -> str:
        return "fidelity"


def clip_data(f: Field, delta: float) -> Field:
    """Symmetric clamp of the datum at height 1/delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    cap = 1.0 / delta
    return Field(f.grid, np.clip(f.values, -cap, cap))


def _check_state(problem, reg: RegularizationState | None) -> RadialProfile:
    if reg is None:
        return problem.density
    if reg.kind != problem.kind:
        raise ValueError(f"regularization state is for {reg.kind!r} problems")
    return reg.apply(problem.density)


def _check_field(problem, w: Field) -> None:
    if w.grid != problem.grid:
        raise ValueError("field grid does not match the problem")
    if w.channels != problem.channels:
        raise ValueError("field channel count does not match the problem")


# ---------------------------------------------------------------------------
# fused kernels on raw arrays (shared by the public API and the solver)

class StencilPoint:
    """Everything the kernels derive from one forward-difference pass at w.

    ``ops.evaluate(w)`` takes the pass once: the slopes ``(gx, gy, t)`` and
    the energy.  ``residual()`` and ``curvature_diag()`` are then derived
    from ``d1(t)/t`` and ``d2(t)`` on that same state, with ``d1(t)/t``
    computed at most once for both, so the solver pays no extra gradient
    pass for the residual and the preconditioner at an accepted step.
    """

    __slots__ = ("ops", "w", "gx", "gy", "at", "energy", "_ratio")

    def __init__(self, ops, w: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                 at: ProfileAt, energy: float):
        if not math.isfinite(energy):
            # the hot path skips per-array validation; a non-finite value
            # anywhere in w makes the energy sum non-finite and is caught here
            raise ValueError(f"energy is not finite ({energy!r}) at this "
                             "iterate")
        self.ops = ops
        self.w = w
        self.gx = gx
        self.gy = gy
        self.at = at
        self.energy = energy
        self._ratio = None

    def ratio(self) -> np.ndarray:
        """``d1(t)/t`` per difference cell."""
        if self._ratio is None:
            self._ratio = self.at.slope_ratio(self.ops.d2_origin)
        return self._ratio

    def kappa(self) -> np.ndarray:
        """``max(d2(t), d1(t)/t)``: the curvature bound per difference cell."""
        d2 = self.at.d2()
        return np.maximum(d2, self.ratio(), out=d2)

    def residual(self) -> np.ndarray:
        return self.ops._residual(self)

    def curvature_diag(self) -> np.ndarray:
        return self.ops._curvature_diag(self)

    def hessian(self, theta: float = 0.0) -> "Hessian":
        """The energy Hessian at w, with the radial curvature floored at
        ``theta * d1/t`` (``theta = 0`` is the exact Hessian)."""
        return Hessian(self, theta)


class Hessian:
    """The energy Hessian at a ``StencilPoint``, as a matrix-free operator.

    Per difference cell the density's Hessian is ``A = a I + b g g^T`` on
    the cell's 2N slopes ``g``, with ``a = d1/t`` and
    ``b = (d2' - a)/t^2``, where ``d2' = max(d2, theta * a)`` floors the
    radial curvature (``b = 0`` below the origin cutoff, where ``A`` is
    ``d2(0) I``).  ``theta = 1`` gives the lagged-diffusivity operator
    ``a I`` wherever ``d2 <= a``; ``theta = 0`` the exact Hessian.  ``apply``
    runs the forward difference and the divergence of the residual on a
    perturbation (zero ghost ring), and adds the data mass of the fidelity
    term.  It is exact for N channels, coupling included.
    """

    __slots__ = ("ops", "gx", "gy", "a", "b")

    def __init__(self, pt: StencilPoint, theta: float):
        self.ops = pt.ops
        self.gx, self.gy = pt.gx, pt.gy
        self.a = pt.ratio()
        self.b = pt.at.radial_excess(self.a, theta)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``H v``."""
        ops = self.ops
        vx, vy = ops._dgrad(v)
        s = self.gx * vx
        s += self.gy * vy
        if s.shape[2] > 1:
            s = s.sum(axis=2, keepdims=True)
        s *= self.b[:, :, None]
        a = self.a[:, :, None]
        vx *= a
        vx += s * self.gx
        vy *= a
        vy += s * self.gy
        del s
        out = ops._div(vx, vy)
        if ops.mass is not None:
            out += ops.mass * v
        return out

    def cell_tensors(self):
        """Per-channel 2x2 cell tensors ``a I + b g_c g_c^T`` in difference
        units (the cell weight included, ``1/h^2`` folded out) on the
        ghost-ring layout of ``multigrid.Level``, plus the diagonal mass.
        For one channel they give ``H`` itself; for several they drop the
        coupling between channels, which keeps each tensor positive
        definite, because ``|g_c| <= t``."""
        a = self.a[:, :, None]
        b = self.b[:, :, None]
        gx, gy = self.gx, self.gy
        txx = b * gx * gx
        txx += a
        tyy = b * gy * gy
        tyy += a
        txy = b * gx * gy
        return self.ops._ring_tensors(txx, txy, tyy)


class _Ops:
    """Kernels shared by both problem classes; subclasses supply the
    boundary rule (``_grad``) and the assembly of each quantity."""

    def __init__(self, problem, reg: RegularizationState | None):
        self.problem = problem
        self.profile = _check_state(problem, reg)
        self.d2_origin = profile_d2(self.profile, 0.0)
        self.mass = None  # diagonal of the data term's Hessian, if any
        g = problem.grid
        self.h = g.h
        self.h2 = g.h * g.h

    def _slopes(self, w: np.ndarray):
        """The one forward-difference pass: ``(gx, gy)`` and the slopes
        ``t = |grad w|`` per difference cell."""
        gx, gy = self._grad(w)
        t = np.einsum("ijc,ijc->ij", gx, gx)
        t += np.einsum("ijc,ijc->ij", gy, gy)
        np.sqrt(t, out=t)
        return gx, gy, ProfileAt(self.profile, t)

    def energy(self, w: np.ndarray) -> float:
        return self.evaluate(w).energy

    def residual(self, w: np.ndarray) -> np.ndarray:
        return self.evaluate(w).residual()

    def curvature_diag(self, w: np.ndarray) -> np.ndarray:
        """Per-cell upper bound on the energy Hessian diagonal."""
        return self.evaluate(w).curvature_diag()


class DirichletOps(_Ops):
    """Fused energy / residual / curvature-diagonal kernels on raw
    (nx, ny, N) arrays, with the datum on a frozen ghost ring."""

    def __init__(self, problem: DirichletProblem,
                 reg: RegularizationState | None):
        super().__init__(problem, reg)
        g = problem.grid
        # uniform weight making the difference-cell sum integrate exactly
        self.rho = g.nx * g.ny / float((g.nx + 1) * (g.ny + 1))
        self._ext = problem.ghost.u0_ext.astype(float).copy()

    def _grad(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext = self._ext
        ext[1:-1, 1:-1, :] = w
        gx = ext[1:, :-1, :] - ext[:-1, :-1, :]
        gx /= self.h
        gy = ext[:-1, 1:, :] - ext[:-1, :-1, :]
        gy /= self.h
        return gx, gy

    def _dgrad(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_grad`` of a perturbation, which vanishes on the ghost ring."""
        nx, ny, n = v.shape
        gx = np.zeros((nx + 1, ny + 1, n))
        gx[:-1, 1:] = v
        gx[1:, 1:] -= v
        gx /= self.h
        gy = np.zeros((nx + 1, ny + 1, n))
        gy[1:, :-1] = v
        gy[1:, 1:] -= v
        gy /= self.h
        return gx, gy

    def _div(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """The adjoint of ``_grad`` applied to per-cell fluxes, times the
        cell weight and area: the energy gradient with respect to w."""
        out = fx[:-1, 1:, :] - fx[1:, 1:, :]
        out += fy[1:, :-1, :]
        out -= fy[1:, 1:, :]
        out *= self.rho * self.h2 / self.h
        return out

    def evaluate(self, w: np.ndarray) -> StencilPoint:
        gx, gy, at = self._slopes(w)
        energy = self.rho * self.h2 * float(np.sum(at.value()))
        return StencilPoint(self, w, gx, gy, at, energy)

    def _residual(self, pt: StencilPoint) -> np.ndarray:
        coef = pt.ratio()[:, :, None]
        return self._div(coef * pt.gx, coef * pt.gy)

    def _curvature_diag(self, pt: StencilPoint) -> np.ndarray:
        kap = pt.kappa()
        # rho * (kap[:-1, 1:] + 2 kap[1:, 1:] + kap[1:, :-1])
        diag = 2.0 * kap[1:, 1:]
        np.add(kap[:-1, 1:], diag, out=diag)
        diag += kap[1:, :-1]
        diag *= self.rho
        return diag[:, :, None]

    def _ring_tensors(self, txx, txy, tyy):
        # the difference cells already sit on the ghost-ring layout
        return self.rho * txx, self.rho * txy, self.rho * tyy, None

    def default_init(self) -> np.ndarray:
        return self._ext[1:-1, 1:-1, :].copy()


class FidelityOps(_Ops):
    """The same fused kernels for the Neumann + data-term energy."""

    def __init__(self, problem: FidelityProblem,
                 reg: RegularizationState | None):
        super().__init__(problem, reg)
        self.lam = problem.lam
        self.outside = (~problem.mask.member)[:, :, None]
        self.mass = 2.0 * self.lam * self.h2 * self.outside
        if reg is None:
            self.fd = problem.f.values.copy()
        else:
            self.fd = clip_data(problem.f, reg.delta).values

    def _grad(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gx = np.zeros_like(w)
        gy = np.zeros_like(w)
        np.subtract(w[1:, :, :], w[:-1, :, :], out=gx[:-1, :, :])
        gx[:-1, :, :] /= self.h
        np.subtract(w[:, 1:, :], w[:, :-1, :], out=gy[:, :-1, :])
        gy[:, :-1, :] /= self.h
        return gx, gy

    _dgrad = _grad  # Neumann differences carry no datum

    def _div(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """The adjoint of ``_grad`` applied to per-cell fluxes, times the
        cell area: the energy gradient of the regularizer."""
        out = fx.copy()
        out[1:, :, :] -= fx[:-1, :, :]
        out += fy
        out[:, 1:, :] -= fy[:, :-1, :]
        out *= -self.h2 / self.h
        return out

    def evaluate(self, w: np.ndarray) -> StencilPoint:
        gx, gy, at = self._slopes(w)
        reg_term = self.h2 * float(np.sum(at.value()))
        diff = w - self.fd
        diff *= self.outside
        diff *= diff
        energy = reg_term + self.lam * self.h2 * float(np.sum(diff))
        return StencilPoint(self, w, gx, gy, at, energy)

    def _residual(self, pt: StencilPoint) -> np.ndarray:
        coef = pt.ratio()[:, :, None]
        out = self._div(coef * pt.gx, coef * pt.gy)
        data = pt.w - self.fd
        data *= 2.0 * self.lam * self.h2
        data *= self.outside
        out += data
        return out

    def _curvature_diag(self, pt: StencilPoint) -> np.ndarray:
        kap = pt.kappa()
        diag = np.zeros_like(kap)
        diag[:-1, :] += kap[:-1, :]
        diag[1:, :] += kap[:-1, :]
        diag[:, :-1] += kap[:, :-1]
        diag[:, 1:] += kap[:, :-1]
        return diag[:, :, None] + self.mass

    def _ring_tensors(self, txx, txy, tyy):
        # cell (i, j) links w[i, j] to w[i+1, j] and w[i, j+1]: it is cell
        # (i+1, j+1) of the ghost-ring layout, where the ring row and column
        # carry nothing, and a difference that would leave the grid (last
        # row in x, last column in y) carries no curvature
        def ring(t):
            out = np.zeros((t.shape[0] + 1, t.shape[1] + 1, t.shape[2]))
            out[1:, 1:] = t
            return out

        txx, txy, tyy = ring(txx), ring(txy), ring(tyy)
        txx[-1] = 0.0
        tyy[:, -1] = 0.0
        return txx, txy, tyy, self.mass

    def default_init(self) -> np.ndarray:
        fill = float(np.mean(self.fd[self.outside])) if self.outside.any() else 0.0
        return np.where(self.outside, self.fd, fill)


def assemble_ops(problem, reg: RegularizationState | None):
    if isinstance(problem, DirichletProblem):
        return DirichletOps(problem, reg)
    if isinstance(problem, FidelityProblem):
        return FidelityOps(problem, reg)
    raise TypeError("problem must be DirichletProblem or FidelityProblem")


# ---------------------------------------------------------------------------
# public API

def energy_dirichlet(p: DirichletProblem, reg: RegularizationState | None,
                     w: Field) -> float:
    """Discrete Dirichlet energy of w; ``reg=None`` drops the delta term."""
    _check_field(p, w)
    return DirichletOps(p, reg).energy(w.values)


def energy_fidelity(p: FidelityProblem, reg: RegularizationState | None,
                    w: Field) -> float:
    """Regularizer plus ``lam * sum h^2 (w - f_delta)^2`` off the mask."""
    _check_field(p, w)
    return FidelityOps(p, reg).energy(w.values)


def euler_residual(p, reg: RegularizationState | None, w: Field) -> Field:
    """Exact gradient of the discrete energy with respect to cell values."""
    _check_field(p, w)
    return Field(p.grid, assemble_ops(p, reg).residual(w.values))


def relaxed_boundary_penalty(p: DirichletProblem, w: Field) -> float:
    """Boundary penalty ``sum h * k * |u0 - w|`` over the perimeter cells.

    k is the slope at infinity of the base density, and each cell of the
    boundary ring is counted once.  Together with the interior gradient sum
    this is the relaxed form of the Dirichlet energy: mismatching the datum
    costs area (the slope) rather than being forbidden.
    """
    _check_field(p, w)
    k = recession_slope(p.density)
    u0 = p.ghost.u0_ext[1:-1, 1:-1, :]
    jump = np.sqrt(np.sum((u0 - w.values) ** 2, axis=2))
    ring = np.zeros(jump.shape, dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    return float(p.grid.h * k * jump[ring].sum())


def energy_relaxed(p: DirichletProblem, w: Field) -> float:
    """Interior regularizer (Neumann differences) plus the boundary penalty."""
    _check_field(p, w)
    g = gradient_forward(w, NeumannZero())
    t = np.sqrt(np.sum(g * g, axis=(2, 3)))
    interior = p.grid.h ** 2 * float(np.sum(profile_eval(p.density, t)))
    return interior + relaxed_boundary_penalty(p, w)


def total_variation(p, w: Field) -> float:
    """Discrete integral of |grad w| under the problem's boundary rule."""
    _check_field(p, w)
    if isinstance(p, DirichletProblem):
        ops = DirichletOps(p, None)
        return ops.rho * ops.h2 * float(np.sum(ops._slopes(w.values)[2].t))
    ops = FidelityOps(p, None)
    return ops.h2 * float(np.sum(ops._slopes(w.values)[2].t))
