"""Discrete energies of linear growth and their Euler residuals.

Two problem classes, one discrete calculus: both take their slopes from
the difference pair of ``grids`` (``ring_differences`` and its adjoint) on
the padded layout, whose (nx+1) x (ny+1) difference cells reach one step
past every edge, and differ only in data:

* ``DirichletProblem``: minimize the integral of ``F(grad w)`` with the
  boundary datum frozen on the ghost ring; its constant ring differences
  are added to every gradient.  The cell sum is normalized by
  ``nx*ny / ((nx+1)*(ny+1))`` so the energy of an affine field is exactly
  ``area * F(A)`` and affine data are exact critical points.
* ``FidelityProblem``: minimize ``F(grad w)`` plus ``lam * |w - f_delta|^2``
  off the missing-data mask, with homogeneous Neumann differences: a mask
  keeps only the differences between two values, and the dead slots have
  slope 0, where every density vanishes.

Both classes reject data whose energy without the delta term overflows a
float, and the fidelity class a weight ``lam`` outside [1e-12, 1e8].

A ``RegularizationState`` adds ``delta * phi_mu`` to the density, producing
the strictly elliptic energies the continuation solver walks down.
``assemble_ops(problem, reg)`` holds the kernels: its ``residual`` is the
exact gradient of the discrete energy with respect to the cell values
(finite-difference checkable), and ``Hessian`` its matrix-free derivative,
which the Newton solver inverts.  The Hessian is one product for every
channel count: the fine ``multigrid.Level`` of its cell tensors, plus a
cross-channel coupling when there are several channels; it takes no
stencil pass of its own.  ``evaluate``, the residual and the Hessian work
on padded arrays (``grids.pad``); ``energy`` and ``residual``
take and give ``(nx, ny, N)`` cell values.  The energy sums run over the
padded arrays as stored: the ring and the slot ``J = ny+1`` add exact
zeros.  Each pass keeps its slope array ``t`` and evaluates the density's
orders on it as plain functions (``profiles.derivative``, ``d1_over_t``,
``radial_excess``); only ``d1/t``, which the residual and the Hessian
share, is kept once formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (Field, Grid2, Mask, neumann_live, pad, ring_adjoint,
                    ring_differences)
from .multigrid import Level
from .profiles import (RadialProfile, combined, d1_over_t, derivative,
                       radial_excess)

__all__ = [
    "DirichletProblem",
    "FidelityProblem",
    "RegularizationState",
    "clip_data",
]

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
        if self.kind not in ("dirichlet", "fidelity"):
            raise ValueError("kind must be 'dirichlet' or 'fidelity'")
        # the regularizer's exponent window: 1 < mu < 2, the fidelity
        # class's, and the Dirichlet class's 1 < mu < 1 + 2/n at the grids'
        # dimension n = 2
        if not (1.0 < self.mu < 2.0):
            raise ValueError("mu must lie in (1, 2)")

    def apply(self, base: RadialProfile) -> RadialProfile:
        return combined(self.delta, self.mu, base)


@dataclass
class DirichletProblem:
    """The datum ``u0_ext`` is frozen on the ghost ring around the cell
    values: shape ``(nx+2, ny+2, N)``, its cells being the datum inside."""

    grid: Grid2
    u0_ext: np.ndarray
    density: RadialProfile

    def __post_init__(self) -> None:
        expect = (self.grid.nx + 2, self.grid.ny + 2)
        if self.u0_ext.ndim != 3 or self.u0_ext.shape[:2] != expect:
            raise ValueError("ghost ring shape does not match the grid")
        _check_representable(self)

    @property
    def channels(self) -> int:
        return self.u0_ext.shape[2]

    @property
    def kind(self) -> str:
        return "dirichlet"

    def u0_interior(self) -> Field:
        return Field(self.grid, self.u0_ext[1:-1, 1:-1, :].copy())

    @classmethod
    def from_function(cls, grid: Grid2, fn, density: RadialProfile,
                      channels: int = 1) -> "DirichletProblem":
        """Sample ``fn(x, y)`` (scalar or one value per channel) at the cell
        and ghost centers; the datum must be finite and have ``channels``
        channels."""
        X, Y = np.meshgrid(grid.xs_ext(), grid.ys_ext(), indexing="ij")
        out = np.asarray(fn(X, Y), dtype=float)
        if out.ndim == 0:  # constant function
            out = np.full(X.shape, float(out))
        if out.ndim == 2:
            out = out[:, :, None]
        if not np.all(np.isfinite(out)):
            raise ValueError("boundary datum must be finite")
        problem = cls(grid, out, density)
        if problem.channels != channels:
            raise ValueError(f"boundary datum has {problem.channels} "
                             f"channels, not {channels}")
        return problem

    @classmethod
    def from_field(cls, u0: Field, density: RadialProfile) -> "DirichletProblem":
        """Extend a cell field by edge replication into the ghost ring."""
        ext = np.pad(u0.values, ((1, 1), (1, 1), (0, 0)), mode="edge")
        return cls(u0.grid, ext, density)

    def ring_offset(self) -> tuple[np.ndarray, np.ndarray]:
        """The datum's part of the differences on the padded layout: the
        differences of the ring with zero values inside, shape
        ``(nx+1, ny+2, N)`` each, 0 in the slot ``J = ny+1``.  Added to
        ``ring_differences(pad(v))`` they give the differences of ``v``
        inside this ring."""
        ring = self.u0_ext.astype(float)
        ring[1:-1, 1:-1, :] = 0.0
        dx, dy = ring_differences(ring)
        dx[:, -1] = 0.0
        dy[:, -1] = 0.0
        return dx, dy

    def coarsen(self) -> "DirichletProblem":
        """The same problem with half the cells per axis (both counts even).

        The ghost ring takes the pairwise mean along each edge and keeps
        its corners; the cells take the 2x2 means of the datum, which is
        where the coarse problem's cold start begins.
        """
        u = self.u0_ext
        u = np.concatenate((u[:1], _pair_means(u[1:-1], 0), u[-1:]), axis=0)
        u = np.concatenate((u[:, :1], _pair_means(u[:, 1:-1], 1), u[:, -1:]),
                           axis=1)
        return DirichletProblem(_coarse_grid(self.grid), u, self.density)


@dataclass
class FidelityProblem:
    """A datum ``f`` of N channels fitted with weight ``lam`` off the
    missing-data ``mask``, with homogeneous Neumann differences."""

    grid: Grid2
    f: Field
    mask: Mask
    lam: float
    density: RadialProfile

    def __post_init__(self) -> None:
        if self.f.grid != self.grid or self.mask.grid != self.grid:
            raise ValueError("data and mask must live on the problem grid")
        if not (_LAM_MIN <= self.lam <= _LAM_MAX):
            raise ValueError("lam must lie in [1e-12, 1e8]")
        # at the zero field the energy is the size of the data term
        _check_representable(self, np.zeros_like(self.f.values))

    @property
    def channels(self) -> int:
        return self.f.channels

    @property
    def kind(self) -> str:
        return "fidelity"

    def coarsen(self) -> "FidelityProblem":
        """The same problem with half the cells per axis (both counts even).

        A coarse cell is masked only when all four of its fine cells are;
        its datum is the mean of their unmasked data (of all four when
        none is unmasked, where the datum does not enter the energy).
        ``lam`` and the density are unchanged.
        """
        grid = _coarse_grid(self.grid)
        live = (~self.mask.member)[:, :, None]
        count = _block_sums(live.astype(float))
        total = _block_sums(np.where(live, self.f.values, 0.0))
        masked = count == 0.0
        f = np.where(masked, 0.25 * _block_sums(self.f.values),
                     total / np.maximum(count, 1.0))
        return FidelityProblem(grid, Field(grid, f), Mask(grid, masked[:, :, 0]),
                               self.lam, self.density)


# past this data weight the data term swamps the density in floats: at 16^2
# the ladder at lam = 1e10 cannot meet its residual tolerance in 200 Newton
# steps, and at lam = 1e20 the coarsest multigrid level is singular
_LAM_MAX = 1e8
# below this one the data term vanishes in floats against the density: at
# 16^2 the mass of lam = 1e-12 is about 1e-14 of the cell tensors, and at
# lam = 1e-30 the 32^2 inverse-sqrt ladder stalls in its line search
_LAM_MIN = 1e-12


def _check_representable(problem, *starts: np.ndarray) -> None:
    """Reject data too large for the kernels: the energy without the delta
    term must be a finite float at the solver's default start and at each
    of ``starts``."""
    ops = assemble_ops(problem, None)
    for w in (ops.default_init(),) + starts:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                ops.evaluate(pad(w))
            except ValueError:
                raise ValueError("the data are too large: their energy "
                                 "overflows a float") from None


def _coarse_grid(g: Grid2) -> Grid2:
    if g.nx % 2 or g.ny % 2:
        raise ValueError("only a grid with even cell counts coarsens")
    return Grid2(g.nx // 2, g.ny // 2, 2.0 * g.h)


def _pair_means(a: np.ndarray, axis: int) -> np.ndarray:
    """Means of consecutive pairs along an axis of even length."""
    s = a.shape
    return a.reshape(s[:axis] + (s[axis] // 2, 2) + s[axis + 1:]).mean(
        axis=axis + 1)


def _block_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the 2x2 blocks of an (nx, ny, N) array with even nx, ny."""
    nx, ny, n = a.shape
    return a.reshape(nx // 2, 2, ny // 2, 2, n).sum(axis=(1, 3))


def clip_data(f: Field, delta: float) -> Field:
    """Clamp of each channel of the datum to [-1/delta, 1/delta]: a box
    projection, which grows no difference, so no Frobenius ``|grad f|``."""
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


# ---------------------------------------------------------------------------
# fused kernels on raw arrays (shared by the public API and the solver)

def _slopes(p: np.ndarray, h: float, offset=None, live=None):
    """Forward differences of padded cell values over h, and the slope
    ``t = |grad v|`` per difference cell.  A Dirichlet datum's constant ring
    differences (``offset``) are added before the division; ``live`` zeroes
    the dead slots of the Neumann rule, where ``t = 0``."""
    gx, gy = ring_differences(p)
    if offset is not None:
        gx += offset[0]
        gy += offset[1]
    if live is not None:
        gx *= live[0]
        gy *= live[1]
    gx /= h
    gy /= h
    t = np.einsum("ijc,ijc->ij", gx, gx)
    t += np.einsum("ijc,ijc->ij", gy, gy)
    np.sqrt(t, out=t)
    return gx, gy, t


class StencilPoint:
    """Everything the kernels derive from one forward-difference pass at
    the padded values w.

    ``ops.evaluate(w)`` takes the pass once: the differences ``(gx, gy)``,
    the slopes ``t`` and the energy.  ``residual()`` and ``hessian()`` are
    then derived on that same state and share ``d1(t)/t``, computed at most
    once for both, so the solver pays no extra gradient pass for the
    residual and the Hessian at an accepted step.
    """

    __slots__ = ("ops", "w", "gx", "gy", "t", "energy", "_ratio")

    def __init__(self, ops, w: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                 t: np.ndarray, energy: float):
        if not math.isfinite(energy):
            # the hot path skips per-array validation; a non-finite value
            # anywhere in w makes the energy sum non-finite and is caught here
            raise ValueError(f"energy is not finite ({energy!r}) at this "
                             "iterate")
        self.ops = ops
        self.w = w
        self.gx = gx
        self.gy = gy
        self.t = t
        self.energy = energy
        self._ratio = None

    def total_variation(self) -> float:
        """Discrete integral of ``|grad w|`` under the problem's boundary
        rule: the cell-weighted sum of the slopes of this pass."""
        return self.ops.rho * self.ops.h2 * float(np.sum(self.t))

    def ratio(self) -> np.ndarray:
        """``d1(t)/t`` per difference cell, 0 in the slot ``J = my+1``."""
        if self._ratio is None:
            ratio = d1_over_t(self.ops.profile, self.t)
            ratio[:, -1] = 0.0
            self._ratio = ratio
        return self._ratio

    def residual(self) -> np.ndarray:
        """The energy gradient at w, padded."""
        ops = self.ops
        coef = self.ratio()[:, :, None]
        out = ops._divergence(coef * self.gx, coef * self.gy)
        if ops.mass is not None:
            # the data term's gradient: its Hessian, the mass, times w - fd
            out += ops.mass * (self.w - ops.fd)
        return out

    def hessian(self, theta: float = 0.0) -> "Hessian":
        """The energy Hessian at w, with the radial curvature floored at
        ``theta * d1/t`` (``theta = 0`` is the exact Hessian)."""
        return Hessian(self, theta)


class Hessian:
    """The energy Hessian at a ``StencilPoint``, as a matrix-free operator
    on padded arrays: the fine ``multigrid.Level`` of its cell tensors,
    plus the cross-channel coupling when there are several channels.

    Per difference cell the density's Hessian is ``A = a I + b g g^T`` on
    the cell's 2N slopes ``g``, with ``a = d1/t`` and
    ``b = (d2' - a)/t^2``, where ``d2' = max(d2, theta * a)`` floors the
    radial curvature (``b = 0`` below the origin cutoff, where ``A`` is
    ``d2(0) I``).  ``theta = 1`` gives the lagged-diffusivity operator
    ``a I`` wherever ``d2 <= a``; ``theta = 0`` the exact Hessian.
    ``level`` holds each channel's 2x2 block ``a I + b g_c g_c^T`` in
    difference units (the cell weight included, ``1/h^2`` folded out) and
    the data mass; each block is positive definite, because
    ``|g_c| <= t``, so the V-cycle is built on it.  ``a`` is 0 in the slot
    ``J = my+1`` and in the dead slots of the Neumann rule, where ``g`` is
    0 too, so such a slot carries nothing (``a = d1/t`` itself is not 0 at
    ``t = 0``).  For several channels ``coupling`` holds ``(rho b, gx,
    gy)``, the rest of ``b g g^T``, and ``apply`` is exact for N channels,
    coupling included; for one channel it is ``level.apply`` alone.
    """

    __slots__ = ("level", "coupling")

    def __init__(self, pt: StencilPoint, theta: float):
        ops = pt.ops
        a = pt.ratio()
        b = radial_excess(ops.profile, pt.t, a, theta)[:, :, None]
        ax = ay = a[:, :, None]
        if ops.live is not None:
            ax = ax * ops.live[0]
            ay = ay * ops.live[1]
        gx, gy = pt.gx, pt.gy
        txx = b * gx * gx
        txx += ax
        tyy = b * gy * gy
        tyy += ay
        txy = b * gx * gy
        self.level = Level(ops.rho * txx, ops.rho * txy, ops.rho * tyy,
                           ops.mass)
        self.coupling = None if gx.shape[2] == 1 else (ops.rho * b, gx, gy)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``H v``."""
        return self.level.apply(v, self.coupling)


class _Ops:
    """Fused energy and residual kernels for both problem classes.

    ``evaluate`` takes padded ``(nx+2, ny+2, N)`` values (``grids.pad``);
    ``energy`` and ``residual`` take ``(nx, ny, N)`` cell values and convert
    at the boundary.  Slopes live on the difference cells of
    ``grids.ring_differences``, and the boundary rule is data: ``offset``,
    the constant ring differences of a Dirichlet datum, or ``live``, the
    masks of the Neumann differences that link two values; a dead slot and
    the slot ``J = ny+1`` have slope 0, and ``F(0) = 0``, so they add
    nothing to the energy.  The cell weight is ``rho * h^2``.  Subclasses
    set these and supply the data term (its energy, its padded Hessian
    ``mass`` and its padded datum ``fd``) and the default initial field, as
    cell values.
    """

    offset = None
    live = None
    rho = 1.0

    def __init__(self, problem, reg: RegularizationState | None):
        self.problem = problem
        self.profile = _check_state(problem, reg)
        self.mass = None  # diagonal of the data term's Hessian, if any
        g = problem.grid
        self.h = g.h
        self.h2 = g.h * g.h

    def _divergence(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """The adjoint of the forward difference applied to per-cell fluxes
        (0 in dead slots), times the cell weight: the energy gradient with
        respect to w."""
        out = ring_adjoint(fx, fy)
        out *= self.rho * self.h2 / self.h
        return out

    def evaluate(self, w: np.ndarray) -> StencilPoint:
        gx, gy, t = _slopes(w, self.h, self.offset, self.live)
        density = derivative(self.profile, t, 0)
        energy = self.rho * self.h2 * float(np.sum(density))
        if self.mass is not None:
            energy += self._data_energy(w)
        return StencilPoint(self, w, gx, gy, t, energy)

    def energy(self, w: np.ndarray) -> float:
        return self.evaluate(pad(w)).energy

    def residual(self, w: np.ndarray) -> np.ndarray:
        return self.evaluate(pad(w)).residual()[1:-1, 1:-1]


class DirichletOps(_Ops):
    """The kernels with the datum frozen on the ghost ring."""

    def __init__(self, problem: DirichletProblem,
                 reg: RegularizationState | None):
        super().__init__(problem, reg)
        g = problem.grid
        # uniform weight making the difference-cell sum integrate exactly
        self.rho = g.nx * g.ny / float((g.nx + 1) * (g.ny + 1))
        self.offset = problem.ring_offset()

    def default_init(self) -> np.ndarray:
        return self.problem.u0_ext[1:-1, 1:-1, :].astype(float)


class FidelityOps(_Ops):
    """The kernels for homogeneous Neumann data plus the data term."""

    def __init__(self, problem: FidelityProblem,
                 reg: RegularizationState | None):
        super().__init__(problem, reg)
        self.live = neumann_live(problem.grid)
        # one mask per channel, so the mass has the layout of multigrid.Level
        self.outside = np.broadcast_to((~problem.mask.member)[:, :, None],
                                       problem.f.values.shape)
        self.mass = pad(2.0 * problem.lam * self.h2 * self.outside)
        f = problem.f if reg is None else clip_data(problem.f, reg.delta)
        # 0 under the mask, where the datum does not enter the energy
        self.fd = pad(np.where(self.outside, f.values, 0.0))

    def _data_energy(self, w: np.ndarray) -> float:
        """``1/2 sum mass (w - fd)^2`` over the padded arrays."""
        diff = w - self.fd
        diff *= diff
        return 0.5 * float(np.vdot(self.mass, diff))

    def default_init(self) -> np.ndarray:
        fd = self.fd[1:-1, 1:-1]
        fill = fd[self.outside[:, :, 0]].mean(axis=0)
        return np.where(self.outside, fd, fill)


def assemble_ops(problem, reg: RegularizationState | None):
    if isinstance(problem, DirichletProblem):
        return DirichletOps(problem, reg)
    if isinstance(problem, FidelityProblem):
        return FidelityOps(problem, reg)
    raise TypeError("problem must be DirichletProblem or FidelityProblem")
