"""Minimization of the discrete energies by preconditioned descent.

``minimize_fixed_delta`` walks the energy downhill along the negative Euler
residual, rescaled by a diagonal preconditioner built from the density's
curvature bounds, with Armijo backtracking.  The trial step starts from a
spectral (Barzilai-Borwein) secant estimate instead of 1; Armijo still
verifies every step, so accepted energies are non-increasing, but the
badly conditioned small-delta rungs converge orders of magnitude faster
than with unit trial steps.

Cost per iteration: every energy evaluation is one fused stencil pass
(``ops.evaluate``: one forward difference, the slopes and the energy).  The
Armijo trial that is accepted hands that state forward, so the residual and
the preconditioner at the new iterate come from ``d1/t`` and ``d2`` on it
without another gradient pass.  An accepted step therefore costs one
gradient pass plus one per backtrack, and a rung costs
``1 + iterations + backtracks`` passes in all.

``continuation_solve`` walks a decreasing delta schedule, warm-starting each
rung from the previous solution and re-clipping the datum at each delta.
``verify_minimality`` audits a candidate by random energy-increase trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import (DirichletProblem, FidelityProblem, RegularizationState,
                     assemble_ops, total_variation)
from .grids import Ball, Field, sup_on

__all__ = [
    "SolverConfig",
    "SolveStats",
    "DeltaRecord",
    "SolveTrace",
    "SolverError",
    "minimize_fixed_delta",
    "continuation_solve",
    "verify_minimality",
    "MinimalityReport",
    "default_interior_ball",
]

_EPS = float(np.finfo(float).eps)
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    mu: float = 1.5
    delta_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    residual_tol: float | None = None  # None: 1e-8 * (1 + |E(init)|)
    max_iters: int = 50000
    armijo_slope: float = 1e-4
    armijo_backtrack: float = 0.5
    spectral_steps: bool = True

    def __post_init__(self) -> None:
        sched = tuple(float(d) for d in self.delta_schedule)
        if not sched:
            raise ValueError("delta schedule must be non-empty")
        if any(not (0.0 < d < 1.0) for d in sched):
            raise ValueError("every delta must lie in (0, 1)")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("delta schedule must be strictly decreasing")
        object.__setattr__(self, "delta_schedule", sched)
        if self.residual_tol is not None and not (self.residual_tol > 0.0):
            raise ValueError("residual_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 < self.armijo_slope < 1.0):
            raise ValueError("armijo_slope must lie in (0, 1)")
        if not (0.0 < self.armijo_backtrack < 1.0):
            raise ValueError("armijo_backtrack must lie in (0, 1)")


@dataclass
class SolveStats:
    iters: int
    final_residual: float
    energy: float
    tol: float
    backtracks: int
    converged: bool


class SolverError(RuntimeError):
    """Raised when the iteration budget runs out; carries the best iterate."""

    def __init__(self, message: str, best: Field, stats: SolveStats):
        super().__init__(message)
        self.best = best
        self.stats = stats


def _armijo(ops, w: np.ndarray, e: float, d: np.ndarray, slope: float,
            t0: float, cfg: SolverConfig):
    """Backtrack from trial step t0; returns (point, backtracks), with
    point None when no trial step is accepted.

    The accepted point carries its stencil state, so the residual and the
    preconditioner there cost no further gradient pass.
    """
    t = t0
    for b in range(_MAX_BACKTRACKS):
        point = ops.evaluate(w + t * d)
        e_new = point.energy
        slack = 4.0 * _EPS * (abs(e) + abs(e_new) + 1.0)
        if e_new <= e + cfg.armijo_slope * t * slope + slack:
            return point, b
        point = None  # release the rejected state before the next trial
        t *= cfg.armijo_backtrack
    return None, _MAX_BACKTRACKS


def minimize_fixed_delta(problem, reg: RegularizationState | None,
                         init: Field, cfg: SolverConfig = SolverConfig()):
    """Minimize one rung of the ladder.  Returns (solution, stats).

    Stops when the sup-norm of the Euler residual drops below the tolerance;
    raises ``SolverError`` (carrying the best iterate) when the iteration
    budget is exhausted or the line search stalls short of it.
    """
    ops = assemble_ops(problem, reg)
    if init.grid != problem.grid or init.channels != problem.channels:
        raise ValueError("init does not match the problem")
    point = ops.evaluate(init.values.astype(float).copy())
    w, e = point.w, point.energy
    tol = cfg.residual_tol if cfg.residual_tol is not None \
        else 1e-8 * (1.0 + abs(e))

    r = point.residual()
    w_prev = r_prev = None
    backtracks = 0
    iters = 0
    rmax = np.inf
    stalled = False
    for iters in range(cfg.max_iters + 1):
        rmax = float(np.max(np.abs(r)))
        if rmax <= tol:
            stats = SolveStats(iters, rmax, e, tol, backtracks, True)
            return Field(problem.grid, w), stats
        if iters == cfg.max_iters:
            break
        diag = point.curvature_diag()
        diag = np.maximum(diag, 1e-8 * float(diag.max()))
        d = -r / diag
        slope = float(np.sum(r * d))
        if slope >= 0.0:
            stalled = True
            break
        t0 = 1.0
        if cfg.spectral_steps and w_prev is not None:
            # secant estimate of the inverse curvature along the last step,
            # measured in the preconditioned metric
            s = w - w_prev
            g = r - r_prev
            num = float(np.sum(s * g))
            den = float(np.sum(g * g / diag))
            if num > 0.0 and den > 0.0:
                t0 = min(max(num / den, 1e-6), 1e8)
        # drop the state at w before the trials allocate theirs
        point = None
        point, b = _armijo(ops, w, e, d, slope, t0, cfg)
        if point is None:
            stalled = True
            break
        w_prev, r_prev = w, r
        w, e = point.w, point.energy
        backtracks += b
        r = point.residual()

    stats = SolveStats(iters, rmax, e, tol, backtracks, False)
    reason = "line search stalled" if stalled else "iteration budget exhausted"
    raise SolverError(
        f"{reason} at residual {rmax:.3e} (tol {tol:.3e})",
        Field(problem.grid, w), stats)


def default_interior_ball(grid) -> Ball:
    """Centered ball of radius min(lx, ly)/4, used when none is configured."""
    return Ball((grid.lx / 2.0, grid.ly / 2.0), 0.25 * min(grid.lx, grid.ly))


@dataclass
class DeltaRecord:
    delta: float
    u: Field
    energy: float
    plain_energy: float
    residual: float
    iters: int
    tv: float
    interior_sup: float


@dataclass
class SolveTrace:
    records: list[DeltaRecord] = field(default_factory=list)

    @property
    def final(self) -> DeltaRecord:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1]

    def deltas(self) -> list[float]:
        return [r.delta for r in self.records]

    def to_csv(self) -> str:
        lines = ["delta,energy,plain_energy,residual,iters,tv,interior_sup"]
        for r in self.records:
            lines.append(f"{r.delta!r},{r.energy!r},{r.plain_energy!r},"
                         f"{r.residual!r},{r.iters},{r.tv!r},{r.interior_sup!r}")
        return "\n".join(lines) + "\n"


def continuation_solve(problem, cfg: SolverConfig = SolverConfig(),
                       init: Field | None = None,
                       interior_ball: Ball | None = None) -> SolveTrace:
    """Warm-started walk down the delta schedule.

    The default initial guess is the boundary datum (Dirichlet) or the
    clipped datum with its off-mask mean filling the masked cells (fidelity).
    ``SolverError`` from a rung is re-raised annotated with its delta.
    """
    ball = interior_ball or default_interior_ball(problem.grid)
    trace = SolveTrace()
    u = init
    for delta in cfg.delta_schedule:
        reg = RegularizationState(delta, cfg.mu, problem.kind)
        if u is None:
            u = Field(problem.grid, assemble_ops(problem, reg).default_init())
        try:
            u, stats = minimize_fixed_delta(problem, reg, u, cfg)
        except SolverError as err:
            raise SolverError(f"delta={delta:g}: {err}", err.best,
                              err.stats) from err
        plain = assemble_ops(problem, None).energy(u.values)
        trace.records.append(DeltaRecord(
            delta=delta, u=u, energy=stats.energy, plain_energy=plain,
            residual=stats.final_residual, iters=stats.iters,
            tv=total_variation(problem, u),
            interior_sup=sup_on(u, ball)))
    return trace


@dataclass
class MinimalityReport:
    trials: int
    amplitude: float
    worst_margin: float
    threshold: float
    passed: bool
    margins: np.ndarray

    def to_dict(self) -> dict:
        return {
            "trials": self.trials, "amplitude": self.amplitude,
            "worst_margin": self.worst_margin, "threshold": self.threshold,
            "passed": bool(self.passed),
        }


def _smooth(psi: np.ndarray) -> np.ndarray:
    for _ in range(2):
        acc = psi.copy()
        acc[1:, :, :] += psi[:-1, :, :]
        acc[:-1, :, :] += psi[1:, :, :]
        acc[:, 1:, :] += psi[:, :-1, :]
        acc[:, :-1, :] += psi[:, 1:, :]
        psi = acc / 5.0
    return psi


def verify_minimality(problem, reg: RegularizationState | None, u: Field,
                      trials: int = 100, amplitude: float = 0.1,
                      seed: int = 0) -> MinimalityReport:
    """Energy-increase audit around u.

    Random cell perturbations (half of them smoothed), plus one trial along
    the negative residual direction so that non-minimizers are caught even
    when random directions miss the descent cone.  Dirichlet perturbations
    vanish on the outermost cell ring.  Passes when every margin
    ``energy(u + psi) - energy(u)`` stays above ``-1e-9 * (1 + |energy(u)|)``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (amplitude > 0.0):
        raise ValueError("amplitude must be positive")
    ops = assemble_ops(problem, reg)
    w = u.values
    e0 = ops.energy(w)
    threshold = 1e-9 * (1.0 + abs(e0))
    rng = np.random.default_rng(seed)
    dirichlet = isinstance(problem, DirichletProblem)

    margins = np.empty(trials + 1)
    for i in range(trials):
        psi = rng.uniform(-1.0, 1.0, size=w.shape)
        if i % 2 == 1:
            psi = _smooth(psi)
        m = float(np.max(np.abs(psi)))
        psi *= amplitude / m
        if dirichlet:
            psi[0, :, :] = psi[-1, :, :] = 0.0
            psi[:, 0, :] = psi[:, -1, :] = 0.0
        margins[i] = ops.energy(w + psi) - e0

    r = ops.residual(w)
    rmax = float(np.max(np.abs(r)))
    if rmax > 0.0:
        psi = -amplitude * r / rmax
        if dirichlet:
            psi[0, :, :] = psi[-1, :, :] = 0.0
            psi[:, 0, :] = psi[:, -1, :] = 0.0
        margins[trials] = ops.energy(w + psi) - e0
    else:
        margins[trials] = 0.0

    worst = float(np.min(margins))
    return MinimalityReport(trials=trials + 1, amplitude=amplitude,
                            worst_margin=worst, threshold=threshold,
                            passed=worst >= -threshold, margins=margins)
