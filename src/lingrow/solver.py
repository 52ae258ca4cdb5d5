"""Minimization of the discrete energies by inexact Newton.

``minimize_fixed_delta`` takes Newton steps on one rung of the ladder.  Each
step solves ``H d = -r`` for the Euler residual ``r`` and the energy Hessian
``H`` (matrix-free, ``energy.Hessian``) by conjugate gradients, stopped at
the relative residual ``eta`` of Eisenstat and Walker's second choice
(SIAM J. Sci. Comput. 17, 1996), and preconditioned by one V-cycle of
Galerkin aggregation multigrid (``multigrid.Multigrid``).  An Armijo line
search from the full step (sufficient decrease 1e-4 of the slope, halving
per backtrack; fixed, not options) verifies every step, so accepted
energies are non-increasing.  Each Newton run, a rung's or a nested-start
copy's, may take at most 200 steps (also fixed).  Far from the minimizer
the radial curvature in ``H`` is floored at ``theta * d1/t``: ``theta``
starts at 1 on a cold rung (the lagged-diffusivity operator), drops
tenfold after each step accepted at once, rises tenfold per backtrack (at
most a hundredfold, and never above 1), and becomes 0 (exact Newton)
below 1e-6.
The step count then stays nearly flat as the mesh is refined.

Cost of one step: the fused stencil pass of the accepted trial
(``ops.evaluate``) gives the energy, the residual and the Hessian
coefficients at the new iterate; one more pass per backtrack; one
multigrid hierarchy (the fine level stored from the Hessian's cell
tensors; each coarse level selects the fine differences that cross
aggregates and pair-sums them, down to at most 8x8 cells, whose dense
inverse is formed once: 0.8-1.5 ms per Newton step inside a 128^2 solve on
a 2-core x86-64, 0.21-0.23 ms of it the 8x8 dense inverse, and about 15%
of the solve in all); and per CG iteration one fine product and one V-cycle
(two products and two Jacobi sweeps, one multiply each, per level above
the coarsest, one small dense product there).  The CG product is
``Hessian.apply`` for every channel count: the stored fine level's, plus
the cross-channel coupling when there are several channels.
A rung costs ``1 + iterations + backtracks`` energy evaluations and
``iterations`` Hessian builds.  The iterate, the Newton direction, the
residual and every CG and V-cycle vector stay on the padded layout
(``grids.pad``), so a product is one contiguous difference pair with no
copy of its input (``Level.apply`` 0.065-0.09 ms at 128^2), and an inner
product is one ``grids.dot`` over the padded arrays, whose zero ring adds
nothing.  The ``Level.apply`` times are in-process medians on the 128^2
rung-1 Hessians of both ladders, with the CLI's allocator thresholds and
one BLAS thread.  ``grids.dot`` takes about 8 us on a 130^2 padded array,
against 3.5 us for a one-thread ``np.vdot``, and sums in an order that no
BLAS thread count changes.

``continuation_solve`` walks a decreasing delta schedule, warm-starting each
rung from the previous solution and re-clipping the datum at each delta.
A warm rung is entered at ``theta`` 1e-2, not 1: its start is the previous
rung's minimizer on the same grid, so the lagged-diffusivity steps that a
cold start needs would only walk the floor down again (the 128^2 edge spike
takes 9/6/3/3 Newton steps where entering every rung at 1 took 9/9/5/4).
Rung 0 and the nested start's coarse copies enter at 1;
``minimize_fixed_delta`` enters at its ``theta``, default 1.
A cold start begins rung 0 by nested iteration (the full-multigrid start of
Brandt, Math. Comp. 31, 1977): the problem is halved while both cell counts
are even and at least 16 cells per axis remain, rung 0 is solved on the
coarsest copy from its default start, and each solution, interpolated
bilinearly, starts the next finer copy and finally the fine rung.  A step
on a copy costs about a quarter of one on the next finer grid: on the 128^2
edge spike the coarse solves (11, 7 and 7 steps at 16^2, 32^2 and 64^2)
cost about as much as three fine steps, and the fine rung 0, started near
its minimizer instead of at the datum, takes 9 Newton steps instead of 29.
Every Newton run, a rung's or a copy's, is reported by one ``SolveStats``:
a rung's ``DeltaRecord`` holds it as ``stats``, and rung 0's ``coarse``
pairs each copy's grid with its own.
``verify_minimality`` audits a candidate by random energy-increase trials
and one along the negative residual, and reports their margins apart.  Its
draws come from a SplitMix64 stream (Steele, Lea and Flood, OOPSLA 2014),
evaluated on a whole trial at once, so the audit needs no ``numpy.random``
and its draws do not depend on the installed numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import DirichletProblem, RegularizationState, assemble_ops
from .grids import Ball, Field, Grid2, check_ball, dot, pad, sup_on
from .multigrid import Multigrid

__all__ = [
    "SolverConfig",
    "SolveStats",
    "DeltaRecord",
    "SolverError",
    "minimize_fixed_delta",
    "continuation_solve",
    "verify_minimality",
    "MinimalityReport",
    "default_interior_ball",
]

_EPS = float(np.finfo(float).eps)
# Armijo line search: sufficient-decrease slope, step factor per backtrack
_ARMIJO_SLOPE = 1e-4
_ARMIJO_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# Eisenstat-Walker choice 2: eta = gamma (|r_k| / |r_k-1|)^2, at most 0.5
_EW_GAMMA = 0.9
_ETA_MAX = 0.5
_MAX_KRYLOV = 200
# Newton steps per run, a rung's or a nested-start copy's
_MAX_NEWTON = 200
# curvature floor: 1 on entry to a cold rung, _THETA_WARM on entry to a rung
# started from the previous rung's solution, 0 (exact Newton) below _THETA_MIN
_THETA_WARM = 1e-2
_THETA_MIN = 1e-6
# the nested start's coarsest copy keeps at least this many cells per axis
_NEST_MIN = 16
# sup-norm of every perturbation of the minimality audit
_AMPLITUDE = 0.1


@dataclass(frozen=True)
class SolverConfig:
    """The continuation ladder: the regularizer's exponent, the strictly
    decreasing delta schedule and the residual tolerance."""

    mu: float = 1.5
    delta_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    residual_tol: float | None = None  # None: 1e-8 * (1 + |E(init)|)

    def __post_init__(self) -> None:
        if not (1.0 < self.mu < 2.0):
            raise ValueError("mu must lie strictly between 1 and 2")
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


@dataclass
class SolveStats:
    """The record of one Newton run: a rung's, or a nested-start copy's."""

    iters: int
    final_residual: float
    energy: float
    tol: float
    backtracks: int
    krylov_iters: int  # conjugate-gradient iterations over all steps
    converged: bool


class SolverError(RuntimeError):
    """Raised when the iteration budget runs out; carries the best iterate."""

    def __init__(self, message: str, best: Field, stats: SolveStats):
        super().__init__(message)
        self.best = best
        self.stats = stats


def _armijo(ops, w: np.ndarray, e: float, d: np.ndarray, slope: float):
    """Backtrack from the full step; returns (point, backtracks), with
    point None when no trial step is accepted.

    The accepted point carries its stencil state, so the residual and the
    Hessian there cost no further gradient pass.  A trial whose energy
    overflows is rejected like one that does not decrease, silently.
    """
    t = 1.0
    for b in range(_MAX_BACKTRACKS):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                point = ops.evaluate(w + t * d)
        except ValueError:  # the energy is not finite
            pass
        else:
            e_new = point.energy
            slack = 4.0 * _EPS * (abs(e) + abs(e_new) + 1.0)
            if e_new <= e + _ARMIJO_SLOPE * t * slope + slack:
                return point, b
            point = None  # release the rejected state before the next trial
        t *= _ARMIJO_BACKTRACK
    return None, _MAX_BACKTRACKS


def _pcg(hess, precond: Multigrid, r: np.ndarray, target: float):
    """Preconditioned CG on ``H d = -r`` from ``d = 0``, stopped once
    ``|H d + r|_2 <= target``; returns (d, iterations).  Every vector is
    padded.

    Every iterate minimizes the quadratic model over a Krylov space, so
    ``r . d < 0`` whenever H is positive definite.
    """
    d = np.zeros_like(r)
    res = -r
    p = precond.vcycle(res)
    rz = dot(res, p)
    for k in range(1, _MAX_KRYLOV + 1):
        q = hess.apply(p)
        pq = dot(p, q)
        if not (pq > 0.0 and rz > 0.0):
            # no curvature left along p (round-off at tiny residuals)
            return (d if k > 1 else p), k - 1
        alpha = rz / pq
        q *= alpha
        res -= q
        np.multiply(p, alpha, out=q)
        d += q
        q = None  # freed before the V-cycle allocates
        if float(np.sqrt(dot(res, res))) <= target:
            return d, k
        z = precond.vcycle(res)
        rz_new = dot(res, z)
        p *= rz_new / rz
        p += z
        z = None
        rz = rz_new
    return d, _MAX_KRYLOV


def minimize_fixed_delta(problem, reg: RegularizationState | None,
                         init: Field, cfg: SolverConfig = SolverConfig(),
                         theta: float = 1.0):
    """Minimize one rung of the ladder from curvature floor ``theta``.
    Returns (solution, stats).

    Stops when the sup-norm of the Euler residual drops below the tolerance;
    raises ``SolverError`` (carrying the best iterate) when the iteration
    budget is exhausted or the line search stalls short of it.
    """
    return _newton(problem, reg, init, cfg, theta)


def _newton(problem, reg: RegularizationState | None, init: Field,
            cfg: SolverConfig, theta: float = 1.0):
    """Newton-CG from curvature floor ``theta``.  The ladder's rungs run it
    through ``minimize_fixed_delta``, so perfbench's tracer and
    ``make_reference.py``, which wrap that name, see each rung; the nested
    start's coarse copies call it directly and are not counted as rungs.
    Iterates, directions, residuals are padded (``grids.pad``)."""
    ops = assemble_ops(problem, reg)
    if init.grid != problem.grid or init.channels != problem.channels:
        raise ValueError("init does not match the problem")
    point = ops.evaluate(pad(init.values))
    w, e = point.w, point.energy
    tol = cfg.residual_tol if cfg.residual_tol is not None \
        else 1e-8 * (1.0 + abs(e))

    r = point.residual()
    backtracks = krylov = 0
    stalled = False
    eta, rnorm_prev = _ETA_MAX, None
    for iters in range(_MAX_NEWTON + 1):
        rmax = float(np.max(np.abs(r)))
        if rmax <= tol:
            stats = SolveStats(iters, rmax, e, tol, backtracks, krylov, True)
            return Field(problem.grid, w[1:-1, 1:-1].copy()), stats
        if iters == _MAX_NEWTON:
            break
        rnorm = float(np.sqrt(dot(r, r)))
        if rnorm_prev is not None:
            eta = min(_EW_GAMMA * (rnorm / rnorm_prev) ** 2, _ETA_MAX)
        rnorm_prev = rnorm
        hess = point.hessian(theta)
        point = None  # the trials below allocate their own state
        mg = Multigrid(hess.level)
        d, k = _pcg(hess, mg, r, max(eta, 0.5 * tol / rnorm) * rnorm)
        hess = mg = None
        krylov += k
        slope = dot(r, d)
        if slope >= 0.0:
            stalled = True
            break
        point, b = _armijo(ops, w, e, d, slope)
        if point is None:
            stalled = True
            break
        w, e = point.w, point.energy
        backtracks += b
        r = point.residual()
        theta = theta / 10.0 if b == 0 else min(1.0, theta * 10.0 ** min(b, 2))
        if theta < _THETA_MIN:
            theta = 0.0

    stats = SolveStats(iters, rmax, e, tol, backtracks, krylov, False)
    reason = "line search stalled" if stalled else "iteration budget exhausted"
    raise SolverError(
        f"{reason} at residual {rmax:.3e} (tol {tol:.3e})",
        Field(problem.grid, w[1:-1, 1:-1].copy()), stats)


def default_interior_ball(grid) -> Ball:
    """Centered ball of radius min(lx, ly)/4, used when none is configured.
    A side of 2 cells widens it to 3h/4, so that it holds a cell centre."""
    side = max(min(grid.lx, grid.ly), 3 * grid.h)
    return Ball((grid.lx / 2.0, grid.ly / 2.0), 0.25 * side)


def _interpolate(v: np.ndarray) -> np.ndarray:
    """Bilinear cell-centred prolongation onto the grid with twice the
    cells per axis: each fine cell takes 9/16 of its coarse cell, 3/16 of
    each of the two coarse neighbours on its side and 1/16 of the
    diagonal one between them, with the values replicated one cell past
    each edge."""
    p = np.pad(v, ((1, 1), (1, 1), (0, 0)), mode="edge")
    mx, my = v.shape[:2]
    px = np.empty((2 * mx,) + p.shape[1:])
    px[0::2] = 0.75 * p[1:-1] + 0.25 * p[:-2]
    px[1::2] = 0.75 * p[1:-1] + 0.25 * p[2:]
    out = np.empty((2 * mx, 2 * my, v.shape[2]))
    out[:, 0::2] = 0.75 * px[:, 1:-1] + 0.25 * px[:, :-2]
    out[:, 1::2] = 0.75 * px[:, 1:-1] + 0.25 * px[:, 2:]
    return out


def _nested_start(problem, reg: RegularizationState, cfg: SolverConfig):
    """Rung 0's cold start by nested iteration (the full-multigrid start).

    The problem is halved while both cell counts are even and the halved
    grid keeps at least ``_NEST_MIN`` cells per axis.  Rung 0 is solved on
    the coarsest copy from its default start, and each solution,
    interpolated bilinearly, starts the next finer copy; the last one
    starts the fine rung.  A coarse level that fails hands its best
    iterate up: only the fine rung decides success.  Returns the fine
    start and each coarse grid with its run's ``SolveStats``, coarsest
    first.
    """
    chain = [problem]
    g = problem.grid
    while g.nx % 2 == 0 and g.ny % 2 == 0 and min(g.nx, g.ny) >= 2 * _NEST_MIN:
        chain.append(chain[-1].coarsen())
        g = chain[-1].grid
    w = assemble_ops(chain[-1], reg).default_init()
    solves = []
    for coarse in reversed(chain[1:]):
        try:
            u, stats = _newton(coarse, reg, Field(coarse.grid, w), cfg)
        except SolverError as err:
            u, stats = err.best, err.stats
        solves.append((coarse.grid, stats))
        w = _interpolate(u.values)
    return Field(problem.grid, w), tuple(solves)


@dataclass
class DeltaRecord:
    """One rung of the ladder: its solution, its Newton run and the plain
    energy, total variation and interior sup of the solution."""

    delta: float
    u: Field
    stats: SolveStats  # the rung's Newton run
    plain_energy: float
    tv: float
    interior_sup: float
    # the nested start's coarse grids with their runs, coarsest first
    # (rung 0 only)
    coarse: tuple[tuple[Grid2, SolveStats], ...] = ()


def continuation_solve(problem, cfg: SolverConfig = SolverConfig(),
                       init: Field | None = None,
                       interior_ball: Ball | None = None
                       ) -> list[DeltaRecord]:
    """Warm-started walk down the delta schedule; returns one record per
    rung, the final rung last.

    The default initial guess is the boundary datum (Dirichlet) or the
    clipped datum with its off-mask mean filling the masked cells (fidelity).
    ``SolverError`` from a rung is re-raised annotated with its delta.  An
    ``interior_ball`` outside the domain, or holding no cell centre, raises
    ``ValueError`` before any Newton step.
    """
    ball = interior_ball or default_interior_ball(problem.grid)
    check_ball(problem.grid, ball)  # a bad ball fails before rung 0
    plain_ops = assemble_ops(problem, None)
    records = []
    u = init
    for rung, delta in enumerate(cfg.delta_schedule):
        reg = RegularizationState(delta, cfg.mu, problem.kind)
        coarse = ()
        if u is None:
            u, coarse = _nested_start(problem, reg, cfg)
        try:
            u, stats = minimize_fixed_delta(problem, reg, u, cfg,
                                            1.0 if rung == 0 else _THETA_WARM)
        except SolverError as err:
            raise SolverError(f"delta={delta:g}: {err}", err.best,
                              err.stats) from err
        plain = plain_ops.evaluate(pad(u.values))
        records.append(DeltaRecord(
            delta=delta, u=u, stats=stats, plain_energy=plain.energy,
            tv=plain.total_variation(), interior_sup=sup_on(u, ball),
            coarse=coarse))
        plain = None  # its slope arrays would outlive the next rung's solve
    return records


@dataclass
class MinimalityReport:
    """The energy-increase audit around a solution: the margins of the
    random trials and of the one along the negative residual."""

    trials: int
    amplitude: float
    worst_margin: float  # over the random trials
    residual_margin: float  # of the trial along the negative residual
    threshold: float
    passed: bool
    margins: np.ndarray


def _smooth(psi: np.ndarray) -> np.ndarray:
    """Two passes of the five-point mean on padded values: each cell adds
    its x and then its y neighbours, one contiguous shifted add each, and
    the ring, which the shifts reach, is zeroed after each pass."""
    rows, s, n = psi.shape
    for _ in range(2):
        acc = psi.copy()
        flat, src = acc.reshape(rows * s, n), psi.reshape(rows * s, n)
        flat[s:] += src[:-s]
        flat[:-s] += src[s:]
        flat[1:] += src[:-1]
        flat[:-1] += src[1:]
        acc /= 5.0
        acc[0] = acc[-1] = 0.0
        acc[:, 0] = acc[:, -1] = 0.0
        psi = acc
    return psi


# SplitMix64: the counter's increment and the output function's multipliers
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_END = 2 ** 64


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64's output for each counter state, as a new array; array
    arithmetic on ``uint64`` wraps modulo 2^64 without a warning."""
    z = state >> 30
    z ^= state
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _uniform_trials(seed: int, shape):
    """Uniform draws on [-1, 1), one array of ``shape`` per trial, from the
    SplitMix64 stream whose state starts at ``seed``.  Trial ``i`` reads the
    next ``M`` outputs in C order: cell ``k`` gets output ``n = i*M + k + 1``,
    the mix of ``seed + n * 0x9E3779B97F4A7C15 mod 2^64``, mapped to
    ``(z >> 11) * 2^-52 - 1``, exactly numpy's ``uniform`` on [-1, 1)."""
    m = int(np.prod(shape))
    state = np.arange(1, m + 1, dtype=np.uint64)
    state *= np.uint64(_GOLDEN)
    state += np.uint64(seed)
    step = np.uint64(m * _GOLDEN % _SEED_END)
    while True:
        z = _splitmix64(state)
        z >>= 11
        x = z * 2.0 ** -52
        x -= 1.0
        yield x.reshape(shape)
        state += step


def verify_minimality(problem, reg: RegularizationState | None, u: Field,
                      trials: int = 100, seed: int = 0) -> MinimalityReport:
    """Energy-increase audit around u.

    Random cell perturbations of sup-norm ``_AMPLITUDE`` (half of them
    smoothed), plus one of the same size along the negative residual
    direction so that non-minimizers are caught even when random
    directions miss the descent cone.  Dirichlet perturbations
    vanish on the outermost cell ring.  Passes when every margin
    ``energy(u + psi) - energy(u)`` stays above ``-1e-9 * (1 + |energy(u)|)``.
    The draws are ``_uniform_trials(seed, ...)``, so ``seed`` must lie in
    [0, 2^64).  The trials run on padded values, one at a time.  The report
    gives the random trials' worst margin and the residual trial's margin
    apart: at a converged ``u`` the residual is round-off, and so is its
    direction.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed < _SEED_END:
        raise ValueError("seed must be in [0, 2^64)")
    ops = assemble_ops(problem, reg)
    w = pad(u.values)
    point = ops.evaluate(w)
    e0, r = point.energy, point.residual()
    point = None
    threshold = 1e-9 * (1.0 + abs(e0))
    draws = _uniform_trials(seed, u.values.shape)
    dirichlet = isinstance(problem, DirichletProblem)

    def margin(psi: np.ndarray) -> float:
        if dirichlet:
            psi[1, :] = psi[-2, :] = 0.0
            psi[:, 1] = psi[:, -2] = 0.0
        psi += w
        return ops.evaluate(psi).energy - e0

    margins = np.empty(trials + 1)
    for i in range(trials):
        psi = pad(next(draws))
        if i % 2 == 1:
            psi = _smooth(psi)
        m = float(np.max(np.abs(psi)))
        psi *= _AMPLITUDE / m
        margins[i] = margin(psi)

    rmax = float(np.max(np.abs(r)))
    margins[trials] = margin(-_AMPLITUDE * r / rmax) if rmax > 0.0 else 0.0

    return MinimalityReport(trials=trials + 1, amplitude=_AMPLITUDE,
                            worst_margin=float(np.min(margins[:trials])),
                            residual_margin=float(margins[trials]),
                            threshold=threshold,
                            passed=float(np.min(margins)) >= -threshold,
                            margins=margins)
