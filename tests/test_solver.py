"""Continuation solver: Newton steps, traces, Newton oracle, minimality."""

import dataclasses
import math

import numpy as np
import pytest

from lingrow import energy, solver
from lingrow.energy import (DirichletProblem, FidelityProblem,
                            RegularizationState, assemble_ops)
from lingrow.grids import Ball, Field, Grid2, Mask, pad, sup_on
from lingrow.instances import (dirichlet_boundary_spike,
                               fidelity_inverse_sqrt)
from lingrow.profiles import minimal_surface, phi_mu
from lingrow.solver import (SolverConfig, SolveTrace, SolverError,
                            continuation_solve, default_interior_ball,
                            minimize_fixed_delta, verify_minimality)

from .oracles import minimality_margins_unpadded, newton_solve


def denoise_problem(n=8, seed=5, lam=0.7, mask=None):
    rng = np.random.default_rng(seed)
    g = Grid2(n, n, 1.0 / n)
    f = Field(g, rng.uniform(-1.0, 1.0, size=(n, n, 1)))
    return FidelityProblem(g, f, mask or Mask.empty(g), lam, minimal_surface())


# ---------------------------------------------------------------------------
# configuration validation


def test_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(delta_schedule=())
    with pytest.raises(ValueError):
        SolverConfig(delta_schedule=(0.1, 0.2))
    with pytest.raises(ValueError):
        SolverConfig(delta_schedule=(1.5, 0.1))
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_empty_trace_final_raises():
    with pytest.raises(ValueError):
        SolveTrace().final


# ---------------------------------------------------------------------------
# exact minimizers


def test_constant_datum_denoising():
    g = Grid2(8, 8, 1.0 / 8)
    f = Field.full(g, 2.5)
    problem = FidelityProblem(g, f, Mask.empty(g), 0.7, minimal_surface())
    rng = np.random.default_rng(0)
    init = Field(g, rng.normal(size=(8, 8, 1)))
    reg = RegularizationState(0.1, 1.5, "fidelity")
    cfg = SolverConfig(mu=1.5, residual_tol=1e-12)
    u, stats = minimize_fixed_delta(problem, reg, init, cfg)
    assert stats.converged and stats.final_residual <= stats.tol
    assert np.max(np.abs(u.values - 2.5)) <= 1e-8


def test_affine_datum_is_fixed_point():
    g = Grid2(16, 16, 1.0 / 16)
    problem = DirichletProblem.from_function(
        g, lambda x, y: 1.0 + 2.0 * x - 0.5 * y, minimal_surface())
    init = problem.u0_interior()
    reg = RegularizationState(0.1, 1.5, "dirichlet")
    u, stats = minimize_fixed_delta(problem, reg, init)
    assert stats.iters == 0
    assert np.array_equal(u.values, init.values)

    trace = continuation_solve(problem, SolverConfig(mu=1.5))
    assert len(trace.records) == 4
    for rec in trace.records:
        assert np.max(np.abs(rec.u.values - init.values)) <= 1e-8
    plain = [rec.plain_energy for rec in trace.records]
    assert max(plain) - min(plain) <= 1e-12 * (1.0 + abs(plain[0]))


def test_descent_reduces_energy():
    problem = denoise_problem()
    reg = RegularizationState(0.1, 1.5, "fidelity")
    init = Field.zeros(problem.grid)
    ops = assemble_ops(problem, reg)
    e0 = ops.energy(init.values)
    u, stats = minimize_fixed_delta(problem, reg, init)
    assert stats.converged
    assert stats.energy <= e0 + 1e-12 * (1.0 + abs(e0))
    assert stats.energy == pytest.approx(ops.energy(u.values),
                                         rel=1e-12)


# ---------------------------------------------------------------------------
# continuation traces


def test_trace_records_and_monotonicity():
    problem = denoise_problem(n=12, seed=9)
    cfg = SolverConfig(mu=1.5, residual_tol=1e-10)
    trace = continuation_solve(problem, cfg)
    assert [r.delta for r in trace.records] == [1e-1, 1e-2, 1e-3, 1e-4]
    for rec in trace.records:
        assert rec.stats.final_residual <= 1e-10
        # the delta term is nonnegative
        assert rec.plain_energy <= rec.stats.energy
    plain = [rec.plain_energy for rec in trace.records]
    for a, b in zip(plain, plain[1:]):
        assert b <= a + 1e-8 * (1.0 + abs(a))
    tv = [rec.tv for rec in trace.records]
    assert max(tv) <= tv[0] * 1.10


def test_trace_csv_shape():
    problem = denoise_problem()
    trace = continuation_solve(problem, SolverConfig(mu=1.5))
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "delta,energy,plain_energy,residual,iters,tv,interior_sup"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and int(first[4]) >= 0


def test_translation_covariance():
    rng = np.random.default_rng(7)
    g = Grid2(10, 10, 0.1)
    ext = rng.normal(size=(12, 12, 1))
    base = minimal_surface()
    cfg = SolverConfig(mu=1.5, residual_tol=1e-12)
    t1 = continuation_solve(DirichletProblem(g, ext, base), cfg)
    t2 = continuation_solve(DirichletProblem(g, ext + 3.0, base), cfg)
    shift = t2.final.u.values - (t1.final.u.values + 3.0)
    assert np.max(np.abs(shift)) <= 1e-9


def test_default_interior_ball():
    b = default_interior_ball(Grid2(8, 4, 0.25))
    assert b.center == (1.0, 0.5) and b.radius == 0.25


@pytest.mark.parametrize("nx, ny, h", [
    (2, 2, 0.5), (2, 9, 0.1), (9, 2, 0.1), (3, 3, 0.1), (3, 8, 0.3),
    (4, 4, 0.7), (5, 2, 1e-3), (128, 128, 1.0 / 128)])
def test_the_default_ball_holds_a_cell_centre_on_every_grid(nx, ny, h):
    """A side of 2 cells widens the radius to 3h/4; at 3 cells or more it
    stays min(lx, ly)/4, bit for bit."""
    g = Grid2(nx, ny, h)
    b = default_interior_ball(g)
    assert g.contains_ball(b) and g.cells_in_ball(b).any()
    if min(nx, ny) >= 3:
        assert b.radius == 0.25 * min(g.lx, g.ly)
    else:
        assert b.radius == 0.25 * (3 * h)


# ---------------------------------------------------------------------------
# dense-Newton oracle equivalence


def test_single_rung_matches_newton():
    problem = denoise_problem(seed=11)
    reg = RegularizationState(0.1, 1.5, "fidelity")
    cfg = SolverConfig(mu=1.5, residual_tol=1e-10)
    init = Field.zeros(problem.grid)
    u, _ = minimize_fixed_delta(problem, reg, init, cfg)

    ref = newton_solve(assemble_ops(problem, reg).residual, init.values,
                       tol=1e-11)
    assert np.max(np.abs(u.values - ref)) <= 1e-6


def test_smallest_rungs_match_newton():
    problem = denoise_problem(seed=5)
    cfg = SolverConfig(mu=1.5, residual_tol=1e-11)
    trace = continuation_solve(problem, cfg)
    h2 = problem.grid.h ** 2
    for rec in trace.records[-2:]:
        reg = RegularizationState(rec.delta, 1.5, "fidelity")
        ref = newton_solve(assemble_ops(problem, reg).residual, rec.u.values,
                           tol=1e-12)
        l2 = float(np.sqrt(np.sum((rec.u.values - ref) ** 2) * h2))
        assert l2 <= 1e-6


def test_denoising_solution_independent_of_init():
    problem = denoise_problem(seed=13)
    cfg = SolverConfig(mu=1.5, residual_tol=1e-11)
    sols = []
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        init = Field(problem.grid, rng.normal(size=(8, 8, 1)))
        sols.append(continuation_solve(problem, cfg, init=init).final.u)
    diff = sols[0].values - sols[1].values
    l2 = float(np.sqrt(np.sum(diff ** 2) * problem.grid.h ** 2))
    assert l2 <= 1e-6


def test_two_channel_dirichlet_ladder_matches_newton():
    rng = np.random.default_rng(41)
    g = Grid2(6, 7, 1.0 / 7)
    problem = DirichletProblem(g, rng.normal(size=(8, 9, 2)),
                               minimal_surface())
    cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01),
                       residual_tol=1e-11)
    trace = continuation_solve(problem, cfg)
    start = problem.u0_interior().values
    for rec in trace.records:
        reg = RegularizationState(rec.delta, 1.5, "dirichlet")
        ref = newton_solve(assemble_ops(problem, reg).residual, start,
                           tol=1e-12)
        assert np.max(np.abs(rec.u.values - ref)) <= 1e-6


def test_two_channel_multilevel_ladder_matches_newton():
    """The same oracle on a grid past the dense coarse threshold, so the
    coupled CG product runs under a multi-level V-cycle."""
    rng = np.random.default_rng(47)
    g = Grid2(10, 9, 1.0 / 10)
    problem = DirichletProblem(g, rng.normal(size=(12, 11, 2)),
                               minimal_surface())
    cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01),
                       residual_tol=1e-11)
    trace = continuation_solve(problem, cfg)
    start = problem.u0_interior().values
    for rec in trace.records:
        reg = RegularizationState(rec.delta, 1.5, "dirichlet")
        ref = newton_solve(assemble_ops(problem, reg).residual, start,
                           tol=1e-12)
        assert np.max(np.abs(rec.u.values - ref)) <= 1e-6


def test_masked_fidelity_with_one_data_cell_converges():
    """A mask over every cell but one (a mask may not cover them all): the
    data term pins one cell, so the Hessian is nearly singular on constants
    and the coarsest multigrid level is nearly 0; Newton still converges."""
    g = Grid2(9, 8, 1.0 / 9)
    rng = np.random.default_rng(43)
    member = np.ones((9, 8), dtype=bool)
    member[4, 3] = False
    problem = FidelityProblem(g, Field(g, rng.normal(size=(9, 8, 1))),
                              Mask(g, member), 0.7, minimal_surface())
    reg = RegularizationState(0.1, 1.5, "fidelity")
    init = Field(g, rng.normal(size=(9, 8, 1)))
    u, stats = minimize_fixed_delta(problem, reg, init,
                                    SolverConfig(residual_tol=1e-10))
    assert stats.converged
    # the minimizer is the constant datum value of the one free cell
    assert np.max(np.abs(u.values - problem.f.values[4, 3, 0])) <= 1e-6


def test_tiny_data_weight_with_one_data_cell_converges():
    """A one-cell data term with ``lam = 1e-12``: its mass is about 1e-14
    of the cell tensors, so every multigrid level is nearly singular on
    constants, and the dense coarsest level must stay exact there."""
    g = Grid2(16, 16, 1.0 / 16)
    rng = np.random.default_rng(43)
    member = np.ones((16, 16), dtype=bool)
    member[8, 3] = False
    problem = FidelityProblem(g, Field(g, rng.normal(size=(16, 16, 1))),
                              Mask(g, member), 1e-12, minimal_surface())
    reg = RegularizationState(0.1, 1.5, "fidelity")
    init = Field(g, rng.normal(size=(16, 16, 1)))
    _, stats = minimize_fixed_delta(problem, reg, init,
                                    SolverConfig(residual_tol=1e-10))
    assert stats.converged


@pytest.fixture(scope="module")
def spike_ladders():
    """The 64^2 and 128^2 edge-spike ladders at the defaults, solved once."""
    return {n: continuation_solve(dirichlet_boundary_spike(n, n),
                                  SolverConfig(mu=1.5)) for n in (64, 128)}


def test_newton_steps_are_mesh_independent(spike_ladders):
    """Refining the spike ladder from 64^2 to 128^2 costs at most half as
    many Newton steps again; the descent it replaced needed about twice."""
    steps = [sum(rec.stats.iters for rec in spike_ladders[n].records)
             for n in (64, 128)]
    assert steps[1] <= 1.5 * steps[0], steps


def test_warm_rungs_enter_below_the_lagged_diffusivity(spike_ladders):
    """Rungs after the first start from the previous rung's solution and
    enter at the curvature floor 1e-2, not 1: the 64^2 spike ladder takes
    6/4/3/3 Newton steps where entering every rung at 1 took 6/6/4/4."""
    steps = [rec.stats.iters for rec in spike_ladders[64].records]
    assert sum(steps) <= 16, steps


def test_krylov_iterations_on_the_64_ladders(spike_ladders):
    """Regression guard on the preconditioner's strength: total CG
    iterations over the 64^2 ladders stay at or below 166 (spike) and 131
    (fidelity), the counts of the Jacobi-to-1x1 V-cycle; the dense coarse
    level takes 141 and 94."""
    for name, trace, bound in (
            ("spike", spike_ladders[64], 166),
            ("fidelity", continuation_solve(fidelity_inverse_sqrt(64, 64),
                                            SolverConfig(mu=1.5)), 131)):
        total = sum(rec.stats.krylov_iters for rec in trace.records)
        assert total <= bound, (name, total)


# ---------------------------------------------------------------------------
# the nested start of rung 0


def cold_ladder(problem, cfg):
    """The rung solutions of the ladder with rung 0 started cold, from the
    problem's default start, and no nested start; the later rungs enter at
    the warm curvature floor, as in ``continuation_solve``."""
    u, out = None, []
    for delta in cfg.delta_schedule:
        reg = RegularizationState(delta, cfg.mu, problem.kind)
        if u is None:
            u = Field(problem.grid,
                      solver.assemble_ops(problem, reg).default_init())
            u, _ = minimize_fixed_delta(problem, reg, u, cfg)
        else:
            u, _ = solver._newton(problem, reg, u, cfg, solver._THETA_WARM)
        out.append(u)
    return out


def test_nested_start_cuts_the_fine_rung_0(spike_ladders):
    """The cold-started rung 0 of the 128^2 spike took 29 Newton steps;
    started from its solutions at 16^2, 32^2 and 64^2 it takes at most 10."""
    records = spike_ladders[128].records
    coarse = records[0].coarse
    assert [(g.nx, g.ny) for g, _ in coarse] == [(16, 16), (32, 32), (64, 64)]
    assert all(c.converged and c.iters >= 1 for _, c in coarse)
    assert records[0].stats.iters <= 10, records[0].stats.iters
    assert all(rec.coarse == () for rec in records[1:])


@pytest.mark.parametrize("make", [
    lambda: dirichlet_boundary_spike(33, 20),
    lambda: denoise_problem(n=12, seed=9),
], ids=["odd-33x20", "fidelity-12x12"])
def test_grids_without_a_coarse_copy_keep_the_cold_start(make):
    """An odd cell count, or a halved grid under 16 cells per axis, gives no
    coarse level, and every rung is bit-identical to the cold ladder."""
    problem = make()
    cfg = SolverConfig(mu=1.5)
    trace = continuation_solve(problem, cfg)
    assert trace.records[0].coarse == ()
    for rec, u in zip(trace.records, cold_ladder(problem, cfg)):
        assert np.array_equal(rec.u.values, u.values)


def test_interpolation_weights_are_9_3_3_1():
    v = np.zeros((3, 4, 1))
    v[1, 2, 0] = 16.0
    out = solver._interpolate(v)
    assert out.shape == (6, 8, 1)
    # the four fine cells of coarse cell (1, 2), then their neighbours
    assert out[2:4, 4:6, 0].tolist() == [[9.0, 9.0], [9.0, 9.0]]
    assert out[1, 4, 0] == out[4, 5, 0] == out[2, 3, 0] == out[3, 6, 0] == 3.0
    assert out[1, 3, 0] == out[4, 6, 0] == 1.0
    assert out[0, 4, 0] == out[2, 2, 0] == 0.0
    # edge replication: a constant stays constant up to the edges, and an
    # affine field is reproduced away from them
    assert np.array_equal(solver._interpolate(np.full((3, 4, 2), 0.5)),
                          np.full((6, 8, 2), 0.5))
    fn = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    coarse = Field.from_function(Grid2(4, 6, 0.5), fn).values
    exact = Field.from_function(Grid2(8, 12, 0.25), fn).values
    out = solver._interpolate(coarse)
    assert np.max(np.abs(out - exact)[1:-1, 1:-1]) <= 1e-14


def test_failing_coarse_level_hands_its_best_iterate_up(monkeypatch):
    """A coarse level out of budget still starts the next level from its
    best iterate; the fine rung alone decides success."""
    problem = dirichlet_boundary_spike(32, 32)
    cfg = SolverConfig(mu=1.5)
    expected = continuation_solve(problem, cfg)
    real = solver._newton

    def one_step_on_coarse_grids(p, reg, init, c, theta=1.0):
        if p.grid != problem.grid:
            c = dataclasses.replace(c, max_iters=1)
        return real(p, reg, init, c, theta)

    monkeypatch.setattr(solver, "_newton", one_step_on_coarse_grids)
    trace = continuation_solve(problem, cfg)
    ((grid, coarse),) = trace.records[0].coarse
    assert (grid.nx, grid.ny, coarse.iters) == (16, 16, 1)
    assert not coarse.converged and coarse.krylov_iters >= 1
    for rec, ref in zip(trace.records, expected.records):
        assert rec.stats.final_residual <= 1e-8 * (1.0 + abs(rec.stats.energy))
        assert np.max(np.abs(rec.u.values - ref.u.values)) <= 1e-6


def test_fine_rung_failure_after_a_nested_start_names_its_rung():
    problem = dirichlet_boundary_spike(32, 32)
    cfg = SolverConfig(mu=1.5, max_iters=2)
    with pytest.raises(SolverError,
                       match=r"^delta=0\.1: iteration budget") as info:
        continuation_solve(problem, cfg)
    assert info.value.best.grid == problem.grid
    assert info.value.stats.iters == 2


def test_two_channel_nested_ladder_matches_the_cold_ladder():
    """Two coupled channels on 32^2 run the nested start through a 16^2
    copy and reach the cold ladder's minimizers."""
    rng = np.random.default_rng(53)
    g = Grid2(32, 32, 1.0 / 32)
    problem = DirichletProblem(g, rng.normal(size=(34, 34, 2)),
                               minimal_surface())
    cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01),
                       residual_tol=1e-11)
    trace = continuation_solve(problem, cfg)
    assert [(g.nx, g.ny) for g, _ in trace.records[0].coarse] == [(16, 16)]
    for rec, u in zip(trace.records, cold_ladder(problem, cfg)):
        assert np.max(np.abs(rec.u.values - u.values)) <= 1e-6


# ---------------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize("ball", [Ball((0.5, 0.5), 1e-4),
                                  Ball((0.5, 0.5), 0.6)],
                         ids=["no-cell-centre", "outside-the-domain"])
def test_a_ball_sup_on_cannot_read_is_rejected_before_any_newton_step(
        monkeypatch, ball):
    def no_newton(*args, **kwargs):
        raise AssertionError("a Newton run started")

    monkeypatch.setattr(solver, "_newton", no_newton)
    with pytest.raises(ValueError, match="ball"):
        continuation_solve(dirichlet_boundary_spike(32, 32), SolverConfig(),
                           interior_ball=ball)


def _ball_verdict(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("grid", [Grid2(2, 2, 0.5), Grid2(3, 9, 1.0 / 9),
                                  Grid2(5, 7, 0.3), Grid2(32, 32, 1.0 / 32),
                                  Grid2(16, 16, 1e-3)],
                         ids=["2x2", "3x9", "5x7", "32x32", "tiny-h"])
def test_the_early_ball_check_agrees_with_sup_on(grid):
    """The separable test reads from the two axes what ``sup_on`` reads from
    the cell mask, on random balls, on balls whose circle passes within an
    ulp of the nearest cell centre, and on balls that touch the edge."""
    rng = np.random.default_rng(grid.nx * grid.ny)
    xs, ys = grid.xs(), grid.ys()
    lx, ly = grid.lx, grid.ly
    balls = []
    for _ in range(100):
        centre = (rng.uniform(-0.1, 1.1) * lx, rng.uniform(-0.1, 1.1) * ly)
        balls.append(Ball(centre, min(lx, ly) * 10.0 ** rng.uniform(-4, 0)))
    for _ in range(50):
        cx = xs[rng.integers(grid.nx)] + rng.uniform(-1.0, 1.0) * grid.h
        cy = ys[rng.integers(grid.ny)] + rng.uniform(-1.0, 1.0) * grid.h
        near = math.sqrt(np.min((xs - cx) ** 2) + np.min((ys - cy) ** 2))
        edge = min(cx, lx - cx, cy, ly - cy)
        for r in (near, edge):
            balls += [Ball((cx, cy), rr) for rr in
                      (r, np.nextafter(r, 0.0), np.nextafter(r, np.inf))
                      if rr > 0.0]
    seen = set()
    for b in balls:
        verdict = _ball_verdict(solver._check_ball, grid, b)
        assert verdict == _ball_verdict(sup_on, Field.zeros(grid), b)
        if grid.contains_ball(b):
            assert (verdict is None) == grid.cells_in_ball(b).any()
        seen.add(verdict)
    assert seen == {None, "ball contains no cell centers",
                    "ball is not contained in the domain"}


def test_budget_exhaustion_carries_best():
    problem = denoise_problem(seed=3)
    reg = RegularizationState(0.01, 1.5, "fidelity")
    cfg = SolverConfig(mu=1.5, max_iters=2, residual_tol=1e-14)
    with pytest.raises(SolverError) as info:
        minimize_fixed_delta(problem, reg, Field.zeros(problem.grid), cfg)
    err = info.value
    assert isinstance(err.best, Field) and not err.stats.converged
    assert err.stats.iters == 2


@pytest.mark.parametrize("scale", [1.0, -1e20],
                         ids=["ascent", "overlong"])
def test_newton_stalls_when_no_step_descends(monkeypatch, scale):
    """An ascent direction fails the slope test; a descent direction far
    too long exhausts the Armijo backtracks.  Either way the rung stops
    with "line search stalled" and the start as its best iterate."""
    monkeypatch.setattr(solver, "_pcg",
                        lambda op, mg, r, eta: (scale * r, 1))
    problem = denoise_problem(seed=3)
    reg = RegularizationState(0.01, 1.5, "fidelity")
    init = Field.zeros(problem.grid)
    with pytest.raises(SolverError, match="^line search stalled") as info:
        minimize_fixed_delta(problem, reg, init, SolverConfig(mu=1.5))
    err = info.value
    assert np.array_equal(err.best.values, init.values)
    assert err.stats.iters == 0 and err.stats.krylov_iters == 1
    assert not err.stats.converged


def test_armijo_gives_up_after_its_backtracks():
    problem = denoise_problem(seed=3)
    ops = energy.assemble_ops(problem, RegularizationState(0.01, 1.5,
                                                          "fidelity"))
    point = ops.evaluate(pad(Field.zeros(problem.grid).values))
    r = point.residual()
    # still a long step after 60 halvings: every trial raises the energy
    d = -1e20 * r
    assert solver._armijo(ops, point.w, point.energy, d,
                          float(np.vdot(r, d))) == (None, 60)


class _Identity:
    def vcycle(self, v):
        return v.copy()


class _Diagonal:
    def __init__(self, diag):
        self.diag = diag

    def apply(self, v):
        return self.diag * v


def test_pcg_stops_where_the_operator_has_no_curvature():
    r = pad(np.ones((1, 5, 1)))
    d, k = solver._pcg(_Diagonal(-r), _Identity(), r, 0.1)
    # the preconditioned steepest-descent direction, no CG step taken
    assert k == 0 and np.array_equal(d, -r)


def test_pcg_stops_at_its_iteration_cap():
    diag = pad(np.geomspace(1.0, 1e8, 1000).reshape(1, 1000, 1))
    r = pad(np.ones((1, 1000, 1)))
    d, k = solver._pcg(_Diagonal(diag), _Identity(), r, 1e-30)
    assert k == solver._MAX_KRYLOV
    # a capped solve is still a descent direction of the quadratic model
    assert float(np.vdot(r, d)) < 0.0
    assert 0.5 * float(np.vdot(d, diag * d)) + float(np.vdot(r, d)) < 0.0


def test_continuation_error_annotated_with_delta():
    problem = denoise_problem(seed=3)
    cfg = SolverConfig(mu=1.5, max_iters=2, residual_tol=1e-14)
    with pytest.raises(SolverError, match=r"delta=0\.1:"):
        continuation_solve(problem, cfg)


def count_evaluations(monkeypatch, counts, plain):
    """Count in ``counts`` the kernels ``solver`` assembles and their
    evaluations: those without a delta term when ``plain``, else those
    with one."""
    real_assemble = solver.assemble_ops

    def counting_assemble(problem, reg):
        ops = real_assemble(problem, reg)
        if (reg is None) == plain:
            counts["assemble"] += 1
            evaluate = ops.evaluate

            def counted_evaluate(w):
                counts["evaluate"] += 1
                return evaluate(w)

            ops.evaluate = counted_evaluate
        return ops

    monkeypatch.setattr(solver, "assemble_ops", counting_assemble)


def test_newton_step_counts(monkeypatch):
    """The accepted trial's state feeds the residual and the Hessian:
    energy evaluations = 1 + iters + backtracks, Hessian builds = iters."""
    counts = {"assemble": 0, "evaluate": 0, "hessian": 0}
    real_hessian = energy.StencilPoint.hessian

    def counted_hessian(point, theta=0.0):
        counts["hessian"] += 1
        return real_hessian(point, theta)

    count_evaluations(monkeypatch, counts, plain=False)
    monkeypatch.setattr(energy.StencilPoint, "hessian", counted_hessian)
    problem = denoise_problem(n=12)
    reg = RegularizationState(0.01, 1.5, "fidelity")
    init = Field(problem.grid, assemble_ops(problem, reg).default_init())
    _, stats = minimize_fixed_delta(problem, reg, init,
                                    SolverConfig(residual_tol=1e-10))
    assert stats.converged and stats.iters >= 3 and stats.backtracks >= 1
    assert counts["evaluate"] == 1 + stats.iters + stats.backtracks
    assert counts["hessian"] == stats.iters
    assert stats.krylov_iters >= stats.iters


def test_ladder_evaluates_the_plain_energy_once_per_rung(monkeypatch):
    """A 4-rung ladder assembles the kernels without the delta term once,
    and one evaluation per rung gives both its plain energy and its total
    variation."""
    counts = {"assemble": 0, "evaluate": 0}
    count_evaluations(monkeypatch, counts, plain=True)
    problem = denoise_problem(n=12)
    trace = continuation_solve(problem, SolverConfig(mu=1.5))
    assert len(trace.records) == 4
    assert counts == {"assemble": 1, "evaluate": 4}
    ops = assemble_ops(problem, None)
    for rec in trace.records:
        assert rec.plain_energy == ops.energy(rec.u.values)


def test_minimality_audit_evaluates_its_centre_once(monkeypatch):
    """One evaluation at u gives the audit's reference energy and its
    residual direction; each trial costs one more."""
    problem = denoise_problem(seed=19)
    reg = RegularizationState(0.1, 1.5, "fidelity")
    u, _ = minimize_fixed_delta(problem, reg, Field.zeros(problem.grid))
    counts = {"assemble": 0, "evaluate": 0}
    count_evaluations(monkeypatch, counts, plain=False)
    report = verify_minimality(problem, reg, u, trials=10)
    assert report.trials == 11
    assert counts == {"assemble": 1, "evaluate": 12}


def test_an_overflowing_trial_is_a_rejected_trial():
    """A trial step whose energy overflows is rejected like one that does
    not decrease, with no warning: the line search backtracks instead of
    raising."""
    problem = denoise_problem()
    reg = RegularizationState(0.1, 1.5, "fidelity")
    ops = solver.assemble_ops(problem, reg)
    point = ops.evaluate(pad(ops.default_init()))
    r = point.residual()
    d = -1e300 * r / np.max(np.abs(r))
    accepted, backtracks = solver._armijo(ops, point.w, point.energy, d,
                                          float(np.vdot(r, d)))
    assert accepted is None
    assert backtracks == solver._MAX_BACKTRACKS


def test_the_newton_budget_defaults_to_200_steps():
    """Every rung the tests converge takes at most 16 Newton steps; an
    unreachable tolerance ends the rung after the default budget."""
    assert SolverConfig().max_iters == 200
    with pytest.raises(SolverError, match="iteration budget") as info:
        continuation_solve(dirichlet_boundary_spike(16, 16),
                           SolverConfig(residual_tol=1e-300))
    assert info.value.stats.iters == 200


def test_a_ladder_at_mu_next_to_one_converges():
    """At mu - 1 = 1e-10 the regularizer keeps its accuracy, so every rung
    reaches its tolerance."""
    trace = continuation_solve(fidelity_inverse_sqrt(16, 16),
                               SolverConfig(mu=1.0 + 1e-10, max_iters=30))
    assert all(rec.stats.iters <= 16 for rec in trace.records)


def test_init_mismatch_rejected():
    problem = denoise_problem()
    reg = RegularizationState(0.1, 1.5, "fidelity")
    bad = Field.zeros(Grid2(4, 4, 0.25))
    with pytest.raises(ValueError):
        minimize_fixed_delta(problem, reg, bad)


# ---------------------------------------------------------------------------
# minimality audit


def test_minimality_of_solved_instance():
    problem = denoise_problem(seed=19)
    reg = RegularizationState(0.1, 1.5, "fidelity")
    u, _ = minimize_fixed_delta(problem, reg, Field.zeros(problem.grid))
    report = verify_minimality(problem, reg, u, trials=100)
    assert report.passed
    assert report.trials == 101
    assert report.worst_margin >= -report.threshold
    assert report.to_dict()["passed"] is True


def test_minimality_margin_exactly_zero_at_constant_datum():
    g = Grid2(8, 8, 1.0 / 8)
    problem = DirichletProblem.from_function(g, lambda x, y: 4.0, phi_mu(2.0))
    u = problem.u0_interior()
    reg = RegularizationState(0.1, 1.5, "dirichlet")
    report = verify_minimality(problem, reg, u, trials=10)
    # the residual vanishes identically, so the residual-direction trial is
    # the zero perturbation and its margin is exactly 0
    assert report.margins[-1] == 0.0
    assert report.passed


def test_minimality_catches_perturbed_solution():
    problem = denoise_problem(seed=19)
    reg = RegularizationState(0.1, 1.5, "fidelity")
    u, _ = minimize_fixed_delta(problem, reg, Field.zeros(problem.grid))
    vals = u.values.copy()
    vals[4, 4, 0] += 0.1
    bad = Field(problem.grid, vals)
    report = verify_minimality(problem, reg, bad, trials=20)
    assert not report.passed
    assert report.margins[-1] < 0.0  # energy decreases along -residual


@pytest.mark.parametrize("make", [dirichlet_boundary_spike,
                                  fidelity_inverse_sqrt])
def test_minimality_reports_the_residual_trial_apart(make):
    """At a converged solution the worst margin is the random trials', the
    residual trial's is reported on its own, and the pass rule reads both.
    The residual there is round-off, so its trial's margin moves when the
    solution moves by one ulp; the random trials' worst does not."""
    problem = make(32, 32)
    final = continuation_solve(
        problem, SolverConfig(delta_schedule=(0.1, 0.01))).final
    reg = RegularizationState(final.delta, 1.5, problem.kind)
    report = verify_minimality(problem, reg, final.u, trials=100)
    assert report.residual_margin == report.margins[-1]
    assert report.worst_margin == np.min(report.margins[:-1])
    assert report.passed == (np.min(report.margins) >= -report.threshold)
    assert report.to_dict()["residual_margin"] == report.residual_margin
    vals = final.u.values.copy()
    vals.reshape(-1)[::10] = np.nextafter(vals.reshape(-1)[::10], np.inf)
    moved = verify_minimality(problem, reg, Field(problem.grid, vals),
                              trials=100)
    assert moved.worst_margin == pytest.approx(report.worst_margin,
                                               rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["dirichlet", "fidelity"])
def test_minimality_margins_match_the_unpadded_audit(kind):
    """The audit on padded values draws, smooths and clamps the same
    perturbations as on the cell layout: every margin is bit for bit the
    same, at two seeds."""
    if kind == "dirichlet":
        problem = dirichlet_boundary_spike(12, 10)
        rng = np.random.default_rng(2)
        u = Field(problem.grid, problem.u0_interior().values
                  + 0.01 * rng.normal(size=(12, 10, 1)))
    else:
        problem = denoise_problem(n=11, seed=19, mask=None)
        u, _ = minimize_fixed_delta(problem,
                                    RegularizationState(0.1, 1.5, kind),
                                    Field.zeros(problem.grid))
    reg = RegularizationState(0.1, 1.5, kind)
    for seed in (0, 3):
        report = verify_minimality(problem, reg, u, trials=9, seed=seed)
        ref = minimality_margins_unpadded(problem, reg, u, 9, seed)
        assert report.margins.tobytes() == ref.tobytes()


def test_minimality_validation():
    problem = denoise_problem()
    u = Field.zeros(problem.grid)
    with pytest.raises(ValueError):
        verify_minimality(problem, None, u, trials=0)


def test_minimality_dirichlet_ring_is_untouched():
    g = Grid2(8, 8, 1.0 / 8)
    problem = DirichletProblem.from_function(
        g, lambda x, y: x + y, minimal_surface())
    u = problem.u0_interior()
    reg = RegularizationState(0.1, 1.5, "dirichlet")
    report = verify_minimality(problem, reg, u, trials=30, seed=4)
    assert report.passed
