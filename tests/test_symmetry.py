"""The square's symmetries as an exact oracle: a transformed datum solves to
the transformed solution, rung by rung, with no reference solution.

Transposition (x <-> y, the mask transposed with the datum) maps each
difference cell's lower-left triangle to itself, so the whole ladder
commutes with it up to the order of its sums: the solutions agree to
round-off, ``1e-13 * (1 + max |u|)``, far below the solve's tolerance.
Negating a Dirichlet datum and swapping the channels of a two-channel one
change no sum's order, so those ladders agree bit for bit.  Adding a
constant to a Dirichlet datum leaves every difference as it was, up to the
rounding of the shifted values, so the solutions shift by the constant to
round-off and every Newton and CG count stays.  The Moser report reads
only the magnitude of the solution and the distances to the ball's
centre, so on a ball centred on the diagonal the report of the transposed
solution is the original's to round-off.  A slip of an index or an
orientation in the stencils, the masks, the ring or the multigrid
transfers breaks a symmetry at the solve's tolerance or above.

The half turn is not a symmetry of the stencil, which pairs the x and y
differences of each square's lower-left triangle and so maps them to
upper-right ones: its deviation is the discretization's, and is pinned as
an upper bound.
"""

import dataclasses
import functools

import numpy as np
import pytest

from lingrow.energy import DirichletProblem
from lingrow.grids import Field, Mask
from lingrow.instances import dirichlet_boundary_spike, fidelity_inverse_sqrt
from lingrow.moser import BallFamily, moser_report
from lingrow.solver import SolverConfig, continuation_solve

CFG = SolverConfig(mu=1.5)


def ladder(problem):
    """Each rung's solution of the default ladder."""
    return [rec.u.values for rec in continuation_solve(problem, CFG)]


@functools.cache
def posed(kind, channels, n):
    """The n^2 edge spike or masked inverse-sqrt datum, beside x - y as a
    second channel when ``channels`` is 2, and its ladder."""
    if kind == "spike" and channels == 1:
        problem, records = spike_records(n)
        return problem, [rec.u.values for rec in records]
    problem = (dirichlet_boundary_spike if kind == "spike"
               else fidelity_inverse_sqrt)(n, n)
    if channels == 2:
        g = problem.grid
        if kind == "spike":
            X, Y = np.meshgrid(g.xs_ext(), g.ys_ext(), indexing="ij")
            pair = np.concatenate((problem.u0_ext, (X - Y)[:, :, None]), 2)
            problem = dataclasses.replace(problem, u0_ext=pair)
        else:
            X, Y = g.centers()
            pair = np.concatenate((problem.f.values, (X - Y)[:, :, None]), 2)
            problem = dataclasses.replace(problem, f=Field(g, pair))
    return problem, ladder(problem)


def transposed(problem):
    """The problem with x and y swapped on its square grid."""
    if isinstance(problem, DirichletProblem):
        return dataclasses.replace(
            problem, u0_ext=problem.u0_ext.transpose(1, 0, 2).copy())
    g = problem.grid
    return dataclasses.replace(
        problem, f=Field(g, problem.f.values.transpose(1, 0, 2).copy()),
        mask=Mask(g, problem.mask.member.T.copy()))


@pytest.mark.parametrize("kind,channels,n", [
    ("spike", 1, 64), ("spike", 2, 32),
    ("fidelity", 1, 64), ("fidelity", 2, 32)])
def test_transposed_datum_solves_to_the_transposed_solution(kind, channels,
                                                            n):
    problem, us = posed(kind, channels, n)
    if kind == "fidelity":
        member = problem.mask.member
        assert member.any() and not np.array_equal(member, member.T)
    vs = ladder(transposed(problem))
    assert len(vs) == len(us) == len(CFG.delta_schedule)
    for u, v in zip(us, vs):
        tol = 1e-13 * (1.0 + float(np.max(np.abs(u))))
        assert np.max(np.abs(v - u.transpose(1, 0, 2))) <= tol


def test_negated_dirichlet_datum_solves_to_the_negated_solution():
    """Bit for bit on the 16^2 spike."""
    problem, us = posed("spike", 1, 16)
    vs = ladder(dataclasses.replace(problem, u0_ext=-problem.u0_ext))
    for u, v in zip(us, vs):
        assert np.array_equal(v, -u)


def test_swapped_channels_of_a_dirichlet_datum_swap_the_solution():
    """Bit for bit on the 32^2 spike beside x - y."""
    problem, us = posed("spike", 2, 32)
    vs = ladder(dataclasses.replace(
        problem, u0_ext=problem.u0_ext[:, :, ::-1].copy()))
    for u, v in zip(us, vs):
        assert np.array_equal(v, u[:, :, ::-1])


def counts(records):
    """The Newton, CG and backtrack counts of each run of a ladder: every
    rung's, and rung 0's nested-start copies'."""
    runs = [rec.stats for rec in records]
    runs += [stats for _, stats in records[0].coarse]
    return [(s.iters, s.krylov_iters, s.backtracks) for s in runs]


@functools.cache
def spike_records(n):
    problem = dirichlet_boundary_spike(n, n)
    return problem, continuation_solve(problem, CFG)


@pytest.mark.parametrize("c", [1.0, 1000.0, -3.25])
def test_a_constant_added_to_a_dirichlet_datum_shifts_the_solution(c):
    """On the 32^2 spike, whose rung 0 starts from a 16^2 copy."""
    problem, recs = spike_records(32)
    assert recs[0].coarse
    shifted = continuation_solve(
        dataclasses.replace(problem, u0_ext=problem.u0_ext + c), CFG)
    assert counts(shifted) == counts(recs)
    for rec, sh in zip(recs, shifted):
        u = rec.u.values
        tol = 1e-13 * (1.0 + float(np.max(np.abs(u))))
        assert np.max(np.abs(sh.u.values - c - u)) <= tol


def test_the_moser_report_of_a_transposed_solution_on_a_diagonal_ball():
    """Each rung of the 32^2 spike, on the ball at (0.5, 0.5) of r0 0.3
    and four levels: the transposed solution's report is the original's."""
    _, recs = spike_records(32)
    bf = BallFamily((0.5, 0.5), 0.3, j_max=4)

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return bool(np.all(np.abs(a - b) <= 1e-13 * (1.0 + np.abs(a))))

    for rec in recs:
        u = rec.u
        a = moser_report(u, bf)
        b = moser_report(Field(u.grid, u.values.transpose(1, 0, 2).copy()),
                         bf)
        assert b.sup_bound.observed == a.sup_bound.observed
        assert close(a.masses, b.masses)
        assert close(a.recursion.c, b.recursion.c)
        assert close(a.recursion.c_max, b.recursion.c_max)
        assert close(a.sup_bound.predicted, b.sup_bound.predicted)
        assert len(a.caccioppoli) == len(b.caccioppoli) == 3
        for x, y in zip(a.caccioppoli, b.caccioppoli):
            assert close(x.c_levels, y.c_levels)
            assert close(x.variation, y.variation)
        assert a.passed == b.passed


# sup of the half-turned ladder's deviation from the half-turned solution,
# per rung of the default ladder, by problem kind and side
HALF_TURN_PINS = {
    ("spike", 16): (1.803, 1.482, 1.445, 1.441),
    ("spike", 32): (3.218, 1.737, 1.558, 1.539),
    ("fidelity", 16): (3.553e-4, 1.395e-1, 1.373e-1, 1.371e-1),
    ("fidelity", 32): (1.631e-4, 2.135e-2, 2.337e-2, 2.359e-2)}


def half_turned(problem):
    """The problem turned by pi about the square's centre."""
    if isinstance(problem, DirichletProblem):
        return dataclasses.replace(
            problem, u0_ext=problem.u0_ext[::-1, ::-1].copy())
    g = problem.grid
    return dataclasses.replace(
        problem, f=Field(g, problem.f.values[::-1, ::-1].copy()),
        mask=Mask(g, problem.mask.member[::-1, ::-1].copy()))


@pytest.mark.parametrize("kind,n", sorted(HALF_TURN_PINS))
def test_the_half_turn_deviation_stays_within_its_pins(kind, n):
    """Each rung's deviation stays within 2% above its pin."""
    problem, us = posed(kind, 1, n)
    vs = ladder(half_turned(problem))
    devs = [float(np.max(np.abs(v - u[::-1, ::-1]))) for u, v in zip(us, vs)]
    pins = HALF_TURN_PINS[kind, n]
    assert len(devs) == len(pins)
    assert all(d <= 1.02 * p for d, p in zip(devs, pins)), devs
