"""The square's symmetries as an exact oracle: a transformed datum solves to
the transformed solution, rung by rung, with no reference solution.

Transposition (x <-> y, the mask transposed with the datum) maps each
difference cell's lower-left triangle to itself, so the whole ladder
commutes with it up to the order of its sums: the solutions agree to
round-off, ``1e-13 * (1 + max |u|)``, far below the solve's tolerance.
Negating a Dirichlet datum and swapping the channels of a two-channel one
change no sum's order, so those ladders agree bit for bit.  A slip of an
index or an orientation in the stencils, the masks, the ring or the
multigrid transfers breaks a symmetry at the solve's tolerance or above.
"""

import dataclasses
import functools

import numpy as np
import pytest

from lingrow.energy import DirichletProblem
from lingrow.grids import Field, Mask
from lingrow.instances import dirichlet_boundary_spike, fidelity_inverse_sqrt
from lingrow.solver import SolverConfig, continuation_solve

CFG = SolverConfig(mu=1.5)


def ladder(problem):
    """Each rung's solution of the default ladder."""
    return [rec.u.values for rec in continuation_solve(problem, CFG)]


@functools.cache
def posed(kind, channels, n):
    """The n^2 edge spike or masked inverse-sqrt datum, beside x - y as a
    second channel when ``channels`` is 2, and its ladder."""
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
