"""Galerkin aggregation multigrid: coarse operators, V-cycle, singular case."""

import numpy as np
import pytest

from lingrow.energy import (DirichletProblem, FidelityProblem,
                            RegularizationState, assemble_ops)
from lingrow.grids import DirichletGhost, Field, Grid2, Mask
from lingrow.multigrid import Level, Multigrid, prolong, restrict
from lingrow.profiles import minimal_surface, phi_mu
from lingrow.solver import _pcg


def hessian_on_9x13(kind, channels=1):
    """The exact Hessian at a random state on an odd, non-square grid."""
    rng = np.random.default_rng(17 + channels)
    g = Grid2(9, 13, 1.0 / 13)
    if kind == "dirichlet":
        problem = DirichletProblem(
            g, DirichletGhost(rng.normal(size=(11, 15, channels))),
            phi_mu(2.0))
    else:
        problem = FidelityProblem(
            g, Field(g, rng.normal(size=(9, 13, 1))),
            Mask.from_rect(g, 0.2, 0.3, 0.5, 0.7), 0.7, minimal_surface())
    ops = assemble_ops(problem, RegularizationState(0.05, 1.5, kind))
    w = rng.normal(size=(9, 13, channels))
    return ops.evaluate(w).hessian()


CASES = [("dirichlet", 1), ("dirichlet", 2), ("fidelity", 1)]


@pytest.mark.parametrize("kind,channels", CASES)
def test_fine_level_is_the_channelwise_hessian(kind, channels):
    """The cell tensors give the channel-wise product, which is H for one
    channel; for several it drops the coupling but keeps H's diagonal."""
    hess = hessian_on_9x13(kind, channels)
    fine = Level(*hess.cell_tensors())
    rng = np.random.default_rng(3)
    v = rng.normal(size=(9, 13, channels))
    if channels == 1:
        assert np.allclose(fine.apply(v), hess.apply(v), rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(hess.apply(v))))
    for c in range(channels):
        e = np.zeros((9, 13, channels))
        e[4, 6, c] = 1.0
        hv = hess.apply(e)
        assert hv[4, 6, c] == pytest.approx(1.0 / fine.inv_diag[4, 6, c],
                                            rel=1e-12)
        only = np.zeros_like(v)
        only[:, :, c] = v[:, :, c]
        assert np.allclose(fine.apply(only)[:, :, c],
                           hess.apply(only)[:, :, c], rtol=1e-12, atol=1e-10)
    assert np.allclose(fine.apply(v), hess.apply_channelwise(v), rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(fine.apply(v))))


@pytest.mark.parametrize("kind,channels", CASES)
def test_coarse_levels_are_galerkin_products(kind, channels):
    """Every coarse operator equals P^T A P of the level above it."""
    hess = hessian_on_9x13(kind, channels)
    mg = Multigrid(hess.cell_tensors(), hess.apply_channelwise)
    shapes = [lev.shape for lev in mg.levels]
    assert shapes == [(9, 13), (5, 7), (3, 4), (2, 2), (1, 1)]
    rng = np.random.default_rng(5)
    for fine, coarse in zip(mg.levels, mg.levels[1:]):
        v = rng.normal(size=coarse.shape + (channels,))
        pv = prolong(v, np.zeros(fine.shape + (channels,)))
        galerkin = restrict(fine.apply(pv))
        assert np.allclose(coarse.apply(v), galerkin, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(galerkin)))


def test_restrict_is_the_transpose_of_prolong():
    rng = np.random.default_rng(6)
    fine = rng.normal(size=(9, 13, 2))
    coarse = rng.normal(size=(5, 7, 2))
    pc = prolong(coarse, np.zeros((9, 13, 2)))
    assert float(np.sum(fine * pc)) == pytest.approx(
        float(np.sum(restrict(fine) * coarse)), rel=1e-13)


@pytest.mark.parametrize("kind,channels", CASES)
def test_vcycle_is_symmetric_positive_definite(kind, channels):
    hess = hessian_on_9x13(kind, channels)
    mg = Multigrid(hess.cell_tensors(), hess.apply_channelwise)
    rng = np.random.default_rng(8)
    for _ in range(3):
        u = rng.normal(size=(9, 13, channels))
        v = rng.normal(size=(9, 13, channels))
        assert float(np.sum(u * mg.vcycle(v))) == pytest.approx(
            float(np.sum(v * mg.vcycle(u))), rel=1e-11)
        assert float(np.sum(u * mg.vcycle(u))) > 0.0


def test_singular_neumann_system_is_solved():
    """Without the data mass the operator is singular on constants and the
    1x1 level is 0; PCG still solves a consistent (zero-mean) system."""
    txx, txy, tyy, _ = hessian_on_9x13("fidelity").cell_tensors()
    neumann = Level(txx, txy, tyy, None)
    mg = Multigrid((txx, txy, tyy, None), neumann.apply)
    assert np.all(mg.levels[-1].inv_diag == 0.0)
    rng = np.random.default_rng(9)
    r = rng.normal(size=(9, 13, 1))
    r -= r.mean()
    d, iters = _pcg(neumann, mg, r, 1e-10)
    assert iters < 100
    assert np.max(np.abs(neumann.apply(d) + r)) <= 1e-8 * np.max(np.abs(r))
