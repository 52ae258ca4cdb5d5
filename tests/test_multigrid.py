"""Galerkin aggregation multigrid: coarse operators, V-cycle, dense coarse
level, singular case."""

import numpy as np
import pytest

from lingrow.energy import (DirichletProblem, FidelityProblem,
                            RegularizationState, assemble_ops)
from lingrow.grids import Field, Grid2, Mask, pad
from lingrow.multigrid import _OMEGA, Level, Multigrid, prolong, restrict
from lingrow.profiles import minimal_surface, phi_mu
from lingrow.solver import _pcg

from .oracles import (coarse_tensors_by_reshape, hessian_apply_coupled,
                      prolong_staged, restrict_then_pad)


def point_on(kind, channels=1, shape=(9, 13)):
    """The stencil point at a random state; the default grid is odd and
    non-square."""
    rng = np.random.default_rng(17 + channels)
    nx, ny = shape
    g = Grid2(nx, ny, 1.0 / ny)
    if kind == "dirichlet":
        problem = DirichletProblem(
            g, rng.normal(size=(nx + 2, ny + 2, channels)), phi_mu(2.0))
    else:
        problem = FidelityProblem(
            g, Field(g, rng.normal(size=(nx, ny, 1))),
            Mask.from_rect(g, 0.2, 0.3, 0.5, 0.7), 0.7, minimal_surface())
    ops = assemble_ops(problem, RegularizationState(0.05, 1.5, kind))
    w = rng.normal(size=(nx, ny, channels))
    return ops.evaluate(pad(w))


def hessian_on(kind, channels=1, shape=(9, 13)):
    """The exact Hessian at ``point_on``'s state."""
    return point_on(kind, channels, shape).hessian()


def multigrid_of(hess):
    return Multigrid(hess.level)


def on_cells(apply):
    """A map on padded arrays as a map on (mx, my, N) cell values."""
    return lambda v: apply(pad(v))[1:-1, 1:-1]


def dense_matrix(apply, shape):
    """The matrix of a linear map on one-channel padded fields, cells in C
    order."""
    m = shape[0] * shape[1]
    cols = [on_cells(apply)(e.reshape(shape + (1,))).ravel()
            for e in np.eye(m)]
    return np.array(cols).T


CASES = [("dirichlet", 1), ("dirichlet", 2), ("fidelity", 1)]


@pytest.mark.parametrize("kind,channels", CASES)
def test_fine_level_is_the_channelwise_hessian(kind, channels):
    """The fine level gives H for one channel; for several it gives each
    channel's own block of H, dropping only the coupling between them."""
    point = point_on(kind, channels)
    level = point.hessian().level
    for t in (level.txx, level.txy, level.tyy):
        assert t.shape == (10, 15, channels) and not t[:, -1].any()
    fine = on_cells(level.apply)
    h_apply = on_cells(lambda v: hessian_apply_coupled(point, 0.0, v))
    rng = np.random.default_rng(3)
    v = rng.normal(size=(9, 13, channels))
    if channels == 1:
        assert np.allclose(fine(v), h_apply(v), rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(h_apply(v))))
    # the Jacobi smoother's diagonal, through its damped factor, is H's
    # own, on every cell and channel, and 0 on the ring
    diag = np.empty(v.shape)
    for idx in np.ndindex(*v.shape):
        e = np.zeros(v.shape)
        e[idx] = 1.0
        diag[idx] = h_apply(e)[idx]
    jacobi = level.jacobi
    assert not (jacobi[0].any() or jacobi[-1].any()
                or jacobi[:, 0].any() or jacobi[:, -1].any())
    assert np.allclose(_OMEGA / jacobi[1:-1, 1:-1], diag, rtol=1e-12, atol=0.0)
    for c in range(channels):
        only = np.zeros_like(v)
        only[:, :, c] = v[:, :, c]
        assert np.allclose(fine(only)[:, :, c],
                           h_apply(only)[:, :, c], rtol=1e-12, atol=1e-10)
        assert np.allclose(fine(v)[:, :, c], fine(only)[:, :, c],
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["dirichlet", "fidelity"])
def test_scalar_cg_operator_is_the_hessian(kind):
    """For one channel the solver's CG product is the stored fine level;
    it equals the Hessian's stencil pass to round-off on a multi-level
    grid."""
    point = point_on(kind, 1, shape=(40, 33))
    mg = multigrid_of(point.hessian())
    assert len(mg.levels) > 2
    rng = np.random.default_rng(4)
    for _ in range(3):
        v = pad(rng.normal(size=(40, 33, 1)))
        hv = hessian_apply_coupled(point, 0.0, v)
        diff = np.linalg.norm(mg.levels[0].apply(v) - hv)
        assert diff <= 1e-12 * np.linalg.norm(hv)


@pytest.mark.parametrize("kind,channels", CASES)
def test_coarse_levels_are_galerkin_products(kind, channels):
    """Coarsening stops at the first level with at most 8 cells per axis,
    and every coarse operator equals P^T A P of the level above it."""
    rng = np.random.default_rng(5)
    for shape, pin in (((9, 13), [(9, 13), (5, 7)]),
                       ((19, 27), [(19, 27), (10, 14), (5, 7)])):
        mg = multigrid_of(hessian_on(kind, channels, shape))
        assert [lev.shape for lev in mg.levels] == pin
        assert all(t.flags.c_contiguous for lev in mg.levels
                   for t in (lev.txx, lev.txy, lev.tyy))
        for fine, coarse in zip(mg.levels, mg.levels[1:]):
            v = pad(rng.normal(size=coarse.shape + (channels,)))
            pv = prolong(v, pad(np.zeros(fine.shape + (channels,))))
            galerkin = restrict(fine.apply(pv))
            assert np.allclose(coarse.apply(v), galerkin, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(galerkin)))


def assert_coarse_matches_the_reshape_pooling(fine):
    coarse = fine.coarsen()
    for got, ref in zip((coarse.txx, coarse.txy, coarse.tyy),
                        coarse_tensors_by_reshape(fine)):
        assert got.flags.c_contiguous
        assert got[:, :-1].shape == ref.shape
        assert np.max(np.abs(got[:, :-1] - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.all(got[:, -1] == 0.0)


@pytest.mark.parametrize("kind,channels", CASES)
@pytest.mark.parametrize("shape", [(9, 13), (16, 16), (19, 27), (40, 33),
                                   (2, 3)])
def test_coarse_tensors_match_the_reshape_pooling(kind, channels, shape):
    """The selected and pair-summed differences give the zero-padded
    reshape-sum's coarse tensors on odd and even shapes, to round-off in
    the order of the four terms, and a zero slot ``J = my+1``."""
    assert_coarse_matches_the_reshape_pooling(
        hessian_on(kind, channels, shape).level)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_coarse_tensors_of_random_levels_match_the_reshape_pooling(channels):
    """The same on levels built from random tensors, with 1 to 13 cells
    per axis: sides of 1, both parities and every pairing of the two."""
    rng = np.random.default_rng(12 + channels)
    for mx in range(1, 14):
        for my in range(1, 14):
            txx, txy, tyy = (rng.normal(size=(mx + 1, my + 2, channels))
                             for _ in range(3))
            for t in (txx, txy, tyy):
                t[:, -1] = 0.0
            mass = pad(rng.uniform(size=(mx, my, channels)))
            assert_coarse_matches_the_reshape_pooling(
                Level(txx, txy, tyy, mass))


@pytest.mark.parametrize("kind,channels", CASES)
@pytest.mark.parametrize("shape", [(8, 8), (3, 7), (19, 27)])
def test_coarsest_inverse_is_symmetric(kind, channels, shape):
    inv = multigrid_of(hessian_on(kind, channels, shape)).coarse_inv[0]
    for block in inv:
        assert np.max(np.abs(block - block.T)) <= 1e-14 * np.max(np.abs(block))


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (8, 8), (9, 13), (16, 9)])
def test_transfers_match_the_staged_references_bit_for_bit(shape, channels):
    """``restrict`` and ``prolong`` give the staged references' bits on
    both parities of each axis, and ``prolong`` leaves the ring of its
    ``out`` as given."""
    rng = np.random.default_rng(sum(shape) * channels)
    fine = pad(rng.normal(size=shape + (channels,)))
    got = restrict(fine)
    assert got.flags.c_contiguous
    assert np.array_equal(got, restrict_then_pad(fine))
    cx, cy = got.shape[0] - 2, got.shape[1] - 2
    coarse = pad(rng.normal(size=(cx, cy, channels)))
    base = rng.normal(size=fine.shape)
    out = prolong(coarse, base.copy())
    assert np.array_equal(out, prolong_staged(coarse, base.copy()))
    ring = np.ones(fine.shape[:2], dtype=bool)
    ring[1:-1, 1:-1] = False
    assert np.array_equal(out[ring], base[ring])


def test_restrict_is_the_transpose_of_prolong():
    rng = np.random.default_rng(6)
    fine = pad(rng.normal(size=(9, 13, 2)))
    coarse = pad(rng.normal(size=(5, 7, 2)))
    pc = prolong(coarse, pad(np.zeros((9, 13, 2))))
    assert float(np.sum(fine * pc)) == pytest.approx(
        float(np.sum(restrict(fine) * coarse)), rel=1e-13)


@pytest.mark.parametrize("kind,channels", CASES)
def test_vcycle_is_symmetric_positive_definite(kind, channels):
    for shape in ((9, 13), (19, 27)):
        mg = multigrid_of(hessian_on(kind, channels, shape))
        rng = np.random.default_rng(8)
        for _ in range(3):
            u = pad(rng.normal(size=shape + (channels,)))
            v = pad(rng.normal(size=shape + (channels,)))
            assert float(np.sum(u * mg.vcycle(v))) == pytest.approx(
                float(np.sum(v * mg.vcycle(u))), rel=1e-11)
            assert float(np.sum(u * mg.vcycle(u))) > 0.0


@pytest.mark.parametrize("kind,channels", CASES)
@pytest.mark.parametrize("shape", [(8, 8), (3, 7)])
def test_small_grid_vcycle_is_the_exact_inverse(kind, channels, shape):
    """A grid with at most 8 cells per axis is one dense level: the V-cycle
    returns ``A^-1 r`` per channel, and PCG on one channel converges in
    one iteration."""
    hess = hessian_on(kind, channels, shape)
    fine = hess.level
    mg = Multigrid(fine)
    assert len(mg.levels) == 1
    rng = np.random.default_rng(10)
    r = pad(rng.normal(size=shape + (channels,)))
    x = mg.vcycle(r)[1:-1, 1:-1]
    for c in range(channels):
        one = slice(c, c + 1)
        block = Level(fine.txx[..., one], fine.txy[..., one],
                      fine.tyy[..., one],
                      None if fine.mass is None else fine.mass[..., one])
        a = dense_matrix(block.apply, shape)
        ref = np.linalg.solve(a, r[1:-1, 1:-1, c].ravel())
        assert np.allclose(x[:, :, c].ravel(), ref, rtol=1e-10,
                           atol=1e-10 * np.max(np.abs(ref)))
    if channels == 1:
        d, iters = _pcg(hess, mg, r, 1e-10)
        assert iters == 1
        assert np.linalg.norm(hess.apply(d) + r) <= 1e-10 * np.linalg.norm(r)


def test_singular_neumann_system_is_solved():
    """Without the data mass the operator is singular on constants: the
    dense coarsest level stores its pseudo-inverse, and PCG still solves a
    consistent (zero-mean) system."""
    fine = hessian_on("fidelity").level
    neumann = Level(fine.txx, fine.txy, fine.tyy, None)
    mg = Multigrid(neumann)
    coarse = mg.levels[-1]
    assert coarse.shape == (5, 7)
    assert not np.any(coarse.apply(pad(np.ones((5, 7, 1)))))
    a = dense_matrix(coarse.apply, coarse.shape)
    pinv = dense_matrix(Multigrid(coarse).vcycle, coarse.shape)
    assert np.allclose(pinv, np.linalg.pinv(a), rtol=1e-9,
                       atol=1e-9 * np.max(np.abs(pinv)))
    rng = np.random.default_rng(9)
    r = rng.normal(size=(9, 13, 1))
    r = pad(r - r.mean())
    d, iters = _pcg(neumann, mg, r, 1e-10)
    assert iters < 100
    assert np.max(np.abs(neumann.apply(d) + r)) <= 1e-8 * np.max(np.abs(r))


@pytest.mark.parametrize("scale", [1e-3, 1e-12, 1e-20])
def test_nearly_singular_coarse_level_is_inverted(scale):
    """A Neumann operator pinned by a tiny mass on one cell: the dense
    level solves to round-off and keeps the non-constant modes exact,
    although its inverse on constants exceeds the rest by ``1 / scale``.
    (The constant itself is determined by ``1 . r`` only up to its
    round-off over the mass.)"""
    fine = hessian_on("fidelity", shape=(7, 8)).level
    mass = np.zeros((9, 10, 1))
    mass[4, 3] = scale * float(np.max(fine.txx))
    level = Level(fine.txx, fine.txy, fine.tyy, mass)
    x = np.random.default_rng(11).normal(size=(7, 8, 1))
    x = pad(x + 2.0)
    r = level.apply(x)
    got = Multigrid(level).vcycle(r)
    res = level.apply(got) - r
    got, x = got[1:-1, 1:-1], x[1:-1, 1:-1]
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(r)
    assert np.allclose(got - got.mean(), x - x.mean(), rtol=0.0,
                       atol=1e-6 * np.max(np.abs(x)))
    if scale >= 1e-3:
        assert np.allclose(got, x, rtol=1e-8)
