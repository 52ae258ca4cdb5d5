"""Energy assembly, data clipping, and Euler residuals."""

import math

import numpy as np
import pytest

from lingrow.energy import (DirichletProblem, FidelityProblem,
                            RegularizationState, assemble_ops, clip_data)
from lingrow.grids import (Field, Grid2, Mask, neumann_live, pad,
                           ring_adjoint, ring_differences)
from lingrow.profiles import (certify_conditions, minimal_surface, phi_mu,
                              profile_eval, radial_excess)

from .oracles import (energy_grad_fd, hessian_apply_coupled,
                      naive_energy_dirichlet, naive_energy_fidelity)


def unit_grid(n):
    return Grid2(n, n, 1.0 / n)


def random_dirichlet(n=8, channels=1, seed=0, density=None):
    rng = np.random.default_rng(seed)
    g = unit_grid(n)
    u0 = Field(g, rng.normal(size=(n, n, channels)))
    problem = DirichletProblem.from_field(u0, density or phi_mu(2.0))
    w = Field(g, rng.normal(size=(n, n, channels)))
    return problem, w


def random_fidelity(n=8, channels=1, seed=0, lam=0.7, density=None,
                    with_mask=True):
    rng = np.random.default_rng(seed)
    g = unit_grid(n)
    f = Field(g, 3.0 * rng.normal(size=(n, n, channels)))
    if with_mask:
        mask = Mask.from_rect(g, 0.25, 0.25, 0.75, 0.75)
    else:
        mask = Mask.empty(g)
    problem = FidelityProblem(g, f, mask, lam, density or minimal_surface())
    w = Field(g, rng.normal(size=(n, n, channels)))
    return problem, w


# ---------------------------------------------------------------------------
# regularization state


def test_regularization_state_ranges():
    RegularizationState(0.1, 1.5, "dirichlet")
    RegularizationState(0.1, 1.99, "fidelity")
    with pytest.raises(ValueError):
        RegularizationState(0.1, 1.0, "dirichlet")
    with pytest.raises(ValueError):
        RegularizationState(0.1, 2.0, "dirichlet")
    with pytest.raises(ValueError):
        RegularizationState(0.1, 2.0, "fidelity")
    with pytest.raises(ValueError):
        RegularizationState(0.0, 1.5, "dirichlet")
    with pytest.raises(ValueError):
        RegularizationState(1.0, 1.5, "fidelity")
    with pytest.raises(ValueError):
        RegularizationState(0.1, 1.5, "periodic")


def test_regularization_apply_builds_combined_profile():
    reg = RegularizationState(0.25, 1.5, "dirichlet")
    p = reg.apply(minimal_surface())
    assert p.kind == "combined" and p.delta == 0.25 and p.mu == 1.5


# ---------------------------------------------------------------------------
# data clipping


def test_clip_data_cases():
    g = unit_grid(4)
    assert np.all(clip_data(Field.full(g, 5.0), 0.1).values == 5.0)
    assert np.all(clip_data(Field.full(g, 20.0), 0.1).values == 10.0)
    assert np.all(clip_data(Field.full(g, -20.0), 0.1).values == -10.0)


def test_clip_data_identity_when_bounded():
    rng = np.random.default_rng(1)
    g = unit_grid(6)
    f = Field(g, rng.uniform(-9.0, 9.0, size=(6, 6, 1)))
    assert np.array_equal(clip_data(f, 0.1).values, f.values)


def test_clip_distance_monotone_in_delta():
    rng = np.random.default_rng(2)
    g = unit_grid(8)
    f = Field(g, 40.0 * rng.standard_cauchy(size=(8, 8, 1)))
    dists = []
    for delta in (0.5, 0.1, 0.05, 0.01, 0.001):
        fd = clip_data(f, delta)
        dists.append(float(np.linalg.norm(fd.values - f.values)))
    assert all(a >= b for a, b in zip(dists, dists[1:]))


# ---------------------------------------------------------------------------
# energies: exact cases and the naive-loop oracle


def test_zero_field_zero_energy():
    g = unit_grid(8)
    problem = DirichletProblem.from_field(Field.zeros(g), phi_mu(2.0))
    zero = Field.zeros(g).values
    assert assemble_ops(problem, None).energy(zero) == 0.0
    reg = RegularizationState(0.1, 1.5, "dirichlet")
    assert assemble_ops(problem, reg).energy(zero) == 0.0


def test_affine_dirichlet_energy_is_exact():
    g = Grid2(10, 6, 0.1)
    fn = lambda x, y: 2.0 * x - 1.0 * y + 0.3
    problem = DirichletProblem.from_function(g, fn, phi_mu(2.0))
    w = Field.from_function(g, fn)
    area = g.lx * g.ly
    t = math.hypot(2.0, -1.0)
    reg = RegularizationState(0.1, 1.5, "dirichlet")
    expected = area * profile_eval(reg.apply(problem.density), t)
    assert assemble_ops(problem, reg).energy(w.values) == pytest.approx(
        expected, rel=1e-13)
    expected_plain = area * profile_eval(problem.density, t)
    assert assemble_ops(problem, None).energy(w.values) == pytest.approx(
        expected_plain, rel=1e-13)


def test_dirichlet_energy_matches_naive_loop():
    for channels, seed in ((1, 0), (3, 1)):
        problem, w = random_dirichlet(channels=channels, seed=seed)
        reg = RegularizationState(0.1, 1.5, "dirichlet")
        for r in (None, reg):
            a = assemble_ops(problem, r).energy(w.values)
            b = naive_energy_dirichlet(problem, r, w.values)
            assert a == pytest.approx(b, rel=1e-12)


def test_fidelity_energy_matches_naive_loop():
    for channels, seed in ((1, 0), (2, 1)):
        problem, w = random_fidelity(channels=channels, seed=seed)
        reg = RegularizationState(0.1, 1.5, "fidelity")
        for r in (None, reg):
            a = assemble_ops(problem, r).energy(w.values)
            b = naive_energy_fidelity(problem, r, w.values)
            assert a == pytest.approx(b, rel=1e-12)


def test_fidelity_energy_trivial_cases():
    g = unit_grid(8)
    f = Field.full(g, 2.0)
    problem = FidelityProblem(g, f, Mask.empty(g), 0.7, minimal_surface())
    reg = RegularizationState(0.1, 1.5, "fidelity")
    assert assemble_ops(problem, reg).energy(Field.full(g, 2.0).values) == 0.0

    f1 = Field.full(g, 1.0)
    problem = FidelityProblem(g, f1, Mask.empty(g), 0.7, minimal_surface())
    e = assemble_ops(problem, reg).energy(Field.zeros(g).values)
    assert e == pytest.approx(0.7 * g.h ** 2 * g.nx * g.ny, rel=1e-13)


@pytest.mark.parametrize("channels", [1, 3])
def test_fidelity_starts_from_each_channels_mean_off_the_mask(channels):
    """The default start is the datum off the mask and, under it, the mean
    of the datum's channel off it, channel by channel (for one channel, the
    mean of the flat array of the data off the mask, bit for bit)."""
    problem, _ = random_fidelity(channels=channels, seed=4)
    assert problem.channels == channels
    start = assemble_ops(problem, None).default_init()
    f, masked = problem.f.values, problem.mask.member
    assert masked.any() and start.shape == f.shape
    assert np.array_equal(start[~masked], f[~masked])
    for c in range(channels):
        mean = float(np.mean(f[~masked, c]))
        if channels == 1:
            assert np.all(start[masked, c] == mean)
        assert start[masked, c] == pytest.approx(
            np.full(masked.sum(), mean), rel=1e-15)


def test_fidelity_data_and_mask_live_on_the_problem_grid():
    g, other = unit_grid(4), unit_grid(6)
    with pytest.raises(ValueError, match="live on the problem grid"):
        FidelityProblem(g, Field.zeros(other), Mask.empty(g), 1.0,
                        minimal_surface())
    with pytest.raises(ValueError, match="live on the problem grid"):
        FidelityProblem(g, Field.zeros(g), Mask.empty(other), 1.0,
                        minimal_surface())


def test_operators_reject_a_foreign_state_or_problem():
    g = unit_grid(4)
    problem = FidelityProblem(g, Field.zeros(g), Mask.empty(g), 1.0,
                              minimal_surface())
    with pytest.raises(ValueError, match="is for 'dirichlet' problems"):
        assemble_ops(problem, RegularizationState(0.1, 1.5, "dirichlet"))
    with pytest.raises(TypeError, match="DirichletProblem or FidelityProblem"):
        assemble_ops(problem.f, None)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
def test_clip_data_needs_delta_in_the_open_unit_interval(delta):
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        clip_data(Field.zeros(unit_grid(4)), delta)


def test_dirichlet_datum_sampled_from_a_function():
    g = Grid2(4, 5, 0.25)
    const = DirichletProblem.from_function(g, lambda x, y: 3.0, phi_mu(2.0))
    assert const.u0_ext.shape == (6, 7, 1) and np.all(const.u0_ext == 3.0)
    pair = lambda x, y: np.stack([x, y], axis=-1)
    vector = DirichletProblem.from_function(g, pair, phi_mu(2.0), channels=2)
    assert vector.channels == 2
    assert np.array_equal(vector.u0_ext[:, 0, 0], g.xs_ext())
    assert np.array_equal(vector.u0_interior().values[0, :, 1], g.ys())
    with pytest.raises(ValueError, match="2 channels, not 1"):
        DirichletProblem.from_function(g, pair, phi_mu(2.0))
    with pytest.raises(ValueError, match="finite"):
        DirichletProblem.from_function(g, lambda x, y: np.inf * x,
                                       phi_mu(2.0))
    with pytest.raises(ValueError, match="ghost ring shape"):
        DirichletProblem(g, np.zeros((6, 6, 1)), phi_mu(2.0))


# ---------------------------------------------------------------------------
# fused kernel: one forward-difference pass feeds all three quantities


def _fused_cases():
    for channels in (1, 2):
        yield random_dirichlet(n=9, channels=channels, seed=20 + channels)
    yield random_fidelity(n=9, seed=23)
    yield random_fidelity(n=9, channels=2, seed=24)


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("delta", [None, 0.05])
def test_fused_evaluation_is_bit_identical_to_the_kernels(case, delta):
    problem, w = list(_fused_cases())[case]
    values = pad(w.values)
    values[1:4, 1:4, :] = 0.0  # flat cells exercise the origin limit of d1/t
    before = values.copy()
    reg = None if delta is None else \
        RegularizationState(delta, 1.5, problem.kind)
    ops = assemble_ops(problem, reg)
    point = ops.evaluate(values)
    # Hessian first: deriving one quantity must not disturb the other
    hess = point.hessian(0.1)
    res = point.residual()
    fresh = ops.evaluate(values)
    assert point.energy == ops.energy(values[1:-1, 1:-1])
    # the energy and total-variation sums run over the slot J = ny+1 too,
    # where the slope and the density are exact zeros
    assert not (point.t[:, -1].any()
                or profile_eval(ops.profile, point.t)[:, -1].any())
    assert np.array_equal(res, fresh.residual())
    assert np.array_equal(res[1:-1, 1:-1], ops.residual(values[1:-1, 1:-1]))
    v = pad(np.random.default_rng(case).normal(size=w.values.shape))
    assert np.array_equal(hess.apply(v), fresh.hessian(0.1).apply(v))
    assert np.array_equal(values, before)  # w is not written


def test_non_finite_iterate_raises():
    problem, w = random_dirichlet()
    values = w.values.copy()
    values[2, 3, 0] = np.inf
    with pytest.raises(ValueError, match="not finite"), \
            np.errstate(invalid="ignore"):
        assemble_ops(problem, None).evaluate(pad(values))


# ---------------------------------------------------------------------------
# Hessian operator


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("delta", [None, 0.05])
def test_hessian_matches_residual_differences(case, delta):
    """apply(v) is the directional derivative of the residual, channel
    coupling and the data term included."""
    problem, w = list(_fused_cases())[case]
    reg = None if delta is None else \
        RegularizationState(delta, 1.5, problem.kind)
    ops = assemble_ops(problem, reg)
    values = w.values.copy()
    values[:2, :2, :] = 0.5  # flat cells exercise the origin limit
    hv_of = ops.evaluate(pad(values)).hessian().apply
    rng = np.random.default_rng(case)
    for _ in range(3):
        v = rng.normal(size=values.shape)
        # small, because phi_mu's Hessian has a |P| kink at the flat cells
        step = 1e-8
        fd = (ops.residual(values + step * v)
              - ops.residual(values - step * v)) / (2 * step)
        hv = hv_of(pad(v))[1:-1, 1:-1]
        assert np.max(np.abs(hv - fd)) <= 1e-6 * np.max(np.abs(hv))


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("theta", [0.0, 0.1, 1.0])
def test_hessian_is_symmetric_and_positive(case, theta):
    problem, w = list(_fused_cases())[case]
    ops = assemble_ops(problem, RegularizationState(0.05, 1.5, problem.kind))
    hess = ops.evaluate(pad(w.values)).hessian(theta)
    rng = np.random.default_rng(7 + case)
    u = pad(rng.normal(size=w.values.shape))
    v = pad(rng.normal(size=w.values.shape))
    uhv = float(np.sum(u * hess.apply(v)))
    vhu = float(np.sum(v * hess.apply(u)))
    assert uhv == pytest.approx(vhu, rel=1e-12, abs=1e-14)
    assert float(np.sum(u * hess.apply(u))) > 0.0


def _product_case(case, channels):
    """The 9^2 Dirichlet and masked-fidelity cases, and an odd 7x12
    Dirichlet grid, with flat cells at the origin limit of d1/t."""
    if case == "odd":
        rng = np.random.default_rng(30 + channels)
        g = Grid2(7, 12, 1.0 / 12)
        problem = DirichletProblem(g, rng.normal(size=(9, 14, channels)),
                                   phi_mu(2.0))
        w = Field(g, rng.normal(size=(7, 12, channels)))
    elif case == "dirichlet":
        problem, w = random_dirichlet(n=9, channels=channels, seed=25)
    else:
        problem, w = random_fidelity(n=9, channels=channels, seed=26)
    values = pad(w.values)
    values[1:4, 1:4, :] = 0.0
    return problem, values


@pytest.mark.parametrize("case", ["dirichlet", "fidelity", "odd"])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.1, 1.0])
def test_the_product_is_the_fine_level_plus_the_coupling(case, channels,
                                                         theta):
    """One product for every channel count: the fine multigrid level's,
    bit for bit for one channel, and with the cross-channel coupling the
    product of the separate stencil pass to round-off for several."""
    problem, values = _product_case(case, channels)
    ops = assemble_ops(problem, RegularizationState(0.05, 1.5, problem.kind))
    point = ops.evaluate(values)
    hess = point.hessian(theta)
    assert (hess.coupling is None) == (channels == 1)
    rng = np.random.default_rng(11 + channels)
    for _ in range(3):
        v = pad(rng.normal(size=values[1:-1, 1:-1].shape))
        got = hess.apply(v)
        if channels == 1:
            assert got.tobytes() == hess.level.apply(v).tobytes()
        ref = hessian_apply_coupled(point, theta, v)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_curvature_floor_one_is_lagged_diffusivity():
    """theta = 1 floors the radial curvature at d1/t, which for a density
    with d2 <= d1/t leaves the isotropic operator (d1/t) I per cell."""
    problem, w = random_fidelity(n=8, seed=3)
    ops = assemble_ops(problem, RegularizationState(0.1, 1.5, "fidelity"))
    point = ops.evaluate(pad(w.values))
    hess = point.hessian(1.0)
    assert np.all(radial_excess(ops.profile, point.t, point.ratio(), 1.0)
                  == 0.0)
    v = pad(np.random.default_rng(4).normal(size=w.values.shape))
    ratio = point.ratio()[:, :, None]
    vx, vy = ring_differences(v)
    live_x, live_y = neumann_live(problem.grid)
    # the cell weight h^2 cancels the 1/h of both differences
    lagged = ring_adjoint(ratio * live_x * vx, ratio * live_y * vy) \
        + ops.mass * v
    assert np.allclose(hess.apply(v), lagged, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# Euler residual = exact energy gradient


@pytest.mark.parametrize("kind", ["dirichlet", "fidelity"])
def test_residual_matches_energy_gradient(kind):
    rng = np.random.default_rng(12)
    if kind == "dirichlet":
        problem, w = random_dirichlet(seed=5)
        reg = RegularizationState(0.1, 1.5, "dirichlet")
    else:
        problem, w = random_fidelity(seed=6)
        reg = RegularizationState(0.1, 1.5, "fidelity")
    ops = assemble_ops(problem, reg)
    energy = ops.energy
    res = ops.residual(w.values)
    for _ in range(20):
        idx = (rng.integers(0, 8), rng.integers(0, 8), 0)
        fd = energy_grad_fd(energy, w.values, idx, 6e-6)
        assert abs(fd - res[idx]) <= 1e-6 * max(abs(res[idx]), 1e-9), idx


def test_residual_zero_for_constant_dirichlet():
    g = unit_grid(8)
    problem = DirichletProblem.from_function(g, lambda x, y: 3.0, phi_mu(2.0))
    w = Field.full(g, 3.0)
    reg = RegularizationState(0.1, 1.5, "dirichlet")
    assert np.all(assemble_ops(problem, reg).residual(w.values) == 0.0)


# ---------------------------------------------------------------------------
# structural properties


@pytest.mark.parametrize("kind", ["dirichlet", "fidelity"])
def test_energy_convex_along_segments(kind):
    rng = np.random.default_rng(21)
    if kind == "dirichlet":
        problem, w1 = random_dirichlet(seed=7)
        reg = RegularizationState(0.1, 1.5, "dirichlet")
    else:
        problem, w1 = random_fidelity(seed=8)
        reg = RegularizationState(0.1, 1.5, "fidelity")
    ops = assemble_ops(problem, reg)
    energy = lambda w: ops.energy(w.values)
    w2 = Field(problem.grid, rng.normal(size=w1.values.shape))
    e1, e2 = energy(w1), energy(w2)
    for t in (0.25, 0.5, 0.75):
        mix = Field(problem.grid, t * w1.values + (1.0 - t) * w2.values)
        assert energy(mix) <= t * e1 + (1.0 - t) * e2 + 1e-10


def test_growth_sandwich_transfers_to_energy():
    problem, w = random_dirichlet(seed=9, density=phi_mu(1.5))
    c = certify_conditions(problem.density).constants
    area = problem.grid.lx * problem.grid.ly
    point = assemble_ops(problem, None).evaluate(pad(w.values))
    tv, e = point.total_variation(), point.energy
    assert c.nu1 * tv - c.nu2 * area - 1e-10 <= e <= c.nu3 * tv + c.nu4 * area + 1e-10


def test_total_variation_of_affine_field():
    g = unit_grid(10)
    fn = lambda x, y: 3.0 * x + 4.0 * y
    problem = DirichletProblem.from_function(g, fn, phi_mu(2.0))
    w = Field.from_function(g, fn)
    tv = assemble_ops(problem, None).evaluate(pad(w.values)).total_variation()
    assert tv == pytest.approx(5.0, rel=1e-12)


# ---------------------------------------------------------------------------
# restriction onto the grid with half the cells (the nested start's data)


def test_dirichlet_coarsen_takes_edge_pair_means_and_keeps_corners():
    rng = np.random.default_rng(12)
    g = Grid2(4, 6, 0.25)
    ext = rng.normal(size=(6, 8, 2))
    coarse = DirichletProblem(g, ext, phi_mu(2.0)).coarsen()
    assert coarse.grid == Grid2(2, 3, 0.5)
    u = coarse.u0_ext
    assert u.shape == (4, 5, 2)
    for i, j in ((0, 0), (0, 4), (3, 0), (3, 4)):
        fi, fj = (0 if i == 0 else 5), (0 if j == 0 else 7)
        assert np.array_equal(u[i, j], ext[fi, fj])
    for j in range(1, 4):
        assert np.allclose(u[0, j], 0.5 * (ext[0, 2 * j - 1] + ext[0, 2 * j]),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(u[3, j], 0.5 * (ext[5, 2 * j - 1] + ext[5, 2 * j]),
                           rtol=0.0, atol=1e-15)
    for i in range(1, 3):
        assert np.allclose(u[i, 0], 0.5 * (ext[2 * i - 1, 0] + ext[2 * i, 0]),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(u[i, 4], 0.5 * (ext[2 * i - 1, 7] + ext[2 * i, 7]),
                           rtol=0.0, atol=1e-15)
    # the cells, where the coarse cold start begins, hold the 2x2 means
    for i in range(2):
        for j in range(3):
            block = ext[2 * i + 1:2 * i + 3, 2 * j + 1:2 * j + 3]
            assert np.allclose(u[i + 1, j + 1], block.mean(axis=(0, 1)),
                               rtol=0.0, atol=1e-15)


def test_fidelity_coarsen_masks_all_masked_blocks_and_averages_the_rest():
    g = Grid2(4, 4, 0.25)
    f = np.arange(16.0).reshape(4, 4)
    member = np.zeros((4, 4), dtype=bool)
    member[0:2, 0:2] = True           # block (0, 0): all four masked
    member[0, 2] = member[1, 2] = member[1, 3] = True  # block (0, 1): three
    member[3, 3] = True               # block (1, 1): one
    problem = FidelityProblem(g, Field(g, f), Mask(g, member), 0.7,
                              minimal_surface())
    coarse = problem.coarsen()
    assert coarse.grid == Grid2(2, 2, 0.5)
    assert coarse.lam == 0.7 and coarse.density is problem.density
    assert coarse.mask.member.tolist() == [[True, False], [False, False]]
    c = coarse.f.values[:, :, 0]
    assert c[0, 1] == f[0, 3]                                # lone datum
    assert c[1, 0] == pytest.approx(f[2:4, 0:2].mean(), abs=1e-15)
    assert c[1, 1] == pytest.approx((f[2, 2] + f[2, 3] + f[3, 2]) / 3.0,
                                    abs=1e-15)
    # a masked coarse cell holds 0 (it has no data term)
    assert c[0, 0] == 0.0
    with pytest.raises(ValueError):
        FidelityProblem(Grid2(3, 4, 0.25), Field.zeros(Grid2(3, 4, 0.25)),
                        Mask.empty(Grid2(3, 4, 0.25)), 0.7,
                        minimal_surface()).coarsen()
