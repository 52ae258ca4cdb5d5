"""Grids, fields, masks, balls, the difference pair, the ball sup, and the
ball integrals behind the Moser audit's level masses."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingrow.energy import DirichletProblem
from lingrow.grids import (Ball, Field, Grid2, Mask, neumann_live, pad,
                           ring_adjoint, ring_differences, sup_on)
from lingrow.moser import BallFamily, moser_report, radii
from lingrow.profiles import minimal_surface

from lingrow.multigrid import Level

from .oracles import (naive_ball_integral, ring_differences_two_arrays,
                      zero_ring_adjoint, zero_ring_apply,
                      zero_ring_differences, zero_ring_live, zero_ring_offset)


def unit_grid(n):
    return Grid2(n, n, 1.0 / n)


def level_masses(u, center, r0, j_max):
    """``moser_report``'s level masses a_j = max(1, integral of |u|^(2^j)
    over B_j) for the n = 2 family around ``center`` with outer radius r0."""
    bf = BallFamily(center, r0, j_max=j_max)
    return moser_report(u, bf, s_values=()).masses


# ---------------------------------------------------------------------------
# construction and validation


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2(1, 4, 0.1)
    with pytest.raises(ValueError):
        Grid2(4, 1, 0.1)
    with pytest.raises(ValueError):
        Grid2(4, 4, 0.0)
    with pytest.raises(ValueError):
        Grid2(2 ** 13, 2 ** 13, 1e-4)  # above the cell cap


@pytest.mark.parametrize("h", [1e-160, 1e-300,
                               np.nextafter(2.0 ** -511, 0.0)])
def test_a_spacing_whose_square_underflows_is_rejected(h):
    with pytest.raises(ValueError, match="h is too small"):
        Grid2(8, 8, h)


@pytest.mark.parametrize("h", [1e-150, 2.0 ** -511])
def test_a_spacing_whose_square_is_a_normal_float_is_kept(h):
    assert Grid2(8, 8, h).h == h


def test_one_channel_magnitude_is_its_absolute_value():
    """No square is formed, so values near the float range keep theirs."""
    values = np.array([[1e300, -1e300], [-2.5, 0.0]])
    f = Field(unit_grid(2), values)
    with np.errstate(all="raise"):
        assert np.array_equal(f.magnitude(), np.abs(values))


@pytest.mark.parametrize("channels", [2, 3])
def test_magnitude_of_several_channels_squares_nothing(channels):
    """One running hypot for every channel count: no square is formed, so
    a norm near either end of the float range is kept where a sum of
    squares overflows (1e300) or underflows (1e-200), and the sup over a
    ball of a flat 1e300 field is finite."""
    g = unit_grid(2)
    values = np.zeros((2, 2, channels))
    values[0, 0] = 1e300
    values[0, 1, :2] = (3e-200, -4e-200)
    values[1, 0, :2] = (-3.0, 4.0)
    f = Field(g, values)
    with np.errstate(all="raise"):
        mag = f.magnitude()
    big = 0.0
    for _ in range(channels):
        big = math.hypot(big, 1e300)
    assert mag.tolist() == [[big, math.hypot(3e-200, 4e-200)], [5.0, 0.0]]
    flat = Field.full(unit_grid(16), 1e300, channels=channels)
    with np.errstate(all="raise"):
        assert sup_on(flat, Ball((0.5, 0.5), 0.3)) == big


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_magnitude_is_the_hypot_reduction_bit_for_bit(channels, scale):
    """The running hypot over the channel slices gives the bits of numpy's
    ``hypot.reduce`` over the channel axis, signs and zeros included."""
    values = scale * np.random.default_rng(channels).normal(
        size=(9, 7, channels))
    values[0, 0] = 0.0
    values[1, 1, 0] = 0.0
    f = Field(Grid2(9, 7, 0.1), values)
    with np.errstate(all="raise"):
        assert (f.magnitude().tobytes()
                == np.hypot.reduce(values, axis=2).tobytes())


def test_grid_geometry():
    g = Grid2(4, 8, 0.25)
    assert g.lx == pytest.approx(1.0)
    assert g.ly == pytest.approx(2.0)
    assert g.nx * g.ny == 32
    assert np.allclose(g.xs(), [0.125, 0.375, 0.625, 0.875])
    assert len(g.xs_ext()) == 6
    assert g.xs_ext()[0] == pytest.approx(-0.125)
    assert g.boundary_distance(0.1, 0.9) == pytest.approx(0.1)


def test_field_validation_and_promotion():
    g = unit_grid(4)
    f = Field(g, np.ones((4, 4)))
    assert f.channels == 1 and f.values.shape == (4, 4, 1)
    with pytest.raises(ValueError):
        Field(g, np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        Field(g, np.ones((5, 4)))
    f2 = Field.from_function(g, lambda x, y: x + 2 * y)
    assert f2.values[0, 0, 0] == pytest.approx(0.125 + 2 * 0.125)
    # a function that ignores its arguments fills the grid
    f3 = Field.from_function(g, lambda x, y: 2.5)
    assert f3.values.shape == (4, 4, 1) and np.all(f3.values == 2.5)


def test_mask_rules():
    g = unit_grid(4)
    m = Mask.from_rect(g, 0.0, 0.0, 0.5, 0.5)
    assert int(m.member.sum()) == 4
    assert int(m.member.sum()) + np.sum(~m.member) == g.nx * g.ny
    assert int(Mask.empty(g).member.sum()) == 0
    with pytest.raises(ValueError):
        Mask(g, np.ones((4, 4), dtype=bool))  # covering everything
    with pytest.raises(ValueError, match="mask shape"):
        Mask(g, np.zeros((4, 5), dtype=bool))


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball((0.5, 0.5), 0.0)
    g = unit_grid(8)
    assert g.contains_ball(Ball((0.5, 0.5), 0.4))
    assert not g.contains_ball(Ball((0.5, 0.5), 0.5))
    assert not g.contains_ball(Ball((0.1, 0.5), 0.2))


# ---------------------------------------------------------------------------
# the difference pair on the ring layout and the two boundary rules


def dirichlet_slopes(u, problem):
    """Differences of u inside the problem's ghost ring, over h, on the
    difference cells (the slot ``J = ny+1`` left out)."""
    dx, dy = ring_differences(pad(u.values))
    ox, oy = problem.ring_offset()
    return (dx + ox)[:, :-1] / u.grid.h, (dy + oy)[:, :-1] / u.grid.h


def neumann_slopes(u):
    dx, dy = ring_differences(pad(u.values))
    live_x, live_y = neumann_live(u.grid)
    return (dx * live_x)[:, :-1] / u.grid.h, (dy * live_y)[:, :-1] / u.grid.h


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (9, 13), (128, 128)])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_ring_differences_match_the_two_array_form_bit_for_bit(shape,
                                                              channels):
    """The padded layout gives the same bits, signed zeros and non-finite
    values included, as one zeroed array per difference, and exact zeros
    in the slot ``J = my+1``."""
    rng = np.random.default_rng(shape[0] * 10 + channels)
    v = rng.normal(size=shape + (channels,))
    v.flat[::5] = -0.0
    v.flat[1::7] = 1e308
    v.flat[2::11] = -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        got = ring_differences(pad(v))
        ref = ring_differences_two_arrays(v)
    for a, b in zip(got, ref):
        assert a.shape == (shape[0] + 1, shape[1] + 2, channels)
        assert a[:, :-1].tobytes() == b.tobytes()
        assert np.all(a[:, -1] == 0.0)


@given(st.integers(1, 11), st.integers(1, 11), st.integers(1, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_padded_pair_and_level_match_the_zero_ring_reference(
        mx, my, channels, with_mass, seed):
    """On odd and non-square grids, sides of 1 included, the padded pair,
    both boundary rules and ``Level.apply`` give the bits of the zero-ring
    reference on the cells; the slot ``J = my+1`` and the ring come out as
    exact zeros, and the adjoint identity holds."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(mx, my, channels))
    p = pad(v)
    dx, dy = ring_differences(p)
    rx, ry = zero_ring_differences(v)
    for got, ref in ((dx, rx), (dy, ry)):
        assert got.shape == (mx + 1, my + 2, channels)
        assert got[:, :-1].tobytes() == ref.tobytes()
        assert np.all(got[:, -1] == 0.0)

    def ring_is_zero(a):
        return not (a[0].any() or a[-1].any() or a[:, 0].any()
                    or a[:, -1].any())

    # fluxes in the slot J = my+1 reach only the ring, which stays zero
    fx, fy = rng.normal(size=(2, mx + 1, my + 2, channels))
    adj = ring_adjoint(fx, fy)
    assert adj.shape == p.shape and ring_is_zero(adj)
    assert adj[1:-1, 1:-1].tobytes() == zero_ring_adjoint(
        fx[:, :-1], fy[:, :-1]).tobytes()
    lhs = float(np.sum(dx * fx + dy * fy))
    rhs = float(np.sum(p * adj))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    # a level of random positive semi-definite tensors, 0 in the slot
    a, b = rng.normal(size=(2, mx + 1, my + 2, channels))
    txx, tyy, txy = a * a, b * b, 0.5 * a * b
    for t in (txx, tyy, txy):
        t[:, -1] = 0.0
    mass = pad(rng.random((mx, my, channels))) if with_mass else None
    got = Level(txx, txy, tyy, mass).apply(p)
    ref = zero_ring_apply(txx[:, :-1], txy[:, :-1], tyy[:, :-1],
                          None if mass is None else mass[1:-1, 1:-1], v)
    assert ring_is_zero(got)
    assert got[1:-1, 1:-1].tobytes() == ref.tobytes()

    if min(mx, my) >= 2:  # a grid has at least two cells per axis
        grid = Grid2(mx, my, 0.5)
        datum = rng.normal(size=(mx + 2, my + 2, channels))
        ox, oy = DirichletProblem(grid, datum, minimal_surface()).ring_offset()
        rox, roy = zero_ring_offset(datum)
        assert np.all(ox[:, -1] == 0.0) and np.all(oy[:, -1] == 0.0)
        assert (dx + ox)[:, :-1].tobytes() == (rx + rox).tobytes()
        assert (dy + oy)[:, :-1].tobytes() == (ry + roy).tobytes()
        live_x, live_y = neumann_live(grid)
        ref_x, ref_y = zero_ring_live(mx, my)
        assert not live_x[:, -1].any() and not live_y[:, -1].any()
        assert np.array_equal(live_x[:, :-1], ref_x)
        assert np.array_equal(live_y[:, :-1], ref_y)
        assert (dx * live_x)[:, :-1].tobytes() == (rx * ref_x).tobytes()
        assert (dy * live_y)[:, :-1].tobytes() == (ry * ref_y).tobytes()


def test_dirichlet_offset_is_the_ghost_ring_subtraction():
    """The datum's ring differences added to the values' differences give
    the differences of the extended array bit for bit."""
    rng = np.random.default_rng(1)
    for nx, ny in ((9, 13), (16, 16), (7, 5)):
        for channels in (1, 2, 3):
            datum = rng.normal(size=(nx + 2, ny + 2, channels))
            problem = DirichletProblem(Grid2(nx, ny, 0.1), datum,
                                       minimal_surface())
            v = rng.normal(size=(nx, ny, channels))
            ext = datum.copy()
            ext[1:-1, 1:-1] = v
            dx, dy = ring_differences(pad(v))
            ox, oy = problem.ring_offset()
            assert dx.shape == ox.shape == (nx + 1, ny + 2, channels)
            assert np.array_equal((dx + ox)[:, :-1],
                                  ext[1:, :-1] - ext[:-1, :-1])
            assert np.array_equal((dy + oy)[:, :-1],
                                  ext[:-1, 1:] - ext[:-1, :-1])
            assert np.all(ox[:, -1] == 0.0) and np.all(oy[:, -1] == 0.0)


def test_gradient_exact_on_affine_dirichlet():
    g = Grid2(9, 13, 1.0 / 13)
    fn = lambda x, y: 3.0 * x - 2.0 * y + 0.5
    u = Field.from_function(g, fn)
    gx, gy = dirichlet_slopes(
        u, DirichletProblem.from_function(g, fn, minimal_surface()))
    assert gx.shape == (10, 14, 1)
    assert np.max(np.abs(gx - 3.0)) <= 1e-12
    assert np.max(np.abs(gy + 2.0)) <= 1e-12


def test_gradient_exact_on_affine_neumann_interior():
    g = Grid2(9, 13, 1.0 / 13)
    u = Field.from_function(g, lambda x, y: x + 2.0 * y)
    gx, gy = neumann_slopes(u)
    # value (i, j) is ring node (i+1, j+1): the live x differences are
    # rows 1 .. nx-1, the live y differences columns 1 .. ny-1
    assert np.max(np.abs(gx[1:-1, 1:] - 1.0)) <= 1e-12
    assert np.max(np.abs(gy[1:, 1:-1] - 2.0)) <= 1e-12


def test_neumann_dead_slots_are_exact_zeros():
    rng = np.random.default_rng(2)
    g = Grid2(5, 7, 0.2)
    live_x, live_y = neumann_live(g)
    assert live_x.sum() == (g.nx - 1) * g.ny
    assert live_y.sum() == g.nx * (g.ny - 1)
    assert not live_x[:, -1].any() and not live_y[:, -1].any()
    live_x, live_y = live_x[:, :-1], live_y[:, :-1]
    gx, gy = neumann_slopes(Field(g, rng.normal(size=(5, 7, 3))))
    assert np.all(gx[~live_x[:, :, 0]] == 0.0)
    assert np.all(gy[~live_y[:, :, 0]] == 0.0)
    assert np.all(gx[0] == 0.0) and np.all(gx[-1] == 0.0)
    assert np.all(gx[:, 0] == 0.0)
    assert np.all(gy[:, 0] == 0.0) and np.all(gy[:, -1] == 0.0)
    assert np.all(gy[0] == 0.0)
    assert np.all(gx[live_x[:, :, 0]] != 0.0)


def test_gradient_of_constant_is_zero():
    g = Grid2(6, 9, 0.1)
    u = Field.full(g, 4.0, channels=2)
    for d in neumann_slopes(u):
        assert np.all(d == 0.0)
    for d in dirichlet_slopes(u, DirichletProblem.from_field(
            u, minimal_surface())):
        assert np.all(d == 0.0)


def test_adjoint_identity_both_rules():
    """sum(D u : f) = sum(u * D^T f) for the zero-ring pair, which is the
    linear part of the Dirichlet rule, and for the masked Neumann
    differences M D, whose adjoint is D^T M."""
    rng = np.random.default_rng(42)
    for nx, ny in ((5, 7), (9, 13)):
        g = Grid2(nx, ny, 1.0 / ny)
        live_x, live_y = neumann_live(g)
        for channels in (1, 2, 3):
            for _ in range(5):
                u = pad(rng.normal(size=(nx, ny, channels)))
                fx, fy = rng.normal(size=(2, nx + 1, ny + 2, channels))
                dx, dy = ring_differences(u)
                lhs = float(np.sum(dx * fx + dy * fy))
                rhs = float(np.sum(u * ring_adjoint(fx, fy)))
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

                lhs = float(np.sum(live_x * dx * fx + live_y * dy * fy))
                rhs = float(np.sum(u * ring_adjoint(live_x * fx,
                                                    live_y * fy)))
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_constant_flux_telescopes_to_zero():
    g = Grid2(4, 6, 0.25)
    ones = np.ones((5, 8, 1))
    assert np.all(ring_adjoint(ones, ones) == 0.0)
    # Neumann: interior cells telescope; the edges carry the dead slots
    live_x, live_y = neumann_live(g)
    div = ring_adjoint(ones * live_x, ones * live_y)
    assert np.all(div[2:-2, 2:-2] == 0.0)
    assert np.any(div != 0.0)


# ---------------------------------------------------------------------------
# ball norms


def test_sup_and_lp_on_zero_field():
    g = unit_grid(16)
    b = Ball((0.5, 0.5), 0.3)
    u = Field.zeros(g)
    assert sup_on(u, b) == 0.0
    # a vanishing integral is mass 1, the floor max(1, 0)
    zero = Field.zeros(unit_grid(32))
    assert np.array_equal(level_masses(zero, (0.5, 0.5), 0.3, 2), np.ones(3))


def test_lp_on_constant_matches_discrete_area():
    g = unit_grid(64)
    b = Ball((0.5, 0.5), 0.5 - 1e-9)
    u = Field.full(g, 3.0)
    area = float(np.sum(g.cells_in_ball(b))) * g.h ** 2
    assert abs(area - math.pi * 0.25) <= 3.0 * g.h
    a0 = level_masses(u, b.center, b.radius, 1)[0]
    assert a0 == pytest.approx(3.0 * area, rel=1e-12)
    assert a0 == pytest.approx(
        naive_ball_integral(u, b.center, b.radius, 1.0), rel=1e-12)


def test_sup_of_radial_distance_field():
    g = unit_grid(64)
    b = Ball((0.5, 0.5), 0.4)
    u = Field.from_function(g, lambda x, y: np.hypot(x - 0.5, y - 0.5))
    s = sup_on(u, b)
    assert b.radius - g.h * math.sqrt(2.0) <= s <= b.radius


def test_lp_monotone_in_radius_and_exponent():
    # |u| >= 10, so every integral here is above the mass floor of 1
    g = unit_grid(64)
    u = Field.from_function(g, lambda x, y: 10.0 * (1.0 + x + y))
    vals = [level_masses(u, (0.5, 0.5), r, 1)[0] for r in (0.2, 0.3, 0.4)]
    assert vals[0] < vals[1] < vals[2]
    # B_0 of r0 0.3, B_1 of r0 0.4 and B_2 of r0 0.48 all have radius 0.3,
    # with exponents 1, 2 and 4
    fams = [BallFamily((0.5, 0.5), r0, j_max=2) for r0 in (0.3, 0.4, 0.48)]
    assert [radii(bf)[j] for j, bf in enumerate(fams)] == pytest.approx(
        [0.3] * 3)
    by_p = [moser_report(u, bf, s_values=()).masses[j]
            for j, bf in enumerate(fams)]
    assert by_p[0] <= by_p[1] <= by_p[2]


def test_lp_on_log_handles_huge_exponents():
    g = unit_grid(32)
    u = Field.full(g, 1000.0)
    # level 4 (exponent 16) of the family with r0 = 0.25 * 32/17 has
    # radius 0.25
    bf = BallFamily((0.5, 0.5), 0.25 * 32.0 / 17.0, j_max=4)
    lg = math.log(moser_report(u, bf, s_values=()).masses[4])
    area = float(np.sum(g.cells_in_ball(bf.ball(4)))) * g.h ** 2
    assert bf.ball(4).radius == pytest.approx(0.25, rel=1e-15)
    assert lg == pytest.approx(16.0 * math.log(1000.0) + math.log(area),
                               rel=1e-12)
    assert math.isfinite(lg)


def test_ball_errors():
    g = unit_grid(16)
    u = Field.zeros(g)
    with pytest.raises(ValueError):
        sup_on(u, Ball((0.5, 0.5), 0.6))  # sticks out of the domain
    with pytest.raises(ValueError):
        sup_on(u, Ball((0.5, 0.5), 1e-4))  # holds no cell centers
    with pytest.raises(ValueError):  # too few cells for the level masses
        level_masses(u, (0.5, 0.5), 0.3, 1)


def test_lp_matches_naive_oracle_on_random_field():
    rng = np.random.default_rng(9)
    g = unit_grid(24)
    u = Field(g, 3.0 * rng.normal(size=(24, 24, 2)))
    center, r0 = (0.4, 0.6), 0.35
    a = level_masses(u, center, r0, 2)
    rr = radii(BallFamily(center, r0, j_max=2))
    for j, p in enumerate((1.0, 2.0, 4.0)):
        ref = naive_ball_integral(u, center, rr[j], p)
        assert ref > 1.0  # above the mass floor
        assert a[j] == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# property-based checks


@given(st.integers(2, 12), st.integers(2, 12), st.floats(0.01, 2.0))
def test_mask_complement_counts(nx, ny, h):
    g = Grid2(nx, ny, h)
    rng = np.random.default_rng(nx * 31 + ny)
    member = rng.random((nx, ny)) < 0.4
    if member.all():
        member[0, 0] = False
    m = Mask(g, member)
    assert int(m.member.sum()) + int(np.sum(~m.member)) == g.nx * g.ny


@given(st.integers(3, 10))
def test_gradient_exact_on_random_affine(n):
    g = unit_grid(n)
    rng = np.random.default_rng(n)
    ax, ay, c = rng.normal(size=3)
    fn = lambda x, y: ax * x + ay * y + c
    u = Field.from_function(g, fn)
    gx, gy = dirichlet_slopes(
        u, DirichletProblem.from_function(g, fn, minimal_surface()))
    assert np.max(np.abs(gx - ax)) <= 1e-11 * (1.0 + abs(ax))
    assert np.max(np.abs(gy - ay)) <= 1e-11 * (1.0 + abs(ay))
