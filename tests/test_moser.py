"""Ball iteration audit: radii, exponents, masses, recursion, sup bound,
cutoff checks, and the whole report against the per-ball oracle."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingrow.cli import _finite_or_null
from lingrow.grids import Ball, Field, Grid2, Mask
from lingrow.instances import dirichlet_boundary_spike
from lingrow.moser import (BallFamily, MoserGeometryError, check_geometry,
                           exponents, moser_report, radii, select_radius)
from lingrow.moser import (_MIN_CELLS_PER_BALL, _log_masses, _recursion,
                           _sup_bound)
from lingrow.solver import SolverConfig, continuation_solve

from .oracles import moser_report_per_ball, naive_ball_integral


def big_grid(n=64, h=0.1):
    return Grid2(n, n, h)


def centered_family(**kw):
    return BallFamily(center=(3.2, 3.2), r0=2.0, **kw)


def caccioppoli_check(u, bf, s):
    """The report's cutoff check for one s."""
    return moser_report(u, bf, s_values=(s,)).caccioppoli[0]


# ---------------------------------------------------------------------------
# radii and exponents


def test_radii_frozen_values():
    bf = BallFamily((0.0, 0.0), 1.0, n=2, j_max=2)
    assert np.allclose(radii(bf), [1.0, 0.75, 0.625], rtol=0, atol=1e-15)
    assert bf.r_inf == 0.5


def test_radii_limit():
    bf = BallFamily((0.0, 0.0), 1.0, n=2, j_max=60)
    assert abs(radii(bf)[-1] - bf.r_inf) <= 1e-12


def test_radii_n3():
    bf = BallFamily((0.0, 0.0), 0.9, n=3, j_max=1)
    assert radii(bf)[1] == pytest.approx(0.8, abs=1e-15)


def test_exponents_frozen_values():
    bf = BallFamily((0.0, 0.0), 1.0, n=2, j_max=4)
    assert np.allclose(exponents(bf), [0.0, 1.0, 3.0, 7.0, 15.0],
                       rtol=0, atol=1e-14)
    bf3 = BallFamily((0.0, 0.0), 1.0, n=3, j_max=2)
    assert exponents(bf3)[0] == 0.0
    assert exponents(bf3)[2] == pytest.approx(1.25, abs=1e-15)


@pytest.mark.parametrize("n,r0", [(2, 1.0), (3, 0.9)])
def test_closed_forms_exact_rational(n, r0):
    # rational arithmetic as the independent oracle
    bf = BallFamily((0.0, 0.0), r0, n=n, j_max=20)
    rr = radii(bf)
    ss = exponents(bf)
    fr0 = Fraction(r0).limit_denominator(10)
    for j in range(21):
        shrink = Fraction(n - 1, n) ** j
        r_exact = fr0 * Fraction(n - 1, n) + shrink * fr0 / n
        s_exact = Fraction(n, n - 1) ** j - 1
        assert abs(rr[j] - float(r_exact)) <= 1e-14 * float(r_exact)
        assert abs(ss[j] - float(s_exact)) <= 1e-14 * max(1.0, float(s_exact))


def test_family_validation():
    with pytest.raises(ValueError):
        BallFamily((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        BallFamily((0.0, 0.0), 1.0, n=1)
    with pytest.raises(ValueError):
        BallFamily((0.0, 0.0), 1.0, j_max=0)
    bf = BallFamily((1.0, 2.0), 1.0)
    assert bf.q == 2.0
    assert bf.ball(0).radius == 1.0
    assert bf.limit_ball().radius == 0.5


@pytest.mark.parametrize("n, j_max", [(2, 1024), (3, 2000), (10 ** 400, 1),
                                      (356, 6)],
                         ids=["n2-j1024", "n3-j2000", "n-huge", "n356"])
def test_family_too_deep_for_a_float_rejected(n, j_max):
    """The top exponent q^j_max and the sup bound's prefactor q^(2n(n-1))
    must be finite floats."""
    with pytest.raises(MoserGeometryError, match="too deep or too wide"):
        BallFamily((0.5, 0.5), 0.3, n=n, j_max=j_max)


def test_widest_family_a_float_holds_is_bounded():
    g = Grid2(32, 32, 1.0 / 32)
    u = Field(g, np.random.default_rng(9).uniform(0.0, 2.0, (32, 32, 1)))
    bf = BallFamily((0.5, 0.5), 0.3, n=355, j_max=6)
    # its annuli are far thinner than a cell, so moser_report refuses it;
    # the recursion and the bound still hold a float
    mag, d2 = u.magnitude(), g.sq_distances(bf.center)
    log_a = _log_masses(mag, d2, radii(bf), bf.q, g.h)
    bound = _sup_bound(_recursion(log_a, bf), mag, d2, bf, g.h)
    assert bound.prefactor < math.inf and bound.passed


def test_deepest_family_a_float_holds_is_audited():
    bf = BallFamily((0.5, 0.5), 0.3, j_max=1023)
    assert exponents(bf)[-1] == 2.0 ** 1023 - 1.0
    rng = np.random.default_rng(8)
    u = Field(Grid2(32, 32, 1.0 / 32), rng.uniform(0.0, 3.0, (32, 32, 1)))
    rep = moser_report(u, bf, s_values=(0.0,))
    assert np.all(np.isfinite(rep.masses))
    assert rep.sup_bound.predicted < math.inf


def test_a_deep_family_on_a_small_field_warns_nothing():
    """At j_max 1023 a level maximum below e^-2 raised to 2^1023 is far
    below 1: its log mass clamps to 0 with no overflow on the way."""
    bf = BallFamily((0.5, 0.5), 0.45, j_max=1023)
    u = Field.full(Grid2(64, 64, 1.0 / 64), 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = moser_report(u, bf)
    assert np.array_equal(rep.masses, np.ones(1024))


# ---------------------------------------------------------------------------
# masses


def test_masses_zero_field():
    u = Field.zeros(big_grid())
    assert np.array_equal(moser_report(u, centered_family(j_max=4)).masses,
                          np.ones(5))


def test_masses_constant_field():
    g = big_grid()
    u = Field.full(g, 1.0)
    bf = centered_family(j_max=4)
    a = moser_report(u, bf).masses
    rr = radii(bf)
    for j in range(5):
        count = int(g.cells_in_ball(Ball(bf.center, rr[j])).sum())
        assert a[j] == pytest.approx(max(1.0, count * g.h ** 2), rel=1e-12)


def test_masses_match_naive_oracle():
    rng = np.random.default_rng(3)
    g = big_grid()
    u = Field(g, rng.uniform(0.0, 2.0, size=(64, 64, 1)))
    bf = centered_family(j_max=3)
    a = moser_report(u, bf).masses
    rr = radii(bf)
    for j in range(4):
        ref = max(1.0, naive_ball_integral(u, bf.center, rr[j], bf.q ** j))
        assert a[j] == pytest.approx(ref, rel=1e-12)


def test_masses_scaling():
    rng = np.random.default_rng(4)
    g = big_grid()
    vals = 1.5 + rng.uniform(0.0, 1.0, size=(64, 64, 1))
    bf = centered_family(j_max=3)
    a1 = moser_report(Field(g, vals), bf).masses
    a2 = moser_report(Field(g, 2.0 * vals), bf).masses
    assert np.all(a1 > 1.0)  # floors do not bind on this instance
    for j in range(4):
        assert a2[j] == pytest.approx(2.0 ** (bf.q ** j) * a1[j], rel=1e-12)


def test_masses_require_contained_ball():
    u = Field.zeros(Grid2(32, 32, 1.0 / 32))
    with pytest.raises(MoserGeometryError):
        moser_report(u, BallFamily((0.1, 0.1), 0.3))


# ---------------------------------------------------------------------------
# recursion and sup bound


def test_recursion_zero_field():
    u = Field.zeros(big_grid())
    bf = centered_family(j_max=6)
    check = moser_report(u, bf).recursion
    assert check.passed and check.note == ""
    assert np.allclose(check.c, 4.0 ** -np.arange(6.0), rtol=1e-12)
    assert check.c_max == pytest.approx(1.0, rel=1e-14)


def test_recursion_past_the_float_range_warns_nothing():
    """A level constant beyond exp(709) reads inf without an overflow
    warning (the suite turns warnings into errors), and the growth test on
    its logarithms fails the trend with no inf/inf."""
    bf = BallFamily((0.0, 0.0), 1.0, n=2, j_max=4)
    rising = _recursion(np.array([0.0, 0.0, 0.0, 0.0, 2000.0]), bf)
    assert rising.c[-1] == np.inf and rising.c_max == np.inf
    assert np.all(np.isfinite(rising.c[:-1]))
    assert not rising.passed
    assert rising.note == "growth trend across the last levels"
    # an overflowing level followed by a falling one is no growth
    falling = _recursion(np.array([0.0, 0.0, 0.0, 2000.0, 0.0]), bf)
    assert falling.c[2] == np.inf and falling.c[3] == 0.0
    assert falling.passed


def test_sup_bound_zero_field():
    u = Field.zeros(big_grid())
    bf = centered_family(j_max=6)
    check = moser_report(u, bf).sup_bound
    assert check.prefactor == 16.0
    assert check.predicted == pytest.approx(16.0, rel=1e-12)
    assert check.observed == 0.0
    assert check.passed


def test_sup_bound_prefactor_n3():
    # (3/2)^12 = 531441/4096, exactly representable
    g = Grid2(64, 64, 0.1)
    u = Field.zeros(g)
    bf = BallFamily((3.2, 3.2), 2.0, n=3, j_max=4)
    check = moser_report(u, bf).sup_bound
    assert check.prefactor == 1.5 ** 12 == 129.746337890625


def test_sup_bound_dominates_on_smooth_field():
    g = big_grid()
    u = Field.from_function(g, lambda x, y: np.sin(x) * np.cos(y))
    bf = centered_family(j_max=6)
    rep = moser_report(u, bf)
    rec, check = rep.recursion, rep.sup_bound
    assert rec.passed and check.passed
    assert check.predicted == pytest.approx(
        rec.c_max * 16.0 * max(1.0, check.lq_norm), rel=1e-12)
    assert check.predicted >= check.observed


@pytest.mark.parametrize("value", [1e300, -1e300, 2e200])
def test_sup_bound_of_a_huge_flat_field_is_finite(value):
    """|u|^2 overflows, so the L^2 norm is factored through max |u|: it is
    then |u| times the root of the unit square's area, with no warning, and
    the bound built on it is finite."""
    u = Field.full(Grid2(32, 32, 1.0 / 32), value)
    bf = BallFamily((0.5, 0.5), 0.3, j_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = moser_report(u, bf).sup_bound
    assert check.lq_norm == abs(value)
    assert check.observed == abs(value)
    assert math.isfinite(check.predicted) and check.passed


# ---------------------------------------------------------------------------
# caccioppoli


def hand_caccioppoli(u: Field, bf: BallFamily, s: float, j: int) -> float:
    """Per-cell loop evaluation of the level-j cutoff constant."""
    g = u.grid
    rr = radii(bf)
    r_hi, r_lo = rr[j], rr[j + 1]
    q = bf.q
    h2 = g.h * g.h
    lhs = bracket = 0.0
    for i in range(g.nx):
        for k in range(g.ny):
            x, y = (i + 0.5) * g.h, (k + 0.5) * g.h
            r = math.hypot(x - bf.center[0], y - bf.center[1])
            eta = min(1.0, max(0.0, (r_hi - r) / (r_hi - r_lo)))
            geta = 1.0 / (r_hi - r_lo) if r_lo < r < r_hi else 0.0
            m = abs(float(u.values[i, k, 0]))
            lhs += (m ** (s + 1.0)) ** q * eta ** (2.0 * q) * h2
            us = 1.0 if s == 0.0 else m ** s
            bracket += (us * eta * eta + m ** (s + 1.0) * eta * geta) * h2
    return lhs ** (1.0 / q) / ((s + 1.0) * bracket)


def test_caccioppoli_zero_field():
    u = Field.zeros(big_grid())
    check = caccioppoli_check(u, centered_family(j_max=4), 0.0)
    assert check.passed
    assert np.array_equal(check.c_levels, np.zeros(len(check.c_levels)))


def test_caccioppoli_constant_field_matches_hand_loop():
    g = Grid2(32, 32, 1.0 / 32)
    u = Field.full(g, 1.0)
    bf = BallFamily((0.5, 0.5), 0.4, j_max=3)
    for s in (0.0, 1.0):
        check = caccioppoli_check(u, bf, s)
        expected = [hand_caccioppoli(u, bf, s, j)
                    for j in range(len(check.c_levels))]
        assert np.allclose(check.c_levels, expected, rtol=1e-12)
        assert "skipped" in check.note  # deeper annuli are sub-grid here


def test_caccioppoli_random_field_matches_hand_loop():
    rng = np.random.default_rng(9)
    g = Grid2(32, 32, 1.0 / 32)
    u = Field(g, rng.uniform(0.5, 2.0, size=(32, 32, 1)))
    bf = BallFamily((0.5, 0.5), 0.4, j_max=2)
    check = caccioppoli_check(u, bf, 3.0)
    expected = [hand_caccioppoli(u, bf, 3.0, j)
                for j in range(len(check.c_levels))]
    assert np.allclose(check.c_levels, expected, rtol=1e-12)


def test_caccioppoli_rejects_sub_grid_families():
    # no annulus on a 16x16 grid can span two cells for a contained family
    g = Grid2(16, 16, 1.0 / 16)
    u = Field.full(g, 1.0)
    with pytest.raises(MoserGeometryError, match="no annulus"):
        caccioppoli_check(u, BallFamily((0.5, 0.5), 0.45, j_max=3), 0.0)


def test_caccioppoli_negative_s_rejected():
    u = Field.zeros(big_grid())
    with pytest.raises(ValueError):
        caccioppoli_check(u, centered_family(), -1.0)


# ---------------------------------------------------------------------------
# radius selection


def test_select_radius_zero_data():
    g = Grid2(64, 64, 1.0 / 64)
    f = Field.zeros(g)
    r0, eps0 = select_radius(f, Mask.empty(g), 0.5, (0.25, 0.45))
    assert eps0 == 0.25  # 1/(16 lam^2) at lam = 1/2
    assert r0 == 0.125  # half the boundary distance, first candidate
    assert 2.0 * 0.5 * math.sqrt(eps0) == 0.5


def test_select_radius_rejects_a_weight_with_no_finite_eps0():
    g = Grid2(16, 16, 1.0 / 16)
    with pytest.raises(MoserGeometryError, match="too small"):
        select_radius(Field.zeros(g), Mask.empty(g), 1e-181, (0.25, 0.45))


def test_select_radius_excludes_spike():
    g = Grid2(128, 128, 1.0 / 128)
    x1 = (0.8, 0.8)
    f = Field.from_function(
        g, lambda x, y: np.minimum(np.hypot(x - x1[0], y - x1[1]) ** -0.5,
                                   100.0))
    mask = Mask.empty(g)
    lam = 2.0
    r0, eps0 = select_radius(f, mask, lam, (0.3, 0.3))
    assert eps0 == 1.0 / 64.0
    assert 2.0 * lam * math.sqrt(eps0) == 0.5
    assert math.hypot(0.3 - x1[0], 0.3 - x1[1]) > r0  # spike outside the ball
    # naive re-verification: accepted mass below eps0, rejected radius above
    accepted = naive_ball_integral(f, (0.3, 0.3), r0, 2.0)
    rejected = naive_ball_integral(f, (0.3, 0.3), 2.0 * r0, 2.0)
    assert accepted < eps0 <= rejected


def test_select_radius_failure_and_validation():
    g = Grid2(32, 32, 1.0 / 32)
    loud = Field.full(g, 10.0)
    with pytest.raises(MoserGeometryError, match="no admissible radius"):
        select_radius(loud, Mask.empty(g), 1.0, (0.5, 0.5))
    with pytest.raises(MoserGeometryError):
        select_radius(loud, Mask.empty(g), 1.0, (1.5, 0.5))
    with pytest.raises(ValueError):
        select_radius(loud, Mask.empty(g), 0.0, (0.5, 0.5))


def test_select_radius_squares_no_masked_cell():
    """A masked cell of 1e200, whose square overflows, is never squared: the
    selected ball holds it, and the radius is the one its absence gives,
    with no warning."""
    g = Grid2(64, 64, 1.0 / 64)
    rng = np.random.default_rng(2)
    values = rng.uniform(0.0, 1.0, (64, 64, 1))
    mask = Mask.from_rect(g, 0.1, 0.4, 0.3, 0.6)
    x0 = (0.25, 0.45)
    quiet = select_radius(Field(g, values), mask, 0.5, x0)
    values[12, 28, 0] = 1e200
    assert mask.member[12, 28]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loud = select_radius(Field(g, values), mask, 0.5, x0)
    assert loud == quiet
    assert g.sq_distances(x0)[12, 28] < loud[0] ** 2


def test_select_radius_treats_an_overflowing_mass_as_too_large():
    g = Grid2(32, 32, 1.0 / 32)
    f = Field.full(g, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MoserGeometryError, match="no admissible radius"):
            select_radius(f, Mask.empty(g), 0.5, (0.5, 0.5))


def test_select_radius_mask_removes_data_mass():
    g = Grid2(64, 64, 1.0 / 64)
    f = Field.full(g, 10.0)
    # all the loud data is inside the mask, so the very first radius passes
    mask = Mask.from_rect(g, 0.01, 0.01, 0.99, 0.99)
    r0, _ = select_radius(f, mask, 0.5, (0.5, 0.5))
    assert r0 == 0.25


# ---------------------------------------------------------------------------
# full report


def test_moser_report_structure_and_determinism():
    rng = np.random.default_rng(11)
    g = big_grid()
    u = Field(g, rng.uniform(-1.0, 1.0, size=(64, 64, 1)))
    bf = centered_family(j_max=4)
    rep = moser_report(u, bf, s_values=(0.0, 1.0), epsilon0=0.25)
    d = _finite_or_null(rep)
    assert set(d) == {"center", "r0", "r_inf", "n", "j_max", "radii",
                      "exponents", "masses", "recursion", "sup_bound",
                      "caccioppoli", "epsilon0", "passed"}
    assert d["epsilon0"] == 0.25
    assert len(d["caccioppoli"]) == 2
    again = moser_report(u, bf, s_values=(0.0, 1.0), epsilon0=0.25)
    assert json.dumps(d) == json.dumps(_finite_or_null(again))

    csv = rep.to_csv().strip().split("\n")
    assert csv[0] == "j,R_j,s_j,a_j,c_j"
    assert len(csv) == bf.j_max + 2
    assert csv[-1].endswith(",")  # no c at the last level
    row = csv[1].split(",")
    assert float(row[1]) == rep.radii[0] and float(row[3]) == rep.masses[0]


def test_moser_report_enforces_cell_count():
    g = Grid2(32, 32, 1.0 / 32)
    u = Field.zeros(g)
    bf = BallFamily((0.5, 0.5), 0.2, j_max=6)
    with pytest.raises(MoserGeometryError, match="at least 50 required"):
        moser_report(u, bf)
    assert _MIN_CELLS_PER_BALL == 50


def test_check_geometry_needs_only_the_grid():
    g = Grid2(16, 16, 1.0 / 16)
    with pytest.raises(MoserGeometryError, match="holds 12 cell centres"):
        check_geometry(g, BallFamily((0.5, 0.5), 0.2, j_max=3))
    with pytest.raises(MoserGeometryError, match="not strictly inside"):
        check_geometry(g, BallFamily((0.1, 0.5), 0.2, j_max=3))
    check_geometry(Grid2(32, 32, 1.0 / 32), BallFamily((0.5, 0.5), 0.3,
                                                         j_max=3))


@given(st.integers(16, 64), st.floats(0.05, 0.45), st.integers(2, 6),
       st.integers(1, 6))
def test_check_geometry_rejects_the_families_caccioppoli_cannot_measure(
        n, r0, dim, j_max):
    """moser_report names thin annuli exactly when the first annulus is
    thinner than two cells, and otherwise measures the cutoff constant on
    at least one level."""
    g = Grid2(n, n, 1.0 / n)
    bf = BallFamily((0.5, 0.5), r0, n=dim, j_max=j_max)
    u = Field.full(g, 1.0)
    r_0, r_1 = radii(bf)[:2]
    thin = r_0 - r_1 < 2.0 * g.h
    try:
        check = caccioppoli_check(u, bf, 0.0)
    except MoserGeometryError as err:
        if "annulus" in str(err):
            assert thin
        return
    assert not thin and len(check.c_levels) >= 1


@given(st.integers(16, 64), st.floats(0.2, 0.8), st.floats(0.2, 0.8),
       st.floats(0.05, 0.4), st.integers(2, 4), st.integers(1, 8))
def test_checked_family_has_a_cell_in_its_limit_ball(n, cx, cy, r0, dim,
                                                     j_max):
    """The limit ball is at least half as wide as the innermost one, so a
    family that passes the check can always take its sup."""
    g = Grid2(n, n, 1.0 / n)
    bf = BallFamily((cx, cy), r0, n=dim, j_max=j_max)
    try:
        check_geometry(g, bf)
    except MoserGeometryError:
        return
    assert g.cells_in_ball(bf.limit_ball()).any()


# ---------------------------------------------------------------------------
# one geometry per report against a mask per ball


@pytest.fixture(scope="module")
def spike_rungs_64():
    trace = continuation_solve(dirichlet_boundary_spike(64, 64),
                               SolverConfig(mu=1.5))
    return [rec.u for rec in trace.records]


def _vanishing_inside(g):
    """5 outside radius 0.35 of the centre, 0 inside: every inner ball of
    the r0 0.45 family sees a zero field."""
    return Field.from_function(
        g, lambda x, y: np.where(np.hypot(x - 0.5, y - 0.5) < 0.35, 0.0, 5.0))


@pytest.mark.parametrize("case", ["spike-ladder-64", "two-channel",
                                  "vanishing-inner-balls",
                                  "skipped-levels", "deep-n5"])
def test_moser_report_matches_the_per_ball_oracle(case, request):
    """Reports built on one shared geometry, with the level masses'
    shortcuts for deep families, equal, byte for byte, those built from a
    fresh mask per ball, level and s, except for the cutoff checks: these
    sum over the outer ball's cells only, a different order of the same
    non-negative terms, so their constants agree to a few rounding errors
    of each sum (64 eps relative; the variation, a relative difference of
    two constants, to 128 eps (2 + variation))."""
    rng = np.random.default_rng(5)
    if case == "spike-ladder-64":
        fields = request.getfixturevalue("spike_rungs_64")
        bf = BallFamily((0.5, 0.5), 0.3, n=2, j_max=8)
    elif case == "two-channel":
        g = Grid2(48, 48, 1.0 / 48)
        fields = [Field(g, rng.uniform(-2.0, 2.0, (48, 48, 2)))]
        bf = BallFamily((0.45, 0.55), 0.4, n=2, j_max=4)
    elif case == "vanishing-inner-balls":
        fields = [_vanishing_inside(Grid2(64, 64, 1.0 / 64))]
        bf = BallFamily((0.5, 0.5), 0.45, n=2, j_max=4)
    elif case == "skipped-levels":
        g = Grid2(32, 32, 1.0 / 32)
        fields = [Field(g, rng.uniform(0.5, 2.0, (32, 32, 1)))]
        bf = BallFamily((0.5, 0.5), 0.4, n=2, j_max=3)
    else:
        g = Grid2(128, 128, 1.0 / 128)
        fields = [Field(g, rng.uniform(0.5, 2.0, (128, 128, 1)))]
        bf = BallFamily((0.5, 0.5), 0.45, n=5, j_max=300)
        # both shortcuts of the level masses are taken: levels whose ball
        # holds the cells of the level before (301 levels, 24 cell sets),
        # and levels where the largest ratio below 1 to the maximum, raised
        # to q^j, is exactly 0 (233 levels)
        d2, mag = g.sq_distances(bf.center), fields[0].magnitude()
        held = [d2 < r ** 2 for r in radii(bf)]
        assert len({int(np.count_nonzero(b)) for b in held}) == 24
        last = mag[held[-1]] / np.max(mag[held[-1]])
        assert np.max(last[last < 1.0]) ** bf.q ** bf.j_max == 0.0
    eps = np.finfo(float).eps
    for u in fields:
        rep = moser_report(u, bf, epsilon0=0.25)
        ref = moser_report_per_ball(u, bf, epsilon0=0.25)
        rep_json, ref_json = _finite_or_null(rep), _finite_or_null(ref)
        del rep_json["caccioppoli"], ref_json["caccioppoli"]
        assert json.dumps(rep_json) == json.dumps(ref_json)
        # the file writes inf and nan alike as null: the values that can be
        # either are compared as numbers too
        def unbounded(r):
            return np.r_[r.recursion.c, r.recursion.c_max,
                         r.sup_bound.predicted, r.sup_bound.lq_norm]
        assert np.array_equal(unbounded(rep), unbounded(ref), equal_nan=True)
        got, want = rep.caccioppoli, ref.caccioppoli
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.s, a.passed, a.note) == (b.s, b.passed, b.note)
            ca, cb = a.c_levels, b.c_levels
            assert ca.shape == cb.shape
            assert np.array_equal(np.isfinite(ca), np.isfinite(cb))
            finite = np.isfinite(cb)
            assert np.array_equal(ca[~finite], cb[~finite], equal_nan=True)
            assert np.allclose(ca[finite], cb[finite], rtol=64 * eps, atol=0.0)
            va, vb = a.variation, b.variation
            if not math.isfinite(vb):
                assert va == vb
            else:
                assert abs(va - vb) <= 128 * eps * (2.0 + vb)
        assert moser_report(u, bf).to_csv() == moser_report_per_ball(
            u, bf).to_csv()
