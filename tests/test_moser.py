"""Ball iteration audit: radii, exponents, masses, recursion, sup bound."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingrow.grids import Ball, Field, Grid2, Mask
from lingrow.moser import (BallFamily, MoserGeometryError, caccioppoli_check,
                           check_geometry, exponents, masses,
                           min_cells_per_ball, moser_report, radii,
                           select_radius, sup_bound, verify_recursion)
from lingrow.moser import _recursion

from .oracles import naive_ball_integral


def big_grid(n=64, h=0.1):
    return Grid2(n, n, h)


def centered_family(**kw):
    return BallFamily(center=(3.2, 3.2), r0=2.0, **kw)


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
    bound = sup_bound(verify_recursion(u, bf), u, bf)
    assert bound.prefactor < math.inf and bound.passed


def test_deepest_family_a_float_holds_is_audited():
    bf = BallFamily((0.5, 0.5), 0.3, j_max=1023)
    assert exponents(bf)[-1] == 2.0 ** 1023 - 1.0
    rng = np.random.default_rng(8)
    u = Field(Grid2(32, 32, 1.0 / 32), rng.uniform(0.0, 3.0, (32, 32, 1)))
    rep = moser_report(u, bf, s_values=(0.0,))
    assert np.all(np.isfinite(rep.masses)) and rep.bound.predicted < math.inf


# ---------------------------------------------------------------------------
# masses


def test_masses_zero_field():
    u = Field.zeros(big_grid())
    assert np.array_equal(masses(u, centered_family(j_max=4)), np.ones(5))


def test_masses_constant_field():
    g = big_grid()
    u = Field.full(g, 1.0)
    bf = centered_family(j_max=4)
    a = masses(u, bf)
    rr = radii(bf)
    for j in range(5):
        count = int(g.cells_in_ball(Ball(bf.center, rr[j])).sum())
        assert a[j] == pytest.approx(max(1.0, count * g.h ** 2), rel=1e-12)


def test_masses_match_naive_oracle():
    rng = np.random.default_rng(3)
    g = big_grid()
    u = Field(g, rng.uniform(0.0, 2.0, size=(64, 64, 1)))
    bf = centered_family(j_max=3)
    a = masses(u, bf)
    rr = radii(bf)
    for j in range(4):
        ref = max(1.0, naive_ball_integral(u, bf.center, rr[j], bf.q ** j))
        assert a[j] == pytest.approx(ref, rel=1e-12)


def test_masses_scaling():
    rng = np.random.default_rng(4)
    g = big_grid()
    vals = 1.5 + rng.uniform(0.0, 1.0, size=(64, 64, 1))
    bf = centered_family(j_max=3)
    a1 = masses(Field(g, vals), bf)
    a2 = masses(Field(g, 2.0 * vals), bf)
    assert np.all(a1 > 1.0)  # floors do not bind on this instance
    for j in range(4):
        assert a2[j] == pytest.approx(2.0 ** (bf.q ** j) * a1[j], rel=1e-12)


def test_masses_require_contained_ball():
    u = Field.zeros(Grid2(32, 32, 1.0 / 32))
    with pytest.raises(MoserGeometryError):
        masses(u, BallFamily((0.1, 0.1), 0.3))


# ---------------------------------------------------------------------------
# recursion and sup bound


def test_recursion_zero_field():
    u = Field.zeros(big_grid())
    bf = centered_family(j_max=6)
    check = verify_recursion(u, bf)
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
    check = sup_bound(verify_recursion(u, bf), u, bf)
    assert check.prefactor == 16.0
    assert check.predicted == pytest.approx(16.0, rel=1e-12)
    assert check.observed == 0.0
    assert check.passed


def test_sup_bound_prefactor_n3():
    # (3/2)^12 = 531441/4096, exactly representable
    g = Grid2(64, 64, 0.1)
    u = Field.zeros(g)
    bf = BallFamily((3.2, 3.2), 2.0, n=3, j_max=4)
    check = sup_bound(verify_recursion(u, bf), u, bf)
    assert check.prefactor == 1.5 ** 12 == 129.746337890625


def test_sup_bound_dominates_on_smooth_field():
    g = big_grid()
    u = Field.from_function(g, lambda x, y: np.sin(x) * np.cos(y))
    bf = centered_family(j_max=6)
    rec = verify_recursion(u, bf)
    check = sup_bound(rec, u, bf)
    assert rec.passed and check.passed
    assert check.predicted == pytest.approx(
        rec.c_max * 16.0 * max(1.0, check.lq_norm), rel=1e-12)
    assert check.predicted >= check.observed


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
    with pytest.raises(MoserGeometryError):
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
    d = rep.to_dict()
    assert set(d) == {"center", "r0", "r_inf", "n", "j_max", "radii",
                      "exponents", "masses", "recursion", "sup_bound",
                      "caccioppoli", "epsilon0", "passed"}
    assert d["epsilon0"] == 0.25
    assert len(d["caccioppoli"]) == 2
    again = moser_report(u, bf, s_values=(0.0, 1.0), epsilon0=0.25)
    assert json.dumps(rep.to_dict()) == json.dumps(again.to_dict())

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
    assert min_cells_per_ball == 50


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
    """check_geometry names thin annuli exactly when caccioppoli_check
    would raise on them after the solve."""
    g = Grid2(n, n, 1.0 / n)
    bf = BallFamily((0.5, 0.5), r0, n=dim, j_max=j_max)
    u = Field.full(g, 1.0)
    try:
        check_geometry(g, bf)
    except MoserGeometryError as err:
        if "annulus" not in str(err):
            return
        with pytest.raises(MoserGeometryError, match="no annulus"):
            caccioppoli_check(u, bf, 0.0)
        return
    caccioppoli_check(u, bf, 0.0)


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
