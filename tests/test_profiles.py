"""Profile values, derivatives, matrix calculus, and certification."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lingrow import profiles
from lingrow.cli import _finite_or_null
from lingrow.config import ConfigError, parse_config
from lingrow.profiles import (GrowthConstants, RadialProfile,
                              certify_conditions, combined,
                              minimal_surface, phi_mu, profile_d1, profile_d2,
                              profile_eval, radial_excess, recession_slope,
                              slope_ratio)

from .oracles import d1_fd, d2_fd, grad_fd, hess_quadform_fd, phi_dblquad, phi_quad

MU_SET = (1.2, 1.5, 2.0, 2.5, 3.0)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def cell_flux(p, P):
    """The gradient of ``F(P) = profile(|P|)`` as the residual forms it per
    difference cell: ``d1(|P|)/|P| * P``."""
    return slope_ratio(p, float(np.sqrt(np.sum(P * P)))) * P


def cell_form(p, P, Q):
    """The Hessian of ``F`` at P applied to (Q, Q) as ``energy.Hessian``
    forms it per difference cell at theta 0: ``a |Q|^2 + b (P.Q)^2`` with
    ``a = d1/t`` and ``b`` the radial excess ``(d2 - a)/t^2``."""
    t = np.array([np.sqrt(np.sum(P * P))])
    a = slope_ratio(p, t)
    b = radial_excess(p, t, a, 0.0)
    return float(a[0] * np.sum(Q * Q) + b[0] * np.sum(P * Q) ** 2)


# ---------------------------------------------------------------------------
# frozen values


def test_value_zero_at_origin():
    for p in (phi_mu(2.0), minimal_surface(), combined(0.1, 1.5, minimal_surface())):
        assert profile_eval(p, 0.0) == 0.0
        assert profile_d1(p, 0.0) == 0.0


def test_phi2_at_one_matches_log_form():
    assert profile_eval(phi_mu(2.0), 1.0) == pytest.approx(1.0 - math.log(2.0),
                                                           rel=1e-14)


def test_phi3_at_one_is_quarter():
    assert profile_eval(phi_mu(3.0), 1.0) == pytest.approx(0.25, rel=1e-14)


def test_double_quadrature_spot_checks():
    for mu in (1.2, 2.0, 3.0):
        for r in (0.5, 1.0, 7.0):
            v = profile_eval(phi_mu(mu), r)
            assert abs(v - phi_dblquad(mu, r)) <= 1e-8 * (1.0 + abs(v))


def test_first_derivative_values():
    assert profile_d1(phi_mu(2.0), 1.0) == pytest.approx(0.5, rel=1e-14)
    assert profile_d1(minimal_surface(), 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-14)


def test_second_derivative_values():
    assert profile_d2(phi_mu(2.5), 0.0) == 1.0
    assert profile_d2(phi_mu(3.0), 1.0) == pytest.approx(0.125, rel=1e-14)
    assert profile_d2(minimal_surface(), 2.0) == pytest.approx(5.0 ** -1.5,
                                                               rel=1e-14)


def test_density_grad_values():
    assert np.all(cell_flux(phi_mu(2.0), np.zeros((1, 2))) == 0.0)
    g = cell_flux(phi_mu(2.0), np.array([[1.0, 0.0]]))
    assert g[0, 0] == pytest.approx(0.5, rel=1e-14)
    assert g[0, 1] == 0.0
    g = cell_flux(minimal_surface(), np.array([[3.0, 4.0]]))
    assert g[0, 0] == pytest.approx(3.0 / math.sqrt(26.0), rel=1e-12)
    assert g[0, 1] == pytest.approx(4.0 / math.sqrt(26.0), rel=1e-12)


def test_hess_quadform_values():
    P = np.array([[1.0, 0.0]])
    assert cell_form(phi_mu(2.0), P, np.zeros((1, 2))) == 0.0
    v = cell_form(phi_mu(2.0), np.zeros((1, 2)), np.array([[1.0, 1.0]]))
    assert v == pytest.approx(2.0, rel=1e-14)
    v = cell_form(phi_mu(3.0), P, np.array([[0.0, 1.0]]))
    assert v == pytest.approx(0.375, rel=1e-14)


def test_recession_slopes():
    assert recession_slope(phi_mu(3.0)) == pytest.approx(0.5, rel=1e-15)
    assert recession_slope(minimal_surface()) == 1.0
    assert recession_slope(combined(0.1, 2.0, minimal_surface())) == \
        pytest.approx(1.1, rel=1e-15)
    # numeric cross-check of the limit value / t at two large arguments
    for p in (phi_mu(3.0), minimal_surface()):
        k = recession_slope(p)
        for t in (1e6, 1e8):
            assert rel_err(profile_eval(p, t) / t, k) <= 1e-5


# ---------------------------------------------------------------------------
# quadrature equivalence across the mu set


def test_quadrature_equivalence_sweep():
    ts = np.geomspace(1e-3, 100.0, 50)
    for mu in MU_SET:
        vals = profile_eval(phi_mu(mu), ts)
        for t, v in zip(ts, vals):
            q = phi_quad(mu, float(t))
            assert abs(v - q) <= 1e-8 * (1.0 + abs(q)), (mu, t)


def test_near_two_series_window():
    for mu in (2.0 - 1e-7, 2.0 + 1e-7, 2.0 - 1e-9, 2.0 + 1e-9):
        for r in (0.1, 1.0, 10.0, 100.0):
            v = profile_eval(phi_mu(mu), r)
            q = phi_quad(mu, r)
            assert abs(v - q) <= 1e-10 * (1.0 + abs(q)), (mu, r)


@pytest.mark.parametrize("gap", [1e-10, 1e-6, 1e-3])
def test_phi_mu_next_to_one_matches_quadrature(gap):
    """Below mu = 1.5 the closed form is regrouped so that no difference
    cancels as mu -> 1."""
    mu = 1.0 + gap
    for r in (0.1, 1.0, 10.0, 100.0, 1e4):
        assert rel_err(profile_eval(phi_mu(mu), r), phi_quad(mu, r)) \
            <= 1e-11, (gap, r)


def test_continuity_across_mu_equals_two():
    ts = np.geomspace(1e-2, 100.0, 20)
    base = profile_eval(phi_mu(2.0), ts)
    for mu in (2.0 - 1e-9, 2.0 + 1e-9):
        v = profile_eval(phi_mu(mu), ts)
        assert np.all(np.abs(v - base) <= 1e-8 * (1.0 + np.abs(base)))


# ---------------------------------------------------------------------------
# derivative consistency with finite differences


@pytest.mark.parametrize("p", [phi_mu(mu) for mu in MU_SET]
                         + [minimal_surface(), combined(0.1, 1.5, minimal_surface())])
def test_derivatives_match_finite_differences(p):
    for t in np.geomspace(1e-3, 100.0, 50):
        t = float(t)
        f = lambda s: profile_eval(p, s)
        h1 = min(t / 3.0, 0.01 * (1.0 + t))
        assert rel_err(d1_fd(f, t, h1), profile_d1(p, t)) <= 1e-5, t
        h2 = min(t / 3.0, 4e-3 * (1.0 + t))
        assert rel_err(d2_fd(f, t, h2), profile_d2(p, t)) <= 1e-5, t


def test_matrix_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(7)
    p = phi_mu(1.5)
    F = lambda P: profile_eval(p, float(np.sqrt(np.sum(P * P))))
    for _ in range(30):
        scale = 10.0 ** rng.uniform(-6, 3)
        P = rng.normal(size=(1, 2))
        P *= scale / np.linalg.norm(P)
        Q = rng.normal(size=(1, 2))
        Q /= np.linalg.norm(Q)
        t = float(np.linalg.norm(P))
        hg = min(t / 3.0, 0.01 * (1.0 + t))
        g = cell_flux(p, P)
        g_fd = grad_fd(F, P, hg)
        assert np.max(np.abs(g - g_fd)) <= 1e-4 * max(np.max(np.abs(g)), 1e-300)
        hh = min(t / 3.0, 3e-3 * (1.0 + t))
        q = cell_form(p, P, Q)
        q_fd = hess_quadform_fd(F, P, Q, hh)
        assert rel_err(q_fd, q) <= 1e-4


def test_hessian_sandwich_between_radial_bounds():
    rng = np.random.default_rng(11)
    for p in (phi_mu(1.2), phi_mu(3.0), minimal_surface()):
        for _ in range(50):
            P = rng.normal(size=(1, 2)) * 10.0 ** rng.uniform(-6, 3)
            Q = rng.normal(size=(1, 2))
            t = float(np.linalg.norm(P))
            lo = min(profile_d2(p, t), profile_d1(p, t) / t)
            hi = max(profile_d2(p, t), profile_d1(p, t) / t)
            q2 = float(np.sum(Q * Q))
            v = cell_form(p, P, Q)
            assert lo * q2 - 1e-12 <= v <= hi * q2 + 1e-12


# ---------------------------------------------------------------------------
# fitted-constant properties


def test_ellipticity_corridor_with_fitted_constants():
    rng = np.random.default_rng(3)
    for mu in MU_SET:
        p = phi_mu(mu)
        c = certify_conditions(p, 100.0, 1000).constants
        assert c.nu6 is not None and c.mu_certified == mu
        for _ in range(200):
            P = rng.normal(size=(1, 2)) * 10.0 ** rng.uniform(-3, 3)
            Q = rng.normal(size=(1, 2))
            t = float(np.linalg.norm(P))
            q2 = float(np.sum(Q * Q))
            v = cell_form(p, P, Q)
            lower = c.nu6 * (1.0 + t) ** (-c.mu_certified) * q2
            upper = c.nu5 * (1.0 + t) ** (-1.0) * q2
            assert v >= lower * (1.0 - 1e-9)
            assert v <= upper * (1.0 + 1e-9)


def test_coercivity_and_gradient_bound():
    rng = np.random.default_rng(5)
    for p in (phi_mu(1.5), phi_mu(3.0), minimal_surface()):
        c = certify_conditions(p, 100.0, 1000).constants
        k = recession_slope(p)
        for _ in range(200):
            P = rng.normal(size=(1, 2)) * 10.0 ** rng.uniform(-3, 2)
            t = float(np.linalg.norm(P))
            g = cell_flux(p, P)
            dot = float(np.sum(g * P))
            assert dot >= c.nu1 * t - c.nu2 - 1e-9 * (1.0 + t)
            assert float(np.linalg.norm(g)) <= k + 1e-9


def test_combined_additivity_is_exact():
    base = minimal_surface()
    p = combined(0.25, 1.5, base)
    ts = np.geomspace(1e-4, 1e3, 40)
    for order, fn in ((0, profile_eval), (1, profile_d1), (2, profile_d2)):
        lhs = fn(p, ts)
        rhs = 0.25 * fn(phi_mu(1.5), ts) + fn(base, ts)
        assert np.array_equal(lhs, rhs), order


@pytest.mark.parametrize("p", [phi_mu(1.5), minimal_surface(),
                               combined(0.1, 1.5, minimal_surface())])
@pytest.mark.parametrize("theta", [0.0, 1e-2, 1.0])
def test_the_origin_cutoff_splits_the_slope_ratio_and_the_excess(p, theta):
    """Below t = 1e-8 the slope ratio is its limit d2(0) and the radial
    excess 0; from 1e-8 on they are d1(t)/t and the floored formula, bit
    for bit, on the array path and the scalar path alike."""
    t = np.array([0.0, 0.5e-8, 1e-8, 2e-8, 1.0])
    ratio = slope_ratio(p, t)
    excess = radial_excess(p, t, ratio, theta)
    assert [slope_ratio(p, float(x)) for x in t] == list(ratio)
    d2_origin = profile_d2(p, 0.0)
    assert list(ratio[:2]) == [d2_origin, d2_origin]
    assert list(excess[:2]) == [0.0, 0.0]
    above = t[2:]
    assert np.array_equal(ratio[2:], profile_d1(p, above) / above)
    floored = np.maximum(profile_d2(p, above), theta * ratio[2:])
    assert np.array_equal(excess[2:], (floored - ratio[2:]) / (above * above))


# ---------------------------------------------------------------------------
# certification reports


def test_certify_phi_mu_family():
    for mu in MU_SET:
        rep = certify_conditions(phi_mu(mu), 100.0, 1000)
        assert rep.all_passed, mu
        c = rep.constants
        assert c.mu_certified == mu
        assert c.nu6 == pytest.approx(1.0, abs=1e-9)
        assert c.nu3 == pytest.approx(1.0 / (mu - 1.0), rel=1e-15)
        assert 0.0 < c.nu1 <= c.nu3


def test_certify_minimal_surface():
    rep = certify_conditions(minimal_surface(), 100.0, 1000)
    assert rep.all_passed
    c = rep.constants
    assert c.mu_certified == 3.0
    assert c.nu6 == pytest.approx(1.0, abs=1e-9)
    assert c.nu3 == 1.0
    assert c.nu1 == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert c.nu5 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_a_certificate_evaluates_each_order_once_per_grid(monkeypatch):
    """Value, d1, d2 and d1/t once on the sample grid (d1/t takes two
    calls), and d1 and d2 once on the tail ray: seven in all.  Both grids
    are built finite and non-negative, so neither is validated."""
    calls, derivative = [], profiles.derivative

    def counted(p, t, order):
        calls.append(order)
        return derivative(p, t, order)

    def validated(*args):
        raise AssertionError("the certificate validated its own grid")

    monkeypatch.setattr(profiles, "derivative", counted)
    monkeypatch.setattr(profiles, "_validated", validated)
    rep = certify_conditions(minimal_surface())
    assert rep.all_passed
    assert len(calls) <= 7


def test_certify_small_sample_run():
    rep = certify_conditions(phi_mu(1.5), 10.0, 100)
    assert rep.all_passed
    assert rep.constants.nu3 == pytest.approx(2.0, rel=1e-15)


def test_certify_combined_profiles():
    rep = certify_conditions(combined(0.1, 1.5, minimal_surface()), 100.0, 1000)
    assert rep.all_passed
    assert rep.constants.mu_certified == 1.5
    assert rep.constants.nu6 == 0.1

    # the smallest exponent of the nest, not the outer one
    rep = certify_conditions(combined(0.05, 1.9, phi_mu(1.2)), 100.0, 1000)
    assert rep.all_passed
    assert rep.constants.mu_certified == 1.2


@pytest.mark.parametrize("t_max", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("p, mu", [
    (combined(0.2, 1.3, combined(0.1, 1.5, minimal_surface())), 1.3),
    (combined(0.1, 1.5, combined(0.2, 1.3, minimal_surface())), 1.3),
    (combined(0.1, 1.5, phi_mu(1.2)), 1.2),
    (combined(0.1, 1.2, phi_mu(1.5)), 1.2),
], ids=["ms-inner-1.5", "ms-inner-1.3", "phi-inner-1.2", "phi-inner-1.5"])
def test_a_combined_density_certifies_its_smallest_sustained_exponent(
        p, mu, t_max):
    """The same sum certifies the same exponent however it is nested, and
    it is the smallest term's: the floor of combined(0.1, 1.2, phi_mu(1.5))
    is at least 0.1 (1+t)^-1.2, though at t = 1e4 it still decays faster."""
    rep = certify_conditions(p, t_max, 1000)
    assert rep.all_passed, [k for k, c in rep.checks.items() if not c.passed]
    assert rep.constants.mu_certified == mu


def term_exponents(p, weight=1.0):
    """(exponent, weight) of each term of the nest: mu and the delta that
    scales it for a phi_mu term, 3 for minimal_surface, whose floor
    (1+t^2)^-1.5 is at least (1+t)^-3."""
    if p.kind == "combined":
        return [(p.mu, p.delta)] + term_exponents(p.base)
    return [(3.0 if p.mu is None else p.mu, weight)]


@pytest.mark.parametrize("t_max", [1.0, 100.0, 1e8])
@pytest.mark.parametrize("base", [minimal_surface(), phi_mu(1.2),
                                  phi_mu(3.5)],
                         ids=["ms", "phi1.2", "phi3.5"])
@pytest.mark.parametrize("mu", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("delta", [1e-1, 1e-5, 1e-8])
def test_a_regularized_density_certifies_its_smallest_term(delta, mu, base,
                                                            t_max):
    """Down to delta 1e-8, where the tail at 1e4 is still in the crossover
    between the terms, the certificate passes with the smallest term's
    exponent at every t_max."""
    rep = certify_conditions(combined(delta, mu, base), t_max, 1000)
    assert rep.all_passed, [k for k, c in rep.checks.items() if not c.passed]
    assert rep.constants.mu_certified == min(mu, 3.0 if base.mu is None
                                             else base.mu)


def nests(depth):
    base = st.one_of(st.just(minimal_surface()),
                     st.floats(1.05, 6.0).map(phi_mu))
    layers = st.lists(st.tuples(st.floats(1e-10, 0.9), st.floats(1.05, 6.0)),
                      min_size=1, max_size=depth)

    def nest(base, layers):
        for delta, mu in layers:
            base = combined(delta, mu, base)
        return base

    return st.builds(nest, base, layers)


@given(nests(3), st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e),
       st.integers(100, 2000))
@example(combined(0.1, 4.0, minimal_surface()), 100.0, 1000)
def test_a_nest_certifies_its_smallest_term_with_its_weight(p, t_max,
                                                            samples):
    """The floor min(d2, d1/t) of a sum is at least the sum of its terms'
    floors, and tends to it at infinity, so the smallest exponent holds
    with nu6 the weight of the terms that carry it, whatever the sample."""
    terms = term_exponents(p)
    mu = min(m for m, _ in terms)
    rep = certify_conditions(p, t_max, samples)
    assert rep.all_passed, [k for k, c in rep.checks.items() if not c.passed]
    assert rep.constants.mu_certified == mu
    weight = sum(w for m, w in terms if m == mu)
    assert rep.constants.nu6 == pytest.approx(weight, rel=1e-12)
    assert rep.constants.nu6 == certify_conditions(p).constants.nu6


@pytest.mark.parametrize("t_max", [0.1, 0.5, 1.0, 100.0])
@pytest.mark.parametrize("p", [
    minimal_surface(),
    combined(1e-6, 1.5, minimal_surface()),
    combined(0.1, 1.5, minimal_surface()),
], ids=["ms", "combined_1e-6", "combined_0.1"])
def test_the_corridor_constants_hold_off_the_sample(p, t_max):
    """nu6 bounds the floor and nu5 the corridor on twenty decades of
    slopes, however short the sample: the corridor of minimal_surface peaks
    at sqrt(2) at t = 1, and a small delta term sets the floor only far
    beyond t_max."""
    c = certify_conditions(p, t_max, 1000).constants
    t = np.concatenate(([0.0], np.geomspace(1e-8, 1e12, 2001)))
    d2, ratio = profile_d2(p, t), slope_ratio(p, t)
    floor = np.minimum(d2, ratio) * (1.0 + t) ** c.mu_certified
    assert np.min(floor) >= c.nu6 * (1.0 - 1e-9)
    upper = np.maximum(d2, ratio) * (1.0 + t)
    assert c.nu5 >= (1.0 - 1e-4) * np.max(upper)


@pytest.mark.parametrize("t_max", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("p, mu", [
    (minimal_surface(), 3.0),
    (combined(0.1, 1.5, minimal_surface()), 1.5),
], ids=["minimal_surface", "combined_ms"])
def test_small_t_max_still_reads_the_tail(p, mu, t_max):
    # the asymptotic conditions are read up to 1e4 whatever the sample range
    rep = certify_conditions(p, t_max, 100)
    assert rep.all_passed, [k for k, c in rep.checks.items() if not c.passed]
    assert rep.constants.mu_certified == mu


def test_a_quotient_still_rising_on_the_tail_is_unbounded():
    ray = profiles._ray(100.0)
    assert not profiles._bounded_on_ray(np.log1p(ray))
    assert profiles._bounded_on_ray(1.0 / (1.0 + ray))
    # flat within round-off counts as bounded
    ray = profiles._ray(1.0)
    assert profiles._bounded_on_ray(2.0 + 1e-15 * ray / ray[-1])


@pytest.mark.parametrize("t_max", [1.0, 100.0])
def test_underflowing_floor_certifies_no_mu(t_max):
    # (1+t)^-1000 underflows to 0 beyond t ~ 2, so no power bounds the
    # floor from below on the tail
    rep = certify_conditions(phi_mu(1000.0), t_max, 100)
    assert not rep.checks["mu_ellipticity"].passed
    assert rep.constants.mu_certified is None


def test_report_serializes_one_entry_per_condition():
    rep = certify_conditions(phi_mu(2.0), 100.0, 1000)
    payload = json.loads(json.dumps(_finite_or_null(rep)))
    assert payload["all_passed"] is True
    assert set(payload["checks"]) == {
        "value_zero_at_origin", "slope_zero_at_origin", "convexity",
        "linear_growth_sandwich", "curvature_decay",
        "hessian_upper_corridor", "mu_ellipticity",
    }
    for entry in payload["checks"].values():
        assert entry["passed"] is True
    assert payload["constants"]["nu6"] is not None


# ---------------------------------------------------------------------------
# validation


def test_parameter_validation():
    with pytest.raises(ValueError):
        phi_mu(1.0)
    with pytest.raises(ValueError):
        phi_mu(0.5)
    with pytest.raises(ValueError):
        RadialProfile("minimal_surface", mu=2.0)
    with pytest.raises(ValueError):
        combined(0.0, 1.5, minimal_surface())
    with pytest.raises(ValueError):
        combined(1.0, 1.5, minimal_surface())
    with pytest.raises(ValueError):
        RadialProfile("unknown")
    # a combined base is allowed: the nested density is the sum of its terms
    nested = combined(0.1, 1.5, combined(0.2, 1.3, minimal_surface()))
    t = np.array([0.0, 0.5, 3.0, 40.0])
    for fn in (profile_eval, profile_d1, profile_d2):
        terms = (0.1 * fn(phi_mu(1.5), t) + 0.2 * fn(phi_mu(1.3), t)
                 + fn(minimal_surface(), t))
        assert np.allclose(fn(nested, t), terms, rtol=1e-14, atol=0.0)
    assert recession_slope(nested) == pytest.approx(0.1 / 0.5 + 0.2 / 0.3 + 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: RadialProfile("phi_mu", mu=2.0, delta=0.1), "takes no delta"),
    (lambda: RadialProfile("phi_mu", mu=2.0, base=minimal_surface()),
     "takes no delta or base"),
    (lambda: RadialProfile("combined", mu=1.0, delta=0.1,
                           base=minimal_surface()), "requires mu > 1"),
    (lambda: RadialProfile("combined", mu=1.5, delta=0.1),
     "requires a base profile"),
    (lambda: parse_config({"density": {"kind": "mystery"}}),
     "unknown profile kind 'mystery'"),
])
def test_profile_construction_rejects(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("t", [math.nan, math.inf, [1.0, -math.inf]])
def test_non_finite_argument_rejected(t):
    for fn in (profile_eval, profile_d1, profile_d2):
        with pytest.raises(ValueError, match="t must be finite"):
            fn(phi_mu(2.0), t)


@pytest.mark.parametrize("constants, message", [
    ((2.0, 0.0, 1.0, 0.0, 1.0), "nu1 must not exceed nu3"),
    ((1.0, -1.0, 1.0, 0.0, 1.0), "nu2 and nu4 must be non-negative"),
    ((1.0, 0.0, 1.0, -1.0, 1.0), "nu2 and nu4 must be non-negative"),
    ((1.0, 0.0, 1.0, 0.0, 0.0), "nu5 must be positive"),
    ((1.0, 0.0, 1.0, 0.0, 1.0, 0.5), "nu6 and mu_certified come together"),
])
def test_growth_constants_invariants(constants, message):
    """Only direct construction reaches these: ``certify_conditions``
    fits constants that satisfy them."""
    with pytest.raises(ValueError, match=message):
        GrowthConstants(*constants)


def test_negative_argument_rejected():
    for fn in (profile_eval, profile_d1, profile_d2):
        with pytest.raises(ValueError):
            fn(phi_mu(2.0), -1.0)


def test_certify_input_validation():
    with pytest.raises(ValueError):
        certify_conditions(phi_mu(2.0), 0.0, 1000)
    with pytest.raises(ValueError):
        certify_conditions(phi_mu(2.0), 100.0, 99)


def test_profile_dict_round_trip():
    """``to_dict`` writes the config notation that builds the profile."""
    for p in (combined(0.1, 1.7, minimal_surface()), phi_mu(2.5)):
        assert parse_config({"density": p.to_dict()}).density == p
    with pytest.raises(ConfigError, match="must be a dict with a 'kind'"):
        parse_config({"density": {"mu": 2.0}})


# ---------------------------------------------------------------------------
# structural properties


@given(st.floats(1.01, 6.0), st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_midpoint_convexity(mu, a, b):
    p = phi_mu(mu)
    mid = profile_eval(p, 0.5 * (a + b))
    avg = 0.5 * (profile_eval(p, a) + profile_eval(p, b))
    assert mid <= avg + 1e-12 * (1.0 + avg)


@given(st.floats(1.01, 6.0))
def test_slope_monotone_and_curvature_nonnegative(mu):
    p = phi_mu(mu)
    ts = np.linspace(0.0, 30.0, 200)
    d1 = profile_d1(p, ts)
    assert np.all(np.diff(d1) >= -1e-14)
    assert np.all(profile_d2(p, ts) >= 0.0)
    assert np.all(d1 <= recession_slope(p) + 1e-12)
