"""Radial densities of linear growth and their certification.

A profile is a convex scalar function ``t -> value`` on ``t >= 0`` inducing a
matrix density ``F(P) = profile(|P|)`` (Frobenius norm).  Three kinds are
supported:

* ``phi_mu``: the double integral of ``(1+t)^(-mu)``, the canonical density
  whose second derivative decays exactly like ``(1+t)^(-mu)``;
* ``minimal_surface``: ``sqrt(1+t^2) - 1``;
* ``combined``: ``delta * phi_mu + base``, the regularized density used by
  the continuation solver.

Every order is a plain function of the slope array: ``derivative(p, t,
order)`` evaluates the closed forms without validation, and ``d1_over_t``
and ``radial_excess`` build on it.  The stencil kernels call these
directly; ``profile_eval``, ``profile_d1``, ``profile_d2`` and
``slope_ratio`` validate ``t`` and then run the same code, so both give the
same bits.

``certify_conditions`` checks the structural conditions every density must
satisfy (zero value and slope at the origin, linear-growth sandwich,
convexity, curvature decay, mu-ellipticity), reading nu3, mu and nu6 from
the profile's terms and fitting the rest on a sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RadialProfile",
    "phi_mu",
    "minimal_surface",
    "combined",
    "profile_eval",
    "profile_d1",
    "profile_d2",
    "recession_slope",
    "GrowthConstants",
    "ConditionCheck",
    "ConditionReport",
    "certify_conditions",
]

# |mu - 2| below this switches the closed form to a series in (mu - 2); the
# direct formula loses ~|mu-2|^-1 digits to cancellation there.
_MU2_WINDOW = 1e-6
# t below this evaluates d1(t)/t by its limit d2(0) (second-order Taylor).
_ORIGIN_CUTOFF = 1e-8
# absolute slack on sign conditions (value/slope at zero, convexity).
_SIGN_TOL = 1e-10


@dataclass(frozen=True)
class RadialProfile:
    """Description of a radial density profile.

    ``kind`` is one of ``"phi_mu"``, ``"minimal_surface"``, ``"combined"``.
    ``mu`` is required for ``phi_mu`` and ``combined``; ``delta`` and ``base``
    only for ``combined``, whose ``base`` may be any profile.
    """

    kind: str
    mu: float | None = None
    delta: float | None = None
    base: "RadialProfile | None" = None

    def __post_init__(self) -> None:
        if self.kind == "phi_mu":
            if self.mu is None or not (self.mu > 1.0):
                raise ValueError("phi_mu requires mu > 1")
            if self.delta is not None or self.base is not None:
                raise ValueError("phi_mu takes no delta or base")
        elif self.kind == "minimal_surface":
            if self.mu is not None or self.delta is not None or self.base is not None:
                raise ValueError("minimal_surface takes no parameters")
        elif self.kind == "combined":
            if self.mu is None or not (self.mu > 1.0):
                raise ValueError("combined requires mu > 1")
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ValueError("combined requires delta in (0, 1)")
            if not isinstance(self.base, RadialProfile):
                raise ValueError("combined requires a base profile")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def to_dict(self) -> dict:
        """A config's ``density`` notation, without the unset fields."""
        return {k: v.to_dict() if isinstance(v, RadialProfile) else v
                for k, v in vars(self).items() if v is not None}


def phi_mu(mu: float) -> RadialProfile:
    return RadialProfile("phi_mu", mu=float(mu))


def minimal_surface() -> RadialProfile:
    return RadialProfile("minimal_surface")


def combined(delta: float, mu: float, base: RadialProfile) -> RadialProfile:
    return RadialProfile("combined", mu=float(mu), delta=float(delta), base=base)


# The closed forms take an array of slopes ``t`` of at least one dimension,
# finite and non-negative, and return fresh arrays that they update in
# place; each in-place step applies the same operation to the same operands
# as the plain expression it replaces, so the values are bit-identical to it.

def _phi_eval(mu: float, t: np.ndarray) -> np.ndarray:
    L = np.log1p(t)
    eps = mu - 2.0
    if abs(eps) < _MU2_WINDOW:
        # series in (mu - 2) around the logarithmic form t - log(1+t)
        c1 = 0.5 * L * L + L - t
        c2 = t - L - 0.5 * L * L - L * L * L / 6.0
        return (t - L) + eps * (c1 + eps * c2)
    if mu < 1.5:
        # ((1+t) expm1(-(mu-1) L) / (mu-1) + t) / (mu - 2): the form below
        # divides a difference that has already cancelled by mu - 1
        v = (1.0 - mu) * L
        np.expm1(v, out=v)
        v /= mu - 1.0
        v *= 1.0 + t
        v += t
        v /= eps
        return v
    # (t + expm1(-eps * L) / eps) / (mu - 1), accurate near mu = 2
    v = -eps * L
    np.expm1(v, out=v)
    v /= eps
    v += t
    v /= mu - 1.0
    return v


def _phi_d1(mu: float, t: np.ndarray) -> np.ndarray:
    # -expm1((1 - mu) * log1p(t)) / (mu - 1)
    v = np.log1p(t)
    v *= 1.0 - mu
    np.expm1(v, out=v)
    np.negative(v, out=v)
    v /= mu - 1.0
    return v


def _phi_d2(mu: float, t: np.ndarray) -> np.ndarray:
    v = 1.0 + t
    v **= -mu
    return v


def _ms_eval(mu: None, t: np.ndarray) -> np.ndarray:
    # t^2 / (1 + sqrt(1 + t^2))
    tt = t * t
    v = 1.0 + tt
    np.sqrt(v, out=v)
    v += 1.0
    np.divide(tt, v, out=v)
    return v


def _ms_d1(mu: None, t: np.ndarray) -> np.ndarray:
    return t / np.sqrt(1.0 + t * t)


def _ms_d2(mu: None, t: np.ndarray) -> np.ndarray:
    v = t * t
    v += 1.0
    v **= -1.5
    return v


_TERMS = {
    "phi_mu": (_phi_eval, _phi_d1, _phi_d2),
    "minimal_surface": (_ms_eval, _ms_d1, _ms_d2),
}


def derivative(p: RadialProfile, t: np.ndarray, order: int) -> np.ndarray:
    """The ``order``-th derivative of ``p`` (0 is the value) on an array of
    slopes, without validation: ``t`` must be finite, non-negative and at
    least one-dimensional.  The stencil kernels call this directly; the
    public ``profile_*`` functions validate ``t`` and then call it."""
    if p.kind == "combined":
        # delta * phi_mu + base, evaluated term by term
        v = _TERMS["phi_mu"][order](p.mu, t)
        v *= p.delta
        v += derivative(p.base, t, order)
        return v
    return _TERMS[p.kind][order](p.mu, t)


def d1_over_t(p: RadialProfile, t: np.ndarray) -> np.ndarray:
    """``d1(t)/t`` on an array of slopes, without validation, with its limit
    ``d2(0)`` below the origin cutoff."""
    small = t < _ORIGIN_CUTOFF
    ratio = derivative(p, t, 1)
    np.divide(ratio, t, out=ratio, where=~small)
    ratio[small] = derivative(p, np.zeros(1), 2)[0]
    return ratio


def radial_excess(p: RadialProfile, t: np.ndarray, ratio: np.ndarray,
                  theta: float) -> np.ndarray:
    """``(max(d2, theta * ratio) - ratio) / t^2`` for ``ratio = d1/t``, without
    validation: the coefficient of ``P P^T`` in the Hessian of ``F(|P|)``
    with the radial curvature floored at ``theta * ratio``; 0 below the
    origin cutoff, where the Hessian is ``d2(0) I``."""
    small = t < _ORIGIN_CUTOFF
    out = np.maximum(derivative(p, t, 2), theta * ratio)
    out -= ratio
    np.divide(out, t * t, out=out, where=~small)
    out[small] = 0.0
    return out


def _validated(evaluate, p: RadialProfile, t, *args):
    """``evaluate(p, t, *args)`` on validated slopes ``t``, made an array of
    at least one dimension so that the closed forms can work in place; a
    scalar ``t`` gives a float."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    if np.any(arr < 0.0):
        raise ValueError("t must be non-negative")
    out = evaluate(p, arr, *args)
    return float(out[0]) if np.ndim(t) == 0 else out


def profile_eval(p: RadialProfile, t):
    """Profile value at ``t >= 0`` (scalar or array)."""
    return _validated(derivative, p, t, 0)


def profile_d1(p: RadialProfile, t):
    """First derivative; non-negative, non-decreasing, bounded."""
    return _validated(derivative, p, t, 1)


def profile_d2(p: RadialProfile, t):
    """Second derivative; non-negative, decaying at infinity."""
    return _validated(derivative, p, t, 2)


def slope_ratio(p: RadialProfile, t):
    """``d1(t)/t`` with its limit ``d2(0)`` used below the origin cutoff."""
    return _validated(d1_over_t, p, t)


def recession_slope(p: RadialProfile) -> float:
    """Limit of value/t as t -> infinity (the slope at infinity)."""
    return _tail(p)[0]


def _tail(p: RadialProfile) -> tuple[float, float, float]:
    """``(nu3, mu, nu6)`` from the terms of ``p``: the slope at infinity,
    and the smallest ``mu``, with the largest ``nu6``, such that
    ``min(d2, d1/t) >= nu6 (1+t)^(-mu)`` for every ``t``.

    A ``phi_mu`` term's floor is ``(1+t)^(-mu)`` (its d1/t is a mean of
    d2), and ``minimal_surface``'s is ``(1+t^2)^(-3/2) >= (1+t)^(-3)``,
    tight at infinity.  The floor of a sum is at least the sum of its
    terms' floors, and at most its d2, which tends to the summed weight of
    the smallest-exponent terms times ``(1+t)^(-mu)``.
    """
    if p.kind == "phi_mu":
        return 1.0 / (p.mu - 1.0), p.mu, 1.0
    if p.kind == "minimal_surface":
        return 1.0, 3.0, 1.0
    nu3, mu, nu6 = _tail(p.base)
    nu3 = p.delta / (p.mu - 1.0) + nu3
    if p.mu < mu:
        return nu3, p.mu, p.delta
    return nu3, mu, nu6 + p.delta if p.mu == mu else nu6


@dataclass(frozen=True)
class GrowthConstants:
    """The structural constants of a density.

    ``nu1 * t - nu2 <= value <= nu3 * t + nu4`` (linear growth sandwich),
    ``max(d2, d1/t) <= nu5 / (1+t)`` (curvature decay), and
    ``min(d2, d1/t) >= nu6 * (1+t)^(-mu_certified)`` (mu-ellipticity).
    ``nu3``, ``mu_certified`` and ``nu6`` come from the density's terms,
    ``nu5`` from the sample and the tail ray, the rest from the sample.
    """

    nu1: float
    nu2: float
    nu3: float
    nu4: float
    nu5: float
    nu6: float | None = None
    mu_certified: float | None = None

    def __post_init__(self) -> None:
        if self.nu1 > self.nu3 + 1e-12:
            raise ValueError("nu1 must not exceed nu3")
        if min(self.nu2, self.nu4) < 0.0:
            raise ValueError("nu2 and nu4 must be non-negative")
        if not (self.nu5 > 0.0):
            raise ValueError("nu5 must be positive")
        if (self.nu6 is None) != (self.mu_certified is None):
            raise ValueError("nu6 and mu_certified come together")


@dataclass(frozen=True)
class ConditionCheck:
    """One structural condition: whether it holds, its worst violation
    and where."""

    name: str
    passed: bool
    worst_violation: float
    at_t: float | None = None
    note: str = ""


@dataclass
class ConditionReport:
    """Every condition of one profile, with its fitted constants."""

    profile: RadialProfile
    t_max: float
    sample_count: int
    checks: dict[str, ConditionCheck] = field(default_factory=dict)
    constants: GrowthConstants | None = None
    all_passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.all_passed = all(c.passed for c in self.checks.values())


def _sample_grid(t_max: float, samples: int) -> np.ndarray:
    """Log-spaced grid on (0, t_max] with a linear cluster in [0, 1] and 0."""
    n_lin = max(samples // 4, 8)
    n_log = max(samples - n_lin, 8)
    lo = min(1e-8, t_max * 1e-8)
    grid = np.concatenate([
        [0.0],
        np.linspace(0.0, min(1.0, t_max), n_lin),
        np.geomspace(lo, t_max, n_log),
    ])
    # sorted and deduplicated by hand: np.unique imports numpy.ma
    grid.sort()
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


# The tail ray ends at least here.  It serves the two conditions a finite
# sample cannot settle: that the curvature quotient ``d2 (1+t)`` stays
# bounded, and that the ellipticity floor has not vanished (it underflows
# for a steep enough ``phi_mu``).
_TAIL_END = 1e4


def _ray(t_max: float) -> np.ndarray:
    """160 uniform-log points over the four decades below the tail's end."""
    end = max(t_max, _TAIL_END)
    return np.geomspace(end * 1e-4, end, 160)


def _bounded_on_ray(values: np.ndarray) -> bool:
    """True when ``values``, taken on the ray, do not increase on its last
    quarter."""
    tail = values[-40:]
    scale = max(1.0, float(np.max(np.abs(tail))))
    return bool(np.all(np.diff(tail) <= 1e-13 * scale))


def certify_conditions(p: RadialProfile, t_max: float = 100.0,
                       samples: int = 1000) -> ConditionReport:
    """Check the structural conditions on a sample grid and fit constants.

    Requires ``t_max > 0`` and ``samples >= 100``.  ``nu1``, ``nu2``, ``nu4``
    are fitted on the sample grid up to ``t_max``; ``nu5`` and the asymptotic
    conditions also read the tail up to ``max(t_max, 1e4)``; ``nu3``, the
    exponent and ``nu6`` are the density's own (``_tail``).
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if samples < 100:
        raise ValueError("samples must be at least 100")
    # Each order is evaluated once per grid, by the unvalidated kernels:
    # both grids are finite and non-negative by construction.
    t = _sample_grid(t_max, samples)
    val, d1, d2 = (derivative(p, t, order) for order in range(3))
    ratio = d1_over_t(p, t)
    ray = _ray(t_max)
    ray_d1, ray_d2 = derivative(p, ray, 1), derivative(p, ray, 2)

    checks: dict[str, ConditionCheck] = {}

    # t = 0 is the sample's first point
    v0, s0 = abs(float(val[0])), abs(float(d1[0]))
    checks["value_zero_at_origin"] = ConditionCheck(
        "value_zero_at_origin", v0 <= _SIGN_TOL, v0, 0.0)
    checks["slope_zero_at_origin"] = ConditionCheck(
        "slope_zero_at_origin", s0 <= _SIGN_TOL, s0, 0.0)

    worst_d2 = float(np.min(d2))
    k_d2 = int(np.argmin(d2))
    checks["convexity"] = ConditionCheck(
        "convexity", worst_d2 >= -_SIGN_TOL, max(0.0, -worst_d2), float(t[k_d2]))

    # linear-growth sandwich: two-pass fit.  nu3 is the slope at infinity
    # (d1 is non-decreasing so its limit equals the recession slope); nu1 is
    # the smallest chord slope at t >= 1, nu2 mops up what is left below.
    nu3, mu_cert, nu6 = _tail(p)
    nu4 = max(0.0, float(np.max(val - nu3 * t)))
    big = t >= 1.0
    if np.any(big):
        nu1 = float(np.min(val[big] / t[big]))
    else:
        nu1 = float(d1[-1])
    nu1 = min(nu1, nu3)
    nu2 = max(0.0, float(np.max(nu1 * t - val)))
    # The slope d1 is non-decreasing for a convex profile, so checking it
    # against the analytic recession slope certifies F <= nu3 t + nu4 for
    # every t, not just on the sample.
    slope_peak = max(float(np.max(d1)), float(np.max(ray_d1)))
    growth_ok = slope_peak <= nu3 * (1.0 + 1e-9) + 1e-12
    checks["linear_growth_sandwich"] = ConditionCheck(
        "linear_growth_sandwich", nu1 > 0.0 and growth_ok,
        max(0.0, slope_peak - nu3), None,
        note="constants fitted on the sample")

    # curvature decay: d2 <= nu5 / (1+t), and the full upper corridor
    # max(d2, d1/t) <= nu5 / (1+t) used by the Hessian bound.
    upper = np.maximum(d2, ratio) * (1.0 + t)
    ray_upper = np.maximum(ray_d2, ray_d1 / ray) * (1.0 + ray)
    d2_decay = d2 * (1.0 + t)
    nu5_d2 = float(np.max(d2_decay))
    d2_bounded = _bounded_on_ray(ray_d2 * (1.0 + ray))
    checks["curvature_decay"] = ConditionCheck(
        "curvature_decay", d2_bounded and nu5_d2 > 0.0, 0.0,
        float(t[int(np.argmax(d2_decay))]),
        note=f"d2*(1+t) peak {nu5_d2:.6g}")
    # The corridor tends to the recession slope (d1 (1+t)/t -> nu3 while
    # the curvature part vanishes), so a globally valid constant is at
    # least nu3; boundedness follows from the slope and curvature audits.
    # Its peak is read on the sample and on the ray (from t = 1); a tie
    # keeps the sample's point.
    k, j = int(np.argmax(upper)), int(np.argmax(ray_upper))
    at_t, peak = ((float(t[k]), float(upper[k])) if upper[k] >= ray_upper[j]
                  else (float(ray[j]), float(ray_upper[j])))
    nu5 = max(peak, nu3)
    checks["hessian_upper_corridor"] = ConditionCheck(
        "hessian_upper_corridor", d2_bounded and growth_ok and nu5 > 0.0, 0.0,
        at_t,
        note=f"max(d2, d1/t)*(1+t) peak {peak:.6g}, recession floor {nu3:.6g}")

    # mu-ellipticity floor: the density's terms bound it by nu6 (1+t)^(-mu)
    # (_tail).  The floor does not increase, so one that is not positive at
    # the tail's end (it underflowed) bounds no power from below.
    if min(ray_d2[-1], ray_d1[-1] / ray[-1]) <= 0.0:
        checks["mu_ellipticity"] = ConditionCheck(
            "mu_ellipticity", False, float(np.min(np.minimum(d2, ratio))),
            None, note="no exponent certified the lower bound")
        nu6 = mu_cert = None
    else:
        checks["mu_ellipticity"] = ConditionCheck(
            "mu_ellipticity", True, 0.0, None,
            note=f"mu={mu_cert:g}, nu6={nu6:.6g}")

    constants = GrowthConstants(nu1=nu1, nu2=nu2, nu3=nu3, nu4=nu4, nu5=nu5,
                                nu6=nu6, mu_certified=mu_cert)
    return ConditionReport(profile=p, t_max=float(t_max),
                           sample_count=len(t), checks=checks,
                           constants=constants)
