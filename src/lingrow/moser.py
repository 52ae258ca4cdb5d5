"""Numerical audit of the ball-iteration route to interior boundedness.

The estimate chain behind the interior sup bounds is made measurable: for a
shrinking family of concentric balls ``B_j`` with radii
``R_j = R0 (n-1)/n + ((n-1)/n)^j R0/n`` and exponents
``s_j = (n/(n-1))^j - 1``, the truncated masses
``a_j = max(1, integral of |u|^(s_j+1) over B_j)`` must satisfy a one-step
recursion ``a_{j+1}^((n-1)/n) <= c (n/(n-1))^(2j) a_j`` with a level-stable
constant; iterating it to the limit ball of radius ``R0 (n-1)/n`` yields

    sup |u| on the limit ball <= c^(n-1) (n/(n-1))^(2n(n-1))
                                 * max(1, ||u||_{L^{n/(n-1)}}).

``verify_recursion`` measures the per-level constants, ``sup_bound``
evaluates the limit inequality, ``caccioppoli_check`` measures the cutoff
inequality the recursion rests on, and ``select_radius`` picks the data-mass
radius used by the fidelity analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Ball, Field, Grid2, Mask, lp_on_log, sup_on

__all__ = [
    "BallFamily",
    "radii",
    "exponents",
    "masses",
    "RecursionCheck",
    "verify_recursion",
    "SupBoundCheck",
    "sup_bound",
    "CaccioppoliCheck",
    "caccioppoli_check",
    "select_radius",
    "MoserGeometryError",
    "check_geometry",
    "MoserReport",
    "moser_report",
    "min_cells_per_ball",
]

# smallest admissible cell count inside the innermost ball for the
# level integrals to mean anything
min_cells_per_ball = 50
# caccioppoli_check skips every annulus thinner than two cells
_THIN_ANNULI = ("no annulus is at least two cells wide; enlarge r0 or "
                "refine the grid")


class MoserGeometryError(ValueError):
    """Ball family or radius search that the grid or a float cannot hold."""


@dataclass(frozen=True)
class BallFamily:
    """Concentric shrinking balls around ``center`` with outer radius r0."""

    center: tuple[float, float]
    r0: float
    n: int = 2
    j_max: int = 6

    def __post_init__(self) -> None:
        if not (self.r0 > 0.0):
            raise ValueError("r0 must be positive")
        if self.n < 2:
            raise ValueError("dimension parameter n must be at least 2")
        if self.j_max < 1:
            raise ValueError("j_max must be at least 1")
        try:  # a float power that overflows raises, never returns inf
            self.q ** self.j_max, self.q ** (2 * self.n * (self.n - 1))
        except OverflowError:
            raise MoserGeometryError(
                "ball family too deep or too wide: (n/(n-1))^j_max or "
                "(n/(n-1))^(2n(n-1)) is not a finite float") from None

    @property
    def q(self) -> float:
        """Iteration ratio n/(n-1)."""
        return self.n / (self.n - 1.0)

    @property
    def r_inf(self) -> float:
        return self.r0 * (self.n - 1.0) / self.n

    def ball(self, j: int) -> Ball:
        return Ball(self.center, radii(self)[j])

    def limit_ball(self) -> Ball:
        return Ball(self.center, self.r_inf)


def radii(bf: BallFamily) -> np.ndarray:
    """R_0 ... R_{j_max}; strictly decreasing toward ``bf.r_inf``."""
    j = np.arange(bf.j_max + 1)
    shrink = ((bf.n - 1.0) / bf.n) ** j
    return bf.r_inf + shrink * bf.r0 / bf.n


def exponents(bf: BallFamily) -> np.ndarray:
    """s_j = (n/(n-1))^j - 1 for j = 0 ... j_max."""
    j = np.arange(bf.j_max + 1)
    return bf.q ** j - 1.0


def _check_outer_ball(grid: Grid2, bf: BallFamily) -> None:
    if not grid.contains_ball(bf.ball(0)):
        raise MoserGeometryError(
            f"ball of radius {bf.r0:g} at {bf.center} is not strictly "
            "inside the domain")


def check_geometry(grid: Grid2, bf: BallFamily) -> None:
    """Raise ``MoserGeometryError`` unless ``moser_report`` can audit the
    family on this grid: the outer ball strictly inside the domain, at
    least ``min_cells_per_ball`` cell centres in the innermost ball, and a
    first annulus at least two cells wide, which ``caccioppoli_check``
    needs.  The limit ball, whose sup the bound compares, is at least half
    as wide as the innermost one, so it then holds a cell centre too.  Only
    the grid is needed, so a run can check before it solves."""
    _check_outer_ball(grid, bf)
    count = int(grid.cells_in_ball(bf.ball(bf.j_max)).sum())
    if count < min_cells_per_ball:
        raise MoserGeometryError(
            f"innermost ball holds {count} cell centres; "
            f"at least {min_cells_per_ball} required")
    r0, r1 = radii(bf)[:2]
    if r0 - r1 < 2.0 * grid.h:
        raise MoserGeometryError(_THIN_ANNULI)


def _log_masses(u: Field, bf: BallFamily) -> tuple[np.ndarray, np.ndarray]:
    """log a_j, computed in log space so large exponents cannot overflow,
    and a_j, capped at e^700."""
    _check_outer_ball(u.grid, bf)
    rr = radii(bf)
    out = np.empty(bf.j_max + 1)
    for j in range(bf.j_max + 1):
        p = bf.q ** j
        lg = lp_on_log(u, Ball(bf.center, rr[j]), p)
        out[j] = max(0.0, lg)  # max(1, integral) in log space
    return out, np.exp(np.minimum(out, 700.0))


def masses(u: Field, bf: BallFamily) -> np.ndarray:
    """Truncated level masses a_j = max(1, integral of |u|^(q^j) over B_j)."""
    return _log_masses(u, bf)[1]


@dataclass
class RecursionCheck:
    c: np.ndarray
    c_max: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {"c": list(self.c), "c_max": self.c_max,
                "passed": bool(self.passed), "note": self.note}


def verify_recursion(u: Field, bf: BallFamily) -> RecursionCheck:
    """Measure c_j = a_{j+1}^((n-1)/n) / ((n/(n-1))^(2j) a_j) per level.

    Passes when the level constants show no growth trend across the last
    half of the levels (consecutive ratios <= 1.05).
    """
    return _recursion(_log_masses(u, bf)[0], bf)


def _recursion(log_a: np.ndarray, bf: BallFamily) -> RecursionCheck:
    q = bf.q
    j = np.arange(bf.j_max)
    log_c = log_a[1:] / q - 2.0 * j * math.log(q) - log_a[:-1]
    # a c_j past the float range reads inf; the growth test needs only logs
    with np.errstate(over="ignore"):
        c = np.exp(log_c)
    tail = log_c[len(log_c) // 2:]
    grow = tail[1:] - np.maximum(tail[:-1], math.log(1e-300))
    passed = bool(np.all(grow <= math.log(1.05)))
    note = "" if passed else "growth trend across the last levels"
    return RecursionCheck(c=c, c_max=float(np.max(c)), passed=passed, note=note)


@dataclass
class SupBoundCheck:
    predicted: float
    observed: float
    lq_norm: float
    prefactor: float
    passed: bool

    def to_dict(self) -> dict:
        return {"predicted": self.predicted, "observed": self.observed,
                "lq_norm": self.lq_norm, "prefactor": self.prefactor,
                "passed": bool(self.passed)}


def sup_bound(check: RecursionCheck, u: Field, bf: BallFamily) -> SupBoundCheck:
    """Evaluate the limit inequality with the measured recursion constant.

    predicted = c_max^(n-1) * (n/(n-1))^(2n(n-1)) * max(1, ||u||_{L^q}) over
    the whole domain; observed = sup of |u| over the limit ball.  For n = 2
    the middle factor is exactly 16.
    """
    _check_outer_ball(u.grid, bf)
    q = bf.q
    n = bf.n
    prefactor = q ** (2 * n * (n - 1))
    # L^q norm over the whole domain via the largest inscribed concentric ball
    # would undercount; integrate over all cells directly.
    mag = u.magnitude()
    h2 = u.grid.h ** 2
    lq = float(np.sum(mag ** q) * h2) ** (1.0 / q)
    predicted = check.c_max ** (n - 1) * prefactor * max(1.0, lq)
    observed = sup_on(u, bf.limit_ball())
    return SupBoundCheck(predicted=predicted, observed=observed, lq_norm=lq,
                         prefactor=float(prefactor),
                         passed=bool(predicted >= observed))


@dataclass
class CaccioppoliCheck:
    s: float
    c_levels: np.ndarray
    variation: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {"s": self.s, "c_levels": list(self.c_levels),
                "variation": self.variation, "passed": bool(self.passed),
                "note": self.note}


def caccioppoli_check(u: Field, bf: BallFamily, s: float) -> CaccioppoliCheck:
    """Measure the cutoff-inequality constant per ball level.

    With the radial ramp eta_j (1 on B_{j+1}, 0 outside B_j, linear in the
    annulus, |grad eta_j| = 1/(R_j - R_{j+1})):

        c_j = (integral |u|^((s+1)q) eta^(2q))^(1/q)
              / ((s+1) * (integral |u|^s eta^2 + integral |u|^(s+1) eta |grad eta|))

    The measured quantity depends on u, the balls, and s alone.  Passes when
    the level constants vary by no more than 50% relative to their smallest
    value.
    """
    if s < 0.0:
        raise ValueError("s must be non-negative")
    _check_outer_ball(u.grid, bf)
    g = u.grid
    h2 = g.h * g.h
    X, Y = g.centers()
    r_cell = np.sqrt((X - bf.center[0]) ** 2 + (Y - bf.center[1]) ** 2)
    mag = u.magnitude()
    q = bf.q
    rr = radii(bf)

    us = np.ones_like(mag) if s == 0.0 else mag ** s
    us1 = mag ** (s + 1.0)
    # Levels whose annulus is thinner than two cells cannot resolve the
    # cutoff ramp, so the measured constant there reflects rasterization,
    # not the inequality; they are skipped.
    levels = []
    failed = False
    for j in range(bf.j_max):
        r_hi, r_lo = rr[j], rr[j + 1]
        if r_hi - r_lo < 2.0 * g.h:
            break
        eta = np.clip((r_hi - r_cell) / (r_hi - r_lo), 0.0, 1.0)
        geta = np.where((r_cell > r_lo) & (r_cell < r_hi),
                        1.0 / (r_hi - r_lo), 0.0)
        lhs = (h2 * float(np.sum(us1 ** q * eta ** (2.0 * q)))) ** (1.0 / q)
        bracket = h2 * float(np.sum(us * eta * eta)) \
            + h2 * float(np.sum(us1 * eta * geta))
        if bracket == 0.0:
            levels.append(0.0 if lhs == 0.0 else math.inf)
            failed = failed or lhs != 0.0
        else:
            levels.append(lhs / ((s + 1.0) * bracket))
    if not levels:
        raise MoserGeometryError(_THIN_ANNULI)
    c_levels = np.asarray(levels)
    note = "" if len(levels) == bf.j_max else \
        f"levels beyond {len(levels) - 1} have sub-grid annuli and were skipped"

    finite = c_levels[np.isfinite(c_levels)]
    if failed or len(finite) == 0:
        return CaccioppoliCheck(s=float(s), c_levels=c_levels,
                                variation=math.inf, passed=False,
                                note="zero bracket with nonzero level integral")
    lo = float(np.min(finite))
    hi = float(np.max(finite))
    variation = 0.0 if hi == 0.0 else (hi - lo) / max(lo, 1e-300)
    return CaccioppoliCheck(s=float(s), c_levels=c_levels, variation=variation,
                            passed=bool(variation <= 0.5), note=note)


def select_radius(f: Field, mask: Mask, lam: float,
                  x0: tuple[float, float]) -> tuple[float, float]:
    """Pick (r0, eps0) for the fidelity analysis around x0.

    eps0 solves ``2 lam sqrt(eps0) = 1/2`` i.e. eps0 = 1/(16 lam^2).  The
    radius starts at half the distance from x0 to the boundary and halves
    until the data mass ``integral of f^2 over B(x0, r) minus the mask``
    drops below eps0; radii at or below 3h are rejected.
    """
    if not (lam > 0.0):
        raise ValueError("lam must be positive")
    g = f.grid
    if not (0.0 < x0[0] < g.lx and 0.0 < x0[1] < g.ly):
        raise MoserGeometryError("x0 must lie inside the domain")
    lam2 = 16.0 * lam * lam
    eps0 = 1.0 / lam2 if lam2 > 0.0 else math.inf
    if math.isinf(eps0):
        raise MoserGeometryError(f"lam = {lam!r} is too small for a "
                                 "finite eps0 = 1/(16 lam^2)")
    dist = g.boundary_distance(x0[0], x0[1])
    r = dist / 2.0
    f2 = f.magnitude() ** 2
    outside = ~mask.member
    h2 = g.h * g.h
    while r > 3.0 * g.h:
        inside = g.cells_in_ball(Ball(x0, r))
        data_mass = h2 * float(np.sum(f2[inside & outside]))
        if data_mass < eps0:
            return r, eps0
        r /= 2.0
    raise MoserGeometryError(
        "no admissible radius above 3h: data mass stays too large")


@dataclass
class MoserReport:
    center: tuple[float, float]
    r0: float
    r_inf: float
    n: int
    j_max: int
    radii: np.ndarray
    exponents: np.ndarray
    masses: np.ndarray
    recursion: RecursionCheck
    bound: SupBoundCheck
    caccioppoli: list[CaccioppoliCheck] = field(default_factory=list)
    epsilon0: float | None = None

    @property
    def passed(self) -> bool:
        return (self.recursion.passed and self.bound.passed
                and all(c.passed for c in self.caccioppoli))

    def to_dict(self) -> dict:
        return {
            "center": list(self.center), "r0": self.r0, "r_inf": self.r_inf,
            "n": self.n, "j_max": self.j_max,
            "radii": list(self.radii), "exponents": list(self.exponents),
            "masses": list(self.masses),
            "recursion": self.recursion.to_dict(),
            "sup_bound": self.bound.to_dict(),
            "caccioppoli": [c.to_dict() for c in self.caccioppoli],
            "epsilon0": self.epsilon0,
            "passed": self.passed,
        }

    def to_csv(self) -> str:
        """Per-level table: j, R_j, s_j, a_j, c_j (c blank at the last level)."""
        lines = ["j,R_j,s_j,a_j,c_j"]
        for j in range(self.j_max + 1):
            c = f"{float(self.recursion.c[j])!r}" if j < self.j_max else ""
            lines.append(f"{j},{float(self.radii[j])!r},"
                         f"{float(self.exponents[j])!r},"
                         f"{float(self.masses[j])!r},{c}")
        return "\n".join(lines) + "\n"


def moser_report(u: Field, bf: BallFamily, s_values=(0.0, 1.0, 3.0),
                 epsilon0: float | None = None) -> MoserReport:
    """Run the full audit for one solution field."""
    check_geometry(u.grid, bf)
    log_a, a = _log_masses(u, bf)
    rec = _recursion(log_a, bf)
    return MoserReport(
        center=bf.center, r0=bf.r0, r_inf=bf.r_inf, n=bf.n, j_max=bf.j_max,
        radii=radii(bf), exponents=exponents(bf), masses=a,
        recursion=rec, bound=sup_bound(rec, u, bf),
        caccioppoli=[caccioppoli_check(u, bf, s) for s in s_values],
        epsilon0=epsilon0)
