"""Numerical audit of the ball-iteration route to interior boundedness.

The estimate chain behind the interior sup bounds is made measurable: for a
shrinking family of concentric balls ``B_j`` with radii
``R_j = R0/2 + 2^-(j+1) R0`` and exponents ``s_j = 2^j - 1``, the truncated
masses ``a_j = max(1, integral of |u|^(s_j+1) over B_j)`` must satisfy a
one-step recursion ``a_{j+1}^(1/2) <= c 4^j a_j`` with a level-stable
constant; iterating it to the limit ball of radius ``R0/2`` yields

    sup |u| on the limit ball <= 16 c max(1, ||u||_{L^2}).

The ratio 2 of the exponents is the Sobolev exponent n/(n-1) of the grids'
dimension n = 2, which fixes the radii, the recursion and the prefactor
16 = 2^(2n(n-1)).

``moser_report`` measures the level masses and the per-level constants,
evaluates the limit inequality and measures the cutoff inequality the
recursion rests on; ``select_radius`` picks the data-mass radius used by the
fidelity analysis.

A report computes the squared distances of the cell centres to the family's
centre and the cell magnitudes once, and gathers the outer ball's cells from
them once: the level masses and the cutoff checks, whose ramps vanish
outside the outer ball, read only those cells, and the sup bound reads the
limit ball's.  The cutoff checks build each level's ramp once, from the
square roots of the gathered distances, for every s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Ball, Field, Grid2, Mask

__all__ = [
    "BallFamily",
    "radii",
    "exponents",
    "RecursionCheck",
    "SupBoundCheck",
    "CaccioppoliCheck",
    "select_radius",
    "MoserGeometryError",
    "check_geometry",
    "MoserReport",
    "moser_report",
]

# smallest admissible cell count inside the innermost ball for the
# level integrals to mean anything
_MIN_CELLS_PER_BALL = 50
# the exponents' ratio n/(n-1) and the sup bound's prefactor
# (n/(n-1))^(2n(n-1)) in the grids' dimension n = 2
_Q = 2.0
_PREFACTOR = 16.0


class MoserGeometryError(ValueError):
    """Ball family or radius search that the grid or a float cannot hold."""


def _check_depth(j_max: int) -> None:
    """Raise ``MoserGeometryError`` unless 2^j_max, the scale of the top
    exponent, is a finite float (j_max at most 1023): the depth rule of
    both ball forms."""
    try:  # a float power that overflows raises, never returns inf
        _Q ** j_max
    except OverflowError:
        raise MoserGeometryError(
            "ball family too deep: 2^j_max is not a finite float") from None


@dataclass(frozen=True)
class BallFamily:
    """Concentric shrinking balls around ``center`` with outer radius r0."""

    center: tuple[float, float]
    r0: float
    j_max: int = 6

    def __post_init__(self) -> None:
        if not (self.r0 > 0.0):
            raise ValueError("r0 must be positive")
        if self.j_max < 1:
            raise ValueError("j_max must be at least 1")
        _check_depth(self.j_max)

    @property
    def r_inf(self) -> float:
        return 0.5 * self.r0

    def ball(self, j: int) -> Ball:
        return Ball(self.center, radii(self)[j])

    def limit_ball(self) -> Ball:
        return Ball(self.center, self.r_inf)


def radii(bf: BallFamily) -> np.ndarray:
    """R_0 ... R_{j_max}; strictly decreasing toward ``bf.r_inf``."""
    j = np.arange(bf.j_max + 1)
    return bf.r_inf + 0.5 ** j * bf.r0 / 2.0


def exponents(bf: BallFamily) -> np.ndarray:
    """s_j = 2^j - 1 for j = 0 ... j_max."""
    j = np.arange(bf.j_max + 1)
    return _Q ** j - 1.0


def check_geometry(grid: Grid2, bf: BallFamily) -> None:
    """Raise ``MoserGeometryError`` unless ``moser_report`` can audit the
    family on this grid: the outer ball strictly inside the domain, at
    least ``_MIN_CELLS_PER_BALL`` cell centres in the innermost ball, and a
    first annulus, of width r0/4, at least two cells wide, which the cutoff
    checks need.  The limit ball, whose sup the bound compares, is at least
    half as wide as the innermost one, so it then holds a cell centre too.
    Only the grid is needed, so a run can check before it solves."""
    if not grid.contains_ball(bf.ball(0)):
        raise MoserGeometryError(
            f"ball of radius {bf.r0:g} at {bf.center} is not strictly "
            "inside the domain")
    count = int(grid.cells_in_ball(bf.ball(bf.j_max)).sum())
    if count < _MIN_CELLS_PER_BALL:
        raise MoserGeometryError(
            f"innermost ball holds {count} cell centres; "
            f"at least {_MIN_CELLS_PER_BALL} required")
    r0, r1 = radii(bf)[:2]
    if r0 - r1 < 2.0 * grid.h:
        raise MoserGeometryError("no annulus is at least two cells wide; "
                                 "enlarge r0 or refine the grid")


def _log_masses(outer_mag: np.ndarray, outer_d2: np.ndarray, rr: np.ndarray,
                h: float) -> np.ndarray:
    """log a_j for the radii ``rr``, from the magnitudes ``outer_mag`` and
    squared centre distances ``outer_d2`` of the outer ball's cells,
    gathered in C order.  The midpoint-rule integral of |u|^(2^j) is
    factored through its maximum, so large exponents neither overflow nor
    underflow.  An inner ball's cells are the same cells in the same order
    as a mask of the whole grid would give, so each sum is too.  A level
    whose ball holds as many cells as the one before (the sorted distances
    count them) reuses their ratios to the maximum; once the largest ratio
    below 1 to the power ``2^j`` is exactly 0, the sum is the count of the
    maxima, the same bits.  So a deep family costs per cell set."""
    out = np.zeros(len(rr))  # log max(1, integral); 0 where u vanishes
    order, held = np.sort(outer_d2, axis=None), -1
    for j, r in enumerate(rr):
        p, r2 = _Q ** j, r ** 2
        count = int(np.searchsorted(order, r2))  # cells with d2 < r2
        if count != held:
            held, mj = count, outer_mag[outer_d2 < r2]
            m = float(np.max(mj))
            if m > 0.0:
                # a Python float: p * log_m overflows to -inf silently
                log_m = float(np.log(m))
                ratios = mj / m
                maxima = float(np.count_nonzero(ratios == 1.0))
                below = float(np.max(ratios, where=ratios != 1.0, initial=0.0))
        if m > 0.0:
            s = maxima if below ** p == 0.0 else float(np.sum(ratios ** p))
            out[j] = max(0.0, p * log_m + np.log(s) + 2.0 * np.log(h))
    return out


@dataclass
class RecursionCheck:
    """The recursion constant ``c_j`` per level, its maximum, and whether
    the last levels show no growth trend."""

    c: np.ndarray
    c_max: float
    passed: bool
    note: str = ""


def _recursion(log_a: np.ndarray, bf: BallFamily) -> RecursionCheck:
    """Measure c_j = a_{j+1}^(1/2) / (4^j a_j) per level from ``log_a``,
    the log masses.

    Passes when the level constants show no growth trend across the last
    half of the levels (consecutive ratios <= 1.05).
    """
    j = np.arange(bf.j_max)
    log_c = log_a[1:] / _Q - 2.0 * j * math.log(_Q) - log_a[:-1]
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
    """The sup bound on the limit ball, predicted from the recursion, next
    to the observed sup of |u| there."""

    predicted: float
    observed: float
    lq_norm: float
    prefactor: float
    passed: bool


def _sup_bound(check: RecursionCheck, mag: np.ndarray, d2: np.ndarray,
               bf: BallFamily, h: float) -> SupBoundCheck:
    """Evaluate the limit inequality with the measured recursion constant.

    predicted = 16 c_max max(1, ||u||_{L^2}) over the whole domain;
    observed = sup of |u| over the limit ball.  Where the plain integral of
    |u|^2 overflows, the norm is factored through max |u|, so it is finite
    whenever |u| is.
    """
    # L^2 norm over the whole domain via the largest inscribed concentric ball
    # would undercount; integrate over all cells directly.
    with np.errstate(over="ignore"):
        integral = float(np.sum(mag ** _Q) * h ** 2)
    if math.isinf(integral):
        m = float(np.max(mag))
        lq = m * (float(np.sum((mag / m) ** _Q)) * h ** 2) ** (1.0 / _Q)
    else:
        lq = integral ** (1.0 / _Q)
    predicted = check.c_max * _PREFACTOR * max(1.0, lq)
    observed = float(np.max(mag[d2 < bf.r_inf ** 2]))
    return SupBoundCheck(predicted=predicted, observed=observed, lq_norm=lq,
                         prefactor=_PREFACTOR,
                         passed=bool(predicted >= observed))


@dataclass
class CaccioppoliCheck:
    """The cutoff-inequality constant per ball level for one exponent
    ``s``, and its variation relative to the smallest."""

    s: float
    c_levels: np.ndarray
    variation: float
    passed: bool
    note: str = ""


# a power of |u| past the float range makes a level integral inf or nan;
# that s then fails with its own note, not with a warning
@np.errstate(over="ignore", invalid="ignore")
def _caccioppoli(mag: np.ndarray, r_cell: np.ndarray, rr: np.ndarray,
                 h: float, s_values) -> list[CaccioppoliCheck]:
    """Measure the cutoff-inequality constant per ball level for each s.

    With the radial ramp eta_j (1 on B_{j+1}, 0 outside B_j, linear in the
    annulus, |grad eta_j| = 1/(R_j - R_{j+1})) of the cell radii ``r_cell``,
    over the outer ball's cells ``mag`` (the ramps vanish outside it):

        c_j = (integral |u|^(2(s+1)) eta^4)^(1/2)
              / ((s+1) * (integral |u|^s eta^2 + integral |u|^(s+1) eta |grad eta|))

    The measured quantity depends on u, the balls, and s alone.  Passes when
    the level constants vary by no more than 50% relative to their smallest
    value.
    """
    h2 = h * h
    powers = []
    for s in s_values:
        us1 = mag ** (s + 1.0)
        powers.append((mag ** s, us1, us1 ** _Q))  # x ** 0.0 is exactly 1.0
    levels = [[] for _ in s_values]
    # Levels whose annulus is thinner than two cells cannot resolve the
    # cutoff ramp, so the measured constant there reflects rasterization,
    # not the inequality; they are skipped.  check_geometry ensures the
    # first annulus is wide enough.
    for r_hi, r_lo in zip(rr[:-1], rr[1:]):
        if r_hi - r_lo < 2.0 * h:
            break
        eta = np.clip((r_hi - r_cell) / (r_hi - r_lo), 0.0, 1.0)
        geta = np.where((r_cell > r_lo) & (r_cell < r_hi),
                        1.0 / (r_hi - r_lo), 0.0)
        eta2q = eta ** (2.0 * _Q)
        for k, (s, (us, us1, us1q)) in enumerate(zip(s_values, powers)):
            lhs = (h2 * float(np.sum(us1q * eta2q))) ** (1.0 / _Q)
            bracket = h2 * float(np.sum(us * eta * eta)) \
                + h2 * float(np.sum(us1 * eta * geta))
            if not (math.isfinite(lhs) and math.isfinite(bracket)):
                levels[k].append(math.nan)  # the only source of a nan level
            elif bracket == 0.0:
                levels[k].append(0.0 if lhs == 0.0 else math.inf)
            else:
                levels[k].append(lhs / ((s + 1.0) * bracket))

    checks = []
    for s, c_levels in zip(s_values, map(np.asarray, levels)):
        note = "" if len(c_levels) == len(rr) - 1 else (
            f"levels beyond {len(c_levels) - 1} have sub-grid annuli and "
            "were skipped")
        if np.isnan(c_levels).any():
            checks.append(CaccioppoliCheck(
                s=float(s), c_levels=np.full(len(c_levels), math.nan),
                variation=math.nan, passed=False,
                note=f"the level integrals of |u|^(s+1) overflow a float "
                     f"at s = {s:g}"))
            continue
        lo = float(np.min(c_levels))
        hi = float(np.max(c_levels))
        variation = 0.0 if hi == 0.0 else (hi - lo) / max(lo, 1e-300)
        checks.append(CaccioppoliCheck(
            s=float(s), c_levels=c_levels, variation=variation,
            passed=bool(variation <= 0.5), note=note))
    return checks


def select_radius(f: Field, mask: Mask, lam: float,
                  x0: tuple[float, float]) -> tuple[float, float]:
    """Pick (r0, eps0) for the fidelity analysis around x0.

    eps0 solves ``2 lam sqrt(eps0) = 1/2`` i.e. eps0 = 1/(16 lam^2).  The
    radius starts at half the distance from x0 to the boundary and halves
    until the data mass ``integral of f^2 over B(x0, r) minus the mask``
    drops below eps0; radii at or below 3h are rejected.  Only the cells off
    the mask and inside the first ball are squared; a mass that overflows
    is too large.
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
    d2 = g.sq_distances(x0)
    cells = (d2 < r ** 2) & ~mask.member
    # the cells of every smaller ball, in the same order as a full-grid mask
    d2 = d2[cells]
    h2 = g.h * g.h
    with np.errstate(over="ignore"):
        f2 = f.magnitude()[cells] ** 2
        while r > 3.0 * g.h:
            data_mass = h2 * float(np.sum(f2[d2 < r ** 2]))
            if data_mass < eps0:
                return r, eps0
            r /= 2.0
    raise MoserGeometryError(
        "no admissible radius above 3h: data mass stays too large")


@dataclass
class MoserReport:
    """The whole Moser audit of one solution field: the ball family, the
    level masses and the recursion, sup-bound and cutoff checks;
    ``passed`` when all of them pass."""

    center: tuple[float, float]
    r0: float
    r_inf: float
    j_max: int
    radii: np.ndarray
    exponents: np.ndarray
    masses: np.ndarray
    recursion: RecursionCheck
    sup_bound: SupBoundCheck
    caccioppoli: list[CaccioppoliCheck] = field(default_factory=list)
    epsilon0: float | None = None
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = (self.recursion.passed and self.sup_bound.passed
                       and all(c.passed for c in self.caccioppoli))


def moser_report(u: Field, bf: BallFamily, s_values=(0.0, 1.0, 3.0),
                 epsilon0: float | None = None) -> MoserReport:
    """Run the full audit for one solution field: the level masses (a_j
    capped at e^700), the recursion constants, the sup bound and one cutoff
    check per ``s`` in ``s_values``, each non-negative."""
    if any(s < 0.0 for s in s_values):
        raise ValueError("s must be non-negative")
    g = u.grid
    check_geometry(g, bf)
    rr = radii(bf)
    d2 = g.sq_distances(bf.center)
    mag = u.magnitude()
    inside = d2 < rr[0] ** 2
    outer_mag, outer_d2 = mag[inside], d2[inside]
    log_a = _log_masses(outer_mag, outer_d2, rr, g.h)
    rec = _recursion(log_a, bf)
    return MoserReport(
        center=bf.center, r0=bf.r0, r_inf=bf.r_inf, j_max=bf.j_max,
        radii=rr, exponents=exponents(bf),
        masses=np.exp(np.minimum(log_a, 700.0)), recursion=rec,
        sup_bound=_sup_bound(rec, mag, d2, bf, g.h),
        caccioppoli=_caccioppoli(outer_mag, np.sqrt(outer_d2), rr, g.h,
                                 s_values),
        epsilon0=epsilon0)
