"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way: scipy quadrature, dense
finite-difference stencils, per-cell Python loops, dense Newton with a
finite-difference Jacobian.  None of it shares assembly code with the
package; agreement between the two is what the tests certify.
"""

import math

import numpy as np
from scipy import integrate

from lingrow.energy import clip_data
from lingrow.grids import Ball, Field, Grid2, ring_differences
from lingrow.moser import (CaccioppoliCheck, MoserReport, SupBoundCheck,
                           _recursion, check_geometry, exponents, radii)
from lingrow.profiles import derivative, profile_eval, radial_excess

# ---------------------------------------------------------------------------
# quadrature for the canonical profile: double integral of (1+t)^(-mu)


def phi_dblquad(mu: float, r: float) -> float:
    """Literal 2D quadrature of the double integral over 0 <= t <= s <= r."""
    if r == 0.0:
        return 0.0
    val, _ = integrate.dblquad(lambda t, s: (1.0 + t) ** (-mu),
                               0.0, r, 0.0, lambda s: s,
                               epsabs=1e-12, epsrel=1e-12)
    return val


def phi_quad(mu: float, r: float) -> float:
    """The same double integral collapsed to one dimension by Fubini:
    integral of (r - t) (1+t)^(-mu) dt over [0, r]."""
    if r == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda t: (r - t) * (1.0 + t) ** (-mu),
                            0.0, r, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


# ---------------------------------------------------------------------------
# finite-difference stencils (4th order central)


def d1_fd(f, t: float, h: float) -> float:
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


def d2_fd(f, t: float, h: float) -> float:
    return (-f(t - 2 * h) + 16 * f(t - h) - 30 * f(t)
            + 16 * f(t + h) - f(t + 2 * h)) / (12 * h * h)


def grad_fd(F, P: np.ndarray, h: float) -> np.ndarray:
    """Entrywise 4th-order central differences of a scalar matrix function."""
    P = np.asarray(P, dtype=float)
    out = np.zeros_like(P)
    for k in np.ndindex(P.shape):
        e = np.zeros_like(P)
        e[k] = 1.0
        out[k] = (F(P - 2 * h * e) - 8 * F(P - h * e)
                  + 8 * F(P + h * e) - F(P + 2 * h * e)) / (12 * h)
    return out


def hess_quadform_fd(F, P: np.ndarray, Q: np.ndarray, h: float) -> float:
    """4th-order second difference of s -> F(P + s Q) at s = 0."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return (-F(P + 2 * h * Q) + 16 * F(P + h * Q) - 30 * F(P)
            + 16 * F(P - h * Q) - F(P - 2 * h * Q)) / (12 * h * h)


def energy_grad_fd(energy, w: np.ndarray, index, h: float) -> float:
    """4th-order central difference of a scalar energy in one cell value."""
    def at(s):
        v = w.copy()
        v[index] += s
        return energy(v)
    return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# naive per-cell energy summation


def naive_energy_dirichlet(problem, reg, w: np.ndarray) -> float:
    """Per-difference-cell loop over the ghost-padded field."""
    g = problem.grid
    h = g.h
    dens = problem.density if reg is None else reg.apply(problem.density)
    ext = problem.u0_ext.copy()
    ext[1:-1, 1:-1, :] = w
    rho = g.nx * g.ny / float((g.nx + 1) * (g.ny + 1))
    total = 0.0
    for i in range(g.nx + 1):
        for j in range(g.ny + 1):
            s = 0.0
            for c in range(problem.channels):
                gx = (ext[i + 1, j, c] - ext[i, j, c]) / h
                gy = (ext[i, j + 1, c] - ext[i, j, c]) / h
                s += gx * gx + gy * gy
            total += rho * h * h * profile_eval(dens, math.sqrt(s))
    return total


def naive_energy_fidelity(problem, reg, w: np.ndarray) -> float:
    """Loop evaluation with one-sided zero differences at the far edges,
    the channels coupled through the slope and summed in the data term."""
    g = problem.grid
    h = g.h
    dens = problem.density if reg is None else reg.apply(problem.density)
    fd = problem.f.values if reg is None else clip_data(problem.f, reg.delta).values
    total = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            s = 0.0
            for c in range(problem.channels):
                gx = (w[i + 1, j, c] - w[i, j, c]) / h if i + 1 < g.nx else 0.0
                gy = (w[i, j + 1, c] - w[i, j, c]) / h if j + 1 < g.ny else 0.0
                s += gx * gx + gy * gy
            total += h * h * profile_eval(dens, math.sqrt(s))
            if not problem.mask.member[i, j]:
                for c in range(problem.channels):
                    diff = w[i, j, c] - fd[i, j, c]
                    total += problem.lam * h * h * diff * diff
    return total


def naive_ball_integral(u, center, radius: float, p: float) -> float:
    """Sum of |u|^p h^2 over cells whose center lies strictly inside."""
    g = u.grid
    total = 0.0
    for i in range(g.nx):
        for j in range(g.ny):
            x = (i + 0.5) * g.h
            y = (j + 0.5) * g.h
            if (x - center[0]) ** 2 + (y - center[1]) ** 2 < radius ** 2:
                m = 0.0
                for c in range(u.channels):
                    m += u.values[i, j, c] ** 2
                total += math.sqrt(m) ** p * g.h * g.h
    return total


# ---------------------------------------------------------------------------
# the Moser audit with its own cell mask per ball


def _ball_magnitudes(u, b):
    """Cell magnitudes strictly inside ``b``, from a mask of the whole grid."""
    g = u.grid
    X, Y = g.centers()
    inside = (X - b.center[0]) ** 2 + (Y - b.center[1]) ** 2 < b.radius ** 2
    return u.magnitude()[inside]


def moser_report_per_ball(u, bf, s_values=(0.0, 1.0, 3.0), epsilon0=None):
    """``moser.moser_report`` with every ball's cells, the sup and each
    cutoff ramp computed afresh from the grid, one level and one ``s`` at a
    time, and with the same floating-point operations in the same order, so
    the two reports agree bit for bit."""
    check_geometry(u.grid, bf)
    g = u.grid
    rr = radii(bf)
    log_a = np.empty(bf.j_max + 1)
    for j in range(bf.j_max + 1):
        p = 2.0 ** j
        mag = _ball_magnitudes(u, Ball(bf.center, rr[j]))
        m = float(np.max(mag))
        lg = -np.inf
        if m != 0.0:
            lg = (p * np.log(m) + np.log(float(np.sum((mag / m) ** p)))
                  + 2.0 * np.log(g.h))
        log_a[j] = max(0.0, lg)
    rec = _recursion(log_a, bf)

    # the exponents' ratio n/(n-1) and the prefactor (n/(n-1))^(2n(n-1))
    # at n = 2
    q, prefactor = 2.0, 16.0
    lq = float(np.sum(u.magnitude() ** q) * g.h ** 2) ** (1.0 / q)
    predicted = rec.c_max * prefactor * max(1.0, lq)
    observed = float(np.max(_ball_magnitudes(u, bf.limit_ball())))
    bound = SupBoundCheck(predicted=predicted, observed=observed, lq_norm=lq,
                          prefactor=prefactor,
                          passed=bool(predicted >= observed))

    checks = []
    for s in s_values:
        if s < 0.0:
            raise ValueError("s must be non-negative")
        X, Y = g.centers()
        r_cell = np.sqrt((X - bf.center[0]) ** 2 + (Y - bf.center[1]) ** 2)
        mag = u.magnitude()
        us = np.ones_like(mag) if s == 0.0 else mag ** s
        us1 = mag ** (s + 1.0)
        levels = []
        for j in range(bf.j_max):
            r_hi, r_lo = rr[j], rr[j + 1]
            if r_hi - r_lo < 2.0 * g.h:
                break
            eta = np.clip((r_hi - r_cell) / (r_hi - r_lo), 0.0, 1.0)
            geta = np.where((r_cell > r_lo) & (r_cell < r_hi),
                            1.0 / (r_hi - r_lo), 0.0)
            lhs = (g.h * g.h * float(np.sum(us1 ** q * eta ** (2.0 * q)))) \
                ** (1.0 / q)
            bracket = g.h * g.h * float(np.sum(us * eta * eta)) \
                + g.h * g.h * float(np.sum(us1 * eta * geta))
            if bracket == 0.0:
                levels.append(0.0 if lhs == 0.0 else math.inf)
            else:
                levels.append(lhs / ((s + 1.0) * bracket))
        c = np.asarray(levels)
        note = "" if len(levels) == bf.j_max else \
            f"levels beyond {len(levels) - 1} have sub-grid annuli and were skipped"
        lo, hi = float(np.min(c)), float(np.max(c))
        variation = 0.0 if hi == 0.0 else (hi - lo) / max(lo, 1e-300)
        checks.append(CaccioppoliCheck(s=float(s), c_levels=c,
                                       variation=variation,
                                       passed=bool(variation <= 0.5),
                                       note=note))
    return MoserReport(
        center=bf.center, r0=bf.r0, r_inf=bf.r_inf, j_max=bf.j_max,
        radii=rr, exponents=exponents(bf),
        masses=np.exp(np.minimum(log_a, 700.0)), recursion=rec, sup_bound=bound,
        caccioppoli=checks, epsilon0=epsilon0)


# ---------------------------------------------------------------------------
# dense Newton on the Euler system


def newton_solve(residual, w0: np.ndarray, tol: float = 1e-11,
                 fd_step: float = 1e-6, max_iter: int = 80) -> np.ndarray:
    """Solve residual(w) = 0 by damped Newton with a dense FD Jacobian."""
    shape = np.asarray(w0).shape
    w = np.asarray(w0, dtype=float).ravel().copy()

    def R(v):
        return np.asarray(residual(v.reshape(shape)), dtype=float).ravel()

    r = R(w)
    for _ in range(max_iter):
        rmax = float(np.max(np.abs(r)))
        if rmax <= tol:
            return w.reshape(shape)
        m = len(w)
        J = np.empty((m, m))
        for k in range(m):
            e = np.zeros(m)
            e[k] = fd_step
            J[:, k] = (R(w + e) - R(w - e)) / (2.0 * fd_step)
        step = np.linalg.solve(J, r)
        t = 1.0
        w_new, r_new = w, r
        for _ in range(40):
            w_new = w - t * step
            r_new = R(w_new)
            if float(np.max(np.abs(r_new))) < rmax:
                break
            t *= 0.5
        w, r = w_new, r_new
    raise RuntimeError(f"newton stalled at residual {np.max(np.abs(r)):.3e}")


# ---------------------------------------------------------------------------
# the CSV field reader that keeps every row as Python strings


def csv_field_by_rows(path) -> Field:
    """Read an ``x,y,channel,value`` table row by row with ``float`` and
    ``int``, with the checks and messages of ``pgmio.field_from_csv``."""
    with open(path) as fh:
        if fh.readline().strip() != "x,y,channel,value":
            raise ValueError("unexpected CSV header")
        rows = [line.split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError("empty CSV field")
    if any(len(r) != 4 for r in rows):
        raise ValueError("CSV rows must have four columns")
    x, y, v = (np.array([float(r[k]) for r in rows]) for k in (0, 1, 3))
    c = np.array([int(r[2]) for r in rows])
    h = 2.0 * float(np.min(x))
    if not (h > 0.0 and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("CSV coordinates must be positive and finite")
    i = np.rint(x / h - 0.5)
    j = np.rint(y / h - 0.5)
    off = np.maximum(np.abs(x - (i + 0.5) * h), np.abs(y - (j + 0.5) * h))
    if np.min(j) < 0.0 or np.max(off) > 1e-9 * h:
        raise ValueError(f"CSV coordinates are not cell centres (i+0.5)*h "
                         f"for h = {h!r}")
    if np.min(c) < 0:
        raise ValueError("CSV channel must be non-negative")
    nx, ny, nc = int(i.max()) + 1, int(j.max()) + 1, int(c.max()) + 1
    if nx * ny * nc > len(rows):
        raise ValueError(f"CSV table has {len(rows)} rows; {nx}x{ny} cells "
                         f"with {nc} channels need {nx * ny * nc}")
    i, j = i.astype(np.int64), j.astype(np.int64)
    if np.bincount((i * ny + j) * nc + c).max() > 1:
        raise ValueError("CSV table repeats a cell and channel")
    values = np.empty((nx, ny, nc))
    values[i, j, c] = v
    return Field(Grid2(nx, ny, h), values)


# ---------------------------------------------------------------------------
# the difference pair, its boundary rules and the level product on the
# unpadded layout: cell values (mx, my, N) copied into a zero ring for each
# difference, and (mx+1, my+1, N) difference cells


def zero_ring_differences(v: np.ndarray):
    """Forward differences of cell values over a zero ring, each of shape
    ``(mx+1, my+1, N)``: ``dx[I, J] = ring[I+1, J] - ring[I, J]``,
    ``dy[I, J] = ring[I, J+1] - ring[I, J]``, ring node ``(i+1, j+1)``
    being ``v[i, j]``."""
    mx, my, n = v.shape
    ring = np.zeros((mx + 2, my + 2, n))
    ring[1:-1, 1:-1] = v
    base = ring[:-1, :-1]
    return ring[1:, :-1] - base, ring[:-1, 1:] - base


def zero_ring_adjoint(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """The adjoint of ``zero_ring_differences``: cell values (mx, my, N)."""
    out = fx[:-1, 1:] - fx[1:, 1:]
    out += fy[1:, :-1]
    out -= fy[1:, 1:]
    return out


def zero_ring_offset(u0_ext: np.ndarray):
    """A Dirichlet datum's constant ring differences on (mx+1, my+1, N)."""
    ring = u0_ext.astype(float)
    ring[1:-1, 1:-1] = 0.0
    dx, dy = zero_ring_differences(ring)
    return dx[1:-1, 1:-1], dy[1:-1, 1:-1]


def zero_ring_live(mx: int, my: int):
    """The homogeneous Neumann masks on (mx+1, my+1, 1): the differences
    that link two values."""
    live_x = np.zeros((mx + 1, my + 1, 1), dtype=bool)
    live_x[1:-1, 1:] = True
    live_y = np.zeros((mx + 1, my + 1, 1), dtype=bool)
    live_y[1:, 1:-1] = True
    return live_x, live_y


def zero_ring_apply(txx, txy, tyy, mass, v):
    """``A v`` of a level with cell tensors and mass on the unpadded
    layout, in the operation order of ``multigrid.Level.apply``."""
    dx, dy = zero_ring_differences(v)
    fx = txx * dx
    dx *= txy
    fx += txy * dy
    dy *= tyy
    dy += dx
    out = zero_ring_adjoint(fx, dy)
    if mass is not None:
        out += mass * v
    return out


_MASK64 = (1 << 64) - 1


def splitmix64(state: int, count: int) -> list[int]:
    """The next ``count`` SplitMix64 outputs from ``state`` (Steele, Lea and
    Flood, OOPSLA 2014), in Python integers masked to 64 bits."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_uniform(seed: int, shape, trials: int) -> list[np.ndarray]:
    """Each trial's draws on [-1, 1): the stream's next ``prod(shape)``
    outputs in C order, each mapped to ``-1 + 2 * ((z >> 11) * 2^-53)``."""
    m = math.prod(shape)
    outputs = splitmix64(seed, trials * m)
    return [np.array([-1.0 + 2.0 * ((z >> 11) * 2.0 ** -53)
                      for z in outputs[i * m:(i + 1) * m]]).reshape(shape)
            for i in range(trials)]


def minimality_margins_unpadded(problem, reg, u, trials: int, seed: int,
                                amplitude: float = 0.1) -> np.ndarray:
    """The margins of ``solver.verify_minimality`` with its perturbations
    drawn by ``splitmix64_uniform``, smoothed and clamped on the (nx, ny, N)
    cell layout: each smoothing pass adds the neighbours that exist, and a
    Dirichlet perturbation vanishes on the outermost cells."""
    from lingrow.energy import DirichletProblem, assemble_ops

    def smooth(psi):
        for _ in range(2):
            acc = psi.copy()
            acc[1:, :, :] += psi[:-1, :, :]
            acc[:-1, :, :] += psi[1:, :, :]
            acc[:, 1:, :] += psi[:, :-1, :]
            acc[:, :-1, :] += psi[:, 1:, :]
            psi = acc / 5.0
        return psi

    ops = assemble_ops(problem, reg)
    w = u.values
    e0, r = ops.energy(w), ops.residual(w)
    draws = splitmix64_uniform(seed, w.shape, trials)

    def margin(psi):
        if isinstance(problem, DirichletProblem):
            psi[0, :, :] = psi[-1, :, :] = 0.0
            psi[:, 0, :] = psi[:, -1, :] = 0.0
        return ops.energy(w + psi) - e0

    margins = np.empty(trials + 1)
    for i in range(trials):
        psi = draws[i]
        if i % 2 == 1:
            psi = smooth(psi)
        psi *= amplitude / float(np.max(np.abs(psi)))
        margins[i] = margin(psi)
    rmax = float(np.max(np.abs(r)))
    margins[trials] = margin(-amplitude * r / rmax) if rmax > 0.0 else 0.0
    return margins


# ---------------------------------------------------------------------------
# the ring differences and the coarse-tensor pooling in their two-array and
# zero-padded reshape-sum forms


def ring_differences_two_arrays(v: np.ndarray):
    """``(dx, dy)`` of ``grids.ring_differences``, each built in its own
    zeroed array: the values are written in, then subtracted once more."""
    mx, my, n = v.shape
    dx = np.zeros((mx + 1, my + 1, n))
    dx[:-1, 1:] = v
    dx[1:, 1:] -= v
    dy = np.zeros((mx + 1, my + 1, n))
    dy[1:, :-1] = v
    dy[1:, 1:] -= v
    return dx, dy


def coarse_tensors_by_reshape(level):
    """``(txx, txy, tyy)`` of ``level.coarsen()`` without the slot
    ``J = my+1``: the masked fine tensors zero-padded to even sizes and
    summed over 2x2 blocks by a reshape."""
    mx, my = level.shape
    cx, cy = -(-mx // 2), -(-my // 2)
    jx = np.arange(mx + 1) % 2 == 0
    jx[-1] = True
    jy = np.arange(my + 1) % 2 == 0
    jy[-1] = True
    jx, jy = jx[:, None, None], jy[None, :, None]

    def pool(t):
        # coarse cell I sums fine cells 2I-1 and 2I
        out = np.zeros((2 * (cx + 1), 2 * (cy + 1), t.shape[2]))
        out[1:mx + 2, 1:my + 2] = t
        return out.reshape(cx + 1, 2, cy + 1, 2, -1).sum(axis=(1, 3))

    return (pool(level.txx[:, :-1] * jx), pool(level.txy[:, :-1] * (jx & jy)),
            pool(level.tyy[:, :-1] * jy))


# ---------------------------------------------------------------------------
# the aggregation transfers on padded arrays, with staging arrays: the
# restriction summed unpadded and copied into a new zero ring, the
# prolongation's piecewise-constant copy built in full and its ring zeroed


def restrict_then_pad(r: np.ndarray) -> np.ndarray:
    """``P^T r`` of ``multigrid.restrict``: the four strided terms of each
    aggregate, in its order, summed and then copied into a zero ring."""
    cx, cy = (r.shape[0] - 1) // 2, (r.shape[1] - 1) // 2
    odd_x, even_x = slice(1, 2 * cx, 2), slice(2, 2 * cx + 1, 2)
    odd_y, even_y = slice(1, 2 * cy, 2), slice(2, 2 * cy + 1, 2)
    cells = np.add(r[odd_x, odd_y], r[even_x, odd_y])
    cells += r[odd_x, even_y]
    cells += r[even_x, even_y]
    out = np.zeros((cx + 2, cy + 2) + r.shape[2:])
    out[1:-1, 1:-1] = cells
    return out


def prolong_staged(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out += P x`` of ``multigrid.prolong``: the copy of ``x`` with each
    coarse node repeated along y and then along x (fine node ``I`` takes
    coarse node ``(I+1)//2``), its last row and column zeroed, added to
    the whole of ``out``."""
    rows, s, n = out.shape
    cr, cs = x.shape[0], x.shape[1]
    along_y = np.empty((cr, cs, 2, n))
    along_y[:, :, 0] = x
    along_y[:, :, 1] = x
    along_y = along_y.reshape(cr, 2 * cs, n)[:, 1:s + 1]
    up = np.empty((cr, 2, s, n))
    up[:, 0] = along_y
    up[:, 1] = along_y
    up = up.reshape(2 * cr, s, n)[1:rows + 1]
    up[-1] = 0.0
    up[:, -1] = 0.0
    out += up
    return out


# ---------------------------------------------------------------------------
# the PGM header tokenizer with its comment rule written twice, and the
# Hessian product as a stencil pass of its own


def read_tokens_two_rules(fh, count: int) -> list[bytes]:
    """``pgmio._read_tokens`` with the comment skip written out twice:
    between tokens it consumes the comment and reads on, inside a token it
    consumes the comment and ends the token."""
    tokens: list[bytes] = []
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            continue
        tok = ch
        while True:
            ch = fh.read(1)
            if not ch or ch.isspace():
                break
            if ch == b"#":
                while ch not in (b"\n", b""):
                    ch = fh.read(1)
                break
            tok += ch
        tokens.append(tok)
    return tokens


def hessian_apply_coupled(point, theta: float, v: np.ndarray) -> np.ndarray:
    """``energy.Hessian(point, theta).apply(v)`` as its own stencil pass:
    the differences of ``v`` over h, the slope products ``g . Dv`` summed
    over the channels, the flux ``a Dv + b g (g . Dv)`` per direction and
    the divergence with the cell weight, plus the data mass."""
    ops = point.ops
    a = point.ratio()
    b = radial_excess(ops.profile, point.t, a, theta)
    ax = ay = a[:, :, None]
    if ops.live is not None:
        ax = ax * ops.live[0]
        ay = ay * ops.live[1]
    vx, vy = ring_differences(v)
    vx /= ops.h
    vy /= ops.h
    s = point.gx * vx
    s += point.gy * vy
    s = s.sum(axis=2, keepdims=True)
    s *= b[:, :, None]
    vx *= ax
    vx += s * point.gx
    vy *= ay
    vy += s * point.gy
    out = ops._divergence(vx, vy)
    if ops.mass is not None:
        out += ops.mass * v
    return out


# ---------------------------------------------------------------------------
# an exact solution of the minimal surface equation


def scherk(a: float, angle: float = 0.0):
    """Scherk's surface ``log(cos(a(y-1/2)) / cos(a(x-1/2))) / a``, rotated
    by ``angle`` about (1/2, 1/2), as a function of ``(X, Y)``.

    It solves the minimal surface equation wherever both rotated
    coordinates times ``a`` stay below pi/2 in size; with a = 2 the unit
    square and the ghost ring of a 16^2 grid or finer lie inside that
    region (its rotated corners reach a|x'| <= 2 sqrt(2) 17/32 ~ 1.50), so
    it is the minimal-surface minimizer for its own boundary values.
    """
    c, s = math.cos(angle), math.sin(angle)

    def fn(X, Y):
        x, y = X - 0.5, Y - 0.5
        xr, yr = c * x + s * y, c * y - s * x
        return np.log(np.cos(a * yr) / np.cos(a * xr)) / a

    return fn


# ---------------------------------------------------------------------------
# a manufactured exact solution of the fidelity problem


def manufactured(grid: Grid2, density, lam: float, amplitude: float):
    """The datum ``f`` for which ``u* = A cos(pi x) cos(pi y)`` minimizes
    ``integral F(grad u) + lam integral (u - f)^2`` on the unit square with
    no mask, and ``u*``, both sampled at the cell centres.

    ``u*`` has zero normal derivative on the square's edges, so it meets
    the Neumann condition, and the Euler equation
    ``-div(grad F(grad u)) + 2 lam (u - f) = 0`` gives
    ``f = u* - div(a grad u*) / (2 lam)`` with ``a = F'(t)/t``, ``t =
    |grad u*|`` and

        div(a grad u) = a Lap u + (F''(t) - a) (grad u . D^2 u grad u) / t^2.

    ``grad u*`` vanishes only at the square's corners and centre, which no
    cell centre of an even grid hits, so ``t > 0`` wherever it is sampled.
    """
    X, Y = grid.centers()
    cx, sx = np.cos(math.pi * X), np.sin(math.pi * X)
    cy, sy = np.cos(math.pi * Y), np.sin(math.pi * Y)
    A, pi2 = amplitude, math.pi ** 2
    u = A * cx * cy
    ux, uy = -A * math.pi * sx * cy, -A * math.pi * cx * sy
    uxx = uyy = -A * pi2 * cx * cy
    uxy = A * pi2 * sx * sy
    t2 = ux * ux + uy * uy
    t = np.sqrt(t2).ravel()
    a = (derivative(density, t, 1) / t).reshape(X.shape)
    d2 = derivative(density, t, 2).reshape(X.shape)
    quad = ux * ux * uxx + 2.0 * ux * uy * uxy + uy * uy * uyy
    div = a * (uxx + uyy) + (d2 - a) * quad / t2
    f = u - div / (2.0 * lam)
    return Field(grid, f[:, :, None]), Field(grid, u[:, :, None])


# ---------------------------------------------------------------------------
# report tables, rendered row by row with f-strings, apart from the CLI's
# table writer


def trace_csv(records) -> str:
    """``trace.csv`` of a continuation solve's rung records."""
    lines = ["delta,energy,plain_energy,residual,iters,tv,interior_sup"]
    for r in records:
        s = r.stats
        lines.append(f"{r.delta!r},{s.energy!r},{r.plain_energy!r},"
                     f"{s.final_residual!r},{s.iters},{r.tv!r},"
                     f"{r.interior_sup!r}")
    return "\n".join(lines) + "\n"


def moser_csv(report) -> str:
    """``moser_<tag>.csv``: j, R_j, s_j, a_j, c_j per level, c_j blank at
    the last level."""
    lines = ["j,R_j,s_j,a_j,c_j"]
    for j in range(report.j_max + 1):
        c = f"{float(report.recursion.c[j])!r}" if j < report.j_max else ""
        lines.append(f"{j},{float(report.radii[j])!r},"
                     f"{float(report.exponents[j])!r},"
                     f"{float(report.masses[j])!r},{c}")
    return "\n".join(lines) + "\n"


def sup_vs_delta_csv(records, reports) -> str:
    """``sup_vs_delta.csv``: each rung's delta and its report's observed
    sup on the limit ball."""
    lines = ["delta,interior_sup"]
    for rec, rep in zip(records, reports):
        lines.append(f"{rec.delta!r},{rep.sup_bound.observed!r}")
    return "\n".join(lines) + "\n"
