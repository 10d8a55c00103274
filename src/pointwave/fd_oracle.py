"""Independent finite-difference solver for cross-validation.

The substitution u = r psi turns the radial problem into the 1D wave
equation u_tt = u_rr on (0, R] with the nonlinear Robin condition
d_r u(0, t) = F(4 pi u(0, t)) carrying the whole point interaction, and an
exact characteristic outflow condition at r = R.  The scheme is the leapfrog
u^{n+1}_j = u^n_{j+1} + u^n_{j-1} - u^{n-1}_j at Courant number exactly 1,
started by a second-order Taylor step; the point amplitude is 4 pi u^n_0.

At Courant number 1 the leapfrog is exact transport, a discrete d'Alembert
formula: p^n_j = u^{n+1}_j - u^n_{j-1} obeys p^n_j = p^{n-1}_{j+1}, so
p^n_j = p^0_{j+n}, with p^0 = 0 from the outflow row N on.  The march is
therefore a scalar recurrence for the boundary values b_n = u^n_0: the
boundary solve at step n + 1 needs only u^{n+1}_1 = b_n + p^0_{n+1} and
u^{n+1}_2 = u^n_1 + p^0_{n+2}.  A snapshot at step m is read off the
characteristics, u^m_j = b_{m-j} (j <= m) or u^0_{j-m} (j > m) plus the
p^0 crossed on the way, a stride-2 prefix sum.  This is the leapfrog's own
arithmetic with the additions reordered, so it agrees with a full-array march
to rounding.  The transport is exact; the discretization error enters only
through the Taylor start (O(h^3) in each p^0_j) and the one-sided boundary
solve, the sharpest possible configuration for checking the reduced oscillator
dynamics.  With trunc None (free mode, as for initial_data.bare_singular_data)
the trace is homogeneous Dirichlet, b_n = 0 for n >= 1.
Once the last nonzero p^0 has passed, the attraction the oracle checks drives
b_n to a rest value, and in floating point it lands there exactly (step 12,006
of 40,960 on the reference data at h = 8/32768); run stops at that fixed point.

The boundary value u0 solves g(u0) = (-3 u0 + 4 u1 - u2)/(2h) - F~(4 pi u0)
= 0 at each step.  g is strictly decreasing, so the root is unique, when
min F~' > -3/(8 pi h); init_grid refuses a grid step that breaks this rather
than let the solve pick one of several roots.  min F~' is the truncation's
min_slope, decided from the coefficients of F (the window ends and the real
roots of F''), so the refusal is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import FOUR_PI, InitialState
from .nonlinearity import TruncatedNonlinearity
from .zeta_dynamics import ZetaHistory
from .field_assembly import psi_total
from .free_wave import reduction


# radii per psi_total call in compare: the field and zeta_at's quintic
# temporaries on all 32,767 radii at once peaked at 5.5 MiB, 1.5 MiB in blocks
# (tracemalloc)
COMPARE_BLOCK = 4096


class OracleError(RuntimeError):
    """Grid construction or boundary Newton solve failed, the grid step is
    too coarse for a unique boundary root, or a snapshot time is out of range."""


@dataclass(frozen=True, eq=False)
class OracleGrid:
    h: float
    N: int
    r: np.ndarray


def _robin_solve(
    trunc: TruncatedNonlinearity, u1: float, u2: float, h: float, guess: float
) -> float:
    """Newton solve of (-3 u0 + 4 u1 - u2)/(2h) = F~(4 pi u0) for u0.

    The residual g has slope at most -m, m = 3/(2h) + 4 pi min F~' > 0 (see
    init_grid), so its root lies between x and x + g(x)/m.  A Newton iterate
    outside the bracket these bounds give is replaced by the bracket midpoint,
    except for a step below the convergence tolerance: the bounds themselves
    are only good to rounding.
    """
    m = 3.0 / (2.0 * h) + FOUR_PI * trunc.min_slope
    lo, hi = -math.inf, math.inf
    x = guess
    for _ in range(50):
        f, fp = trunc.F_and_slope(FOUR_PI * x)
        g = (-3.0 * x + 4.0 * u1 - u2) / (2.0 * h) - f
        gp = -3.0 / (2.0 * h) - FOUR_PI * fp
        dx = g / gp
        if abs(dx) <= 1e-15 * (1.0 + abs(x - dx)):
            return x - dx
        if g > 0.0:
            lo, hi = x, min(hi, x + g / m)
        else:
            lo, hi = max(lo, x + g / m), x
        x = x - dx if lo <= x - dx <= hi else 0.5 * (lo + hi)
    raise OracleError(
        f"boundary Newton did not converge in 50 iterations (u0 near {x}, u1 = {u1})"
    )


def init_grid(
    state: InitialState,
    trunc: TruncatedNonlinearity | None,
    h: float,
    R: float,
) -> tuple[OracleGrid, np.ndarray, np.ndarray]:
    """Sample u = r psi0 on the grid and take one second-order Taylor step.

    Returns the grid and the start levels u^0 and u^1.  The outflow condition
    is exact for purely outgoing signals, so R only needs to contain the data
    support; no reflection develops afterwards.  trunc None is free mode;
    otherwise the boundary needs min F~' > -3/(8 pi h) (see the module
    docstring).
    """
    if h <= 0.0:
        raise OracleError("h must be positive")
    N = int(round(R / h))
    if abs(N * h - R) > 1e-9 * R:
        raise OracleError(f"R = {R} is not an integer multiple of h = {h}")
    if R < state.support_radius + 2.0 * h:
        raise OracleError(
            f"grid radius {R} does not contain the data support {state.support_radius}"
        )
    if trunc is not None and not trunc.min_slope > -3.0 / (2.0 * FOUR_PI * h):
        h_max = 3.0 / (2.0 * FOUR_PI * abs(trunc.min_slope))
        raise OracleError(
            f"boundary equation is not monotone at h = {h} (min F~' = "
            f"{trunc.min_slope:.6g}); a unique root needs h < {h_max:.3e} = 3/(8 pi |min F~'|)"
        )

    r = np.arange(N + 1) * h
    u0, v0 = state.reduced_data(r)

    u1 = np.empty(N + 1)
    u1[1:-1] = u0[1:-1] + h * v0[1:-1] + 0.5 * (u0[2:] - 2.0 * u0[1:-1] + u0[:-2])
    u1[-1] = u0[-2]
    u1[0] = 0.0 if trunc is None else _robin_solve(trunc, u1[1], u1[2], h, u0[0])
    return OracleGrid(h=h, N=N, r=r), u0, u1


@dataclass(frozen=True, eq=False)
class OracleRun:
    grid: OracleGrid
    times: np.ndarray
    trace: np.ndarray  # 4 pi u(0, t)
    snapshots: dict[float, np.ndarray]


def run(
    state: InitialState,
    trunc: TruncatedNonlinearity | None,
    T: float,
    h: float,
    R: float,
    snapshot_times: tuple[float, ...] = (),
) -> OracleRun:
    """March to time T, recording the amplitude trace and requested snapshots.

    trunc None runs free mode.  Snapshot times must lie in [0, T].  The march
    stops at an exact fixed point.  Once n + 1 > quiet, the index of the last
    nonzero p^0, u_1 = b_n and no later step reads a p^0.  If then b_{n+1} =
    u_1 = u_2, step n + 2 solves from u_1 = b_{n+1}, u_2 = the old u_1 and guess
    b_{n+1}, the floats that gave b_{n+1}: by induction all later b are b_{n+1}.
    """
    for ts in snapshot_times:
        if not 0.0 <= ts <= T:
            raise OracleError(f"snapshot time {ts} is outside [0, T = {T}]")
    grid, u0, u1 = init_grid(state, trunc, h, R)
    N = grid.N
    n_steps = max(int(round(T / h)), 1)  # the start levels u^0, u^1 always exist
    p = np.zeros(N + n_steps + 2)
    p[1 : N + 1] = u1[1:] - u0[:-1]
    b = np.zeros(n_steps + 1)  # u^n_0; free mode keeps b_n = 0 for n >= 1
    b[:2] = u0[0], u1[0]
    if trunc is not None:
        quiet = int(np.flatnonzero(p).max(initial=0))  # p^0_k = 0 for k > quiet
        b_n, u_1 = float(u1[0]), float(u1[1])  # u^n_0, u^n_1
        for n in range(1, n_steps):
            u_1, u_2 = b_n + p.item(n + 1), u_1 + p.item(n + 2)
            b_n = b[n + 1] = _robin_solve(trunc, u_1, u_2, h, b_n)
            if n + 1 > quiet and b_n == u_1 == u_2:  # u_1 is b[n] once p[n + 1] = 0
                b[n + 2 :] = b_n  # an exact fixed point: see above
                break

    S = np.zeros(len(p) + 2)  # S[k + 2] = p[k] + p[k - 2] + ... + p[k mod 2]
    S[2::2] = np.cumsum(p[0::2])
    S[3::2] = np.cumsum(p[1::2])
    j = np.arange(N + 1)
    snapshots = {}
    for ts in snapshot_times:
        m = int(round(ts / h))
        base = np.concatenate((b[m::-1], u0[1:]))[: N + 1]
        snapshots[ts] = base + (S[j + m + 1] - S[np.abs(j - m) + 1])
    return OracleRun(grid=grid, times=np.arange(len(b)) * h, trace=FOUR_PI * b, snapshots=snapshots)


def interior_energy(
    grid: OracleGrid, u_prev: np.ndarray, u_curr: np.ndarray, r_max: float
) -> float:
    """Discrete wave energy inside r < r_max from two adjacent levels
    (transparency diagnostic)."""
    j_max = min(int(r_max / grid.h), grid.N - 1)
    ut = (u_curr[: j_max + 1] - u_prev[: j_max + 1]) / grid.h
    ur = (u_curr[2 : j_max + 2] - u_curr[:j_max]) / (2.0 * grid.h)
    return float(grid.h * (np.sum(ut[1:-1] ** 2) + np.sum(ur**2)))


def compare(
    state: InitialState,
    history: ZetaHistory,
    oracle_run: OracleRun,
    t: float,
    R: float,
) -> tuple[float, float]:
    """Relative L2(B_R) discrepancy between semi-analytic and oracle fields.

    Returns the global figure and one excluding bands of half-width 5h around
    the kink radii (derivative kinks on the cones from the data edges degrade
    the raw order by design, not by fault).  Every node r_j of the grid inside
    B_R is compared; one exactly on the light cone r = t needs no exception,
    because psi_total is continuous there.
    """
    if t not in oracle_run.snapshots:
        raise OracleError(f"no oracle snapshot stored at t = {t}")
    u = oracle_run.snapshots[t]
    h = oracle_run.grid.h
    r = oracle_run.grid.r
    j_max = min(int(round(R / h)), len(r) - 1)
    rr = r[1 : j_max + 1]
    psi_or = u[1 : j_max + 1] / rr
    psi_sa = np.empty_like(rr)
    for i in range(0, len(rr), COMPARE_BLOCK):
        psi_sa[i : i + COMPARE_BLOCK] = psi_total(state, history, rr[i : i + COMPARE_BLOCK], t).psi
    w = rr * rr
    num = float(np.sum(w * (psi_sa - psi_or) ** 2))
    den = float(np.sum(w * psi_sa**2))
    rel = math.sqrt(num / den) if den > 0.0 else math.sqrt(num)

    mask = np.ones(len(rr), dtype=bool)
    for kr in reduction(state).kink_radii(t, 0.0, R + 1.0) | {t}:
        mask &= np.abs(rr - kr) >= 5.0 * h
    num_x = float(np.sum(w[mask] * (psi_sa - psi_or)[mask] ** 2))
    den_x = float(np.sum(w[mask] * psi_sa[mask] ** 2))
    rel_x = math.sqrt(num_x / den_x) if den_x > 0.0 else math.sqrt(num_x)
    return rel, rel_x
