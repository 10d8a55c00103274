"""Independent finite-difference solver for cross-validation.

The substitution u = r psi turns the radial problem into the 1D wave
equation u_tt = u_rr on (0, R] with the nonlinear Robin condition
d_r u(0, t) = F(4 pi u(0, t)) carrying the whole point interaction, and an
exact characteristic outflow condition at r = R.  The grid runs at Courant
number exactly 1, which makes the interior leapfrog update exact: every bit
of discretization error is concentrated at the nonlinear boundary, the
sharpest possible configuration for checking the reduced oscillator
dynamics.  The point amplitude is read off as 4 pi u(0, t).

The boundary value u0 solves g(u0) = (-3 u0 + 4 u1 - u2)/(2h) - F~(4 pi u0)
= 0 at each step.  g is strictly decreasing, so the root is unique, when
min F~' > -3/(8 pi h); init_grid refuses a grid step that breaks this rather
than let the solve pick one of several roots.  min F~' is the truncation's
min_slope, taken from a 2001-point sample of F' (exact for the shipped
polynomial forces, whose minimiser zeta = 0 is a sample point; only as good
as the sample for other forces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .initial_data import FOUR_PI, InitialState
from .nonlinearity import TruncatedNonlinearity
from .zeta_dynamics import ZetaHistory
from .field_assembly import psi_total
from .free_wave import reduction


class OracleError(RuntimeError):
    """Grid construction or boundary Newton solve failed, or the grid step is
    too coarse for a unique boundary root."""


@dataclass(eq=False)
class OracleGrid:
    h: float
    N: int
    r: np.ndarray
    dt: float
    u_prev: np.ndarray
    u_curr: np.ndarray
    n: int  # time index of u_curr
    mode: str = "interacting"  # or "free" (homogeneous Dirichlet trace)

    @property
    def R(self) -> float:
        return self.N * self.h

    @property
    def t(self) -> float:
        return self.n * self.dt

    @property
    def trace_value(self) -> float:
        return FOUR_PI * float(self.u_curr[0])


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
        g = (-3.0 * x + 4.0 * u1 - u2) / (2.0 * h) - trunc.F(FOUR_PI * x)
        gp = -3.0 / (2.0 * h) - FOUR_PI * trunc.F_prime(FOUR_PI * x)
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
    mode: str = "interacting",
) -> OracleGrid:
    """Sample u = r psi0 on the grid and take one second-order Taylor step.

    The outflow condition is exact for purely outgoing signals, so R only
    needs to contain the data support; no reflection develops afterwards.
    Interacting mode needs min F~' > -3/(8 pi h) (see the module docstring).
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
    if mode not in ("interacting", "free"):
        raise OracleError(f"unknown mode {mode!r}")
    if mode == "interacting" and trunc is None:
        raise OracleError("interacting mode needs a truncated nonlinearity")
    if mode == "interacting" and not trunc.min_slope > -3.0 / (2.0 * FOUR_PI * h):
        h_max = 3.0 / (2.0 * FOUR_PI * abs(trunc.min_slope))
        raise OracleError(
            f"boundary equation is not monotone at h = {h} (min F~' = "
            f"{trunc.min_slope:.6g}); a unique root needs h < {h_max:.3e} = 3/(8 pi |min F~'|)"
        )

    r = np.arange(N + 1) * h
    u0 = np.empty(N + 1)
    u0[0] = state.zeta0 / FOUR_PI
    u0[1:] = [rr * state.psi0(rr) for rr in r[1:]]
    v0 = np.empty(N + 1)
    v0[0] = state.zeta_dot0 / FOUR_PI
    v0[1:] = [rr * state.pi0(rr) for rr in r[1:]]

    dt = h  # Courant number 1
    u1 = np.empty(N + 1)
    u1[1:-1] = u0[1:-1] + dt * v0[1:-1] + 0.5 * (u0[2:] - 2.0 * u0[1:-1] + u0[:-2])
    u1[-1] = u0[-2]
    if mode == "free":
        u1[0] = 0.0
    else:
        u1[0] = _robin_solve(trunc, u1[1], u1[2], h, u0[0])
    return OracleGrid(h=h, N=N, r=r, dt=dt, u_prev=u0, u_curr=u1, n=1, mode=mode)


def step(grid: OracleGrid, trunc: TruncatedNonlinearity | None) -> None:
    """One leapfrog step; interior exact at Courant 1, Newton at the origin."""
    u_next = np.empty(grid.N + 1)
    uc, up = grid.u_curr, grid.u_prev
    u_next[1:-1] = uc[2:] + uc[:-2] - up[1:-1]
    u_next[-1] = uc[-2]
    if grid.mode == "free":
        u_next[0] = 0.0
    else:
        u_next[0] = _robin_solve(trunc, u_next[1], u_next[2], grid.h, uc[0])
    grid.u_prev = uc
    grid.u_curr = u_next
    grid.n += 1


@dataclass(eq=False)
class OracleRun:
    times: np.ndarray
    trace: np.ndarray  # 4 pi u(0, t)
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)
    grid: OracleGrid | None = None


def run(
    state: InitialState,
    trunc: TruncatedNonlinearity | None,
    T: float,
    h: float,
    R: float,
    snapshot_times: tuple[float, ...] = (),
    mode: str = "interacting",
) -> OracleRun:
    """March to time T, recording the amplitude trace and requested snapshots."""
    grid = init_grid(state, trunc, h, R, mode=mode)
    n_steps = int(round(T / grid.dt))
    wanted = {int(round(ts / grid.dt)): ts for ts in snapshot_times}
    trace = [FOUR_PI * grid.u_prev[0], FOUR_PI * grid.u_curr[0]]
    snapshots: dict[float, np.ndarray] = {}
    if 0 in wanted:
        snapshots[wanted[0]] = grid.u_prev.copy()
    if 1 in wanted:
        snapshots[wanted[1]] = grid.u_curr.copy()
    for n in range(2, n_steps + 1):
        step(grid, trunc)
        trace.append(grid.trace_value)
        if n in wanted:
            snapshots[wanted[n]] = grid.u_curr.copy()
    times = np.arange(len(trace)) * grid.dt
    return OracleRun(times=times, trace=np.array(trace), snapshots=snapshots, grid=grid)


def huygens_probe_state(zeta0: float, zeta_dot0: float) -> InitialState:
    """Bare cutoff-singular data for linear free-evolution probes.

    Not an admissible interacting state (no compatibility bump), which is why
    it bypasses make_initial_state; use with mode="free" only.
    """
    from .initial_data import ZERO_PROFILE
    from .nonlinearity import linear

    return InitialState(
        phi_c=ZERO_PROFILE,
        pi_c=ZERO_PROFILE,
        zeta0=zeta0,
        zeta_dot0=zeta_dot0,
        nl=linear(),
    )


def interior_energy(grid: OracleGrid, r_max: float) -> float:
    """Discrete wave energy inside r < r_max (transparency diagnostic)."""
    j_max = min(int(r_max / grid.h), grid.N - 1)
    ut = (grid.u_curr[: j_max + 1] - grid.u_prev[: j_max + 1]) / grid.dt
    ur = (grid.u_curr[2 : j_max + 2] - grid.u_curr[: j_max]) / (2.0 * grid.h)
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
    psi_sa = psi_total(state, history, rr, t).psi
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
