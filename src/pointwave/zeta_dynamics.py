"""Reduced dynamics of the point amplitude: zeta' = 4 pi (lambda(t) - F(zeta)).

Integrated with an adaptive embedded Dormand-Prince 5(4) pair whose step is
capped by 0.1 / (1 + 4 pi L), L the Lipschitz constant of the truncated
force; the one-dimensional equation is then unconditionally stable for the
explicit scheme and no implicit fallback is needed.  Accepted steps store the
exact right-hand side, giving a C1 cubic Hermite dense output; zeta_at is
its one evaluator, for one time or for the array of retarded times a field
evaluation needs.  The a priori amplitude bound is monitored: an accepted node outside
[-Lambda, Lambda] aborts the run (it would mean the truncated force differed
from the true one along the trajectory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .free_wave import lambda_at, reduction
from .initial_data import FOUR_PI, InitialState
from .nonlinearity import Nonlinearity, TruncatedNonlinearity


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or internal failure)."""


class TruncationEnteredError(IntegrationError):
    """An accepted amplitude left [-Lambda, Lambda]; the a priori bound is violated."""


@dataclass(frozen=True)
class ODEConfig:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    max_step: float = math.inf
    t_final: float = 50.0

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0.0 or self.t_final <= 0.0:
            raise ValueError("max_step and t_final must be positive")


def step_cap(trunc: TruncatedNonlinearity) -> float:
    return 0.1 / (1.0 + FOUR_PI * trunc.lipschitz_constant)


@dataclass(eq=False)
class ZetaHistory:
    """Dense trajectory with exact node derivatives and C1 Hermite interpolation.

    source_expiry is the time t_s from which the source is known to be the
    constant source_limit, or None when that is not known.
    """

    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    Lambda_used: float
    truncation_activated: bool = False
    source_expiry: float | None = None
    source_limit: float = 0.0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def rhs(trunc: TruncatedNonlinearity, zeta: float, lam: float) -> float:
    """Right-hand side 4 pi (lambda - F~(zeta)) of the reduced equation."""
    return FOUR_PI * (lam - trunc.F(zeta))


# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def integrate_source(
    trunc: TruncatedNonlinearity,
    zeta0: float,
    source: Callable[[float], float],
    cfg: ODEConfig,
) -> ZetaHistory:
    """Integrate the reduced equation with an explicit source term lambda(t)."""
    lam_bound = trunc.Lambda
    cap = min(cfg.max_step, step_cap(trunc))
    t_end = cfg.t_final

    def f(t: float, y: float) -> float:
        return FOUR_PI * (source(t) - trunc.F(y))

    ts = [0.0]
    ys = [zeta0]
    touched_truncation = abs(zeta0) > lam_bound

    k1 = f(0.0, zeta0)
    ds = [k1]
    t, y = 0.0, zeta0
    dt = cap / 10.0
    min_step = max(t_end * 1e-15, 1e-300)
    ks = [0.0] * 7

    while t < t_end:
        dt = min(dt, cap, t_end - t)
        if dt < min_step:
            raise IntegrationError(f"step size underflow at t = {t}")
        ks[0] = k1
        for i in range(1, 7):
            yi = y + dt * sum(_A[i][j] * ks[j] for j in range(i))
            if abs(yi) > lam_bound:
                touched_truncation = True
            ks[i] = f(t + _C[i] * dt, yi)
        y_new = y + dt * sum(_A[6][j] * ks[j] for j in range(6))
        err = dt * sum(_E[j] * ks[j] for j in range(7))
        # dense-output (cubic Hermite) error estimate: third divided difference
        # of the stage slopes approximates the fourth derivative of zeta
        d01 = (ks[2] - ks[0]) / 0.3
        d12 = (ks[3] - ks[2]) / 0.5
        d23 = (ks[6] - ks[3]) / 0.2
        d012 = (d12 - d01) / 0.8
        d123 = (d23 - d12) / 0.7
        err_dense = dt * abs(d123 - d012) / 64.0  # dt^4 |zeta''''| / 384, dt-scaled
        scale = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y_new))
        ratio = max(abs(err), err_dense) / scale
        if ratio <= 1.0:
            # land exactly on the horizon so retarded lookups at t_end succeed
            t = t_end if dt >= t_end - t else t + dt
            y = y_new
            k1 = ks[6]  # FSAL
            ts.append(t)
            ys.append(y)
            ds.append(k1)
            if abs(y) > lam_bound:
                raise TruncationEnteredError(
                    f"|zeta({t})| = {abs(y)} exceeds Lambda = {lam_bound}; "
                    "inconsistent energy level or integrator fault"
                )
        factor = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
        dt *= min(5.0, max(0.2, factor))

    return ZetaHistory(
        times=np.array(ts),
        values=np.array(ys),
        derivs=np.array(ds),
        Lambda_used=lam_bound,
        truncation_activated=touched_truncation,
    )


def integrate(state: InitialState, trunc: TruncatedNonlinearity, cfg: ODEConfig) -> ZetaHistory:
    """Integrate the point amplitude driven by the origin trace of the state.

    By strong Huygens support lambda_at is alpha_pi / 4 pi from the support
    time on; both are stored on the history for detect_limit.
    """
    history = integrate_source(trunc, state.zeta0, lambda t: lambda_at(state, t), cfg)
    red = reduction(state)
    history.source_expiry = red.support_time
    history.source_limit = red.alpha_pi / FOUR_PI
    return history


def zeta_at(history: ZetaHistory, s: np.ndarray) -> tuple:
    """Cubic Hermite interpolation of (zeta, zeta') at times s in [0, horizon].

    Floats for a number s, arrays of its shape for an array s.
    """
    ts = history.times
    s_arr = np.asarray(s, dtype=float)
    if s_arr.size and (s_arr.min() < 0.0 or s_arr.max() > ts[-1]):
        raise ValueError(f"time {s} outside the history horizon [0, {ts[-1]}]")
    i = np.clip(np.searchsorted(ts, s_arr, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    x = (s_arr - ts[i]) / h
    y0, y1 = history.values[i], history.values[i + 1]
    d0, d1 = history.derivs[i], history.derivs[i + 1]
    x2 = x * x
    x3 = x2 * x
    z = (
        (2 * x3 - 3 * x2 + 1) * y0
        + (x3 - 2 * x2 + x) * h * d0
        + (-2 * x3 + 3 * x2) * y1
        + (x3 - x2) * h * d1
    )
    zd = (
        (6 * x2 - 6 * x) * y0 / h
        + (3 * x2 - 4 * x + 1) * d0
        + (-6 * x2 + 6 * x) * y1 / h
        + (3 * x2 - 2 * x) * d1
    )
    if s_arr.ndim == 0:
        return float(z), float(zd)
    return z, zd


@dataclass(frozen=True)
class LimitResult:
    """Certified limit of the amplitude; see detect_limit for `converged`."""

    q_plus: float
    residual: float
    converged: bool
    oscillating: bool


def detect_limit(history: ZetaHistory, nl: Nonlinearity) -> LimitResult:
    """Certify the limit of zeta(t) as t -> infinity from the source's expiry.

    For t >= t_s = history.source_expiry the source is the constant
    c = history.source_limit, so zeta' = 4 pi (c - F(zeta)) is an autonomous
    scalar flow: zeta(t) is monotone and tends to the first zero q of c - F
    beyond zeta(t_s) in the direction sign(c - F(zeta(t_s))), which the a
    priori bound keeps inside [-Lambda, Lambda].

    Converged means that certificate holds: the expiry is known, T >= t_s,
    zeta' keeps one sign on the nodes from t_s on (a sign change is
    impossible for the exact flow and is reported as `oscillating`), and q
    exists in [-Lambda, Lambda].  q is bracketed by doubling steps from
    zeta(T) and refined by brentq; a pair of zeros inside one doubling step,
    or a zero where c - F touches zero without changing sign, is missed.
    residual is |c - F(zeta(T))|.  q_plus is nan when no q is certified.
    """
    t_s = history.source_expiry
    c = history.source_limit
    z_T = float(history.values[-1])
    residual = abs(c - nl.F(z_T))
    if t_s is None or history.horizon < t_s:
        return LimitResult(q_plus=math.nan, residual=residual, converged=False, oscillating=False)

    def g(z: float) -> float:
        return c - nl.F(z)

    z_s, _ = zeta_at(history, t_s)
    direction = float(np.sign(g(z_s)))
    signs = np.append(np.sign(history.derivs[history.times >= t_s]), direction)
    if signs.max() > 0.0 > signs.min():
        return LimitResult(q_plus=math.nan, residual=residual, converged=False, oscillating=True)
    q_plus = _first_zero(g, z_T, direction, history.Lambda_used) if direction else z_s
    return LimitResult(
        q_plus=q_plus, residual=residual, converged=math.isfinite(q_plus), oscillating=False
    )


def _first_zero(g: Callable[[float], float], z: float, direction: float, bound: float) -> float:
    """First zero of g from z on in the given direction, inside [-bound, bound].

    Steps double from 1e-12 max(1, |z|) until g leaves the sign of direction;
    nan when it keeps that sign up to direction * bound.
    """
    a, step = z, 1e-12 * max(1.0, abs(z))
    while g(a) * direction > 0.0:
        if direction * a >= bound:
            return math.nan
        b = direction * min(direction * a + step, bound)
        if g(b) * direction <= 0.0:
            return float(brentq(g, min(a, b), max(a, b), xtol=1e-15))
        a, step = b, 2.0 * step
    return a
