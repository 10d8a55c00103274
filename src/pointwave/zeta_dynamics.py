"""Reduced dynamics of the point amplitude: zeta' = 4 pi (lambda(t) - F(zeta)).

The source gives lambda and lambda' from one call.  Every node stores zeta,
zeta' and the exact zeta'' = 4 pi (lambda'(t) - F~'(zeta) zeta'), so the
dense output is the quintic Hermite interpolant: C2, with local error
O(dt^6) (Hairer, Norsett, Wanner, Solving ODEs I, II.6).  zeta_at is its one
evaluator, for one time or for the array of retarded times a field
evaluation needs.  While the source acts, an adaptive embedded
Dormand-Prince 5(4) pair makes the nodes, capped at its real stability
boundary (see step_cap).  A step is accepted when both DP5's embedded error
and the defect of the candidate quintic are within tolerance; the defect is
the residual of the equation at the stage times 3/10 and 8/9, where the
stages already hold lambda.  DP5 lands a node on the source's expiry t_s.
From there zeta' = 4 pi (c - F(zeta)) is autonomous and monotone towards its
rest point q, and its exact time map makes the nodes, spaced by the same
defect test (see _time_map); without a certified q with F'(q) > 0, DP5 goes
on.  The a priori amplitude bound is monitored: an accepted DP5 node outside
[-Lambda, Lambda] aborts the run (it would mean the truncated force differed
from the true one along the trajectory).  So is the work: more than
ATTEMPTS_PER_CAP attempts per global step cap of the horizon raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .free_wave import lambda_at, reduction
from .initial_data import FOUR_PI, InitialState
from .nonlinearity import Nonlinearity, TruncatedNonlinearity, _derivative, _horner
from .quadrature import _W8, _X8


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


# z* > 0 with R(-z*) = 1, R(z) = sum_{k<=5} z^k / k! + z^6 / 600 the stability
# function of DP5 (Hairer, Norsett, Wanner, Solving ODEs I, II.4)
DP5_REAL_BOUNDARY = 3.3065678926349467
# attempted steps allowed per global step cap of the horizon: 14.7x the most a
# test needs (682, a wrong source derivative), 770x the most a benchmark needs
ATTEMPTS_PER_CAP = 10_000


def step_cap(trunc: TruncatedNonlinearity) -> float:
    """Largest step the DP5 pair takes safely on zeta' = 4 pi (c - F~(zeta)).

    Near a rest state q a step multiplies zeta - q by R(-dt 4 pi F~'(q)), and
    0.173 <= R <= 1 on [-z*, 0]: no step within z* / (4 pi L), L the
    Lipschitz constant of F~ (at least its curvature floor), overshoots q or
    moves away from it.  Past z*, R > 1 and steps move away.  The time map
    that follows the source's expiry needs no cap.
    """
    return DP5_REAL_BOUNDARY / (FOUR_PI * trunc.lipschitz_constant)


@dataclass(eq=False)
class ZetaHistory:
    """Dense trajectory: nodes with exact zeta, zeta' and zeta'', read by zeta_at.

    zeta_at is the quintic Hermite interpolant of the nodes, so the history
    is C2 in time.  source_expiry is the time t_s from which the source is
    known to be the constant source_limit, or None when that is not known.
    """

    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    second: np.ndarray
    Lambda_used: float
    truncation_activated: bool = False
    source_expiry: float | None = None
    source_limit: float = 0.0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _hermite5(x, h, y0, y1, d0, d1, s0, s1) -> tuple:
    """Quintic Hermite (z, z') at x = (s - t0) / h in [0, 1] of one node interval.

    (y, d, s) are the value and first and second derivatives at the ends.
    Anchored at the nearer end, so x = 0 gives y0, d0, x = 1 gives y1, d1
    and constant data gives the constant, all exactly.  Numbers or arrays.
    """
    u = 1.0 - x
    x2, u2 = x * x, u * u
    near = x >= 0.5
    z = np.where(near, y1, y0) + (y1 - y0) * (x2 * x * (1.0 + 3.0 * u + 6.0 * u2) - near)
    z += (h * x * u) * (
        u2 * (d0 * (1.0 + 3.0 * x) + 0.5 * h * x * s0)
        - x2 * (d1 * (1.0 + 3.0 * u) - 0.5 * h * u * s1)
    )
    zd = u2 * (d0 * (1.0 + 2.0 * x - 15.0 * x2) + h * x * (1.0 - 2.5 * x) * s0)
    zd += x2 * (
        d1 * (1.0 + 2.0 * u - 15.0 * u2) - h * u * (1.0 - 2.5 * u) * s1 + 30.0 * u2 * (y1 - y0) / h
    )
    return z, zd


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
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# weights of (y0, y1, h d0, h d1, h^2 s0, h^2 s1) in z and of (y0 / h, y1 / h,
# d0, d1, h s0, h s1) in z' at the stage times 3/10 and 8/9 of the defect; the
# y0 and y1 weights of z' are opposite
_DEFECT_WEIGHTS = tuple(
    tuple(tuple(w.tolist()) for w in _hermite5(x, 1.0, *np.eye(6))) for x in (_C[2], _C[4])
)


def _resize(dt: float, ratio: float) -> float:
    """Next step after one of error ratio `ratio` (accepted if <= 1), within [dt / 5, 5 dt]."""
    factor = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
    return dt * min(5.0, max(0.2, factor))


def _time_map(shift: np.ndarray, q: float, nodes: list, dt: float, cfg: ODEConfig, spend) -> None:
    """Append nodes up to t_final of zeta' = 4 pi (c - F(zeta)) from nodes[-1], at t_s,
    on to its rest point q; shift holds the coefficients of F(q + e) in e, highest first.

    zeta = q + e_s exp(-x) gives dx/dt = 4 pi P(e) > 0, P(e) = (F(q + e) - F(q)) / e,
    so a node at x has zeta, zeta' = -4 pi e P(e) and zeta'' = -4 pi F'(zeta)
    zeta' exactly.  Its time adds the 8-point Gauss rule for int dx / (4 pi P):
    exact to degree 15 in x, ten beyond the quintic whose defect at the stage
    times accepts the step, as in DP5.  A step past t0 + max_step or t_final
    lands on it by Newton on x.
    """
    t0, y0, d0, s0 = nodes[-1]
    e_s, p, fp = y0 - q, shift[:-1].tolist(), _derivative(shift.tolist())
    if e_s == 0.0:
        nodes.append((cfg.t_final, y0, 0.0, 0.0))
        return

    def rate(e):  # dx/dt
        return FOUR_PI * _horner(p, e)

    def elapsed(x0, x1):  # t(x1) - t(x0)
        mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        return half * float(_W8 @ (1.0 / rate(e_s * np.exp(-(mid + half * _X8)))))

    weights = np.array(_DEFECT_WEIGHTS)  # [stage, z or z', term]
    x0, dx = 0.0, dt * rate(e_s)
    while t0 < cfg.t_final:
        limit = min(cfg.t_final, t0 + cfg.max_step)
        x1 = x0 + dx
        t1 = t0 + elapsed(x0, x1)
        if t1 >= limit:  # Newton on x, down to round-off
            step = math.inf
            while abs(newton := (limit - t1) * rate(e_s * math.exp(-x1))) < abs(step):
                step, x1 = newton, max(x1 + newton, x0)
                t1 = t0 + elapsed(x0, x1)
            t1 = limit
        h = t1 - t0
        spend(t0, h)
        e1 = e_s * math.exp(-x1)
        y1, d1 = q + e1, -rate(e1) * e1
        s1 = -FOUR_PI * _horner(fp, e1) * d1
        e = weights[:, 0] @ (y0 - q, e1, h * d0, h * d1, h * h * s0, h * h * s1)
        zd = weights[:, 1] @ (0.0, (y1 - y0) / h, d0, d1, h * s0, h * s1)
        defect = h * np.max(np.abs(zd + rate(e) * e))
        ratio = defect / (cfg.abs_tol + cfg.rel_tol * max(abs(y0), abs(y1)))
        dx = _resize(x1 - x0, ratio)
        if ratio <= 1.0:
            t0, x0, y0, d0, s0 = t1, x1, y1, d1, s1
            nodes.append((t1, y1, d1, s1))


def integrate_source(
    trunc: TruncatedNonlinearity,
    zeta0: float,
    source: Callable[[float], tuple[float, float]],
    cfg: ODEConfig,
    source_expiry: float | None = None,
    source_limit: float = 0.0,
) -> ZetaHistory:
    """Integrate the reduced equation with an explicit source term lambda(t).

    source(t) returns (lambda, lambda'); DP5 reads lambda' at a new node from
    the last stage, which it evaluates there anyway.  A wrong lambda' costs
    steps, not accuracy: the defect estimate sees it, and as it is then
    O(dt^2) rather than O(dt^6), the steps become very short.
    source_expiry and source_limit declare that lambda = source_limit from
    source_expiry on; they are stored on the history, and the time map
    makes the nodes from then on where it applies (see the module doc).
    """
    lam_bound = trunc.Lambda
    F, F_prime = trunc.F, trunc.F_prime
    cap = min(cfg.max_step, step_cap(trunc))
    t_end = cfg.t_final
    expiry = math.inf if source_expiry is None else max(source_expiry, 0.0)

    touched_truncation = abs(zeta0) > lam_bound
    t, y = 0.0, zeta0
    lam0, dlam0 = source(0.0)
    k1 = FOUR_PI * (lam0 - F(y))
    s0 = FOUR_PI * (dlam0 - F_prime(y) * k1)
    nodes = [(t, y, k1, s0)]
    dt = cap / 10.0
    min_step = max(t_end * 1e-15, 1e-300)
    budget = attempts_left = math.ceil(ATTEMPTS_PER_CAP * max(1.0, t_end / cap))

    def spend(t: float, dt: float) -> None:
        nonlocal attempts_left
        if dt < min_step:
            raise IntegrationError(f"step size underflow at t = {t}")
        attempts_left -= 1
        if attempts_left < 0:
            raise IntegrationError(
                f"{budget} attempted steps reached at t = {t}, dt = {dt:.3e}; "
                "is the declared source derivative right?"
            )

    # the tableau and the defect weights as locals, for the written-out stages
    c2, c3, c4, c5 = _C[1:5]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _A[1:5]
    (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = _A[5:]
    e1, _, e3, e4, e5, e6, e7 = _E
    ((p0, p1, p2, p3, p4, p5), (_, v1, v2, v3, v4, v5)) = _DEFECT_WEIGHTS[0]
    ((q0, q1, q2, q3, q4, q5), (_, w1, w2, w3, w4, w5)) = _DEFECT_WEIGHTS[1]

    while t < t_end:
        if t == expiry:
            expiry = math.inf
            q = trunc.base.rest_point(y, source_limit, lam_bound)
            shift = Polynomial(trunc.base.coefficients)(Polynomial([q, 1.0])).coef[::-1]
            if abs(y) <= lam_bound and (y == q or shift[-2] > 0.0):
                _time_map(shift, q, nodes, dt, cfg, spend)
                break
        stop = min(t_end, expiry)
        dt = min(dt, cap, stop - t)
        spend(t, dt)
        y2 = y + dt * (a21 * k1)
        k2 = FOUR_PI * (source(t + c2 * dt)[0] - F(y2))
        y3 = y + dt * (a31 * k1 + a32 * k2)
        lam3 = source(t + c3 * dt)[0]
        k3 = FOUR_PI * (lam3 - F(y3))
        y4 = y + dt * (a41 * k1 + a42 * k2 + a43 * k3)
        k4 = FOUR_PI * (source(t + c4 * dt)[0] - F(y4))
        y5 = y + dt * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
        lam5 = source(t + c5 * dt)[0]
        k5 = FOUR_PI * (lam5 - F(y5))
        y6 = y + dt * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
        k6 = FOUR_PI * (source(t + dt)[0] - F(y6))
        y_new = y + dt * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        lam7, dlam7 = source(t + dt)
        k7 = FOUR_PI * (lam7 - F(y_new))
        if max(abs(y2), abs(y3), abs(y4), abs(y5), abs(y6), abs(y_new)) > lam_bound:
            touched_truncation = True
        err = dt * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        # defect of the candidate quintic at the stage times 3/10 and 8/9
        s1 = FOUR_PI * (dlam7 - F_prime(y_new) * k7)
        hd0, hd1, h2s0, h2s1 = dt * k1, dt * k7, dt * dt * s0, dt * dt * s1
        z3 = p0 * y + p1 * y_new + p2 * hd0 + p3 * hd1 + p4 * h2s0 + p5 * h2s1
        z5 = q0 * y + q1 * y_new + q2 * hd0 + q3 * hd1 + q4 * h2s0 + q5 * h2s1
        slope = (y_new - y) / dt
        zd3 = v1 * slope + v2 * k1 + v3 * k7 + (v4 * s0 + v5 * s1) * dt
        zd5 = w1 * slope + w2 * k1 + w3 * k7 + (w4 * s0 + w5 * s1) * dt
        defect = dt * max(
            abs(zd3 - FOUR_PI * (lam3 - F(z3))), abs(zd5 - FOUR_PI * (lam5 - F(z5)))
        )
        scale = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y_new))
        ratio = max(abs(err), defect) / scale
        if ratio <= 1.0:
            # land exactly on t_s for the time map and on t_end for retarded lookups
            t = stop if dt >= stop - t else t + dt
            y, k1, s0 = y_new, k7, s1  # FSAL
            nodes.append((t, y, k1, s0))
            if abs(y) > lam_bound:
                raise TruncationEnteredError(
                    f"|zeta({t})| = {abs(y)} exceeds Lambda = {lam_bound}; "
                    "inconsistent energy level or integrator fault"
                )
        dt = _resize(dt, ratio)

    return ZetaHistory(
        *map(np.array, zip(*nodes)),  # times, values, derivs, second
        Lambda_used=lam_bound,
        truncation_activated=touched_truncation,
        source_expiry=source_expiry,
        source_limit=source_limit,
    )


def integrate(state: InitialState, trunc: TruncatedNonlinearity, cfg: ODEConfig) -> ZetaHistory:
    """Integrate the point amplitude driven by the origin trace of the state.

    By strong Huygens support lambda_at is alpha_pi / 4 pi from the support
    time on; both are stored on the history for detect_limit.
    """
    red = reduction(state)
    return integrate_source(
        trunc,
        state.zeta0,
        lambda t: lambda_at(state, t),
        cfg,
        source_expiry=red.support_time,
        source_limit=red.alpha_pi / FOUR_PI,
    )


def zeta_at(history: ZetaHistory, s: np.ndarray) -> tuple:
    """Quintic Hermite interpolation of (zeta, zeta') at times s in [0, horizon].

    Floats for a number s, arrays of its shape for an array s.
    """
    ts = history.times
    s_arr = np.asarray(s, dtype=float)
    if s_arr.size and (s_arr.min() < 0.0 or s_arr.max() > ts[-1]):
        raise ValueError(f"time {s} outside the history horizon [0, {ts[-1]}]")
    i = np.clip(np.searchsorted(ts, s_arr, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    ys, ds, ss = history.values, history.derivs, history.second
    z, zd = _hermite5((s_arr - ts[i]) / h, h, ys[i], ys[i + 1], ds[i], ds[i + 1], ss[i], ss[i + 1])
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
    exists in [-Lambda, Lambda].  q is Nonlinearity.rest_point from zeta(t_s),
    decided from the coefficients of F.  residual is |c - F(zeta(T))|.
    q_plus is nan when no q is certified.
    """
    t_s = history.source_expiry
    c = history.source_limit
    z_T = float(history.values[-1])
    residual = abs(c - nl.F(z_T))
    if t_s is None or history.horizon < t_s:
        return LimitResult(q_plus=math.nan, residual=residual, converged=False, oscillating=False)

    z_s, _ = zeta_at(history, t_s)
    signs = np.append(np.sign(history.derivs[history.times >= t_s]), np.sign(c - nl.F(z_s)))
    if signs.max() > 0.0 > signs.min():
        return LimitResult(q_plus=math.nan, residual=residual, converged=False, oscillating=True)
    q_plus = nl.rest_point(z_s, c, history.Lambda_used)
    return LimitResult(
        q_plus=q_plus, residual=residual, converged=math.isfinite(q_plus), oscillating=False
    )

