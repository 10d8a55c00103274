"""Total field reconstruction, conserved energy, and distance to rest states.

Everything is assembled in the reduced variable u = r psi.  The total field
is the free (dispersive) wave plus the retarded wave emitted by the point
amplitude, neither of which carries a 1/r in u:

    u(r, t) = u_f(r, t) + theta(t - r) zeta(t - r) / 4pi,
    d_t u_S = theta zeta'(t - r) / 4pi,   d_r u_S = -d_t u_S,

with theta(0) = 1/2 on the cone, where the free part returns the mean of its
one-sided limits (sign(0) = 0), so the sum is the continuous field there.
u(0, t) = zeta(t) / 4pi, so the regularized field psi_reg = psi - zeta(t) G
has the origin trace psi_reg(0, t) = d_r u(0, t), which equals
F(zeta(t)) = lambda(t) - zeta'(t) / 4pi; regular_trace evaluates it exactly.

_assemble is the one place the two parts are added, on an array of radii
r >= 0; psi_total divides by r at the end, and energy, distance_to_stationary
and regular_trace read u directly.  The conserved energy is

    H = 1/2 int (psi_t^2 + |grad psi_reg|^2) + U(zeta) = 2 pi int_0^R (u_t^2 + u_r^2) dr + U(zeta),

because integrating r^2 (d_r psi_reg)^2 by parts leaves u_r^2 plus a
boundary term at R that cancels the Coulomb-tail integral outside the ball
exactly (u_r = u_t = 0 there).  R must contain the light cone of the data
support; no integrand needs a limit at r = 0.

energy is the independent audit of that integral.  energy_ledger gives H at
many times at once from the characteristics of u_tt = u_rr: u_t + u_r
carries the incoming data D(s) = u0'(s) + v0(s) in from r + t, u_t - u_r
carries E(s) = v0(s) - u0'(s) out from r - t outside the cone, and
zeta'(t - r) / 2pi - D(t - r) inside it, where the oscillator has answered
(the reduced functions of free_wave.OddReduction).  So

    H(t) = pi int_t^oo D^2 + pi int_0^oo E^2 + pi int_0^t (zeta'/2pi - D)^2 dtau + U(zeta(t))

is incoming + outgoing + re-emitted + potential.  dH/dt = zeta' (zeta'/4pi
+ F(zeta) - D), which the reduced equation makes 0 because lambda(t) = D(t).
Once the source expires (D = 0 from t_s on) the incoming part is 0 and the
re-emitted part grows by int zeta'^2 / 4pi, the radiation, as U(zeta) falls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# dispersive_eval stays bound because perfbench/tracer.py wraps it by this name
from .free_wave import check_domain, dispersive_batch, dispersive_eval, reduction  # noqa: F401
from .initial_data import FOUR_PI, InitialState
from .quadrature import integrate_panels, split_points
from .zeta_dynamics import ZetaHistory, zeta_at


# 8-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
# equal pieces per panel between data kinks: on reference one panel over the
# cutoff band puts 3.4e-5 on H, 8 pieces 3.3e-11, 16 or more the ODE's 3.4e-13
DATA_SUBPANELS = 128
# panels per vectorized block: zeta_at's quintic temporaries (about twenty
# arrays) on every point at once peaked at 2.1 MiB on quintic_attraction,
# 0.59 MiB in blocks of 448 (tracemalloc)
PANEL_BLOCK = 448


class HistoryHorizonError(ValueError):
    """Retarded time beyond the integrated trajectory horizon."""


def green(r: float) -> float:
    """Coulomb kernel 1 / (4 pi r) of the 3D Laplacian."""
    if r <= 0.0:
        raise ValueError("green requires r > 0")
    return 1.0 / (FOUR_PI * r)


@dataclass(frozen=True)
class FieldSample:
    """Field at radii r and time t: numbers for a number r, else arrays shaped like r."""

    r: np.ndarray
    t: float
    psi: np.ndarray
    psi_dot: np.ndarray
    psi_f: np.ndarray
    psi_f_dot: np.ndarray
    psi_S: np.ndarray
    psi_S_dot: np.ndarray
    psi_reg: np.ndarray


@dataclass(frozen=True)
class EnergyReport:
    t: float
    kinetic: float
    gradient: float
    potential: float
    total: float


def _zeta_pair(state: InitialState, history: ZetaHistory | None, t: float) -> tuple[float, float]:
    if history is None:
        if t != 0.0:
            raise ValueError("a trajectory history is required for t > 0")
        return state.zeta0, state.zeta_dot0
    if t > history.horizon:
        raise HistoryHorizonError(f"t = {t} beyond horizon {history.horizon}")
    return zeta_at(history, t)


def u_singular(history: ZetaHistory | None, r: np.ndarray, t: float) -> tuple:
    """Retarded wave u_S = theta(t - r) zeta(t - r) / 4pi and d_t u_S at radii r >= 0.

    theta(0) = 1/2; exactly zero where t < r, where no history is needed.
    """
    r = np.asarray(r, dtype=float)
    theta = np.heaviside(t - r, 0.5)
    if not theta.any():
        zero = np.zeros_like(r)[()]
        return zero, zero
    s = np.maximum(t - r, 0.0)
    if history is None or s.max() > history.horizon:
        raise HistoryHorizonError(
            f"retarded time {s.max()} beyond trajectory horizon"
            + (f" {history.horizon}" if history is not None else " (no history)")
        )
    z, zd = zeta_at(history, s)
    w = theta / FOUR_PI
    # np.where keeps the zero outside the cone +0.0 whatever the sign of zeta
    return np.where(theta > 0.0, w * z, 0.0)[()], np.where(theta > 0.0, w * zd, 0.0)[()]


def _assemble(state: InitialState, history: ZetaHistory | None, r: np.ndarray, t: float) -> tuple:
    """((u, d_t u, d_r u), (u_f, d_t u_f, u_S, d_t u_S)) at radii r >= 0."""
    # retarded part first: the Hermite temporaries of zeta_at then peak before
    # the free part's arrays exist (about 0.75 MiB less at 32,767 radii)
    us, us_t = u_singular(history, r, t)
    uf, uf_t, uf_r = dispersive_batch(state, r, t)
    return (uf + us, uf_t + us_t, uf_r - us_t), (uf, uf_t, us, us_t)


def psi_total(
    state: InitialState, history: ZetaHistory | None, r: np.ndarray, t: float
) -> FieldSample:
    """Assembled field at radii r with its dispersive/singular/regular breakdown."""
    check_domain(r, t)
    r = np.asarray(r, dtype=float)
    (u, u_t, _), (uf, uf_t, us, us_t) = _assemble(state, history, r, t)
    z, _ = _zeta_pair(state, history, t)
    return FieldSample(
        r=r[()],
        t=t,
        psi=u / r,
        psi_dot=u_t / r,
        psi_f=uf / r,
        psi_f_dot=uf_t / r,
        psi_S=us / r,
        psi_S_dot=us_t / r,
        psi_reg=(u - z / FOUR_PI) / r,
    )


def regular_trace(state: InitialState, history: ZetaHistory, t: float) -> float:
    """Origin trace of psi - zeta(t) G, which is d_r u(0, t) exactly."""
    if t <= 0.0:
        raise ValueError("regular_trace requires t > 0")
    (_, _, u_r), _ = _assemble(state, history, np.zeros(1), t)
    return float(u_r[0])


def _check_finite_energy(state: InitialState) -> None:
    if state.pi_c.tail != 0.0:
        raise ValueError("kinetic energy is infinite for states with a velocity tail")


def energy(
    state: InitialState,
    history: ZetaHistory | None,
    t: float,
    R_quad: float | None = None,
    quad_tol: float = 1e-12,
) -> EnergyReport:
    """Conserved energy at time t: 2 pi int_0^R (u_t^2 + u_r^2) dr + U(zeta(t)).

    Requires R_quad >= t + support radius, beyond which u is the constant
    alpha_phi / 4pi of the Coulomb tail and contributes nothing.  States with
    a velocity tail have infinite kinetic energy and are rejected.
    """
    _check_finite_energy(state)
    r_supp = state.support_radius
    if R_quad is None:
        R_quad = t + r_supp + 1.0
    if R_quad < t + r_supp:
        raise ValueError(f"R_quad = {R_quad} must be at least t + support = {t + r_supp}")
    z_now, _ = _zeta_pair(state, history, t)

    def integrand(r: np.ndarray) -> np.ndarray:
        (_, u_t, u_r), _ = _assemble(state, history, r, t)
        return 2.0 * math.pi * np.stack([u_t * u_t, u_r * u_r], axis=-1)

    pts = split_points(reduction(state).kink_radii(t, 0.0, R_quad), 0.0, R_quad)
    kinetic, gradient = (float(x) for x in integrate_panels(integrand, pts, quad_tol))
    potential = state.nl.eval(z_now)[0]
    return EnergyReport(
        t=t,
        kinetic=kinetic,
        gradient=gradient,
        potential=potential,
        total=kinetic + gradient + potential,
    )


@dataclass(frozen=True)
class EnergyLedger:
    """The energy at times t split along the characteristics; arrays shaped like t."""

    t: np.ndarray
    incoming: np.ndarray
    outgoing: np.ndarray
    reemitted: np.ndarray
    potential: np.ndarray
    total: np.ndarray


def _gauss_panels(edges: np.ndarray, f) -> np.ndarray:
    """8-point Gauss-Legendre integral of f on each panel between consecutive edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    out = np.empty_like(half)
    for i in range(0, len(half), PANEL_BLOCK):
        block = slice(i, i + PANEL_BLOCK)
        x = mid[block, None] + half[block, None] * _GL_X
        out[block] = (f(x) * _GL_W).sum(axis=1) * half[block]
    return out


def energy_ledger(state: InitialState, history: ZetaHistory, ts: np.ndarray) -> EnergyLedger:
    """The energy at times ts in [0, horizon] from the characteristic identity.

    Panels: the data kinks with DATA_SUBPANELS equal pieces between each pair
    (the data's own scale, whatever the history's node density), the history
    nodes and the requested times; one Gauss-Legendre pass and prefix sums
    give every row.  No panel straddles a kink, a node or a row time.
    """
    _check_finite_energy(state)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.min() < 0.0 or ts.max() > history.horizon:
        raise HistoryHorizonError(f"times {ts} outside [0, {history.horizon}]")
    red = reduction(state)
    s_end = red.support_time
    kinks = np.array(sorted({k for k in red.kinks if k < s_end} | {s_end}))
    frac = np.arange(DATA_SUBPANELS) / DATA_SUBPANELS
    data = np.append(kinks[:-1, None] + np.diff(kinks)[:, None] * frac, s_end)

    def D(s: np.ndarray) -> np.ndarray:
        return red.u0_prime(s) + red.v0(s)

    def E(s: np.ndarray) -> np.ndarray:
        return red.v0(s) - red.u0_prime(s)

    def answered(s: np.ndarray) -> np.ndarray:
        return zeta_at(history, s)[1] / (2.0 * math.pi) - D(s)

    # the data on [0, support]; the incoming part summed from the far end
    d_edges = np.union1d(data, ts[ts < s_end])
    suffix = np.cumsum(_gauss_panels(d_edges, lambda s: D(s) ** 2)[::-1])[::-1]
    incoming = math.pi * np.append(suffix, 0.0)[np.searchsorted(d_edges, np.minimum(ts, s_end))]
    outgoing = math.pi * _gauss_panels(data, lambda s: E(s) ** 2).sum()

    r_edges = np.union1d(np.union1d(history.times, data[data < history.horizon]), ts)
    prefix = np.append(0.0, np.cumsum(_gauss_panels(r_edges, lambda s: answered(s) ** 2)))
    reemitted = math.pi * prefix[np.searchsorted(r_edges, ts)]

    potential = state.nl.U(zeta_at(history, ts)[0])
    return EnergyLedger(
        t=ts,
        incoming=incoming,
        outgoing=np.full_like(ts, outgoing),
        reemitted=reemitted,
        potential=potential,
        total=incoming + outgoing + reemitted + potential,
    )


def distance_to_stationary(
    state: InitialState,
    history: ZetaHistory,
    t: float,
    q: float,
    R: float,
    quad_tol: float = 1e-12,
) -> tuple[float, float]:
    """L2 distances on the ball of radius R to the rest state (q G, 0).

    Returns (|psi(t) - q G|, |psi_dot(t)|), whose squares are
    4 pi int_0^R (u - q / 4pi)^2 dr and 4 pi int_0^R u_t^2 dr.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if not math.isfinite(q):
        raise ValueError("q must be finite")

    def integrand(r: np.ndarray) -> np.ndarray:
        (u, u_t, _), _ = _assemble(state, history, r, t)
        return FOUR_PI * np.stack([(u - q / FOUR_PI) ** 2, u_t * u_t], axis=-1)

    pts = split_points(reduction(state).kink_radii(t, 0.0, R), 0.0, R)
    pos2, vel2 = integrate_panels(integrand, pts, quad_tol)
    return math.sqrt(max(float(pos2), 0.0)), math.sqrt(max(float(vel2), 0.0))
