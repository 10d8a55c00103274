"""Total field reconstruction, conserved energy, and distance to rest states.

The total field is the dispersive component plus the retarded spherical wave
emitted by the point amplitude,

    psi(r, t) = psi_f(r, t) + theta(t - r) zeta(t - r) / (4 pi r),

and its point-regularized part psi_reg = psi - zeta(t) G satisfies the origin
identity psi_reg(0, t) = F(zeta(t)) = lambda(t) - zeta'(t) / 4 pi, which
regular_trace verifies numerically by Richardson extrapolation in r.

_assemble is the one place the two parts are added, on an array of radii:
psi_f and its derivatives come from dispersive_batch, the retarded term
psi_S from psi_singular, and

    d_r psi_reg = d_r psi_f - psi_S_dot - psi_S / r + zeta(t) / (4 pi r^2),

which holds on both sides of the cone (psi_S = 0 outside it).  psi_total,
energy and distance_to_stationary all read the field through it.

Energy quadratures integrate 4 pi r^2 (psi_dot^2 + (d_r psi_reg)^2) / 2 over
a ball that contains the light cone of the data support; outside that ball
the field is the static Coulomb tail, whose gradient integral is added in
closed form.  All integrands are extended by their finite limits at r = 0
(the retarded difference quotients stay bounded), so no inner cutoff is used.
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
    tail_correction: float  # exterior gradient integral, folded into `gradient`


def _zeta_pair(state: InitialState, history: ZetaHistory | None, t: float) -> tuple[float, float]:
    if history is None:
        if t != 0.0:
            raise ValueError("a trajectory history is required for t > 0")
        return state.zeta0, state.zeta_dot0
    if t > history.horizon:
        raise HistoryHorizonError(f"t = {t} beyond horizon {history.horizon}")
    return zeta_at(history, t)


def psi_singular(history: ZetaHistory | None, r: np.ndarray, t: float) -> tuple:
    """Retarded spherical wave (psi_S, psi_S_dot) at radii r > 0; exactly zero where t < r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("psi_singular requires r > 0")
    retarded = t >= r
    if not retarded.any():
        zero = np.zeros_like(r)[()]
        return zero, zero
    s = np.where(retarded, t - r, 0.0)
    if history is None or s.max() > history.horizon:
        raise HistoryHorizonError(
            f"retarded time {s.max()} beyond trajectory horizon"
            + (f" {history.horizon}" if history is not None else " (no history)")
        )
    z, zd = zeta_at(history, s)
    g = 1.0 / (FOUR_PI * r)
    return np.where(retarded, z * g, 0.0)[()], np.where(retarded, zd * g, 0.0)[()]


def _assemble(
    state: InitialState, history: ZetaHistory | None, r: np.ndarray, t: float
) -> tuple:
    """(psi_f, psi_f_dot, psi_S, psi_S_dot, d_r psi_reg, zeta(t), zeta'(t)) at radii r > 0."""
    z_now, zd_now = _zeta_pair(state, history, t)
    ps, psd = psi_singular(history, r, t)
    pf, pfd, dpf = dispersive_batch(state, r, t)
    dreg = dpf - psd + (z_now / (FOUR_PI * r) - ps) / r
    return pf, pfd, ps, psd, dreg, z_now, zd_now


def psi_total(
    state: InitialState, history: ZetaHistory | None, r: np.ndarray, t: float
) -> FieldSample:
    """Assembled field at radii r with its dispersive/singular/regular breakdown."""
    check_domain(state, r, t)
    r = np.asarray(r, dtype=float)
    pf, pfd, ps, psd, _, z, _ = _assemble(state, history, r, t)
    psi = pf + ps
    return FieldSample(
        r=r[()],
        t=t,
        psi=psi,
        psi_dot=pfd + psd,
        psi_f=pf,
        psi_f_dot=pfd,
        psi_S=ps,
        psi_S_dot=psd,
        psi_reg=psi - z / (FOUR_PI * r),
    )


def regular_trace(
    state: InitialState,
    history: ZetaHistory,
    t: float,
    radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
) -> float:
    """Origin limit of psi - zeta(t) G by second-order Richardson extrapolation.

    The regularized field has the expansion A + B r + C r^2 near the origin;
    the three sampled radii determine A.
    """
    if t <= 0.0:
        raise ValueError("regular_trace requires t > 0")
    vals = psi_total(state, history, np.asarray(radii), t).psi_reg
    vander = np.vander(np.asarray(radii), 3, increasing=True)
    coeffs = np.linalg.solve(vander, vals)
    return float(coeffs[0])


def energy(
    state: InitialState,
    history: ZetaHistory | None,
    t: float,
    R_quad: float | None = None,
    quad_tol: float = 1e-12,
) -> EnergyReport:
    """Conserved energy at time t: kinetic + gradient of psi_reg + U(zeta).

    Requires R_quad >= t + support radius so that everything beyond the
    quadrature ball is the static Coulomb tail; that exterior gradient
    integral is exact, not approximated.  States with a velocity tail have
    infinite kinetic energy and are rejected.
    """
    if state.pi_c.tail != 0.0:
        raise ValueError("kinetic energy is infinite for states with a velocity tail")
    r_supp = state.support_radius
    if R_quad is None:
        R_quad = t + r_supp + 1.0
    if R_quad < t + r_supp:
        raise ValueError(f"R_quad = {R_quad} must be at least t + support = {t + r_supp}")
    z_now, _ = _zeta_pair(state, history, t)

    def integrand(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        origin = r == 0.0
        r_safe = np.where(origin, 1.0, r)
        _, pfd, _, psd, dreg, _, zd_now = _assemble(state, history, r_safe, t)
        pd = pfd + psd
        w = FOUR_PI * r_safe * r_safe
        kin = 0.5 * w * pd * pd
        grad = 0.5 * w * dreg * dreg
        # finite limits at r = 0: r psi_dot -> zeta'(t)/4pi, r^2 (d_r psi_reg)^2 -> 0
        kin = np.where(origin, zd_now * zd_now / (8.0 * math.pi), kin)
        grad = np.where(origin, 0.0, grad)
        return np.stack([kin, grad], axis=-1)

    pts = split_points(reduction(state).kink_radii(t, 0.0, R_quad), 0.0, R_quad)
    kinetic, gradient_interior = integrate_panels(integrand, pts, quad_tol)
    tail_int = (state.phi_c.tail - z_now) ** 2 / (FOUR_PI * R_quad)
    gradient = float(gradient_interior) + 0.5 * tail_int
    potential = state.nl.eval(z_now)[0]
    return EnergyReport(
        t=t,
        kinetic=float(kinetic),
        gradient=gradient,
        potential=potential,
        total=float(kinetic) + gradient + potential,
        tail_correction=tail_int,
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

    Returns (|psi(t) - q G|, |psi_dot(t)|); both integrands stay bounded at
    the origin because the retarded amplitude difference is O(r) there.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if not math.isfinite(q):
        raise ValueError("q must be finite")

    def integrand(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        origin = r == 0.0
        r_safe = np.where(origin, 1.0, r)
        pf, pfd, ps, psd, _, z_now, zd_now = _assemble(state, history, r_safe, t)
        psi = pf + ps
        psi_dot = pfd + psd
        diff = psi - q / (FOUR_PI * r_safe)
        w = FOUR_PI * r_safe * r_safe
        pos = w * diff * diff
        vel = w * psi_dot * psi_dot
        # limits of 4 pi r^2 (.)^2 with psi - qG ~ (zeta - q)/(4 pi r) etc.
        pos = np.where(origin, (z_now - q) ** 2 / FOUR_PI, pos)
        vel = np.where(origin, zd_now * zd_now / FOUR_PI, vel)
        return np.stack([pos, vel], axis=-1)

    pts = split_points(reduction(state).kink_radii(t, 0.0, R), 0.0, R)
    pos2, vel2 = integrate_panels(integrand, pts, quad_tol)
    return math.sqrt(max(float(pos2), 0.0)), math.sqrt(max(float(vel2), 0.0))
