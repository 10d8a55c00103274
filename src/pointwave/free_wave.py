"""Dispersive (free-wave) component in closed form via the radial reduction.

For radial data the substitution u = r psi turns the free 3D wave equation
into the 1D wave equation on the half line, solved exactly by d'Alembert
after odd extension.  The point-singular part of the data contributes an
exact sign-function jump to the reduced profile u0 (never a sampled grid
value), so evaluation is closed form everywhere off the light cone:

    u_f(r, t) = [u0(r+t) + u0(r-t) + V(r+t) - V(r-t)] / 2

with u0 the odd extension of s * psi0(|s|) and V the even antiderivative of
the odd extension of v0(s) = s * pi0(|s|).  dispersive_batch is the one
evaluator of this formula, on arrays and at every r >= 0 (u_f(0, t) = 0 by
oddness): it returns u_f and its time and radial derivatives, with no
division by r.  dispersive_eval is its validating view for psi_f = u_f / r,
psi_G_eval the same formula on the bare cutoff-singular data (the
sharp-support check), and local_seminorm differentiates psi_f by stencils.
The origin trace lambda(t) = d_r u_f(0, t), the source of the reduced
oscillator equation, is assembled analytically in scalar form: the ODE loop
calls it once per stage, where an array call would cost far more than the
formula.  lambda_prime_at is its derivative in the same form, for the exact
zeta'' the ODE stores at every node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cutoff import R_OUTER, chi, chi_arr, chi_integral, chi_prime, chi_prime_arr, chi_second
from .initial_data import FOUR_PI, ZERO_PROFILE, InitialState
from .quadrature import integrate_panels, split_points


class OnConeWarning(UserWarning):
    """Free part evaluated exactly on its jump cone t = r; mean of the one-sided limits returned."""


@dataclass(eq=False)
class OddReduction:
    """Reduced 1D data for one state: u0, its derivative, v0 and V = int v0.

    Built once per state and then shared read-only; all evaluations are pure
    and take scalars or arrays of s.  sign(0) = 0 makes the value on the
    jump cone the average of the one-sided limits.
    """

    zeta0: float
    zeta_dot0: float
    alpha_phi: float
    alpha_pi: float
    phi_bump: object
    pi_bump: object

    @property
    def kinks(self) -> tuple[float, ...]:
        """Nonsmooth/steep points of the reduced data on the positive axis."""
        return (0.0, 1.0, R_OUTER, *self.phi_bump.kinks, *self.pi_bump.kinks)

    def kink_radii(self, t: float, lo: float, hi: float) -> set[float]:
        """Radii in (lo, hi) where the field at time t is not smooth: the cones of the kinks."""
        return {c for k in self.kinks for c in (t - k, t + k, k - t) if lo < c < hi}

    @cached_property
    def support_time(self) -> float:
        """Time from which the origin trace is the constant alpha_pi / 4pi."""
        return max(R_OUTER, self.phi_bump.support_radius, self.pi_bump.support_radius)

    def u0(self, s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        coeff = self.alpha_phi + (self.zeta0 - self.alpha_phi) * chi_arr(a)
        return np.sign(s) * coeff / FOUR_PI + s * self.phi_bump.value_arr(a)

    def u0_prime(self, s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        return (
            (self.zeta0 - self.alpha_phi) * chi_prime_arr(a) / FOUR_PI
            + self.phi_bump.value_arr(a)
            + a * self.phi_bump.d1_arr(a)
        )

    def v0(self, s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        coeff = self.alpha_pi + (self.zeta_dot0 - self.alpha_pi) * chi_arr(a)
        return np.sign(s) * coeff / FOUR_PI + s * self.pi_bump.value_arr(a)

    def V(self, s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        return (
            self.alpha_pi * a + (self.zeta_dot0 - self.alpha_pi) * chi_integral(a)
        ) / FOUR_PI + self.pi_bump.integral_r(a)


def reduction(state: InitialState) -> OddReduction:
    """Reduced data for the state, built lazily and cached on it."""
    if state._reduction is None:
        state._reduction = OddReduction(
            zeta0=state.zeta0,
            zeta_dot0=state.zeta_dot0,
            alpha_phi=state.phi_c.tail,
            alpha_pi=state.pi_c.tail,
            phi_bump=state.phi_c.bump,
            pi_bump=state.pi_c.bump,
        )
    return state._reduction


def dispersive_batch(
    state: InitialState, r: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u_f, d_t u_f, d_r u_f) of u_f = r psi_f at radii r >= 0 and times t, broadcast together."""
    red = reduction(state)
    r = np.asarray(r, dtype=float)
    sp, sm = r + t, r - t
    up_p, up_m = red.u0_prime(sp), red.u0_prime(sm)
    v_p, v_m = red.v0(sp), red.v0(sm)
    u = 0.5 * (red.u0(sp) + red.u0(sm) + red.V(sp) - red.V(sm))
    return u, 0.5 * (up_p - up_m + v_p + v_m), 0.5 * (up_p + up_m + v_p - v_m)


def check_domain(r: np.ndarray, t: float) -> None:
    """Reject r <= 0 or t < 0."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("field evaluation requires r > 0 (use lambda_trace at the origin)")
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("field evaluation requires t >= 0")


def dispersive_eval(
    state: InitialState, r: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(psi_f, d/dt psi_f) at radius r > 0, time t >= 0 (numbers, or arrays)."""
    check_domain(r, t)
    if (state.zeta0 != 0.0 or state.zeta_dot0 != 0.0) and np.any(np.equal(r, t)):
        warnings.warn(
            "evaluation exactly on the cone t = r, where the free part jumps; "
            "returning the mean of its one-sided limits",
            OnConeWarning,
            stacklevel=2,
        )
    u, u_t, _ = dispersive_batch(state, r, t)
    return u / r, u_t / r


def lambda_at(state: InitialState, t: float) -> float:
    """Origin trace of the dispersive component, continuous extension at t = 0.

    Assembled term by term so that the stationary tail cancels the cutoff
    derivative exactly in floating point:

        lambda(t) = (zeta0 - alpha_phi) chi'(t) / 4pi + zeta_dot0 chi(t) / 4pi
                    + alpha_pi (1 - chi(t)) / 4pi
                    + phi_bump(t) + t phi_bump'(t) + t pi_bump(t)

    At t = 0 this evaluates to F(zeta0) + zeta_dot0 / 4pi by compatibility.
    """
    red = reduction(state)
    if red.alpha_pi == 0.0 and t >= red.support_time:
        return 0.0
    c = chi(t)
    cp = chi_prime(t)
    point_part = (
        (red.zeta0 - red.alpha_phi) * cp
        + red.zeta_dot0 * c
        + red.alpha_pi * (1.0 - c)
    ) / FOUR_PI
    return (
        point_part
        + red.phi_bump.value(t)
        + t * red.phi_bump.d1(t)
        + t * red.pi_bump.value(t)
    )


def lambda_prime_at(state: InitialState, t: float) -> float:
    """Time derivative of lambda_at, term by term:

        lambda'(t) = [(zeta0 - alpha_phi) chi''(t) + (zeta_dot0 - alpha_pi) chi'(t)] / 4pi
                     + 2 phi_bump'(t) + t phi_bump''(t) + pi_bump(t) + t pi_bump'(t)

    Exactly 0 from the support time on, where lambda is constant.
    """
    red = reduction(state)
    if t >= red.support_time:
        return 0.0
    phi, pi = red.phi_bump, red.pi_bump
    point_part = (
        (red.zeta0 - red.alpha_phi) * chi_second(t) + (red.zeta_dot0 - red.alpha_pi) * chi_prime(t)
    ) / FOUR_PI
    return point_part + 2.0 * phi.d1(t) + t * phi.d2(t) + pi.value(t) + t * pi.d1(t)


def lambda_trace(state: InitialState, t: float) -> float:
    """Origin trace lambda(t) for t > 0."""
    if t <= 0.0:
        raise ValueError("lambda_trace requires t > 0")
    return lambda_at(state, t)


def psi_G_eval(state: InitialState, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Free evolution of the cutoff-singular data part alone.

    Initial data (zeta0 chi G, zeta_dot0 chi G); compactly supported, so the
    result vanishes identically (to closed-form roundoff) for t >= r + 2.
    """
    bare = InitialState(ZERO_PROFILE, ZERO_PROFILE, state.zeta0, state.zeta_dot0, state.nl)
    return dispersive_eval(bare, r, t)[0]


def local_seminorm(state: InitialState, t: float, R: float, h_fd: float = 1e-3) -> float:
    """Local H2 x H1 strength of the dispersive component on the ball of radius R.

    Radial quadrature of |psi_f|^2 + |psi_f'|^2 + |lap psi_f|^2 + |psi_f_dot|^2
    + |psi_f_dot'|^2 weighted by 4 pi r^2, with derivatives taken by 4th-order
    central differences of the exact evaluator.  Cells within 2.5 stencil
    widths of a kink radius are skipped (the stencil is invalid across them),
    which perturbs this diagnostic by O(h_fd).
    """
    if R <= 0.0 or h_fd <= 0.0:
        raise ValueError("R and h_fd must be positive")
    eps = 3.0 * h_fd
    if R <= eps:
        raise ValueError("R too small for the stencil width")
    offsets = h_fd * np.arange(-2.0, 3.0)[:, None]

    def stencil(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fm2, fm1, f0, fp1, fp2 = f
        d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h_fd)
        d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h_fd**2)
        return f0, d1, d2

    def integrand(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(r)
        psi_rows, psid_rows = dispersive_eval(state, r + offsets, t)
        psi, d1, d2 = stencil(psi_rows)
        psid, dd1, _ = stencil(psid_rows)
        lap = d2 + 2.0 * d1 / r
        return FOUR_PI * r * r * (psi**2 + d1**2 + lap**2 + psid**2 + dd1**2)

    pts = split_points(reduction(state).kink_radii(t, eps, R), eps, R)
    gap = 2.5 * h_fd
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        lo = a + (gap if a > eps else 0.0)
        hi = b - (gap if b < R else 0.0)
        if hi > lo:
            total += float(integrate_panels(integrand, [lo, hi], 1e-10))
    return math.sqrt(max(total, 0.0))
