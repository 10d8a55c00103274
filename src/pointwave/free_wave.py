"""Dispersive (free-wave) component in closed form via the radial reduction.

For radial data the substitution u = r psi turns the free 3D wave equation
into the 1D wave equation on the half line, solved exactly by d'Alembert
after odd extension.  The point-singular part of the data contributes an
exact sign-function jump to the reduced profile u0 (never a sampled grid
value), so evaluation is closed form everywhere off the light cone:

    u_f(r, t) = [u0(r+t) + u0(r-t) + V(r+t) - V(r-t)] / 2

with u0 the odd extension of s * psi0(|s|) and V the even antiderivative of
the odd extension of v0(s) = s * pi0(|s|).  dispersive_value evaluates this
formula and dispersive_batch its time and radial derivatives, on arrays and
at every r >= 0 (u_f(0, t) = 0 by oddness), with no division by r; the
energy reads only the derivatives.  dispersive_eval is their validating view
for psi_f = u_f / r at r > 0, and psi_G_eval the same formula on
initial_data.bare_singular_data (the sharp-support check).  The origin trace
lambda(t) = d_r u_f(0, t) at t >= 0, the source of the reduced oscillator
equation, and its derivative lambda' are assembled analytically by
lambda_at, in scalar form from the jets of the cutoff and the bumps: the ODE
loop calls it once per stage, where an array call would cost far more than
the formula, and reads lambda' for the exact zeta'' it stores at every node.
From the support time, the state's support_radius, on, lambda is constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cutoff import R_OUTER, chi_arr, chi_integral, chi_jet, chi_prime_arr
from .initial_data import FOUR_PI, InitialState, bare_singular_data


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
    support_time: float  # from here on the origin trace is the constant alpha_pi / 4pi

    @property
    def kinks(self) -> tuple[float, ...]:
        """Nonsmooth/steep points of the reduced data on the positive axis."""
        return (0.0, 1.0, R_OUTER, *self.phi_bump.kinks, *self.pi_bump.kinks)

    def kink_radii(self, t: float, lo: float, hi: float) -> set[float]:
        """Radii in (lo, hi) where the field at time t is not smooth: the cones of the kinks."""
        return {c for k in self.kinks for c in (t - k, t + k, k - t) if lo < c < hi}

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
            support_time=state.support_radius,
        )
    return state._reduction


def dispersive_batch(
    state: InitialState, r: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_t u_f, d_r u_f) of u_f = r psi_f at radii r >= 0 and times t, broadcast together."""
    red = reduction(state)
    r = np.asarray(r, dtype=float)
    sp, sm = r + t, r - t
    up_p, up_m = red.u0_prime(sp), red.u0_prime(sm)
    v_p, v_m = red.v0(sp), red.v0(sm)
    return 0.5 * (up_p - up_m + v_p + v_m), 0.5 * (up_p + up_m + v_p - v_m)


def dispersive_value(state: InitialState, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """u_f = r psi_f itself at radii r >= 0 and times t, broadcast together."""
    red = reduction(state)
    r = np.asarray(r, dtype=float)
    sp, sm = r + t, r - t
    return 0.5 * (red.u0(sp) + red.u0(sm) + red.V(sp) - red.V(sm))


def check_domain(r: np.ndarray, t: float) -> None:
    """Reject r <= 0 or t < 0."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("field evaluation requires r > 0 (lambda_at gives the origin trace)")
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
    return dispersive_value(state, r, t) / r, dispersive_batch(state, r, t)[0] / r


def lambda_at(state: InitialState, t: float) -> tuple[float, float]:
    """(lambda, lambda') of the origin trace of the dispersive component at t >= 0,
    continuous at t = 0.

    Assembled term by term so that the stationary tail cancels the cutoff
    derivative exactly in floating point:

        lambda(t)  = (zeta0 - alpha_phi) chi'(t) / 4pi + zeta_dot0 chi(t) / 4pi
                     + alpha_pi (1 - chi(t)) / 4pi
                     + phi_bump(t) + t phi_bump'(t) + t pi_bump(t)
        lambda'(t) = [(zeta0 - alpha_phi) chi''(t) + (zeta_dot0 - alpha_pi) chi'(t)] / 4pi
                     + 2 phi_bump'(t) + t phi_bump''(t) + pi_bump(t) + t pi_bump'(t)

    At t = 0 lambda is F(zeta0) + zeta_dot0 / 4pi by compatibility.  From the
    support time on lambda is exactly alpha_pi / 4pi and lambda' exactly 0.
    """
    red = reduction(state)
    if t >= red.support_time:
        return red.alpha_pi / FOUR_PI, 0.0
    c, cp, cpp = chi_jet(t)
    p, p1, p2 = red.phi_bump.jet(t)
    v, v1, _ = red.pi_bump.jet(t)
    dz = red.zeta0 - red.alpha_phi
    point_part = (dz * cp + red.zeta_dot0 * c + red.alpha_pi * (1.0 - c)) / FOUR_PI
    point_prime = (dz * cpp + (red.zeta_dot0 - red.alpha_pi) * cp) / FOUR_PI
    return (
        point_part + p + t * p1 + t * v,
        point_prime + 2.0 * p1 + t * p2 + v + t * v1,
    )


def psi_G_eval(state: InitialState, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Free evolution of the cutoff-singular data part alone.

    Initial data (zeta0 chi G, zeta_dot0 chi G); compactly supported, so the
    result vanishes identically (to closed-form roundoff) for t >= r + 2.
    """
    return dispersive_eval(bare_singular_data(state.zeta0, state.zeta_dot0), r, t)[0]
