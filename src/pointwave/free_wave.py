"""Dispersive (free-wave) component in closed form via the radial reduction.

For radial data the substitution u = r psi turns the free 3D wave equation
into the 1D wave equation on the half line, solved exactly by d'Alembert
after odd extension of u0(s) = s psi0(|s|) and v0(s) = s pi0(|s|).  The free
wave is then one profile carried along the characteristics:

    u_f(r, t) = [W(r + t) - W(t - r)] / 2,    W = u0 + V,  D = W' = u0' + v0,

with V the even antiderivative of v0; d_t u_f and d_r u_f are
[D(r + t) -+ D(t - r)] / 2.  The point-singular part of the data is an exact
sign-function jump in u0 and v0 (never a sampled grid value), so evaluation
is closed form off the light cone, and on it sign(0) = 0 gives the mean of
the one-sided limits.  dispersive_value evaluates u_f from W and
dispersive_batch its derivatives from D, on arrays and at every r >= 0
(u_f(0, t) = 0 by oddness), with no division by r.  dispersive_eval is their
validating view for psi_f = u_f / r at r > 0, and psi_G_eval the same on
initial_data.bare_singular_data (the sharp-support check).

What reaches the origin is D itself: lambda(t) = d_r u_f(0, t) = D(t) for
t > 0, the source of the reduced oscillator equation.  lambda_at gives it and
lambda' in scalar form from the jets of the cutoff and the bumps, continuous
at t = 0 where D is not (see OddReduction.D): the ODE calls it once per
stage, where an array call would cost far more than the formula, and reads
lambda' for the exact zeta'' at every node.  From the support time, the
state's support_radius, on, lambda is constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cutoff import R_OUTER, chi_integral, chi_jet, chi_jet_arr
from .initial_data import FOUR_PI, InitialState, bare_singular_data


class OnConeWarning(UserWarning):
    """Free part evaluated exactly on its jump cone t = r; mean of the one-sided limits returned."""


@dataclass(eq=False)
class OddReduction:
    """Reduced 1D data for one state: the characteristic profile D and its
    antiderivative W.

    Built once per state and then shared read-only; both evaluations are pure
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

    def D(self, s: np.ndarray) -> np.ndarray:
        """D = W' = u0' + v0 on an array of s, the profile u_t + u_r carries in.

        u0' is even and v0 exactly odd, so E(s) = v0(s) - u0'(s) = -D(-s) bit for
        bit.  For s > 0, D(s) is the origin trace lambda(s) to a few ulps.  D(0) is
        not lambda(0+): sign(0) = 0 gives v0(0) = 0, the mean of v0's one-sided
        limits, so D(0) = lambda(0+) - zeta_dot0 / 4pi.
        """
        a = np.abs(s)
        chi, chi_prime = chi_jet_arr(a)
        p, p1 = self.phi_bump.jet_arr(a)
        u0_prime = (self.zeta0 - self.alpha_phi) * chi_prime / FOUR_PI + p + a * p1
        coeff = self.alpha_pi + (self.zeta_dot0 - self.alpha_pi) * chi
        return u0_prime + (np.sign(s) * coeff / FOUR_PI + s * self.pi_bump.jet_arr(a)[0])

    def W(self, s: np.ndarray) -> np.ndarray:
        """W = u0 + V on an array of s: the odd u0 plus V, the even antiderivative of v0."""
        a = np.abs(s)
        coeff = self.alpha_phi + (self.zeta0 - self.alpha_phi) * chi_jet_arr(a)[0]
        u0 = np.sign(s) * coeff / FOUR_PI + s * self.phi_bump.jet_arr(a)[0]
        V = (self.alpha_pi * a + (self.zeta_dot0 - self.alpha_pi) * chi_integral(a)) / FOUR_PI
        return u0 + (V + self.pi_bump.integral_r(a))


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
    d_in, d_out = red.D(r + t), red.D(t - r)
    return 0.5 * (d_in - d_out), 0.5 * (d_in + d_out)


def dispersive_value(state: InitialState, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """u_f = r psi_f itself at radii r >= 0 and times t, broadcast together."""
    red = reduction(state)
    r = np.asarray(r, dtype=float)
    return 0.5 * (red.W(r + t) - red.W(t - r))


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
