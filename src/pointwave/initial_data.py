"""Admissible initial states: radial profiles plus point amplitudes.

A state is parametrized as

    psi0(r) = zeta0 * chi(r) G(r) + phi_c(r)
    pi0(r)  = zeta_dot0 * chi(r) G(r) + pi_c(r)

where phi_c, pi_c are regular radial profiles (compact bump, optionally plus
a Coulomb tail alpha (1 - chi) G used to represent exact stationary states).
Membership in the admissible set reduces to the constructive compatibility
condition phi_c(0) = F(zeta0), which make_initial_state enforces.  The
singular G factor is kept symbolic throughout; nothing is ever sampled near
its singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .cutoff import R_OUTER, chi, chi_prime, chi_second
from .nonlinearity import Nonlinearity
from .quadrature import integrate_panels, split_points

FOUR_PI = 4.0 * math.pi


class CompatibilityError(ValueError):
    """Regular part at the origin does not match F(zeta0)."""


class UnsupportedNormError(ValueError):
    """Phase-space norm requested for a state with Coulomb tails (not finite)."""


@dataclass(frozen=True)
class PolynomialBump:
    """C2 compactly supported bump A (1 - r^2/rho^2)^3 with closed-form calculus."""

    amplitude: float
    support_radius: float

    def value(self, r: float) -> float:
        if r >= self.support_radius:
            return 0.0
        s = (r / self.support_radius) ** 2
        return self.amplitude * (1.0 - s) ** 3

    def d1(self, r: float) -> float:
        rho = self.support_radius
        if r >= rho:
            return 0.0
        s = (r / rho) ** 2
        return -6.0 * self.amplitude * r * (1.0 - s) ** 2 / rho**2

    def d2(self, r: float) -> float:
        rho = self.support_radius
        if r >= rho:
            return 0.0
        s = (r / rho) ** 2
        return (
            -6.0 * self.amplitude * (1.0 - s) ** 2 / rho**2
            + 24.0 * self.amplitude * r * r * (1.0 - s) / rho**4
        )

    def value_arr(self, r: np.ndarray) -> np.ndarray:
        rho = self.support_radius
        s = np.minimum(r / rho, 1.0) ** 2
        return self.amplitude * (1.0 - s) ** 3

    def d1_arr(self, r: np.ndarray) -> np.ndarray:
        rho = self.support_radius
        inside = r < rho
        s = np.where(inside, r / rho, 1.0) ** 2
        return np.where(inside, -6.0 * self.amplitude * r * (1.0 - s) ** 2 / rho**2, 0.0)

    def integral_r(self, a: np.ndarray) -> np.ndarray:
        """int_0^a s * bump(s) ds, closed form."""
        rho = self.support_radius
        cap = self.amplitude * rho * rho / 8.0
        s = np.minimum(a / rho, 1.0) ** 2
        return cap * (1.0 - (1.0 - s) ** 4)


@dataclass(frozen=True)
class SplineBump:
    """Cubic-spline profile from (r, value) samples, clamped flat at both ends."""

    knots: tuple[float, ...]
    values: tuple[float, ...]
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    @staticmethod
    def from_points(r: Sequence[float], v: Sequence[float]) -> "SplineBump":
        r = [float(x) for x in r]
        v = [float(x) for x in v]
        if len(r) != len(v) or len(r) < 4:
            raise ValueError("need at least 4 (r, value) samples")
        if r[0] != 0.0:
            raise ValueError("profile samples must start at r = 0")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("profile radii must be strictly increasing")
        if v[-1] != 0.0:
            raise ValueError("profile must vanish at its support radius")
        spline = CubicSpline(r, v, bc_type=((1, 0.0), (1, 0.0)))
        bump = SplineBump(knots=tuple(r), values=tuple(v))
        object.__setattr__(bump, "_spline", spline)
        return bump

    @staticmethod
    def from_file(path) -> "SplineBump":
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (r, value)")
        return SplineBump.from_points(data[:, 0], data[:, 1])

    @property
    def support_radius(self) -> float:
        return self.knots[-1]

    def value(self, r: float) -> float:
        if r >= self.support_radius:
            return 0.0
        return float(self._spline(r))

    def d1(self, r: float) -> float:
        if r >= self.support_radius:
            return 0.0
        return float(self._spline(r, 1))

    def d2(self, r: float) -> float:
        if r >= self.support_radius:
            return 0.0
        return float(self._spline(r, 2))

    def _piece_integral(self, i: np.ndarray, u: np.ndarray) -> np.ndarray:
        # int of s p(s) over [x_i, x_i + u]; s p = (u + x_i) p(u) is quartic in u
        left = self._spline.x[i]
        c3, c2, c1, c0 = self._spline.c[:, i]
        return (
            c3 * u**5 / 5.0
            + (c2 + left * c3) * u**4 / 4.0
            + (c1 + left * c2) * u**3 / 3.0
            + (c0 + left * c1) * u**2 / 2.0
            + left * c0 * u
        )

    def value_arr(self, r: np.ndarray) -> np.ndarray:
        inside = r < self.support_radius
        return np.where(inside, self._spline(np.minimum(r, self.support_radius)), 0.0)

    def d1_arr(self, r: np.ndarray) -> np.ndarray:
        inside = r < self.support_radius
        return np.where(inside, self._spline(np.minimum(r, self.support_radius), 1), 0.0)

    def integral_r(self, a: np.ndarray) -> np.ndarray:
        """int_0^a s * bump(s) ds: whole spline pieces by prefix sum, then the partial one."""
        xs = self._spline.x
        n = len(xs) - 1
        before = np.concatenate(([0.0], np.cumsum(self._piece_integral(np.arange(n), np.diff(xs)))))
        a = np.minimum(np.asarray(a, dtype=float), xs[-1])
        i = np.clip(np.searchsorted(xs, a, side="right") - 1, 0, n - 1)
        return np.where(a > 0.0, before[i] + self._piece_integral(i, a - xs[i]), 0.0)


@dataclass(frozen=True)
class CallableBump:
    """Arbitrary smooth compactly supported profile given by explicit callables."""

    value_fn: Callable[[float], float]
    d1_fn: Callable[[float], float]
    d2_fn: Callable[[float], float]
    support_radius: float
    integral_fn: Callable[[float], float] | None = None

    def value(self, r: float) -> float:
        return self.value_fn(r) if r < self.support_radius else 0.0

    def d1(self, r: float) -> float:
        return self.d1_fn(r) if r < self.support_radius else 0.0

    def d2(self, r: float) -> float:
        return self.d2_fn(r) if r < self.support_radius else 0.0

    def value_arr(self, r: np.ndarray) -> np.ndarray:
        return np.vectorize(self.value, otypes=[float])(r)

    def d1_arr(self, r: np.ndarray) -> np.ndarray:
        return np.vectorize(self.d1, otypes=[float])(r)

    def integral_r(self, a: np.ndarray) -> np.ndarray:
        """int_0^a s * bump(s) ds, by integral_fn or else by quadrature."""

        def one(x: float) -> float:
            hi = min(x, self.support_radius)
            if self.integral_fn is not None:
                return self.integral_fn(hi)
            if hi <= 0.0:
                return 0.0
            pts = split_points([1.0, 2.0], 0.0, hi)
            return float(integrate_panels(lambda s: s * self.value_arr(s), pts, 1e-13))

        return np.vectorize(one, otypes=[float])(a)


ZERO_BUMP = PolynomialBump(amplitude=0.0, support_radius=1.0)


@dataclass(frozen=True)
class RadialProfile:
    """Compact bump plus optional Coulomb tail alpha (1 - chi(r)) G(r)."""

    bump: object = ZERO_BUMP
    tail: float = 0.0

    def value(self, r: float) -> float:
        v = self.bump.value(r)
        if self.tail != 0.0 and r > 1.0:
            v += self.tail * (1.0 - chi(r)) / (FOUR_PI * r)
        return v

    def d1(self, r: float) -> float:
        v = self.bump.d1(r)
        if self.tail != 0.0 and r > 1.0:
            one_m = 1.0 - chi(r)
            v += self.tail * (-chi_prime(r) / (FOUR_PI * r) - one_m / (FOUR_PI * r * r))
        return v

    def d2(self, r: float) -> float:
        v = self.bump.d2(r)
        if self.tail != 0.0 and r > 1.0:
            one_m = 1.0 - chi(r)
            v += self.tail * (
                -chi_second(r) / (FOUR_PI * r)
                + 2.0 * chi_prime(r) / (FOUR_PI * r * r)
                + 2.0 * one_m / (FOUR_PI * r**3)
            )
        return v

    @property
    def bump_radius(self) -> float:
        return self.bump.support_radius

    @property
    def value_at_origin(self) -> float:
        # the tail term vanishes identically near the origin
        return self.bump.value(0.0)


ZERO_PROFILE = RadialProfile()


@dataclass(eq=False)
class InitialState:
    """Validated initial data; immutable by convention after construction."""

    phi_c: RadialProfile
    pi_c: RadialProfile
    zeta0: float
    zeta_dot0: float
    nl: Nonlinearity
    support_radius: float = 0.0
    _reduction: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.support_radius == 0.0:
            self.support_radius = max(
                R_OUTER, self.phi_c.bump_radius, self.pi_c.bump_radius
            )

    @property
    def has_tail(self) -> bool:
        return self.phi_c.tail != 0.0 or self.pi_c.tail != 0.0

    def psi0(self, r: float) -> float:
        """Total initial field at radius r > 0."""
        if r <= 0.0:
            raise ValueError("psi0 defined for r > 0 only")
        return self.zeta0 * chi(r) / (FOUR_PI * r) + self.phi_c.value(r)

    def pi0(self, r: float) -> float:
        """Total initial velocity at radius r > 0."""
        if r <= 0.0:
            raise ValueError("pi0 defined for r > 0 only")
        return self.zeta_dot0 * chi(r) / (FOUR_PI * r) + self.pi_c.value(r)


def make_initial_state(
    phi_c: RadialProfile,
    pi_c: RadialProfile,
    zeta0: float,
    zeta_dot0: float,
    nl: Nonlinearity,
    compat_tol: float = 1e-9,
) -> InitialState:
    """Validate the origin compatibility condition and record the support radius."""
    target = nl.eval(zeta0)[1]
    actual = phi_c.value_at_origin
    if abs(actual - target) > compat_tol:
        raise CompatibilityError(
            f"phi_c(0) = {actual!r} but F(zeta0) = {target!r}; "
            "data does not satisfy the origin boundary condition"
        )
    return InitialState(phi_c=phi_c, pi_c=pi_c, zeta0=zeta0, zeta_dot0=zeta_dot0, nl=nl)


def stationary_data(q: float, nl: Nonlinearity, root_tol: float = 1e-9) -> InitialState:
    """Exact stationary state q G: amplitude q at rest plus the matching Coulomb tail."""
    f_q = nl.eval(q)[1]
    if abs(f_q) > root_tol:
        raise ValueError(
            f"q = {q!r} is not a rest point: F(q) = {f_q!r}; "
            "stationary fields exist exactly at zeros of F"
        )
    return InitialState(
        phi_c=RadialProfile(bump=ZERO_BUMP, tail=q),
        pi_c=ZERO_PROFILE,
        zeta0=q,
        zeta_dot0=0.0,
        nl=nl,
    )


def _w_derivs(r: float) -> tuple[float, float]:
    """(d/dr, Laplacian) of w = (1 - chi) G at r > 1."""
    g = 1.0 / (FOUR_PI * r)
    g1 = -1.0 / (FOUR_PI * r * r)
    g2 = 2.0 / (FOUR_PI * r**3)
    one_m = 1.0 - chi(r)
    w1 = -chi_prime(r) * g + one_m * g1
    w2 = -chi_second(r) * g - 2.0 * chi_prime(r) * g1 + one_m * g2
    return w1, w2 + 2.0 * w1 / r


def phase_norm(state: InitialState, quad_tol: float = 1e-12) -> float:
    """Squared phase-space norm of the state (finite for tail-free data only).

    Computes |grad psi_reg|^2 + |lap psi_reg|^2 + |grad pi_reg|^2 by radial
    quadrature plus the exact exterior Coulomb contribution, then adds
    zeta0^2 + zeta_dot0^2.
    """
    if state.has_tail:
        raise UnsupportedNormError("phase norm is finite only for tail-free states")

    z0, zd0 = state.zeta0, state.zeta_dot0
    r_star = max(R_OUTER, state.phi_c.bump_radius, state.pi_c.bump_radius)

    def integrand(r: float) -> tuple[float, float, float]:
        # psi_reg = phi_bump - z0 w, pi_reg = pi_bump - zd0 w, w = (1 - chi) G
        if r > 1.0:
            w1, lap_w = _w_derivs(r)
        else:
            w1, lap_w = 0.0, 0.0
        dpsi = state.phi_c.d1(r) - z0 * w1
        dpi = state.pi_c.d1(r) - zd0 * w1
        lap_psi = (
            state.phi_c.d2(r) + (2.0 * state.phi_c.d1(r) / r if r > 0.0 else 0.0)
        ) - z0 * lap_w
        if r == 0.0:
            lap_psi = 3.0 * state.phi_c.d2(0.0)  # radial limit of d2 + 2 d1 / r
        w = FOUR_PI * r * r
        return (w * dpsi * dpsi, w * lap_psi * lap_psi, w * dpi * dpi)

    pts = split_points(
        [1.0, R_OUTER, state.phi_c.bump_radius, state.pi_c.bump_radius], 0.0, r_star
    )

    def integrand_vec(r: np.ndarray) -> np.ndarray:
        return np.array([integrand(float(x)) for x in np.atleast_1d(r)])

    grad_psi, lap_psi, grad_pi = integrate_panels(integrand_vec, pts, quad_tol)
    # beyond r_star: psi_reg = -z0 G (harmonic), pi_reg = -zd0 G
    exterior = (z0 * z0 + zd0 * zd0) / (FOUR_PI * r_star)
    return float(grad_psi + lap_psi + grad_pi + exterior + z0 * z0 + zd0 * zd0)
