"""Admissible initial states: radial profiles plus point amplitudes.

A state is parametrized as

    psi0(r) = zeta0 * chi(r) G(r) + phi_c(r)
    pi0(r)  = zeta_dot0 * chi(r) G(r) + pi_c(r)

where phi_c, pi_c are regular radial profiles (compact bump, optionally plus
a Coulomb tail alpha (1 - chi) G used to represent exact stationary states).
Membership in the admissible set reduces to the constructive compatibility
condition phi_c(0) = F(zeta0), which make_initial_state enforces.  The
singular G factor is kept symbolic throughout: InitialState.reduced_data
gives the data as (r psi0, r pi0), which is finite at r = 0, and nothing is
ever sampled near the singularity.  stationary_data builds the exact rest
states q G, and bare_singular_data the point part (zeta0 chi G,
zeta_dot0 chi G) alone, for free-evolution probes.

Each bump (PolynomialBump, SplineBump, CallableBump) gives its value and
first two derivatives at a number from one call, jet, for the scalar origin
trace the ODE reads at every stage, (p, p') on arrays from one call,
jet_arr, for the field and the audits, and int_0^a s p(s) ds on arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cutoff import R_OUTER, chi_jet_arr
from .nonlinearity import Nonlinearity, _horner, linear
from .quadrature import integrate_panel, split_points

FOUR_PI = 4.0 * math.pi


class CompatibilityError(ValueError):
    """Regular part at the origin does not match F(zeta0)."""


@dataclass(frozen=True)
class PolynomialBump:
    """C2 compactly supported bump A (1 - r^2/rho^2)^3 with closed-form calculus."""

    amplitude: float
    support_radius: float

    @property
    def kinks(self) -> tuple[float, ...]:
        return (self.support_radius,)

    def jet(self, r: float) -> tuple[float, float, float]:
        """(p, p', p'') at a number r, 0 from the support on."""
        rho = self.support_radius
        if r >= rho:
            return 0.0, 0.0, 0.0
        u = 1.0 - (r / rho) ** 2
        a6, u2, rho2 = -6.0 * self.amplitude, u**2, rho**2
        return (
            self.amplitude * u**3,
            a6 * r * u2 / rho2,
            a6 * u2 / rho2 + 24.0 * self.amplitude * r * r * u / rho**4,
        )

    def jet_arr(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p, p') on an array of radii, 0 from the support on."""
        rho = self.support_radius
        u = 1.0 - np.minimum(r / rho, 1.0) ** 2
        d1 = np.where(r < rho, -6.0 * self.amplitude * r * u**2 / rho**2, 0.0)
        return self.amplitude * u**3, d1

    def integral_r(self, a: np.ndarray) -> np.ndarray:
        """int_0^a s * bump(s) ds, closed form."""
        rho = self.support_radius
        cap = self.amplitude * rho * rho / 8.0
        s = np.minimum(a / rho, 1.0) ** 2
        return cap * (1.0 - (1.0 - s) ** 4)


@dataclass(frozen=True)
class SplineBump:
    """Cubic-spline profile from (r, value) samples, clamped flat at both ends.

    The knot slopes solve the clamped spline's tridiagonal system (de Boor,
    A Practical Guide to Splines, ch. IV); piece i is the cubic sum_k
    c[k, i] (r - x[i])^(3 - k), evaluated with its derivatives by Horner.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    _x: np.ndarray = field(repr=False, compare=False, default=None)
    _c: tuple = field(repr=False, compare=False, default=None)  # value, d1, d2 pieces

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
        x, y = np.array(r), np.array(v)
        h = np.diff(x)
        slope = np.diff(y) / h
        # h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1} = 3 (h_i s_{i-1} + h_{i-1} s_i),
        # m_0 = m_n = 0: Thomas elimination, stable on this diagonally dominant system
        diag, rhs = 2.0 * (h[:-1] + h[1:]), 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        for i in range(1, len(diag)):
            w = h[i + 1] / diag[i - 1]
            diag[i] -= w * h[i - 1]
            rhs[i] -= w * rhs[i - 1]
        m = np.zeros(len(x))
        for i in range(len(diag) - 1, -1, -1):
            m[i + 1] = (rhs[i] - h[i] * m[i + 2]) / diag[i]
        t = (m[:-1] + m[1:] - 2.0 * slope) / h
        c = np.array([t / h, (slope - m[:-1]) / h - t, m[:-1], y[:-1]])
        bump = SplineBump(knots=tuple(r), values=tuple(v))
        object.__setattr__(bump, "_x", x)
        object.__setattr__(bump, "_c", (c, c[:3] * [[3.0], [2.0], [1.0]], c[:2] * [[6.0], [2.0]]))
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

    @property
    def kinks(self) -> tuple[float, ...]:
        """The knots, where the third derivative jumps."""
        return self.knots

    def jet(self, r: float) -> tuple[float, float, float]:
        """(p, p', p'') at a number r, 0 from the support on; no numpy call per lookup,
        because the ODE evaluates the profiles at every stage."""
        if r >= self.support_radius:
            return 0.0, 0.0, 0.0
        i = max(bisect_right(self.knots, r) - 1, 0)
        x = r - self.knots[i]
        return tuple(float(_horner(c[:, i], x)) for c in self._c)

    def jet_arr(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p, p') on an array of radii from one knot search, 0 from the support on."""
        a = np.minimum(r, self.support_radius)
        i = np.clip(np.searchsorted(self._x, a, side="right") - 1, 0, len(self._x) - 2)
        x, inside = a - self._x[i], r < self.support_radius
        return tuple(np.where(inside, _horner(c[:, i], x), 0.0) for c in self._c[:2])

    def _piece_integral(self, i: np.ndarray, u: np.ndarray) -> np.ndarray:
        # int of s p(s) over [x_i, x_i + u]; s p = (u + x_i) p(u) is quartic in u
        left = self._x[i]
        c3, c2, c1, c0 = self._c[0][:, i]
        return (
            c3 * u**5 / 5.0
            + (c2 + left * c3) * u**4 / 4.0
            + (c1 + left * c2) * u**3 / 3.0
            + (c0 + left * c1) * u**2 / 2.0
            + left * c0 * u
        )

    def integral_r(self, a: np.ndarray) -> np.ndarray:
        """int_0^a s * bump(s) ds: whole spline pieces by prefix sum, then the partial one."""
        xs = self._x
        n = len(xs) - 1
        before = np.concatenate(([0.0], np.cumsum(self._piece_integral(np.arange(n), np.diff(xs)))))
        a = np.minimum(np.asarray(a, dtype=float), xs[-1])
        i = np.clip(np.searchsorted(xs, a, side="right") - 1, 0, n - 1)
        return np.where(a > 0.0, before[i] + self._piece_integral(i, a - xs[i]), 0.0)


@dataclass(frozen=True)
class CallableBump:
    """Arbitrary smooth compactly supported profile given by one callable jet."""

    jet_fn: Callable[[float], tuple[float, float, float]]  # (p, p', p'') inside the support
    support_radius: float

    @property
    def kinks(self) -> tuple[float, ...]:
        return (self.support_radius,)

    def jet(self, r: float) -> tuple[float, float, float]:
        return self.jet_fn(r) if r < self.support_radius else (0.0, 0.0, 0.0)

    def jet_arr(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.vectorize(lambda x: self.jet(x)[:2], otypes=[float, float])(r)

    def integral_r(self, a: np.ndarray) -> np.ndarray:
        """int_0^a s * bump(s) ds, by one quadrature and prefix sums."""
        hi = np.clip(a, 0.0, self.support_radius)
        edges = split_points([1.0, 2.0, *np.ravel(hi)], 0.0, self.support_radius)
        pieces = integrate_panel(lambda s: s * self.jet_arr(s)[0], edges[:-1], edges[1:], 1e-13)
        return np.append(0.0, np.cumsum(pieces))[np.searchsorted(edges, hi)]


ZERO_BUMP = PolynomialBump(amplitude=0.0, support_radius=1.0)


@dataclass(frozen=True)
class RadialProfile:
    """Compact bump plus optional Coulomb tail alpha (1 - chi(r)) G(r)."""

    bump: object = ZERO_BUMP
    tail: float = 0.0

    def value_arr(self, r: np.ndarray) -> np.ndarray:
        """Profile at radii r >= 0, tail included; 1 - chi vanishes on r <= 1."""
        tail = self.tail * (1.0 - chi_jet_arr(r)[0]) / (FOUR_PI * np.maximum(r, 1.0))
        return self.bump.jet_arr(r)[0] + tail

    @property
    def value_at_origin(self) -> float:
        # the tail term vanishes identically near the origin
        return self.bump.jet(0.0)[0]


ZERO_PROFILE = RadialProfile()


@dataclass(eq=False)
class InitialState:
    """Validated initial data; immutable by convention after construction."""

    phi_c: RadialProfile
    pi_c: RadialProfile
    zeta0: float
    zeta_dot0: float
    nl: Nonlinearity
    _reduction: object = field(default=None, repr=False, compare=False)

    @property
    def support_radius(self) -> float:
        """Radius beyond which the data is its Coulomb tail alone: the cutoff's
        outer radius or the wider bump support."""
        return max(R_OUTER, self.phi_c.bump.support_radius, self.pi_c.bump.support_radius)

    def reduced_data(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(r psi0, r pi0) at radii r >= 0: zeta chi / 4 pi + r times the regular
        profile, with no division by r."""
        c = chi_jet_arr(r)[0]
        u0 = self.zeta0 * c / FOUR_PI + r * self.phi_c.value_arr(r)
        return u0, self.zeta_dot0 * c / FOUR_PI + r * self.pi_c.value_arr(r)


def make_initial_state(
    phi_c: RadialProfile,
    pi_c: RadialProfile,
    zeta0: float,
    zeta_dot0: float,
    nl: Nonlinearity,
    compat_tol: float = 1e-9,
) -> InitialState:
    """Validate the origin compatibility condition."""
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


def bare_singular_data(zeta0: float, zeta_dot0: float) -> InitialState:
    """The cutoff-singular data part alone: (zeta0 chi G, zeta_dot0 chi G).

    Not an admissible interacting state (no compatibility bump), which is why
    it bypasses make_initial_state.  It is for free evolution only, which
    never reads nl and vanishes for t >= r + 2.
    """
    return InitialState(ZERO_PROFILE, ZERO_PROFILE, zeta0, zeta_dot0, linear())
