"""Oscillator nonlinearities: potential, force, amplitude bound, truncation.

The point oscillator is driven by a force F with potential U (F = U').  A
confining U yields a finite amplitude bound for a given energy level, and the
force is continued past that bound by a globally Lipschitz splice so the
reduced dynamics is well posed no matter what a trial integrator step does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from scipy.optimize import brentq

__all__ = [
    "Nonlinearity",
    "TruncatedNonlinearity",
    "EvaluationDomainError",
    "NonConfiningError",
    "EnergyLevelError",
    "cubic",
    "linear",
    "quintic",
    "from_coefficients",
    "make_nonlinearity",
    "check_confining",
    "lambda_bound",
    "build_truncation",
]


class EvaluationDomainError(ValueError):
    """U or F evaluated to a non-finite value."""


class NonConfiningError(ValueError):
    """The potential fails the grows-at-infinity check; no amplitude bound exists."""


class EnergyLevelError(ValueError):
    """Requested energy level lies below the sampled minimum of U."""


@dataclass(frozen=True)
class Nonlinearity:
    """Potential U, force F = U' and second derivative F' of the oscillator."""

    U: Callable[[float], float]
    F: Callable[[float], float]
    F_prime: Callable[[float], float]
    descriptor: str = "custom"

    def eval(self, zeta: float) -> tuple[float, float]:
        """Return (U(zeta), F(zeta)), rejecting non-finite results."""
        if not math.isfinite(zeta):
            raise EvaluationDomainError(f"non-finite amplitude {zeta!r}")
        try:
            u = float(self.U(zeta))
            f = float(self.F(zeta))
        except OverflowError:
            raise EvaluationDomainError(
                f"{self.descriptor}: overflow at zeta={zeta!r}"
            ) from None
        if not (math.isfinite(u) and math.isfinite(f)):
            raise EvaluationDomainError(
                f"{self.descriptor}: non-finite value at zeta={zeta!r} (U={u!r}, F={f!r})"
            )
        return u, f


def cubic() -> Nonlinearity:
    return Nonlinearity(
        U=lambda z: 0.25 * z**4 - 0.5 * z**2,
        F=lambda z: z**3 - z,
        F_prime=lambda z: 3.0 * z * z - 1.0,
        descriptor="cubic",
    )


def linear() -> Nonlinearity:
    return Nonlinearity(
        U=lambda z: 0.5 * z * z,
        F=lambda z: z,
        F_prime=lambda z: 1.0,
        descriptor="linear",
    )


def quintic() -> Nonlinearity:
    return Nonlinearity(
        U=lambda z: z**6 / 6.0 - 0.5 * z**2,
        F=lambda z: z**5 - z,
        F_prime=lambda z: 5.0 * z**4 - 1.0,
        descriptor="quintic",
    )


def from_coefficients(coefficients) -> Nonlinearity:
    """Polynomial force from its coefficient list, constant term first."""
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise ValueError("empty coefficient list")
    f = Polynomial(coeffs)
    u = f.integ()
    fp = f.deriv()
    return Nonlinearity(
        U=lambda z: float(u(z)),
        F=lambda z: float(f(z)),
        F_prime=lambda z: float(fp(z)),
        descriptor=f"poly{tuple(coeffs)}",
    )


_CATALOG = {"cubic": cubic, "linear": linear, "quintic": quintic}


def make_nonlinearity(kind: str, coefficients=()) -> Nonlinearity:
    """Catalog lookup used by the CLI config."""
    if kind == "poly":
        return from_coefficients(coefficients)
    try:
        return _CATALOG[kind]()
    except KeyError:
        raise ValueError(f"unknown nonlinearity kind {kind!r}") from None


def check_confining(nl: Nonlinearity, probe: float = 1e6) -> bool:
    """Heuristic growth check: U eventually increasing in |zeta| on both sides.

    This samples geometrically growing amplitudes up to the probe; it cannot
    decide the analytic hypothesis and custom nonlinearities must satisfy it
    by construction.
    """
    if probe <= 0.0:
        raise ValueError("probe must be positive")
    mags = np.geomspace(max(probe * 2.0**-24, 1e-6), probe, 25)
    for sign in (1.0, -1.0):
        tail = [nl.eval(sign * m)[0] for m in mags[-4:]]
        if not all(b > a for a, b in zip(tail, tail[1:])):
            return False
    return True


def _rightmost_crossing(nl: Nonlinearity, h0: float, z_from: float, z_to: float, n: int) -> float | None:
    """Largest z in [z_from, z_to] with U(z) <= h0, from the last such grid sample."""
    grid = np.linspace(z_from, z_to, n + 1)
    g = np.array([nl.U(x) - h0 for x in grid])
    below = np.flatnonzero(g <= 0.0)
    if not below.size:
        return None
    idx = below[-1]
    if idx == n or g[idx] == 0.0:
        return float(grid[idx])
    return float(brentq(lambda x: nl.U(x) - h0, grid[idx], grid[idx + 1], xtol=1e-14))


def lambda_bound(nl: Nonlinearity, H0: float, probe: float = 1e6) -> float:
    """Largest |zeta| in the sublevel set {U <= H0}, by scan + bisection."""
    if not check_confining(nl, probe):
        raise NonConfiningError(f"{nl.descriptor}: potential is not confining")

    # expand to a bracket where U exceeds H0 on both sides
    span = 1.0
    for _ in range(80):
        if nl.eval(span)[0] > H0 and nl.eval(-span)[0] > H0:
            break
        span *= 2.0
    else:
        raise NonConfiningError(f"{nl.descriptor}: could not bracket the sublevel set")

    n = 8192
    grid = np.linspace(-span, span, n + 1)
    uvals = np.array([nl.U(x) for x in grid])
    i_min = int(np.argmin(uvals))
    if uvals[i_min] > H0:
        # refine around the sampled minimum before giving up
        a = grid[max(i_min - 1, 0)]
        b = grid[min(i_min + 1, n)]
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(nl.U, bounds=(a, b), method="bounded")
        if res.fun > H0:
            raise EnergyLevelError(
                f"energy level {H0!r} lies below min U ~ {min(uvals[i_min], res.fun)!r}"
            )
        z_min = float(res.x)
    else:
        z_min = float(grid[i_min])

    right = _rightmost_crossing(nl, H0, z_min, span, n)
    left = _rightmost_crossing(
        Nonlinearity(U=lambda z: nl.U(-z), F=nl.F, F_prime=nl.F_prime), H0, -z_min, span, n
    )
    candidates = [abs(z) for z in (right, left) if z is not None] + [abs(z_min)]
    return max(candidates)


@dataclass(frozen=True)
class TruncatedNonlinearity:
    """F continued past +-Lambda by the quadratic splice, hence globally Lipschitz.

    Inside [-Lambda, Lambda] the force and potential agree with the base
    nonlinearity exactly.  Beyond, U continues as the quadratic matching
    value and slope at the junction, with curvature floored at a positive
    constant so U keeps growing.
    """

    base: Nonlinearity
    Lambda: float
    lipschitz_constant: float
    min_slope: float  # sampled min of F~' (see build_truncation)
    _u_hi: float = field(repr=False, default=0.0)
    _u_lo: float = field(repr=False, default=0.0)
    _f_hi: float = field(repr=False, default=0.0)
    _f_lo: float = field(repr=False, default=0.0)
    _c_hi: float = field(repr=False, default=0.0)
    _c_lo: float = field(repr=False, default=0.0)

    def F(self, zeta: float) -> float:
        lam = self.Lambda
        if zeta > lam:
            return self._f_hi + self._c_hi * (zeta - lam)
        if zeta < -lam:
            return self._f_lo + self._c_lo * (zeta + lam)
        return self.base.F(zeta)

    def U(self, zeta: float) -> float:
        lam = self.Lambda
        if zeta > lam:
            d = zeta - lam
            return self._u_hi + self._f_hi * d + 0.5 * self._c_hi * d * d
        if zeta < -lam:
            d = zeta + lam
            return self._u_lo + self._f_lo * d + 0.5 * self._c_lo * d * d
        return self.base.U(zeta)

    def F_prime(self, zeta: float) -> float:
        if zeta > self.Lambda:
            return self._c_hi
        if zeta < -self.Lambda:
            return self._c_lo
        return self.base.F_prime(zeta)


def build_truncation(
    nl: Nonlinearity,
    Lambda: float,
    curvature_floor: float = 1.0,
    n_sample: int = 2001,
) -> TruncatedNonlinearity:
    """Quadratic continuation of U past +-Lambda with a positive curvature floor.

    The splice is C1 at the junction (C2 whenever the floor is inactive); the
    a priori amplitude bound keeps accepted trajectories inside the window,
    so the junction smoothness is never exercised by the dynamics.

    The Lipschitz constant and min_slope = min F~' come from one sample of F'
    at n_sample points (the splice slopes are at least F'(+-Lambda), itself a
    sample point), so min_slope is exact only when the minimiser of F' is
    sampled, as zeta = 0 is for the shipped polynomial forces.
    """
    if Lambda <= 0.0:
        raise ValueError("Lambda must be positive")
    u_hi, f_hi = nl.eval(Lambda)
    u_lo, f_lo = nl.eval(-Lambda)
    c_hi = max(nl.F_prime(Lambda), curvature_floor)
    c_lo = max(nl.F_prime(-Lambda), curvature_floor)
    slopes = [nl.F_prime(z) for z in np.linspace(-Lambda, Lambda, n_sample)]
    interior = max(abs(fp) for fp in slopes)
    return TruncatedNonlinearity(
        base=nl,
        Lambda=Lambda,
        lipschitz_constant=max(interior, c_hi, c_lo),
        min_slope=float(min(slopes)),
        _u_hi=u_hi,
        _u_lo=u_lo,
        _f_hi=f_hi,
        _f_lo=f_lo,
        _c_hi=c_hi,
        _c_lo=c_lo,
    )
