"""Oscillator nonlinearities: polynomial force, potential, amplitude bound, truncation.

A Nonlinearity is the coefficient tuple of the force F, constant term first;
U = int_0^z F, F and F' are evaluated by Horner's scheme on numbers or
arrays.  Everything the pipeline asks of F is decided from the coefficients:
confinement (F of odd degree with a positive lead), the amplitude bound (the
outermost real root of U - H0), the range of F' on an interval (its ends and
the real roots of F'') and the rest point a flow settles at (rest_point).

Real roots are isolated by sign changes: between consecutive real roots of
p', p is monotone, so a piece holds a root exactly when p changes sign on
it, and bisection on exact signs narrows it to adjacent floats.  A root of
p' at which |p| is within Horner's rounding bound is a multiple root of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

CURVATURE_FLOOR = 1.0  # least curvature of the splice past +-Lambda: U keeps growing


class EvaluationDomainError(ValueError):
    """U or F evaluated to a non-finite value."""


class NonConfiningError(ValueError):
    """U does not grow to +inf on both sides; no amplitude bound exists."""


class EnergyLevelError(ValueError):
    """Requested energy level lies below the minimum of U."""


def _horner(coeffs, z):
    """Polynomial with coefficients highest degree first, at a number or an array."""
    acc = 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


def _derivative(coeffs: tuple) -> tuple:
    n = len(coeffs) - 1
    return tuple((n - k) * c for k, c in enumerate(coeffs[:-1]))


def _rounding_bound(mags: tuple, x: float) -> float:
    """Twice Higham's bound gamma_2n sum |a_k| |x|^k on Horner's rounding error; mags = |a|."""
    return 4.0 * len(mags) * 2.0**-53 * _horner(mags, abs(x))


def _exact_sign(coeffs: tuple, x: float) -> int:
    """Sign of the polynomial at x in exact rational arithmetic."""
    n, d = x.as_integer_ratio()
    num, den = 0, 1
    for c in coeffs:
        cn, cd = c.as_integer_ratio()
        num, den = num * n * cd + cn * den * d, den * d * cd
    return (num > 0) - (num < 0)


def _bisect(coeffs: tuple, mags: tuple, a: float, b: float, sign_a: int) -> float:
    """Root of a polynomial monotone on [a, b], of sign sign_a at a and -sign_a at b, by
    bisection on exact signs: the root if a midpoint hits it, else the adjacent float
    on its positive side."""
    while True:
        m = 0.5 * a + 0.5 * b
        if not a < m < b:
            return a if sign_a > 0 else b
        v = _horner(coeffs, m)
        s = (1 if v > 0.0 else -1) if abs(v) > _rounding_bound(mags, m) else _exact_sign(coeffs, m)
        if s == 0:
            return m
        if s == sign_a:
            a = m
        else:
            b = m


def _real_roots(coeffs: tuple) -> list[float]:
    """Real roots, ascending, of a polynomial given highest degree first with a nonzero lead."""
    if len(coeffs) < 2:
        return []
    mags = tuple(abs(c) for c in coeffs)
    bound = 1.0 + max(mags[1:]) / mags[0]  # Cauchy: every root has |x| < bound
    sign_hi = 1 if coeffs[0] > 0.0 else -1
    a, sign_a = -bound, sign_hi if len(coeffs) % 2 else -sign_hi
    roots = []
    for b in [*_real_roots(_derivative(coeffs)), bound]:
        if b == bound:
            sign_b = sign_hi
        else:
            v = _horner(coeffs, b)
            sign_b = 0 if abs(v) <= _rounding_bound(mags, b) else (1 if v > 0.0 else -1)
        if sign_a * sign_b < 0:
            roots.append(_bisect(coeffs, mags, a, b, sign_a))
        if sign_b == 0:
            roots.append(b)
        a, sign_a = b, sign_b
    return roots


@dataclass(frozen=True)
class Nonlinearity:
    """Polynomial force F(z) = sum_k coefficients[k] z^k, its potential U = int_0^z F and F'."""

    coefficients: tuple[float, ...]
    descriptor: str = "custom"
    # Horner tuples of F, U and F', highest degree first
    _f: tuple = field(init=False, repr=False, compare=False)
    _u: tuple = field(init=False, repr=False, compare=False)
    _fp: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = [float(c) for c in self.coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()  # a zero lead would fake the degree
        if not coeffs:
            raise ValueError("empty coefficient list")
        f = tuple(reversed(coeffs))
        object.__setattr__(self, "_f", f)
        object.__setattr__(self, "_u", tuple(c / (len(f) - k) for k, c in enumerate(f)) + (0.0,))
        object.__setattr__(self, "_fp", _derivative(f))

    def U(self, zeta):
        return _horner(self._u, zeta)

    def F(self, zeta):
        return _horner(self._f, zeta)

    def F_prime(self, zeta):
        return _horner(self._fp, zeta)

    def eval(self, zeta: float) -> tuple[float, float]:
        """Return (U(zeta), F(zeta)), rejecting non-finite results."""
        if not math.isfinite(zeta):
            raise EvaluationDomainError(f"non-finite amplitude {zeta!r}")
        u, f = float(self.U(zeta)), float(self.F(zeta))
        if not (math.isfinite(u) and math.isfinite(f)):
            raise EvaluationDomainError(
                f"{self.descriptor}: non-finite value at zeta={zeta!r} (U={u!r}, F={f!r})"
            )
        return u, f

    @property
    def confining(self) -> bool:
        """U -> +inf as |z| -> inf: F has odd degree and a positive leading coefficient."""
        return len(self._f) % 2 == 0 and self._f[0] > 0.0

    def rest_point(self, z: float, c: float, bound: float) -> float:
        """Limit of the monotone flow zeta' = 4 pi (c - F(zeta)) from z: the first real
        root of F - c from z on in the direction of c - F(z), nan if none in [-bound, bound]."""
        direction = c - self.F(z)
        if direction == 0.0:
            return z
        roots = _real_roots(self._f[:-1] + (self._f[-1] - c,))
        if direction > 0.0:
            q = min((r for r in roots if r >= z), default=math.inf)
        else:
            q = max((r for r in roots if r <= z), default=-math.inf)
        return q if abs(q) <= bound else math.nan


def cubic() -> Nonlinearity:
    return Nonlinearity((0.0, -1.0, 0.0, 1.0), "cubic")  # F = z^3 - z


def linear() -> Nonlinearity:
    return Nonlinearity((0.0, 1.0), "linear")  # F = z


def quintic() -> Nonlinearity:
    return Nonlinearity((0.0, -1.0, 0.0, 0.0, 0.0, 1.0), "quintic")  # F = z^5 - z


def from_coefficients(coefficients) -> Nonlinearity:
    """Polynomial force from its coefficient list, constant term first."""
    coeffs = tuple(float(c) for c in coefficients)
    return Nonlinearity(coeffs, f"poly{coeffs}")


_CATALOG = {"cubic": cubic, "linear": linear, "quintic": quintic}


def make_nonlinearity(kind: str, coefficients=()) -> Nonlinearity:
    """Catalog lookup used by the CLI config."""
    if kind == "poly":
        return from_coefficients(coefficients)
    try:
        return _CATALOG[kind]()
    except KeyError:
        raise ValueError(f"unknown nonlinearity kind {kind!r}") from None


def lambda_bound(nl: Nonlinearity, H0: float) -> float:
    """Largest |zeta| in the sublevel set {U <= H0}: the outermost real root of U - H0,
    rounded outward, so that U(+-Lambda) >= H0 in exact arithmetic."""
    if not nl.confining:
        raise NonConfiningError(f"{nl.descriptor}: potential is not confining")
    p = nl._u[:-1] + (nl._u[-1] - H0,)
    roots = _real_roots(p)
    if not roots:
        raise EnergyLevelError(f"energy level {H0!r} lies below min U")
    lam = max(-roots[0], roots[-1])
    # at a multiple root U - H0 may be a rounding error below 0: cross outward
    mags = tuple(abs(c) for c in p)
    bound = 1.0 + max(mags[1:]) / mags[0]
    if _exact_sign(p, lam) < 0:
        lam = _bisect(p, mags, lam, bound, -1)
    if _exact_sign(p, -lam) < 0:
        lam = -_bisect(p, mags, -bound, -lam, 1)
    return lam


@dataclass(frozen=True)
class TruncatedNonlinearity:
    """F continued past +-Lambda by the quadratic splice, hence globally Lipschitz.

    Inside [-Lambda, Lambda] the force is the base one.  Beyond, F continues as
    the line matching its value at the junction, with slope at least
    CURVATURE_FLOOR (U continues as the matching quadratic), so that the
    reduced dynamics is well posed whatever a trial integrator step does.
    """

    base: Nonlinearity
    Lambda: float
    lipschitz_constant: float
    min_slope: float  # min of F~' (see build_truncation)
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
        return _horner(self.base._f, zeta)

    def F_prime(self, zeta: float) -> float:
        if zeta > self.Lambda:
            return self._c_hi
        if zeta < -self.Lambda:
            return self._c_lo
        return _horner(self.base._fp, zeta)

    def F_and_slope(self, zeta: float) -> tuple[float, float]:
        """(F~, F~') in one derivative-carrying Horner pass (Higham, Accuracy and
        Stability of Numerical Algorithms, 5.1); the linear splice past +-Lambda."""
        if abs(zeta) > self.Lambda:
            return self.F(zeta), self.F_prime(zeta)
        f = fp = 0.0
        for c in self.base._f:
            f, fp = f * zeta + c, fp * zeta + f
        return f, fp


def build_truncation(nl: Nonlinearity, Lambda: float) -> TruncatedNonlinearity:
    """Quadratic continuation of U past +-Lambda with curvature at least CURVATURE_FLOOR.

    The splice is C1 at the junction (C2 whenever the floor is inactive); the
    a priori amplitude bound keeps accepted trajectories inside the window,
    so the junction smoothness is never exercised by the dynamics.

    min_slope = min F~' and the Lipschitz constant are exact, from the range
    of F' on the window: the splice slopes are at least F'(+-Lambda).
    """
    if Lambda <= 0.0:
        raise ValueError("Lambda must be positive")
    f_hi, f_lo = nl.eval(Lambda)[1], nl.eval(-Lambda)[1]
    c_hi = max(nl.F_prime(Lambda), CURVATURE_FLOOR)
    c_lo = max(nl.F_prime(-Lambda), CURVATURE_FLOOR)
    # F' on the window is extreme at its ends or at the real roots of F'' inside
    inner = [r for r in _real_roots(_derivative(nl._fp)) if -Lambda < r < Lambda]
    slopes = [float(nl.F_prime(z)) for z in (-Lambda, Lambda, *inner)]
    lo, hi = min(slopes), max(slopes)
    return TruncatedNonlinearity(nl, Lambda, max(hi, -lo, c_hi, c_lo), lo, f_hi, f_lo, c_hi, c_lo)
