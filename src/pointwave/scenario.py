"""Scenario configs: flat `section.key = value` text files.

Grammar: one `KEY = VALUE` per line; blank lines and lines starting with `#`
are ignored; no inline comments.  Unknown keys are rejected with the line
number.  Numbers must be finite.  Radii, steps, tolerances, check bounds,
ode.t_final and oracle.time must be positive where set.  Lists are
comma-separated.  Keys and defaults:

    name                      scenario label and output directory name
                              (required; no /, \\, . or ..)
    nonlinearity.kind         cubic | linear | quintic | poly   [cubic]
    nonlinearity.coefficients comma floats, constant first (poly only;
                              odd degree, positive lead: U confining)
    data.kind                 bump | stationary | spline        [bump]
    data.q                    rest amplitude (stationary only)
    data.amplitude            bump amplitude; "auto" = F(zeta0) [auto]
    data.rho                  bump support radius               [1.0]
    data.zeta0, data.zeta_dot0                                  [0.0, 0.0]
    data.pi_amplitude, data.pi_rho   velocity bump              [0.0, 1.0]
    data.tail_phi, data.tail_pi      Coulomb tail coefficients  [0.0, 0.0]
                              (tail_pi must be 0: a velocity tail has
                              infinite kinetic energy)
    data.phi_file, data.pi_file      two-column (r, value) spline profiles
    ode.t_final               horizon (> 0; negative times are a CLI-level
                              time reversal, see the docstring
                              of pointwave.cli)                 [50.0]
    ode.rel_tol, ode.abs_tol                                    [1e-11, 1e-13]
    ode.max_step              additional step cap               [none]
    quad.tol                  error bound on each radial integral
                              relative to max(1, its size),
                              shared by panel length            [1e-12]
    quad.radius               energy ball ("auto" = t + support + 1)
    report.energy_times       comma floats: ledger energies in (0, T)
                              and the audit at T; times set here past
                              T warn (TimesPastHorizonWarning)  [1,5,10,20]
    report.csv_rows           rows in zeta.csv                  [201]
    snapshot.times            comma floats; as energy_times     []
    snapshot.r_max            snapshot grid radius ("auto")
    snapshot.points           snapshot grid size                [401]
    oracle.enabled            true | false                      [false]
    oracle.h                  grid step ("auto" = R/4096)
    oracle.R                  grid radius                       [8.0]
    oracle.time               comparison time, moved down onto the
                              grid ("auto" = min(10, T)); at most T
                              when the oracle is enabled
    check.energy_drift        max relative drift                [1e-6]
    check.require_convergence true | false: require the limit certificate
                              of detect_limit (T >= t_s, zeta monotone
                              from t_s on towards a zero of c - F)  [true]
    check.huygens_max         max |psi_G| on the forbidden grid [1e-12]
    check.oracle_rel_l2       max oracle discrepancy            [1e-3]
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from .nonlinearity import from_coefficients


class ConfigError(ValueError):
    pass


class TimesPastHorizonWarning(UserWarning):
    """Energy or snapshot times set past the horizon T; the run drops them."""


@dataclass(frozen=True)
class Scenario:
    name: str = ""
    nonlinearity_kind: str = "cubic"
    coefficients: tuple[float, ...] = ()
    data_kind: str = "bump"
    q: float = 0.0
    amplitude: float | None = None  # None = set by the compatibility condition
    rho: float = 1.0
    zeta0: float = 0.0
    zeta_dot0: float = 0.0
    pi_amplitude: float = 0.0
    pi_rho: float = 1.0
    tail_phi: float = 0.0
    tail_pi: float = 0.0
    phi_file: str | None = None
    pi_file: str | None = None
    t_final: float = 50.0
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    max_step: float = math.inf
    quad_tol: float = 1e-12
    quad_radius: float | None = None
    energy_times: tuple[float, ...] = (1.0, 5.0, 10.0, 20.0)
    csv_rows: int = 201
    snapshot_times: tuple[float, ...] = ()
    snapshot_r_max: float | None = None
    snapshot_points: int = 401
    oracle_enabled: bool = False
    oracle_h: float | None = None
    oracle_R: float = 8.0
    oracle_time: float | None = None
    check_energy_drift: float = 1e-6
    check_require_convergence: bool = True
    check_huygens_max: float = 1e-12
    check_oracle_rel_l2: float = 1e-3

    def reversed(self) -> "Scenario":
        """Time-reversed scenario: negate the initial velocity data."""
        return replace(
            self,
            zeta_dot0=-self.zeta_dot0,
            pi_amplitude=-self.pi_amplitude,
        )


def _parse_float(v: str) -> float:
    try:
        x = float(v)
    except ValueError:
        raise ConfigError(f"expected a number, got {v!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {v!r}")
    return x


def _parse_auto_float(v: str) -> float | None:
    return None if v.lower() == "auto" else _parse_float(v)


def _parse_int(v: str) -> int:
    try:
        return int(v)
    except ValueError:
        raise ConfigError(f"expected an integer, got {v!r}") from None


def _parse_bool(v: str) -> bool:
    low = v.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected true/false, got {v!r}")


def _parse_floats(v: str) -> tuple[float, ...]:
    if not v.strip():
        return ()
    return tuple(_parse_float(part.strip()) for part in v.split(","))


_KEYS = {
    "name": ("name", str),
    "nonlinearity.kind": ("nonlinearity_kind", str),
    "nonlinearity.coefficients": ("coefficients", _parse_floats),
    "data.kind": ("data_kind", str),
    "data.q": ("q", _parse_float),
    "data.amplitude": ("amplitude", _parse_auto_float),
    "data.rho": ("rho", _parse_float),
    "data.zeta0": ("zeta0", _parse_float),
    "data.zeta_dot0": ("zeta_dot0", _parse_float),
    "data.pi_amplitude": ("pi_amplitude", _parse_float),
    "data.pi_rho": ("pi_rho", _parse_float),
    "data.tail_phi": ("tail_phi", _parse_float),
    "data.tail_pi": ("tail_pi", _parse_float),
    "data.phi_file": ("phi_file", str),
    "data.pi_file": ("pi_file", str),
    "ode.t_final": ("t_final", _parse_float),
    "ode.rel_tol": ("rel_tol", _parse_float),
    "ode.abs_tol": ("abs_tol", _parse_float),
    "ode.max_step": ("max_step", _parse_float),
    "quad.tol": ("quad_tol", _parse_float),
    "quad.radius": ("quad_radius", _parse_auto_float),
    "report.energy_times": ("energy_times", _parse_floats),
    "report.csv_rows": ("csv_rows", _parse_int),
    "snapshot.times": ("snapshot_times", _parse_floats),
    "snapshot.r_max": ("snapshot_r_max", _parse_auto_float),
    "snapshot.points": ("snapshot_points", _parse_int),
    "oracle.enabled": ("oracle_enabled", _parse_bool),
    "oracle.h": ("oracle_h", _parse_auto_float),
    "oracle.R": ("oracle_R", _parse_float),
    "oracle.time": ("oracle_time", _parse_auto_float),
    "check.energy_drift": ("check_energy_drift", _parse_float),
    "check.require_convergence": ("check_require_convergence", _parse_bool),
    "check.huygens_max": ("check_huygens_max", _parse_float),
    "check.oracle_rel_l2": ("check_oracle_rel_l2", _parse_float),
}

# checked when set; None is "auto" for quad.radius, snapshot.r_max, oracle.h, oracle.time
_POSITIVE = (
    "data.rho", "data.pi_rho", "ode.t_final", "ode.rel_tol", "ode.abs_tol", "ode.max_step",
    "quad.tol", "quad.radius", "snapshot.r_max", "oracle.h", "oracle.R", "oracle.time",
    "check.energy_drift", "check.huygens_max", "check.oracle_rel_l2",
)


def parse_config(text: str, base_dir: str | Path | None = None) -> Scenario:
    """Parse and validate a scenario config; rejects unknown keys."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = parser(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None

    if "name" not in values or not values["name"]:
        raise ConfigError("missing required key 'name'")
    if values["name"] in (".", "..") or any(c in values["name"] for c in "/\\"):
        raise ConfigError(f"name: {values['name']!r} is not a plain directory name")
    scenario = Scenario(**values)
    validate(scenario, base_dir)
    # only times the config sets: the default energy times outrun a short T
    for key, attr in (
        ("report.energy_times", "energy_times"),
        ("snapshot.times", "snapshot_times"),
    ):
        late = [t for t in values.get(attr, ()) if t > scenario.t_final]
        if late:
            warnings.warn(
                f"{key}: {', '.join(f'{t:g}' for t in late)} past ode.t_final = "
                f"{scenario.t_final:g}, dropped",
                TimesPastHorizonWarning,
                stacklevel=2,
            )
    return scenario


def validate(s: Scenario, base_dir: str | Path | None) -> None:
    for key in _POSITIVE:
        value = getattr(s, _KEYS[key][0])
        if value is not None and not value > 0.0:
            raise ConfigError(f"{key}: must be positive, got {value!r}")
    if s.oracle_enabled and s.oracle_time is not None and s.oracle_time > s.t_final:
        raise ConfigError(f"oracle.time: {s.oracle_time!r} is past ode.t_final = {s.t_final!r}")
    for key in ("report.csv_rows", "snapshot.points"):
        value = getattr(s, _KEYS[key][0])
        if value < 2:
            raise ConfigError(f"{key}: must be at least 2, got {value!r}")
    if s.nonlinearity_kind not in ("cubic", "linear", "quintic", "poly"):
        raise ConfigError(f"unknown nonlinearity kind {s.nonlinearity_kind!r}")
    if s.nonlinearity_kind == "poly" and not s.coefficients:
        raise ConfigError("poly nonlinearity needs nonlinearity.coefficients")
    if s.nonlinearity_kind == "poly" and not from_coefficients(s.coefficients).confining:
        raise ConfigError(
            f"nonlinearity.coefficients = {', '.join(f'{c:g}' for c in s.coefficients)}: "
            "U is not confining; F needs odd degree and a positive leading coefficient"
        )
    if s.tail_pi != 0.0:
        raise ConfigError(
            f"data.tail_pi = {s.tail_pi!r}: a velocity tail psi_t ~ tail_pi/(4 pi r) "
            "has infinite kinetic energy, outside the finite-energy class; it must be 0"
        )
    if s.data_kind not in ("bump", "stationary", "spline"):
        raise ConfigError(f"unknown data kind {s.data_kind!r}")
    if s.data_kind == "spline" and not (s.phi_file or s.pi_file):
        raise ConfigError("spline data needs data.phi_file and/or data.pi_file")
    for name in (s.phi_file, s.pi_file):
        if name is not None:
            path = Path(base_dir, name) if base_dir is not None else Path(name)
            if not os.path.isfile(path):  # False, not OSError, for a name too long
                raise ConfigError(f"profile file not found: {path}")


def load_config(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text, base_dir=path.parent)
