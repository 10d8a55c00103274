import math
from dataclasses import replace

import numpy as np
import pytest

import pointwave as pw
from pointwave.initial_data import FOUR_PI
from pointwave.zeta_dynamics import (
    DP5_REAL_BOUNDARY,
    _A,
    ODEConfig,
    TruncationEnteredError,
    ZetaHistory,
    detect_limit,
    integrate_source,
    rhs,
    step_cap,
    zeta_at,
)


@pytest.fixture(scope="module")
def cubic_trunc():
    return pw.build_truncation(pw.cubic(), math.sqrt(2.0))


@pytest.fixture(scope="module")
def linear_trunc():
    return pw.build_truncation(pw.linear(), 2.0)


def test_rhs_examples(cubic_trunc, linear_trunc):
    assert rhs(cubic_trunc, 0.5, 0.0) == pytest.approx(FOUR_PI * 0.375, rel=1e-15)
    assert rhs(cubic_trunc, 1.0, 0.0) == 0.0
    assert rhs(linear_trunc, 0.0, 0.25) == pytest.approx(math.pi, rel=1e-15)


def test_linear_decay_closed_form(linear_trunc):
    hist = integrate_source(linear_trunc, 1.0, lambda t: 0.0, ODEConfig(t_final=1.0))
    z_01, _ = zeta_at(hist, 0.1)
    assert z_01 == pytest.approx(math.exp(-FOUR_PI * 0.1), abs=1e-8)
    assert abs(z_01 - 0.28460954) < 5e-8
    for s in np.linspace(0.0, 1.0, 101):
        z, _ = zeta_at(hist, float(s))
        assert z == pytest.approx(math.exp(-FOUR_PI * s), abs=1e-8)


def test_embedded_pair_order(linear_trunc):
    # forced fixed steps: global error should drop like the 5th power
    errs = []
    for h in (2e-3, 1e-3):
        cfg = ODEConfig(rel_tol=1.0, abs_tol=1.0, max_step=h, t_final=0.5)
        hist = integrate_source(linear_trunc, 1.0, lambda t: 0.0, cfg)
        z, _ = zeta_at(hist, 0.5)
        errs.append(abs(z - math.exp(-FOUR_PI * 0.5)))
    assert errs[1] / errs[0] < 0.1


def test_stationary_fixed_point(stationary_run):
    hist = stationary_run["history"]
    assert float(np.max(np.abs(hist.values - 1.0))) == 0.0
    assert float(np.max(np.abs(hist.derivs))) == 0.0


def test_reference_attraction_with_brute_force_oracle(ref_state, cubic_trunc):
    cfg = ODEConfig(t_final=6.0)
    hist = pw.integrate(ref_state, cubic_trunc, cfg)
    z_end, _ = zeta_at(hist, 6.0)

    # independent fixed-step classical RK4 at fine resolution
    from pointwave.free_wave import lambda_at

    def f(t, y):
        return FOUR_PI * (lambda_at(ref_state, t) - ref_state.nl.F(y))

    dt = 2e-4
    n = int(round(6.0 / dt))
    y = 0.5
    for i in range(n):
        t = i * dt
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt * k1 / 2)
        k3 = f(t + dt / 2, y + dt * k2 / 2)
        k4 = f(t + dt, y + dt * k3)
        y += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    assert z_end == pytest.approx(y, abs=1e-8)
    assert z_end == pytest.approx(1.0, abs=1e-6)


def test_zeta_at_nodes_exact(ref_run):
    hist = ref_run["history"]
    for i in (0, 1, len(hist.times) // 2, len(hist.times) - 1):
        z, zd = zeta_at(hist, float(hist.times[i]))
        assert z == hist.values[i]
        assert zd == hist.derivs[i]


def test_zeta_at_domain(ref_run):
    hist = ref_run["history"]
    with pytest.raises(ValueError):
        zeta_at(hist, -0.5)
    with pytest.raises(ValueError):
        zeta_at(hist, hist.horizon + 1.0)


def test_zeta_at_constant_history():
    hist = ZetaHistory(
        times=np.linspace(0.0, 2.0, 21),
        values=np.full(21, 0.7),
        derivs=np.zeros(21),
        Lambda_used=1.0,
    )
    for s in (0.0, 0.37, 1.999):
        assert zeta_at(hist, s) == (0.7, 0.0)


def test_monotone_trapping_between_roots(cubic_trunc):
    # with no source, a trajectory started strictly between adjacent roots
    # can never cross either of them
    hist = integrate_source(cubic_trunc, 0.5, lambda t: 0.0, ODEConfig(t_final=5.0))
    assert np.all(hist.values >= 0.5 - 1e-12)
    assert np.all(hist.values <= 1.0 + 1e-12)
    assert np.all(np.diff(hist.values) >= -1e-14)


def test_source_free_potential_descent(cubic_trunc):
    U = pw.cubic().U
    hist = integrate_source(cubic_trunc, 0.5, lambda t: 0.0, ODEConfig(t_final=5.0))
    u_vals = [U(z) for z in hist.values]
    assert all(b <= a + 1e-12 for a, b in zip(u_vals, u_vals[1:]))


def test_a_priori_bound_and_flag(ref_run):
    hist = ref_run["history"]
    trunc = ref_run["trunc"]
    assert hist.max_abs() <= trunc.Lambda
    assert hist.Lambda_used == trunc.Lambda
    assert not hist.truncation_activated


def test_truncation_entered_raises(ref_state):
    tiny = pw.build_truncation(pw.cubic(), 0.4)  # below zeta0 = 0.5
    with pytest.raises(TruncationEnteredError):
        pw.integrate(ref_state, tiny, ODEConfig(t_final=1.0))


def test_step_cap_enforced(ref_run):
    hist = ref_run["history"]
    cap = step_cap(ref_run["trunc"])
    assert float(np.max(np.diff(hist.times))) <= cap + 1e-12


def test_step_cap_boundary_is_the_tableau_root():
    # stability function R(z) = 1 + z b^T (I - z A)^-1 1 of the tableau, with
    # b the last row of A (first same as last)
    n = len(_A)
    A = np.zeros((n, n))
    for i, row in enumerate(_A):
        A[i, : len(row)] = row

    def R(z):
        return 1.0 + z * A[-1] @ np.linalg.solve(np.eye(n) - z * A, np.ones(n))

    z_star = DP5_REAL_BOUNDARY
    assert abs(R(-z_star) - 1.0) <= 1e-12
    values = np.array([R(z) for z in np.linspace(-z_star, 0.0, 401)])
    assert values.min() > 0.0
    assert values.max() <= 1.0 + 1e-12


def test_detect_limit_stationary(stationary_run):
    res = detect_limit(stationary_run["history"], pw.cubic())
    assert res.q_plus == pytest.approx(1.0, abs=1e-9)
    assert res.residual == 0.0
    assert res.converged


def test_detect_limit_linear_decay(linear_trunc):
    # the source is identically zero, so it has expired from t = 0 on
    hist = replace(
        integrate_source(linear_trunc, 1.0, lambda t: 0.0, ODEConfig(t_final=3.0)),
        source_expiry=0.0,
    )
    res = detect_limit(hist, pw.linear())
    assert res.q_plus == pytest.approx(0.0, abs=1e-9)
    assert res.residual < 1e-8
    assert res.converged


def test_detect_limit_certifies_after_source_expiry():
    # linear_short-like bump data just past t_s = 2: the amplitude is still far
    # from rest, but the source has expired, so the limit q = 0 is decided
    nl = pw.linear()
    bump = pw.PolynomialBump(amplitude=nl.F(0.4), support_radius=1.0)
    state = pw.make_initial_state(
        pw.RadialProfile(bump=bump), pw.RadialProfile(), 0.4, 0.25, nl
    )
    hist = pw.integrate(state, pw.build_truncation(nl, 2.0), ODEConfig(t_final=2.5))
    assert hist.source_expiry == 2.0
    res = detect_limit(hist, nl)
    assert abs(nl.F(float(hist.values[-1]))) > 1e-8
    assert res.q_plus == pytest.approx(0.0, abs=1e-12)
    assert res.converged
    assert not res.oscillating

    short = pw.integrate(state, pw.build_truncation(nl, 2.0), ODEConfig(t_final=1.5))
    assert not detect_limit(short, nl).converged


def test_detect_limit_uses_expired_source_value(cubic_trunc):
    # a constant source c = 0.1 moves the rest point to the zero of c - F
    hist = replace(
        integrate_source(cubic_trunc, 0.5, lambda t: 0.1, ODEConfig(t_final=5.0)),
        source_expiry=0.0,
        source_limit=0.1,
    )
    res = detect_limit(hist, pw.cubic())
    assert res.converged
    assert res.q_plus**3 - res.q_plus == pytest.approx(0.1, abs=1e-12)
    assert res.q_plus > 1.0


def test_detect_limit_flags_oscillation():
    ts = np.linspace(0.0, 40.0, 4001)
    hist = ZetaHistory(
        times=ts,
        values=0.5 * np.sin(ts),
        derivs=0.5 * np.cos(ts),
        Lambda_used=2.0,
        source_expiry=20.0,
    )
    res = detect_limit(hist, pw.cubic())
    assert res.oscillating
    assert not res.converged


def test_config_validation():
    with pytest.raises(ValueError):
        ODEConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        ODEConfig(t_final=0.0)
