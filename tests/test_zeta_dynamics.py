import math
from dataclasses import replace

import numpy as np
import pytest

import pointwave as pw
from pointwave.field_assembly import distance_to_stationary, energy
from pointwave.initial_data import FOUR_PI
from pointwave.runner import amplitude_bound
from pointwave.zeta_dynamics import (
    DP5_REAL_BOUNDARY,
    _A,
    IntegrationError,
    ODEConfig,
    TruncationEnteredError,
    ZetaHistory,
    detect_limit,
    integrate_source,
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
    # the node derivative is the right-hand side 4 pi (lambda - F~(zeta))
    cfg = ODEConfig(t_final=0.1)
    def first_slope(trunc, zeta0, lam):
        return integrate_source(trunc, zeta0, lambda t: (lam, 0.0), cfg).derivs[0]

    assert first_slope(cubic_trunc, 0.5, 0.0) == pytest.approx(FOUR_PI * 0.375, rel=1e-15)
    assert np.all(integrate_source(cubic_trunc, 1.0, lambda t: (0.0, 0.0), cfg).derivs == 0.0)
    assert first_slope(linear_trunc, 0.0, 0.25) == pytest.approx(math.pi, rel=1e-15)


def test_linear_decay_closed_form(linear_trunc):
    hist = integrate_source(linear_trunc, 1.0, lambda t: (0.0, 0.0), ODEConfig(t_final=1.0))
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
        hist = integrate_source(linear_trunc, 1.0, lambda t: (0.0, 0.0), cfg)
        z, _ = zeta_at(hist, 0.5)
        errs.append(abs(z - math.exp(-FOUR_PI * 0.5)))
    assert errs[1] / errs[0] < 0.1


def test_stationary_fixed_point(stationary_run):
    hist = stationary_run["history"]
    assert float(np.max(np.abs(hist.values - 1.0))) == 0.0
    assert float(np.max(np.abs(hist.derivs))) == 0.0
    # at rest when the source expires: the time map adds one node, at T
    assert hist.times[-2] == hist.source_expiry


def test_reference_attraction_with_brute_force_oracle(ref_state, cubic_trunc):
    cfg = ODEConfig(t_final=6.0)
    hist = pw.integrate(ref_state, cubic_trunc, cfg)
    z_end, _ = zeta_at(hist, 6.0)

    # independent fixed-step classical RK4 at fine resolution
    from pointwave.free_wave import lambda_at

    def f(t, y):
        return FOUR_PI * (lambda_at(ref_state, t)[0] - ref_state.nl.F(y))

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
        second=np.zeros(21),
        Lambda_used=1.0,
    )
    for s in (0.0, 0.37, 1.999):
        assert zeta_at(hist, s) == (0.7, 0.0)


def test_quintic_reproduces_degree_five_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = np.polynomial.Polynomial(rng.normal(size=6))
        ts = np.sort(np.concatenate(([0.0, 2.0], rng.uniform(0.0, 2.0, 9))))
        hist = ZetaHistory(
            times=ts, values=p(ts), derivs=p.deriv()(ts), second=p.deriv(2)(ts), Lambda_used=10.0
        )
        s = np.linspace(0.0, 2.0, 1001)
        z, zd = zeta_at(hist, s)
        scale = max(1.0, float(np.max(np.abs(p(s)))))
        assert np.max(np.abs(z - p(s))) <= 1e-14 * scale
        assert np.max(np.abs(zd - p.deriv()(s))) <= 1e-13 * scale


def test_history_is_c2_at_nodes(ref_run):
    # on each node interval zeta_at is a quintic: fitted from interior samples,
    # its value, slope and curvature at both ends are the node data, so
    # zeta, zeta' and zeta'' are continuous across every node
    hist = ref_run["history"]
    x = 0.5 - 0.5 * np.cos(np.pi * (np.arange(6) + 0.5) / 6)  # interior Chebyshev points
    for i in np.linspace(0, len(hist.times) - 2, 40).astype(int):
        t0, h = hist.times[i], hist.times[i + 1] - hist.times[i]
        z, zd = zeta_at(hist, t0 + h * x)
        pz = np.polynomial.Polynomial.fit(x, z, 5, domain=[0, 1], window=[0, 1])
        pd = np.polynomial.Polynomial.fit(x, zd, 4, domain=[0, 1], window=[0, 1])
        for end, j in ((0.0, i), (1.0, i + 1)):
            assert pz(end) == pytest.approx(hist.values[j], abs=1e-14)
            assert pd(end) == pytest.approx(hist.derivs[j], abs=1e-13)
            assert pd.deriv()(end) == pytest.approx(h * hist.second[j], abs=1e-13)


def test_node_second_derivative_is_the_equation(ref_run, ref_state):
    # zeta'' = 4 pi (lambda' - F'(zeta) zeta') at every node, lambda' included
    from pointwave.free_wave import lambda_at

    hist = ref_run["history"]
    nl = ref_state.nl
    for i in range(0, len(hist.times), 37):
        t, z, zd = hist.times[i], hist.values[i], hist.derivs[i]
        expected = FOUR_PI * (lambda_at(ref_state, t)[1] - nl.F_prime(z) * zd)
        assert hist.second[i] == pytest.approx(expected, rel=1e-14, abs=1e-14)


def _reference_run(zeta0, t_final, rel_tol=1e-11):
    nl = pw.cubic()
    bump = pw.PolynomialBump(amplitude=nl.F(zeta0), support_radius=1.0)
    state = pw.make_initial_state(pw.RadialProfile(bump=bump), pw.RadialProfile(), zeta0, 0.3, nl)
    trunc = pw.build_truncation(nl, amplitude_bound(nl, energy(state, None, 0.0).total))
    cfg = ODEConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, t_final=t_final)
    return state, pw.integrate(state, trunc, cfg)


def test_drift_follows_tolerance():
    # criterion 02's setup: a 10x tighter tolerance lowers the energy drift
    # by more than 5x (about 11.6x), so the step control follows rel_tol; at
    # rel_tol = 1e-10 the drift is 7.5e-11 (1.9e-9 without the defect estimate)
    def drift(rel_tol):
        state, hist = _reference_run(0.5, 20.0, rel_tol)
        H0 = energy(state, None, 0.0, quad_tol=1e-13).total
        return max(
            abs(energy(state, hist, t, quad_tol=1e-13).total - H0) for t in (1.0, 5.0, 10.0, 20.0)
        ) / abs(H0)

    assert drift(1e-10) <= 2e-10
    assert drift(1e-12) <= drift(1e-11) / 5.0


def test_defect_estimate_guards_a_wrong_derivative(linear_trunc):
    # zeta' = 4 pi (sin 3t - zeta): declaring the source constant gives every
    # node a wrong zeta''; the defect at the stage times shrinks the steps
    # until the interpolant is as accurate as with the true derivative
    a, w = FOUR_PI, 3.0

    def exact(t):
        return (1.0 + a * w / (a * a + w * w)) * np.exp(-a * t) + a * (
            a * np.sin(w * t) - w * np.cos(w * t)
        ) / (a * a + w * w)

    cfg = ODEConfig(rel_tol=1e-6, abs_tol=1e-8, t_final=2.0)
    s = np.linspace(0.0, 2.0, 20001)
    steps = {}
    for name, prime in (("true", lambda t: w * math.cos(w * t)), ("constant", lambda t: 0.0)):
        hist = integrate_source(linear_trunc, 1.0, lambda t: (math.sin(w * t), prime(t)), cfg)
        assert np.max(np.abs(zeta_at(hist, s)[0] - exact(s))) <= 1e-6
        steps[name] = len(hist.times) - 1
    assert steps["constant"] > 10 * steps["true"]


def test_attraction_to_round_off_over_scalings():
    # after t_s the time map settles onto q = 1 rather than stalling near it:
    # DP5 at a step cap on its stability boundary left d(50) near 3e-13
    for zeta0 in 0.5 * np.linspace(0.95, 1.05, 11):
        state, hist = _reference_run(float(zeta0), 50.0)
        assert distance_to_stationary(state, hist, 50.0, 1.0, 2.0)[0] <= 1e-15


def test_monotone_trapping_between_roots(cubic_trunc):
    # with no source, a trajectory started strictly between adjacent roots
    # can never cross either of them
    hist = integrate_source(cubic_trunc, 0.5, lambda t: (0.0, 0.0), ODEConfig(t_final=5.0))
    assert np.all(hist.values >= 0.5 - 1e-12)
    assert np.all(hist.values <= 1.0 + 1e-12)
    assert np.all(np.diff(hist.values) >= -1e-14)


def test_source_free_potential_descent(cubic_trunc):
    U = pw.cubic().U
    hist = integrate_source(cubic_trunc, 0.5, lambda t: (0.0, 0.0), ODEConfig(t_final=5.0))
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
    # the global cap binds DP5 while the source acts; DP5 lands a node exactly
    # on t_s, from which the time map of the expired flow, free of the cap, goes on
    hist, trunc = ref_run["history"], ref_run["trunc"]
    k = int(np.searchsorted(hist.times, hist.source_expiry))
    assert hist.times[k] == hist.source_expiry == 2.0
    steps = np.diff(hist.times)
    assert float(np.max(steps[:k])) <= step_cap(trunc) + 1e-12
    assert float(np.max(steps[k:])) > step_cap(trunc)


@pytest.mark.parametrize(
    "kind, zeta_s, exact",
    [
        # F = z: zeta = exp(-4 pi t)
        ("linear", 1.0, lambda s: np.exp(-FOUR_PI * s)),
        # F = z^3 - z: zeta^-2 - 1 decays like exp(-8 pi t) towards q = 1,
        # from below and from above
        ("cubic", 0.5, lambda s: 1.0 / np.sqrt(1.0 + 3.0 * np.exp(-8.0 * math.pi * s))),
        ("cubic", 1.5, lambda s: 1.0 / np.sqrt(1.0 - (5.0 / 9.0) * np.exp(-8.0 * math.pi * s))),
    ],
    ids=["linear", "cubic-below", "cubic-above"],
)
def test_time_map_closed_form(kind, zeta_s, exact):
    # the source is 0 from t = 0 on, so the time map makes every node; DP5
    # gives 2.3e-12 on the cubic cases
    trunc = pw.build_truncation(pw.make_nonlinearity(kind), 2.0)
    hist = integrate_source(trunc, zeta_s, lambda t: (0.0, 0.0), ODEConfig(), source_expiry=0.0)
    s = np.linspace(0.0, 50.0, 50001)
    assert np.max(np.abs(zeta_at(hist, s)[0] - exact(s))) <= 5e-12
    assert hist.times[-1] == 50.0


def test_max_step_bounds_the_time_map(cubic_trunc):
    def steps(max_step):
        cfg = ODEConfig(max_step=max_step, t_final=5.0)
        hist = integrate_source(cubic_trunc, 0.5, lambda t: (0.0, 0.0), cfg, source_expiry=0.0)
        assert hist.times[-1] == 5.0
        return np.diff(hist.times)

    assert steps(math.inf).max() > 0.25
    assert steps(0.25).max() <= 0.25 + 1e-15


def test_no_certified_rest_point_falls_back_to_dp5(linear_trunc, cubic_trunc):
    # c = 3 puts the rest point outside Lambda = 2, and zeta = 1.5 starts
    # outside Lambda = sqrt 2: no map, DP5 goes on and the a priori bound
    # check stops the run
    cfg = ODEConfig(t_final=5.0)
    with pytest.raises(TruncationEnteredError):
        integrate_source(
            linear_trunc, 0.0, lambda t: (3.0, 0.0), cfg, source_expiry=0.0, source_limit=3.0
        )
    with pytest.raises(TruncationEnteredError):
        integrate_source(cubic_trunc, 1.5, lambda t: (0.0, 0.0), cfg, source_expiry=0.0)


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
        integrate_source(linear_trunc, 1.0, lambda t: (0.0, 0.0), ODEConfig(t_final=3.0)),
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
        integrate_source(cubic_trunc, 0.5, lambda t: (0.1, 0.0), ODEConfig(t_final=5.0)),
        source_expiry=0.0,
        source_limit=0.1,
    )
    res = detect_limit(hist, pw.cubic())
    assert res.converged
    assert res.q_plus**3 - res.q_plus == pytest.approx(0.1, abs=1e-12)
    assert res.q_plus > 1.0


def test_detect_limit_finds_a_tangent_rest_point():
    # F = z (z - 1)^2 without source from zeta0 = 2: the flow falls onto the
    # tangent root 1 (zeta(20) = 1.0039), where c - F touches 0 without a sign
    # change; a doubling search from zeta(T) stepped over it to q = 0
    nl = pw.make_nonlinearity("poly", [0.0, 1.0, -2.0, 1.0])
    hist = integrate_source(
        pw.build_truncation(nl, 3.0), 2.0, lambda t: (0.0, 0.0), ODEConfig(t_final=20.0),
        source_expiry=0.0,
    )
    assert 1.0 < hist.values[-1] < 1.01
    res = detect_limit(hist, nl)
    assert res.converged
    assert res.q_plus == 1.0


def test_attempt_ceiling_stops_a_crawling_run(linear_trunc):
    # lambda = sin 3t declared constant: at rel_tol 1e-11 the defect estimate
    # drives dt to 1e-6, which would take millions of steps; the run stops at
    # ATTEMPTS_PER_CAP = 10,000 attempts per step cap of the horizon (here the
    # horizon is within one cap) and says where
    cfg = ODEConfig(t_final=0.25)
    with pytest.raises(IntegrationError, match=r"10000 attempted steps reached at t = .*, dt = "):
        integrate_source(linear_trunc, 1.0, lambda t: (math.sin(3.0 * t), 0.0), cfg)


def test_detect_limit_flags_oscillation():
    ts = np.linspace(0.0, 40.0, 4001)
    hist = ZetaHistory(
        times=ts,
        values=0.5 * np.sin(ts),
        derivs=0.5 * np.cos(ts),
        second=-0.5 * np.sin(ts),
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
