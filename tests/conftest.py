import pytest

import pointwave as pw
from pointwave.cutoff import chi_jet
from pointwave.initial_data import FOUR_PI, CallableBump, RadialProfile
from pointwave.runner import amplitude_bound


def reference_state():
    nl = pw.cubic()
    bump = pw.PolynomialBump(amplitude=nl.F(0.5), support_radius=1.0)
    return pw.make_initial_state(
        pw.RadialProfile(bump=bump), pw.RadialProfile(), 0.5, 0.3, nl
    )


@pytest.fixture(scope="session")
def ref_state():
    return reference_state()


@pytest.fixture(scope="session")
def silent_state():
    """Linear force, trace-free data: bump = z0 chi and pi_c = -z0 chi' (1 + G) with
    zeta_dot0 = -4 pi z0 cancel the trace identically, so zeta = z0 exp(-4 pi t).

    The jets' higher derivatives are left 0, so lambda' is wrong: the ODE pays
    for it in steps, not in accuracy."""
    z0 = 1.0

    def phi(r):
        c, cp, _ = chi_jet(r)
        return z0 * c, z0 * cp, 0.0

    def pi(r):
        value = -z0 * chi_jet(r)[1] * (1.0 + 1.0 / (FOUR_PI * r)) if r > 0.0 else 0.0
        return value, 0.0, 0.0

    return pw.make_initial_state(
        RadialProfile(bump=CallableBump(phi, 2.0)),
        RadialProfile(bump=CallableBump(pi, 2.0)),
        z0,
        -FOUR_PI * z0,
        pw.linear(),
    )


@pytest.fixture(scope="session")
def ref_run(ref_state):
    """Reference trajectory to T = 12 with the pipeline amplitude bound."""
    nl = ref_state.nl
    H0 = pw.energy(ref_state, None, 0.0).total
    trunc = pw.build_truncation(nl, amplitude_bound(nl, H0))
    cfg = pw.ODEConfig(t_final=12.0)
    history = pw.integrate(ref_state, trunc, cfg)
    return {"state": ref_state, "trunc": trunc, "history": history, "H0": H0}


@pytest.fixture(scope="session")
def stationary_run():
    nl = pw.cubic()
    state = pw.stationary_data(1.0, nl)
    H0 = pw.energy(state, None, 0.0).total
    trunc = pw.build_truncation(nl, amplitude_bound(nl, H0))
    history = pw.integrate(state, trunc, pw.ODEConfig(t_final=10.0))
    return {"state": state, "trunc": trunc, "history": history, "H0": H0}
