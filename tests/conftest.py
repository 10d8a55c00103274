import pytest

import pointwave as pw
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
