import math

import numpy as np
import pytest

import pointwave as pw
from pointwave.quadrature import MAX_DEPTH, QuadratureError
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


def scalar_simpson(f, breakpoints, tol):
    """integrate_panels one panel, one interval and one integrand call at a time.

    The per-interval adaptive Simpson the array engine replaced, kept as its
    equivalence oracle: same slivers, accept rule, stall rule and fsums.
    """
    pts, panels = list(breakpoints), []
    ptol = tol / (len(pts) - 1)
    for a, b in zip(pts[:-1], pts[1:]):
        a_in = a + max(1e-13, 4.0 * math.ulp(abs(a)))
        b_in = b - max(1e-13, 4.0 * math.ulp(abs(b)))
        ends = np.array([a_in, b_in]) if a_in < b_in else np.array([a, b])
        fa, fb = np.asarray(f(ends), dtype=float).reshape(2, -1)
        fm = np.asarray(f(np.array([0.5 * (a + b)])), dtype=float).reshape(-1)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        stack, pieces, floor = [(a, b, fa, fm, fb, whole, ptol, 0)], [], 1e-5 * ptol
        while stack:
            ia, ib, ifa, ifm, ifb, whole, itol, depth = stack.pop()
            im = 0.5 * (ia + ib)
            quarter = np.array([0.5 * (ia + im), 0.5 * (im + ib)])
            flm, frm = np.asarray(f(quarter), dtype=float).reshape(2, -1)
            left = (im - ia) / 6.0 * (ifa + 4.0 * flm + ifm)
            right = (ib - im) / 6.0 * (ifm + 4.0 * frm + ifb)
            err = left + right - whole
            err_max = float(np.max(np.abs(err)))
            if err_max <= max(15.0 * itol, floor) or depth >= MAX_DEPTH:
                if depth >= MAX_DEPTH and err_max > 1e3 * floor:
                    raise QuadratureError(f"stalled on [{ia}, {ib}]")
                pieces.append(left + right + err / 15.0)
            else:
                stack.append((ia, im, ifa, flm, ifm, left, 0.5 * itol, depth + 1))
                stack.append((im, ib, ifm, frm, ifb, right, 0.5 * itol, depth + 1))
        panels.append([math.fsum(col) for col in zip(*pieces)])
    return [math.fsum(col) for col in zip(*panels)]


@pytest.fixture(scope="session")
def scalar_quadrature():
    return scalar_simpson
