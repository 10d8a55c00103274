"""The benchmark tracer (perfbench/tracer.py) wraps package names it looks up
with getattr; a refactor that drops one of them makes `--trace 1` fail."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(code: str) -> dict:
    """Run code after installing a tracer; it prints one JSON object, returned here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_on_the_package_names():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_energy_reaches_both_quadrature_wrappers():
    # quadrature.panels counts calls of the wrapped quadrature.integrate_panel
    # and quadrature.points the points of the wrapped
    # field_assembly.integrate_panels; one energy() must reach both
    code = (
        "import json, tracer, pointwave as pw\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "nl = pw.cubic()\n"
        "phi = pw.RadialProfile(bump=pw.PolynomialBump(nl.F(0.5), 1.0))\n"
        "pw.energy(pw.make_initial_state(phi, pw.RadialProfile(), 0.5, 0.3, nl), None, 0.0)\n"
        "d = t.dump()\n"
        "print(json.dumps({\n"
        "    'panels': sum(c for n, _, c, _ in d['hot'] if n == 'quadrature.integrate_panel'),\n"
        "    'points': sum(c for n, _, c in d['counts'] if n == 'quadrature.points'),\n"
        "}))\n"
    )
    counts = _run_traced(code)
    assert counts["panels"] > 0
    assert counts["points"] > 0


def test_audit_reaches_the_free_part_wrapper():
    # free_wave.dispersive_batch counts calls of the wrapped
    # field_assembly.dispersive_batch; an audit at t > 0 on a real history,
    # which reads only the free part's derivatives, must reach it
    code = (
        "import json, tracer, pointwave as pw\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "nl = pw.cubic()\n"
        "phi = pw.RadialProfile(bump=pw.PolynomialBump(nl.F(0.5), 1.0))\n"
        "state = pw.make_initial_state(phi, pw.RadialProfile(), 0.5, 0.3, nl)\n"
        "hist = pw.integrate(state, pw.build_truncation(nl, 2.0), pw.ODEConfig(t_final=3.0))\n"
        "pw.energy(state, hist, 3.0)\n"
        "d = t.dump()\n"
        "name = 'free_wave.dispersive_batch'\n"
        "print(json.dumps(sum(c for n, _, c, _ in d['hot'] if n == name)))\n"
    )
    assert _run_traced(code) > 0
