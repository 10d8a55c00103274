"""The benchmark's output checks, run as part of the test suite.

perfbench/run.py refuses a tree whose outputs leave perfbench/reference.json
(checks.check_outcomes and checks.check_artifacts).  These tests apply the
same checks to the suite workload at seed 0 and at one scaled seed, run by
`pointwave suite` with one worker, and to the oracle workload.  They read
the perfbench files and write only under tmp_path.
"""

import sys
from pathlib import Path

import pytest

from pointwave.scenario import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_outputs_match_reference(seed, tmp_path, monkeypatch):
    monkeypatch.setenv("PW_THREADS", "1")  # restored after run_suite sets it
    sources = sorted((PERFBENCH.parent / "scenarios").glob("*.cfg"))
    names = [load_config(c).name for c in inputs.generate(seed, "scenarios", sources, tmp_path / "in")]
    outcome = workload.run_suite(tmp_path / "in", tmp_path / "out", names)
    ref = checks.load_reference()
    assert checks.check_outcomes("suite", outcome, ref) == []
    assert checks.check_artifacts(tmp_path / "out", names, seed, ref) == []


def test_oracle_outputs_match_reference(tmp_path):
    configs = inputs.generate(0, "oracle", [PERFBENCH / "oracle.cfg"], tmp_path)
    outcome = workload.run_library([load_config(c) for c in configs], tmp_path)
    assert checks.check_outcomes("oracle", outcome, checks.load_reference()) == []
    (result,) = outcome.values()
    assert result["report"]["oracle_rel_l2"] <= checks.ORACLE_REL_L2_MAX
