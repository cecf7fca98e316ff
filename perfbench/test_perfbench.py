"""Self-tests of the benchmark: metric names, the table check, the wrappers,
and the comparator's verdicts.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
Most tests drive real CLI processes on a two-sweep small workload, so the
file takes about twenty seconds.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = harness.Workload("tiny", ("fig01", "fig13-dynamics"), "small", 1, "self-test")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys):
    result = run.run_workload(TINY, 0, 0.0, trace, ROOT, harness.load_expected())
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _units(section)
    report = capsys.readouterr().out
    for name in printed:
        assert f"  {name} " in report


STEADY = [10, 10.1, 9.9, 10, 10] * 2
WIDE = [5, 15, 5, 15, 10] * 2  # IQR / median 1.0, wider than the bound


@pytest.mark.parametrize(
    "parent, change, lower_better, more_failures, outcome",
    [
        (STEADY, [8, 8.1, 7.9, 8, 8] * 2, True, False, "gain"),
        (STEADY, [8, 8.1, 7.9, 8, 8] * 2, False, False, "regression"),
        (STEADY, [12, 12.1, 11.9, 12, 12] * 2, False, False, "gain"),
        (STEADY, [10, 10.1, 9.9, 10, 10.05] * 2, True, False, "within bound"),
        (STEADY, [8, 8.1, 7.9, 8, 8] * 2, True, True, "incorrect"),
        (WIDE, [4, 14, 4, 14, 9] * 2, True, False, "unresolved"),
        # Every run of the change beats every run of the parent: resolved.
        (WIDE, [1, 2, 1, 2, 1] * 2, True, False, "within bound"),
    ],
)
def test_compare_verdicts(parent, change, lower_better, more_failures, outcome):
    assert compare.verdict(parent, change, 0.1, lower_better, more_failures)[1] == outcome


def test_tampered_digest_fails_the_run():
    expected = harness.load_expected()
    tampered = {"0": dict(expected["0"], **{"fig01@small": "0" * 16})}
    result = run.run_workload(TINY, 0, 0.0, False, ROOT, tampered)
    assert not result["correct"]
    assert result["failed"] == 1  # fig01 has one point; fig13-dynamics still matches


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path, capsys):
    import scipy.optimize

    import repro.cli
    from repro.engine.spec import ScenarioPoint

    original_execute = vars(ScenarioPoint)["execute"]
    installation = layers.install(tmp_path)
    try:
        assert installation.missing == []
        assert layers.leftover_wrappers(), "install() wrapped nothing"
        # Points run in forked workers, which must flush their own spans.
        argv = ["sweep", "run", "fig13-dynamics", "--workers", "2", "--no-cache", "--seed", "0"]
        assert repro.cli.main(argv) == 0
        installation.recorder.flush()
    finally:
        installation.uninstall()
    assert layers.leftover_wrappers() == []
    assert vars(ScenarioPoint)["execute"] is original_execute
    import repro.flow.mcf
    import repro.flow.path_lp

    assert repro.flow.path_lp.linprog is scipy.optimize.linprog
    assert repro.flow.mcf.linprog is scipy.optimize.linprog
    trace = layers.load_trace(tmp_path)
    assert trace.calls("engine.execute") == 4
    assert trace.metrics()["simulation.aimd_rounds"] > 0
    assert "fig13-dynamics" in capsys.readouterr().out
