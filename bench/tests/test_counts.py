"""Work counts of a traced run repeat exactly, and tracing leaves results unchanged.

Also: an end-to-end run's attempted and failed counts come from its fixed
op list, so they repeat for a seed whatever the machine's speed.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

REPEATING_COUNTS = ("solvers.iters", "tensor.passes", "merit.calls", "solvers.ls_trials")


def _slice(name, out_dir):
    out_dir.mkdir()
    workload = workloads.WORKLOADS[name]
    rounds = 3 if name == "cli-fresh" else 1
    return workloads.traced_phase(workload, seed=5, out_dir=out_dir, rounds=rounds)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_tracing_keeps_results(name, tmp_path):
    first = _slice(name, tmp_path / "first")
    second = _slice(name, tmp_path / "second")
    counts = {k: first["metrics"][k] for k in REPEATING_COUNTS}
    assert counts == {k: second["metrics"][k] for k in REPEATING_COUNTS}
    assert all(v > 0 for v in counts.values()), counts
    assert first["mismatched"] == [] and second["mismatched"] == []
    assert first["missing"] == []
    assert [op.key() for op in first["ops"]] == [op.key() for op in second["ops"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_phase_counts_repeat_and_repeats_match(name, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[name], rounds=2)
    outcomes = []
    for seconds in (0.0, 0.5):
        runner = workloads.Runner(workload, 5, tmp_path)
        tally = workloads.Tally()
        latencies, spent, first_pass, changed = workloads.timed_phase(runner, tally, seconds)
        assert changed == []
        assert 0 < first_pass <= spent and len(latencies) >= tally.attempted
        outcomes.append((tally.attempted, tally.failed, tally.converged, tally.failures))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2 * len(runner.round_ops(0))
