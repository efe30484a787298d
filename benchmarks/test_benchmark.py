"""Quick tests of the benchmark itself: ``python3 -m pytest benchmarks -q``.

They run every workload at tiny sizes, so they take seconds, and they stay
out of the package's own test suite (``testpaths`` is ``tests``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import references
import run
import tracing
import worker
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_declared_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    layer = tracing.Tracer().metrics(commands=1, search_commands=1, trials=1, overhead=1.0)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _run_once(tmp_path, name):
    cli = worker.import_cli()
    commands = workloads.build(name, 5, str(tmp_path), tiny=True)
    outputs = worker.Outputs()
    for cmd in commands:
        worker.run_command(cli.main, cmd, outputs)
    return commands, outputs, {cmd.slot: references.reference(cmd) for cmd in commands}


def test_corrupted_search_reference_is_a_failed_command(tmp_path):
    commands, outputs, refs = _run_once(tmp_path, "search-small")
    assert outputs.failed(commands, refs) == 0

    probs = refs[0]["search"]["probabilities"]
    probs[1] += 1e-9
    assert outputs.failed(commands, refs) == 1
    probs[1] -= 1e-9

    refs[3]["search"]["successes"] += 1
    assert outputs.failed(commands, refs) == 1


def test_corrupted_byte_reference_is_a_failed_command(tmp_path):
    commands, outputs, refs = _run_once(tmp_path, "index-scan")
    assert outputs.failed(commands, refs) == 0
    refs[0]["file"] = refs[0]["file"][::-1]
    refs[1]["stdout"] += " "
    assert outputs.failed(commands, refs) == 2


def test_without_sources_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "search-small", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
