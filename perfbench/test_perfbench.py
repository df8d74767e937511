"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
                   for line in lines), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
        assert any(line.startswith("error_rate = 0.0 ratio") for line in lines)


def _corrupt(doc):
    if "entries" in doc:
        doc["entries"][-1] = str(Fraction(doc["entries"][-1]) + 1)
    elif "measured_dim" in doc:
        doc["measured_dim"] += 1
    else:
        doc["det"] = "1"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_corrupted_entry_raises_error_rate(workload, tmp_path):
    for sub in ("inputs", "outputs"):
        os.makedirs(tmp_path / sub)
    kinds, pool = workloads.make_pool(workload, 5, True, str(tmp_path / "inputs"))
    server, samples = run.start_servers(ROOT, str(tmp_path / "jobs.log"), 1)
    try:
        jobs, loop_s = run.closed_loop(server, kinds, pool, 0.01, 0, str(tmp_path))
    finally:
        server.close()
    with open(jobs[0]["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    _corrupt(doc)
    with open(jobs[0]["out"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    run.check_outputs(jobs, kinds, pool, ROOT)
    metrics, _ = run.end_to_end(jobs, loop_s, samples)
    assert [j["ok"] for j in jobs] == [False] + [True] * (len(jobs) - 1)
    assert metrics["error_rate"] == 1 / len(jobs)


def test_tail_is_the_nearest_rank_p75_with_the_count_beyond_it():
    assert run.tail(list(range(40))) == (29, 10)
    assert run.tail(list(range(100))) == (74, 25)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)
    assert run.tail([5.0]) == (5.0, 0)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def inputs(seed, sub):
        os.makedirs(tmp_path / sub)
        workloads.make_pool("grid-io", seed, True, str(tmp_path / sub))
        return {name: (tmp_path / sub / name).read_bytes() for name in os.listdir(tmp_path / sub)}

    first, again, other = inputs(7, "a"), inputs(7, "b"), inputs(8, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other
    sizes = {name: len(json.loads(data)["values"][0]) for name, data in first.items()}
    assert sizes == {name: len(json.loads(data)["values"][0]) for name, data in other.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "sig-l2-int", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_reports_missing_targets_as_absent(tmp_path):
    script = """
import json, sys
import memsig.cli
import tracer
tracer.SPANS = {"fastsig.sig_tensor_fast": ["memsig.fastsig:sig_tensor_fast"],
                "gone": ["memsig.fastsig:no_such_function"]}
t = tracer.Tracer()
t.install()
from memsig.bench import random_integer_grid
import random
memsig.cli.sig_tensor_fast(random_integer_grid(2, 2, 2, random.Random(0)), 2)
t.write(sys.argv[1])
"""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["absent"] == ["memsig.fastsig:no_such_function"]
    assert [span[0] for span in doc["spans"]] == ["fastsig.sig_tensor_fast"]
