"""Self-test of the benchmark at a small scale (under a minute).

Drives both workload paths and the traced run on a 6-workload,
20k-instruction configuration and validates their output.  From the
repository root::

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--instructions", "20000", "--max-workloads", "6", "--seconds", "1"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result, digest


def check_metrics(result, declared):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(declared)
    for name, (unit, better, *_bound) in declared.items():
        metric = result["metrics"][name]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == unit and better in ("lower", "higher")
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


def test_benchmark_json_format():
    document = spec.DOCUMENT
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= document["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_every_workload_renders_one_report():
    digests = {}
    for workload in spec.WORKLOADS:
        code, lines = bench("--workload", workload, "--seed", "1",
                            "--trace", "0", *SMALL)
        assert code == 0, workload
        result, digests[workload] = result_of(lines)
        check_metrics(result, spec.END_TO_END)
    assert len(set(digests.values())) == 1, digests

    code, lines = bench("--workload", "report-cold-j2", "--seed", "1",
                        "--trace", "1", *SMALL)
    assert code == 0
    result, digest = result_of(lines)
    check_metrics(result, spec.PER_LAYER)
    assert digest == digests["report-cold-j2"]
    assert any(line.startswith("layer ") for line in lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sim.replay_calls"] == result["attempted"]
    assert metrics["cache.puts"] == result["attempted"]


def test_refuses_to_run_without_the_program():
    stripped = os.path.join(ROOT, ".perfbench-work", f"stripped-{os.getpid()}")
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        code, lines = bench("--workload", "report-cold-j2", "--seed", "0",
                            "--trace", "0", cwd=stripped)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert code != 0
    with pytest.raises((ValueError, IndexError)):
        json.loads(lines[-1])
