"""Smoke test of the benchmark: one small instance per workload, both modes.

    python3 -m pytest bench/test_smoke.py
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.require_source()
import workloads  # noqa: E402  (needs the library on the import path)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
REAL_BUILD = workloads.build


def small_workload(name: str, seed: int) -> workloads.Workload:
    wl = REAL_BUILD(name, seed)
    instances = wl.warmup[:1]
    if name == "sweep":  # a generated instance too, checked by golden or verify identity
        edge = workloads.sweep_graph(random.Random(seed), "edge", None, 3)
        instances += (workloads.Instance("spectrum", edge, ("b0",), Fraction(1), "edge"),)
    return replace(wl, instances=instances)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "build", small_workload)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit_and_checks_run(small, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    detail = json.loads((run.RESULTS / f"{name}-seed7-trace{trace}.json").read_text())
    completed = [r for p in detail["passes"] for r in p["records"]
                 if r["status"] in ("solved", "wrong")]
    assert completed and sum(detail["checks"].values()) == len(completed)
