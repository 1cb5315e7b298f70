"""The bench's contract with the library: the names its traced runs wrap
must exist, and its instance runner must still drive the pipeline."""

from __future__ import annotations

import importlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

STAR_TXT = """\
vertex c
vertex g1 boundary
vertex g2 boundary
vertex g3 boundary
edge e1 g1 c 1
edge e2 c g2 1
edge e3 c g3 1
"""


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{name}"
               for module, name, _layer, _count in tracing.WRAPS
               if not callable(getattr(module, name, None))]
    assert not missing


def test_run_instance_sizes_and_identity(monkeypatch):
    # the bench imports its modules by bare name from its own directory
    monkeypatch.syspath_prepend(str(BENCH))
    pipeline = importlib.import_module("pipeline")
    workloads = importlib.import_module("workloads")

    def run(command):
        inst = workloads.Instance(command, STAR_TXT, ("g1",), Fraction(3, 2), "star")
        outcome = pipeline.run_instance(inst, None)
        assert (outcome.status, outcome.error) == ("solved", None)
        return outcome.artifacts

    art = run("spectrum")
    sizes = pipeline.sizes(art)
    assert sizes["families"] == [[1, 1], [3, 2]]
    assert sizes["terms"] == 3 and sizes["junctions"] == 2 and sizes["kappa"] == [1]
    assert pipeline.verify_identity(art)
    assert json.loads(art.text)["sigma_ac"] == {"g1": [["1", "5/2"]]}

    art = run("partition")
    sizes = pipeline.sizes(art)
    assert art.parametric is None and "terms" not in sizes
    assert sizes["families"] == [[1, 1], [3, 2]]
    assert len(json.loads(art.text)["families"]) == 2
