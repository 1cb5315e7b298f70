"""Golden `partition`, `parametric`, `canonical` and `spectrum` JSON.

Exact fields (rationals, indices, dims, slopes, notes) must match the
recorded goldens exactly; float fields (beta, projector) within 1e-12.
Regenerate with `PYTHONPATH=src python tests/test_golden_json.py` only when
an output change is intended.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from eikonal_canon import (
    MetricGraph,
    build_parametric,
    build_partition,
    build_spectrum,
    canonicalize,
    family_frames,
    propagate,
    quotient_graph,
)
from eikonal_canon.serialize import (
    canonical_json,
    parametric_json,
    partition_json,
    spectrum_json,
)

F = Fraction
GOLDEN_PATH = Path(__file__).with_name("golden_json.json")
FLOAT_TOL = 1e-12


def _star(lengths):
    return MetricGraph(
        [(f"e{i + 1}", ("c", f"g{i + 1}"), x) for i, x in enumerate(lengths)],
        boundary=[f"g{i + 1}" for i in range(len(lengths))])


def _unit_triangle():
    """Unit 3-cycle v0 v1 v2 with a unit pendant edge to b_i at each v_i."""
    edges = [(f"e{i}", (f"v{i}", f"v{(i + 1) % 3}"), 1) for i in range(3)]
    edges += [(f"e{3 + i}", (f"v{i}", f"b{i}"), 1) for i in range(3)]
    return MetricGraph(edges, boundary=["b0", "b1", "b2"])


def _incommensurate_triangle():
    """Cycle lengths 6/5, 17/7, 9/8 with pendants 1/2, 5/2, 3: lattice closures
    grow with the lcm of the denominators."""
    cycle, pendants = (F(6, 5), F(17, 7), F(9, 8)), (F(1, 2), F(5, 2), F(3))
    edges = [(f"e{i}", (f"v{i}", f"v{(i + 1) % 3}"), x) for i, x in enumerate(cycle)]
    edges += [(f"e{3 + i}", (f"v{i}", f"b{i}"), x) for i, x in enumerate(pendants)]
    return MetricGraph(edges, boundary=["b0", "b1", "b2"])


INSTANCES = {
    "star3_g1g2_5/4": (lambda: _star([1, 1, 1]), ("g1", "g2"), F(5, 4)),
    "star123_g1g2g3_3": (lambda: _star([1, 2, 3]), ("g1", "g2", "g3"), F(3)),
    "triangle_b0b1b2_2": (_unit_triangle, ("b0", "b1", "b2"), F(2)),
    "triangle_b0b1b2_5/2": (_unit_triangle, ("b0", "b1", "b2"), F(5, 2)),
    "incommensurate_b0_2": (_incommensurate_triangle, ("b0",), F(2)),
}
"""Name -> (graph, Sigma, T).  Between them: junctions (star123, the
triangle at T=2, and a 79-junction chain on the incommensurate triangle),
blocks with kappa 3 and 8, and one to three sources."""


def artifacts(name: str) -> dict:
    make_graph, sigma, horizon = INSTANCES[name]
    g = make_graph()
    hydras = [propagate(g, gamma, horizon) for gamma in sigma]
    part = build_partition(hydras)
    repr_ = build_parametric(part, family_frames(part, hydras), shifted=True)
    form = canonicalize(repr_)
    sm = build_spectrum(form)
    # round-trip through JSON text, exactly as the CLI writes the artifacts
    return json.loads(json.dumps({"partition": partition_json(part),
                                  "parametric": parametric_json(repr_),
                                  "canonical": canonical_json(form),
                                  "spectrum": spectrum_json(sm, quotient_graph(sm))}))


def mismatch(got, want, path: str = "$") -> str | None:
    """Where got departs from want; floats compare within FLOAT_TOL."""
    if isinstance(want, float) and isinstance(got, float):
        return None if abs(got - want) <= FLOAT_TOL else f"{path}: {got} != {want}"
    if type(got) is not type(want):
        return f"{path}: type {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        items = [(got[k], want[k], f"{path}.{k}") for k in sorted(want)]
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        items = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(got, want))]
    else:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    for a, b, p in items:
        found = mismatch(a, b, p)
        if found:
            return found
    return None


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_matches_golden(name, goldens):
    assert mismatch(artifacts(name), goldens[name]) is None


def test_mismatch_detects_changes():
    want = {"a": [1.0, "1/2"], "k": 3}
    assert mismatch({"a": [1.0 + 1e-13, "1/2"], "k": 3}, want) is None
    assert mismatch({"a": [1.0 + 1e-9, "1/2"], "k": 3}, want) is not None
    assert mismatch({"a": [1.0, "1/3"], "k": 3}, want) is not None
    assert mismatch({"a": [1.0, "1/2"], "k": 4}, want) is not None
    assert mismatch({"a": [1.0], "k": 3}, want) is not None


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({name: artifacts(name) for name in sorted(INSTANCES)},
                                      sort_keys=True, indent=1) + "\n")
