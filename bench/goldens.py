"""Golden outputs of benchmark instances, and the script that records them.

A golden keeps, per instance key, the SHA-256 of the output JSON with every
float replaced by null (exact fields: rationals, dims, cluster sizes,
sigma_ac, quotient graph) and the floats themselves.  An output matches when
the exact part hashes the same and each float agrees within FLOAT_TOL.

Record goldens from the repository root (this rewrites goldens.json):

    python3 bench/goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("goldens.json")
FLOAT_TOL = 1e-12
GOLDEN_SWEEP_SEEDS = range(0, 11)
RECORD_BUDGET_FACTOR = 2
"""Sweep instances solved within this multiple of the sweep's budget get a
golden, so that instances near the budget are covered too."""


def split_floats(obj, floats: list[float]):
    """Copy of obj with floats replaced by None, collecting them in order."""
    if isinstance(obj, float):
        floats.append(obj)
        return None
    if isinstance(obj, dict):
        return {k: split_floats(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [split_floats(v, floats) for v in obj]
    return obj


def digest(text: str) -> tuple[str, list[float]]:
    floats: list[float] = []
    exact = split_floats(json.loads(text), floats)
    blob = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32], floats


def load() -> dict[str, list]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())["goldens"]


def matches(golden: list, text: str) -> bool:
    exact, floats = digest(text)
    want_exact, want_floats = golden
    return exact == want_exact and len(floats) == len(want_floats) and all(
        abs(a - b) <= FLOAT_TOL for a, b in zip(floats, want_floats))


def record() -> dict[str, list]:
    import pipeline
    import run
    import workloads

    out: dict[str, list] = {}
    todo = []
    for name in run.WORKLOADS:
        if name != "sweep":
            wl = workloads.build(name, 0)
            todo += [(inst, None) for inst in wl.warmup + wl.instances]
    for seed in GOLDEN_SWEEP_SEEDS:
        wl = workloads.build("sweep", seed)
        budget = RECORD_BUDGET_FACTOR * wl.budget_s
        todo += [(inst, budget) for inst in wl.warmup + wl.instances]
    for inst, budget in todo:
        if inst.key() in out:
            continue
        outcome = pipeline.run_instance(inst, budget)
        if outcome.status == "solved":
            out[inst.key()] = list(digest(outcome.artifacts.text))
        elif budget is None:
            raise SystemExit(f"fixed instance {inst.label} failed: {outcome.error}")
    return out


def main() -> None:
    import run

    run.cap_blas_threads()
    run.require_source()
    goldens = record()
    GOLDEN_PATH.write_text(json.dumps(
        {"float_tol": FLOAT_TOL, "record_budget_factor": RECORD_BUDGET_FACTOR,
         "goldens": goldens},
        sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
