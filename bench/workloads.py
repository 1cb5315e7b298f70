"""Benchmark workloads: fixed instance lists and the seeded random sweep.

Every instance is a graph file's text plus Sigma, T and the CLI command it
runs, so any instance can be replayed with `eikonal-canon <command>`.  The
sweep generator lives here on purpose: the workload must not change when a
test fixture does.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from eikonal_canon import MetricGraph
from eikonal_canon.cli import emit_graph_file
from eikonal_canon.serialize import rat

SWEEP_BUDGET_S = 0.03
"""Per-instance budget on `sweep`, in reference seconds of CPU time (see
run.REFERENCE_S), so that it does not shrink when the host slows.  Most
solved instances finish in a few milliseconds and the hard ones do not
finish in seconds, so 30 ms separates the two while a pass of 792 instances
still fits one run."""

SWEEP_SHAPES = ("edge", "star", "tree", "triangle")
SWEEP_HORIZONS = tuple(Fraction(k, 2) for k in range(2, 13))
SWEEP_REPEATS = 9
"""Instances per stratum.  Strata are shape x denominator mode x horizon,
88 in all.  Within a stratum the repeat index fixes the size of Sigma, the
star's leg count and the common denominator, which drive the cost most; the
seed draws the lengths, the tree and which vertices form Sigma.  Many
instances with their cost drivers balanced keep the sweep's metrics steady
across seeds."""


@dataclass(frozen=True)
class Instance:
    """One operation: a CLI command run on a graph, Sigma and horizon."""

    command: str  # "spectrum", "partition" or "simulate"
    graph: str  # graph-file text
    sigma: tuple[str, ...]
    horizon: Fraction
    label: str

    def key(self) -> str:
        """Stable identity of the instance, used to look up its golden."""
        text = "\n".join([self.command, self.graph, ",".join(self.sigma),
                          str(self.horizon)])
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    def replay(self) -> dict:
        """Everything `eikonal-canon` needs to rerun this instance."""
        return {"label": self.label, "command": self.command,
                "graph": self.graph, "sigma": ",".join(self.sigma),
                "horizon": rat(self.horizon), "key": self.key()}


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    warmup: tuple[Instance, ...]
    budget_s: float | None  # per-instance budget; None means run to completion


def graph_text(edges: list[tuple[str, str, str, Fraction]], boundary: set[str]) -> str:
    return emit_graph_file(MetricGraph([(e, (u, v), x) for e, u, v, x in edges], boundary))


def _triangle(cycle, pendants) -> str:
    edges = [(f"e{i}", f"v{i}", f"v{(i + 1) % 3}", Fraction(x))
             for i, x in enumerate(cycle)]
    edges += [(f"e{3 + i}", f"v{i}", f"b{i}", Fraction(x))
              for i, x in enumerate(pendants)]
    return graph_text(edges, {"b0", "b1", "b2"})


def _star(legs) -> str:
    edges = [(f"e{i + 1}", "c", f"g{i + 1}", Fraction(x)) for i, x in enumerate(legs)]
    return graph_text(edges, {f"g{i + 1}" for i in range(len(legs))})


F = Fraction
STAR3 = _star([1, 1, 1])
STAR123 = _star([1, 2, 3])
STAR4 = _star([F(8, 7), F(18, 7), F(18, 7), F(4, 7)])
UNIT_TRIANGLE = _triangle([1, 1, 1], [1, 1, 1])
# mixed-denominator cycle: lattice closures grow with the lcm of 5, 7 and 8
INCOMMENSURATE_TRIANGLE = _triangle([F(6, 5), F(17, 7), F(9, 8)],
                                    [F(1, 2), F(5, 2), F(3)])

WARMUP_SPECTRUM = Instance("spectrum", STAR3, ("g1",), F(3, 2), "warmup star3 T=3/2")
WARMUP_PARTITION = Instance("partition", STAR3, ("g1", "g2"), F(5, 4),
                            "warmup star3 partition T=5/4")
WARMUP_SIMULATE = Instance("simulate", STAR3, ("g1",), F(1), "warmup star3 simulate T=1")


def _lattice() -> list[Instance]:
    # Sigma={b0} partitions jump from 308 critical points at T=23/8 to over
    # 4300 (15-17 s) at T=29/10 and beyond; the partition rung uses all
    # sources at T=23/8 instead (861 critical points, about 1 s), so that
    # a run holds several passes.
    out = [Instance("spectrum", INCOMMENSURATE_TRIANGLE, ("b0",), t,
                    f"incommensurate triangle T={rat(t)}")
           for t in (F(2), F(5, 2))]
    out.append(Instance("partition", INCOMMENSURATE_TRIANGLE, ("b0", "b1", "b2"),
                        F(23, 8), "incommensurate triangle all sources partition T=23/8"))
    return out


def _algebra() -> list[Instance]:
    out = [Instance("spectrum", UNIT_TRIANGLE, ("b0", "b1", "b2"), F(t),
                    f"unit triangle all sources T={t}") for t in (3, 4, 5)]
    # T=5/2 rather than 3: kappa up to 11 in 6 blocks at about 2.5 s, not 4.3 s
    out.append(Instance("spectrum", STAR4, ("g1", "g2", "g3", "g4"), F(5, 2),
                        "4-star 8/7,18/7,18/7,4/7 all sources T=5/2"))
    return out


def _simulate() -> list[Instance]:
    return [
        Instance("simulate", STAR123, ("g1", "g2"), F(4), "star(1,2,3) g1,g2 T=4"),
        Instance("simulate", UNIT_TRIANGLE, ("b0", "b1", "b2"), F(4),
                 "unit triangle all sources T=4"),
        Instance("simulate", INCOMMENSURATE_TRIANGLE, ("b0",), F(5, 2),
                 "incommensurate triangle T=5/2"),
    ]


def _random_length(rng: random.Random, den: int) -> Fraction:
    """Length in [1/2, 3] with denominator den."""
    return F(rng.randint((den + 1) // 2, 3 * den), den)


def sweep_graph(rng: random.Random, shape: str, den: int | None, legs: int) -> str:
    """Random admissible graph: boundary valence 1, interior valence >= 3.

    With den given every length has that denominator; with None (mixed
    denominators) each length draws its own denominator <= 12.
    """
    edges: list[tuple[str, str, str, Fraction]] = []

    def add(u: str, v: str) -> None:
        d = den if den is not None else rng.randint(1, 12)
        edges.append((f"e{len(edges)}", u, v, _random_length(rng, d)))

    if shape == "edge":
        add("b0", "b1")
        boundary = {"b0", "b1"}
    elif shape == "star":
        for i in range(legs):
            add("c", f"b{i}")
        boundary = {f"b{i}" for i in range(legs)}
    elif shape == "triangle":
        for i in range(3):
            add(f"v{i}", f"v{(i + 1) % 3}")
        for i in range(3):
            add(f"v{i}", f"b{i}")
        boundary = {"b0", "b1", "b2"}
    else:
        # tree of at most 6 edges, grown leaf-first: a leaf turned interior
        # needs two new leaves to reach valence 3
        for i in range(3):
            add("c", f"b{i}")
        boundary = {"b0", "b1", "b2"}
        while len(edges) + 2 <= 6 and rng.random() < 0.6:
            leaf = rng.choice(sorted(boundary))
            boundary.discard(leaf)
            for _ in range(2):
                name = f"b{len(edges)}"
                add(leaf, name)
                boundary.add(name)
    return graph_text(edges, boundary)


def _sweep(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for rep in range(SWEEP_REPEATS):
        for common in (True, False):
            for shape in SWEEP_SHAPES:
                for k, t in enumerate(SWEEP_HORIZONS):
                    den = 1 + (rep * len(SWEEP_HORIZONS) + k) % 12 if common else None
                    text = sweep_graph(rng, shape, den, legs=3 + rep % 3)
                    boundary = sorted(line.split()[1] for line in text.splitlines()
                                      if line.endswith(" boundary"))
                    size = 1 + rep % len(boundary)
                    sigma = tuple(sorted(rng.sample(boundary, size)))
                    mode = f"den={den}" if common else "mixed"
                    out.append(Instance("spectrum", text, sigma, t,
                                        f"sweep {shape} {mode} T={rat(t)} #{rep}"))
    rng.shuffle(out)
    return out


def build(name: str, seed: int) -> Workload:
    """The workload's instances for this seed; fixed workloads ignore the seed."""
    if name == "sweep":
        return Workload(name, tuple(_sweep(seed)), (WARMUP_SPECTRUM,), SWEEP_BUDGET_S)
    fixed = {"lattice": (_lattice, (WARMUP_SPECTRUM, WARMUP_PARTITION)),
             "algebra": (_algebra, (WARMUP_SPECTRUM,)),
             "simulate": (_simulate, (WARMUP_SIMULATE,))}
    if name not in fixed:
        raise ValueError(f"unknown workload {name!r}")
    make, warmup = fixed[name]
    return Workload(name, tuple(make()), warmup, None)

