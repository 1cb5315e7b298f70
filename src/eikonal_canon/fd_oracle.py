"""Finite-difference wave solver on the graph, used as an independent oracle.

Unit-CFL leapfrog on each edge propagates characteristics exactly; interior
vertices are updated by eliminating the ghost value through the Kirchhoff
flux condition (sum of one-sided outgoing difference quotients vanishes),
which reproduces the exact reflection/transmission coefficients for
grid-aligned traveling profiles.  Boundary vertices carry Dirichlet control
values.  Controls must be smooth and vanish near t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EikonalError
from .metric_graph import MetricGraph, Position


@dataclass(frozen=True)
class GridSpec:
    """Uniform step h dividing every edge length and the horizon; dt = h."""

    h: Fraction

    def validate(self, g: MetricGraph, horizon: Fraction) -> None:
        if self.h <= 0:
            raise EikonalError("grid step must be positive")
        for e in g.edges:
            if (e.length / self.h).denominator != 1:
                raise EikonalError(
                    f"step {self.h} does not divide edge {e.id!r} length {e.length}")
        if (horizon / self.h).denominator != 1:
            raise EikonalError(f"step {self.h} does not divide horizon {horizon}")

    @staticmethod
    def choose(g: MetricGraph, horizon, target: float = 2.0 ** -8) -> "GridSpec":
        """Largest h = g0 / 2^k below `target` that divides all lengths and T."""
        horizon = Fraction(horizon)
        g0 = horizon
        for e in g.edges:
            g0 = Fraction(gcd(g0.numerator * e.length.denominator,
                              e.length.numerator * g0.denominator),
                          g0.denominator * e.length.denominator)
        h = g0
        while h > target:
            h = h / 2
        return GridSpec(h)


@dataclass(frozen=True)
class ControlSignal:
    """Dirichlet control at one boundary vertex; phi(0) must be 0."""

    gamma: str
    phi: Callable[[float], float]


@dataclass(frozen=True)
class Snapshot:
    """Grid samples of u(., t): per-edge arrays including both end nodes."""

    h: Fraction
    time: Fraction
    values: Mapping[str, np.ndarray]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.values[k] for k in sorted(self.values)])


def fd_wave(g: MetricGraph, controls: Sequence[ControlSignal], horizon,
            grid: GridSpec) -> Snapshot:
    """Explicit unit-CFL integration of the wave system up to the horizon."""
    horizon = Fraction(horizon)
    grid.validate(g, horizon)
    h = grid.h
    steps = int(horizon / h)
    phi_of = {c.gamma: c.phi for c in controls}
    for c in controls:
        if c.gamma not in g.boundary:
            raise EikonalError(f"control vertex {c.gamma!r} is not boundary")
        if abs(c.phi(0.0)) > 1e-14:
            raise EikonalError(f"control at {c.gamma!r} does not vanish at t=0")

    sizes = {e.id: int(e.length / h) for e in g.edges}
    prev = {e.id: np.zeros(sizes[e.id] + 1) for e in g.edges}
    curr = {e.id: np.zeros(sizes[e.id] + 1) for e in g.edges}

    for n in range(1, steps + 1):
        t = float(n * h)
        nxt = {}
        for e in g.edges:
            u0, u1 = prev[e.id], curr[e.id]
            new = np.empty_like(u1)
            new[1:-1] = u1[2:] + u1[:-2] - u0[1:-1]
            nxt[e.id] = new
        # boundary vertices: Dirichlet control (zero when uncontrolled)
        for v in g.boundary:
            phi = phi_of.get(v)
            val = phi(t) if phi else 0.0
            for ei, end in g.incidence(v):
                nxt[g.edges[ei].id][0 if end == 0 else -1] = val
        # interior vertices: leapfrog with the Kirchhoff ghost elimination
        for v in g.interior:
            mu = g.valence(v)
            ssum = 0.0
            for ei, end in g.incidence(v):
                arr = curr[g.edges[ei].id]
                ssum += arr[1] if end == 0 else arr[-2]
            old = None
            for ei, end in g.incidence(v):
                arr = prev[g.edges[ei].id]
                old = arr[0] if end == 0 else arr[-1]
                break
            val = (2.0 / mu) * ssum - old
            for ei, end in g.incidence(v):
                nxt[g.edges[ei].id][0 if end == 0 else -1] = val
        prev, curr = curr, nxt
    return Snapshot(h, horizon, {k: v.copy() for k, v in curr.items()})


def compare_snapshots(a: Snapshot, b: Snapshot) -> float:
    """Relative L2 distance, floored to avoid division blowup."""
    if a.h != b.h or set(a.values) != set(b.values):
        raise EikonalError("snapshots live on different grids")
    fa, fb = a.flat(), b.flat()
    if fa.shape != fb.shape:
        raise EikonalError("snapshots live on different grids")
    denom = max(float(np.linalg.norm(fa)), float(np.linalg.norm(fb)), 1e-30)
    return float(np.linalg.norm(fa - fb)) / denom


def grid_positions(g: MetricGraph, grid: GridSpec) -> dict[str, list[Position]]:
    """Canonical positions of all grid nodes, per edge."""
    out: dict[str, list[Position]] = {}
    for e in g.edges:
        n = int(e.length / grid.h)
        out[e.id] = [g.position(e.id, grid.h * i) for i in range(n + 1)]
    return out


def convolution_snapshot(hydras, controls: Sequence[ControlSignal], horizon,
                         grid: GridSpec) -> Snapshot:
    """wave_eval sampled on the same grid, for direct snapshot comparison."""
    from .impulse import wave_eval

    g = hydras[0].graph
    horizon = Fraction(horizon)
    grid.validate(g, horizon)
    phi_of = {c.gamma: c.phi for c in controls}
    values = {}
    for eid, points in grid_positions(g, grid).items():
        values[eid] = np.array(
            [wave_eval(hydras, phi_of, p, horizon) for p in points])
    return Snapshot(grid.h, horizon, values)
