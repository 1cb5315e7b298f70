"""Partition of the wave-filled part of a graph induced by hydra structure.

The lattice closure of a hydra point set is its equivalence class under the
same-position / same-time neighbor relation.  Projecting closures of corner
points yields the finite critical set; the rest of the filled region splits
into families of equal-length cells swept together, each family carrying
its slope +-1 passage-time functions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ClosureCapExceeded, EikonalError, PartitionDefect
from .impulse import Hydra, check_same_stage, self_intersections, union_positions_at, union_times_at
from .metric_graph import MetricGraph, Position, covered_intervals

CLOSURE_CAP = 10 ** 5

SpaceTimePoint = tuple[Position, Fraction]


@dataclass(frozen=True)
class DeterminationSet:
    base: Position
    lam: tuple[Position, ...]
    xi: tuple[Fraction, ...]


@dataclass(frozen=True)
class Cell:
    """Open interval of regular points on one edge, oriented by the family parameter."""

    edge: str
    lo: Fraction
    hi: Fraction
    forward: bool  # True when the family parameter r increases with the offset

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def offset_at(self, r: Fraction) -> Fraction:
        return self.lo + r if self.forward else self.hi - r

    def param_of(self, offset: Fraction) -> Fraction:
        return offset - self.lo if self.forward else self.hi - offset

    def contains_offset(self, offset: Fraction) -> bool:
        return self.lo < offset < self.hi


@dataclass(frozen=True)
class LinearTimeFn:
    """t(r) = intercept + slope * r on [0, length], slope in {+1, -1}."""

    intercept: Fraction
    slope: int
    length: Fraction

    def __post_init__(self):
        if self.slope not in (1, -1):
            raise EikonalError(f"slope must be +-1, got {self.slope}")

    def __call__(self, r) -> Fraction:
        r = Fraction(r)
        if not 0 <= r <= self.length:
            raise EikonalError(f"parameter {r} outside [0, {self.length}]")
        return self.intercept + self.slope * r

    def end_value(self, end: int) -> Fraction:
        return self(self.length) if end else self.intercept

    def range_interval(self) -> tuple[Fraction, Fraction]:
        a, b = self.intercept, self(self.length)
        return (a, b) if a <= b else (b, a)

    def shifted(self) -> "LinearTimeFn":
        """The +1 spectral shift."""
        return replace(self, intercept=self.intercept + 1)

    def transposed(self) -> "LinearTimeFn":
        """Reverse the parameter direction: t'(r) = t(length - r)."""
        return LinearTimeFn(self(self.length), -self.slope, self.length)

    def extended(self, new_length: Fraction) -> "LinearTimeFn":
        return replace(self, length=Fraction(new_length))


@dataclass(frozen=True)
class Family:
    """Cells swept together and their passage-time functions.

    taus[i] is the (unshifted) time of the i-th passage through the cells as
    a function of the family parameter r in [0, epsilon]; its range is the
    i-th time cell, and the time cells ascend.
    """

    index: int
    cells: tuple[Cell, ...]
    epsilon: Fraction
    taus: tuple[LinearTimeFn, ...]

    @property
    def n_times(self) -> int:
        return len(self.taus)

    @property
    def dim(self) -> int:
        return len(self.cells)

    def lambda_at(self, g: MetricGraph, r) -> list[Position]:
        r = Fraction(r)
        return [g.position(c.edge, c.offset_at(r)) for c in self.cells]

    def times_at(self, r) -> list[Fraction]:
        return [tau(r) for tau in self.taus]

    def locate(self, g: MetricGraph, pos: Position) -> tuple[int, Fraction] | None:
        """(cell index, parameter) for a regular position inside this family."""
        if pos.vertex is not None:
            return None
        for k, c in enumerate(self.cells):
            if c.edge == pos.edge and c.contains_offset(pos.offset):
                return k, c.param_of(pos.offset)
        return None


@dataclass(frozen=True)
class Partition:
    graph: MetricGraph
    sigma: tuple[str, ...]
    horizon: Fraction
    critical: tuple[Position, ...]
    families: tuple[Family, ...]

    def family_of(self, pos: Position) -> tuple[Family, int, Fraction] | None:
        for fam in self.families:
            hit = fam.locate(self.graph, pos)
            if hit is not None:
                return fam, hit[0], hit[1]
        return None


def lattice_closure(hydras: Sequence[Hydra], seeds: Iterable[SpaceTimePoint],
                    cap: int = CLOSURE_CAP) -> frozenset[SpaceTimePoint]:
    """Smallest hydra subset containing seeds, closed under shared position / time."""
    check_same_stage(hydras)
    seeds = {(p, Fraction(t)) for p, t in seeds}
    for p, t in seeds:
        if t not in union_times_at(hydras, p):
            raise ValueError(f"seed ({p}, {t}) does not lie on the hydra union")
    current: set[SpaceTimePoint] = set(seeds)
    frontier = set(seeds)
    pos_done: set[Position] = set()
    time_done: set[Fraction] = set()
    while frontier:
        new: set[SpaceTimePoint] = set()
        for p, t in frontier:
            if p not in pos_done:
                pos_done.add(p)
                for tt in union_times_at(hydras, p):
                    new.add((p, tt))
            if t not in time_done:
                time_done.add(t)
                for pp in union_positions_at(hydras, t):
                    new.add((pp, t))
        frontier = new - current
        current |= frontier
        if len(current) > cap:
            raise ClosureCapExceeded(f"lattice closure exceeded {cap} points")
    return frozenset(current)


def determination_set(hydras: Sequence[Hydra], x: Position) -> DeterminationSet:
    times = union_times_at(hydras, x)
    if not times:
        raise PartitionDefect(f"{x} is not reached by the hydras")
    closure = lattice_closure(hydras, [(x, t) for t in times])
    lam = sorted({p for p, _ in closure}, key=Position.sort_key)
    xi = sorted({t for _, t in closure})
    return DeterminationSet(x, tuple(lam), tuple(xi))


def corner_points(hydras: Sequence[Hydra]) -> set[SpaceTimePoint]:
    """Vertex-projecting hydra points, horizon-slice points and crossings."""
    check_same_stage(hydras)
    g, T = hydras[0].graph, hydras[0].horizon
    corners: set[SpaceTimePoint] = set()
    for h in hydras:
        for s in h.segments:
            for t, off in ((s.t0, s.off0), (s.t1, s.off1)):
                p = g.position(s.edge, off)
                if p.vertex is not None or t == T:
                    corners.add((p, t))
    corners |= self_intersections(hydras)
    return corners


def critical_points(hydras: Sequence[Hydra]) -> tuple[Position, ...]:
    closure = lattice_closure(hydras, corner_points(hydras))
    return tuple(sorted({p for p, _ in closure}, key=Position.sort_key))


def build_partition(hydras: Sequence[Hydra]) -> Partition:
    """Decompose the closed filled region into critical points and families."""
    check_same_stage(hydras)
    g, T = hydras[0].graph, hydras[0].horizon
    sigma = tuple(sorted(h.source for h in hydras))
    sources = [g.vertex_position(h.source) for h in hydras]

    critical = critical_points(hydras)
    crit_offsets: dict[str, set[Fraction]] = {e.id: set() for e in g.edges}
    for p in critical:
        if p.vertex is None:
            crit_offsets[p.edge].add(p.offset)
        else:
            for ei, end in g.incidence(p.vertex):
                e = g.edges[ei]
                crit_offsets[e.id].add(g.end_offset(e, end))

    # raw cells: maximal open intervals of covered-minus-critical, per edge
    covered = covered_intervals(g, sources, T)
    raw: list[tuple[str, Fraction, Fraction]] = []
    for e in g.edges:
        for lo, hi in covered.get(e.id, []):
            if lo == hi:
                if g.position(e.id, lo) not in critical:
                    raise PartitionDefect(
                        f"isolated covered point {e.id}@{lo} is not critical")
                continue
            cuts = sorted({lo, hi} | {o for o in crit_offsets[e.id] if lo <= o <= hi})
            if cuts[0] != lo or cuts[-1] != hi:
                raise PartitionDefect(f"covered interval ends on {e.id} not critical")
            for a, b in zip(cuts, cuts[1:]):
                raw.append((e.id, a, b))
    raw.sort(key=lambda c: (g.edge_pos(c[0]), c[1]))
    # per edge: the raw indices of its cells, and their starts (ascending)
    edge_cells: dict[str, list[int]] = {}
    for idx, (eid, _, _) in enumerate(raw):
        edge_cells.setdefault(eid, []).append(idx)
    edge_starts = {eid: [raw[k][1] for k in ks] for eid, ks in edge_cells.items()}

    def cell_of(pos: Position) -> int:
        if pos.vertex is not None:
            raise PartitionDefect(f"determination set hit critical point {pos}")
        # cells on one edge are disjoint, so only the last one starting at or
        # below the offset can contain it
        j = bisect_right(edge_starts.get(pos.edge, ()), pos.offset) - 1
        if j >= 0:
            idx = edge_cells[pos.edge][j]
            if raw[idx][1] < pos.offset < raw[idx][2]:
                return idx
        raise PartitionDefect(f"position {pos} not inside any cell")

    assigned: set[int] = set()  # raw cell indices already in a family
    families: list[Family] = []
    for start_idx, (eid, lo, hi) in enumerate(raw):
        if start_idx in assigned:
            continue
        eps = hi - lo
        x = g.position(eid, lo + eps / 2)
        mid = determination_set(hydras, x)

        # orientations: along the characteristic through a closure point (p, t),
        # dt/dr = direction * d(offset)/dr.  The seed cell runs forward; a walk
        # over the pairs signs every position (its cell) and time (its time cell).
        links: dict = {}  # closure position or time -> [(time or position, direction)]
        for p in mid.lam:
            for h in hydras:
                for s in h.segments_on(p.edge):
                    t = s.time_at_offset(p.offset)
                    if t is not None:
                        links.setdefault(p, []).append((t, s.direction))
                        links.setdefault(t, []).append((p, s.direction))
        sign, stack = {x: 1}, [x]
        while stack:
            u = stack.pop()
            for v, d in links[u]:
                if v not in sign:
                    stack.append(v)
                if sign.setdefault(v, d * sign[u]) != d * sign[u]:
                    raise PartitionDefect("cell and time-cell orientations disagree")

        mid_of: dict[int, Position] = {}  # member raw index -> its closure point
        for p in mid.lam:
            k = cell_of(p)
            if k in assigned:
                raise PartitionDefect("cell already assigned to another family")
            mid_of[k] = p
        if len(mid_of) != len(mid.lam):
            raise PartitionDefect("determination set has two points in one cell")
        cells = [Cell(*raw[k], sign[mid_of[k]] > 0) for k in sorted(mid_of)]
        if any(c.length != eps for c in cells):
            raise PartitionDefect("cells of unequal length within a family")

        # time cells: midpoint xi values are exactly the time-cell midpoints
        tcells = [(t - eps / 2, t + eps / 2) for t in mid.xi]
        if tcells and (tcells[0][0] < 0 or tcells[-1][1] > T):
            raise PartitionDefect("time cell outside [0, horizon]")
        for (_, end), (start, _) in zip(tcells, tcells[1:]):
            if end > start:
                raise PartitionDefect("overlapping time cells in one family")
        taus = [LinearTimeFn(t - eps / 2, 1, eps) if sign[t] > 0
                else LinearTimeFn(t + eps / 2, -1, eps) for t in mid.xi]

        families.append(Family(len(families), tuple(cells), eps, tuple(taus)))
        assigned.update(mid_of)

    if len(assigned) != len(raw):
        raise PartitionDefect("partition does not cover all cells")
    return Partition(g, sigma, T, critical, tuple(families))
