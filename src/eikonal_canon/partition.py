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
from .impulse import Hydra, _Ticks, check_same_stage
from .metric_graph import MetricGraph, Position, covered_intervals

CLOSURE_CAP = 10 ** 5

SpaceTimePoint = tuple[Position, Fraction]


@dataclass(frozen=True)
class DeterminationSet:
    base: Position
    lam: tuple[Position, ...]
    xi: tuple[Fraction, ...]


@dataclass(frozen=True, slots=True)
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


class _Closure(frozenset):
    """A lattice closure's (Position, Fraction) points, made from its tick form:
    the key of each position in it, on `ticks`."""

    ticks: _Ticks
    positions: set[int]

    @classmethod
    def of(cls, ticks: _Ticks, positions: set[int]) -> "_Closure":
        closure = cls((ticks.position(k), ticks.fraction(t))
                      for k in positions for t in ticks.times_at(k))
        closure.ticks, closure.positions = ticks, positions
        return closure


def _close(ticks: _Ticks, seeds: Sequence[tuple[int, int]], cap: int) -> set[int]:
    """Positions of the components of the position-time incidence that hold the seeds.

    Only the positions and times reached are kept, so memory grows with
    them and not with the points (a position can pass dozens of times).
    """
    positions: set[int] = set()
    times: set[int] = set()
    todo: list[int] = []
    n_points = 0

    def visit(k: int) -> dict[int, int]:
        nonlocal n_points
        found = ticks.times_at(k)
        if k not in positions:
            positions.add(k)
            n_points += len(found)
            todo.extend(t for t in found if t not in times)
            times.update(found)
        return found

    for k, t in seeds:
        if t not in visit(k):
            raise ValueError(f"seed ({ticks.position(k)}, {ticks.fraction(t)}) "
                             "does not lie on the hydra union")
    while n_points <= cap and todo:
        for k in ticks.positions_at(todo.pop()):
            if k not in positions:
                visit(k)
    if n_points > cap:
        raise ClosureCapExceeded(
            f"lattice closure exceeded its cap of {cap} points: reached {n_points} "
            f"points on {len(positions)} positions and {len(times)} times")
    return positions


def lattice_closure(hydras: Sequence[Hydra], seeds: Iterable[SpaceTimePoint],
                    cap: int = CLOSURE_CAP) -> frozenset[SpaceTimePoint]:
    """Smallest hydra subset containing seeds, closed under shared position / time."""
    check_same_stage(hydras)
    seeds = [(p, Fraction(t)) for p, t in seeds]
    ticks = _Ticks(hydras, [v for p, t in seeds for v in (p.offset, t)])
    positions = _close(ticks, [(ticks.key(p), ticks.tick(t)) for p, t in seeds], cap)
    return _Closure.of(ticks, positions)


def _family_closure(hydras: Sequence[Hydra], ticks: _Ticks, key: int) -> _Closure:
    """The lattice closure of every passage through one position."""
    x = ticks.position(key)
    times = ticks.times_at(key)
    if not times:
        raise PartitionDefect(f"{x} is not reached by the hydras")
    try:
        return lattice_closure(hydras, [(x, ticks.fraction(t)) for t in times])
    except ClosureCapExceeded as exc:
        where = x.vertex if x.vertex is not None else f"{x.edge}@{x.offset}"
        raise ClosureCapExceeded(f"family closure seeded at {where}: {exc}") from None


def determination_set(hydras: Sequence[Hydra], x: Position) -> DeterminationSet:
    check_same_stage(hydras)
    ticks = _Ticks(hydras, (x.offset,))
    closure = _family_closure(hydras, ticks, ticks.key(x))
    ticks = closure.ticks
    lam = sorted(closure.positions, key=ticks.sort_key)
    return DeterminationSet(x, tuple(map(ticks.position, lam)), tuple(sorted({t for _, t in closure})))


def corner_points(hydras: Sequence[Hydra]) -> set[SpaceTimePoint]:
    """Vertex-projecting hydra points, horizon-slice points and crossings."""
    check_same_stage(hydras)
    ticks = _Ticks(hydras)
    corners = ticks.crossings()
    for ei, row in enumerate(ticks.rows):
        for t0, t1, off0, d, _ in row:
            for t, off in ((t0, off0), (t1, off0 + d * (t1 - t0))):
                k = ticks.key_on(ei, off)
                if k < 0 or t == ticks.horizon:
                    corners.add((k, t))
    return {(ticks.position(k), ticks.fraction(t)) for k, t in corners}


def critical_points(hydras: Sequence[Hydra]) -> tuple[Position, ...]:
    try:
        closure = lattice_closure(hydras, corner_points(hydras))
    except ClosureCapExceeded as exc:
        raise ClosureCapExceeded(f"critical-point closure: {exc}") from None
    ticks = closure.ticks
    return tuple(map(ticks.position, sorted(closure.positions, key=ticks.sort_key)))


def build_partition(hydras: Sequence[Hydra]) -> Partition:
    """Decompose the closed filled region into critical points and families.

    Runs on the hydras' integer ticks; cells, epsilons and taus are made
    Fractions at the end.
    """
    check_same_stage(hydras)
    g, T = hydras[0].graph, hydras[0].horizon
    sigma = tuple(sorted(h.source for h in hydras))
    sources = [g.vertex_position(h.source) for h in hydras]

    critical = critical_points(hydras)
    ticks = _Ticks(hydras)
    crit_keys = set(map(ticks.key, critical))
    crit_offsets: list[set[int]] = [set() for _ in g.edges]
    for k in crit_keys:
        for ei, off in ticks.slots(k):
            crit_offsets[ei].add(off)

    # raw cells: maximal open intervals of covered-minus-critical, per edge,
    # as (edge index, lo, hi) in ticks, ascending
    covered = covered_intervals(g, sources, T)
    raw: list[tuple[int, int, int]] = []
    for ei, e in enumerate(g.edges):
        for lo, hi in covered.get(e.id, []):
            a, b = ticks.tick(lo), ticks.tick(hi)
            if a == b:
                if ticks.key_on(ei, a) not in crit_keys:
                    raise PartitionDefect(
                        f"isolated covered point {e.id}@{lo} is not critical")
                continue
            cuts = sorted({a, b} | {o for o in crit_offsets[ei] if a <= o <= b})
            raw += [(ei, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    raw.sort()
    starts = [(ei, lo) for ei, lo, _ in raw]

    def cell_of(key: int) -> int:
        if key < 0:
            raise PartitionDefect(f"determination set hit critical point {ticks.position(key)}")
        ((ei, off),) = ticks.slots(key)
        # cells on one edge are disjoint, so only the last one starting at or
        # below the offset can contain it
        j = bisect_right(starts, (ei, off)) - 1
        if j >= 0 and raw[j][0] == ei and raw[j][1] < off < raw[j][2]:
            return j
        raise PartitionDefect(f"position {ticks.position(key)} not inside any cell")

    assigned: set[int] = set()  # raw cell indices already in a family
    families: list[Family] = []
    for start_idx, (ei, lo, hi) in enumerate(raw):
        if start_idx in assigned:
            continue
        eps = hi - lo  # even: cells end on half ticks of the segment grid
        x = ticks.key_on(ei, lo + eps // 2)
        # the midpoint seeds are whole ticks, so the closure's keys are on this
        # scale; it keeps only its positions (its memory grows with them, not
        # with the points), so their directions are read off here
        hits = {k: ticks.times_at(k) for k in _family_closure(hydras, ticks, x).positions}

        # orientations: along the characteristic through a closure point (p, t),
        # dt/dr = direction * d(offset)/dr.  The seed cell runs forward; a walk
        # over the hits signs every position (its cell) and time (its time cell).
        at_time: dict[int, list[tuple[int, int]]] = {}
        for k, h in hits.items():
            if k >= 0:
                for t, d in h.items():
                    at_time.setdefault(t, []).append((k, d))
        psign, tsign = {x: 1}, {}
        walk = [x]
        for k in walk:
            for t, d in hits[k].items():
                if t not in tsign:
                    tsign[t] = d * psign[k]
                    for k2, d2 in at_time[t]:
                        if k2 not in psign:
                            psign[k2] = d2 * tsign[t]
                            walk.append(k2)
                if not d or d * psign[k] != tsign[t]:
                    raise PartitionDefect("cell and time-cell orientations disagree")

        mid_of: dict[int, int] = {}  # member raw index -> its closure position
        for k in hits:
            j = cell_of(k)
            if j in assigned:
                raise PartitionDefect("cell already assigned to another family")
            mid_of[j] = k
        if len(mid_of) != len(hits):
            raise PartitionDefect("determination set has two points in one cell")
        if any(raw[j][2] - raw[j][1] != eps for j in mid_of):
            raise PartitionDefect("cells of unequal length within a family")
        cells = [Cell(g.edges[raw[j][0]].id, ticks.fraction(raw[j][1]),
                      ticks.fraction(raw[j][2]), psign[mid_of[j]] > 0)
                 for j in sorted(mid_of)]

        # time cells: midpoint xi values are exactly the time-cell midpoints
        half = eps // 2
        xi = sorted(tsign)
        if xi and (xi[0] - half < 0 or xi[-1] + half > ticks.horizon):
            raise PartitionDefect("time cell outside [0, horizon]")
        for a, b in zip(xi, xi[1:]):
            if a + half > b - half:
                raise PartitionDefect("overlapping time cells in one family")
        epsilon = ticks.fraction(eps)
        taus = [LinearTimeFn(ticks.fraction(t - half), 1, epsilon) if tsign[t] > 0
                else LinearTimeFn(ticks.fraction(t + half), -1, epsilon) for t in xi]

        families.append(Family(len(families), tuple(cells), epsilon, tuple(taus)))
        assigned.update(mid_of)

    if len(assigned) != len(raw):
        raise PartitionDefect("partition does not cover all cells")
    return Partition(g, sigma, T, critical, tuple(families))
