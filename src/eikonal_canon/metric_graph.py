"""Compact connected metric graphs with boundary, exact rational metric.

All lengths, offsets and times are `fractions.Fraction`, so every metric
computation (distances, balls, filling times) is exact.  A graph is
*admissible* when it is connected, every boundary vertex has valence 1 and
every interior vertex has valence >= 3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InvalidGraphError

ZERO = Fraction(0)


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]
    length: Fraction


@dataclass(frozen=True, slots=True)
class Position:
    """A point of the graph: a vertex, or an interior point of an edge.

    Vertex-coincident points are always normalized to the vertex form, so
    equality and hashing agree with geometric identity.
    """

    edge: str | None
    offset: Fraction
    vertex: str | None

    def sort_key(self):
        if self.vertex is not None:
            return (0, self.vertex, "", ZERO)
        return (1, "", self.edge, self.offset)

    def __hash__(self) -> int:
        # equal offsets have equal lowest terms, so hashing those ints agrees
        # with == and skips Fraction.__hash__
        return hash((self.edge, self.offset.numerator, self.offset.denominator, self.vertex))

    def __repr__(self) -> str:
        if self.vertex is not None:
            return f"Position({self.vertex!r})"
        return f"Position({self.edge!r}@{self.offset})"


class MetricGraph:
    """Immutable metric graph; build once, then treat as read-only."""

    def __init__(self, edges: Iterable[tuple], boundary: Iterable[str]):
        """edges: (id, (end0, end1), length) triples."""
        self.edges: tuple[Edge, ...] = tuple(
            Edge(str(eid), (str(ends[0]), str(ends[1])), Fraction(length))
            for eid, ends, length in edges)
        if len({e.id for e in self.edges}) != len(self.edges):
            raise InvalidGraphError("duplicate edge id")
        self.boundary: frozenset[str] = frozenset(str(v) for v in boundary)
        verts = set()
        for e in self.edges:
            verts.update(e.ends)
        verts.update(self.boundary)
        self.vertices: tuple[str, ...] = tuple(sorted(verts))
        self._edge_index: dict[str, int] = {e.id: i for i, e in enumerate(self.edges)}
        # incidence by edge *ends*, so loops contribute twice to valence
        inc: dict[str, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            inc[e.ends[0]].append((i, 0))
            inc[e.ends[1]].append((i, 1))
        self._incidence = {v: tuple(ends) for v, ends in inc.items()}
        self._dist_cache: dict[str, dict[str, Fraction]] = {}

    # -- basic accessors ------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise InvalidGraphError(f"unknown edge {edge_id!r}") from None

    def edge_pos(self, edge_id: str) -> int:
        return self._edge_index[edge_id]

    def incidence(self, v: str) -> tuple[tuple[int, int], ...]:
        return self._incidence[v]

    def valence(self, v: str) -> int:
        return len(self._incidence[v])

    @property
    def interior(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in self.boundary)

    # -- positions ------------------------------------------------------

    def vertex_position(self, v: str) -> Position:
        if v not in self._incidence:
            raise InvalidGraphError(f"unknown vertex {v!r}")
        return Position(None, ZERO, v)

    def position(self, edge_id: str, offset) -> Position:
        """Canonical position on an edge; offsets 0 / length collapse to vertices."""
        e = self.edge(edge_id)
        offset = Fraction(offset)
        if offset < 0 or offset > e.length:
            raise InvalidGraphError(
                f"offset {offset} outside edge {edge_id!r} of length {e.length}")
        if offset == 0:
            return self.vertex_position(e.ends[0])
        if offset == e.length:
            return self.vertex_position(e.ends[1])
        return Position(edge_id, offset, None)

    def end_offset(self, edge: Edge, end: int) -> Fraction:
        return ZERO if end == 0 else edge.length

    # -- metric ---------------------------------------------------------

    def vertex_distances(self, source: str) -> Mapping[str, Fraction]:
        """Single-source exact Dijkstra over the vertex skeleton."""
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist: dict[str, Fraction] = {source: ZERO}
        heap: list[tuple[Fraction, str]] = [(ZERO, source)]
        done: set[str] = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for ei, end in self._incidence[v]:
                e = self.edges[ei]
                w = e.ends[1 - end]
                nd = d + e.length
                if w not in dist or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        self._dist_cache[source] = dist
        return dist

    def _end_dists(self, p: Position) -> list[tuple[str, Fraction]]:
        """Vertices adjacent to p with the offset distance from p to each."""
        if p.vertex is not None:
            return [(p.vertex, ZERO)]
        e = self.edge(p.edge)
        return [(e.ends[0], p.offset), (e.ends[1], e.length - p.offset)]

    def distance(self, a: Position, b: Position) -> Fraction:
        """Inner metric: infimum of path lengths between two positions."""
        best: Fraction | None = None
        if a.edge is not None and b.edge is not None and a.edge == b.edge:
            best = abs(a.offset - b.offset)
        for va, da in self._end_dists(a):
            dv = self.vertex_distances(va)
            for vb, db in self._end_dists(b):
                if vb not in dv:
                    continue
                cand = da + dv[vb] + db
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise InvalidGraphError("positions lie in disconnected components")
        return best


def validate_graph(g: MetricGraph) -> list[str]:
    """Return a list of admissibility violations; empty iff the graph is valid."""
    report: list[str] = []
    for e in g.edges:
        if e.length <= 0:
            report.append(f"edge {e.id!r} has nonpositive length {e.length}")
    for v in g.vertices:
        mu = g.valence(v)
        if v in g.boundary:
            if mu != 1:
                report.append(f"boundary vertex {v!r} has valence {mu} != 1")
        else:
            if mu < 3:
                report.append(f"interior vertex {v!r} has valence {mu} < 3")
    if g.vertices:
        reached = set(g.vertex_distances(g.vertices[0]))
        missing = set(g.vertices) - reached
        if missing:
            report.append(f"graph is disconnected; unreachable: {sorted(missing)}")
    if not g.edges:
        report.append("graph has no edges")
    return report


def eccentricity(g: MetricGraph, gamma: str) -> Fraction:
    """Filling time from a boundary vertex: max over x of distance(x, gamma)."""
    if gamma not in g.boundary:
        raise InvalidGraphError(f"{gamma!r} is not a boundary vertex")
    dv = g.vertex_distances(gamma)
    best = ZERO
    for e in g.edges:
        du, dw = dv[e.ends[0]], dv[e.ends[1]]
        # max over the edge of min(du + o, dw + L - o)
        if abs(du - dw) <= e.length:
            peak = (du + dw + e.length) / 2
        else:
            peak = max(min(du, dw + e.length), min(du + e.length, dw))
        if peak > best:
            best = peak
    return best


def merge_intervals(intervals: Iterable[tuple[Fraction, Fraction]],
                    closed: bool = True) -> list[tuple[Fraction, Fraction]]:
    """Union of intervals as sorted disjoint (lo, hi) pairs.

    Closed intervals that touch are merged; open ones only when they
    overlap, because an end point they share belongs to neither.
    """
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(intervals):
        if merged and (lo <= merged[-1][1] if closed else lo < merged[-1][1]):
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _edge_sublevel(
    edge: Edge,
    sources: Sequence[Position],
    source_vertex_dist: Mapping[str, Fraction],
    r: Fraction,
    strict: bool,
) -> list[tuple[Fraction, Fraction]]:
    """Offsets o on `edge` with dist(o, sources) < r (or <= r), as merged intervals."""
    pieces: list[tuple[Fraction, Fraction]] = []  # candidate [lo, hi] per linear piece
    L = edge.length
    du = source_vertex_dist.get(edge.ends[0])
    dw = source_vertex_dist.get(edge.ends[1])

    def clip(lo: Fraction, hi: Fraction) -> None:
        lo, hi = max(lo, ZERO), min(hi, L)
        if lo < hi or (lo == hi and not strict):
            pieces.append((lo, hi))

    if du is not None:
        clip(ZERO, r - du)
    if dw is not None:
        clip(L - (r - dw), L)
    for s in sources:
        if s.edge == edge.id:
            clip(s.offset - r, s.offset + r)
    return merge_intervals(pieces, closed=not strict)


def _source_vertex_dist(g: MetricGraph, sources: Sequence[Position]) -> dict[str, Fraction]:
    dist: dict[str, Fraction] = {}
    for s in sources:
        for v, d0 in g._end_dists(s):
            dv = g.vertex_distances(v)
            for w, d in dv.items():
                cand = d0 + d
                if w not in dist or cand < dist[w]:
                    dist[w] = cand
    return dist


@dataclass(frozen=True)
class BallTrace:
    """Open metric neighborhood, per-edge intervals plus covered vertices.

    Each interval is (lo, hi, lo_closed, hi_closed); a closed flag means the
    corresponding edge end (a vertex) belongs to the ball.
    """

    intervals: Mapping[str, tuple[tuple[Fraction, Fraction, bool, bool], ...]]
    vertices: frozenset[str]


def metric_ball(g: MetricGraph, points: Sequence[Position], r) -> BallTrace:
    """Open neighborhood of radius r around a set of positions."""
    r = Fraction(r)
    if r <= 0:
        raise InvalidGraphError("metric ball radius must be positive")
    svd = _source_vertex_dist(g, points)
    inside = frozenset(v for v, d in svd.items() if d < r)
    out: dict[str, tuple] = {}
    for e in g.edges:
        ivs = _edge_sublevel(e, points, svd, r, strict=True)
        if not ivs:
            continue
        flagged = []
        for lo, hi in ivs:
            lo_closed = lo == 0 and e.ends[0] in inside
            hi_closed = hi == e.length and e.ends[1] in inside
            flagged.append((lo, hi, lo_closed, hi_closed))
        out[e.id] = tuple(flagged)
    return BallTrace(out, inside)


def covered_intervals(
    g: MetricGraph, points: Sequence[Position], r
) -> dict[str, list[tuple[Fraction, Fraction]]]:
    """Closed sublevel {x : dist(x, points) <= r}, per edge (closure of the ball)."""
    r = Fraction(r)
    svd = _source_vertex_dist(g, points)
    out: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for e in g.edges:
        ivs = _edge_sublevel(e, points, svd, r, strict=False)
        if ivs:
            out[e.id] = ivs
    return out
