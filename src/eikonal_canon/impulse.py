"""Event-driven impulse propagation on a metric graph.

The fundamental solution launched from a boundary vertex is a finite set of
unit-speed impulses.  Passing an interior vertex of valence mu, an impulse of
amplitude a splits into a reflected one of amplitude (2 - mu)/mu * a and
mu - 1 transmitted ones of amplitude 2/mu * a; at a boundary vertex it turns
around with amplitude -a.  Simultaneous arrivals at one vertex are scattered
jointly (linearity), and outgoing impulses of zero amplitude are dropped.
The space-time support of the result, truncated at the horizon, is the hydra.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .errors import EventCapExceeded, InvalidGraphError
from .metric_graph import MetricGraph, Position, ZERO

DEFAULT_EVENT_CAP = 10 ** 6


@dataclass(frozen=True)
class HydraSegment:
    """One characteristic: offset(t) = off0 + direction * (t - t0), t in [t0, t1]."""

    edge: str
    t0: Fraction
    t1: Fraction
    off0: Fraction
    direction: int
    amplitude: Fraction

    def offset_at(self, t: Fraction) -> Fraction:
        return self.off0 + self.direction * (t - self.t0)

    @property
    def off1(self) -> Fraction:
        return self.offset_at(self.t1)


@dataclass(frozen=True)
class ScatterEvent:
    vertex: str
    time: Fraction
    incoming: tuple[tuple[str, int, Fraction], ...]  # (edge, end, amplitude)
    outgoing: tuple[tuple[str, int, Fraction], ...]


class Hydra:
    """Truncated space-time support of the fundamental solution from one vertex."""

    def __init__(self, graph: MetricGraph, source: str, horizon: Fraction,
                 segments: Sequence[HydraSegment], events: Sequence[ScatterEvent]):
        self.graph = graph
        self.source = source
        self.horizon = horizon
        self.segments = tuple(segments)
        self.events = tuple(events)
        self._grid_scale = 0  # both made on the first query: propagate builds no index
        self._indexes: dict[int, _Ticks] = {}

    def grid_scale(self) -> int:
        """4 * the common denominator of the edge lengths, the horizon and the
        segment ends: the coarsest tick scale of the hydra's indexes."""
        if not self._grid_scale:
            dens = {e.length.denominator for e in self.graph.edges}
            dens.add(self.horizon.denominator)
            for s in self.segments:
                dens.update((s.t0.denominator, s.t1.denominator, s.off0.denominator))
            self._grid_scale = 4 * math.lcm(*dens)
        return self._grid_scale

    def tick_index(self, values: Collection[Fraction] = ()) -> _Ticks:
        """The hydra's segments on a tick grid holding `values`, cached by scale."""
        scale = math.lcm(self.grid_scale(), *{v.denominator for v in values})
        index = self._indexes.get(scale)
        if index is None:
            index = self._indexes[scale] = _Ticks((self,), values)
        return index

    def times_at(self, pos: Position) -> list[Fraction]:
        """Sorted times t with (pos, t) on the hydra."""
        ticks = self.tick_index((pos.offset,))
        return [ticks.fraction(t) for t in sorted(ticks.times_at(ticks.key(pos)))]

    def positions_at(self, t) -> list[Position]:
        """Positions of the hydra's time slice, canonical and sorted."""
        t = Fraction(t)
        ticks = self.tick_index((t,))
        keys = sorted(set(ticks.positions_at(ticks.tick(t))), key=ticks.sort_key)
        return [ticks.position(k) for k in keys]

    def amplitudes_at(self, pos: Position) -> dict[Fraction, Fraction]:
        """Amplitude at every passage time of a position.

        Conventions: 1 at the source (gamma, 0); 0 at boundary vertices for
        t > 0; at interior-vertex events the value is the continuity limit
        (2/mu) * (total incoming amplitude); elsewhere the sum over all
        characteristics through the point.  Times missing from the result
        carry amplitude 0; a listed amplitude may be 0 where contributions
        cancel.
        """
        ticks = self.tick_index((pos.offset,))
        return {ticks.fraction(t): a
                for t, a in self.tick_amplitudes(ticks, ticks.key(pos)).items()}

    def tick_amplitudes(self, ticks: _Ticks, key: int) -> dict[int, Fraction]:
        """amplitudes_at on an index of this hydra: {time tick: amplitude} of a key."""
        if key >= 0:
            return ticks.amplitudes_at(key)
        g = self.graph
        v = g.vertices[-1 - key]
        if v in g.boundary:
            return {0: Fraction(1)} if v == self.source else {}
        factor = Fraction(2, g.valence(v))
        return {t: factor * a for t, a in ticks.amplitudes_at(key).items()}

    def amplitude_at(self, pos: Position, t) -> Fraction:
        """Amplitude carried at a space-time point (0 off the hydra)."""
        return self.amplitudes_at(pos).get(Fraction(t), ZERO)


def propagate(g: MetricGraph, source: str, horizon,
              event_cap: int = DEFAULT_EVENT_CAP) -> Hydra:
    """Build the hydra of the unit impulse entering at `source` up to `horizon`."""
    horizon = Fraction(horizon)
    if horizon <= 0:
        raise InvalidGraphError("horizon must be positive")
    if source not in g.boundary or g.valence(source) != 1:
        raise InvalidGraphError(f"{source!r} is not a boundary vertex of valence 1")

    segments: list[HydraSegment] = []
    events: list[ScatterEvent] = []
    # pending arrivals grouped by (time, vertex); values keyed by (edge_idx, end)
    pending: dict[tuple[Fraction, str], dict[tuple[int, int], Fraction]] = {}
    heap: list[tuple[Fraction, str]] = []

    def launch(t0: Fraction, ei: int, end: int, amp: Fraction) -> None:
        """Fly an impulse born at t0 from a vertex down an edge-end.

        Records its segment and schedules its arrival at the far vertex.
        """
        if amp == 0 or t0 >= horizon:
            return  # zero-amplitude impulses are never emitted
        e = g.edges[ei]
        t_arr = t0 + e.length
        segments.append(HydraSegment(e.id, t0, min(t_arr, horizon),
                                     g.end_offset(e, end), 1 if end == 0 else -1, amp))
        if t_arr <= horizon:
            key = (t_arr, e.ends[1 - end])
            slot = pending.setdefault(key, {})
            if not slot:
                heapq.heappush(heap, key)
            arr = (ei, 1 - end)
            slot[arr] = slot.get(arr, ZERO) + amp

    ei0, end0 = g.incidence(source)[0]
    launch(ZERO, ei0, end0, Fraction(1))

    n_events = 0
    while heap:
        key = heapq.heappop(heap)
        slot = pending.pop(key, None)
        if not slot:
            continue
        t, v = key
        n_events += 1
        if n_events > event_cap:
            raise EventCapExceeded(
                f"more than {event_cap} scattering events before t={horizon}")
        incoming = tuple(sorted(
            (g.edges[ei].id, end, amp) for (ei, end), amp in slot.items()))
        total = sum(slot.values(), ZERO)
        outgoing: list[tuple[str, int, Fraction]] = []
        if v in g.boundary:
            (ei, end), amp = next(iter(slot.items()))
            out = -total
            outgoing.append((g.edges[ei].id, end, out))
            launch(t, ei, end, out)
        else:
            mu = g.valence(v)
            factor = Fraction(2, mu)
            for ei, end in g.incidence(v):
                out = factor * total - slot.get((ei, end), ZERO)
                outgoing.append((g.edges[ei].id, end, out))
                launch(t, ei, end, out)
        events.append(ScatterEvent(v, t, incoming, tuple(sorted(outgoing))))

    segments.sort(key=lambda s: (s.t0, g.edge_pos(s.edge), s.off0, s.direction))
    return Hydra(g, source, horizon, segments, events)


# -- queries over a union of hydras (the Sigma case) ----------------------

def check_same_stage(hydras: Sequence[Hydra]) -> None:
    if not hydras:
        raise ValueError("need at least one hydra")
    g, T = hydras[0].graph, hydras[0].horizon
    for h in hydras[1:]:
        if h.graph is not g or h.horizon != T:
            raise ValueError("hydras must share one graph and one horizon")
    if len({h.source for h in hydras}) != len(hydras):
        raise ValueError("hydras must have distinct source vertices")


class _Ticks:
    """The segments of one or more hydras on an integer grid, indexed by edge.

    A tick is 1/scale.  The scale is the lcm of the hydras' grid scales (4 *
    the common denominator of the edge lengths, the horizon and the segment
    ends) with the denominators of `values`: two characteristics cross at
    half ticks of the segment grid, and the cells between such points have
    their midpoints at quarter ticks, so every point the partition visits is
    a whole tick.  A position is an int key: -1 - i for the i-th vertex of
    the graph, offset * E + i for a point inside the i-th of its E edges.
    Each edge keeps its segments as (t0, t1, off0, direction, amplitude)
    tuples sorted by t0, with their starts and longest duration: the times
    at a position are one scan of its edge's list, the positions at a time
    one bisect per edge.  Fractions and Positions are made (and cached) only
    on request.  A hydra caches its own indexes (`Hydra.tick_index`).
    """

    def __init__(self, hydras: Sequence[Hydra], values: Iterable = ()):
        g = hydras[0].graph
        self.scale = math.lcm(*(h.grid_scale() for h in hydras),
                              *{v.denominator for v in values})
        self.graph = g
        self.horizon = self.tick(hydras[0].horizon)
        self._n_edges = len(g.edges)
        self._vkey = vkey = {v: -1 - i for i, v in enumerate(g.vertices)}
        self._length = [self.tick(e.length) for e in g.edges]
        self._end_keys = [(vkey[e.ends[0]], vkey[e.ends[1]]) for e in g.edges]
        self._vertex_slots = {
            vkey[v]: [(ei, self._length[ei] if end else 0) for ei, end in g.incidence(v)]
            for v in g.vertices}
        self.rows: list[list[tuple[int, int, int, int, Fraction]]] = [[] for _ in g.edges]
        for h in hydras:
            for s in h.segments:
                self.rows[g.edge_pos(s.edge)].append(
                    (self.tick(s.t0), self.tick(s.t1), self.tick(s.off0), s.direction,
                     s.amplitude))
        for row in self.rows:
            row.sort()
        self._starts = [[s[0] for s in row] for row in self.rows]
        self._span = [max((s[1] - s[0] for s in row), default=0) for row in self.rows]
        self._positions: dict[int, Position] = {}
        self._fractions: dict[int, Fraction] = {}

    # -- boundary: Fractions and Positions to ticks and keys, and back -----

    def tick(self, q) -> int:
        if self.scale % q.denominator:
            raise ValueError(f"{q} is not on the tick grid 1/{self.scale}")
        return q.numerator * (self.scale // q.denominator)

    def key(self, pos: Position) -> int:
        if pos.vertex is not None:
            return self._vkey[pos.vertex]
        return self.tick(pos.offset) * self._n_edges + self.graph.edge_pos(pos.edge)

    def key_on(self, ei: int, offset: int) -> int:
        """Key of the point at a tick offset on the ei-th edge; ends are vertices."""
        if offset == 0:
            return self._end_keys[ei][0]
        if offset == self._length[ei]:
            return self._end_keys[ei][1]
        return offset * self._n_edges + ei

    def slots(self, key: int) -> list[tuple[int, int]]:
        """(edge index, tick offset) pairs of a position; a vertex has one per end."""
        if key < 0:
            return self._vertex_slots[key]
        return [(key % self._n_edges, key // self._n_edges)]

    def fraction(self, n: int) -> Fraction:
        q = self._fractions.get(n)
        if q is None:
            q = self._fractions[n] = Fraction(n, self.scale)
        return q

    def position(self, key: int) -> Position:
        p = self._positions.get(key)
        if p is None:
            g = self.graph
            if key < 0:
                p = g.vertex_position(g.vertices[-1 - key])
            else:
                p = Position(g.edges[key % self._n_edges].id,
                             self.fraction(key // self._n_edges), None)
            self._positions[key] = p
        return p

    def sort_key(self, key: int):
        """Position.sort_key of a key's position, on ticks."""
        if key < 0:
            return (0, self.graph.vertices[-1 - key], "", 0)
        return (1, "", self.graph.edges[key % self._n_edges].id, key // self._n_edges)

    # -- queries on ticks ----------------------------------------------------

    def times_at(self, key: int) -> dict[int, int]:
        """{time: direction} of the characteristics through a position.

        A time reached in both directions (a crossing, or a vertex) maps to 0.
        """
        hits: dict[int, int] = {}
        for ei, x in self.slots(key):
            for t0, t1, off0, d, _ in self.rows[ei]:
                t = t0 + d * (x - off0)
                if t0 <= t <= t1:
                    hits[t] = d if hits.get(t, d) == d else 0
        return hits

    def amplitudes_at(self, key: int) -> dict[int, Fraction]:
        """{time: summed amplitude} of the characteristics through a position;
        at a vertex, of those arriving there (t == t1)."""
        hits: dict[int, Fraction] = {}
        for ei, x in self.slots(key):
            for t0, t1, off0, d, a in self.rows[ei]:
                t = t0 + d * (x - off0)
                if t0 <= t <= t1 and (key >= 0 or t == t1):
                    hits[t] = hits[t] + a if t in hits else a
        return hits

    def positions_at(self, t: int) -> list[int]:
        """Keys of the positions at time t (a position may repeat)."""
        found = []
        for ei, row in enumerate(self.rows):
            starts = self._starts[ei]
            for i in range(bisect_left(starts, t - self._span[ei]), bisect_right(starts, t)):
                t0, t1, off0, d, _ = row[i]
                if t <= t1:
                    found.append(self.key_on(ei, off0 + d * (t - t0)))
        return found

    def crossings(self) -> set[tuple[int, int]]:
        """(key, time) of transversal crossings of segment pairs on one edge.

        Pairs that only touch at segment endpoints are vertex events, not
        crossings, and are excluded.
        """
        points: set[tuple[int, int]] = set()
        for ei, row in enumerate(self.rows):
            for i, (a0, a1, a_off, d, _) in enumerate(row):
                for b0, b1, b_off, e, _ in row[i + 1:]:
                    if b0 >= a1:
                        break  # this and every later segment starts after a ends
                    if e == d:
                        continue  # parallel in space-time; no transversal crossing
                    # a_off + d*(t - a0) == b_off - d*(t - b0); segment ends are
                    # multiples of 4 ticks, so t is whole
                    t = (d * (b_off - a_off) + a0 + b0) // 2
                    if a0 < t < a1 and b0 < t < b1:
                        points.add((self.key_on(ei, a_off + d * (t - a0)), t))
        return points


def self_intersections(hydras: Sequence[Hydra]) -> set[tuple[Position, Fraction]]:
    """Transversal crossings of characteristic pairs, within and across hydras."""
    check_same_stage(hydras)
    ticks = _Ticks(hydras)
    return {(ticks.position(k), ticks.fraction(t)) for k, t in ticks.crossings()}


def wave_eval(hydras: Sequence[Hydra], controls: Mapping[str, Callable[[float], float]],
              x: Position, horizon) -> float:
    """Value u^f(x, T) of the wave driven by per-vertex controls phi_gamma.

    Implements the convolution form: sum over hydras and over passage times t
    of amplitude(x, t) * phi(T - t).
    """
    horizon = Fraction(horizon)
    total = 0.0
    for h in hydras:
        phi = controls.get(h.source)
        if phi is None:
            continue
        ticks = h.tick_index((x.offset, horizon))
        T, scale = ticks.tick(horizon), ticks.scale
        amps = h.tick_amplitudes(ticks, ticks.key(x))
        for t in sorted(amps):
            a = amps[t]
            if a:
                # int / int is correctly rounded, so this is float(horizon - t)
                total += float(a) * phi((T - t) / scale)
    return total
