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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

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

    def time_at_offset(self, offset: Fraction) -> Fraction | None:
        t = self.t0 + self.direction * (offset - self.off0)
        if self.t0 <= t <= self.t1:
            return t
        return None

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
        by_edge: dict[str, list[HydraSegment]] = {}
        for s in self.segments:
            by_edge.setdefault(s.edge, []).append(s)
        self._by_edge = by_edge

    def segments_on(self, edge_id: str) -> Sequence[HydraSegment]:
        return self._by_edge.get(edge_id, ())

    def _probe_slots(self, pos: Position) -> list[tuple[str, Fraction]]:
        """(edge, offset) pairs to solve against; vertices probe all incident ends."""
        if pos.vertex is None:
            return [(pos.edge, pos.offset)]
        g = self.graph
        slots = []
        for ei, end in g.incidence(pos.vertex):
            e = g.edges[ei]
            slots.append((e.id, g.end_offset(e, end)))
        return slots

    def times_at(self, pos: Position) -> list[Fraction]:
        """Sorted times t with (pos, t) on the hydra."""
        times: set[Fraction] = set()
        for edge_id, offset in self._probe_slots(pos):
            for s in self.segments_on(edge_id):
                t = s.time_at_offset(offset)
                if t is not None:
                    times.add(t)
        return sorted(times)

    def positions_at(self, t: Fraction) -> list[Position]:
        """Positions of the hydra's time slice, canonical and sorted."""
        t = Fraction(t)
        found: set[Position] = set()
        for s in self.segments:
            if s.t0 <= t <= s.t1:
                found.add(self.graph.position(s.edge, s.offset_at(t)))
        return sorted(found, key=Position.sort_key)

    def amplitudes_at(self, pos: Position) -> dict[Fraction, Fraction]:
        """Amplitude at every passage time of a position, in one segment scan.

        Conventions: 1 at the source (gamma, 0); 0 at boundary vertices for
        t > 0; at interior-vertex events the value is the continuity limit
        (2/mu) * (total incoming amplitude); elsewhere the sum over all
        characteristics through the point.  Times missing from the result
        carry amplitude 0; a listed amplitude may be 0 where contributions
        cancel.
        """
        g = self.graph
        amps: dict[Fraction, Fraction] = {}
        if pos.vertex is None:
            for s in self.segments_on(pos.edge):
                t = s.time_at_offset(pos.offset)
                if t is not None:
                    amps[t] = amps.get(t, ZERO) + s.amplitude
            return amps
        v = pos.vertex
        if v in g.boundary:
            return {ZERO: Fraction(1)} if v == self.source else amps
        for ei, end in g.incidence(v):
            e = g.edges[ei]
            off_v = g.end_offset(e, end)
            for s in self.segments_on(e.id):
                if s.off1 == off_v:
                    amps[s.t1] = amps.get(s.t1, ZERO) + s.amplitude
        factor = Fraction(2, g.valence(v))
        return {t: factor * a for t, a in amps.items()}

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


def union_times_at(hydras: Sequence[Hydra], pos: Position) -> list[Fraction]:
    times: set[Fraction] = set()
    for h in hydras:
        times.update(h.times_at(pos))
    return sorted(times)


def union_positions_at(hydras: Sequence[Hydra], t) -> list[Position]:
    found: set[Position] = set()
    for h in hydras:
        found.update(h.positions_at(t))
    return sorted(found, key=Position.sort_key)


def self_intersections(hydras: Sequence[Hydra]) -> set[tuple[Position, Fraction]]:
    """Transversal crossings of characteristic pairs, within and across hydras.

    Pairs that only touch at segment endpoints are vertex events, not
    crossings, and are excluded.
    """
    check_same_stage(hydras)
    g = hydras[0].graph
    by_edge: dict[str, list[HydraSegment]] = {}
    for h in hydras:
        for s in h.segments:
            by_edge.setdefault(s.edge, []).append(s)
    points: set[tuple[Position, Fraction]] = set()
    for edge_id, segs in by_edge.items():
        for i, a in enumerate(segs):
            for b in segs[i + 1:]:
                if a.direction == b.direction:
                    continue  # parallel in space-time; no transversal crossing
                # solve a.off0 + d*(t - a.t0) == b.off0 - d*(t - b.t0)
                d = a.direction
                t = ((b.off0 - a.off0) + d * (a.t0 + b.t0)) / (2 * d)
                if a.t0 < t < a.t1 and b.t0 < t < b.t1:
                    points.add((g.position(edge_id, a.offset_at(t)), t))
    return points


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
        amps = h.amplitudes_at(x)
        for t in sorted(amps):
            a = amps[t]
            if a:
                total += float(a) * phi(float(horizon - t))
    return total
