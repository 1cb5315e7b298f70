"""Impulse propagation, hydra queries, crossings and wave evaluation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eikonal_canon import (GridSpec, MetricGraph, build_partition, propagate,
                           self_intersections, wave_eval)
from eikonal_canon.errors import EventCapExceeded
from eikonal_canon.impulse import HydraSegment

from conftest import (bump, probe_positions, random_admissible_graph, reference_amplitude_at,
                      reference_times_at, reference_wave_eval)

F = Fraction


def segment_tuple(s: HydraSegment):
    return (s.edge, s.t0, s.t1, s.off0, s.direction, s.amplitude)


class TestPropagate:
    def test_interval_no_events(self, interval):
        h = propagate(interval, "a", F(1, 2))
        assert [segment_tuple(s) for s in h.segments] == [
            ("e0", F(0), F(1, 2), F(0), 1, F(1))
        ]

    def test_interval_reflection(self, interval):
        h = propagate(interval, "a", F(3, 2))
        assert [segment_tuple(s) for s in h.segments] == [
            ("e0", F(0), F(1), F(0), 1, F(1)),
            ("e0", F(1), F(3, 2), F(1), -1, F(-1)),
        ]

    def test_star_scattering_amplitudes(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        got = sorted(segment_tuple(s) for s in h.segments)
        assert got == sorted(
            [
                ("e1", F(0), F(1), F(0), 1, F(1)),
                ("e1", F(1), F(3, 2), F(1), -1, F(-1, 3)),
                ("e2", F(1), F(3, 2), F(0), 1, F(2, 3)),
                ("e3", F(1), F(3, 2), F(0), 1, F(2, 3)),
            ]
        )

    def test_conservation_at_interior_events(self, star123):
        h = propagate(star123, "g1", 6)
        interior = [e for e in h.events if e.vertex not in star123.boundary]
        assert interior
        for ev in interior:
            inc = sum(a for _, _, a in ev.incoming)
            out = sum(a for _, _, a in ev.outgoing)
            assert inc == out

    def test_determinism(self, star123):
        h1 = propagate(star123, "g2", F(11, 3))
        h2 = propagate(star123, "g2", F(11, 3))
        assert [segment_tuple(s) for s in h1.segments] == [
            segment_tuple(s) for s in h2.segments
        ]

    def test_causality(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_admissible_graph(rng)
            gamma = sorted(g.boundary)[0]
            gp = g.vertex_position(gamma)
            h = propagate(g, gamma, F(5, 2))
            for s in h.segments:
                for t in (s.t0, (s.t0 + s.t1) / 2, s.t1):
                    x = g.position(s.edge, s.offset_at(t))
                    assert g.distance(x, gp) <= t

    def test_event_cap(self, star3):
        with pytest.raises(EventCapExceeded):
            propagate(star3, "g1", 40, event_cap=10)

    def test_zero_amplitude_impulses_dropped(self):
        # symmetric star: +1/3 re-entry meets two -2/3 returns at the center at
        # t=3; transmissions onto e2/e3 cancel exactly and must not be emitted
        g = MetricGraph(
            [("e1", ("g1", "c"), 1), ("e2", ("c", "g2"), 1), ("e3", ("c", "g3"), 1)],
            boundary=["g1", "g2", "g3"],
        )
        h = propagate(g, "g1", F(7, 2))
        ev3 = [e for e in h.events if e.vertex == "c" and e.time == 3]
        assert len(ev3) == 1
        outs = {(eid, end): a for eid, end, a in ev3[0].outgoing}
        assert outs[("e2", 0)] == 0 and outs[("e3", 0)] == 0
        assert outs[("e1", 1)] == -1
        live_after_3 = [s for s in h.segments if s.t0 == 3]
        assert {s.edge for s in live_after_3} == {"e1"}


class TestQueries:
    def test_times_at_examples(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        x = star3.position("e1", F(3, 4))
        assert h.times_at(x) == [F(3, 4), F(5, 4)]

    def test_positions_at(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        ps = h.positions_at(F(5, 4))
        assert ps == sorted(
            [
                star3.position("e1", F(3, 4)),
                star3.position("e2", F(1, 4)),
                star3.position("e3", F(1, 4)),
            ],
            key=lambda p: p.sort_key(),
        )

    def test_amplitude_conventions(self, interval):
        h = propagate(interval, "a", F(3, 2))
        assert h.amplitude_at(interval.vertex_position("a"), 0) == 1
        assert h.amplitude_at(interval.vertex_position("b"), 1) == 0
        assert h.amplitude_at(interval.position("e0", F(1, 2)), F(1, 2)) == 1
        assert h.amplitude_at(interval.position("e0", F(1, 2)), F(3, 2)) == -1
        assert h.amplitude_at(interval.position("e0", F(1, 3)), F(1, 2)) == 0

    def test_amplitude_at_interior_vertex_is_continuity_value(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        # at the scattering instant the wave value at c is (2/mu) * incoming
        assert h.amplitude_at(star3.vertex_position("c"), 1) == F(2, 3)

    def test_off_hydra_zero(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        assert h.amplitude_at(star3.position("e2", F(3, 4)), F(5, 4)) == 0


class TestIntersections:
    def test_single_segment_none(self, interval):
        h = propagate(interval, "a", F(1, 2))
        assert self_intersections([h]) == set()

    def test_two_hydras_cross_midpoint(self, interval):
        ha = propagate(interval, "a", 1)
        hb = propagate(interval, "b", 1)
        assert self_intersections([ha, hb]) == {
            (interval.position("e0", F(1, 2)), F(1, 2))
        }

    def test_star_short_horizon_none(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        assert self_intersections([h]) == set()

    def test_self_crossing_with_unequal_legs(self):
        # legs 1,1,2: the -2/9 impulse entering e3 at t=3 crosses the -2/3
        # return on e3 at (offset 1, t 4)
        g = MetricGraph(
            [("e1", ("g1", "c"), 1), ("e2", ("c", "g2"), 1), ("e3", ("c", "g3"), 2)],
            boundary=["g1", "g2", "g3"],
        )
        h = propagate(g, "g1", F(9, 2))
        pts = self_intersections([h])
        assert (g.position("e3", 1), F(4)) in pts
        # rule 2: the amplitude at a crossing is the sum of both branches
        assert h.amplitude_at(g.position("e3", 1), 4) == F(-2, 9) + F(-2, 3)


class TestWaveEval:
    def test_zero_control(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        x = star3.position("e2", F(1, 4))
        assert wave_eval([h], {"g1": lambda s: 0.0}, x, F(3, 2)) == 0.0

    def test_interval_linear_control(self, interval):
        h = propagate(interval, "a", F(1, 2))
        x = interval.position("e0", F(1, 4))
        val = wave_eval([h], {"a": lambda s: s}, x, F(1, 2))
        assert val == pytest.approx(0.25)

    def test_star_transmission(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        x = star3.position("e2", F(1, 4))
        val = wave_eval([h], {"g1": lambda s: 1.0}, x, F(3, 2))
        assert val == pytest.approx(2.0 / 3.0)

    def test_boundary_value_is_control(self, interval):
        h = propagate(interval, "a", F(1, 2))
        phi = lambda s: 2.0 * s + 1.0
        val = wave_eval([h], {"a": phi}, interval.vertex_position("a"), F(1, 2))
        assert val == pytest.approx(phi(0.5))


@st.composite
def random_hydras(draw):
    """Hydras of one to all sources on a conftest random graph."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    g = random_admissible_graph(rng, common_denominator=draw(st.booleans()))
    boundary = sorted(g.boundary)
    sigma = draw(st.lists(st.sampled_from(boundary), min_size=1, unique=True))
    T = draw(st.fractions(min_value=F(1, 4), max_value=F(5), max_denominator=8))
    return g, [propagate(g, gamma, T) for gamma in sorted(sigma)], T


def grid_probes(g, T, stride: int = 17) -> list:
    """Every stride-th node of GridSpec.choose's grid on each edge, both ends
    included: offsets with dyadic multiples of the graph's denominators."""
    h = GridSpec.choose(g, T).h
    found = []
    for e in g.edges:
        n = int(e.length / h)
        found += [g.position(e.id, h * i) for i in [*range(0, n, stride), n]]
    return found


def family_probes(g, hydras) -> list:
    """The eps/3 and 2 eps/5 points of every family cell."""
    part = build_partition(hydras)
    return [x for fam in part.families for r in (fam.epsilon / 3, fam.epsilon * 2 / 5)
            for x in fam.lambda_at(g, r)]


def assert_amplitudes_match(h, positions):
    for x in positions:
        amps = h.amplitudes_at(x)
        times = h.times_at(x)
        assert times == reference_times_at([h], x)
        assert set(amps) <= set(times)
        for t in times + [F(0), h.horizon, h.horizon / 3]:
            want = reference_amplitude_at(h, x, t)
            assert amps.get(t, 0) == want
            assert h.amplitude_at(x, t) == want


class TestAmplitudesAgainstReference:
    @given(random_hydras())
    @settings(max_examples=40, deadline=None)
    def test_amplitudes_at_matches_per_entry_scan(self, drawn):
        g, hydras, T = drawn
        for h in hydras:
            assert_amplitudes_match(h, probe_positions(g, hydras) + grid_probes(g, T))

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.fractions(min_value=F(1, 4), max_value=F(5, 2), max_denominator=4))
    @settings(max_examples=25, deadline=None)
    def test_family_sample_points(self, seed, T):
        g = random_admissible_graph(random.Random(seed))
        hydras = [propagate(g, gamma, T) for gamma in sorted(g.boundary)[:2]]
        probes = family_probes(g, hydras)
        for h in hydras:
            assert_amplitudes_match(h, probes)

    def test_offset_coprime_to_the_scale(self):
        # every length has denominator 5 and the horizon is whole, so offset
        # 1/11 needs a tick scale 11 times the hydras' own
        g = MetricGraph([("e0", ("c", "b0"), F(3, 5)), ("e1", ("c", "b1"), F(7, 5)),
                         ("e2", ("c", "b2"), F(4, 5))], boundary=["b0", "b1", "b2"])
        hydras = [propagate(g, gamma, 4) for gamma in ("b0", "b2")]
        probes = [g.position(e.id, F(k, 11)) for e in g.edges for k in (1, 2, 5)]
        controls = {"b0": bump(0.1, 1.2), "b2": bump(0.3, 1.5)}
        for h in hydras:
            assert h.grid_scale() % 11
            assert_amplitudes_match(h, probes)
            assert len(h.times_at(probes[0])) > 1
        for x in probes:
            assert wave_eval(hydras, controls, x, 4) == \
                reference_wave_eval(hydras, controls, x, 4)

    @given(random_hydras())
    @settings(max_examples=30, deadline=None)
    def test_wave_eval_bit_identical_to_reference(self, drawn):
        g, hydras, T = drawn
        controls = {h.source: bump(0.05 * (i + 1), float(T) + 0.5)
                    for i, h in enumerate(hydras)}
        for x in probe_positions(g, hydras) + grid_probes(g, T):
            assert wave_eval(hydras, controls, x, T) == \
                reference_wave_eval(hydras, controls, x, T)
