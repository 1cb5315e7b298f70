"""Metric graph model: validation, exact distances, balls, filling times."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from eikonal_canon import MetricGraph, eccentricity, metric_ball, validate_graph
from eikonal_canon.errors import InvalidGraphError
from eikonal_canon.metric_graph import covered_intervals

from conftest import random_admissible_graph

F = Fraction


def brute_force_distance(g: MetricGraph, a, b) -> Fraction:
    """Independent oracle: enumerate all simple vertex paths between end vertices."""
    if a.edge is not None and a.edge == b.edge:
        direct = abs(a.offset - b.offset)
    else:
        direct = None

    def ends(p):
        if p.vertex is not None:
            return [(p.vertex, F(0))]
        e = g.edge(p.edge)
        return [(e.ends[0], p.offset), (e.ends[1], e.length - p.offset)]

    best = direct

    def dfs(v, target, used, acc):
        nonlocal best_vv
        if v == target:
            best_vv = min(best_vv, acc) if best_vv is not None else acc
            return
        for ei, end in g.incidence(v):
            if ei in used:
                continue
            e = g.edges[ei]
            dfs(e.ends[1 - end], target, used | {ei}, acc + e.length)

    for va, da in ends(a):
        for vb, db in ends(b):
            best_vv = None
            dfs(va, vb, frozenset(), F(0))
            if best_vv is not None:
                cand = da + best_vv + db
                best = cand if best is None or cand < best else best
    return best


class TestValidate:
    def test_single_edge_valid(self, interval):
        assert validate_graph(interval) == []

    def test_valence_two_interior_rejected(self):
        g = MetricGraph(
            [("e0", ("a", "m"), 1), ("e1", ("m", "b"), 1)], boundary=["a", "b"]
        )
        report = validate_graph(g)
        assert any("valence 2" in r for r in report)

    def test_star_valid(self, star3):
        assert validate_graph(star3) == []

    def test_nonpositive_length(self):
        g = MetricGraph([("e0", ("a", "b"), 0)], boundary=["a", "b"])
        assert any("nonpositive" in r for r in validate_graph(g))

    def test_disconnected(self):
        g = MetricGraph(
            [("e0", ("a", "b"), 1), ("e1", ("c", "d"), 1)],
            boundary=["a", "b", "c", "d"],
        )
        assert any("disconnected" in r for r in validate_graph(g))

    def test_boundary_with_high_valence(self, star3):
        g = MetricGraph(
            [("e1", ("g1", "c"), 1), ("e2", ("c", "g2"), 1), ("e3", ("c", "g3"), 1)],
            boundary=["c", "g1", "g2", "g3"],
        )
        assert any("boundary vertex 'c'" in r for r in validate_graph(g))


class TestDistance:
    def test_identity(self, interval):
        p = interval.position("e0", F(1, 3))
        assert interval.distance(p, p) == 0

    def test_same_edge(self, interval):
        a = interval.position("e0", F(1, 4))
        b = interval.position("e0", F(3, 4))
        assert interval.distance(a, b) == F(1, 2)

    def test_star_tips(self, star3):
        a = star3.vertex_position("g1")
        b = star3.vertex_position("g2")
        assert star3.distance(a, b) == 2

    def test_vertex_normalization(self, star3):
        assert star3.position("e1", 1) == star3.vertex_position("c")
        assert star3.position("e2", 0) == star3.vertex_position("c")

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_admissible_graph(rng)
            pts = []
            for _ in range(4):
                e = g.edges[rng.randrange(len(g.edges))]
                off = e.length * F(rng.randint(0, 8), 8)
                pts.append(g.position(e.id, off))
            for a in pts:
                for b in pts:
                    assert g.distance(a, b) == brute_force_distance(g, a, b)

    def test_triangle_inequality(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_admissible_graph(rng)
            ps = []
            for _ in range(3):
                e = g.edges[rng.randrange(len(g.edges))]
                ps.append(g.position(e.id, e.length * F(rng.randint(0, 6), 6)))
            a, b, c = ps
            assert g.distance(a, b) + g.distance(b, c) >= g.distance(a, c)


class TestEccentricity:
    def test_interval(self, interval):
        assert eccentricity(interval, "a") == 1

    def test_unit_star(self, star3):
        assert eccentricity(star3, "g1") == 2

    def test_star123(self, star123):
        assert eccentricity(star123, "g1") == 4

    def test_requires_boundary_vertex(self, star3):
        with pytest.raises(InvalidGraphError):
            eccentricity(star3, "c")

    def test_matches_sampled_maximum(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_admissible_graph(rng)
            gamma = sorted(g.boundary)[0]
            gp = g.vertex_position(gamma)
            ecc = eccentricity(g, gamma)
            samples = []
            for e in g.edges:
                for i in range(9):
                    samples.append(g.position(e.id, e.length * F(i, 8)))
            sampled = max(g.distance(gp, p) for p in samples)
            assert sampled <= ecc
            # the max over edge endpoints and interior peaks is attained on the
            # 1/8 grid only when the peak offset is a multiple of L/8, so just
            # require the true value to be attained at some peak formula
            assert any(
                g.distance(gp, p) == ecc for p in samples
            ) or ecc > sampled


class TestMetricBall:
    def test_interval_left_half(self, interval):
        trace = metric_ball(interval, [interval.vertex_position("a")], F(1, 2))
        assert trace.intervals == {"e0": ((F(0), F(1, 2), True, False),)}
        assert trace.vertices == {"a"}

    def test_whole_graph(self, star3):
        trace = metric_ball(star3, [star3.vertex_position("g1")], 3)
        assert set(trace.vertices) == set(star3.vertices)
        for e in star3.edges:
            assert trace.intervals[e.id] == ((F(0), e.length, True, True),)

    def test_star_three_halves(self, star3):
        trace = metric_ball(star3, [star3.vertex_position("g1")], F(3, 2))
        assert trace.intervals["e1"] == ((F(0), F(1), True, True),)
        assert trace.intervals["e2"] == ((F(0), F(1, 2), True, False),)
        assert trace.intervals["e3"] == ((F(0), F(1, 2), True, False),)
        assert trace.vertices == {"g1", "c"}

    def test_monotone(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_admissible_graph(rng)
            gamma = sorted(g.boundary)[0]
            p = g.vertex_position(gamma)
            r1 = F(rng.randint(1, 6), 4)
            r2 = r1 + F(rng.randint(1, 4), 4)
            small = covered_intervals(g, [p], r1)
            big = covered_intervals(g, [p], r2)
            for eid, ivs in small.items():
                for lo, hi in ivs:
                    assert any(blo <= lo and hi <= bhi for blo, bhi in big[eid])

    def test_two_sided_cover_on_interval(self, interval):
        # balls from both ends leave a gap in the middle
        trace = metric_ball(
            interval,
            [interval.vertex_position("a"), interval.vertex_position("b")],
            F(1, 4),
        )
        assert trace.intervals["e0"] == (
            (F(0), F(1, 4), True, False),
            (F(3, 4), F(1), False, True),
        )
        # at r = 1/2 the open balls touch, but the midpoint lies at distance
        # exactly r from both ends, so it stays outside
        trace = metric_ball(
            interval,
            [interval.vertex_position("a"), interval.vertex_position("b")],
            F(1, 2),
        )
        assert trace.intervals["e0"] == (
            (F(0), F(1, 2), True, False),
            (F(1, 2), F(1), False, True),
        )
