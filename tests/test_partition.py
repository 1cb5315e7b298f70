"""Lattice closures, determination sets, critical points, families and taus."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eikonal_canon import (
    build_partition,
    self_intersections,
    critical_points,
    determination_set,
    lattice_closure,
    propagate,
    wave_eval,
)
from eikonal_canon import partition
from eikonal_canon.errors import PartitionDefect
from eikonal_canon.impulse import Hydra
from conftest import (bump, random_admissible_graph, reference_lattice_closure,
                      reference_positions_at, reference_times_at)

F = Fraction


@pytest.fixture
def star_hydra(star3):
    return propagate(star3, "g1", F(3, 2))


class TestLatticeClosure:
    def test_single_point_interval(self, interval):
        h = propagate(interval, "a", F(1, 2))
        x = interval.position("e0", F(1, 4))
        closure = lattice_closure([h], [(x, F(1, 4))])
        assert closure == {(x, F(1, 4))}

    def test_star_four_points(self, star3, star_hydra):
        x = star3.position("e1", F(3, 4))
        closure = lattice_closure([star_hydra], [(x, F(3, 4))])
        assert closure == {
            (x, F(3, 4)),
            (x, F(5, 4)),
            (star3.position("e2", F(1, 4)), F(5, 4)),
            (star3.position("e3", F(1, 4)), F(5, 4)),
        }

    def test_idempotent(self, star3, star_hydra):
        x = star3.position("e1", F(3, 4))
        once = lattice_closure([star_hydra], [(x, F(3, 4))])
        again = lattice_closure([star_hydra], once)
        assert once == again

    def test_contains_seeds_and_distributes_over_union(self, star3, star_hydra):
        a = (star3.position("e1", F(3, 4)), F(3, 4))
        b = (star3.position("e1", F(1, 4)), F(1, 4))
        ca = lattice_closure([star_hydra], [a])
        cb = lattice_closure([star_hydra], [b])
        assert a in ca and b in cb
        assert lattice_closure([star_hydra], [a, b]) == ca | cb

    def test_rejects_off_hydra_seed(self, star3, star_hydra):
        with pytest.raises(ValueError):
            lattice_closure([star_hydra], [(star3.position("e2", F(3, 4)), F(1, 4))])


class TestDeterminationSet:
    def test_interval(self, interval):
        h = propagate(interval, "a", F(1, 2))
        x = interval.position("e0", F(1, 4))
        ds = determination_set([h], x)
        assert ds.lam == (x,)
        assert ds.xi == (F(1, 4),)

    def test_star(self, star3, star_hydra):
        x = star3.position("e1", F(3, 4))
        ds = determination_set([star_hydra], x)
        assert ds.lam == tuple(
            sorted(
                [x, star3.position("e2", F(1, 4)), star3.position("e3", F(1, 4))],
                key=lambda p: p.sort_key(),
            )
        )
        assert ds.xi == (F(3, 4), F(5, 4))

    def test_xi_disjoint_same_size_in_cell(self, star3, star_hydra):
        a = determination_set([star_hydra], star3.position("e1", F(2, 3)))
        b = determination_set([star_hydra], star3.position("e1", F(4, 5)))
        assert len(a.xi) == len(b.xi)
        assert not set(a.xi) & set(b.xi)


class TestTicksAgainstReference:
    """The integer-tick queries and closures against Fraction scans of every segment."""

    def test_off_grid_seed_on_the_unit_star(self, star3, star_hydra):
        x = star3.position("e1", F(2, 3))  # 2/3 is on no grid of the lengths and T
        assert star_hydra.times_at(x) == reference_times_at([star_hydra], x) == [F(2, 3), F(4, 3)]
        seeds = [(x, F(2, 3))]
        assert lattice_closure([star_hydra], seeds) == reference_lattice_closure([star_hydra], seeds)

    def test_half_tick_crossing_and_quarter_tick_midpoint(self, interval):
        # lengths and T have denominator 1: the waves cross at (1/2, 1/2), a
        # half tick, and the cell (0, 1/2) has its midpoint at a quarter tick
        ha, hb = propagate(interval, "a", 1), propagate(interval, "b", 1)
        crossing = (interval.position("e0", F(1, 2)), F(1, 2))
        mid = interval.position("e0", F(1, 4))
        for seeds in ([crossing], [(mid, t) for t in reference_times_at([ha, hb], mid)]):
            assert lattice_closure([ha, hb], seeds) == reference_lattice_closure([ha, hb], seeds)
        assert mid in determination_set([ha, hb], mid).lam

    @given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=2),
           st.fractions(min_value=F(1, 4), max_value=F(3, 2), max_denominator=4),
           st.fractions(min_value=F(1, 7), max_value=F(6, 7), max_denominator=7))
    @settings(max_examples=40, deadline=None)
    def test_mixed_denominators(self, seed, n_sources, T, frac):
        rng = random.Random(seed)
        g = random_admissible_graph(rng, common_denominator=False)
        hydras = [propagate(g, gamma, T) for gamma in sorted(g.boundary)[:n_sources]]
        e = g.edges[rng.randrange(len(g.edges))]
        vertex = g.vertex_position(sorted(g.boundary)[0])
        off_grid = g.position(e.id, e.length * frac)
        for h in hydras:
            for x in (vertex, off_grid):
                assert h.times_at(x) == reference_times_at([h], x)
            for t in {T, T * frac, F(0)} | {s.t0 for s in h.segments}:
                assert h.positions_at(t) == reference_positions_at([h], t)
        seed_sets = [[(x, t) for t in reference_times_at(hydras, x)] for x in (vertex, off_grid)]
        seed_sets += [[p] for p in sorted(self_intersections(hydras), key=str)[:2]]
        seed_sets.append(sorted(partition.corner_points(hydras), key=str))
        part = build_partition(hydras)
        for fam in part.families[:2]:
            mid = fam.lambda_at(g, fam.epsilon / 2)[0]  # a quarter tick when cells end on half ticks
            seed_sets.append([(mid, t) for t in reference_times_at(hydras, mid)])
        for seeds in seed_sets:
            if seeds:
                assert lattice_closure(hydras, seeds) == reference_lattice_closure(hydras, seeds)


class TestCriticalPoints:
    def test_interval_half(self, interval):
        h = propagate(interval, "a", F(1, 2))
        assert critical_points([h]) == tuple(
            sorted(
                [interval.vertex_position("a"), interval.position("e0", F(1, 2))],
                key=lambda p: p.sort_key(),
            )
        )

    def test_star(self, star3, star_hydra):
        crit = set(critical_points([star_hydra]))
        assert crit == {
            star3.vertex_position("g1"),
            star3.vertex_position("c"),
            star3.position("e1", F(1, 2)),
            star3.position("e2", F(1, 2)),
            star3.position("e3", F(1, 2)),
        }

    def test_source_always_critical(self, star123):
        h = propagate(star123, "g1", F(1, 8))
        assert star123.vertex_position("g1") in critical_points([h])


class TestBuildPartition:
    def test_interval_one_family(self, interval):
        h = propagate(interval, "a", F(1, 2))
        part = build_partition([h])
        assert len(part.families) == 1
        fam = part.families[0]
        assert [(c.edge, c.lo, c.hi, c.forward) for c in fam.cells] == [
            ("e0", F(0), F(1, 2), True)
        ]
        assert fam.epsilon == F(1, 2)
        assert [tau.range_interval() for tau in fam.taus] == [(F(0), F(1, 2))]
        assert [tau.slope for tau in fam.taus] == [1]
        assert fam.taus[0](F(1, 4)) == F(1, 4)

    def test_missing_critical_point_is_a_defect(self, star3, star_hydra, monkeypatch):
        # without the cut at e1@1/2, e1 is one cell whose midpoint is that
        # point, and its determination set holds critical points (e2@1/2):
        # the self-check must raise, not build a family
        full = partition.critical_points
        dropped = star3.position("e1", F(1, 2))
        assert dropped in full([star_hydra])
        monkeypatch.setattr(partition, "critical_points", lambda hydras: tuple(
            p for p in full(hydras) if p != dropped))
        with pytest.raises(PartitionDefect, match="not inside any cell"):
            build_partition([star_hydra])

    def test_flipped_characteristic_is_an_orientation_defect(self, interval):
        # mirror a's reflected segment: it runs from mid-edge to b over t in
        # [1, 3/2] instead of from b to mid-edge, so the characteristics
        # through the midpoint closure give its cells two orientations
        T = F(3, 2)
        ha, hb = (propagate(interval, gamma, T) for gamma in ("a", "b"))
        s = ha.segments[1]
        assert (s.t0, s.t1, s.off0, s.direction) == (1, F(3, 2), 1, -1)
        segs = [ha.segments[0], replace(s, off0=s.off1, direction=1)]
        flipped = Hydra(interval, "a", T, segs, ha.events)
        with pytest.raises(PartitionDefect, match="orientations disagree"):
            build_partition([flipped, hb])

    def test_star_two_families(self, star3, star_hydra):
        part = build_partition([star_hydra])
        assert len(part.families) == 2
        f1enums = {
            tuple((c.edge, c.lo, c.hi) for c in fam.cells): fam
            for fam in part.families
        }
        fam1 = f1enums[(("e1", F(0), F(1, 2)),)]
        fam2 = f1enums[
            (("e1", F(1, 2), F(1)), ("e2", F(0), F(1, 2)), ("e3", F(0), F(1, 2)))
        ]
        assert fam1.epsilon == fam2.epsilon == F(1, 2)
        assert [tau.range_interval() for tau in fam2.taus] == [
            (F(1, 2), F(1)),
            (F(1), F(3, 2)),
        ]
        # first cell is parameterized away from g1's side; the first passage
        # moves with r, the returning one against it
        assert [tau.slope for tau in fam2.taus] == [1, -1]
        assert fam2.taus[0](F(1, 8)) == F(5, 8)
        assert fam2.taus[1](F(1, 8)) == F(11, 8)
        # mirror cells on e2/e3 sweep toward the center as r grows
        assert [c.forward for c in fam2.cells] == [True, False, False]

    def test_tau_endpoints_and_distinctness(self, star3, star_hydra):
        part = build_partition([star_hydra])
        for fam in part.families:
            for tau in fam.taus:
                lo, hi = tau.range_interval()
                assert {tau(0), tau(fam.epsilon)} == {lo, hi}
                assert hi - lo == fam.epsilon
            vals = fam.times_at(F(1, 7) * fam.epsilon)
            assert len(set(vals)) == len(vals)

    def test_tau_constant_on_determination_sets(self, star3, star_hydra):
        part = build_partition([star_hydra])
        fam = part.families[1]
        r = F(1, 3) * fam.epsilon
        lam = fam.lambda_at(star3, r)
        times = set(fam.times_at(r))
        for p in lam:
            ds = determination_set([star_hydra], p)
            assert set(ds.xi) == times

    def test_time_cells_cover_horizon_when_subcritical(self):
        rng = random.Random(41)
        from eikonal_canon import eccentricity

        for _ in range(10):
            g = random_admissible_graph(rng)
            gamma = sorted(g.boundary)[0]
            tg = eccentricity(g, gamma)
            T = tg * F(rng.randint(1, 7), 8)
            h = propagate(g, gamma, T)
            part = build_partition([h])
            ivs = sorted(
                tau.range_interval() for fam in part.families for tau in fam.taus
            )
            # merged closure of all time cells must be exactly [0, T]
            merged = [list(ivs[0])]
            for lo, hi in ivs[1:]:
                if lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            assert merged == [[F(0), T]]

    def test_two_sources_share_times_one_family(self, interval):
        # the waves never meet in space, but their points share times, so the
        # joint lattice couples the two cells into a single two-cell family;
        # the per-source frames stay supported on opposite cells
        ha = propagate(interval, "a", F(1, 4))
        hb = propagate(interval, "b", F(1, 4))
        part = build_partition([ha, hb])
        assert len(part.families) == 1
        fam = part.families[0]
        spans = sorted((c.lo, c.hi) for c in fam.cells)
        assert spans == [(F(0), F(1, 4)), (F(3, 4), F(1))]
        assert fam.epsilon == F(1, 4)
        assert [tau.range_interval() for tau in fam.taus] == [(F(0), F(1, 4))]

    def test_locality_of_waves(self, star3, star_hydra):
        # a control supported in one family's time cells produces a wave
        # supported in that family
        part = build_partition([star_hydra])
        fam2 = part.families[1]
        lo, hi = fam2.taus[1].range_interval()  # (1, 3/2)
        T = F(3, 2)
        # control phi(T - t) nonzero only for t in (lo, hi)
        phi = bump(float(T - hi), float(T - lo))
        controls = {"g1": phi}
        inside = fam2.lambda_at(star3, fam2.epsilon / 3)
        outside = part.families[0].lambda_at(star3, part.families[0].epsilon / 3)
        assert any(
            abs(wave_eval([star_hydra], controls, x, T)) > 1e-12 for x in inside
        )
        assert all(
            abs(wave_eval([star_hydra], controls, x, T)) < 1e-15 for x in outside
        )

    def test_incommensurate_cycle_hits_closure_cap(self, monkeypatch):
        # mixed-denominator cycle lengths make reflections compose into
        # translations on an lcm-fine grid; the closure is finite but huge,
        # and the cap turns it into a diagnosable error that names the
        # stage, how far the closure got and the cap
        from eikonal_canon import MetricGraph
        from eikonal_canon.errors import ClosureCapExceeded
        from eikonal_canon.partition import corner_points

        g = MetricGraph(
            [
                ("e0", ("v0", "v1"), F(6, 5)),
                ("e1", ("v1", "v2"), F(17, 7)),
                ("e2", ("v2", "v0"), F(9, 8)),
                ("e3", ("v0", "b0"), F(1, 2)),
                ("e4", ("v1", "b1"), F(5, 2)),
                ("e5", ("v2", "b2"), F(3)),
            ],
            boundary=["b0", "b1", "b2"],
        )
        h = propagate(g, "b0", F(111, 32))
        reached = r"reached \d+ points on \d+ positions and \d+ times$"
        with pytest.raises(ClosureCapExceeded,
                           match=r"^lattice closure exceeded its cap of 2000 points: " + reached):
            lattice_closure([h], corner_points([h]), cap=2000)
        real = partition.lattice_closure
        monkeypatch.setattr(partition, "lattice_closure",
                            lambda hydras, seeds: real(hydras, seeds, cap=2000))
        with pytest.raises(ClosureCapExceeded,
                           match=r"^critical-point closure: lattice closure exceeded its cap "
                                 r"of 2000 points: " + reached):
            build_partition([h])
        with pytest.raises(ClosureCapExceeded,
                           match=r"^family closure seeded at e0@3/5: lattice closure exceeded "
                                 r"its cap of 2000 points: " + reached):
            determination_set([h], g.position("e0", F(3, 5)))

    def test_randomized_partitions_are_consistent(self):
        # 8 common-denominator graphs, then 16 mixed-denominator ones at T up
        # to 11/4 (their closures grow with the lcm); every family is checked
        # at an off-centre parameter, where its cells and time cells must
        # move rigidly the way their orientations say
        rng = random.Random(97)
        for k in range(24):
            common = k < 8
            g = random_admissible_graph(rng, common_denominator=common)
            gammas = sorted(g.boundary)[:2]
            T = F(rng.randint(2, 5), 2) if common else F(rng.randint(4, 11), 4)
            hydras = [propagate(g, gam, T) for gam in gammas]
            part = build_partition(hydras)
            for fam in part.families:
                assert len({c.length for c in fam.cells}) == 1
                assert all(c.length == fam.epsilon for c in fam.cells)
                tcells = [tau.range_interval() for tau in fam.taus]
                for (_, end), (start, _) in zip(tcells, tcells[1:]):
                    assert end <= start
                # lattice consistency at a sample parameter
                r = fam.epsilon * F(2, 7)
                lam = set(fam.lambda_at(g, r))
                ds = determination_set(hydras, next(iter(lam)))
                assert set(ds.lam) == lam
                assert set(ds.xi) == set(fam.times_at(r))
