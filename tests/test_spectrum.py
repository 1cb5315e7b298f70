"""Spectrum model: clusters at block ends, coordinates, quotient graphs."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eikonal_canon import (
    MetricGraph,
    build_parametric,
    build_partition,
    boundary_clusters,
    build_spectrum,
    canonicalize,
    family_frames,
    gamma_coordinates,
    propagate,
    quotient_graph,
    sigma_ac,
)
from eikonal_canon.canonical import BlockTerm, CanonicalBlock
from eikonal_canon.errors import InvariantViolation
from eikonal_canon.projalg import word_span_dim
from eikonal_canon.representation import LinearTimeFn
from eikonal_canon.spectrum import algebra_summands

from conftest import reference_summand_dims, reference_word_span_dim
from test_golden_json import INSTANCES as GOLDEN_INSTANCES

F = Fraction


def pipeline(g, sigma, T):
    hydras = [propagate(g, gamma, T) for gamma in sorted(sigma)]
    part = build_partition(hydras)
    frames = family_frames(part, hydras)
    repr_ = build_parametric(part, frames, shifted=True)
    return repr_, canonicalize(repr_)


def mk_block(length, terms):
    dim = len(terms[0][2])
    bts = tuple(
        BlockTerm(gamma, k, LinearTimeFn(F(t0), slope, F(length)),
                  np.asarray(beta, float))
        for k, (gamma, (t0, slope), beta) in enumerate(terms))
    return CanonicalBlock(F(length), dim, bts)


class TestBoundaryClusters:
    def test_kappa_one_single_summand(self, interval):
        _, cf = pipeline(interval, ["a"], F(1, 2))
        assert boundary_clusters(cf.blocks[0], 0) == [1]
        assert boundary_clusters(cf.blocks[0], 1) == [1]

    def test_diagonal_algebra_full_split(self):
        # two sources with orthogonal rank-1 projectors at distinct values:
        # a maximal commutative subalgebra of M^2 -> two summands of size 1
        block = mk_block(1, [
            ("a", (1, 1), [1.0, 0.0]),
            ("b", (2, 1), [0.0, 1.0]),
        ])
        assert boundary_clusters(block, 0) == [1, 1]

    def test_generic_end_full_algebra(self):
        c, s = math.cos(0.7), math.sin(0.7)
        block = mk_block(1, [
            ("a", (1, 1), [1.0, 0.0]),
            ("b", (2, 1), [c, s]),
        ])
        assert boundary_clusters(block, 0) == [2]

    def test_star_overlap_creates_cluster(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        big = max(cf.blocks, key=lambda b: b.kappa)
        assert big.kappa == 3
        assert boundary_clusters(big, 0) == [3]
        assert boundary_clusters(big, 1) == [1, 2]

    def test_summand_dims_bounded(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        for cb in cf.blocks:
            for end in (0, 1):
                assert sum(boundary_clusters(cb, end)) <= cb.kappa

    def test_ill_conditioned_star_summands_are_squares(self):
        # the rank-13 summands at these two ends have word-span residuals down
        # to 1.6e-7, which a word-by-word span miscounts at a pick threshold
        # of tol (170 for 169); the eigenspace reading has no such threshold
        g = MetricGraph([("e0", ("c", "b0"), 1), ("e1", ("c", "b1"), F(17, 7)),
                         ("e2", ("c", "b2"), F(4, 7))], boundary=["b0", "b1", "b2"])
        _, cf = pipeline(g, ["b0", "b1", "b2"], F(5, 2))
        assert [cb.kappa for cb in cf.blocks] == [25, 24, 1]
        assert boundary_clusters(cf.blocks[0], 0) == [12, 13]
        assert boundary_clusters(cf.blocks[1], 0) == [1, 10, 13]


def random_symmetric(rng, d):
    a = rng.normal(size=(d, d))
    return a + a.T


def summand_family(rng, near_equivalent: bool):
    """(generators, summands) of a rotated direct sum of M_d (x) I_m, d <= 3, m <= 2.

    Per summand the first generator block is a random symmetric matrix and
    the others random symmetric or rank-one, so each summand's blocks
    generate M_d.  near_equivalent adds a second, multiplicity-one copy of
    the first summand, its blocks moved by 1e-3: an inequivalent summand
    whose h eigenvalues sit close to the first's.
    """
    k = int(rng.integers(2, 5))
    parts = [(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
             for _ in range(rng.integers(1, 4))]
    blocks = []
    for d, _ in parts:
        gens = [random_symmetric(rng, d)]
        for _ in range(k - 1):
            v = rng.normal(size=d)
            gens.append(random_symmetric(rng, d) if rng.integers(2) else np.outer(v, v) / (v @ v))
        blocks.append(gens)
    if near_equivalent:
        parts.append((parts[0][0], 1))
        blocks.append([a + 1e-3 * random_symmetric(rng, len(a)) for a in blocks[0]])
    n = sum(d * m for d, m in parts)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    gens = []
    for i in range(k):
        g = np.zeros((n, n))
        o = 0
        for (d, m), per_gen in zip(parts, blocks):
            g[o:o + d * m, o:o + d * m] = np.kron(per_gen[i], np.eye(m))
            o += d * m
        gens.append(q @ g @ q.T)
    return gens, sorted(parts)


def end_generators(cb, end):
    r = cb.length if end else F(0)
    return [cb.generator_at(g, r) for g in sorted({t.gamma for t in cb.terms})]


class TestAlgebraSummands:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_summands_match_commutant_reference(self, seed, near_equivalent):
        gens, parts = summand_family(np.random.default_rng(seed), near_equivalent)
        got = algebra_summands(gens)
        assert sorted(got) == parts
        assert sorted(d for d, _ in got) == reference_summand_dims(gens)

    def test_multiplicity_two(self):
        # M_2 acting on R^2 (x) R^2 with multiplicity 2: words span 4, not 16
        p1 = np.diag([1.0, 0.0])
        p2 = np.full((2, 2), 0.5)
        gens = [np.kron(p1, np.eye(2)), np.kron(p2, np.eye(2))]
        assert reference_word_span_dim(gens) == 4
        assert algebra_summands(gens) == [(2, 2)]

    def test_complex_summand_raises(self):
        # M_2(C) acting on R^4: the realified Hermitian generators are
        # symmetric, but their blocks read a I + b J, not G (x) I_2, and their
        # commutant is C, not a real matrix algebra (two Hermitian 2 x 2
        # matrices are real up to a unitary; three are not)
        rng = np.random.default_rng(5)
        gens = []
        for _ in range(3):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            gens.append(np.block([[h.real, -h.imag], [h.imag, h.real]]))
        with pytest.raises(InvariantViolation, match="not a sum of real matrix algebras"):
            algebra_summands(gens)

    def test_subspace_where_generators_vanish_is_no_summand(self):
        assert algebra_summands([np.diag([1.0, 2.0, 0.0])]) == [(1, 1), (1, 1)]

    @pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
    def test_golden_blocks_match_reference(self, name):
        make_graph, sigma, horizon = GOLDEN_INSTANCES[name]
        _, cf = pipeline(make_graph(), sigma, horizon)
        for cb in cf.blocks:
            assert word_span_dim(cb.betas()) == reference_word_span_dim(
                [t.projector() for t in cb.terms]) == cb.kappa ** 2
            for end in (0, 1):
                assert boundary_clusters(cb, end) == reference_summand_dims(
                    end_generators(cb, end))


class TestLargeBlocks:
    def test_pendant_triangle_block_is_irreducible_at_both_ends(self):
        # the commutant and word-span reading raised "summand word-span 480
        # is not a perfect square" at both ends of the kappa-22 block
        g = MetricGraph([("e0", ("v0", "v1"), F(17, 6)), ("e1", ("v1", "v2"), F(17, 12)),
                         ("e2", ("v2", "v0"), F(11, 12)), ("e3", ("v0", "b0"), F(5, 3)),
                         ("e4", ("v1", "b1"), F(9, 4)), ("e5", ("v2", "b2"), F(1, 2))],
                        boundary=["b0", "b1", "b2"])
        _, cf = pipeline(g, ["b0", "b2"], F(5, 2))
        segments = build_spectrum(cf).segments
        (seg,) = [s for s in segments if cf.blocks[s.block].kappa == 22]
        assert seg.start_summands == seg.end_summands == (22,)

    def test_kappa_247_tree_block_without_kappa4_arrays(self):
        # sweep seed 0's instance 385: the word span of this block's
        # projectors asked for 247^4 floats (30 GB) and raised OSError
        g = MetricGraph([("e0", ("c", "b0"), F(9, 10)), ("e1", ("c", "b1"), F(7, 3)),
                         ("e2", ("c", "b2"), F(2)), ("e3", ("b2", "b3"), F(1)),
                         ("e4", ("b2", "b4"), F(2))], boundary=["b0", "b1", "b3", "b4"])
        _, cf = pipeline(g, ["b0", "b1", "b3", "b4"], F(9, 2))
        (cb,) = cf.blocks
        assert cb.kappa == 247
        tracemalloc.start()
        try:
            full = word_span_dim(cb.betas())
            ends = boundary_clusters(cb, 0), boundary_clusters(cb, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full == 247 ** 2
        assert ends == ([247], [1, 246])
        # K kappa^2 floats are about 2 MB here; one kappa^3 array would be 120 MB
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("lengths, sigma, horizon, kappa, end, want", [
        # sweep seed 0 "triangle den=3 T=4 #4": two inequivalent M_14
        # summands whose h eigenvalues can come within 1e-7 of each other
        (("2", "4/3", "1", "3", "3", "5/3"), ["b0", "b2"], F(4), 28, 1, [14, 14]),
        # sweep seed 0 "triangle mixed T=7/2 #7": the word span counted 1599
        (("1", "13/6", "5/2", "4/5", "3/2", "7/10"), ["b0", "b1"], F(7, 2), 40, 0, [40]),
        # sweep seed 2 "triangle den=10 T=3 #7": two summands so near each
        # other that every random element has eigenvalue pairs within 1e-10,
        # read through the commutant (the word span counted 323); sweep seed 5
        # "triangle den=5 T=7/2 #1", whose other end has such a pair of
        # summands (the word span counted 1022 here)
        (("3/2", "14/5", "11/10", "1/2", "13/10", "13/5"), ["b0", "b2"], F(3), 36, 0, [18, 18]),
        (("2", "3/5", "3", "13/5", "1", "11/5"), ["b1", "b2"], F(7, 2), 32, 1, [32]),
    ])
    def test_sweep_triangle_ends(self, lengths, sigma, horizon, kappa, end, want):
        cycle, pendants = lengths[:3], lengths[3:]
        edges = [(f"e{i}", (f"v{i}", f"v{(i + 1) % 3}"), F(x)) for i, x in enumerate(cycle)]
        edges += [(f"e{3 + i}", (f"v{i}", f"b{i}"), F(x)) for i, x in enumerate(pendants)]
        _, cf = pipeline(MetricGraph(edges, boundary=["b0", "b1", "b2"]), sigma, horizon)
        cb = next(cb for cb in cf.blocks if cb.kappa == kappa)
        assert boundary_clusters(cb, end) == want


class TestBuildSpectrum:
    def test_interval_segment(self, interval):
        _, cf = pipeline(interval, ["a"], F(1, 2))
        sm = build_spectrum(cf)
        (seg,) = sm.segments
        assert seg.length == F(1, 2)
        assert seg.start_cluster == seg.end_cluster == 1
        assert list(sm.sigma_ac["a"]) == [(F(1), F(3, 2))]

    def test_star_single_segment(self, star3):
        _, cf = pipeline(star3, ["g1"], F(3, 2))
        sm = build_spectrum(cf)
        (seg,) = sm.segments
        assert seg.length == F(3, 2)
        assert seg.start_summands == (1,) and seg.end_summands == (1,)

    def test_disjoint_two_source_case(self, interval):
        _, cf = pipeline(interval, ["a", "b"], F(1, 4))
        sm = build_spectrum(cf)
        assert len(sm.segments) == 2
        assert all(seg.start_cluster == 1 and seg.end_cluster == 1
                   for seg in sm.segments)

    def test_no_cluster_at_small_horizon(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(1, 2))
        sm = build_spectrum(cf)
        assert all(max(seg.start_cluster, seg.end_cluster) == 1
                   for seg in sm.segments)

    def test_cluster_at_overlapping_horizon(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        sm = build_spectrum(cf)
        assert any(max(seg.start_cluster, seg.end_cluster) >= 2
                   for seg in sm.segments)

    def test_canonical_sigma_matches_parametric(self, star3):
        repr_, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        sm = build_spectrum(cf)
        for gamma in cf.sigma:
            assert list(sm.sigma_ac[gamma]) == sigma_ac(repr_, gamma)

    def test_no_interior_coincidences_on_star(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        sm = build_spectrum(cf)
        assert sm.interior_coincidences == ()

    def test_interior_evaluation_irreducible(self, star3):
        # at interior parameters the evaluated generators span kappa^2 words
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        for cb in cf.blocks:
            r = cb.length / 3
            gens = [cb.generator_at(g, r) for g in cf.sigma]
            gens = [m for m in gens if np.max(np.abs(m)) > 0]
            assert reference_word_span_dim(gens) == cb.kappa ** 2
            assert algebra_summands(gens) == [(cb.kappa, 1)]


class TestGammaCoordinates:
    def test_star_interior_point(self, star3):
        _, cf = pipeline(star3, ["g1"], F(3, 2))
        coords = gamma_coordinates(cf, 0, F(1, 4))
        assert coords == {"g1": (F(5, 4),)}

    def test_interior_injectivity(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        for i in range(len(cf.blocks)):
            a = gamma_coordinates(cf, i, cf.blocks[i].length / 3)
            b = gamma_coordinates(cf, i, cf.blocks[i].length / 5)
            assert a != b

    def test_sweep_covers_cells(self, star3):
        _, cf = pipeline(star3, ["g1"], F(3, 2))
        cb = cf.blocks[0]
        t = cb.terms[0]
        lo, hi = t.tau.range_interval()
        left = gamma_coordinates(cf, 0, 0)["g1"][0]
        right = gamma_coordinates(cf, 0, cb.length)["g1"][0]
        assert {left, right} == {lo, hi}

    def test_out_of_range(self, star3):
        _, cf = pipeline(star3, ["g1"], F(3, 2))
        with pytest.raises(Exception):
            gamma_coordinates(cf, 0, F(7))


class TestQuotientGraph:
    def test_interval_path(self, interval):
        _, cf = pipeline(interval, ["a"], F(1, 2))
        q = quotient_graph(build_spectrum(cf))
        assert len(q.nodes) == 2
        assert q.edges == ((0, 1, F(1, 2), 0),)

    def test_star_single_edge(self, star3):
        _, cf = pipeline(star3, ["g1"], F(3, 2))
        q = quotient_graph(build_spectrum(cf))
        assert len(q.nodes) == 2
        assert q.edges[0][2] == F(3, 2)

    def test_star_two_sources_folds_to_star(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        q = quotient_graph(build_spectrum(cf))
        # three segments meeting at one identified center node
        assert len(q.edges) == 3
        lengths = sorted(e[2] for e in q.edges)
        assert lengths == [F(1, 4), F(3, 4), F(3, 4)]
        degree = {}
        for a, b, _, _ in q.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert sorted(degree.values()) == [1, 1, 1, 3]

    def test_identified_nodes_share_coordinates(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        sm = build_spectrum(cf)
        q = quotient_graph(sm)
        for node in q.nodes:
            if len(node) < 2:
                continue
            for (b1, e1) in node:
                coords1 = gamma_coordinates(
                    cf, b1, cf.blocks[b1].length if e1 else F(0))
                linked = False
                for (b2, e2) in node:
                    if (b1, e1) == (b2, e2):
                        continue
                    coords2 = gamma_coordinates(
                        cf, b2, cf.blocks[b2].length if e2 else F(0))
                    if any(set(coords1[g]) & set(coords2[g]) for g in cf.sigma):
                        linked = True
                assert linked
