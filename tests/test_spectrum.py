"""Spectrum model: clusters at block ends, coordinates, quotient graphs."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

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
from eikonal_canon.representation import LinearTimeFn

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

    def test_commutant_basis_matches_stacked_reference(self):
        # the preallocated stack holds the same rows as stacking the scaled
        # commutator maps, so the SVD and the basis agree bit for bit
        from eikonal_canon.spectrum import _commutant_basis

        rng = np.random.default_rng(3)
        for n, count in ((1, 2), (3, 4), (5, 3)):
            gens = [rng.normal(size=(n, n)) * rng.choice([0.5, 3.0])
                    for _ in range(count)]
            eye = np.eye(n)
            stack = np.vstack([(np.kron(eye, g) - np.kron(g.T, eye))
                               / max(1.0, float(np.linalg.norm(g))) for g in gens])
            _, sv, vt = np.linalg.svd(stack, full_matrices=False)
            rank = int(np.sum(sv > 1e-9 * max(1.0, sv[0]))) if sv[0] else 0
            got = _commutant_basis(gens, 1e-9)
            assert len(got) == len(vt) - rank
            for x, v in zip(got, vt[rank:]):
                assert np.array_equal(x, v.reshape(n, n))

    def test_summand_dims_bounded(self, star3):
        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        for cb in cf.blocks:
            for end in (0, 1):
                assert sum(boundary_clusters(cb, end)) <= cb.kappa

    def test_ill_conditioned_star_summands_are_squares(self):
        # the rank-13 summands at these two ends have genuine word residuals
        # down to 1.6e-7, and the roundoff those directions carry reaches
        # 1.8e-9: a pick threshold of tol would count a span of 170
        g = MetricGraph([("e0", ("c", "b0"), 1), ("e1", ("c", "b1"), F(17, 7)),
                         ("e2", ("c", "b2"), F(4, 7))], boundary=["b0", "b1", "b2"])
        _, cf = pipeline(g, ["b0", "b1", "b2"], F(5, 2))
        assert [cb.kappa for cb in cf.blocks] == [25, 24, 1]
        assert boundary_clusters(cf.blocks[0], 0) == [12, 13]
        assert boundary_clusters(cf.blocks[1], 0) == [1, 10, 13]


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
        from eikonal_canon import word_span_dim

        _, cf = pipeline(star3, ["g1", "g2"], F(5, 4))
        for cb in cf.blocks:
            r = cb.length / 3
            gens = [cb.generator_at(g, r) for g in cf.sigma]
            gens = [m for m in gens if np.max(np.abs(m)) > 0]
            assert word_span_dim(gens) == cb.kappa ** 2


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
