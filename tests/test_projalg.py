"""Projector-family algebra: classes, Gram, connections, reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from eikonal_canon.errors import EikonalError
from eikonal_canon.projalg import (
    connection_test,
    equivalence_classes,
    gram_matrix,
    irreducible_reduction,
    word_span_dim,
)

RT2 = 1.0 / math.sqrt(2.0)


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def classes_with_kappa(fam):
    """(members, kappa) per class, kappa read off the class's reduction."""
    return [(members, irreducible_reduction([fam[i] for i in members]).shape[1])
            for members in equivalence_classes(fam)]


class TestEquivalenceClasses:
    def test_orthogonal_pair(self):
        fam = [unit([1, 0]), unit([0, 1])]
        assert classes_with_kappa(fam) == [((0,), 1), ((1,), 1)]

    def test_overlapping_pair(self):
        fam = [unit([1, 0]), unit([1, 1])]
        assert classes_with_kappa(fam) == [((0, 1), 2)]

    def test_star_family(self):
        fam = [unit([1, 0, 0]), unit([0, 1, 1])]
        assert classes_with_kappa(fam) == [((0,), 1), ((1,), 1)]

    def test_transitive_chain(self):
        fam = [unit([1, 0, 0]), unit([0, 0, 1]), unit([1, 1, 1])]
        assert classes_with_kappa(fam) == [((0, 1, 2), 3)]

    def test_empty_family(self):
        assert equivalence_classes([]) == []


class TestGram:
    def test_orthonormal_identity(self):
        assert np.allclose(gram_matrix([unit([1, 0]), unit([0, 1])]), np.eye(2))

    def test_off_diagonal(self):
        g = gram_matrix([unit([1, 0]), unit([1, 1])])
        assert g[0, 0] == pytest.approx(1.0)
        assert g[0, 1] == pytest.approx(RT2)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(4, 5))
        fam = [unit(v) for v in vecs]
        g = gram_matrix(fam)
        assert np.allclose(g, g.T)
        assert np.allclose(np.diag(g), 1.0)


class TestConnectionTest:
    def test_identical_classes(self):
        fam = [unit([1, 0]), unit([1, 1])]
        v = connection_test(fam, fam, {0: 0, 1: 1})
        assert v.connected
        assert np.allclose(v.witness @ fam[0], fam[0])

    def test_rank_one_classes_always_connect(self):
        v = connection_test([unit([1, 0, 0])], [unit([0, 1])], {0: 0})
        assert v.connected

    def test_gram_mismatch_separates(self):
        p1 = [unit([1, 0]), unit([1, 1])]
        p2 = [unit([1, 0]), unit([0, 1])]
        v = connection_test(p1, p2, {0: 0, 1: 1})
        assert not v.connected and "Gram" in v.reason

    def test_symmetry_of_verdict(self):
        p1 = [unit([1, 0]), unit([1, 1])]
        p2 = [unit([1, 0]), unit([0, 1])]
        fwd = connection_test(p1, p2, {0: 0, 1: 1})
        back = connection_test(p2, p1, {0: 0, 1: 1})
        assert fwd.connected == back.connected
        p3 = [unit([0, 1]), unit([1, 1])]
        fwd = connection_test(p1, p3, {0: 0, 1: 1})
        back = connection_test(p3, p1, {0: 0, 1: 1})
        assert fwd.connected and back.connected

    def test_sign_flip_still_connects(self):
        # lines, not vectors: flipping a sign leaves all invariants fixed
        p1 = [unit([1, 0]), unit([1, 1])]
        p2 = [unit([-1, 0]), unit([1, 1])]
        v = connection_test(p1, p2, {0: 0, 1: 1})
        assert v.connected
        w = v.witness
        for a, b in zip(p1, p2):
            img = w @ b
            assert np.allclose(np.outer(img, img), np.outer(a, a))

    def test_triple_angle_separates(self):
        # same pairwise Grams, opposite cycle sign: invisible to pairs,
        # caught by the triple angles
        c = 0.5
        p1 = [unit([1, 0]), unit([c, math.sqrt(1 - c * c)]),
              unit([c, (c * c - c) / math.sqrt(1 - c * c) * 1.0, 0.0])]
        # build third vectors explicitly with prescribed inner products
        def third(g13, g23):
            v1 = np.array([1.0, 0.0, 0.0])
            v2 = np.array([c, math.sqrt(1 - c * c), 0.0])
            a = g13
            b = (g23 - a * c) / math.sqrt(1 - c * c)
            z = math.sqrt(max(0.0, 1 - a * a - b * b))
            return [unit(v1), unit(v2), unit([a, b, z])]

        p1 = third(0.5, 0.5)
        p2 = third(0.5, -0.5)
        v = connection_test(p1, p2, {0: 0, 1: 1, 2: 2})
        assert not v.connected and "angle" in v.reason

    def test_four_cycle_sign_separates(self):
        # same |Gram| on a 4-cycle whose chords are zero, so every triangle
        # has a zero entry; only the sign of the cycle product differs
        c = 0.4

        def cycle(last_sign):
            g = np.eye(4)
            for i, j, s in ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, last_sign)):
                g[i, j] = g[j, i] = s * c
            return [unit(v) for v in np.linalg.cholesky(g)]

        p1, p2 = cycle(1), cycle(-1)
        assert np.allclose(gram_matrix(p1), gram_matrix(p2))
        v = connection_test(p1, p2, {i: i for i in range(4)})
        assert not v.connected and "angle" in v.reason
        assert connection_test(p1, cycle(1), {i: i for i in range(4)}).connected

    def test_witness_is_algebra_morphism(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(3, 4))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        moved = base @ np.eye(4, 5) @ q.T  # same Gram, rotated into R^5
        signs = np.array([1.0, -1.0, 1.0])
        p1 = [unit(v) for v in base]
        p2 = [unit(s * v) for s, v in zip(signs, moved)]
        v = connection_test(p1, p2, {i: i for i in range(3)})
        assert v.connected
        w = v.witness
        for i in range(3):
            for j in range(3):
                pi = np.outer(p2[i], p2[i])
                pj = np.outer(p2[j], p2[j])
                lhs = w @ (pi @ pj) @ w.T
                rhs = (w @ pi @ w.T) @ (w @ pj @ w.T)
                assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_non_unit_row_rejected(self):
        rows = [unit([1, 0]), [1.0, 1.0]]
        with pytest.raises(EikonalError, match="norm"):
            connection_test(rows, [unit([1, 0]), unit([1, 1])], {0: 0, 1: 1})
        with pytest.raises(EikonalError, match="norm"):
            equivalence_classes(rows)

    def test_partial_pairing_rejected(self):
        with pytest.raises(EikonalError):
            connection_test([unit([1, 0]), unit([1, 1])], [unit([1, 0])], {0: 0})

    def test_scaling_robustness(self):
        # perturbations below tol/10 do not flip verdicts with clear margins
        rng = np.random.default_rng(17)
        tol = 1e-6
        p1 = [unit([1, 0]), unit([1, 1])]
        p2_conn = [unit([1, 0]), unit([1, 1])]
        p2_sep = [unit([1, 0]), unit([0, 1])]
        for p2, expect in ((p2_conn, True), (p2_sep, False)):
            wobbled = []
            for t in p2:
                v = t + rng.normal(size=2) * tol / 30
                wobbled.append(unit(v))
            v = connection_test(p1, wobbled, {0: 0, 1: 1}, tol)
            assert v.connected is expect


def word_span_dim_reference(mats, tol=1e-9):
    """Loop reference: absorb one word at a time by double classical GS."""
    basis = []
    cap = mats[0].shape[0] ** 2

    def absorb(m):
        if len(basis) >= cap or np.linalg.norm(m) <= tol:
            return None
        m = m / np.linalg.norm(m)
        v = m.reshape(-1).copy()
        for _ in range(2):
            for b in basis:
                v = v - (v @ b) * b
        if np.linalg.norm(v) > tol:
            basis.append(v / np.linalg.norm(v))
            return m
        return None

    gens = [m / np.linalg.norm(m) for m in mats if np.linalg.norm(m) > tol]
    layer = [k for k in map(absorb, mats) if k is not None]
    while layer and len(basis) < cap:
        layer = [k for k in (absorb(g @ m) for m in layer for g in gens)
                 if k is not None]
    return len(basis)


def block_algebra_generators(rng):
    """2-4 generators of a rotated direct sum of M_k (x) I_m, k <= 3."""
    parts = [(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
             for _ in range(rng.integers(1, 4))]
    n = sum(k * m for k, m in parts)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    gens = []
    for _ in range(int(rng.integers(2, 5))):
        g = np.zeros((n, n))
        o = 0
        for k, m in parts:
            if rng.integers(2):
                v = rng.normal(size=k)
                a = np.outer(v, v) / (v @ v)
            else:
                a = rng.normal(size=(k, k))
                a = a + a.T
            g[o:o + k * m, o:o + k * m] = np.kron(a, np.eye(m))
            o += k * m
        gens.append(q @ g @ q.T)
    return gens


def assert_spans(q, fam):
    """q has orthonormal columns whose span holds every row of fam."""
    assert np.allclose(q.T @ q, np.eye(q.shape[1]))
    for p in fam:
        assert np.allclose(q @ q.T @ p, p)


class TestReductionAndWords:
    def test_full_rank_class(self):
        fam = [unit([1, 0]), unit([1, 1])]
        q = irreducible_reduction(fam)
        assert q.shape == (2, 2)
        assert_spans(q, fam)

    def test_one_dim_class_in_r3(self):
        fam = [unit([0, 1, 1])]
        q = irreducible_reduction(fam)
        assert q.shape == (3, 1)
        assert_spans(q, fam)

    def test_zero_padding_stripped(self):
        fam = [unit([1, 1, 0, 0]), unit([0, 1, 0, 0])]
        q = irreducible_reduction(fam)
        assert q.shape == (4, 2)
        assert np.allclose(q[2:, :], 0)
        assert_spans(q, fam)

    def test_word_span_reaches_kappa_squared(self):
        rng = np.random.default_rng(31)
        for n, m in [(2, 3), (3, 5), (4, 4)]:
            vecs = rng.normal(size=(n, m))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            fam = [unit(v) for v in vecs]
            (members,) = equivalence_classes(fam)  # generic vectors: one class
            kappa = irreducible_reduction([fam[i] for i in members]).shape[1]
            mats = [np.outer(v, v) for v in vecs]
            assert word_span_dim(mats) == kappa ** 2

    def test_word_span_with_multiplicity(self):
        # M_2 acting on R^2 (x) R^2 with multiplicity 2: dimension 4, not 16
        p1 = np.diag([1.0, 0.0])
        p2 = np.full((2, 2), 0.5)
        eye = np.eye(2)
        assert word_span_dim([np.kron(p1, eye), np.kron(p2, eye)]) == 4

    def test_word_span_matches_loop_reference(self):
        # growing the next round from span directions instead of words
        # amplifies roundoff and overcounts two of these (49 for 17, 81 for 18)
        rng = np.random.default_rng(3)
        for _ in range(40):
            gens = block_algebra_generators(rng)
            assert word_span_dim(gens) == word_span_dim_reference(gens)

    def test_word_span_block_diagonal(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        assert word_span_dim([p, q]) == 2
