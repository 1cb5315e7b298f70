"""Alpha-sets, Gram-Schmidt frames and family frame assembly."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eikonal_canon import build_partition, eccentricity, propagate
from eikonal_canon import frames
from eikonal_canon.errors import InvariantViolation
from eikonal_canon.frames import AlphaSet, alpha_set, beta_frame, family_frames, gram_schmidt

from conftest import (dense, probe_positions, random_admissible_graph, reference_amplitude_at,
                      reference_betas)

F = Fraction
RT2 = 1.0 / math.sqrt(2.0)


class TestAlphaSet:
    def test_interval_single_entry(self, interval):
        h = propagate(interval, "a", F(1, 2))
        a = alpha_set(h, [interval.position("e0", F(1, 4))], [F(1, 4)])
        assert dense(a) == ((F(1),),)

    def test_star_two_rows(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        lam = [
            star3.position("e1", F(3, 4)),
            star3.position("e2", F(1, 4)),
            star3.position("e3", F(1, 4)),
        ]
        a = alpha_set(h, lam, [F(3, 4), F(5, 4)])
        assert dense(a) == (
            (F(1), F(0), F(0)),
            (F(-1, 3), F(2, 3), F(2, 3)),
        )

    def test_repeated_time_repeats_its_row(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        lam = [star3.position("e1", F(3, 4)), star3.position("e2", F(1, 4))]
        a = alpha_set(h, lam, [F(5, 4), F(3, 4), F(5, 4)])
        assert dense(a) == ((F(1), F(0)), (F(-1, 3), F(2, 3)), (F(-1, 3), F(2, 3)))
        assert np.array_equal(a.as_float(), np.array(dense(a), dtype=float))

    def test_off_hydra_zero_entries(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        a = alpha_set(h, [star3.position("e2", F(1, 4))], [F(3, 4)])
        assert dense(a) == ((F(0),),)

    @staticmethod
    def reference(h, positions, times):
        return tuple(tuple(reference_amplitude_at(h, x, t) for x in positions)
                     for t in sorted(times))

    @given(st.integers(min_value=0, max_value=10 ** 6), st.booleans(),
           st.fractions(min_value=F(1, 4), max_value=F(5), max_denominator=8))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_entry_reference(self, seed, common, T):
        g = random_admissible_graph(random.Random(seed), common_denominator=common)
        hydras = [propagate(g, gamma, T) for gamma in sorted(g.boundary)]
        positions = probe_positions(g, hydras)
        for h in hydras:
            times = {t for x in positions for t in h.times_at(x)} | {T / 3}
            a = alpha_set(h, positions, times)
            assert dense(a) == self.reference(h, positions, times)
            assert np.array_equal(a.as_float(), np.array(dense(a), dtype=float)
                                  .reshape(len(a.times), len(a.positions)))

    def test_family_grids_match_reference(self, star123):
        hydras = [propagate(star123, gamma, F(3)) for gamma in ("g1", "g3")]
        part = build_partition(hydras)
        for fam in part.families:
            r = fam.epsilon / 3
            lam, xi = fam.lambda_at(star123, r), fam.times_at(r)
            for h in hydras:
                assert dense(alpha_set(h, lam, xi)) == self.reference(h, lam, xi)


class TestGramSchmidt:
    def test_already_orthonormal(self):
        frame = gram_schmidt(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(frame.vectors, np.eye(2))
        assert frame.nonzero == (0, 1)

    def test_star_second_vector(self):
        a = np.array([[1.0, 0.0, 0.0], [-1 / 3, 2 / 3, 2 / 3]])
        frame = gram_schmidt(a)
        assert np.allclose(frame.vectors[0], [1, 0, 0])
        assert np.allclose(frame.vectors[1], [0, RT2, RT2])

    def test_dependent_row_zeroed(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        frame = gram_schmidt(a)
        assert frame.nonzero == (0,)
        assert np.allclose(frame.vectors[1], 0)

    def test_zero_first_lenient(self):
        frame = gram_schmidt(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert frame.nonzero == (1,)


def sparse_alpha(rows) -> AlphaSet:
    """An alpha-set with the given rational rows (its positions are placeholders)."""
    m = max((len(r) for r in rows), default=0)
    entries = {(i, j): F(a) for i, r in enumerate(rows) for j, a in enumerate(r) if a}
    return AlphaSet(tuple(range(m)), tuple(F(i) for i in range(len(rows))), entries)


def assert_matches_gram_schmidt(alpha: AlphaSet) -> None:
    frame, reference = beta_frame(alpha), gram_schmidt(alpha.as_float())
    assert frame.nonzero == reference.nonzero
    assert frame.vectors.shape == reference.vectors.shape
    if frame.vectors.size:
        assert np.max(np.abs(frame.vectors - reference.vectors)) <= 1e-12


@st.composite
def planted_rows(draw):
    """Sparse rational rows with empty, duplicated and combined rows planted among them."""
    m = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "empty", "copy", "combination"]))
        if kind == "empty" or (kind != "fresh" and not rows):
            rows.append([F(0)] * m)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            coefs = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                                  min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coefs, rows)), F(0))
                         for j in range(m)])
        else:
            rows.append(draw(st.lists(entry, min_size=m, max_size=m)))
    return rows


class TestBetaFrame:
    @given(planted_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_gram_schmidt(self, rows):
        assert_matches_gram_schmidt(sparse_alpha(rows))

    def test_dependent_mod_p_only_is_kept(self):
        # 2^61 - 1 vanishes modulo the elimination prime, but not over Q
        p = F(frames.PRIME)
        assert beta_frame(sparse_alpha([[p]])).nonzero == (0,)
        frame = beta_frame(sparse_alpha([[1, 0], [1, p]]))
        assert frame.nonzero == (0, 1)
        assert np.allclose(frame.vectors, np.eye(2))
        # once such a row is kept, a row independent mod p of the others'
        # images can still be dependent over Q: [0, 1] = (row 1 - row 0) / p
        frame = beta_frame(sparse_alpha([[1, 1], [1, p + 1], [0, 1], [1, 0]]))
        assert frame.nonzero == (0, 1)

    def test_dependence_too_large_to_lift_is_zeroed(self):
        # the combination's multiple 2^40 exceeds what rational
        # reconstruction modulo 2^61 - 1 recovers; the exact check decides
        frame = beta_frame(sparse_alpha([[1, 0, 0], [0, 1, 1], [2 ** 40, 3, 3], [0, 0, 1]]))
        assert frame.nonzero == (0, 1, 3)
        assert not frame.vectors[2].any()

    def test_ill_conditioned_component_matches_exact_reference(self):
        # rows 0, 2 and 5 span columns 0-2 with condition number about 314,
        # where a CholeskyQR pass loses 1e-12 orthonormality (about 7e-12);
        # row 3 is row 0 + row 2, rows 1 and 4 are a second component and
        # row 6 a third
        d = F(1, 60)
        rows = [
            [1, 1, 1, 0, 0, 0],
            [0, 0, 0, 1, 2, 0],
            [1, 1 + d, 1, 0, 0, 0],
            [2, 2 + d, 2, 0, 0, 0],
            [0, 0, 0, 2, 3, 0],
            [1, 1, 1 - d, 0, 0, 0],
            [0, 0, 0, 0, 0, 3],
        ]
        frame = beta_frame(sparse_alpha(rows))
        assert frame.nonzero == (0, 1, 2, 4, 5, 6)
        assert np.max(np.abs(frame.vectors - reference_betas(rows))) <= 1e-12
        nz = frame.nonzero_matrix()
        assert np.max(np.abs(nz @ nz.T - np.eye(len(nz)))) <= 1e-14
        outside = np.ones(frame.vectors.shape, bool)
        for comp, cols in (([0, 2, 3, 5], [0, 1, 2]), ([1, 4], [3, 4]), ([6], [5])):
            outside[np.ix_(comp, cols)] = False
        assert not frame.vectors[outside].any()

    def test_golden_instances_match_gram_schmidt(self):
        from test_golden_json import INSTANCES

        for make_graph, sigma, horizon in INSTANCES.values():
            g = make_graph()
            hydras = [propagate(g, gamma, horizon) for gamma in sigma]
            part = build_partition(hydras)
            for fam in part.families:
                r = fam.epsilon / 3
                lam, xi = fam.lambda_at(g, r), fam.times_at(r)
                for h in hydras:
                    assert_matches_gram_schmidt(alpha_set(h, lam, xi))


class TestFamilyFrames:
    def test_interval(self, interval):
        h = propagate(interval, "a", F(1, 2))
        part = build_partition([h])
        frames = family_frames(part, [h])
        frame = frames[(0, "a")]
        assert frame.vectors.shape == (1, 1)
        assert frame.vectors[0, 0] == 1.0

    def test_star_family2(self, star3):
        h = propagate(star3, "g1", F(3, 2))
        part = build_partition([h])
        fam2 = next(f for f in part.families if f.dim == 3)
        frame = family_frames(part, [h])[(fam2.index, "g1")]
        assert np.allclose(frame.vectors[0], [1, 0, 0])
        assert np.allclose(frame.vectors[1], [0, RT2, RT2])

    def test_sigma_zero_extension(self, interval):
        ha = propagate(interval, "a", F(1, 4))
        hb = propagate(interval, "b", F(1, 4))
        part = build_partition([ha, hb])
        frames = family_frames(part, [ha, hb])
        fa, fb = frames[(0, "a")], frames[(0, "b")]
        # joint determination set has two points; each source supports one
        assert fa.vectors.shape == (1, 2)
        va, vb = fa.vectors[0], fb.vectors[0]
        assert sorted([abs(va[0]), abs(va[1])]) == [0.0, 1.0]
        assert np.allclose(np.abs(va) + np.abs(vb), [1.0, 1.0])
        sa, sb = fa.vectors.any(axis=0), fb.vectors.any(axis=0)
        assert sa.sum() == 1 and sb.sum() == 1
        assert not np.any(sa & sb)

    def test_far_sources_still_share_one_family(self, star123):
        # waves from g1 and g3 stay far apart at T=1/2, yet the shared times
        # couple their cells into one family; each frame is supported on its
        # own source's side only
        hg1 = propagate(star123, "g1", F(1, 2))
        hg3 = propagate(star123, "g3", F(1, 2))
        part = build_partition([hg1, hg3])
        assert len(part.families) == 1
        fam = part.families[0]
        assert {c.edge for c in fam.cells} == {"e1", "e3"}
        frames = family_frames(part, [hg1, hg3])
        f1, f3 = frames[(fam.index, "g1")], frames[(fam.index, "g3")]
        assert f1.nonzero == (0,) and f3.nonzero == (0,)
        assert not np.any(f1.vectors.any(axis=0) & f3.vectors.any(axis=0))
        assert np.allclose(np.abs(f1.vectors[0]) + np.abs(f3.vectors[0]), 1.0)

    def test_zero_row_for_single_subcritical_source_raises(self, star3, monkeypatch):
        h = propagate(star3, "g1", F(3, 2))  # eccentricity 2: subcritical
        part = build_partition([h])
        real = frames.alpha_set

        def repeat_first_row(*args):
            a = real(*args)
            return AlphaSet(a.positions, a.times, {
                (i, j): v for (r, j), v in a.entries.items() if r == 0
                for i in range(len(a.times))})

        monkeypatch.setattr(frames, "alpha_set", repeat_first_row)
        with pytest.raises(InvariantViolation, match="single subcritical source"):
            family_frames(part, [h])

    def test_orthonormality_randomized(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(20):
            g = random_admissible_graph(rng)
            gamma = sorted(g.boundary)[0]
            T = eccentricity(g, gamma) * F(rng.randint(1, 7), 8)
            h = propagate(g, gamma, T)
            part = build_partition([h])
            for (j, _), frame in family_frames(part, [h]).items():
                assert frame.nonzero == tuple(range(frame.n))  # subcritical
                nz = frame.nonzero_matrix()
                assert np.max(np.abs(nz @ nz.T - np.eye(frame.n))) <= 1e-8
                checked += 1
        assert checked > 10
