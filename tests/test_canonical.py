"""Block splitting, boundary pairing, junctions and the canonical form."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from eikonal_canon import (
    boundary_map,
    build_parametric,
    build_partition,
    canonicalize,
    equivalent_forms,
    family_frames,
    propagate,
    recanonicalize,
    sigma_ac,
    split_blocks,
    word_span_dim,
)
from eikonal_canon.canonical import (
    BlockTerm,
    CanonicalBlock,
    Piece,
    canonicalize_blocks,
    connection_test,
    junction,
    junction_candidates,
    transpose_block,
)
from eikonal_canon.errors import EikonalError, StructuralFault
from eikonal_canon.representation import LinearTimeFn, evaluate_at

from conftest import random_admissible_graph

F = Fraction


def make_repr(g, sigma, T):
    hydras = [propagate(g, gamma, T) for gamma in sorted(sigma)]
    part = build_partition(hydras)
    frames = family_frames(part, hydras)
    return part, build_parametric(part, frames, shifted=True)


class TestSplitBlocks:
    def test_interval(self, interval):
        _, repr_ = make_repr(interval, ["a"], F(1, 2))
        blocks = split_blocks(repr_)
        assert len(blocks) == 1
        assert blocks[0].length == F(1, 2) and blocks[0].kappa == 1

    def test_star_three_blocks(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        blocks = split_blocks(repr_)
        assert len(blocks) == 3
        assert all(b.length == F(1, 2) for b in blocks)
        taus = sorted((str(t.tau.intercept), t.tau.slope)
                      for b in blocks for t in b.terms)
        assert taus == [("1", 1), ("3/2", 1), ("5/2", -1)]

    def test_single_class_family_single_block(self, star3):
        _, repr_ = make_repr(star3, ["g1", "g2"], F(5, 4))
        blocks = split_blocks(repr_)
        dims = sorted(
            (b.length, len({t.gamma for t in b.terms}), len(b.terms))
            for b in blocks)
        # two kappa=1 blocks of length 3/4 and one joint block of length 1/4
        assert dims == [(F(1, 4), 2, 4), (F(3, 4), 1, 1), (F(3, 4), 1, 1)]


def end_kinds(table):
    """(source, value, kind, tags) per table entry: kind 1 is a lone tag, 2 a
    pair within one block, 3 a pair across two blocks."""
    return [(gamma, value, 1 if len(group) == 1 else
             2 if group[0][0] == group[1][0] else 3, len(group))
            for (gamma, value), group in table.items()]


class TestBoundaryMap:
    def test_star_types(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        blocks = split_blocks(repr_)
        by_value = {}
        for _, value, kind, _ in end_kinds(boundary_map(blocks)):
            by_value.setdefault(str(value), set()).add(kind)
        assert by_value == {"1": {1}, "3/2": {3}, "2": {3}, "5/2": {1}}

    def test_type_two_collision(self, star3):
        _, repr_ = make_repr(star3, ["g1", "g2"], F(5, 4))
        blocks = split_blocks(repr_)
        kinds = {}
        for _, _, kind, n_tags in end_kinds(boundary_map(blocks)):
            kinds.setdefault(kind, 0)
            kinds[kind] += n_tags
        # collisions of the two taus at the big family's wavefront end are
        # same-block pairs for each source
        assert kinds.get(2, 0) == 4

    def test_involution(self, star3):
        _, repr_ = make_repr(star3, ["g1", "g2"], F(5, 4))
        blocks = split_blocks(repr_)
        partner = {}
        for (gamma, _), group in boundary_map(blocks).items():
            for tag, other in zip(group, group[::-1]):
                partner[(gamma, *tag)] = (gamma, *other)
        assert len(partner) == 2 * sum(len(b.terms) for b in blocks)
        for tag in partner:
            assert partner[partner[tag]] == tag

    def test_three_tags_on_one_value_is_a_fault(self):
        # three single-term blocks whose end 0 all hold value 1 of source g
        blocks = [CanonicalBlock(F(1), 1, (BlockTerm(
            "g", 0, LinearTimeFn(F(1), 1, F(1)), np.array([1.0])),))] * 3
        with pytest.raises(StructuralFault,
                           match="value 1 of source g is shared by 3 end tags"):
            boundary_map(blocks)


class TestJunction:
    def test_star_chain(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        blocks = split_blocks(repr_)
        cands = junction_candidates(blocks)
        assert [(side, far) for side, far, _ in cands] == [
            ((0, 1), (1, 0)), ((1, 1), (2, 1))]
        from eikonal_canon import connection_test

        a, b = blocks[0], blocks[1]
        verdict = connection_test(a.betas(), b.betas(), {0: 0})
        assert verdict.connected
        joined = junction(a, 1, b, 0, {("g1", 0): ("g1", 0)}, verdict.witness)
        assert joined.length == F(1)
        (term,) = joined.terms
        assert term.tau.intercept == F(1) and term.tau.slope == 1

    def test_seam_mismatch_rejected(self):
        from eikonal_canon.canonical import BlockTerm
        from eikonal_canon.representation import LinearTimeFn

        mk = lambda t0, slope, ln: CanonicalBlock(
            F(ln), 1,
            (BlockTerm("g", 0, LinearTimeFn(F(t0), slope, F(ln)),
                       np.array([1.0])),),
            (Piece(0, F(0), F(ln), False),))
        a, b = mk(1, 1, 1), mk(3, 1, 1)
        with pytest.raises(EikonalError):
            junction(a, 1, b, 0, {("g", 0): ("g", 0)}, np.eye(1))

    def test_transpose_roundtrip(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        blocks = split_blocks(repr_)
        b = blocks[2]
        double = transpose_block(transpose_block(b))
        assert double.terms == b.terms
        assert double.pieces == b.pieces


class TestCanonicalize:
    def test_interval_golden(self, interval):
        _, repr_ = make_repr(interval, ["a"], F(1, 2))
        cf = canonicalize(repr_)
        assert len(cf.blocks) == 1 and cf.junctions == 0
        cb = cf.blocks[0]
        assert cb.length == F(1, 2) and cb.kappa == 1
        (term,) = cb.terms
        assert (term.tau.intercept, term.tau.slope) == (F(1), 1)

    def test_star_golden_two_junctions(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        cf = canonicalize(repr_)
        assert cf.junctions == 2
        assert len(cf.blocks) == 1
        cb = cf.blocks[0]
        assert cb.length == F(3, 2) and cb.kappa == 1
        (term,) = cb.terms
        assert (term.tau.intercept, term.tau.slope) == (F(1), 1)
        assert sigma_ac(repr_, "g1") == [(F(1), F(5, 2))]

    def test_junction_count_matches_block_reduction(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        initial = len(split_blocks(repr_))
        cf = canonicalize(repr_)
        assert cf.junctions == initial - len(cf.blocks)

    def test_idempotent(self, star3):
        for sigma, T in [(["g1"], F(3, 2)), (["g1", "g2"], F(5, 4))]:
            _, repr_ = make_repr(star3, sigma, T)
            cf = canonicalize(repr_)
            again = recanonicalize(cf)
            assert again.junctions == 0
            assert equivalent_forms(cf, again)

    def test_canonical_block_invariants(self, star3):
        _, repr_ = make_repr(star3, ["g1", "g2"], F(5, 4))
        cf = canonicalize(repr_)
        for cb in cf.blocks:
            for t in cb.terms:
                assert abs(t.tau.slope) == 1
            mats = [t.projector() for t in cb.terms]
            assert word_span_dim(mats) == cb.kappa ** 2

    def test_junction_preserves_generator_spectra(self, star3):
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        pre = split_blocks(repr_)
        cf = canonicalize(repr_)
        for cb in cf.blocks:
            for piece in cb.pieces:
                src = pre[piece.source]
                for q in (F(0), src.length / 3, src.length):
                    r = piece.offset + (piece.length - q if piece.flipped else q)
                    for gamma in {t.gamma for t in cb.terms}:
                        want = sorted(t.tau(q) for t in src.terms_of(gamma))
                        got = sorted(t.tau(r) for t in cb.terms_of(gamma))
                        assert want == got

    def test_norm_preservation_on_words(self, star3):
        rng = random.Random(19)
        _, repr_ = make_repr(star3, ["g1", "g2"], F(5, 4))
        pre = split_blocks(repr_)
        cf = canonicalize(repr_)
        gammas = sorted({t.gamma for b in pre for t in b.terms})
        for _ in range(10):
            word = [rng.choice(gammas) for _ in range(rng.randint(1, 4))]

            def block_norm(block, r, mk):
                mats = [mk(block, gamma, r) for gamma in word]
                prod = mats[0]
                for m in mats[1:]:
                    prod = prod @ m
                return float(np.linalg.norm(prod, 2))

            pre_max = max(
                block_norm(b, r, lambda blk, gam, rr: blk.generator_at(gam, rr))
                for b in pre for r in (F(0), b.length / 3, b.length))
            post_max = 0.0
            for cb in cf.blocks:
                for piece in cb.pieces:
                    for q in (F(0), pre[piece.source].length / 3,
                              pre[piece.source].length):
                        r = piece.offset + (piece.length - q if piece.flipped else q)
                        post_max = max(post_max, block_norm(
                            cb, r, lambda blk, gam, rr: blk.generator_at(gam, rr)))
            assert post_max == pytest.approx(pre_max, abs=1e-8)

    def test_lemma2_separation_witness(self, star3):
        # an element equal to one tagged projector at r and zero at r'
        _, repr_ = make_repr(star3, ["g1", "g2"], F(5, 4))
        part = repr_.partition
        rs = [fam.epsilon * F(1, 3) for fam in part.families]
        rs2 = [fam.epsilon * F(2, 5) for fam in part.families]
        vals = evaluate_at(repr_, rs)
        vals2 = evaluate_at(repr_, rs2)
        gamma = "g1"
        # all tau values of gamma at rs / rs2, target the first family's first
        targets = []
        for fam, r in zip(part.families, rs):
            for t in repr_.blocks[fam.index].terms_of(gamma):
                targets.append(float(t.tau(r)))
        others = []
        for fam, r in zip(part.families, rs2):
            for t in repr_.blocks[fam.index].terms_of(gamma):
                others.append(float(t.tau(r)))
        t_star = targets[0]
        # interpolation points: every other tau value and 0 (the polynomial
        # must have no constant term because block matrices have kernels)
        points = sorted({v for v in targets + others + [0.0]
                         if abs(v - t_star) > 1e-12})

        def q_mat(mats):
            out = []
            for m in mats:
                acc = np.eye(m.shape[0])
                for p in points:
                    acc = acc @ (m - p * np.eye(m.shape[0])) / (t_star - p)
                out.append(acc)
            return out

        e_at_r = q_mat(vals[gamma])
        e_at_r2 = q_mat(vals2[gamma])
        fam0 = part.families[0]
        term0 = repr_.blocks[fam0.index].terms_of(gamma)[0]
        assert np.allclose(e_at_r[0], term0.projector(), atol=1e-8)
        assert all(np.allclose(m, 0, atol=1e-8) for m in e_at_r[1:])
        assert all(np.allclose(m, 0, atol=1e-8) for m in e_at_r2)

    def test_equivalent_forms_permuted_and_transposed(self, star3):
        _, repr_ = make_repr(star3, ["g1", "g2"], F(1, 2))
        cf = canonicalize(repr_)
        # permute blocks and transpose one of them
        from dataclasses import replace
        blocks = list(cf.blocks)
        blocks = blocks[::-1]
        b0 = blocks[0]
        flipped = replace(
            b0,
            terms=tuple(replace(t, tau=t.tau.transposed()) for t in b0.terms))
        blocks[0] = flipped
        other = replace(cf, blocks=tuple(blocks))
        assert equivalent_forms(cf, other)

    def test_inequivalent_when_length_changes(self, star3):
        from dataclasses import replace
        _, repr_ = make_repr(star3, ["g1"], F(3, 2))
        cf = canonicalize(repr_)
        cb = cf.blocks[0]
        stretched = replace(cb, length=cb.length + 1, terms=tuple(
            replace(t, tau=t.tau.extended(cb.length + 1)) for t in cb.terms))
        assert not equivalent_forms(cf, replace(cf, blocks=(stretched,)))

    def test_randomized_invariants(self):
        rng = random.Random(77)
        from eikonal_canon import eccentricity

        for _ in range(6):
            g = random_admissible_graph(rng)
            gammas = sorted(g.boundary)[: rng.randint(1, 2)]
            T = F(rng.randint(2, 6), 4)
            part, repr_ = make_repr(g, gammas, T)
            cf = canonicalize(repr_)
            assert cf.junctions == len(split_blocks(repr_)) - len(cf.blocks)
            for cb in cf.blocks:
                mats = [t.projector() for t in cb.terms]
                assert word_span_dim(mats) == cb.kappa ** 2
            assert equivalent_forms(cf, recanonicalize(cf))
            # canonical sigma_ac matches the parametric one
            from eikonal_canon.spectrum import build_spectrum
            sm = build_spectrum(cf)
            for gamma in gammas:
                assert list(sm.sigma_ac[gamma]) == sigma_ac(repr_, gamma)


@dataclass(frozen=True)
class BoundaryTag:
    gamma: str
    k: int
    block: int  # position in the block list
    end: int  # 0 or 1 (r = 0 / r = length)
    value: Fraction


def reference_boundary_map(blocks):
    """Tag objects with partner and type maps: the candidate finder's reference."""
    tags = [BoundaryTag(t.gamma, t.k, i, end, t.tau.end_value(end))
            for i, b in enumerate(blocks) for t in b.terms for end in (0, 1)]
    partner, types = {}, {}
    by_gamma = {}
    for tag in tags:
        by_gamma.setdefault(tag.gamma, {}).setdefault(tag.value, []).append(tag)
    for groups in by_gamma.values():
        for group in groups.values():
            if len(group) == 1:
                partner[group[0]] = group[0]
                types[group[0]] = 1
            else:
                a, b = group
                partner[a], partner[b] = b, a
                types[a] = types[b] = 2 if a.block == b.block else 3
    return tags, partner, types


def reference_junction_candidates(blocks):
    """Block-end pairs whose tag sets map onto each other bijectively (type 3),
    as (end, partner end, sorted pairs of term keys)."""
    tags, partner, types = reference_boundary_map(blocks)
    end_tags = {}
    for tag in tags:
        end_tags.setdefault((tag.block, tag.end), []).append(tag)
    out = []
    seen = set()
    for side, tags in sorted(end_tags.items()):
        if side in seen or any(types[t] != 3 for t in tags):
            continue
        targets = {(partner[t].block, partner[t].end) for t in tags}
        if len(targets) != 1:
            continue
        far = next(iter(targets))
        back = end_tags[far]
        if len(back) != len(tags) or any(
                types[t] != 3 or (partner[t].block, partner[t].end) != side
                for t in back):
            continue
        seen.add(far)
        out.append((side, far, tuple(sorted(
            ((t.gamma, t.k), (partner[t].gamma, partner[t].k)) for t in tags))))
    return out


def candidate_list(blocks):
    """junction_candidates in the reference's shape, pairing order included."""
    return [(side, far, tuple(pairing.items()))
            for side, far, pairing in junction_candidates(blocks)]


def reference_canonicalize_blocks(blocks):
    """The junction loop that rebuilds the boundary map after every junction
    and retests every candidate, kept as the reference for the single-build loop."""
    blocks = list(blocks)
    n_junctions = 0
    while True:
        for (ia, end_a), (ib, end_b), pairs in reference_junction_candidates(blocks):
            a, b = blocks[ia], blocks[ib]
            pairing = dict(pairs)
            idx_a = {(t.gamma, t.k): i for i, t in enumerate(a.terms)}
            idx_b = {(t.gamma, t.k): i for i, t in enumerate(b.terms)}
            verdict = connection_test(a.betas(), b.betas(),
                                      {idx_a[ka]: idx_b[kb] for ka, kb in pairing.items()})
            if not verdict.connected:
                continue
            blocks[ia] = junction(a, end_a, b, end_b, pairing, verdict.witness)
            del blocks[ib]
            n_junctions += 1
            break
        else:
            return blocks, n_junctions


def block_fingerprint(b: CanonicalBlock):
    return (b.length, b.kappa, b.pieces,
            [(t.gamma, t.k, t.tau, t.beta.tolist()) for t in b.terms])


class TestJunctionLoop:
    @staticmethod
    def two_term_block(intercepts, betas):
        terms = tuple(BlockTerm("g", k, LinearTimeFn(F(c), 1, F(1)), np.array(beta))
                      for k, (c, beta) in enumerate(zip(intercepts, betas)))
        return CanonicalBlock(F(1), 2, terms, (Piece(0, F(0), F(1), False),))

    def test_rejected_connection_test_leaves_note(self):
        s = 1 / math.sqrt(2)
        # a's end-1 values {1, 6} are b's end-0 values: one candidate, whose
        # |Gram| matrices differ (off-diagonal 1/sqrt(2) against 0)
        a = self.two_term_block([0, 5], [[1.0, 0.0], [s, s]])
        b = self.two_term_block([1, 6], [[1.0, 0.0], [0.0, 1.0]])
        assert len(junction_candidates([a, b])) == 1
        done, n_junctions, notes = canonicalize_blocks([a, b])
        assert n_junctions == 0
        assert done[0] is a and done[1] is b
        assert notes == ["junction of block 0 end 1 with block 1 end 0 rejected: "
                         "Gram matrices disagree"]
        # the same geometry on both sides joins, with no note
        done, n_junctions, notes = canonicalize_blocks(
            [a, self.two_term_block([1, 6], [[1.0, 0.0], [s, s]])])
        assert (len(done), n_junctions, notes) == (1, 1, [])

    @staticmethod
    def synthetic_blocks(rng: random.Random) -> list[CanonicalBlock]:
        """Chains of blocks whose ends pair, in shuffled order.

        Each block carries two terms of source g and one of source h, each
        term's passage time running monotone along its chain, so whole ends
        pair; g's two terms swap their k labels at random, so pairings map
        keys across.  A block's betas meet at one of two sets of angles, so
        some seams fail the |Gram| test; every block turns its betas by its
        own orthogonal map, and some blocks are transposed.
        """
        shapes = [np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]),
                  np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0], [0.0, 0.6, 0.8]])]
        paths = (("g", 0), ("g", 1), ("h", 0))
        blocks = []
        for chain in range(rng.randint(1, 5)):
            slopes = [rng.choice([1, -1]) for _ in paths]
            values = [100 * chain + 1000 * p for p in range(len(paths))]
            for _ in range(rng.randint(1, 6)):
                length = rng.randint(1, 3)
                turn, _ = np.linalg.qr(np.array(
                    [[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]))
                betas = rng.choice(shapes) @ turn.T
                swap = rng.random() < 0.5
                terms = sorted(
                    (BlockTerm(gamma, 1 - k if swap and gamma == "g" else k,
                               LinearTimeFn(F(values[p]), slopes[p], F(length)),
                               betas[p])
                     for p, (gamma, k) in enumerate(paths)),
                    key=lambda t: (t.gamma, t.k))
                block = CanonicalBlock(F(length), 3, tuple(terms))
                blocks.append(transpose_block(block) if rng.random() < 0.3 else block)
                values = [v + slope * length for v, slope in zip(values, slopes)]
        rng.shuffle(blocks)
        return [replace(b, pieces=(Piece(i, F(0), b.length, False),))
                for i, b in enumerate(blocks)]

    def test_synthetic_chains_match_rebuilding_reference(self):
        rng = random.Random(11)
        joined = rejected = candidates = 0
        for _ in range(100):
            blocks = self.synthetic_blocks(rng)
            want_candidates = reference_junction_candidates(blocks)
            assert candidate_list(blocks) == want_candidates
            candidates += len(want_candidates)
            done, n_junctions, notes = canonicalize_blocks(blocks)
            want, want_junctions = reference_canonicalize_blocks(blocks)
            assert n_junctions == want_junctions
            assert [block_fingerprint(b) for b in done] == \
                [block_fingerprint(b) for b in want]
            joined += n_junctions
            rejected += len(notes)
        assert joined > 100 and rejected > 50 and candidates > 500

    def test_matches_rebuilding_reference(self, star3, star123):
        rng = random.Random(5)
        cases = [(star3, ["g1"], F(3, 2)), (star123, ["g1", "g2", "g3"], F(3))]
        for _ in range(8):
            g = random_admissible_graph(rng)
            cases.append((g, sorted(g.boundary)[: rng.randint(1, 3)],
                          F(rng.randint(2, 8), 4)))
        joined = candidates = 0
        for g, sigma, T in cases:
            blocks = split_blocks(make_repr(g, sigma, T)[1])
            want_candidates = reference_junction_candidates(blocks)
            assert candidate_list(blocks) == want_candidates
            candidates += len(want_candidates)
            done, n_junctions, _ = canonicalize_blocks(blocks)
            want, want_junctions = reference_canonicalize_blocks(blocks)
            assert n_junctions == want_junctions
            assert [block_fingerprint(b) for b in done] == \
                [block_fingerprint(b) for b in want]
            joined += n_junctions
        assert joined > 10 and candidates > 10
