"""Parametric eikonal representation: blocks, evaluation, spectra, projector."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from eikonal_canon import (
    LinearTimeFn,
    apply_projector,
    build_parametric,
    build_partition,
    evaluate_at,
    family_frames,
    projector_block,
    propagate,
    sigma_ac,
    wave_eval,
)
from eikonal_canon.errors import EikonalError, MissingSampleError
from eikonal_canon.frames import gram_schmidt

from conftest import bump

F = Fraction
RT2 = 1.0 / math.sqrt(2.0)


def star_repr(star3, shifted=True):
    h = propagate(star3, "g1", F(3, 2))
    part = build_partition([h])
    frames = family_frames(part, [h])
    return h, part, build_parametric(part, frames, shifted=shifted)


class TestLinearTimeFn:
    def test_eval_and_range(self):
        tau = LinearTimeFn(F(1, 2), 1, F(1, 2))
        assert tau(F(1, 4)) == F(3, 4)
        assert tau.range_interval() == (F(1, 2), F(1))

    def test_transposed(self):
        tau = LinearTimeFn(F(3, 2), -1, F(1, 2))
        flipped = tau.transposed()
        assert flipped.intercept == F(1) and flipped.slope == 1
        for r in (F(0), F(1, 8), F(1, 2)):
            assert flipped(r) == tau(F(1, 2) - r)

    def test_domain_check(self):
        tau = LinearTimeFn(F(0), 1, F(1, 2))
        with pytest.raises(EikonalError):
            tau(F(3, 4))


class TestProjectorBlock:
    def test_scalar(self):
        assert projector_block(np.array([[1.0]])) == pytest.approx(np.ones((1, 1)))

    def test_star_frame(self):
        B = np.array([[1.0, 0, 0], [0, RT2, RT2]])
        P = projector_block(B)
        expected = np.outer([1, 0, 0], [1, 0, 0]) + np.outer(
            [0, RT2, RT2], [0, RT2, RT2])
        assert np.allclose(P, expected)
        assert np.allclose(P @ P, P)

    def test_empty_frame(self):
        frame = gram_schmidt(np.zeros((1, 3)))
        assert np.allclose(projector_block(frame.nonzero_matrix()), np.zeros((3, 3)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(EikonalError):
            projector_block(np.array([[1.0, 0], [1.0, 0]]))


class TestEikonalBlock:
    def test_interval_shifted_scalar(self, interval):
        h = propagate(interval, "a", F(1, 2))
        part = build_partition([h])
        repr_ = build_parametric(part, family_frames(part, [h]), shifted=True)
        pb = repr_.blocks[0]
        assert pb.generator_at("a", F(1, 4)) == pytest.approx(np.array([[1.25]]))

    def test_star_eigenvalues(self, star3):
        _, part, repr_ = star_repr(star3)
        fam2 = next(f for f in part.families if f.dim == 3)
        pb = repr_.blocks[fam2.index]
        r = F(1, 8)
        mat = pb.generator_at("g1", r)
        vecs = np.array([t.beta for t in pb.terms_of("g1")])
        eig = sorted(np.linalg.eigvalsh(vecs @ mat @ vecs.T))
        want = sorted(float(t.tau(r)) for t in pb.terms_of("g1"))
        assert np.allclose(eig, want, atol=1e-10)
        # shifted taus per the time cells: 3/2 + r ascending, 5/2 - r descending
        assert want == [float(F(3, 2) + r), float(F(5, 2) - r)]

    def test_projector_calculus(self, star3):
        # idempotent, symmetric, pairwise orthogonal for one source
        _, part, repr_ = star_repr(star3)
        for fam in part.families:
            projs = [t.projector() for t in repr_.blocks[fam.index].terms_of("g1")]
            for i, P in enumerate(projs):
                assert np.allclose(P @ P, P, atol=1e-9)
                assert np.allclose(P, P.T)
                for Q in projs[i + 1:]:
                    assert np.max(np.abs(P @ Q)) < 1e-9

    def test_collision_at_cell_end(self, star3):
        # both taus of the big family meet at value 2 at r = 1/2
        _, part, repr_ = star_repr(star3)
        fam2 = next(f for f in part.families if f.dim == 3)
        pb = repr_.blocks[fam2.index]
        mat = pb.generator_at("g1", F(1, 2))
        vecs = np.array([t.beta for t in pb.terms_of("g1")])
        eig = np.linalg.eigvalsh(vecs @ mat @ vecs.T)
        assert np.allclose(eig, [2.0, 2.0])


class TestEvaluateAt:
    def test_star_blocks(self, star3):
        _, part, repr_ = star_repr(star3)
        rs = [fam.epsilon / 3 for fam in part.families]
        out = evaluate_at(repr_, rs)
        assert set(out) == {"g1"}
        mats = out["g1"]
        assert [m.shape[0] for m in mats] == [fam.dim for fam in part.families]

    def test_polynomial_commutes(self, star3):
        _, part, repr_ = star_repr(star3)
        fam2 = next(f for f in part.families if f.dim == 3)
        pb = repr_.blocks[fam2.index]
        r = F(2, 7)
        mat = pb.generator_at("g1", r)
        # q(E)(r) == q(E(r)) for scalar polynomials without constant term
        q_of_mat = 2 * (mat @ mat) - 3 * mat
        q_terms = np.zeros_like(mat)
        for t in pb.terms_of("g1"):
            v = float(t.tau(r))
            q_terms += (2 * v * v - 3 * v) * t.projector()
        assert np.allclose(q_of_mat, q_terms, atol=1e-10)

    def test_out_of_domain(self, star3):
        _, part, repr_ = star_repr(star3)
        with pytest.raises(EikonalError):
            evaluate_at(repr_, [F(5)] * len(part.families))


class TestSigmaAc:
    def test_interval_half(self, interval):
        h = propagate(interval, "a", F(1, 2))
        part = build_partition([h])
        repr_ = build_parametric(part, family_frames(part, [h]))
        assert sigma_ac(repr_, "a") == [(F(1), F(3, 2))]

    def test_star_filled(self, star3):
        _, _, repr_ = star_repr(star3)
        assert sigma_ac(repr_, "g1") == [(F(1), F(5, 2))]

    def test_supercritical_drops_dependent_cells(self, interval):
        # beyond the filling time the reflected amplitude rows are dependent,
        # so later cells carry no projector and the spectrum stops at T_fill+1
        h = propagate(interval, "a", F(5, 2))
        part = build_partition([h])
        repr_ = build_parametric(part, family_frames(part, [h]))
        assert sigma_ac(repr_, "a") == [(F(1), F(2))]

    def test_unshifted(self, star3):
        _, _, repr_ = star_repr(star3, shifted=False)
        assert sigma_ac(repr_, "g1") == [(F(0), F(3, 2))]


class TestApplyProjector:
    def _wave_samples(self, star3, h, repr_, part, phi, T):
        samples = {}
        for fam in part.families:
            for r in (fam.epsilon / 3, fam.epsilon * F(2, 7)):
                for p in fam.lambda_at(star3, r):
                    samples[p] = wave_eval([h], {"g1": phi}, p, T)
        return samples

    def test_wave_is_fixed_point(self, star3):
        T = F(3, 2)
        h, part, repr_ = star_repr(star3)
        phi = bump(0.1, 0.9)
        samples = self._wave_samples(star3, h, repr_, part, phi, T)
        xs = list(samples)
        out = apply_projector(repr_, "g1", samples, xs)
        for x in xs:
            assert out[x] == pytest.approx(samples[x], abs=1e-10)

    def test_orthogonal_function_killed(self, star3):
        h, part, repr_ = star_repr(star3)
        fam2 = next(f for f in part.families if f.dim == 3)
        r = fam2.epsilon / 3
        lam = fam2.lambda_at(star3, r)
        # value pattern orthogonal to both betas: (0, 1, -1)
        samples = {lam[0]: 0.0, lam[1]: 1.0, lam[2]: -1.0}
        out = apply_projector(repr_, "g1", samples, [lam[1]])
        assert out[lam[1]] == pytest.approx(0.0, abs=1e-12)

    def test_determination_locality(self, star3):
        # perturbing samples off Lambda[x] cannot change the value at x
        T = F(3, 2)
        h, part, repr_ = star_repr(star3)
        phi = bump(0.1, 0.9)
        samples = self._wave_samples(star3, h, repr_, part, phi, T)
        fam2 = next(f for f in part.families if f.dim == 3)
        x = fam2.lambda_at(star3, fam2.epsilon / 3)[0]
        base = apply_projector(repr_, "g1", samples, [x])[x]
        perturbed = dict(samples)
        for p in part.families[0].lambda_at(star3, part.families[0].epsilon / 3):
            perturbed[p] += 7.0
        assert apply_projector(repr_, "g1", perturbed, [x])[x] == pytest.approx(base)

    def test_missing_sample_raises(self, star3):
        h, part, repr_ = star_repr(star3)
        fam2 = next(f for f in part.families if f.dim == 3)
        lam = fam2.lambda_at(star3, fam2.epsilon / 3)
        with pytest.raises(MissingSampleError):
            apply_projector(repr_, "g1", {lam[0]: 1.0}, [lam[0]])

    def test_outside_maps_to_zero(self, star3):
        h, part, repr_ = star_repr(star3)
        out = apply_projector(repr_, "g1", {}, [star3.vertex_position("c")])
        assert out[star3.vertex_position("c")] == 0.0
