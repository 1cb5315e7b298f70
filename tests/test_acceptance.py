"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Randomized criteria use seeded generators; instance classes follow the
stated limits (graphs with <= 6 edges, rational lengths with denominators
<= 12, horizons <= 3).  Partition-level criteria draw lengths over a single
per-graph denominator, which keeps lattice closures at desk scale (see the
conftest note).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from eikonal_canon import (
    ControlSignal,
    GridSpec,
    build_parametric,
    build_partition,
    boundary_clusters,
    build_spectrum,
    canonicalize,
    compare_snapshots,
    connection_test,
    convolution_snapshot,
    eccentricity,
    equivalent_forms,
    family_frames,
    fd_wave,
    propagate,
    recanonicalize,
    sigma_ac,
    split_blocks,
    word_span_dim,
)
from eikonal_canon.representation import merge_intervals
from eikonal_canon.spectrum import algebra_summands

from conftest import bump, random_admissible_graph

F = Fraction


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def subcritical_instances(seed: int, count: int):
    """(graph, gamma, T) with T < T_gamma, lengths and T on one 1/d grid."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_admissible_graph(rng)
        gamma = sorted(g.boundary)[rng.randrange(len(g.boundary))]
        tg = eccentricity(g, gamma)
        d = max(e.length.denominator for e in g.edges)
        ticks = int(tg * d)
        if ticks <= 1:
            continue
        T = F(rng.randint(1, min(ticks - 1, 3 * d)), d)
        out.append((g, gamma, T))
    return out


def pipeline(g, sigma, T, tol=1e-9):
    hydras = [propagate(g, gamma, T) for gamma in sorted(sigma)]
    part = build_partition(hydras)
    frames = family_frames(part, hydras, tol)
    repr_ = build_parametric(part, frames, shifted=True)
    return hydras, part, repr_


def test_criterion_1_scattering_conservation():
    """Reflected plus transmitted amplitudes sum exactly to the incoming one."""
    rng = random.Random(0xC111)
    t0 = time.time()
    events_checked = 0
    for _ in range(1000):
        g = random_admissible_graph(rng, common_denominator=False)
        gamma = sorted(g.boundary)[rng.randrange(len(g.boundary))]
        T = F(rng.randint(1, 12), 4)
        h = propagate(g, gamma, T)
        for ev in h.events:
            if ev.vertex in g.boundary:
                continue
            inc = sum(a for *_, a in ev.incoming)
            out = sum(a for *_, a in ev.outgoing)
            if inc != out:
                report("criterion 1: scattering conservation", False,
                       f"event at {ev.vertex} t={ev.time}")
            events_checked += 1
    elapsed = time.time() - t0
    report("criterion 1: scattering conservation",
           events_checked > 0 and elapsed < 10,
           f"1000 propagations, {events_checked} interior events, "
           f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence(interval, star3):
    """wave_eval matches the fd oracle on bump controls; error non-increasing."""
    t0 = time.time()
    phi = bump(0.04, 0.36)
    worst = 0.0
    ok = True
    for g, src in ((interval, "a"), (star3, "g1")):
        for T in (F(1, 2), F(5, 4), F(3, 2)):
            hydras = [propagate(g, src, T)]
            controls = [ControlSignal(src, phi)]
            errs = {}
            for k in (10, 11):
                grid = GridSpec(F(1, 2 ** k))
                errs[k] = compare_snapshots(
                    fd_wave(g, controls, T, grid),
                    convolution_snapshot(hydras, controls, T, grid))
            worst = max(worst, errs[10])
            ok &= errs[10] <= 1e-2
            # the oracle is exact for characteristics, so both errors sit at
            # rounding noise; monotonicity is enforced up to that floor
            ok &= errs[11] <= errs[10] or errs[11] <= 1e-10
    elapsed = time.time() - t0
    report("criterion 2: oracle equivalence", ok and elapsed < 60,
           f"max rel L2 {worst:.2e} at h=2^-10, {elapsed:.1f}s")


def test_criterion_3_frame_orthonormality_and_independence():
    """Subcritical beta-sets have no zero rows and are orthonormal to 1e-8."""
    worst = 0.0
    frames_checked = 0
    for g, gamma, T in subcritical_instances(0xC333, 200):
        _, part, repr_ = pipeline(g, [gamma], T)
        frames = family_frames(part, [propagate(g, gamma, T)])
        for frame in frames.values():
            if frame.nonzero != tuple(range(frame.n)):
                report("criterion 3: frame orthonormality / independence",
                       False, "zero beta row below the filling time")
            nz = frame.nonzero_matrix()
            dev = float(np.max(np.abs(nz @ nz.T - np.eye(frame.n))))
            worst = max(worst, dev)
            frames_checked += 1
    report("criterion 3: frame orthonormality / independence",
           worst <= 1e-8 and frames_checked >= 200,
           f"{frames_checked} frames, max |BB*-I| = {worst:.1e}")


def test_criterion_4_spectrum_filling():
    """Union of closed shifted time cells equals [1, T+1] exactly when T < T_fill."""
    checked = 0
    for g, gamma, T in subcritical_instances(0xC444, 200):
        hydras, part, repr_ = pipeline(g, [gamma], T)
        cells = [tau.shifted().range_interval()
                 for fam in part.families for tau in fam.taus]
        if merge_intervals(cells) != [(F(1), T + 1)]:
            report("criterion 4: spectrum filling", False,
                   f"cells do not merge to [1, {T + 1}]")
        if sigma_ac(repr_, gamma) != [(F(1), T + 1)]:
            report("criterion 4: spectrum filling", False,
                   "sigma_ac disagrees with [1, T+1]")
        checked += 1
    report("criterion 4: spectrum filling", checked == 200,
           f"{checked} subcritical instances, exact rational equality")


def test_criterion_5_eigenvalue_identity():
    """Eikonal block eigenvalues on the span equal the tau values at 1e-8."""
    rng = random.Random(0xC555)
    worst = 0.0
    blocks_checked = 0
    for g, gamma, T in subcritical_instances(0xC515, 25):
        _, part, repr_ = pipeline(g, [gamma], T)
        for fam in part.families:
            pb = repr_.blocks[fam.index]
            if not pb.terms_of(gamma):
                continue
            blocks_checked += 1
            for _ in range(10):
                r = fam.epsilon * F(rng.randint(1, 127), 128)
                mat = pb.generator_at(gamma, r)
                vecs = np.array([t.beta for t in pb.terms_of(gamma)])
                got = np.sort(np.linalg.eigvalsh(vecs @ mat @ vecs.T))
                want = np.sort([float(t.tau(r)) for t in pb.terms_of(gamma)])
                worst = max(worst, float(np.max(np.abs(got - want))))
    report("criterion 5: eigenvalue identity",
           worst <= 1e-8 and blocks_checked > 0,
           f"{blocks_checked} blocks x 10 interior samples, "
           f"max dev {worst:.1e}")


def test_criterion_6_interior_fullness(star3):
    """The algebra at interior tuples (word span = sum of d^2 over its summands)
    has dimension sum of kappa^2 over blocks."""
    rng = random.Random(0xC666)
    cases = [(star3, ["g1"], F(3, 2)), (star3, ["g1", "g2"], F(5, 4))]
    for g, gamma, T in subcritical_instances(0xC616, 6):
        cases.append((g, [gamma], T))
    ok = True
    details = []
    for g, sigma, T in cases:
        _, part, repr_ = pipeline(g, sigma, T)
        blocks = split_blocks(repr_)
        want = sum(
            np.linalg.matrix_rank(np.array([t.beta for t in b.terms])) ** 2
            for b in blocks)
        rs = [fam.epsilon * F(rng.randint(1, 31), 32)
              for fam in part.families]
        gens = []
        for gamma in repr_.sigma:
            mats = [repr_.blocks[fam.index].generator_at(gamma, r)
                    for fam, r in zip(part.families, rs)]
            n = sum(m.shape[0] for m in mats)
            big = np.zeros((n, n))
            at = 0
            for m in mats:
                big[at:at + m.shape[0], at:at + m.shape[0]] = m
                at += m.shape[0]
            gens.append(big)
        got = sum(d * d for d, _ in algebra_summands(gens))
        details.append(f"{got}=={want}")
        ok &= got == want
    report("criterion 6: interior fullness", ok,
           f"word spans {'; '.join(details[:4])}...")


def _block_norm(block, gammas_word, r) -> float:
    mats = [block.generator_at(gamma, r) for gamma in gammas_word]
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    return float(np.linalg.norm(prod, 2)) if prod.size else 0.0


def test_criterion_7_canonicalization_correctness(star3):
    """(a) word norms preserved; (b) idempotence; (c) canonical invariants."""
    rng = random.Random(0xC777)
    cases = [(star3, ["g1"], F(3, 2)), (star3, ["g1", "g2"], F(5, 4)),
             (star3, ["g1", "g2", "g3"], F(5, 4))]
    norm_dev = 0.0
    for g, sigma, T in cases:
        _, part, repr_ = pipeline(g, sigma, T)
        pre = split_blocks(repr_)
        cf = canonicalize(repr_)

        # (a) norm preservation over >= 32 aligned samples per block
        n_avail = sum(len(sigma) ** k for k in range(1, 5))
        words = set()
        while len(words) < min(50, n_avail):
            words.add(tuple(rng.choice(sorted(sigma))
                            for _ in range(rng.randint(1, 4))))
        sample_qs = [F(i, 32) for i in range(33)]
        for word in sorted(words):
            pre_max = max(
                _block_norm(b, word, q * b.length)
                for b in pre for q in sample_qs)
            post_max = 0.0
            for cb in cf.blocks:
                for piece in cb.pieces:
                    src_len = pre[piece.source].length
                    for q in sample_qs:
                        local = q * src_len
                        r = piece.offset + (
                            piece.length - local if piece.flipped else local)
                        post_max = max(post_max,
                                       _block_norm(cb, word, r))
            norm_dev = max(norm_dev, abs(pre_max - post_max))
        if norm_dev > 1e-8:
            report("criterion 7: canonicalization", False,
                   f"norm deviation {norm_dev:.1e}")

        # (b) idempotence up to equivalent_forms
        again = recanonicalize(cf)
        if not (again.junctions == 0 and equivalent_forms(cf, again)):
            report("criterion 7: canonicalization", False, "not idempotent")

        # (c) Theorem-2 block invariants
        for cb in cf.blocks:
            for t in cb.terms:
                if abs(t.tau.slope) != 1:
                    report("criterion 7: canonicalization", False, "bad slope")
            for gamma in sigma:
                terms = cb.terms_of(gamma)
                for i, t in enumerate(terms):
                    for s in terms[i + 1:]:
                        if abs(float(t.beta @ s.beta)) > 1e-8:
                            report("criterion 7: canonicalization", False,
                                   "per-source projectors not orthogonal")
            if word_span_dim(cb.betas()) != cb.kappa ** 2:
                report("criterion 7: canonicalization", False,
                       "block does not generate the full matrix algebra")
    report("criterion 7: canonicalization correctness", True,
           f"50 words x 3 cases, max norm deviation {norm_dev:.1e}")


def test_criterion_8_end_to_end_goldens(interval, star3):
    """Unit interval and unit 3-star reduce to the expected single blocks."""
    _, _, repr_i = pipeline(interval, ["a"], F(1, 2))
    cf_i = canonicalize(repr_i)
    ok_i = (len(cf_i.blocks) == 1 and cf_i.blocks[0].length == F(1, 2)
            and cf_i.blocks[0].kappa == 1
            and cf_i.blocks[0].terms[0].tau.intercept == 1
            and cf_i.blocks[0].terms[0].tau.slope == 1)

    _, _, repr_s = pipeline(star3, ["g1"], F(3, 2))
    cf_s = canonicalize(repr_s)
    ok_s = (len(cf_s.blocks) == 1 and cf_s.blocks[0].length == F(3, 2)
            and cf_s.blocks[0].kappa == 1
            and cf_s.blocks[0].terms[0].tau.intercept == 1
            and cf_s.blocks[0].terms[0].tau.slope == 1
            and cf_s.junctions == 2)
    report("criterion 8: end-to-end goldens", ok_i and ok_s,
           "interval: zeta=1/2 kappa=1 gen 1+r; star: zeta=3/2 kappa=1 "
           "gen 1+r after 2 junctions")


def test_criterion_9_cluster_emergence(star3):
    """No clusters before waves overlap the center; a cluster afterwards."""
    t0 = time.time()
    _, _, repr_small = pipeline(star3, ["g1", "g2"], F(1, 2))
    cf_small = canonicalize(repr_small)
    sm_small = build_spectrum(cf_small)
    no_clusters = all(
        max(seg.start_cluster, seg.end_cluster) == 1
        for seg in sm_small.segments)

    _, _, repr_big = pipeline(star3, ["g1", "g2"], F(5, 4))
    cf_big = canonicalize(repr_big)
    sm_big = build_spectrum(cf_big)
    clustered = any(
        max(seg.start_cluster, seg.end_cluster) >= 2
        for seg in sm_big.segments)
    elapsed = time.time() - t0
    report("criterion 9: cluster emergence",
           no_clusters and clustered and elapsed < 30,
           f"T=1/2 cluster-free, T=5/4 clustered, {elapsed:.1f}s")


def test_criterion_10_connection_ground_truths():
    """The three stated connection verdicts, symmetric under argument swap."""
    def unit(vec):
        v = np.asarray(vec, float)
        return v / np.linalg.norm(v)

    identical = [unit([1, 0]), unit([1, 1])]
    v1 = connection_test(identical, identical, {0: 0, 1: 1})
    ok = v1.connected and np.allclose(v1.witness, np.eye(2), atol=1e-9)

    p1 = [unit([1, 0]), unit([1, 1])]
    p2 = [unit([1, 0]), unit([0, 1])]
    v2 = connection_test(p1, p2, {0: 0, 1: 1})
    v2b = connection_test(p2, p1, {0: 0, 1: 1})
    ok &= (not v2.connected) and (not v2b.connected)

    r1 = [unit([1, 0, 0])]
    r2 = [unit([0, 1])]
    v3 = connection_test(r1, r2, {0: 0})
    v3b = connection_test(r2, r1, {0: 0})
    ok &= v3.connected and v3b.connected
    report("criterion 10: connection-test ground truths", ok,
           "identity pair connected, Gram mismatch separated, "
           "rank-1 pair connected, symmetric")
