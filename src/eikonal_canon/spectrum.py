"""Spectrum of the canonical algebra: segments, clusters, coordinates.

Every canonical block contributes a segment; evaluating the generators at a
segment end yields a matrix subalgebra whose irreducible summands are the
cluster points sitting at that end.  Interior points are coordinatized by
the per-source eigenvalue multisets, and identifying endpoint coordinate
matches folds the segments into an abstract quotient graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .canonical import CanonicalBlock, CanonicalForm
from .errors import EikonalError, InvariantViolation
from .metric_graph import merge_intervals
from .projalg import DEFAULT_TOL, connected_classes, word_span_dim

CLUSTER_SEED = 0x5EED


@dataclass(frozen=True)
class Segment:
    block: int
    length: Fraction
    start_summands: tuple[int, ...]  # irreducible dimensions at r = 0
    end_summands: tuple[int, ...]    # irreducible dimensions at r = length

    @property
    def start_cluster(self) -> int:
        return len(self.start_summands)

    @property
    def end_cluster(self) -> int:
        return len(self.end_summands)


@dataclass(frozen=True)
class SpectrumModel:
    form: CanonicalForm
    segments: tuple[Segment, ...]
    sigma_ac: Mapping[str, tuple[tuple[Fraction, Fraction], ...]]
    interior_coincidences: tuple[str, ...]


@dataclass(frozen=True)
class QuotientGraph:
    nodes: tuple[tuple[tuple[int, int], ...], ...]  # classes of (block, end)
    edges: tuple[tuple[int, int, Fraction, int], ...]  # (node_a, node_b, len, block)


def _commutant_basis(gens: Sequence[np.ndarray], tol: float) -> list[np.ndarray]:
    """Nullspace of X -> [X, g] stacked over the given matrices."""
    n = gens[0].shape[0]
    n2 = n * n
    eye = np.eye(n)
    stack = np.empty((len(gens) * n2, n2))
    for i, g in enumerate(gens):
        rows = stack[i * n2:(i + 1) * n2]
        np.subtract(np.kron(eye, g), np.kron(g.T, eye), out=rows)
        rows /= max(1.0, float(np.linalg.norm(g)))
    # R of the stack's QR has its singular values and right vectors, and the
    # stack's thin U is never formed
    _, s, vt = np.linalg.svd(np.linalg.qr(stack, mode="r"), full_matrices=False)
    if s.size == 0 or s[0] == 0:
        rank = 0
    else:
        rank = int(np.sum(s > tol * max(1.0, s[0])))
    null = vt[rank:]
    return [v.reshape(n, n) for v in null]


def boundary_clusters(block: CanonicalBlock, end: int,
                      tol: float = DEFAULT_TOL) -> list[int]:
    """Dimensions of the irreducible summands of a block-end subalgebra.

    Evaluates all generators at the end and splits R^kappa by the spectral
    projections of a seeded random element of the algebra's center; the
    center is the double-Sylvester nullspace commutant(gens + commutant),
    which equals algebra meet commutant because the algebra is nondegenerate
    and closed under transposition.  Each summand's dimension is read off
    the word-span of the restricted generators.
    """
    kappa = block.kappa
    if kappa == 0:
        return []
    r = block.length if end else Fraction(0)
    gammas = sorted({t.gamma for t in block.terms})
    gens = [block.generator_at(g, r) for g in gammas]
    gens = [g for g in gens if float(np.max(np.abs(g))) > tol]
    if not gens:
        raise EikonalError("all generators vanish at the block end")

    commutant = _commutant_basis(gens, tol)
    center = _commutant_basis(gens + commutant, tol)
    if not center:
        raise InvariantViolation("boundary subalgebra has an empty center")

    rng = np.random.default_rng(CLUSTER_SEED)
    z = np.zeros((kappa, kappa))
    for c in center:
        z += rng.normal() * (c + c.T) / 2
    w, v = np.linalg.eigh(z)
    groups: list[list[int]] = [[0]]
    for i in range(1, kappa):
        if abs(w[i] - w[i - 1]) < 1e-7 * max(1.0, abs(w[i])):
            groups[-1].append(i)
        else:
            groups.append([i])

    dims = []
    for grp in groups:
        e = v[:, grp] @ v[:, grp].T
        # validate the spectral projection is central for the algebra
        resid = max(float(np.max(np.abs(e @ g - g @ e))) for g in gens)
        if resid > 1e-6:
            raise InvariantViolation(
                f"central projection residual {resid} above tolerance")
        sub = [e @ g @ e for g in gens]
        d = word_span_dim(sub, tol)
        size = int(round(np.sqrt(d)))
        if size * size != d:
            raise InvariantViolation(
                f"summand word-span {d} is not a perfect square")
        rank_e = len(grp)
        if rank_e % size != 0:
            raise InvariantViolation("summand multiplicity is not integral")
        dims.append(size)
    if sum(dims) > kappa:
        raise InvariantViolation("summand dimensions exceed the block dimension")
    return sorted(dims)


def build_spectrum(cf: CanonicalForm, tol: float = DEFAULT_TOL) -> SpectrumModel:
    """Segments with split ends plus per-source absolutely continuous spectra."""
    segments = []
    for i, cb in enumerate(cf.blocks):
        segments.append(Segment(
            i, cb.length,
            tuple(boundary_clusters(cb, 0, tol)),
            tuple(boundary_clusters(cb, 1, tol)),
        ))
    sig: dict[str, tuple] = {}
    coincidences = []
    for gamma in cf.sigma:
        cells = sorted((*t.tau.range_interval(), i)
                       for i, cb in enumerate(cf.blocks) for t in cb.terms_of(gamma))
        sig[gamma] = tuple(merge_intervals((lo, hi) for lo, hi, _ in cells))
        for (lo1, hi1, b1), (lo2, hi2, b2) in zip(cells, cells[1:]):
            if lo2 < hi1:
                coincidences.append(
                    f"source {gamma}: cells of blocks {b1} and {b2} overlap "
                    f"on ({lo2}, {min(hi1, hi2)})")
    return SpectrumModel(cf, tuple(segments), sig, tuple(coincidences))


def gamma_coordinates(cf: CanonicalForm, block: int, r) -> dict[str, tuple[Fraction, ...]]:
    """Per-source sorted passage-value multisets at a segment parameter."""
    cb = cf.blocks[block]
    r = Fraction(r)
    if not 0 <= r <= cb.length:
        raise EikonalError(f"parameter {r} outside [0, {cb.length}]")
    out: dict[str, tuple[Fraction, ...]] = {}
    for gamma in cf.sigma:
        vals = sorted(t.tau(r) for t in cb.terms_of(gamma))
        out[gamma] = tuple(vals)
    return out


def quotient_graph(sm: SpectrumModel) -> QuotientGraph:
    """Identify segment endpoints sharing a per-source coordinate value.

    Interior points are never identified; the construction is exploratory
    metadata, matching cluster ends to an abstract folded graph.
    """
    cf = sm.form
    endpoints = [(i, end) for i in range(len(cf.blocks)) for end in (0, 1)]
    coords = [gamma_coordinates(cf, i, cf.blocks[i].length if end else Fraction(0))
              for i, end in endpoints]
    first: dict[tuple[str, Fraction], int] = {}  # per source value, its first endpoint
    classes = connected_classes(len(endpoints), [
        (first.setdefault((gamma, value), k), k)
        for k, c in enumerate(coords) for gamma in cf.sigma for value in c[gamma]])
    nodes = tuple(tuple(endpoints[k] for k in members) for members in classes)
    node_of = {ep: node_idx for node_idx, members in enumerate(nodes) for ep in members}
    edges = tuple(
        (node_of[(i, 0)], node_of[(i, 1)], cf.blocks[i].length, i)
        for i in range(len(cf.blocks)))
    return QuotientGraph(nodes, edges)
