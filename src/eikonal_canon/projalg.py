"""Finite-dimensional algebras generated by one-dimensional projectors.

Unit vectors stand in for their rank-one projectors.  The nonzero-inner-
product relation partitions a projector family into equivalence classes;
each class generates a full matrix algebra on its span.  Two classes living
in different blocks can be identified exactly when their Gram data and the
subspace-angle invariants agree under a prescribed pairing, in which case an
explicit orthogonal witness intertwines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EikonalError, InvariantViolation
from .frames import DEFAULT_TOL, gram_schmidt


@dataclass(frozen=True)
class TaggedProjector:
    """A unit vector with bookkeeping tags (source vertex, indices, end)."""

    gamma: str
    key: tuple
    vector: np.ndarray
    end: int | None = None

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vector))
        if abs(norm - 1.0) > 1e-6:
            raise EikonalError(f"projector vector has norm {norm}, expected 1")


ProjectorFamily = Sequence[TaggedProjector]


@dataclass(frozen=True)
class EquivClass:
    members: tuple[int, ...]
    kappa: int


@dataclass(frozen=True)
class AngleInvariants:
    """Unitary invariants of an ordered family of lines, in radians."""

    chain: tuple[float, ...]          # angle of L_i to span(L_1..L_{i-1})
    pairs: Mapping[tuple[int, int], float]
    triples: Mapping[tuple[int, int, int], float]

    def cosines(self) -> list[float]:
        """Cosines of chain, pair and triple angles in that fixed order."""
        angles = (*self.chain, *self.pairs.values(), *self.triples.values())
        return [float(np.cos(a)) for a in angles]


@dataclass(frozen=True)
class Verdict:
    connected: bool
    reason: str
    witness: np.ndarray | None = None


def _vectors(ps: ProjectorFamily) -> np.ndarray:
    return np.array([p.vector for p in ps], dtype=float)


def numerical_rank(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def connected_classes(n: int, linked: Callable[[int, int], bool]
                      ) -> list[tuple[int, ...]]:
    """Classes of range(n) under the transitive closure of linked(i, j), i < j.

    Union-find; each class is sorted and classes come by smallest member.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if linked(i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(groups[root]) for root in sorted(groups)]


def equivalence_classes(ps: ProjectorFamily, tol: float = DEFAULT_TOL
                        ) -> list[EquivClass]:
    """Transitive closure of |<b_i, b_j>| > tol, ordered by smallest member."""
    vecs = _vectors(ps)
    classes = connected_classes(
        len(ps), lambda i, j: abs(float(vecs[i] @ vecs[j])) > tol)
    return [EquivClass(members, numerical_rank(vecs[list(members)], tol))
            for members in classes]


def gram_matrix(ps: ProjectorFamily) -> np.ndarray:
    """|<b_i, b_j>| entrywise; equals the pairwise projector product norms."""
    vecs = _vectors(ps)
    return np.abs(vecs @ vecs.T)


def _orthonormal_basis(vectors: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Columns spanning the row space, via SVD."""
    if vectors.size == 0:
        return np.zeros((vectors.shape[1] if vectors.ndim == 2 else 0, 0))
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return vt[:rank].T


def subspace_angle(span_l: np.ndarray, span_m: np.ndarray,
                   tol: float = DEFAULT_TOL) -> float:
    """arccos of the largest singular value of P_L P_M, in [0, pi/2].

    Spanning sets are given as rows; a zero spanning set denotes the zero
    subspace, at right angle to everything.
    """
    ql = _orthonormal_basis(np.atleast_2d(span_l), tol)
    qm = _orthonormal_basis(np.atleast_2d(span_m), tol)
    if ql.shape[1] == 0 or qm.shape[1] == 0:
        return float(np.pi / 2)
    s = np.linalg.svd(ql.T @ qm, compute_uv=False)
    c = min(1.0, float(s[0]) if s.size else 0.0)
    return float(np.arccos(c))


def angle_invariants(ps: ProjectorFamily, tol: float = DEFAULT_TOL
                     ) -> AngleInvariants:
    """All chain, pair and triple subspace angles of the ordered family."""
    vecs = _vectors(ps)
    n = len(ps)
    chain = []
    for i in range(n):
        chain.append(subspace_angle(vecs[i:i + 1], vecs[:i], tol))
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = subspace_angle(vecs[i:i + 1], vecs[j:j + 1], tol)
    triples = {}
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                triples[(i, j, l)] = subspace_angle(
                    vecs[[i, j]], vecs[l:l + 1], tol)
    return AngleInvariants(tuple(chain), pairs, triples)


def _sign_witness(va: np.ndarray, vb: np.ndarray, tol: float) -> np.ndarray | None:
    """Orthogonal map T with T vb_i = +- va_i, if signed Grams can be matched."""
    n = va.shape[0]
    ga, gb = va @ va.T, vb @ vb.T
    signs = np.zeros(n)
    # the class is connected under |g| > tol, so a BFS assigns all signs
    for start in range(n):
        if signs[start]:
            continue
        signs[start] = 1.0
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if signs[j] or abs(ga[i, j]) <= tol:
                    continue
                if abs(gb[i, j]) <= tol:
                    return None
                signs[j] = signs[i] * np.sign(ga[i, j]) * np.sign(gb[i, j])
                queue.append(j)
    vbs = vb * signs[:, None]
    if np.max(np.abs(vbs @ vbs.T - ga)) > 50 * max(tol, 1e-12):
        return None
    # T (vbs_i) = va_i: well-defined on spans because the Grams now agree
    t = va.T @ np.linalg.pinv(vbs).T
    if np.max(np.abs((vbs @ t.T) - va)) > 1e-7:
        return None
    return t


def connection_test(p1: ProjectorFamily, p2: ProjectorFamily,
                    pairing: Mapping[int, int],
                    tol: float = DEFAULT_TOL) -> Verdict:
    """Decide whether two single-class families are identified by the pairing.

    Connected requires the pairing to be a bijection, entrywise agreement of
    the Gram matrices, and agreement of all chain/pair/triple angle
    invariants (compared on their cosines).  On success the witness is an
    orthogonal map sending each p2 vector onto its p1 partner up to sign, so
    conjugation by it carries the second algebra onto the first.
    """
    n = len(p1)
    if sorted(pairing.keys()) != list(range(n)):
        raise EikonalError("pairing is not total on the first family")
    if sorted(pairing.values()) != list(range(len(p2))):
        if len(set(pairing.values())) != len(pairing):
            raise EikonalError("pairing is not injective")
        return Verdict(False, "pairing is not onto the second family")
    if len(p2) != n:
        return Verdict(False, "families have different sizes")
    reordered = [p2[pairing[i]] for i in range(n)]
    g1 = gram_matrix(p1)
    g2 = gram_matrix(reordered)
    if float(np.max(np.abs(g1 - g2))) > tol:
        return Verdict(False, "Gram matrices disagree")
    c1 = angle_invariants(p1, tol).cosines()
    c2 = angle_invariants(reordered, tol).cosines()
    if max(abs(a - b) for a, b in zip(c1, c2)) > tol:
        return Verdict(False, "angle invariants disagree")
    witness = _sign_witness(_vectors(p1), _vectors(reordered), tol)
    if witness is None:
        raise InvariantViolation(
            "invariants agree but no sign-consistent witness exists")
    return Verdict(True, "gram and angle invariants agree", witness)


def irreducible_reduction(ps: ProjectorFamily, tol: float = DEFAULT_TOL
                          ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Orthonormal basis of the class span and the projectors in that basis.

    Returns (basis Q with kappa columns, kappa x kappa images Q^T P_i Q).
    """
    vecs = _vectors(ps)
    q = gram_schmidt(vecs, tol, strict_first=False).nonzero_matrix().T
    images = []
    for v in vecs:
        w = q.T @ v
        images.append(np.outer(w, w))
    return q, images


def word_span_dim(mats: Sequence[np.ndarray], tol: float = DEFAULT_TOL,
                  max_len: int | None = None) -> int:
    """Dimension of the span of all nonempty words in the given matrices.

    Grows the span one multiplication at a time until the rank stabilizes
    (or the optional word-length cap is hit).
    """
    mats = [np.asarray(m, float) for m in mats]
    if not mats:
        return 0
    dim = mats[0].shape[0]
    cap = dim * dim
    basis: list[np.ndarray] = []  # orthonormal vectorized span

    def absorb(m: np.ndarray) -> np.ndarray | None:
        """Return the unit-norm matrix if it adds a new direction."""
        if len(basis) >= cap:
            return None
        nm = float(np.linalg.norm(m))
        if nm <= tol:
            return None
        m = m / nm  # residual test is relative to the matrix itself
        v = m.reshape(-1).copy()
        for _ in range(2):  # re-orthogonalize: classical GS alone drifts
            for b in basis:
                v = v - (v @ b) * b
        norm = float(np.linalg.norm(v))
        if norm > tol:
            basis.append(v / norm)
            return m
        return None

    unit_gens = []
    layer = []
    for m in mats:
        nm = float(np.linalg.norm(m))
        if nm > tol:
            unit_gens.append(m / nm)
        kept = absorb(m)
        if kept is not None:
            layer.append(kept)
    length = 1
    while layer and (max_len is None or length < max_len) and len(basis) < cap:
        nxt = []
        for m in layer:
            for gen in unit_gens:
                kept = absorb(gen @ m)
                if kept is not None:
                    nxt.append(kept)
        layer = nxt
        length += 1
    return len(basis)
