"""Finite-dimensional algebras generated by one-dimensional projectors.

Unit vectors stand in for their rank-one projectors.  The nonzero-inner-
product relation partitions a projector family into equivalence classes;
each class generates a full matrix algebra on its span.  Two classes living
in different blocks can be identified exactly when, under a prescribed
pairing, per-line sign changes make their signed Gram matrices equal, in
which case an explicit orthogonal witness intertwines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import EikonalError
from .frames import DEFAULT_TOL, gram_schmidt


LINK_ROWS = 128
"""Rows of the Gram matrix that equivalence_classes holds as floats at a time."""


@dataclass(frozen=True)
class Verdict:
    connected: bool
    reason: str
    witness: np.ndarray | None = None


def _unit_rows(vectors) -> np.ndarray:
    """The vectors as the rows of a float array; each must have norm 1."""
    vecs = np.asarray(vectors, dtype=float)
    if len(vecs):
        norms = np.linalg.norm(vecs, axis=1)
        worst = float(norms[np.argmax(np.abs(norms - 1.0))])
        if not abs(worst - 1.0) <= 1e-6:
            raise EikonalError(f"projector vector has norm {worst}, expected 1")
    return vecs


def connected_classes(linked: np.ndarray) -> list[tuple[int, ...]]:
    """Classes of range(n) under the transitive closure of a symmetric n x n link matrix.

    Each class grows from its smallest member one breadth at a time; classes
    are sorted member tuples and come by smallest member.
    """
    linked = np.asarray(linked, bool)
    free = np.ones(len(linked), bool)
    out = []
    for i in range(len(linked)):
        if not free[i]:
            continue
        members = np.zeros(len(linked), bool)
        members[i] = True
        frontier = members
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        free &= ~members
        out.append(tuple(np.flatnonzero(members).tolist()))
    return out


def equivalence_classes(vectors, tol: float = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """Transitive closure of |<b_i, b_j>| > tol over unit-vector rows.

    The links are read off the Gram product LINK_ROWS rows at a time, so no
    n x n float array is held; classes are sorted member tuples and come by
    smallest member.
    """
    vecs = _unit_rows(vectors)
    linked = np.empty((len(vecs), len(vecs)), bool)
    for lo in range(0, len(vecs), LINK_ROWS):
        gram = vecs[lo:lo + LINK_ROWS] @ vecs.T
        np.greater(np.abs(gram, out=gram), tol, out=linked[lo:lo + LINK_ROWS])
    return connected_classes(linked)


def _sign_witness(va: np.ndarray, vb: np.ndarray, ga: np.ndarray, gb: np.ndarray,
                  tol: float) -> np.ndarray | None:
    """Orthogonal map T with T vb_i = +- va_i, if the signed Grams ga, gb match."""
    n = va.shape[0]
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


def connection_test(p1, p2, pairing: Mapping[int, int],
                    tol: float = DEFAULT_TOL) -> Verdict:
    """Decide whether two single-class unit-vector families match under the pairing.

    Two ordered line families are orthogonally equivalent iff per-line sign
    changes make their signed Gram matrices equal; that signed Gram matrix
    up to signs is the complete set of angle invariants.  Connected requires
    the pairing to be a bijection, entrywise agreement of the |Gram|
    matrices, and such a sign change.  On success the witness is an
    orthogonal map sending each p2 vector onto its p1 partner up to sign, so
    conjugation by it carries the second algebra onto the first.
    """
    p1, p2 = _unit_rows(p1), _unit_rows(p2)
    n = len(p1)
    if sorted(pairing.keys()) != list(range(n)):
        raise EikonalError("pairing is not total on the first family")
    if sorted(pairing.values()) != list(range(len(p2))):
        if len(set(pairing.values())) != len(pairing):
            raise EikonalError("pairing is not injective")
        return Verdict(False, "pairing is not onto the second family")
    if len(p2) != n:
        return Verdict(False, "families have different sizes")
    reordered = p2[[pairing[i] for i in range(n)]]
    ga, gb = p1 @ p1.T, reordered @ reordered.T
    if float(np.max(np.abs(np.abs(ga) - np.abs(gb)))) > tol:
        return Verdict(False, "Gram matrices disagree")
    witness = _sign_witness(p1, reordered, ga, gb, tol)
    if witness is None:
        return Verdict(False, "angle invariants disagree: no per-line sign "
                              "change makes the signed Gram matrices equal")
    return Verdict(True, "signed Gram matrices agree up to per-line signs",
                   witness)


def irreducible_reduction(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Gram-Schmidt basis (kappa columns) of the span of unit-vector rows, in row order."""
    return gram_schmidt(_unit_rows(vectors), tol).nonzero_matrix().T


def word_span_dim(vectors, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the algebra the projectors b_i b_i^T of unit-vector rows generate.

    A class of the nonzero-inner-product relation generates the full matrix
    algebra on its span: products along a path of linked betas give every
    b_i b_k^T.  Different classes are orthogonal, so the algebra is the
    direct sum of M_r over the classes, r the class's rank: sum r^2.  The
    rank counts singular values above tol, the scale of gram_schmidt's zero
    rows, since the rows are unit vectors.
    """
    vecs = _unit_rows(vectors)
    return sum(int(np.linalg.matrix_rank(vecs[list(members)], tol)) ** 2
               for members in equivalence_classes(vecs, tol))
