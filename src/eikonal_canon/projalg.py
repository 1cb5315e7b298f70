"""Finite-dimensional algebras generated by one-dimensional projectors.

Unit vectors stand in for their rank-one projectors.  The nonzero-inner-
product relation partitions a projector family into equivalence classes;
each class generates a full matrix algebra on its span.  Two classes living
in different blocks can be identified exactly when, under a prescribed
pairing, per-line sign changes make their signed Gram matrices equal, in
which case an explicit orthogonal witness intertwines them.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EikonalError
from .frames import DEFAULT_TOL, gram_schmidt


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


def connected_classes(n: int, pairs: Iterable[tuple[int, int]]
                      ) -> list[tuple[int, ...]]:
    """Classes of range(n) under the transitive closure of the linked pairs.

    Union-find; each class is sorted and classes come by smallest member.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(groups[root]) for root in sorted(groups)]


def equivalence_classes(vectors, tol: float = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """Transitive closure of |<b_i, b_j>| > tol over unit-vector rows.

    The links are read off one Gram product; classes are sorted member
    tuples and come by smallest member.
    """
    vecs = _unit_rows(vectors)
    if not len(vecs):
        return []
    rows, cols = np.nonzero(np.abs(vecs @ vecs.T) > tol)
    upper = rows < cols
    return connected_classes(len(vecs), zip(rows[upper].tolist(), cols[upper].tolist()))


def gram_matrix(vectors) -> np.ndarray:
    """|<b_i, b_j>| entrywise; equals the pairwise projector product norms."""
    vecs = _unit_rows(vectors)
    return np.abs(vecs @ vecs.T)


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


_STRIP = 16
"""Rows per strip in word_span_dim's row norms and rank-one updates: the
results equal the whole-stack operations bit for bit, without a temporary
the size of the stack."""


def _mapped(rows: int, cols: int) -> np.ndarray:
    """An uninitialized float array in its own anonymous memory mapping.

    Pages are taken as they are written and all go back to the system when
    the array goes.  word_span_dim keeps its stacks and basis (up to kappa^4
    floats) out of malloc this way: glibc raises its mmap threshold to the
    size of a freed block of up to 32 MiB, and the heap then keeps as much
    as twice that for the rest of the process.
    """
    return np.frombuffer(mmap.mmap(-1, max(8, rows * cols * 8)),
                         dtype=float, count=rows * cols).reshape(rows, cols)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1), one strip of rows at a time."""
    out = np.empty(len(a))
    for i in range(0, len(a), _STRIP):
        out[i:i + _STRIP] = np.linalg.norm(a[i:i + _STRIP], axis=1)
    return out


def word_span_dim(mats: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> int:
    """Dimension of the span of all nonempty words in the given matrices.

    Grows orthonormal (vectorized) rows of the span a whole word length at a
    time.  Each round multiplies every generator by the words that brought
    new directions in the last round; one generator's products are
    normalized and projected out of the span twice, and then, largest
    residual first, each word whose residual is above 10 * tol adds a
    direction (column-pivoted Gram-Schmidt).  A stack is at most (new words)
    x kappa^2.  Rounds multiply words, not span directions: a direction taken
    from a small residual carries roundoff divided by that residual, and
    that roundoff reaches later residuals (1.8e-9 on a summand whose
    smallest genuine residual was 1.6e-7), so a pick needs 10 * tol.
    """
    mats = [np.asarray(m, float) for m in mats]
    if not mats:
        return 0
    dim = mats[0].shape[0]
    cap = dim * dim
    # the generators g / |g|, divided out where they are used, not held as copies
    gens = [(m, nm) for m in mats if (nm := float(np.linalg.norm(m))) > tol]
    basis = _mapped(cap, cap)
    rank = 0

    def absorb(stack: np.ndarray, word) -> np.ndarray:
        """Add the new directions of a stack of words; return the words that did.

        The stack, a temporary, becomes the residuals; word(i) rebuilds its
        i-th row as it was passed, so no second copy of the stack is held.
        """
        nonlocal rank
        res = stack.reshape(len(stack), cap)
        norms = _row_norms(res)
        kept = np.flatnonzero((norms > tol) & (rank < cap))  # a full span takes nothing
        if len(kept) < len(res):
            res, norms = res[kept], norms[kept]
        res /= norms[:, None]
        for _ in range(2 if rank else 0):  # re-orthogonalize: one pass alone drifts
            res -= (res @ basis[:rank].T) @ basis[:rank]
        picked = []
        while len(res) and rank < cap:
            sizes = _row_norms(res)
            p = int(np.argmax(sizes))
            if sizes[p] <= 10 * tol:
                break
            q = res[p] - (basis[:rank] @ res[p]) @ basis[:rank]
            q /= np.linalg.norm(q)
            c = res @ q
            for i in range(0, len(res), _STRIP):
                res[i:i + _STRIP] -= np.outer(c[i:i + _STRIP], q)
            basis[rank] = q
            rank += 1
            picked.append(p)
        return np.array([word(kept[p]) / norms[p] for p in picked]).reshape(len(picked), cap)

    first = _mapped(len(gens), cap)
    for out, (m, nm) in zip(first, gens):
        np.divide(m, nm, out=out.reshape(dim, dim))
    layer = absorb(first, lambda i: np.divide(*gens[i]).ravel())
    while len(layer) and rank < cap:
        words = layer.reshape(-1, dim, dim)
        products, stack = _mapped(len(words), cap), _mapped(len(words), cap)
        found = []
        for m, nm in gens:
            np.matmul(m / nm, words, out=products.reshape(-1, dim, dim))
            np.copyto(stack, products)
            found.append(absorb(stack, lambda i: products[i]))
        layer = np.vstack(found)
    return rank
