"""Reduction of the parametric representation to independent canonical blocks.

Families split into kappa x kappa irreducible blocks, one per projector
equivalence class, on an orthonormal basis of the class's span.  End values
of the passage-time functions induce, per source vertex, an exact pairing of
block ends; ends whose tag sets pair bijectively are junction candidates, and
candidates passing the signed-Gram connection test are glued into a single
longer block through an orthogonal witness.  When no junction remains, each
block's slope +-1 generators span the full matrix algebra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import EikonalError, SeamMismatch, StructuralFault
from .projalg import (
    DEFAULT_TOL,
    connection_test,
    equivalence_classes,
    irreducible_reduction,
    word_span_dim,
)
from .representation import BlockTerm, CanonicalBlock, ParametricRepr, Piece


@dataclass(frozen=True)
class CanonicalForm:
    sigma: tuple[str, ...]
    horizon: Fraction
    blocks: tuple[CanonicalBlock, ...]
    junctions: int
    notes: tuple[str, ...] = ()


def split_blocks(repr_: ParametricRepr, tol: float = DEFAULT_TOL
                 ) -> list[CanonicalBlock]:
    """Each family's projector classes -> blocks on the Gram-Schmidt basis of their span."""
    blocks: list[CanonicalBlock] = []
    for fam in repr_.families:
        entries = repr_.blocks[fam.index].terms
        if not entries:
            continue
        for members in equivalence_classes([t.beta for t in entries], tol):
            per_gamma_count: Counter[str] = Counter()
            terms = []
            for idx in members:
                t = entries[idx]
                terms.append(replace(t, k=per_gamma_count[t.gamma]))
                per_gamma_count[t.gamma] += 1
            terms.sort(key=lambda t: (t.gamma, t.k))
            q = irreducible_reduction([t.beta for t in terms], tol)
            blocks.append(CanonicalBlock(
                fam.epsilon, q.shape[1],
                tuple(replace(t, beta=q.T @ t.beta) for t in terms),
                (Piece(len(blocks), Fraction(0), fam.epsilon, False),)))
    return blocks


def boundary_map(blocks: Sequence[CanonicalBlock]
                 ) -> dict[tuple[str, Fraction], list[tuple[int, int, int]]]:
    """End tags (block, end, k) grouped by (source, end value).

    A group of two pairs its tags; a lone tag pairs with itself.  end is 0 or
    1 (r = 0 / r = length), block a position in `blocks`.
    """
    table: dict[tuple[str, Fraction], list[tuple[int, int, int]]] = {}
    for i, b in enumerate(blocks):
        for t in b.terms:
            for end in (0, 1):
                table.setdefault((t.gamma, t.tau.end_value(end)), []).append(
                    (i, end, t.k))
    for (gamma, value), group in table.items():
        if len(group) > 2:
            raise StructuralFault(
                f"value {value} of source {gamma} is shared by "
                f"{len(group)} end tags; expected at most 2")
    return table


def junction_candidates(blocks: Sequence[CanonicalBlock]
                        ) -> list[tuple[tuple[int, int], tuple[int, int], dict]]:
    """Ends whose tags all pair across to one end of another block, ascending.

    Each candidate is (lower end, partner end, pairing of the lower end's
    term keys (gamma, k) to the partner's), an end being (block, 0 or 1).
    """
    # per end: the far end each tag pairs with (None within one block)
    links: dict[tuple[int, int], list] = {}
    for (gamma, _), group in boundary_map(blocks).items():
        for (i, e, k), (j, f, k2) in zip(group, group[::-1]):
            links.setdefault((i, e), []).append(
                ((j, f) if j != i else None, (gamma, k), (gamma, k2)))
    out = []
    for side, tags in sorted(links.items()):
        fars = {far for far, _, _ in tags}
        far = fars.pop()
        # pairing is one-to-one, so equal counts mean far's tags all pair back
        if (not fars and far is not None and far > side
                and len(links[far]) == len(tags)):
            out.append((side, far, dict(sorted((ka, kb) for _, ka, kb in tags))))
    return out


def transpose_block(b: CanonicalBlock) -> CanonicalBlock:
    terms = tuple(replace(t, tau=t.tau.transposed()) for t in b.terms)
    pieces = tuple(
        Piece(p.source, b.length - p.offset - p.length, p.length, not p.flipped)
        for p in reversed(b.pieces))
    return replace(b, terms=terms, pieces=pieces)


def junction(a: CanonicalBlock, end_a: int, b: CanonicalBlock, end_b: int,
             pairing: Mapping[tuple[str, int], tuple[str, int]],
             witness: np.ndarray) -> CanonicalBlock:
    """Glue b onto a through the given ends; the result runs a-first.

    The witness must carry each b beta onto its a partner up to sign (checked
    on the vectors); b's taus are continued past the seam, which requires
    exact value and slope agreement there (checked).
    """
    if end_a == 0:
        a = transpose_block(a)
    if end_b == 1:
        b = transpose_block(b)
    total = a.length + b.length
    b_terms = {(t.gamma, t.k): t for t in b.terms}
    new_terms = []
    for t in a.terms:
        tb = b_terms[pairing[(t.gamma, t.k)]]
        if t.tau(a.length) != tb.tau.intercept:
            raise SeamMismatch(
                f"seam values differ for {t.gamma}: {t.tau(a.length)} vs "
                f"{tb.tau.intercept}")
        if t.tau.slope != tb.tau.slope:
            raise SeamMismatch(f"seam slopes differ for {t.gamma}")
        mapped = witness @ tb.beta
        if min(np.max(np.abs(mapped - t.beta)),
               np.max(np.abs(mapped + t.beta))) > 1e-7:
            raise SeamMismatch("witness does not carry the paired projector")
        new_terms.append(replace(t, tau=t.tau.extended(total)))
    pieces = a.pieces + tuple(
        Piece(p.source, a.length + p.offset, p.length, p.flipped)
        for p in b.pieces)
    return CanonicalBlock(total, a.kappa, tuple(new_terms), pieces)


def canonicalize_blocks(blocks: Sequence[CanonicalBlock], tol: float = DEFAULT_TOL
                        ) -> tuple[list[CanonicalBlock], int, list[str]]:
    """Junction connected blocks until none remain; lowest-position-first order.

    A joined pair takes the place of its first block; the second is removed.
    Blocks are named by their position in `blocks`; a joined block keeps the
    lower name, so names order the blocks as their list positions do.  The
    candidates are found once: a junction leaves every outer end value in
    place (the joined taus extend the originals), so it only retires the two
    seam ends and moves the outer ends onto the joined block.  The lowest
    untested candidate is tried next, which is the one a rescan from the
    lowest would pick, since a rejected test is rejected again until one of
    its blocks changes.  Each rejection leaves a note with its reason.
    """
    live = dict(enumerate(blocks))
    # each end of a candidate: the partner end, and the pairing of this end's
    # term keys to the partner's
    link: dict[tuple[int, int], tuple[tuple[int, int], dict]] = {}
    untested: set[tuple[int, int]] = set()  # lower ends of untested candidates

    def connect(side, far, pairing):
        link[side] = (far, pairing)
        link[far] = (side, {v: k for k, v in pairing.items()})
        untested.add(min(side, far))

    for side, far, pairing in junction_candidates(blocks):
        connect(side, far, pairing)
    notes: list[str] = []
    n_junctions = 0
    while untested:
        side_a = min(untested)
        untested.remove(side_a)
        side_b, pairing = link[side_a]
        (ia, end_a), (ib, end_b) = side_a, side_b
        a, b = live[ia], live[ib]
        idx_a = {(t.gamma, t.k): i for i, t in enumerate(a.terms)}
        idx_b = {(t.gamma, t.k): i for i, t in enumerate(b.terms)}
        index_pairing = {idx_a[ka]: idx_b[kb] for ka, kb in pairing.items()}
        verdict = connection_test(a.betas(), b.betas(), index_pairing, tol)
        if not verdict.connected:
            note = (f"junction of block {ia} end {end_a} with block {ib} end "
                    f"{end_b} rejected: {verdict.reason}")
            if note not in notes:
                notes.append(note)
            continue
        live[ia] = junction(a, end_a, b, end_b, pairing, verdict.witness)
        del live[ib], link[side_a], link[side_b]
        n_junctions += 1
        # the joined block runs a-first under a's term keys: a's outer end
        # becomes its end 0, b's its end 1.  Its taus are monotone over the
        # whole length, so the two outer ends never pair with each other.
        to_a = {kb: ka for ka, kb in pairing.items()}
        for old, new, keys in (((ia, 1 - end_a), (ia, 0), None),
                               ((ib, 1 - end_b), (ia, 1), to_a)):
            if old not in link:
                continue
            far, pmap = link.pop(old)
            if keys is not None:
                pmap = {keys[k]: v for k, v in pmap.items()}
            untested.discard(min(old, far))
            connect(new, far, pmap)
    return list(live.values()), n_junctions, notes


def _joined_form(src: ParametricRepr | CanonicalForm,
                 blocks: list[CanonicalBlock], tol: float) -> CanonicalForm:
    """Junction to exhaustion and check each block."""
    done, n_junctions, notes = canonicalize_blocks(blocks, tol)
    for cb in done:
        _check_canonical_invariants(cb, tol)
    return CanonicalForm(src.sigma, src.horizon, tuple(done), n_junctions, tuple(notes))


def canonicalize(repr_: ParametricRepr, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Full reduction: split onto class spans, junction to exhaustion."""
    if not repr_.shifted:
        raise EikonalError("canonicalize expects the shifted representation")
    return _joined_form(repr_, split_blocks(repr_, tol), tol)


def recanonicalize(cf: CanonicalForm, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Run the junction loop again on a canonical form (idempotence check)."""
    blocks = [replace(cb, pieces=(Piece(i, Fraction(0), cb.length, False),))
              for i, cb in enumerate(cf.blocks)]
    return _joined_form(cf, blocks, tol)


def _check_canonical_invariants(cb: CanonicalBlock, tol: float) -> None:
    for gamma in sorted({t.gamma for t in cb.terms}):
        terms = cb.terms_of(gamma)
        for i, t in enumerate(terms):
            for s in terms[i + 1:]:
                if abs(float(t.beta @ s.beta)) > 10 * tol:
                    raise EikonalError(
                        f"per-source projectors not orthogonal in a canonical "
                        f"block (source {gamma})")
        ranges = [t.tau.range_interval() for t in terms]
        ranges.sort()
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            if a2 < b1:
                raise EikonalError(
                    f"tau ranges of source {gamma} overlap inside a block")
    mats = [t.projector() for t in cb.terms]
    if word_span_dim(mats, tol) != cb.kappa ** 2:
        raise EikonalError("canonical block does not generate the full algebra")


def equivalent_forms(cf1: CanonicalForm, cf2: CanonicalForm,
                     tol: float = DEFAULT_TOL) -> bool:
    """Equality up to block order, per-block transposition and isomorphism."""
    if len(cf1.blocks) != len(cf2.blocks):
        return False

    def signature(cb: CanonicalBlock):
        ranges: dict[str, list] = {}
        for t in cb.terms:
            ranges.setdefault(t.gamma, []).append(t.tau.range_interval())
        return (cb.length, cb.kappa,
                tuple(sorted((g, tuple(sorted(r))) for g, r in ranges.items())))

    def blocks_match(a: CanonicalBlock, b: CanonicalBlock) -> bool:
        if signature(a) != signature(b):
            return False

        def by_tau(terms):
            return sorted(terms, key=lambda t: (t.gamma, t.tau.intercept, t.tau.slope))

        tags_a = by_tau(a.terms)
        for bb in (b, transpose_block(b)):
            tags_b = by_tau(bb.terms)
            if [(t.gamma, t.tau) for t in tags_a] != [(t.gamma, t.tau) for t in tags_b]:
                continue
            identity = {i: i for i in range(len(tags_a))}
            if connection_test([t.beta for t in tags_a], [t.beta for t in tags_b],
                               identity, tol).connected:
                return True
        return False

    remaining = list(range(len(cf2.blocks)))

    def assign(i: int) -> bool:
        if i == len(cf1.blocks):
            return True
        for j in list(remaining):
            if blocks_match(cf1.blocks[i], cf2.blocks[j]):
                remaining.remove(j)
                if assign(i + 1):
                    return True
                remaining.append(j)
        return False

    return assign(0)
