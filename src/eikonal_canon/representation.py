"""Matrix-function form of projectors and (shifted) eikonals over a partition.

Per family and source, the restriction of the eikonal acts on cell-vector
functions of the cell parameter r as sum_i tau_i(r) P_i with one-dimensional
pairwise-orthogonal projectors P_i = beta_i beta_i^T.  Shifting by +1 turns
the reachable-set projector into a unit and moves the spectrum to [1, T+1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EikonalError, MissingSampleError
from .frames import BetaFrame, DEFAULT_TOL
from .metric_graph import Position, merge_intervals
from .partition import Family, LinearTimeFn, Partition


@dataclass(frozen=True)
class BlockTerm:
    """One (passage time, rank-one projector beta beta^T) pair of source gamma.

    k indexes the term among gamma's terms of its block: the time cell in a
    family block, the position among gamma's terms in a canonical block.
    """

    gamma: str
    k: int
    tau: LinearTimeFn
    beta: np.ndarray

    def projector(self) -> np.ndarray:
        return np.outer(self.beta, self.beta)


@dataclass(frozen=True)
class Piece:
    """Provenance of a parameter stretch: which original block it came from.

    The original parameter is offset + q for q in [0, length] when not
    flipped, and offset + (length - q) when flipped.
    """

    source: int
    offset: Fraction
    length: Fraction
    flipped: bool


@dataclass(frozen=True)
class CanonicalBlock:
    """A block: parameter interval [0, length] and per-source terms.

    The parametric form has one per family (length epsilon, kappa the
    family's dim); `canonical` splits them into irreducible blocks, addressed
    by their position in a block list, whose pieces record where their
    stretches came from.  The betas live in R^kappa: the family's cell space
    in the parametric form, an orthonormal basis of the projector span from
    the split on.
    """

    length: Fraction
    kappa: int
    terms: tuple[BlockTerm, ...]
    pieces: tuple[Piece, ...] = ()

    def terms_of(self, gamma: str) -> list[BlockTerm]:
        return [t for t in self.terms if t.gamma == gamma]

    def generator_at(self, gamma: str, r) -> np.ndarray:
        """sum_i tau_i(r) P_i over gamma's terms, as a kappa x kappa matrix."""
        terms = self.terms_of(gamma)
        if not terms:
            return np.zeros((self.kappa, self.kappa))
        betas = np.array([t.beta for t in terms])
        return (betas.T * [float(t.tau(r)) for t in terms]) @ betas

    def betas(self) -> np.ndarray:
        """The term betas as rows, in term order."""
        return np.array([t.beta for t in self.terms])


@dataclass(frozen=True)
class ParametricRepr:
    """Block-diagonal parametric form of all shifted (or raw) eikonals."""

    sigma: tuple[str, ...]
    horizon: Fraction
    shifted: bool
    partition: Partition
    blocks: Mapping[int, CanonicalBlock]  # by family index

    @property
    def families(self) -> tuple[Family, ...]:
        return self.partition.families


def projector_block(rows: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """B* B for orthonormal rows B: the matrix of the projector onto their span."""
    B = np.asarray(rows, float)
    if B.size and float(np.max(np.abs(B @ B.T - np.eye(B.shape[0])))) > 10 * tol:
        raise EikonalError("frame rows are not orthonormal")
    return B.T @ B


def build_parametric(partition: Partition,
                     frames: Mapping[tuple[int, str], BetaFrame],
                     shifted: bool = True) -> ParametricRepr:
    """Assemble one projector block per family from its sources' beta frames."""
    blocks: dict[int, CanonicalBlock] = {}
    for fam in partition.families:
        terms = []
        for gamma in partition.sigma:
            frame = frames.get((fam.index, gamma))
            if frame is None:
                raise EikonalError(
                    f"missing frame for family {fam.index}, source {gamma}")
            if frame.n != fam.n_times or frame.dim != fam.dim:
                raise EikonalError("frame and family shapes disagree")
            for i in frame.nonzero:
                tau = fam.taus[i].shifted() if shifted else fam.taus[i]
                terms.append(BlockTerm(gamma, i, tau, frame.vectors[i]))
        blocks[fam.index] = CanonicalBlock(fam.epsilon, fam.dim, tuple(terms))
    return ParametricRepr(partition.sigma, partition.horizon, shifted,
                          partition, blocks)


def evaluate_at(repr_: ParametricRepr,
                rs: Sequence) -> dict[str, list[np.ndarray]]:
    """Per-source family-block matrices at one parameter tuple (one r per family)."""
    fams = repr_.families
    if len(rs) != len(fams):
        raise EikonalError(f"expected {len(fams)} coordinates, got {len(rs)}")
    rs = [Fraction(r) for r in rs]
    for fam, r in zip(fams, rs):
        if not 0 <= r <= fam.epsilon:
            raise EikonalError(f"coordinate {r} outside [0, {fam.epsilon}]")
    return {
        gamma: [repr_.blocks[fam.index].generator_at(gamma, r)
                for fam, r in zip(fams, rs)]
        for gamma in repr_.sigma
    }


def sigma_ac(repr_: ParametricRepr, gamma: str) -> list[tuple[Fraction, Fraction]]:
    """Spectrum of the (shifted) eikonal on its reachable set: merged cell closures."""
    cells = []
    for fam in repr_.families:
        for term in repr_.blocks[fam.index].terms_of(gamma):
            cells.append(term.tau.range_interval())
    return merge_intervals(cells)


def apply_projector(repr_: ParametricRepr, gamma: str,
                    samples: Mapping[Position, float],
                    xs: Iterable[Position]) -> dict[Position, float]:
    """Action of the reachable-set projector on a sampled function.

    samples must cover the joint determination set of every queried position;
    queries at critical points or outside the filled region map to 0.
    """
    graph = repr_.partition.graph
    out: dict[Position, float] = {}
    for x in xs:
        hit = repr_.partition.family_of(x)
        if hit is None:
            out[x] = 0.0
            continue
        fam, cell_idx, r = hit
        lam = fam.lambda_at(graph, r)
        try:
            values = np.array([samples[p] for p in lam], dtype=float)
        except KeyError as exc:
            raise MissingSampleError(
                f"no sample at determination point {exc.args[0]}") from None
        acc = 0.0
        for term in repr_.blocks[fam.index].terms_of(gamma):
            acc += float(values @ term.beta) * float(term.beta[cell_idx])
        out[x] = acc
    return out
