"""Amplitude vectors over determination sets and their orthonormal frames.

An alpha-set collects the exact hydra amplitudes of one source at the passage
times of a determination set; Gram-Schmidt with an explicit zero branch turns
it into a beta-set.  For several sources the frames live over the joint
determination set, supported only where that source's waves have arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import FrameError, InvariantViolation
from .impulse import Hydra
from .metric_graph import Position, eccentricity
from .partition import Partition

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class AlphaSet:
    """Rows = passage times (ascending), columns = determination-set points.

    The matrix is sparse: `entries` maps (row, column) to each nonzero
    amplitude; every other entry is zero.
    """

    positions: tuple[Position, ...]
    times: tuple[Fraction, ...]
    entries: dict[tuple[int, int], Fraction] = field(repr=False)

    def as_float(self) -> np.ndarray:
        out = np.zeros((len(self.times), len(self.positions)))
        for (i, j), a in self.entries.items():
            out[i, j] = a
        return out


@dataclass(frozen=True)
class BetaFrame:
    """Orthonormalized amplitude vectors.

    vectors is n x m; zero rows mark amplitude vectors dependent on their
    predecessors (or sources whose waves have not arrived).
    """

    vectors: np.ndarray
    nonzero: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def nonzero_matrix(self) -> np.ndarray:
        return self.vectors[list(self.nonzero), :] if self.nonzero else \
            np.zeros((0, self.dim))


def alpha_set(hydra: Hydra, positions: Sequence[Position],
              times: Sequence[Fraction]) -> AlphaSet:
    """Exact amplitudes of one hydra at the grid positions x times."""
    times = tuple(sorted(Fraction(t) for t in times))
    positions = tuple(positions)
    ticks = hydra.tick_index([x.offset for x in positions] + list(times))
    rows_of: dict[int, list[int]] = {}
    for i, t in enumerate(times):
        rows_of.setdefault(ticks.tick(t), []).append(i)
    entries = {}
    for j, x in enumerate(positions):
        for t, a in hydra.tick_amplitudes(ticks, ticks.key(x)).items():
            if a:
                for i in rows_of.get(t, ()):
                    entries[i, j] = a
    return AlphaSet(positions, times, entries)


def gram_schmidt(a: np.ndarray, tol: float = DEFAULT_TOL) -> BetaFrame:
    """Three-branch Gram-Schmidt of the rows: normalize, orthonormalize, or zero out.

    A row whose residual norm is <= tol lies in the span of its predecessors
    (a zero first row included) and produces a zero beta.
    """
    a = np.asarray(a, float)
    n, m = a.shape
    betas = np.zeros((n, m))
    nonzero: list[int] = []
    for i in range(n):
        resid = a[i].copy()
        for j in nonzero:
            resid -= float(resid @ betas[j]) * betas[j]
        norm = float(np.linalg.norm(resid))
        if norm <= tol:
            continue
        betas[i] = resid / norm
        nonzero.append(i)
    return BetaFrame(betas, tuple(nonzero))


def family_frames(partition: Partition, hydras: Sequence[Hydra],
                  tol: float = DEFAULT_TOL) -> dict[tuple[int, str], BetaFrame]:
    """Per (family, source) beta-frames over the joint determination sets.

    The alpha rows use the family's joint passage times; entries at points a
    source has not reached are exactly zero, which realizes the zero
    extension of the per-source beta-set to the joint determination set.
    Constancy of the entries across each cell is verified at a second
    parameter sample.
    """
    g = hydras[0].graph
    by_source = {h.source: h for h in hydras}
    if tuple(sorted(by_source)) != partition.sigma:
        raise FrameError("hydras do not match the partition's source set")
    T = partition.horizon
    single = len(partition.sigma) == 1
    if single:
        t_fill = eccentricity(g, partition.sigma[0])

    frames: dict[tuple[int, str], BetaFrame] = {}
    for fam in partition.families:
        r1 = fam.epsilon * Fraction(1, 3)
        r2 = fam.epsilon * Fraction(2, 5)
        lam1, lam2 = fam.lambda_at(g, r1), fam.lambda_at(g, r2)
        xi1, xi2 = fam.times_at(r1), fam.times_at(r2)
        for gamma in partition.sigma:
            h = by_source[gamma]
            a1 = alpha_set(h, lam1, xi1)
            a2 = alpha_set(h, lam2, xi2)
            # the two samples have the same shape (a point per cell, a time per
            # time cell), so equal nonzero entries mean equal matrices
            if a1.entries != a2.entries:
                raise FrameError(
                    f"amplitudes not constant across cells of family {fam.index}")
            frame = gram_schmidt(a1.as_float(), tol)
            if single and len(frame.nonzero) != frame.n and T < t_fill:
                raise InvariantViolation(
                    "zero beta row for a single subcritical source; amplitude "
                    "vectors should be linearly independent")
            nz = frame.nonzero_matrix()
            gram = nz @ nz.T
            if nz.size and float(np.max(np.abs(gram - np.eye(len(frame.nonzero))))) > 10 * tol:
                raise InvariantViolation("beta frame is not orthonormal")
            frames[(fam.index, gamma)] = frame
    return frames
