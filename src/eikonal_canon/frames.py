"""Amplitude vectors over determination sets and their orthonormal frames.

An alpha-set collects the exact hydra amplitudes of one source at the passage
times of a determination set; orthonormalising its rows in order, with a zero
row for each row that depends on its predecessors, turns it into a beta-set.
For several sources the frames live over the joint determination set,
supported only where that source's waves have arrived.

The zero rows are exact: the rows are eliminated modulo a prime, and each row
that vanishes there is confirmed dependent over Q.  The betas come from the
Cholesky factor of the sparse Gram matrix of the independent rows (CholeskyQR,
with CholeskyQR2's second pass where one pass loses orthonormality; Yamamoto,
Nakatsukasa, Yanagisawa & Fukaya 2015), one connected component of the
row/column incidence at a time.
"""

from __future__ import annotations

import heapq
import math
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


PRIME = (1 << 61) - 1
"""The Mersenne prime the rows are eliminated modulo."""

REPEAT_ABOVE = 1e-12
"""Orthonormality error above which a component's betas take CholeskyQR2's
second pass: one pass loses orthonormality with the square of the condition
number, and betas are kept to 1e-12."""


def _reduce(row: dict, pivots: dict[int, dict], p: int) -> tuple[int | None, list]:
    """Reduce row in place by the pivot rows, lowest column first.

    Works over GF(p) for a prime p, over Q for p = 0.  A pivot row leads with
    1 at its column, which is its key, and has no entries left of it.
    Returns the column the remainder leads at (None once it is zero) and the
    steps: (column, multiple) for each pivot row subtracted.
    """
    steps = []
    todo = list(row)
    heapq.heapify(todo)
    while todo:
        c = heapq.heappop(todo)
        f = row.get(c)
        if f is None:
            continue
        pivot = pivots.get(c)
        if pivot is None:
            return c, steps
        for k, v in pivot.items():
            x = row.get(k)
            if x is None:
                heapq.heappush(todo, k)
                x = 0
            x -= f * v
            if p:
                x %= p
            if x:
                row[k] = x
            else:
                del row[k]
        steps.append((c, f))
    return None, steps


def _rational(a: int, p: int) -> tuple[int, int] | None:
    """(n, d) with n = a d mod p, |n| and 0 < d at most sqrt(p/2), if the
    half-extended Euclid finds one."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lifts(row: dict[int, int], steps: list, made: dict, rows: list) -> bool:
    """Whether the combination of earlier rows that cancels row mod PRIME,
    lifted to Q, reproduces row exactly.

    made maps each pivot column to (row index, inverse of its lead, steps):
    the pivot row is that row less its steps, times the inverse.  Unfolding
    pivots from the newest down rewrites the steps over the original rows.
    """
    owed = dict(steps)
    newest = [(-made[c][0], c) for c in owed]
    heapq.heapify(newest)
    lifted = []
    while newest:
        _, c = heapq.heappop(newest)
        i, inv, sub = made[c]
        a = owed.pop(c) * inv % PRIME
        if not a:
            continue
        for c2, f in sub:
            if c2 not in owed:
                heapq.heappush(newest, (-made[c2][0], c2))
                owed[c2] = 0
            owed[c2] -= a * f
        q = _rational(a, PRIME)
        if q is None:
            return False
        lifted.append((i, *q))
    # d row = sum (d / den) num rows[i], over the integers
    d = math.lcm(*(den for _, _, den in lifted))
    total: dict[int, int] = {}
    for i, num, den in lifted:
        num *= d // den
        for k, v in rows[i].items():
            total[k] = total.get(k, 0) + num * v
    return {k: v for k, v in total.items() if v} == {k: d * v for k, v in row.items()}


def _independent_rows(alpha: AlphaSet) -> tuple[int, ...]:
    """The rows of alpha that are independent of their predecessors over Q.

    Each row, scaled by the lcm of its denominators, is eliminated modulo
    PRIME in row order.  A row left nonzero is independent mod PRIME, hence
    over Q.  A row that vanishes mod PRIME is dependent over Q when the
    combination of earlier rows that cancels it, lifted from GF(PRIME) by
    rational reconstruction, reproduces it exactly.  Otherwise (the
    multiples are too large to lift, or PRIME divides a minor) an
    elimination over Q of the rows kept so far decides.  A row kept that way
    vanished mod PRIME while independent over Q, so from it on the images
    mod PRIME certify nothing and every later row is decided over Q.
    """
    # columns rank by the last row they occur in: a row's leading column is
    # then the one fewest later rows hold, which keeps the pivot rows sparse
    last = {j: i for i, j in sorted(alpha.entries)}
    rank = {j: r for r, j in enumerate(sorted(last, key=last.__getitem__))}
    rows: list[dict] = [{} for _ in alpha.times]
    for (i, j), a in alpha.entries.items():
        rows[i][rank[j]] = a
    for row in rows:
        d = math.lcm(*(a.denominator for a in row.values()))
        for j, a in row.items():
            row[j] = a.numerator * (d // a.denominator)
    pivots: dict[int, dict] = {}
    made: dict[int, tuple] = {}
    exact: dict[int, dict] = {}  # pivots over Q, grown on the first failed lift
    kept: list[int] = []
    n_exact = 0
    modular = True
    for i, row in enumerate(rows):
        if not row:
            continue
        if modular:
            rest = {k: v % PRIME for k, v in row.items() if v % PRIME}
            c, steps = _reduce(rest, pivots, PRIME)
            if c is not None:
                inv = pow(rest[c], -1, PRIME)
                pivots[c] = {k: v * inv % PRIME for k, v in rest.items()}
                made[c] = (i, inv, steps)
                kept.append(i)
                continue
            if _lifts(row, steps, made, rows):
                continue
        for r in kept[n_exact:] + [i]:
            rest = dict(rows[r])
            c, _ = _reduce(rest, exact, 0)
            if c is not None:
                lead = Fraction(rest[c])
                exact[c] = {k: v / lead for k, v in rest.items()}
        if c is not None:
            kept.append(i)
            modular = False
        n_exact = len(kept)
    return tuple(kept)


def _components(rows: list[dict], kept: Sequence[int]
                ) -> list[tuple[list[int], list[int]]]:
    """The kept rows and their columns, per connected component of the
    row/column incidence; rows in row order, columns ascending."""
    root: dict[int, int] = {}

    def find(j: int) -> int:
        while root.setdefault(j, j) != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    for i in kept:
        first, *others = map(find, rows[i])
        for r in others:
            root[r] = first
    parts: dict[int, tuple[list[int], set[int]]] = {}
    for i in kept:
        comp, cols = parts.setdefault(find(next(iter(rows[i]))), ([], set()))
        comp.append(i)
        cols.update(rows[i])
    return [(comp, sorted(cols)) for comp, cols in parts.values()]


def _orthonormality_error(b: np.ndarray) -> float:
    """max |b b^T - I| entrywise."""
    g = b @ b.T
    g.flat[::len(g) + 1] -= 1.0
    return float(np.abs(g, out=g).max())


def _component_betas(rows: list[dict[int, float]], comp: list[int], cols: list[int],
                     tol: float) -> np.ndarray:
    """Orthonormalised rows comp, in order, on the columns cols (CholeskyQR).

    The Gram matrix G of the rows is built from their sparse entries and
    factored G = L L^T up-looking, one row of L at a time; the same pass
    forward-substitutes B = L^-1 A, which has orthonormal rows and spans what
    the rows span, row by row in order, as Gram-Schmidt's does.
    """
    local = {j: k for k, j in enumerate(cols)}
    block = np.zeros((len(comp), len(cols)))
    by_col: dict[int, list[tuple[int, float]]] = {}
    below: list[dict[int, float]] = []  # column k of L under the diagonal
    diag: list[float] = []
    for a, i in enumerate(comp):
        g: dict[int, float] = {}
        for j, v in rows[i].items():
            block[a, local[j]] = v
            entries = by_col.setdefault(j, [])
            entries.append((a, v))
            for b, w in entries:
                g[b] = g.get(b, 0.0) + v * w
        gaa = g.pop(a)
        todo = list(g)
        heapq.heapify(todo)
        while todo:
            k = heapq.heappop(todo)
            xk = g[k] = g[k] / diag[k]
            for m, lmk in below[k].items():
                if m in g:
                    g[m] -= lmk * xk
                else:
                    g[m] = -lmk * xk
                    heapq.heappush(todo, m)
        d2 = gaa - sum(x * x for x in g.values())
        if not d2 > 0:
            raise InvariantViolation(
                "independent amplitude vectors have a numerically singular Gram matrix")
        diag.append(math.sqrt(d2))
        for k, x in g.items():
            below[k][a] = x
        below.append({})
        if g:
            block[a] -= np.fromiter(g.values(), float, len(g)) @ block[list(g)]
        block[a] /= diag[a]
    err = _orthonormality_error(block)
    if err > REPEAT_ABOVE:
        try:
            block = np.linalg.solve(np.linalg.cholesky(block @ block.T), block)
        except np.linalg.LinAlgError:
            raise InvariantViolation("beta frame is not orthonormal") from None
        err = _orthonormality_error(block)
    if err > 10 * tol:
        raise InvariantViolation("beta frame is not orthonormal")
    return block


def beta_frame(alpha: AlphaSet, tol: float = DEFAULT_TOL) -> BetaFrame:
    """The beta frame of an alpha-set: its rows orthonormalised in order.

    A row dependent on its predecessors gets a zero beta; that decision is
    exact (_independent_rows).  tol bounds only the orthonormality error of
    the betas, which exceeding raises InvariantViolation.
    """
    kept = _independent_rows(alpha)
    n, m = len(alpha.times), len(alpha.positions)
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    for (i, j), a in alpha.entries.items():
        rows[i][j] = a.numerator / a.denominator  # float(a), without the ABC hop
    parts = _components(rows, kept)
    # one component holding every row and column: its block is the frame
    if len(parts) == 1 and len(kept) == n > 1 and len(parts[0][1]) == m:
        return BetaFrame(_component_betas(rows, *parts[0], tol), kept)
    vectors = np.zeros((n, m))
    for comp, cols in parts:
        if len(comp) > 1:
            vectors[np.ix_(comp, cols)] = _component_betas(rows, comp, cols, tol)
            continue
        row = rows[comp[0]]  # a / |a|, with nothing to factor
        norm = math.sqrt(sum(v * v for v in row.values()))
        beta = [row[j] / norm for j in cols]
        if not abs(sum(b * b for b in beta) - 1.0) <= 10 * tol:
            raise InvariantViolation("beta frame is not orthonormal")
        vectors[comp[0], cols] = beta
    return BetaFrame(vectors, kept)


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
            frame = beta_frame(a1, tol)
            if single and len(frame.nonzero) != frame.n and T < t_fill:
                raise InvariantViolation(
                    "zero beta row for a single subcritical source; amplitude "
                    "vectors should be linearly independent")
            frames[(fam.index, gamma)] = frame
    return frames
