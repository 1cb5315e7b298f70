"""Spectrum of the canonical algebra: segments, clusters, coordinates.

Every canonical block contributes a segment; evaluating the generators at a
segment end yields a matrix subalgebra whose irreducible summands are the
cluster points sitting at that end.  The summands are read off the
eigenspaces of one seeded random element of that subalgebra, linked by the
generators, and where those cannot tell summands apart, off the commutant
restricted to the element's eigenvalue clusters (Murota, Kanno, Kojima &
Kojima 2010; Maehara & Murota 2010).  Interior points are coordinatized by the per-source eigenvalue
multisets, and identifying endpoint coordinate matches folds the segments
into an abstract quotient graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .canonical import CanonicalBlock, CanonicalForm
from .errors import EikonalError, InvariantViolation
from .metric_graph import merge_intervals
# word_span_dim is unused here but bench/tracing.py's WRAPS wraps it (ROADMAP item 7)
from .projalg import DEFAULT_TOL, connected_classes, word_span_dim

CLUSTER_SEED = 0x5EED
CLUSTER_TRIES = 4  # random elements a block end may draw before it raises


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


def _commutant_summands(z: np.ndarray, cluster: np.ndarray) -> list[tuple[int, int]]:
    """(d, m) per summand of one linked component, read off its commutant.

    z[k] is generator k on the component's eigenvectors of h, and cluster
    labels them by eigenvalue cluster.  A commutant element Y commutes with
    h, so it is block diagonal on the clusters; the blocks' entries solving
    Y z_k = z_k Y span the null space of a Gram matrix.  Only the identity
    there means one summand.  Otherwise the eigenspaces of a random symmetric
    Y, linked by the commutant's basis, are the summands': m linked
    eigenspaces of one dimension d each, and sum m^2 is the commutant's
    dimension (a complex or quaternionic summand fails that count).
    """
    n = len(cluster)
    pp, qq = np.nonzero(cluster[:, None] == cluster)
    if len(pp) > 4 * n:
        raise InvariantViolation(f"eigenvalue clusters of {len(pp)} commutant "
                                 f"unknowns on {n} dimensions")
    # gram[pq, rs] = sum_k <[E_pq, z_k], [E_rs, z_k]>, E_pq the unit matrices
    z2 = (z @ z).sum(axis=0)
    gram = ((pp[:, None] == pp) * z2[np.ix_(qq, qq)] + (qq[:, None] == qq) * z2[np.ix_(pp, pp)]
            - 2 * np.einsum("kij,kij->ij", z[:, pp[:, None], pp], z[:, qq[:, None], qq]))
    lam, vec = np.linalg.eigh(gram)
    # |[Y, z]| below 1e-6 |Y| |z|: eigenvector and data error sit near 1e-9
    null = vec[:, lam <= 1e-12 * np.trace(z2)]
    if null.shape[1] == 1:
        return [(n, 1)]
    basis = np.zeros((null.shape[1], n, n))
    basis[:, pp, qq] = null.T
    rng = np.random.default_rng(CLUSTER_SEED)
    y = np.tensordot(rng.normal(size=len(basis)), basis + basis.transpose(0, 2, 1), 1)
    mu, v = np.linalg.eigh(y)
    # the commutant is solved to 1e-6, so Y's eigenvalues and links count above that
    starts = np.flatnonzero(np.diff(mu, prepend=-np.inf) > 1e-6 * max(abs(mu[0]), abs(mu[-1])))
    sizes = np.diff(starts, append=n)
    comp = v.T @ basis @ v
    norms = np.add.reduceat(np.add.reduceat(np.einsum("kij,kij->ij", comp, comp), starts, 0),
                            starts, 1)
    out = []
    for members in connected_classes(norms > 1e-12):
        if np.any(sizes[list(members)] != sizes[members[0]]):
            raise InvariantViolation("commutant eigenspaces of one summand differ in dimension")
        out.append((int(sizes[members[0]]), len(members)))
    if sum(m * m for _, m in out) != len(basis):
        raise InvariantViolation(
            f"a commutant of dimension {len(basis)} is not a sum of real matrix "
            f"algebras of the multiplicities {[m for _, m in out]}")
    return out


def _read_summands(g: np.ndarray, c: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """algebra_summands for one h = sum c_kk g_k + sum_{k<l} c_kl (g_k g_l + g_l g_k)."""
    k, kappa = len(g), g.shape[1]
    # the anticommutator sum is p + p^T with p = sum_k g_k sum_{l>k} c_kl g_l
    p = sum((g[i] @ np.tensordot(c[i, i + 1:], g[i + 1:], 1) for i in range(k - 1)),
            np.zeros((kappa, kappa)))
    w, v = np.linalg.eigh(np.tensordot(np.diag(c), g, 1) + p + p.T)
    # eigenvalues closer than 1e-4 |h| share a cluster.  Inequivalent summands
    # have put eigenvalues 1.5e-10 |h| apart, and data error splits equal ones,
    # so a cluster decides nothing by itself; it is one block of commutant
    # unknowns, and eigenvectors of different clusters mix by at most
    # |E| / 1e-4 |h|, |E| about kappa * eps * |h| being eigh's backward error
    scale = max(abs(w[0]), abs(w[-1]))
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > 1e-4 * scale)
    sizes = np.diff(starts, append=kappa)
    comp = v.T @ g @ v
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(
        np.einsum("kij,kij->ij", comp, comp), starts, 0), starts, 1))
    # an eigenvector is known to within an angle |E| / gap, its distance to
    # the next eigenvalue, so a link below that angle may be mixing alone
    gaps = np.diff(w)[starts[1:] - 1]
    noise = np.sqrt(k * sizes) * kappa * np.finfo(float).eps * scale / np.minimum(
        np.append(gaps, np.inf), np.append(np.inf, gaps))
    sure = norms > tol + noise[:, None] + noise
    cluster = np.repeat(np.arange(len(starts)), sizes)
    out = []
    for members in connected_classes(norms > tol):
        idx = np.flatnonzero(np.isin(cluster, members, assume_unique=True))
        z = comp[:, idx[:, None], idx]
        if np.max(np.abs(z)) <= tol:  # every generator vanishes here: no summand
            continue
        if len(idx) == len(members) and len(connected_classes(sure[np.ix_(members, members)])) == 1:
            out.append((len(idx), 1))  # one-dimensional eigenspaces joined by sure links
        else:
            out += _commutant_summands(z, cluster[idx])
    return out


def algebra_summands(gens: Sequence[np.ndarray], tol: float = DEFAULT_TOL,
                     where: str = "algebra") -> list[tuple[int, int]]:
    """(d, m) of each irreducible summand M_d (x) I_m of the algebra symmetric gens generate.

    A seeded random symmetric h = sum c_k g_k + sum_{k<l} c_kl (g_k g_l +
    g_l g_k) over the normalised generators acts on a summand as a generic
    d x d matrix (x) I_m.  Its eigenvalues are grouped into clusters, and two
    clusters are linked when the generators' compressions V_a^T g V_b exceed
    tol.  Different summands never link (their central projections commute
    with every generator), so a linked component holds whole summands.  A
    component of one-dimensional clusters that links larger than eigenvector
    error connect is one summand M_n: any split of its eigenvectors would
    cut a link.  Any other component (a multiplicity, summands whose
    eigenvalues h cannot keep apart, a link eigenvector error could have
    made) is read off its commutant, solved block-diagonally on the
    clusters, which also checks that each summand is of real type.  A
    subspace on which every generator vanishes is no summand.  A failed
    reading draws h again, up to CLUSTER_TRIES times, then raises
    InvariantViolation naming `where` and the reason.  A reading costs one
    kappa x kappa eigh and K kappa^3 for the compressions, plus one eigh of
    at most 4n unknowns per n-dimensional component read off its commutant.
    """
    g = np.array([m / nm for m in gens if (nm := float(np.linalg.norm(m))) > tol])
    if not len(g):
        raise EikonalError(f"{where}: all generators vanish")
    rng = np.random.default_rng(CLUSTER_SEED)
    for _ in range(CLUSTER_TRIES):
        try:
            return _read_summands(g, rng.normal(size=(len(g), len(g))), tol)
        except InvariantViolation as err:
            reason = err
    raise InvariantViolation(f"{where}: {reason} ({CLUSTER_TRIES} random elements)")


def boundary_clusters(block: CanonicalBlock, end: int,
                      tol: float = DEFAULT_TOL) -> list[int]:
    """Dimensions of the irreducible summands of a block-end subalgebra, ascending.

    Evaluates the generators at the end (r = 0 or r = length) and reads the
    algebra they generate with algebra_summands.
    """
    if block.kappa == 0:
        return []
    r = block.length if end else Fraction(0)
    gens = [block.generator_at(g, r) for g in sorted({t.gamma for t in block.terms})]
    where = f"end {end} (r = {r}) of a kappa-{block.kappa} block"
    return sorted(d for d, _ in algebra_summands(gens, tol, where))


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
    linked = np.zeros((len(endpoints), len(endpoints)), bool)
    for k, c in enumerate(coords):
        for gamma in cf.sigma:
            for value in c[gamma]:
                j = first.setdefault((gamma, value), k)
                linked[j, k] = linked[k, j] = True
    classes = connected_classes(linked)
    nodes = tuple(tuple(endpoints[k] for k in members) for members in classes)
    node_of = {ep: node_idx for node_idx, members in enumerate(nodes) for ep in members}
    edges = tuple(
        (node_of[(i, 0)], node_of[(i, 1)], cf.blocks[i].length, i)
        for i in range(len(cf.blocks)))
    return QuotientGraph(nodes, edges)
