"""Shared fixtures: reference graphs, a generator of random admissible graphs,
and slow reference implementations that the library is tested against."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eikonal_canon import MetricGraph

F = Fraction


@pytest.fixture
def interval():
    """Unit interval: two boundary vertices joined by one edge."""
    return MetricGraph([("e0", ("a", "b"), 1)], boundary=["a", "b"])


@pytest.fixture
def star3():
    """Unit 3-star: center c, tips g1, g2, g3."""
    return MetricGraph(
        [("e1", ("g1", "c"), 1), ("e2", ("c", "g2"), 1), ("e3", ("c", "g3"), 1)],
        boundary=["g1", "g2", "g3"],
    )


@pytest.fixture
def star123():
    """3-star with edge lengths 1, 2, 3 (tips g1, g2, g3)."""
    return MetricGraph(
        [("e1", ("g1", "c"), 1), ("e2", ("c", "g2"), 2), ("e3", ("c", "g3"), 3)],
        boundary=["g1", "g2", "g3"],
    )


def bump(a: float, b: float):
    """Smooth compactly supported bump on (a, b), peak value 1."""
    mid, half = (a + b) / 2, (b - a) / 2

    def phi(t: float) -> float:
        u = (t - mid) / half
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))

    return phi


def random_length(rng: random.Random, max_den: int = 12,
                  den: int | None = None) -> Fraction:
    """Length in [1/2, 3] with denominator <= max_den."""
    if den is None:
        den = rng.randint(1, max_den)
    num = rng.randint((den + 1) // 2, 3 * den)
    return F(num, den)


def random_admissible_graph(rng: random.Random, max_edges: int = 6,
                            common_denominator: bool = True) -> MetricGraph:
    """Random connected graph with boundary valence 1 and interior valence >= 3.

    With common_denominator all lengths share one denominator <= 12, which
    keeps lattice closures small (reflections then compose into translations
    on a coarse rational grid; mixed denominators make the closure size blow
    up with the lcm, which is valid but not desk-scale).
    """
    shape = rng.choice(["edge", "star", "tree", "triangle"])
    edges: list[tuple[str, tuple[str, str], Fraction]] = []
    den = rng.randint(1, 12) if common_denominator else None

    def add(u: str, v: str) -> None:
        edges.append((f"e{len(edges)}", (u, v), random_length(rng, den=den)))

    if shape == "edge":
        add("b0", "b1")
        boundary = {"b0", "b1"}
    elif shape == "star":
        n = rng.randint(3, min(5, max_edges))
        for i in range(n):
            add("c", f"b{i}")
        boundary = {f"b{i}" for i in range(n)}
    elif shape == "triangle":
        # 3-cycle, every cycle vertex carrying one pendant boundary edge
        for i in range(3):
            add(f"v{i}", f"v{(i + 1) % 3}")
        for i in range(3):
            add(f"v{i}", f"b{i}")
        boundary = {"b0", "b1", "b2"}
    else:
        # tree grown leaf-first: turning a leaf interior needs two new leaves
        add("c", "b0")
        add("c", "b1")
        add("c", "b2")
        boundary = {"b0", "b1", "b2"}
        while len(edges) + 2 <= max_edges and rng.random() < 0.6:
            leaf = rng.choice(sorted(boundary))
            boundary.discard(leaf)
            for _ in range(2):
                name = f"b{len(edges)}"
                add(leaf, name)
                boundary.add(name)
    return MetricGraph(edges, boundary=boundary)


def reference_time_at_offset(s, offset) -> Fraction | None:
    """The time a hydra segment passes an offset of its edge, if it does."""
    t = s.t0 + s.direction * (offset - s.off0)
    return t if s.t0 <= t <= s.t1 else None


def reference_amplitude_at(h, pos, t) -> Fraction:
    """One (x, t) amplitude by its own Fraction scan of the hydra's segments:
    the reference for `Hydra.amplitudes_at` and its tick index."""
    t = Fraction(t)
    g = h.graph
    if pos.vertex is not None:
        v = pos.vertex
        if v in g.boundary:
            return Fraction(1) if (v == h.source and t == 0) else Fraction(0)
        incoming = Fraction(0)
        hit = False
        for ei, end in g.incidence(v):
            e = g.edges[ei]
            off_v = g.end_offset(e, end)
            for s in h.segments:
                if s.edge == e.id and s.t1 == t and s.off1 == off_v:
                    incoming += s.amplitude
                    hit = True
        return Fraction(2, g.valence(v)) * incoming if hit else Fraction(0)
    total = Fraction(0)
    for s in h.segments:
        if s.edge == pos.edge and reference_time_at_offset(s, pos.offset) == t:
            total += s.amplitude
    return total


def reference_wave_eval(hydras, controls, x, horizon) -> float:
    """wave_eval as one Fraction scan per passage time, summed in ascending
    time order, hydra by hydra."""
    horizon = Fraction(horizon)
    total = 0.0
    for h in hydras:
        phi = controls.get(h.source)
        if phi is None:
            continue
        for t in reference_times_at([h], x):
            a = reference_amplitude_at(h, x, t)
            if a:
                total += float(a) * phi(float(horizon - t))
    return total


def reference_times_at(hydras, pos) -> list[Fraction]:
    """Times of a position on the hydra union, by a Fraction scan of every
    segment: the reference for the integer-tick index."""
    g = hydras[0].graph
    if pos.vertex is None:
        slots = [(pos.edge, pos.offset)]
    else:
        slots = [(g.edges[ei].id, g.end_offset(g.edges[ei], end))
                 for ei, end in g.incidence(pos.vertex)]
    found = set()
    for h in hydras:
        for s in h.segments:
            for edge, offset in slots:
                if s.edge == edge and (t := reference_time_at_offset(s, offset)) is not None:
                    found.add(t)
    return sorted(found)


def reference_positions_at(hydras, t) -> list:
    """Positions of the hydra union's time slice, by a Fraction scan of every segment."""
    t = Fraction(t)
    found = {h.graph.position(s.edge, s.offset_at(t))
             for h in hydras for s in h.segments if s.t0 <= t <= s.t1}
    return sorted(found, key=lambda p: p.sort_key())


def reference_lattice_closure(hydras, seeds) -> set:
    """The lattice closure by alternating Fraction scans until nothing is new."""
    current = {(p, Fraction(t)) for p, t in seeds}
    frontier = set(current)
    while frontier:
        new = set()
        for p, t in frontier:
            new.update((p, tt) for tt in reference_times_at(hydras, p))
            new.update((pp, t) for pp in reference_positions_at(hydras, t))
        frontier = new - current
        current |= frontier
    return current


def probe_positions(g, hydras) -> list:
    """Every vertex, every hydra segment endpoint and every edge midpoint."""
    found = {g.vertex_position(v) for v in g.vertices}
    found |= {g.position(e.id, e.length / 2) for e in g.edges}
    for h in hydras:
        for s in h.segments:
            found |= {g.position(s.edge, s.off0), g.position(s.edge, s.off1)}
    return sorted(found, key=lambda p: p.sort_key())


def dense(alpha) -> tuple[tuple[Fraction, ...], ...]:
    """An alpha set's exact matrix, densified from its nonzero entries."""
    return tuple(tuple(alpha.entries.get((i, j), Fraction(0))
                       for j in range(len(alpha.positions)))
                 for i in range(len(alpha.times)))


def reference_betas(rows) -> np.ndarray:
    """Gram-Schmidt of rational rows over Q, in order, rounded only at the end:
    each residual is exact, and a zero residual gives a zero beta."""
    resids: list[list[Fraction]] = []
    out = np.zeros((len(rows), len(rows[0]) if rows else 0))
    for i, row in enumerate(rows):
        u = [Fraction(a) for a in row]
        for w in resids:
            c = sum(a * b for a, b in zip(u, w)) / sum(b * b for b in w)
            u = [a - c * b for a, b in zip(u, w)]
        norm2 = sum(a * a for a in u)
        if norm2:
            resids.append(u)
            out[i] = [float(a) for a in u]
            out[i] /= math.sqrt(norm2)
    return out


def reference_word_span_dim(mats, tol: float = 1e-9) -> int:
    """Dimension of the span of all nonempty words in the matrices, grown one
    word at a time by double classical Gram-Schmidt on kappa^2-vectors: the
    reference for `projalg.word_span_dim` and `spectrum.algebra_summands`."""
    basis = []
    cap = mats[0].shape[0] ** 2

    def absorb(m):
        if len(basis) >= cap or np.linalg.norm(m) <= tol:
            return None
        m = m / np.linalg.norm(m)
        v = m.reshape(-1).copy()
        for _ in range(2):
            for b in basis:
                v = v - (v @ b) * b
        if np.linalg.norm(v) > tol:
            basis.append(v / np.linalg.norm(v))
            return m
        return None

    gens = [m / np.linalg.norm(m) for m in mats if np.linalg.norm(m) > tol]
    layer = [k for k in map(absorb, mats) if k is not None]
    while layer and len(basis) < cap:
        layer = [k for k in (absorb(g @ m) for m in layer for g in gens)
                 if k is not None]
    return len(basis)


def reference_commutant(mats, tol: float = 1e-9) -> list:
    """Basis of the nullspace of X -> [X, g] stacked over the matrices (an SVD
    of (len(mats) kappa^2) x kappa^2)."""
    n = mats[0].shape[0]
    eye = np.eye(n)
    stack = np.vstack([(np.kron(eye, g) - np.kron(g.T, eye)) / max(1.0, np.linalg.norm(g))
                       for g in mats])
    _, s, vt = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0]))) if s[0] else 0
    return [v.reshape(n, n) for v in vt[rank:]]


def reference_summand_dims(gens, tol: float = 1e-9) -> list[int]:
    """Irreducible summand dimensions of the algebra symmetric gens generate.

    The centre is commutant(gens + commutant(gens)); the eigenspaces of a
    seeded random central element are the summands, and each summand's size
    is the square root of its restricted generators' word span.
    """
    gens = [g for g in gens if np.max(np.abs(g)) > tol]
    commutant = reference_commutant(gens, tol)
    center = reference_commutant(gens + commutant, tol)
    rng = np.random.default_rng(0x5EED)
    w, v = np.linalg.eigh(sum(rng.normal() * (c + c.T) / 2 for c in center))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[i - 1]) < 1e-7 * max(1.0, abs(w[i])):
            groups[-1].append(i)
        else:
            groups.append([i])
    dims = []
    for grp in groups:
        e = v[:, grp] @ v[:, grp].T
        size = math.isqrt(reference_word_span_dim([e @ g @ e for g in gens], tol))
        dims.append(size)
    return sorted(dims)
