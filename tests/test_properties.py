"""Hypothesis property tests for the exact-metric and frame layers."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from eikonal_canon import MetricGraph, propagate
from eikonal_canon.frames import gram_schmidt

F = Fraction

lengths = st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=8)
offsets = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def star_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    legs = [draw(lengths) for _ in range(n)]
    edges = [(f"e{i}", ("c", f"g{i}"), leg) for i, leg in enumerate(legs)]
    return MetricGraph(edges, boundary=[f"g{i}" for i in range(n)])


@st.composite
def positions_on(draw, g):
    e = g.edges[draw(st.integers(min_value=0, max_value=len(g.edges) - 1))]
    frac = draw(offsets)
    return g.position(e.id, e.length * frac)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_distance_is_a_metric(data):
    g = data.draw(star_graphs())
    a = data.draw(positions_on(g))
    b = data.draw(positions_on(g))
    c = data.draw(positions_on(g))
    assert g.distance(a, a) == 0
    assert g.distance(a, b) == g.distance(b, a)
    assert g.distance(a, b) + g.distance(b, c) >= g.distance(a, c)
    if a != b:
        assert g.distance(a, b) > 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_amplitude_conservation_everywhere(data):
    g = data.draw(star_graphs())
    gamma = sorted(g.boundary)[data.draw(
        st.integers(min_value=0, max_value=len(g.boundary) - 1))]
    T = data.draw(st.fractions(min_value=F(1, 2), max_value=F(3),
                               max_denominator=8))
    h = propagate(g, gamma, T)
    for ev in h.events:
        if ev.vertex in g.boundary:
            continue
        assert sum(a for *_, a in ev.incoming) == sum(
            a for *_, a in ev.outgoing)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.random_module())
@settings(max_examples=50, deadline=None)
def test_gram_schmidt_spans_and_orthonormalizes(n, m, rnd):
    rng = np.random.default_rng(abs(hash((n, m, rnd.seed))) % 2 ** 32)
    a = rng.integers(-3, 4, size=(n, m)).astype(float)
    frame = gram_schmidt(a)
    nz = frame.nonzero_matrix()
    if nz.size:
        assert np.max(np.abs(nz @ nz.T - np.eye(nz.shape[0]))) < 1e-9
    assert len(frame.nonzero) == np.linalg.matrix_rank(a, tol=1e-9)
    # beta = rho @ alpha reconstructs the stored frame
    assert np.allclose(frame.transition @ a, frame.vectors, atol=1e-9)
