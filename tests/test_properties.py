"""Hypothesis property tests: the exact-metric and frame layers, and
metamorphic laws of the whole pipeline."""

from __future__ import annotations

import random
import signal
from fractions import Fraction

import numpy as np
from hypothesis import assume, event, given, settings, strategies as st

from eikonal_canon import (
    MetricGraph,
    build_parametric,
    build_partition,
    build_spectrum,
    canonicalize,
    family_frames,
    propagate,
)
from eikonal_canon.frames import gram_schmidt

from conftest import random_admissible_graph

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


class OverBudget(BaseException):
    """Raised by the CPU timer; a BaseException so no library handler eats it."""


def spectrum_within(g, sigma, T, cpu_s):
    """The spectrum model of (g, sigma, T), or None past cpu_s of process CPU."""
    def stop(signum, frame):
        raise OverBudget

    previous = signal.signal(signal.SIGPROF, stop)
    signal.setitimer(signal.ITIMER_PROF, cpu_s)
    try:
        hydras = [propagate(g, gamma, T) for gamma in sigma]
        part = build_partition(hydras)
        return build_spectrum(canonicalize(build_parametric(part, family_frames(part, hydras))))
    except OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def scaled_down(sm, c):
    """Junctions; per block (length, kappa, terms), terms as (gamma,
    intercept, slope); per segment (block, length, end summands); per source
    sigma_ac.  Every length, unshifted passage time and unshifted sigma_ac
    end is divided by c."""
    cf = sm.form
    return (
        cf.junctions,
        [(cb.length / c, cb.kappa,
          [(t.gamma, (t.tau.intercept - 1) / c, t.tau.slope) for t in cb.terms])
         for cb in cf.blocks],
        [(s.block, s.length / c, s.start_summands, s.end_summands) for s in sm.segments],
        {gamma: [((lo - 1) / c, (hi - 1) / c) for lo, hi in intervals]
         for gamma, intervals in sm.sigma_ac.items()},
    )


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([F(2), F(3), F(5), F(2, 3), F(5, 7), F(3, 7)]))
@settings(max_examples=30, deadline=None)
def test_canonical_form_scales_with_lengths(seed, c):
    # the wave speed is 1 and the scattering amplitudes depend only on the
    # valences, so scaling every length and T by c scales every block and
    # segment length, passage time and sigma_ac end by c and leaves kappas,
    # junctions and end summands alone.  A graph that does not finish within
    # the CPU budget on either side is skipped.
    rng = random.Random(seed)
    g = random_admissible_graph(rng)
    boundary = sorted(g.boundary)
    sigma = sorted(rng.sample(boundary, rng.randint(1, min(3, len(boundary)))))
    T = F(rng.randint(1, 8), 4)
    big = MetricGraph([(e.id, e.ends, e.length * c) for e in g.edges], g.boundary)
    sm = spectrum_within(g, sigma, T, 1.0)
    sm_big = spectrum_within(big, sigma, T * c, 1.0) if sm is not None else None
    if sm is None or sm_big is None:
        event("over the CPU budget: skipped")
    assume(sm is not None and sm_big is not None)
    assert scaled_down(sm_big, c) == scaled_down(sm, 1)
