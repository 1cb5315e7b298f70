"""Finite-difference wave oracle: exactness, Kirchhoff fluxes, comparisons."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from eikonal_canon import (
    ControlSignal,
    GridSpec,
    MetricGraph,
    compare_snapshots,
    convolution_snapshot,
    fd_wave,
    propagate,
)
from eikonal_canon.cli import default_bump
from eikonal_canon.errors import EikonalError
from eikonal_canon.fd_oracle import grid_positions

from conftest import bump, reference_wave_eval

F = Fraction


class TestGridSpec:
    def test_validate_accepts_divisor(self, star3):
        GridSpec(F(1, 8)).validate(star3, F(3, 2))

    def test_validate_rejects_nondivisor(self, star123):
        with pytest.raises(EikonalError):
            GridSpec(F(1, 3)).validate(star123, F(1, 2))

    def test_choose(self, star123):
        grid = GridSpec.choose(star123, F(3, 2), target=2.0 ** -6)
        grid.validate(star123, F(3, 2))
        assert grid.h <= F(1, 64)


class TestFdWave:
    def test_zero_control(self, star3):
        snap = fd_wave(star3, [], F(3, 2), GridSpec(F(1, 16)))
        assert all(np.all(v == 0) for v in snap.values.values())

    def test_half_line_d_alembert_exact(self, interval):
        phi = bump(0.05, 0.35)
        grid = GridSpec(F(1, 256))
        snap = fd_wave(interval, [ControlSignal("a", phi)], F(1, 2), grid)
        xs = np.arange(257) / 256.0
        exact = np.array([phi(0.5 - x) if x <= 0.5 else 0.0 for x in xs])
        assert np.max(np.abs(snap.values["e0"] - exact)) < 1e-12

    def test_control_must_vanish_at_zero(self, interval):
        with pytest.raises(EikonalError):
            fd_wave(interval, [ControlSignal("a", lambda t: 1.0)], F(1, 2),
                    GridSpec(F(1, 16)))

    def test_star_scattering_profile(self, star3):
        # transmitted pulse scaled by 2/3, reflected by -1/3
        phi = bump(0.05, 0.35)
        grid = GridSpec(F(1, 512))
        snap = fd_wave(star3, [ControlSignal("g1", phi)], F(3, 2), grid)
        n = 512
        xs = np.arange(n + 1) / n
        trans = np.array([(2.0 / 3.0) * phi(1.5 - 1.0 - x) for x in xs])
        assert np.max(np.abs(snap.values["e2"] - trans)) < 1e-10
        refl = np.array([
            phi(1.5 - x) + (-1.0 / 3.0) * phi(1.5 - (2.0 - x)) for x in xs
        ])
        assert np.max(np.abs(snap.values["e1"] - refl)) < 1e-10

    def test_causality_support(self, star123):
        phi = bump(0.05, 0.3)
        grid = GridSpec(F(1, 64))
        T = F(3, 2)
        snap = fd_wave(star123, [ControlSignal("g1", phi)], T, grid)
        # nothing beyond distance T from g1 (plus one cell of slack)
        arr = snap.values["e2"]  # edge from c, distance from g1 is 1 + offset
        for i, v in enumerate(arr):
            if 1.0 + i * float(grid.h) > float(T) + float(grid.h):
                assert v == pytest.approx(0.0, abs=1e-14)

    def test_kirchhoff_flux_residual_first_order(self, star3):
        phi = bump(0.05, 0.6)

        def residual(k):
            grid = GridSpec(F(1, k))
            h = float(grid.h)
            snap = fd_wave(star3, [ControlSignal("g1", phi)], F(9, 8), grid)
            vals = snap.values
            center = vals["e1"][-1]
            flux = ((vals["e1"][-2] - center) + (vals["e2"][1] - center)
                    + (vals["e3"][1] - center)) / h
            return abs(flux), h

        r1, h1 = residual(128)
        r2, h2 = residual(256)
        assert r1 <= 40.0 * h1 and r2 <= 40.0 * h2  # O(h) with |u''|-sized constant
        assert r2 <= 0.65 * r1

    def test_energy_no_growth_after_cutoff(self, interval):
        phi = bump(0.05, 0.25)
        grid = GridSpec(F(1, 128))
        h = float(grid.h)

        def energy(T):
            snap_a = fd_wave(interval, [ControlSignal("a", phi)], T, grid)
            snap_b = fd_wave(interval, [ControlSignal("a", phi)],
                             T + grid.h, grid)
            u0, u1 = snap_a.values["e0"], snap_b.values["e0"]
            ut = (u1 - u0) / h
            ux = (u1[1:] - u1[:-1]) / h
            return float(np.sum(ut ** 2) * h + np.sum(ux ** 2) * h)

        e1, e2 = energy(F(1, 2)), energy(F(3, 4))
        assert e2 <= e1 * (1 + 1e-8)


class TestComparisons:
    def test_identical_snapshots(self, star3):
        phi = bump(0.05, 0.35)
        grid = GridSpec(F(1, 64))
        snap = fd_wave(star3, [ControlSignal("g1", phi)], F(5, 4), grid)
        assert compare_snapshots(snap, snap) == 0.0

    def test_zero_vs_nonzero(self, interval):
        phi = bump(0.05, 0.35)
        grid = GridSpec(F(1, 64))
        a = fd_wave(interval, [ControlSignal("a", phi)], F(1, 2), grid)
        b = fd_wave(interval, [], F(1, 2), grid)
        assert compare_snapshots(a, b) == pytest.approx(1.0)

    def test_grid_mismatch_rejected(self, interval):
        phi = bump(0.05, 0.35)
        a = fd_wave(interval, [ControlSignal("a", phi)], F(1, 2), GridSpec(F(1, 64)))
        b = fd_wave(interval, [ControlSignal("a", phi)], F(1, 2), GridSpec(F(1, 128)))
        with pytest.raises(EikonalError):
            compare_snapshots(a, b)

    def test_oracle_matches_convolution(self, star3):
        phi = bump(0.05, 0.35)
        h = propagate(star3, "g1", F(5, 4))
        grid = GridSpec(F(1, 256))
        controls = [ControlSignal("g1", phi)]
        fd = fd_wave(star3, controls, F(5, 4), grid)
        cv = convolution_snapshot([h], controls, F(5, 4), grid)
        assert compare_snapshots(fd, cv) < 1e-12

    def test_two_source_superposition(self, interval):
        phi = bump(0.05, 0.35)
        psi = bump(0.1, 0.5)
        hydras = [propagate(interval, "a", F(3, 4)),
                  propagate(interval, "b", F(3, 4))]
        controls = [ControlSignal("a", phi), ControlSignal("b", psi)]
        grid = GridSpec(F(1, 256))
        fd = fd_wave(interval, controls, F(3, 4), grid)
        cv = convolution_snapshot(hydras, controls, F(3, 4), grid)
        assert compare_snapshots(fd, cv) < 1e-12


def pendant_triangle(cycle, pendants) -> MetricGraph:
    edges = [(f"e{i}", (f"v{i}", f"v{(i + 1) % 3}"), F(x)) for i, x in enumerate(cycle)]
    edges += [(f"e{3 + i}", (f"v{i}", f"b{i}"), F(x)) for i, x in enumerate(pendants)]
    return MetricGraph(edges, boundary=["b0", "b1", "b2"])


# the graphs and sources of the simulate benchmark
SIMULATE_CASES = [
    (MetricGraph([("e1", ("c", "g1"), 1), ("e2", ("c", "g2"), 2), ("e3", ("c", "g3"), 3)],
                 boundary=["g1", "g2", "g3"]), ("g1", "g2")),
    (pendant_triangle([1, 1, 1], [1, 1, 1]), ("b0", "b1", "b2")),
    (pendant_triangle([F(6, 5), F(17, 7), F(9, 8)], [F(1, 2), F(5, 2), 3]), ("b0",)),
]


@pytest.mark.parametrize("g, sigma", SIMULATE_CASES)
def test_convolution_snapshot_matches_reference(g, sigma):
    T = F(3, 2)
    hydras = [propagate(g, gamma, T) for gamma in sigma]
    phi = default_bump(float(T))
    grid = GridSpec.choose(g, T)
    cv = convolution_snapshot(hydras, [ControlSignal(gamma, phi) for gamma in sigma], T, grid)
    controls = {gamma: phi for gamma in sigma}
    for eid, points in grid_positions(g, grid).items():
        want = np.array([reference_wave_eval(hydras, controls, p, T) for p in points])
        assert np.array_equal(cv.values[eid], want)
    assert np.count_nonzero(cv.flat()) > 100
