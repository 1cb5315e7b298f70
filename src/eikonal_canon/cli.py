"""Command-line pipeline: graph files in, JSON/DOT/CSV artifacts out.

Commands: hydra, partition, parametric, canonical, spectrum, simulate,
verify.  Graph files list `vertex <id> [boundary]` and
`edge <id> <v1> <v2> <length>` records; lengths and the horizon are exact
rationals written as `p/q` or integers.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import serialize
from .canonical import canonicalize, equivalent_forms, recanonicalize
from .errors import EikonalError, GraphFormatError
from .fd_oracle import (
    ControlSignal,
    GridSpec,
    compare_snapshots,
    convolution_snapshot,
    fd_wave,
)
from .frames import DEFAULT_TOL, family_frames
from .impulse import propagate
from .metric_graph import MetricGraph, eccentricity, validate_graph
from .partition import build_partition
from .representation import build_parametric, sigma_ac
from .spectrum import build_spectrum, quotient_graph


def parse_graph_file(text: str) -> MetricGraph:
    """Parse the `vertex` / `edge` record format with line diagnostics."""
    vertices: dict[str, bool] = {}
    edges: list[tuple[str, tuple[str, str], Fraction]] = []
    edge_ids: set[str] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) not in (2, 3):
                raise GraphFormatError("vertex takes an id and an optional "
                                       "'boundary' flag", lineno)
            if len(tokens) == 3 and tokens[2] != "boundary":
                raise GraphFormatError(f"unknown vertex flag {tokens[2]!r}", lineno)
            if tokens[1] in vertices:
                raise GraphFormatError(f"duplicate vertex {tokens[1]!r}", lineno)
            vertices[tokens[1]] = len(tokens) == 3
        elif kind == "edge":
            if len(tokens) != 5:
                raise GraphFormatError(
                    "edge takes an id, two vertex ids and a length", lineno)
            eid, v1, v2, length_text = tokens[1:]
            if eid in edge_ids:
                raise GraphFormatError(f"duplicate edge id {eid!r}", lineno)
            for v in (v1, v2):
                if v not in vertices:
                    raise GraphFormatError(f"unknown vertex {v!r}", lineno)
            try:
                length = Fraction(length_text)
            except (ValueError, ZeroDivisionError):
                raise GraphFormatError(
                    f"invalid rational {length_text!r}", lineno) from None
            if length <= 0:
                raise GraphFormatError("nonpositive length", lineno)
            edge_ids.add(eid)
            edges.append((eid, (v1, v2), length))
        else:
            raise GraphFormatError(f"unknown record {kind!r}", lineno)
    g = MetricGraph(edges, boundary=[v for v, b in vertices.items() if b])
    isolated = sorted(set(vertices) - {v for _, ends, _ in edges for v in ends})
    if isolated:
        raise GraphFormatError(f"vertices on no edge: {', '.join(isolated)}")
    report = validate_graph(g)
    if report:
        raise GraphFormatError("; ".join(report))
    return g


def emit_graph_file(g: MetricGraph) -> str:
    lines = []
    for v in g.vertices:
        flag = " boundary" if v in g.boundary else ""
        lines.append(f"vertex {v}{flag}")
    for e in g.edges:
        lines.append(f"edge {e.id} {e.ends[0]} {e.ends[1]} {serialize.rat(e.length)}")
    return "\n".join(lines) + "\n"


def default_bump(horizon: float):
    a, b = horizon / 8.0, 3.0 * horizon / 8.0
    mid, half = (a + b) / 2.0, (b - a) / 2.0

    def phi(t: float) -> float:
        u = (t - mid) / half
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))

    return phi


def _write(out_dir: Path, name: str, content: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(content)
    return path


def _pipeline(args):
    g = parse_graph_file(Path(args.graph).read_text())
    sigma = sorted(set(args.sigma.split(",")))
    for gamma in sigma:
        if gamma not in g.boundary:
            raise EikonalError(f"sigma vertex {gamma!r} is not a boundary vertex")
    horizon = serialize.parse_rational(args.horizon)
    if horizon <= 0:
        raise EikonalError("horizon must be positive")
    hydras = [propagate(g, gamma, horizon) for gamma in sigma]
    return g, sigma, horizon, hydras


def run_command(args) -> int:
    out_dir = Path(args.out)
    emit = set(args.emit.split(","))
    if not emit <= {"json", "dot"}:
        raise EikonalError(f"emit takes json and/or dot, got {args.emit!r}")
    command = args.command
    if command in ("partition", "parametric", "canonical") and "json" not in emit:
        raise EikonalError(f"emit {args.emit!r} leaves {command} nothing to write")
    tol = args.tol
    if not 0 < tol < 1:  # also rejects nan
        raise EikonalError(f"tol must be a finite number in (0, 1), got {tol}")
    written: list[Path] = []

    g, sigma, horizon, hydras = _pipeline(args)

    if command == "hydra":
        for h in hydras:
            if "json" in emit:
                written.append(_write(out_dir, f"hydra_{h.source}.json",
                                      serialize.dumps(serialize.hydra_json(h))))
            if "dot" in emit:
                written.append(_write(out_dir, f"hydra_{h.source}.dot",
                                      serialize.hydra_dot(h)))
    elif command in ("partition", "parametric", "canonical", "spectrum", "verify"):
        part = build_partition(hydras)
        if command == "partition":
            written.append(_write(out_dir, "partition.json",
                                  serialize.dumps(serialize.partition_json(part))))
        else:
            frames = family_frames(part, hydras, tol)
            repr_shifted = build_parametric(part, frames, shifted=True)
            if command == "parametric":
                repr_out = repr_shifted if not args.unshifted else \
                    build_parametric(part, frames, shifted=False)
                written.append(_write(
                    out_dir, "parametric.json",
                    serialize.dumps(serialize.parametric_json(repr_out))))
            else:
                cf = canonicalize(repr_shifted, tol)
                if command == "canonical":
                    written.append(_write(
                        out_dir, "canonical.json",
                        serialize.dumps(serialize.canonical_json(cf))))
                elif command == "spectrum":
                    sm = build_spectrum(cf, tol)
                    quot = quotient_graph(sm)
                    if "json" in emit:
                        written.append(_write(
                            out_dir, "spectrum.json",
                            serialize.dumps(serialize.spectrum_json(sm, quot))))
                    if "dot" in emit:
                        written.append(_write(out_dir, "spectrum.dot",
                                              serialize.spectrum_dot(sm, quot)))
                else:
                    code = _verify(g, sigma, horizon, hydras, part,
                                   repr_shifted, cf, tol)
                    if code:
                        return code
    elif command == "simulate":
        grid = GridSpec.choose(g, horizon)
        phi = default_bump(float(horizon))
        controls = [ControlSignal(gamma, phi) for gamma in sigma]
        fd = fd_wave(g, controls, horizon, grid)
        cv = convolution_snapshot(hydras, controls, horizon, grid)
        err = compare_snapshots(fd, cv)
        for name, snap in (("fd", fd), ("wave", cv)):
            rows = ["edge,offset,value"]
            for eid in sorted(snap.values):
                for i, val in enumerate(snap.values[eid]):
                    rows.append(f"{eid},{serialize.rat(grid.h * i)},"
                                f"{format(val, '.17g')}")
            written.append(_write(out_dir, f"simulate_{name}.csv",
                                  "\n".join(rows) + "\n"))
        written.append(_write(out_dir, "simulate.json", serialize.dumps({
            "grid_h": serialize.rat(grid.h),
            "relative_l2_error": serialize.fl(err),
        })))
    else:
        raise EikonalError(f"unknown command {command!r}")

    for path in written:
        print(path)
    return 0


def _verify(g, sigma, horizon, hydras, part, repr_, cf, tol) -> int:
    """Invariant sweep over the whole pipeline; nonzero exit on any failure."""
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    for h in hydras:
        interior = [ev for ev in h.events if ev.vertex not in g.boundary]
        check(f"scattering conservation ({h.source})",
              all(sum(a for *_, a in ev.incoming) ==
                  sum(a for *_, a in ev.outgoing) for ev in interior))
        gp = g.vertex_position(h.source)
        check(f"causality ({h.source})",
              all(g.distance(g.position(s.edge, s.offset_at(t)), gp) <= t
                  for s in h.segments for t in (s.t0, s.t1)))
    check("families cover with equal cells",
          all(len({c.length for c in fam.cells}) == 1 for fam in part.families))
    eig_ok = True
    for fam in part.families:
        pb = repr_.blocks[fam.index]
        for gamma in sigma:
            terms = pb.terms_of(gamma)
            if not terms:
                continue
            r = fam.epsilon * Fraction(3, 7)
            mat = pb.generator_at(gamma, r)
            vecs = np.array([t.beta for t in terms])
            small = vecs @ mat @ vecs.T
            want = sorted(float(t.tau(r)) for t in terms)
            got = sorted(np.linalg.eigvalsh(small))
            if max(abs(a - b) for a, b in zip(want, got)) > 1e-8:
                eig_ok = False
    check("eikonal eigenvalue identity", eig_ok)

    sig_ok = True
    for gamma in sigma:
        t_fill = eccentricity(g, gamma)
        if horizon < t_fill:
            if sigma_ac(repr_, gamma) != [(Fraction(1), horizon + 1)]:
                sig_ok = False
    check("subcritical spectrum filling", sig_ok)

    check("canonicalization idempotent",
          equivalent_forms(cf, recanonicalize(cf, tol), tol))

    sm = build_spectrum(cf, tol)
    check("canonical vs parametric spectra",
          all(list(sm.sigma_ac[gamma]) == sigma_ac(repr_, gamma) for gamma in sigma))

    grid = GridSpec.choose(g, horizon, target=2.0 ** -7)
    steps = int(horizon / grid.h) * sum(int(e.length / grid.h) for e in g.edges)
    if steps <= 4_000_000:
        phi = default_bump(float(horizon))
        controls = [ControlSignal(gamma, phi) for gamma in sigma]
        err = compare_snapshots(fd_wave(g, controls, horizon, grid),
                                convolution_snapshot(hydras, controls, horizon, grid))
        check(f"fd oracle agreement (rel L2 {err:.2e})", err <= 1e-2)
    else:
        print("skip fd oracle agreement (grid too fine for verify)")

    if failures:
        print(f"{len(failures)} verification failure(s)")
        return 1
    print("all verifications passed")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eikonal-canon",
        description="Wave dynamics on metric graphs: hydras, partitions, "
                    "eikonal blocks, canonical forms, spectra.")
    parser.add_argument("command",
                        choices=["hydra", "partition", "parametric",
                                 "canonical", "spectrum", "simulate", "verify"])
    parser.add_argument("--graph", required=True, help="graph file path")
    parser.add_argument("--sigma", required=True,
                        help="comma-separated boundary vertex ids")
    parser.add_argument("--horizon", required=True,
                        help="time horizon, rational like 3/2")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--unshifted", action="store_true",
                        help="emit raw (unshifted) passage times where relevant")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--emit", default="json,dot",
                        help="artifact kinds: json,dot")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except (EikonalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
