"""Deterministic JSON and DOT emission for all pipeline artifacts.

Rationals serialize as "p/q" strings (integers as "p"), floats with 17
significant digits, keys sorted; byte-identical output across runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

import numpy as np

from .canonical import CanonicalForm
from .errors import EikonalError
from .impulse import Hydra
from .metric_graph import Position
from .partition import Partition
from .representation import ParametricRepr
from .spectrum import QuotientGraph, SpectrumModel


def rat(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fl(x: float) -> float:
    return float(format(float(x), ".17g"))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise EikonalError(f"invalid rational {text!r}") from None


def pos_json(p: Position) -> dict:
    if p.vertex is not None:
        return {"vertex": p.vertex}
    return {"edge": p.edge, "offset": rat(p.offset)}


def hydra_json(h: Hydra) -> dict:
    return {
        "source": h.source,
        "horizon": rat(h.horizon),
        "segments": [
            {
                "edge": s.edge,
                "t0": rat(s.t0),
                "t1": rat(s.t1),
                "off0": rat(s.off0),
                "direction": s.direction,
                "amplitude": rat(s.amplitude),
            }
            for s in h.segments
        ],
        "events": [
            {
                "vertex": ev.vertex,
                "time": rat(ev.time),
                "incoming": [[e, end, rat(a)] for e, end, a in ev.incoming],
                "outgoing": [[e, end, rat(a)] for e, end, a in ev.outgoing],
            }
            for ev in h.events
        ],
    }


def partition_json(part: Partition) -> dict:
    return {
        "sigma": list(part.sigma),
        "horizon": rat(part.horizon),
        "critical": [pos_json(p) for p in part.critical],
        "families": [
            {
                "index": fam.index,
                "epsilon": rat(fam.epsilon),
                "cells": [
                    {
                        "edge": c.edge,
                        "lo": rat(c.lo),
                        "hi": rat(c.hi),
                        "forward": c.forward,
                    }
                    for c in fam.cells
                ],
                "time_cells": [[rat(x) for x in tau.range_interval()]
                               for tau in fam.taus],
                "tau_slopes": [tau.slope for tau in fam.taus],
            }
            for fam in part.families
        ],
    }


def parametric_json(repr_: ParametricRepr) -> dict:
    blocks = []
    for fam in repr_.families:
        pb = repr_.blocks[fam.index]
        for gamma in repr_.sigma:
            blocks.append({
                "family": fam.index,
                "gamma": gamma,
                "dim": pb.kappa,
                "terms": [
                    {
                        "k": t.k,
                        "tau": {"intercept": rat(t.tau.intercept),
                                "slope": t.tau.slope,
                                "length": rat(t.tau.length)},
                        "beta": [fl(x) for x in t.beta],
                    }
                    for t in pb.terms_of(gamma)
                ],
            })
    return {
        "sigma": list(repr_.sigma),
        "horizon": rat(repr_.horizon),
        "shifted": repr_.shifted,
        "families": [
            {"index": fam.index, "epsilon": rat(fam.epsilon), "dim": fam.dim,
             "n_times": fam.n_times}
            for fam in repr_.families
        ],
        "blocks": blocks,
    }


def canonical_json(cf: CanonicalForm) -> dict:
    return {
        "sigma": list(cf.sigma),
        "horizon": rat(cf.horizon),
        "shifted": True,
        "junctions": cf.junctions,
        "notes": list(cf.notes),
        "blocks": [
            {
                "index": i,
                "length": rat(cb.length),
                "kappa": cb.kappa,
                "terms": [
                    {
                        "gamma": t.gamma,
                        "k": t.k,
                        "tau_shifted": {"intercept": rat(t.tau.intercept),
                                        "slope": t.tau.slope},
                        "tau_unshifted": {"intercept": rat(t.tau.intercept - 1),
                                          "slope": t.tau.slope},
                        "beta": [fl(x) for x in t.beta],
                        "projector": [[fl(x) for x in row]
                                      for row in np.outer(t.beta, t.beta)],
                    }
                    for t in cb.terms
                ],
            }
            for i, cb in enumerate(cf.blocks)
        ],
    }


def spectrum_json(sm: SpectrumModel, quotient: QuotientGraph) -> dict:
    return {
        "segments": [
            {
                "block": seg.block,
                "length": rat(seg.length),
                "clusters": {
                    "start": {"size": seg.start_cluster,
                              "summands": list(seg.start_summands)},
                    "end": {"size": seg.end_cluster,
                            "summands": list(seg.end_summands)},
                },
            }
            for seg in sm.segments
        ],
        "sigma_ac": {
            gamma: [[rat(a), rat(b)] for a, b in ivs]
            for gamma, ivs in sm.sigma_ac.items()
        },
        "interior_coincidences": list(sm.interior_coincidences),
        "quotient_graph": {
            "exploratory": True,
            "nodes": [[list(ep) for ep in node] for node in quotient.nodes],
            "edges": [[a, b, rat(ln), blk] for a, b, ln, blk in quotient.edges],
        },
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- DOT diagrams ---------------------------------------------------------

def hydra_dot(h: Hydra) -> str:
    """Space-time diagram: nodes are segment endpoints, edges the segments."""
    lines = ["digraph hydra {", '  rankdir="BT";',
             '  node [shape=point, width=0.06];']
    node_ids: dict[tuple, str] = {}

    def node(edge: str, off: Fraction, t: Fraction) -> str:
        p = h.graph.position(edge, off)
        key = (p, t)
        if key not in node_ids:
            nid = f"n{len(node_ids)}"
            node_ids[key] = nid
            if p.vertex is not None:
                label = f"{p.vertex} t={rat(t)}"
            else:
                label = f"{p.edge}@{rat(p.offset)} t={rat(t)}"
            lines.append(f'  {nid} [xlabel="{label}"];')
        return node_ids[key]

    for s in h.segments:
        a = node(s.edge, s.off0, s.t0)
        b = node(s.edge, s.off1, s.t1)
        lines.append(f'  {a} -> {b} [label="{rat(s.amplitude)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def spectrum_dot(sm: SpectrumModel, quotient: QuotientGraph) -> str:
    """Segments as edges between end nodes, clusters fanned out at the ends."""
    lines = ["graph spectrum {", "  node [shape=circle];"]
    for i, node in enumerate(quotient.nodes):
        members = ",".join(f"b{b}e{e}" for b, e in node)
        lines.append(f'  q{i} [label="{members}"];')
    for a, b, ln, blk in quotient.edges:
        lines.append(f'  q{a} -- q{b} [label="block {blk} len {rat(ln)}"];')
    for seg in sm.segments:
        for endname, summands in (("start", seg.start_summands),
                                  ("end", seg.end_summands)):
            if len(summands) >= 2:
                anchor = f"b{seg.block}{'e1' if endname == 'end' else 'e0'}"
                for j, d in enumerate(summands):
                    cid = f"c{seg.block}{endname}{j}"
                    lines.append(
                        f'  {cid} [shape=point, xlabel="M^{d}"];')
                    node_idx = next(
                        i for i, node in enumerate(quotient.nodes)
                        if (seg.block, 1 if endname == "end" else 0) in node)
                    lines.append(f"  q{node_idx} -- {cid} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"
