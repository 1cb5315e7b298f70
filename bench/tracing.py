"""Traced runs: wrap each layer's public functions from outside the library.

Each wrapper replaces the module attribute its caller looks up and records
a span (name, layer, start, end, parent, instance) in memory, timed in CPU
seconds of the process like the end-to-end metrics.  Wrappers of
inner calls also count them; the sizes of the top-level stages' results are
read once per instance by `pipeline.sizes` and summed here.  Untraced runs
install nothing.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from eikonal_canon import canonical, cli, frames, impulse, partition, serialize, spectrum

STAGES = ("cli", "impulse", "partition", "frames", "representation",
          "canonical", "spectrum", "fd_oracle", "serialize")
"""Pipeline stages, named after their modules; a timeout is charged to one."""


def _count_closure(c, closure):
    c["partition.closure_calls"] += 1
    c["partition.closure_points"] += len(closure)


def _count_alpha(c, alpha):
    c["frames.alpha_entries"] += len(alpha.times) * len(alpha.positions)


def _add(metric, size=lambda _result: 1):
    def count(c, result):
        c[metric] += size(result)
    return count


# (module, attribute, layer, counter).  The module is the one whose namespace
# the caller resolves the name in: cli for the top-level stage calls,
# partition for lattice_closure, canonical and spectrum for their projalg
# imports, impulse for the wave_eval that convolution_snapshot imports.
WRAPS = (
    (cli, "parse_graph_file", "cli", None),
    (cli, "propagate", "impulse", None),
    (cli, "build_partition", "partition", None),
    (partition, "lattice_closure", "partition", _count_closure),
    (cli, "family_frames", "frames", None),
    (frames, "alpha_set", "frames", _count_alpha),
    (cli, "build_parametric", "representation", None),
    (cli, "canonicalize", "canonical", None),
    (canonical, "split_blocks", "canonical", _add("canonical.blocks_split", len)),
    (canonical, "equivalence_classes", "projalg", None),
    (canonical, "boundary_map", "canonical", _add("canonical.boundary_map_calls")),
    (canonical, "connection_test", "projalg", _add("canonical.connection_tests")),
    (canonical, "junction", "canonical", _add("canonical.junctions")),
    (canonical, "irreducible_reduction", "projalg", None),
    (canonical, "word_span_dim", "projalg", _add("projalg.word_span_dim_calls")),
    (cli, "build_spectrum", "spectrum", None),
    (spectrum, "boundary_clusters", "spectrum", _add("spectrum.boundary_clusters_calls")),
    (spectrum, "word_span_dim", "projalg", _add("projalg.word_span_dim_calls")),
    (cli, "quotient_graph", "spectrum", None),
    (cli, "fd_wave", "fd_oracle", None),
    (cli, "convolution_snapshot", "fd_oracle", None),
    (impulse, "wave_eval", "impulse", _add("fd_oracle.wave_eval_calls")),
    (serialize, "partition_json", "serialize", None),
    (serialize, "spectrum_json", "serialize", None),
    (serialize, "dumps", "serialize", _add("serialize.bytes", len)),
)


class Tracer:
    """Spans and counters of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, instance]
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_instance(self, index: int) -> None:
        self.instance = index
        self._stack.clear()  # a timeout may have left an open span behind

    def install(self) -> None:
        for module, name, layer, count in WRAPS:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, name, layer, count))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, fn, name, layer, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, time.process_time(), None,
                          stack[-1] if stack else None, self.instance])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.process_time()
                if index in stack:
                    del stack[stack.index(index):]
            if count is not None:
                count(counts, result)
            return result

        return wrapper


def _span_totals(spans):
    """Per layer: busy time (outermost spans of the layer) and self time."""
    child_time = defaultdict(float)
    for name, layer, t0, t1, parent, _ in spans:
        if t1 is not None and parent is not None:
            child_time[parent] += t1 - t0
    busy, self_time, by_name = Counter(), Counter(), Counter()
    for i, (name, layer, t0, t1, parent, _) in enumerate(spans):
        if t1 is None:
            continue
        dur = t1 - t0
        self_time[layer] += dur - child_time[i]
        by_name[name] += dur
        ancestor = parent
        while ancestor is not None and spans[ancestor][1] != layer:
            ancestor = spans[ancestor][4]
        if ancestor is None:
            busy[layer] += dur
    return busy, self_time, by_name


SIZE_METRICS = {
    "impulse.segments": "segments", "impulse.events": "events",
    "partition.critical_points": "critical_points", "frames.rows": "frame_rows",
    "frames.zero_rows": "frame_zero_rows", "representation.terms": "terms",
    "canonical.self_junction_rejects": "self_junction_rejects",
    "spectrum.segments": "spectrum_segments", "fd_oracle.grid_nodes": "grid_nodes",
    "fd_oracle.time_steps": "time_steps",
}
"""Per-layer counters summed from the `pipeline.sizes` key they name."""


def layer_metrics(tracer: Tracer, traced_records: list[dict], passes: int, timeouts: Counter,
                  untraced_passes: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value per traced pass, unit)."""
    busy, self_time, by_name = _span_totals(tracer.spans)
    c = Counter(tracer.counts)
    kappas = [0]
    for rec in traced_records:
        size = rec["sizes"]
        for metric, key in SIZE_METRICS.items():
            c[metric] += size.get(key, 0)
        for dim, n_times in size.get("families", ()):
            c["partition.cells"] += dim
            c["partition.time_cells"] += n_times
        c["canonical.kappa_sum"] += sum(size.get("kappa", ()))
        kappas += size.get("kappa", ())
    per = 1.0 / passes
    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit, scale=per):
        out[metric] = (value * scale, unit)

    for layer in ("impulse", "partition", "frames", "representation", "canonical",
                  "projalg", "spectrum", "serialize"):
        put(f"{layer}.busy_s", busy[layer], "s")
    put("canonical.self_s", self_time["canonical"], "s")
    put("spectrum.self_s", self_time["spectrum"], "s")
    put("projalg.word_span_dim_s", by_name["word_span_dim"], "s")
    put("projalg.connection_test_s", by_name["connection_test"], "s")
    put("projalg.irreducible_reduction_s", by_name["irreducible_reduction"], "s")
    put("fd_oracle.fd_wave_s", by_name["fd_wave"], "s")
    put("fd_oracle.convolution_s", by_name["convolution_snapshot"], "s")
    put("cli.parse_s", by_name["parse_graph_file"], "s")
    for metric in ("impulse.segments", "impulse.events", "partition.closure_calls",
                   "partition.closure_points", "partition.critical_points",
                   "partition.cells", "partition.time_cells", "frames.alpha_entries",
                   "frames.rows", "frames.zero_rows", "representation.terms",
                   "canonical.blocks_split", "canonical.boundary_map_calls",
                   "canonical.connection_tests", "canonical.junctions",
                   "canonical.self_junction_rejects", "canonical.kappa_sum",
                   "projalg.word_span_dim_calls", "spectrum.boundary_clusters_calls",
                   "spectrum.segments", "fd_oracle.grid_nodes", "fd_oracle.time_steps",
                   "fd_oracle.wave_eval_calls", "serialize.bytes"):
        put(metric, c[metric], "bytes" if metric == "serialize.bytes" else "count")
    put("canonical.kappa_max", max(kappas), "count", 1.0)
    tests = c["canonical.connection_tests"]
    put("canonical.junction_yield", c["canonical.junctions"] / tests if tests else 0.0,
        "ratio", 1.0)
    for stage in STAGES:
        put(f"{stage}.timeouts", timeouts[stage], "count", 1.0 / untraced_passes)
    put("trace.overhead_s", overhead_s, "s", 1.0)
    return out
