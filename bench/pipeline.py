"""One instance through the same calls as one CLI command, without disk I/O.

The calls go through the `eikonal_canon.cli` module attributes, exactly the
names `cli.run_command` looks up, so a traced run can wrap them there.
"""

from __future__ import annotations

import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from eikonal_canon import cli
from eikonal_canon.representation import sigma_ac

import goldens
from workloads import Instance

TOL = cli.build_arg_parser().get_default("tol")
MAX_L2_ERROR = 1e-2


class BudgetExceeded(BaseException):
    """Raised by the interval timer; a BaseException so no library handler eats it."""


def _on_budget(signum, frame):
    raise BudgetExceeded


@dataclass
class Artifacts:
    """What an instance has produced so far.

    The stage it is in (read when its budget runs out), the object each
    finished stage returned, and at the end the command's JSON string.
    """

    stage: str = "cli"
    hydras: list = field(default_factory=list)
    partition: object = None
    frames: dict | None = None
    parametric: object = None
    form: object = None
    spectrum: object = None
    snapshot: object = None
    l2_error: float | None = None
    text: str | None = None


def run_command(inst: Instance, art: Artifacts) -> None:
    """Mirror `cli.run_command` for spectrum, partition and simulate."""
    ser = cli.serialize
    g = cli.parse_graph_file(inst.graph)
    sigma = sorted(set(inst.sigma))
    horizon = Fraction(inst.horizon)
    art.stage = "impulse"
    for gamma in sigma:
        art.hydras.append(cli.propagate(g, gamma, horizon))
    if inst.command == "simulate":
        art.stage = "fd_oracle"
        grid = cli.GridSpec.choose(g, horizon)
        phi = cli.default_bump(float(horizon))
        controls = [cli.ControlSignal(gamma, phi) for gamma in sigma]
        art.snapshot = cli.fd_wave(g, controls, horizon, grid)
        cv = cli.convolution_snapshot(art.hydras, controls, horizon, grid)
        art.l2_error = cli.compare_snapshots(art.snapshot, cv)
        art.stage = "serialize"
        art.text = ser.dumps({"grid_h": ser.rat(grid.h),
                              "relative_l2_error": ser.fl(art.l2_error)})
        return
    art.stage = "partition"
    art.partition = cli.build_partition(art.hydras)
    if inst.command == "partition":
        art.stage = "serialize"
        art.text = ser.dumps(ser.partition_json(art.partition))
        return
    art.stage = "frames"
    art.frames = cli.family_frames(art.partition, art.hydras, TOL)
    art.stage = "representation"
    art.parametric = cli.build_parametric(art.partition, art.frames, shifted=True)
    art.stage = "canonical"
    art.form = cli.canonicalize(art.parametric, TOL)
    art.stage = "spectrum"
    art.spectrum = cli.build_spectrum(art.form, TOL)
    quot = cli.quotient_graph(art.spectrum)
    art.stage = "serialize"
    art.text = ser.dumps(ser.spectrum_json(art.spectrum, quot))


@dataclass
class Outcome:
    status: str  # "solved", "timeout" or "error"
    seconds: float
    artifacts: Artifacts
    error: str | None = None

    @property
    def stage(self) -> str | None:
        """The stage a timeout or an error hit."""
        return None if self.status == "solved" else self.artifacts.stage


def run_instance(inst: Instance, budget_s: float | None) -> Outcome:
    """Run one instance, under an interval-timer budget when one is given.

    Time and budget are CPU seconds of the process (user + system), so time
    the host gives to other work counts in neither.
    """
    art = Artifacts()
    previous = signal.signal(signal.SIGPROF, _on_budget)
    t0 = time.process_time()
    try:
        # the inner finally disarms the timer on every path; a signal that
        # lands before it does is still caught below as a timeout
        try:
            if budget_s is not None:
                signal.setitimer(signal.ITIMER_PROF, budget_s)
            run_command(inst, art)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        return Outcome("solved", time.process_time() - t0, art)
    except BudgetExceeded:
        return Outcome("timeout", budget_s, art)
    except Exception as exc:  # any library failure is a failed operation
        return Outcome("error", time.process_time() - t0, art,
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGPROF, previous)


def sizes(art: Artifacts) -> dict:
    """Size counters read from the objects the finished stages returned.

    These are the only copies of the counts: the traced run's per-layer
    size metrics are sums of these records.
    """
    out = {"segments": sum(len(h.segments) for h in art.hydras),
           "events": sum(len(h.events) for h in art.hydras)}
    if art.partition is not None:
        out["critical_points"] = len(art.partition.critical)
        out["families"] = [[f.dim, f.n_times] for f in art.partition.families]
    if art.frames is not None:
        out["frame_rows"] = sum(fr.n for fr in art.frames.values())
        out["frame_zero_rows"] = sum(fr.n - len(fr.nonzero) for fr in art.frames.values())
    if art.parametric is not None:
        out["terms"] = sum(len(b.terms) for b in art.parametric.blocks.values())
    if art.form is not None:
        out["junctions"] = art.form.junctions
        out["self_junction_rejects"] = sum("self-junction" in n for n in art.form.notes)
        out["kappa"] = [b.kappa for b in art.form.blocks]
    if art.spectrum is not None:
        out["spectrum_segments"] = len(art.spectrum.segments)
    if art.snapshot is not None:
        out["grid_nodes"] = sum(len(v) for v in art.snapshot.values.values())
        out["time_steps"] = int(art.snapshot.time / art.snapshot.h)
    return out


def verify_identity(art: Artifacts) -> bool:
    """`eikonal-canon verify`'s cheap identity: canonical sigma_ac == parametric."""
    sigma = art.form.sigma
    canon = {g: [tuple(iv) for iv in art.spectrum.sigma_ac[g]] for g in sigma}
    param = {g: [tuple(iv) for iv in sigma_ac(art.parametric, g)] for g in sigma}
    return canon == param


class Checker:
    """Correctness checks, run after each instance's clock has stopped.

    An output with a golden must match it.  A sweep instance without one
    must pass `verify_identity`; a fixed instance without one fails.
    """

    def __init__(self, golden: dict, sweep: bool):
        self.golden = golden
        self.sweep = sweep
        self.counts = Counter()

    def __call__(self, inst: Instance, outcome: Outcome) -> str | None:
        """None when the output is correct, else why it is not."""
        art = outcome.artifacts
        if inst.command == "simulate" and not art.l2_error <= MAX_L2_ERROR:
            return f"relative L2 error {art.l2_error} above {MAX_L2_ERROR}"
        want = self.golden.get(inst.key())
        if want is not None:
            self.counts["golden"] += 1
            return None if goldens.matches(want, art.text) else "output differs from golden"
        if self.sweep:
            self.counts["verify"] += 1
            return None if verify_identity(art) else "canonical and parametric sigma_ac differ"
        return "no golden recorded for this fixed instance"
