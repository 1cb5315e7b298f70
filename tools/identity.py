"""Byte-identity sweep: this working tree's outputs against another revision's.

Seeded random admissible graphs (the tests' generator) run through both
sides' pipelines.  For each stage (partition, shifted parametric,
canonical, spectrum, and simulate) each side writes the stage's JSON, and
the report counts per stage how many graphs were byte-identical, differed,
timed out or raised on either side.  The simulate stage writes the
relative L2 error between the finite-difference and the convolution
snapshots and both snapshots' per-edge values, every float as float.hex.

    python3 tools/identity.py --against HEAD~1 [--seeds 1000:1300]
                              [--cpu-limit 2] [--out DIR]

Seed s draws from random.Random(s): a common denominator with probability
0.7, the graph, 1-3 boundary sources and a horizon T in {1/4, ..., 10/4}.
Each side runs in its own worker process with one BLAS thread.  The
algebra stages (partition to spectrum) and the simulate stage are two
chains, each with the CPU limit (seconds of process CPU) per graph; a
chain that exceeds it, or raises, is stopped at the stage it was in.  The
other revision's `src/` is extracted with `git archive` into a temporary
directory.  The JSON goes to --out (kept) or to a temporary directory
(removed).  Exit status 1 if any stage differed, or raised on one side
where the other finished it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tarfile
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHAINS = (("partition", "parametric", "canonical", "spectrum"), ("simulate",))
"""Stage chains run one after the other; each stops at its first failure."""
STAGES = tuple(stage for chain in CHAINS for stage in chain)


def instances(seeds: range) -> list[dict]:
    """Graph text, sources and horizon per seed, from the tests' generator."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    from conftest import random_admissible_graph
    from eikonal_canon.cli import emit_graph_file

    out = []
    for seed in seeds:
        rng = random.Random(seed)
        g = random_admissible_graph(rng, common_denominator=rng.random() < 0.7)
        boundary = sorted(g.boundary)
        sigma = sorted(rng.sample(boundary, rng.randint(1, min(3, len(boundary)))))
        horizon = Fraction(rng.randint(1, 10), 4)
        out.append({"seed": seed, "graph": emit_graph_file(g), "sigma": sigma,
                    "horizon": str(horizon)})
    return out


class _Budget(BaseException):
    """Raised by the CPU timer; a BaseException so no library handler eats it."""


def _on_budget(signum, frame):
    raise _Budget


def algebra_outputs(job: dict):
    """The JSON of the partition, parametric, canonical and spectrum stages."""
    from eikonal_canon import cli, serialize

    g = cli.parse_graph_file(job["graph"])
    horizon = Fraction(job["horizon"])
    hydras = [cli.propagate(g, gamma, horizon) for gamma in job["sigma"]]
    part = cli.build_partition(hydras)
    yield serialize.partition_json(part)
    frames = cli.family_frames(part, hydras)
    repr_ = cli.build_parametric(part, frames, shifted=True)
    yield serialize.parametric_json(repr_)
    cf = cli.canonicalize(repr_)
    yield serialize.canonical_json(cf)
    sm = cli.build_spectrum(cf)
    yield serialize.spectrum_json(sm, cli.quotient_graph(sm))


def simulate_outputs(job: dict):
    """The simulate stage, as `eikonal-canon simulate` runs it: the relative
    L2 error and both snapshots, every float as float.hex."""
    from eikonal_canon import cli

    g = cli.parse_graph_file(job["graph"])
    horizon = Fraction(job["horizon"])
    hydras = [cli.propagate(g, gamma, horizon) for gamma in job["sigma"]]
    grid = cli.GridSpec.choose(g, horizon)
    phi = cli.default_bump(float(horizon))
    controls = [cli.ControlSignal(gamma, phi) for gamma in job["sigma"]]
    fd = cli.fd_wave(g, controls, horizon, grid)
    cv = cli.convolution_snapshot(hydras, controls, horizon, grid)
    yield {"relative_l2_error": cli.compare_snapshots(fd, cv).hex(),
           **{name: {eid: [float(v).hex() for v in values]
                     for eid, values in snap.values.items()}
              for name, snap in (("fd", fd), ("convolution", cv))}}


def worker(jobs_path: str, out_dir: str, cpu_limit: float) -> None:
    """Run every job through both chains on sys.path.

    Writes each job's stage JSON under out_dir/<seed>/, the traceback of a
    raise as error-<stage>.txt there, and one status line per job and
    chain to out_dir/status.jsonl.
    """
    from eikonal_canon import serialize

    signal.signal(signal.SIGPROF, _on_budget)
    records = []
    for job in json.loads(Path(jobs_path).read_text()):
        seed_dir = Path(out_dir) / str(job["seed"])
        seed_dir.mkdir(parents=True, exist_ok=True)
        for chain, outputs in zip(CHAINS, (algebra_outputs(job), simulate_outputs(job))):
            stage, status, error, done = chain[0], "ok", None, []
            signal.setitimer(signal.ITIMER_PROF, cpu_limit)
            try:
                for stage in chain:
                    done.append(next(outputs))
            except _Budget:
                status = "timeout"
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                status, error = "raised", f"{type(exc).__name__}: {exc}"
                (seed_dir / f"error-{stage}.txt").write_text(traceback.format_exc())
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
            for name, obj in zip(chain, done):
                (seed_dir / f"{name}.json").write_text(serialize.dumps(obj))
            records.append(json.dumps({"seed": job["seed"], "chain": chain[0],
                                       "status": status,
                                       "stage": None if status == "ok" else stage,
                                       "error": error}))
    (Path(out_dir) / "status.jsonl").write_text("\n".join(records) + "\n")


def extract_src(rev: str, dest: Path) -> Path:
    """The revision's src/ tree under dest, by git archive."""
    tar_path = dest / "src.tar"
    subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", "-o",
                    str(tar_path), rev, "src"], check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest)
    return dest / "src"


def run_sides(sides: dict[str, Path], jobs_path: Path, out: Path,
              cpu_limit: float) -> dict[str, dict[tuple[int, str], dict]]:
    """Both sides' workers, side by side; their status lines by side, seed and chain."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    procs = {}
    for side, src in sides.items():
        (out / side).mkdir(parents=True)
        procs[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(jobs_path), str(out / side),
             "--cpu-limit", str(cpu_limit)],
            env=dict(env, PYTHONPATH=str(src)))
    statuses = {}
    for side, proc in procs.items():
        if proc.wait():
            raise SystemExit(f"{side} worker exited with status {proc.returncode}")
        lines = (out / side / "status.jsonl").read_text().splitlines()
        statuses[side] = {(rec["seed"], rec["chain"]): rec for rec in map(json.loads, lines)}
    return statuses


def compare(seeds: range, out: Path, statuses: dict[str, dict[tuple[int, str], dict]]
            ) -> tuple[dict[str, dict[str, int]], list[str], bool]:
    """Per stage: identical / differed / timed out / raised counts.

    Also the findings (differences and raises), and whether any of them is
    a difference: differing JSON, or a raise where the other side finished
    the stage.  A stage after the one a side stopped in counts as that
    stop: raised if either side raised, timed out otherwise.
    """
    chain_of = {stage: chain[0] for chain in CHAINS for stage in chain}
    counts = {stage: dict.fromkeys(("identical", "differed", "timed out", "raised"), 0)
              for stage in STAGES}
    findings, differs = [], False
    for seed in seeds:
        for stage in STAGES:
            files = {side: out / side / str(seed) / f"{stage}.json" for side in statuses}
            have = [side for side, path in files.items() if path.exists()]
            if len(have) == len(files):
                same = len({path.read_text() for path in files.values()}) == 1
                kind = "identical" if same else "differed"
                if not same:
                    findings.append(f"seed {seed}: {stage} differs")
                    differs = True
            else:
                stopped = {side: statuses[side][seed, chain_of[stage]]
                           for side in files if side not in have}
                raised = any(rec["status"] == "raised" for rec in stopped.values())
                kind = "raised" if raised else "timed out"
                for side, rec in stopped.items():
                    if rec["status"] == "raised" and rec["stage"] == stage:
                        findings.append(f"seed {seed}: {stage} raised on {side}"
                                        f"{' only' if have else ''}: {rec['error']}")
                        differs |= bool(have)
            counts[stage][kind] += 1
    return counts, findings, differs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="revision to compare the working tree with")
    parser.add_argument("--seeds", default="1000:1300", help="seed range A:B (B excluded)")
    parser.add_argument("--cpu-limit", type=float, default=2.0,
                        help="CPU seconds per graph and side")
    parser.add_argument("--out", help="directory to keep the per-graph JSON in")
    parser.add_argument("--worker", nargs=2, metavar=("JOBS", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*args.worker, args.cpu_limit)
        return 0
    if not args.against:
        parser.error("--against is required")
    if args.out and Path(args.out).exists() and any(Path(args.out).iterdir()):
        parser.error(f"--out {args.out} is not empty")
    lo, hi = (int(x) for x in args.seeds.split(":"))
    seeds = range(lo, hi)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        out = Path(args.out) if args.out else tmp / "out"
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(instances(seeds)))
        sides = {"tree": REPO / "src", "against": extract_src(args.against, tmp)}
        statuses = run_sides(sides, jobs_path, out, args.cpu_limit)
        counts, findings, differs = compare(seeds, out, statuses)
    print(f"{len(seeds)} graphs, working tree against {args.against}, "
          f"{args.cpu_limit} s CPU per graph and side")
    print(f"{'stage':<12}" + "".join(f"{k:>11}" for k in counts[STAGES[0]]))
    for stage, row in counts.items():
        print(f"{stage:<12}" + "".join(f"{v:>11}" for v in row.values()))
    for line in findings:
        print(line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
