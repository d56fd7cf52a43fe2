"""Run one perfbench workload, check its outputs and print its metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

The workload's unit of user work is repeated until ``--seconds`` have
passed. Timings report the fastest repetition, and ``ops_per_s`` the
fastest time of each timed call: on a machine shared with other jobs, the
slow ones measure the neighbours as much as the program, and the fastest
one repeats far better from run to run. Lines before
the last are for people: the run environment, every check and every
metric with its unit. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of the checkout's ``BENCHMARK.json``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, from repetitions that alternate untraced and
traced, so the tracing overhead is measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import locate


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="closed_loop, plan_sweep or continuum")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the workload's unit of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def git_sha() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = locate.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, microsim) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": locate.nproc(),
        "git_sha": git_sha(),
        "numba_drift": bool(microsim.NUMBA_AVAILABLE),
    }


class SetupProbes:
    """Set-up timed in fresh interpreters, spread over the measured seconds.

    Probes run between units of work, never during one. Spreading them out
    keeps one busy spell on the machine from slowing all of them. The first
    probe is discarded and the fastest of the others is ``setup_s``.
    """

    def __init__(self, workload: str, probes: int, tiny: bool, seconds: float):
        self.cmd = [sys.executable, str(locate.HERE / "setup_probe.py"), workload]
        if tiny:
            self.cmd.append("--tiny")
        self.count = 1 + probes
        self.interval = seconds / self.count
        self.due = time.perf_counter()
        self.times: list[float] = []

    def _probe(self) -> None:
        done = subprocess.run(self.cmd, cwd=locate.ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        self.times.append(float(done.stdout.split()[-1]))

    def __call__(self) -> None:
        if len(self.times) < self.count and time.perf_counter() >= self.due:
            self._probe()
            self.due += self.interval

    def setup_s(self) -> float:
        while len(self.times) < self.count:
            self._probe()
        return min(self.times[1:])


def measure(workload, seconds: float, tracer, probes):
    """Repeat the unit of work until ``seconds`` pass; odd reps traced if tracing.

    Set-up probes, if any, run between units of work. Only the last rep
    keeps its output, so peak memory does not grow with the number of reps.
    Returns the reps, which of them were traced, and whether one raised.
    """
    reps, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if probes is not None:
            probes()
        use_tracer = tracer is not None and len(reps) % 2 == 1
        try:
            if use_tracer:
                with tracer.installed():
                    rep = workload.rep()
            else:
                rep = workload.rep()
        except Exception:
            traceback.print_exc()
            return reps, traced, True
        if reps:
            reps[-1].output = None
        reps.append(rep)
        traced.append(use_tracer)
        if time.perf_counter() >= deadline and (tracer is None or len(reps) % 2 == 0):
            return reps, traced, False


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    locate.prepare()
    spec = json.loads((locate.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    import numpy as np
    from swarmherd import microsim

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    sizes = workloads.TINY if args.tiny else workloads.FULL
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(np, microsim), sort_keys=True))

    tracer = tracing.Tracer() if args.trace else None
    probes = None if args.trace else SetupProbes(args.workload, sizes.probes,
                                                 args.tiny, args.seconds)
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=locate.ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, out_dir)
        workload.setup()
        reps, traced, raised = measure(workload, args.seconds, tracer, probes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if not reps or (tracer is not None and not any(traced)):
        print("perfbench: no unit of work completed", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in reps) + raised
    failed = int(raised)
    checks = []
    try:
        checks.extend(workload.checks(reps))
    except Exception:
        traceback.print_exc()
        checks.append(("checks_completed", False, "a check raised"))
    if tracer is not None:
        for span in workload.spans:
            calls = tracer.calls(span)
            checks.append((f"span_called:{span}", calls > 0, f"{calls} calls"))
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    attempted += len(checks)
    failed += sum(1 for _, ok, _ in checks if not ok)

    if tracer is None:
        values = {
            "setup_s": probes.setup_s(),
            "plan_s": min(r.plan_s for r in reps),
            "wall_s": min(r.wall_s for r in reps),
            "ops_per_s": reps[0].ops / sum(min(r.parts[k] for r in reps)
                                           for k in reps[0].parts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: values[name] for name in names}
    else:
        on = min(r.wall_s for r, t in zip(reps, traced) if t)
        off = min(r.wall_s for r, t in zip(reps, traced) if not t)
        metrics = tracer.metrics(names, workload.counts, sum(traced), on / off - 1)
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"metric error_rate = {failed / attempted!r} ratio  "
          f"({failed} of {attempted} operations and checks failed; "
          f"ops: {workload.ops})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
