"""Spans around swarmherd's public functions, installed from outside ``src/``.

Each span name is ``<module>.<function>`` or ``<module>.<Class>.<method>``.
Installing a span replaces the function in every ``swarmherd`` module
namespace that holds it, because callers look names up where they imported
them (``run`` finds ``estimate_density`` in ``swarmherd.microsim``).
Spans are kept in memory as ``[name, parent index, start, end]`` and turned
into per-layer metrics after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

SPANS = (
    "microsim.run", "microsim.drift_all", "microsim.containment",
    "kde.estimate_density",
    "control.herder_error", "control.control_field", "control.sample_at_herders",
    "grids.poisson_solve", "grids.gradient", "grids.divergence", "grids.laplacian",
    "grids.circular_convolve", "grids.resample",
    "kernel.sample_on_grid",
    "feasibility.plan_herders", "feasibility.feasibility_map",
    "feasibility.deconvolve", "feasibility.desired_velocity_field",
    "feasibility.stability_margin",
    "feasibility.DeconvolutionOperator.build", "feasibility.DeconvolutionOperator.svd",
    "continuum.continuum_step", "continuum.verify_herder_convergence",
    "continuum.verify_target_convergence",
    "fileio.write_metrics", "fileio.write_trajectory",
)

# The operator caches its factorization; only calls that compute it are spans.
CACHED_SVD = "feasibility.DeconvolutionOperator.svd"

GRID_OPS = ("grids.poisson_solve", "grids.gradient", "grids.divergence",
            "grids.laplacian", "grids.circular_convolve")
RK4_DRIVERS = ("continuum.continuum_step", "continuum.verify_herder_convergence",
               "continuum.verify_target_convergence")

_MS = {"ms_p50": 50, "ms": 50, "ms_p95": 95}


def _swarmherd_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "swarmherd" or name.startswith("swarmherd."))]


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        records, stack = self.records, self._stack
        cached = name == CACHED_SVD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cached and getattr(args[0], "_svd", None) is not None:
                return fn(*args, **kwargs)
            idx = len(records)
            records.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[idx][2:] = (start, end)

        return traced

    def _install(self, name: str) -> None:
        layer, *path = name.split(".")
        module = importlib.import_module(f"swarmherd.{layer}")
        if len(path) == 2:  # Class.method
            cls = getattr(module, path[0], None)
            raw = None if cls is None else cls.__dict__.get(path[1])
            if raw is None:
                return
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(cls, path[1], new)
            self._undo.append((cls, path[1], raw))
            return
        original = getattr(module, path[0], None)
        if original is None:
            return
        wrapper = self._wrap(name, original)
        for mod in _swarmherd_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span in SPANS for the duration of the block."""
        try:
            for name in SPANS:
                self._install(name)
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    # -- analysis ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for r in self.records if r[0] == name)

    def _seconds(self, name: str, under: tuple[str, ...] = ()) -> list[float]:
        return [r[3] - r[2] for i, r in enumerate(self.records)
                if r[0] == name and (not under or self._has_ancestor(i, under))]

    def _has_ancestor(self, idx: int, names: tuple[str, ...]) -> bool:
        parent = self.records[idx][1]
        while parent >= 0:
            if self.records[parent][0] in names:
                return True
            parent = self.records[parent][1]
        return False

    def _self_seconds(self, name: str) -> float:
        child = np.zeros(len(self.records))
        for r in self.records:
            if r[1] >= 0:
                child[r[1]] += r[3] - r[2]
        return float(sum(r[3] - r[2] - child[i] for i, r in enumerate(self.records)
                         if r[0] == name))

    def metrics(self, names: list[str], counts: dict, traced_reps: int,
                overhead_ratio: float) -> dict:
        """The named metrics from the recorded spans and the workload's exact counts.

        ``<span>.ms``, ``.ms_p50`` and ``.ms_p95`` are percentiles of the span's
        call times; ``<span>.calls`` is its calls per traced unit of work. A
        metric reads 0 on a workload that never enters its layer or does not
        give its count.
        """
        def drift_share():
            run = sum(self._seconds("microsim.run"))
            return sum(self._seconds("microsim.drift_all")) / run if run else 0.0

        def pairs_per_s():
            drift = sum(self._seconds("microsim.drift_all"))
            pairs = counts.get("drift_pairs_per_call", 0)
            return pairs * self.calls("microsim.drift_all") / drift if drift else 0.0

        def run_self_ms_per_step():
            steps = self.calls("microsim.run") * counts.get("steps_per_run", 0)
            return self._self_seconds("microsim.run") * 1e3 / steps if steps else 0.0

        def svd_share_of_plan():
            plan = sum(self._seconds("feasibility.plan_herders"))
            svd = sum(self._seconds("feasibility.DeconvolutionOperator.svd",
                                    under=("feasibility.plan_herders",)))
            return svd / plan if plan else 0.0

        def grid_ops_per_step():
            rk4 = counts.get("rk4_steps_per_rep", 0) * traced_reps
            ops = sum(len(self._seconds(op, under=RK4_DRIVERS)) for op in GRID_OPS)
            return ops / rk4 if rk4 else 0.0

        derived = {
            "microsim.drift_all.share": drift_share,
            "microsim.drift_all.pairs_per_s": pairs_per_s,
            "microsim.drift_all.pairs_per_call":
                lambda: float(counts.get("drift_pairs_per_call", 0)),
            "microsim.run.self_ms_per_step": run_self_ms_per_step,
            "feasibility.DeconvolutionOperator.svd.share_of_plan": svd_share_of_plan,
            "feasibility.operator_bytes": lambda: float(counts.get("operator_bytes", 0)),
            "continuum.grid_ops_per_step": grid_ops_per_step,
            "continuum.rk4_steps": lambda: float(counts.get("rk4_steps_per_rep", 0)),
            "trace.overhead_ratio": lambda: overhead_ratio,
        }
        out: dict[str, float] = {}
        for name in names:
            span, _, stat = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]()
            elif stat in _MS:
                secs = self._seconds(span)
                out[name] = float(np.percentile(secs, _MS[stat])) * 1e3 if secs else 0.0
            elif stat == "calls":
                out[name] = self.calls(span) / traced_reps
            else:
                raise KeyError(f"no per-layer metric named {name!r}")
        return out
