"""Spans and probes recorded from outside the package.

Wrappers are installed by rebinding module attributes: every public
function defined in a unimap module is replaced, in every unimap module
that holds a reference to it, by a wrapper that records a span.  Calls
through ``from .x import f`` bindings and calls inside the defining module
both go through the rebound name, so no program code changes.  Removing
the wrappers restores the original objects.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

from speed import SpeedTrace

LAYERS = ("core", "control", "search", "eigensynth", "subspace", "cesium", "gates", "ec", "wigner", "io", "cli")


def package_modules(sys_modules) -> dict[str, types.ModuleType]:
    return {layer: sys_modules[f"unimap.{layer}"] for layer in LAYERS}


def public_functions(modules: dict[str, types.ModuleType]):
    """(layer, name, function) for every public function a layer module defines."""
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                yield layer, name, obj


class Rebinder:
    """Replaces functions across all package modules and puts them back."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def replace(self, original, replacement) -> None:
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, replacement)

    def restore(self) -> None:
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()


@dataclass
class StepRecord:
    """One ``multi_start`` call: its inputs, its result, and when it ran."""

    system: object
    psi_i: object
    psi_f: object
    result: object
    start: float
    end: float


@dataclass
class Probe:
    """What the benchmark observes of each command, traced or not.

    ``steps`` holds every synthesis step (one ``multi_start`` call) and
    ``ec_maps`` the return value of each ``synthesize_ec_maps`` call.
    Installing it costs two timer reads per step, so untraced runs use it.
    With an enabled speed trace, each objective evaluation also gives the
    trace a chance to take its half-second sample inside long searches.
    """

    speed: SpeedTrace
    steps: list[StepRecord] = field(default_factory=list)
    ec_maps: list[tuple] = field(default_factory=list)

    def install(self, rebinder: Rebinder) -> None:
        search, ec = rebinder.modules["search"], rebinder.modules["ec"]
        multi_start, synthesize_ec_maps = search.multi_start, ec.synthesize_ec_maps
        objective = search.objective_state_prep

        @functools.wraps(multi_start)
        def timed_multi_start(sys, psi_i, psi_f, cfg):
            t0 = time.perf_counter()
            result = multi_start(sys, psi_i, psi_f, cfg)
            self.steps.append(StepRecord(sys, psi_i, psi_f, result, t0, time.perf_counter()))
            return result

        @functools.wraps(objective)
        def sampled_objective(*args, **kwargs):
            self.speed.maybe_sample()
            return objective(*args, **kwargs)

        @functools.wraps(synthesize_ec_maps)
        def kept_synthesize_ec_maps(*args, **kwargs):
            out = synthesize_ec_maps(*args, **kwargs)
            self.ec_maps.append(out)
            return out

        rebinder.replace(multi_start, timed_multi_start)
        rebinder.replace(synthesize_ec_maps, kept_synthesize_ec_maps)
        if self.speed.enabled:
            rebinder.replace(objective, sampled_objective)


class Tracer:
    """In-memory spans: name, start, end, parent and run id, one list each.

    A run id is shared by the spans of one CLI command.  Span times are
    ``perf_counter_ns`` values.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.run_id = 0
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, span_name: str, fn, on_result=None):
        names, starts, ends, parents, runs, stack = self.name, self.start, self.end, self.parent, self.run, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def install(self, rebinder: Rebinder) -> None:
        """Wrap every public function of every layer; hooks count layer work."""
        hooks = {
            "search.search_state_map": self._count_search,
            "eigensynth.plan_unitary": self._count_plan("eigensynth", lambda s: s.skippable),
            "subspace.plan_subspace_map": self._count_plan("subspace", lambda s: s.skipped),
            "io.atomic_write_text": self._count_bytes,
        }
        for layer, name, fn in list(public_functions(rebinder.modules)):
            span_name = f"{layer}.{name}"
            rebinder.replace(fn, self.wrap(span_name, fn, hooks.get(span_name)))

    def _count_search(self, args, kwargs, result) -> None:
        self.counters["search.iterations"] += result.iterations
        self.counters["search.converged"] += bool(result.converged)

    def _count_plan(self, layer: str, is_skipped):
        def count(args, kwargs, steps) -> None:
            self.counters[f"{layer}.planned_steps"] += len(steps)
            self.counters[f"{layer}.skipped_steps"] += sum(1 for s in steps if is_skipped(s))
        return count

    def _count_bytes(self, args, kwargs, result) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.counters["io.bytes_written"] += len(text.encode("utf-8"))

    def span_count(self) -> int:
        return len(self.name)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap because the program is
        single-threaded.
        """
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out[self.name[i]]
            agg["calls"] += 1
            agg["s"] += dur * 1e-9
            agg["self_s"] += (dur - child[i]) * 1e-9
        return out

    def outermost_seconds(self, prefix: str) -> float:
        """Total time of spans named ``prefix*`` not nested inside another such span."""
        total = 0
        for i, name in enumerate(self.name):
            if name.startswith(prefix):
                p = self.parent[i]
                while p >= 0 and not self.name[p].startswith(prefix):
                    p = self.parent[p]
                if p < 0:
                    total += self.end[i] - self.start[i]
        return total * 1e-9

    def top_level_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.name)) if self.parent[i] < 0) * 1e-9

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run_id\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.name[i]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.run[i]}\n")


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    return max(statistics.median((loop(wrapped) - loop(noop)) / calls for _ in range(repeats)), 0.0)


def time_per_call(fn, calls: int) -> float:
    """Median seconds of one call over ``calls`` calls."""
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def kernel_probe(modules, steps: list[StepRecord], calls: int = 15) -> dict[str, float]:
    """Per-call milliseconds of the search kernels on the workload's own waveforms.

    Uses the unwrapped functions, on the waveform each searched step
    returned, and reports the median over those waveforms.  Each timing is
    bracketed by speed samples and given at the reference speed, like the
    end-to-end times.
    """
    speed = SpeedTrace()

    def at_reference_speed(fn) -> float:
        speed.sample()
        seconds = time_per_call(fn, calls)
        speed.sample()
        return seconds / ((speed.samples[-2][2] + speed.samples[-1][2]) / 2)

    search, control = modules["search"], modules["control"]
    kernels = {
        "search.objective_state_prep.ms": lambda s: lambda: search.objective_state_prep(s.system, s.result.waveform, s.psi_i, s.psi_f),
        "search.gradient.ms": lambda s: lambda: search.gradient_state_prep(s.system, s.result.waveform, s.psi_i, s.psi_f),
        "control.propagate.ms": lambda s: lambda: control.propagate(s.system, s.result.waveform),
        "control.segment_eigs.ms": lambda s: lambda: control.segment_eigs(s.system, s.result.waveform),
    }
    return {
        metric: 1e3 * statistics.median(at_reference_speed(make(s)) for s in steps) if steps else 0.0
        for metric, make in kernels.items()
    }
