#!/usr/bin/env python3
"""Benchmark of the unimap CLI, driven in-process through ``unimap.cli.main``.

    python3 bench/run.py --workload unitary_d7 --seed 1 --seconds 10 --trace 0 [--out set.jsonl]

One process, one caller, closed loop: each command starts when the previous
one returns.  A pass runs every command of the workload once; passes repeat
until ``--seconds`` have elapsed, and a run makes at least two passes.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics.  End-to-end times are seconds at a reference machine
speed (see speed.py), with the raw wall-clock value printed next to each.
Every metric is printed by name with its unit, and the last line of standard
output is the JSON summary.  ``--out`` appends the full
result (provenance, raw samples, check failures) as one JSON line; compare
two such files with ``python3 bench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.resources
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
#: every run makes at least this many passes, so each run checks that a rerun
#: with the same seed writes byte-identical result files
MIN_PASSES = 2


@dataclass
class CommandRecord:
    cmd: object
    exit_code: int
    start: float
    end: float
    steps: list
    ec_maps: list
    stderr: str


@dataclass
class Pass:
    start: float
    end: float
    records: list[CommandRecord]
    digests: dict[str, str]


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result as one JSON line to this file")
    return p.parse_args(argv)


def set_up() -> tuple[float, float]:
    """Import the package, build both cesium systems and load every schema."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "unimap" or m.startswith("unimap.")]:
        del sys.modules[name]
    importlib.import_module("unimap.cli")
    cesium, uio = sys.modules["unimap.cesium"], sys.modules["unimap.io"]
    for build in cesium.PRESETS.values():
        build()
    for schema in importlib.resources.files("unimap").joinpath("schemas").iterdir():
        uio.load_schema(schema.name.removesuffix(".schema.json"))
    return t0, time.perf_counter()


def run_command(cli, argv) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def output_digests() -> dict[str, str]:
    """sha256 of every result file in the working directory, manifests excluded."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").iterdir())
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def run_pass(commands, modules, probe, tracer=None) -> Pass:
    """Every command once; the speed trace samples before and after each."""
    modules["wigner"].spherical_tensor_operators.cache_clear()
    records = []
    probe.speed.sample()
    for cmd in commands:
        n_steps, n_maps = len(probe.steps), len(probe.ec_maps)
        if tracer is not None:
            tracer.run_id += 1
        err = StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = run_command(modules["cli"], cmd.argv)
        t1 = time.perf_counter()
        probe.speed.sample()
        records.append(CommandRecord(cmd, code, t0, t1, probe.steps[n_steps:], probe.ec_maps[n_maps:], err.getvalue()))
    return Pass(records[0].start, records[-1].end, records, output_digests())


def evaluate(passes: list[Pass], modules) -> dict:
    """Checks, fidelities and failure counts over all passes of a run.

    The files on disk are the last pass's; the byte-identity check ties
    them to every earlier pass.
    """
    from checks import check_command

    failures, fidelities = [], []
    attempted = failed = missed = 0
    first = passes[0].digests
    for k, p in enumerate(passes):
        changed = {name.split(".")[0].split("-")[0] for name in first.keys() | p.digests.keys()
                   if first.get(name) != p.digests.get(name)}
        for rec in p.records:
            out = check_command(rec.cmd, rec.exit_code, modules, rec.steps, rec.ec_maps)
            if rec.cmd.tag in changed:
                out.failures.append("result files differ from pass 1 with the same seed")
            if rec.exit_code != 0 and rec.stderr:
                out.failures.append(rec.stderr.strip().splitlines()[-1])
            attempted += 1 + len(rec.steps)
            failed += bool(out.failures) + out.missed_steps
            missed += out.missed_steps
            failures += [f"pass {k + 1} {rec.cmd.tag}: {msg}" for msg in out.failures]
            if out.fidelity is not None:
                fidelities.append(out.fidelity)
    return {"failures": failures, "missed_steps": missed, "attempted": attempted, "failed": failed,
            "fidelities": fidelities}


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_samples(passes: list[Pass], setups, speed) -> dict[str, list[tuple[float, float]]]:
    """(raw, reference-speed) seconds of every set-up, pass and step.

    In a search-free workload a step is one command.
    """
    steps = [(s.start, s.end) for p in passes for r in p.records for s in r.steps]
    return {
        "setup_s": [speed.measure(a, b) for a, b in setups],
        "wall_s": [speed.measure(p.start, p.end) for p in passes],
        "step_s": [speed.measure(a, b) for a, b in steps or [(r.start, r.end) for p in passes for r in p.records]],
    }


def end_to_end(samples: dict, ev: dict, column: int) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count), from the raw (0) or reference-speed (1) times."""
    setups, walls, steps = ([t[column] for t in samples[k]] for k in ("setup_s", "wall_s", "step_s"))
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "step_s.p50": (statistics.median(steps), len(steps)),
        "step_s.p90": (quantile(steps, 90), len(steps)),
        "fidelity_min": (min(ev["fidelities"]), len(ev["fidelities"])),
        "success_rate": (1 - ev["failed"] / ev["attempted"], ev["attempted"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(tracer, untraced: Pass, traced: Pass, kernel_ms: dict, cache, span_cost: float) -> dict[str, tuple[float, int]]:
    agg = tracer.aggregate()
    counters = tracer.counters

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def ratio(a, b):
        return a / b if b else 0.0

    n_steps = sum(len(r.steps) for r in traced.records)
    untraced_wall, traced_wall = untraced.end - untraced.start, traced.end - traced.start
    starts = get("search.multi_start", "calls")
    restarts = get("search.search_state_map", "calls")
    iterations = counters["search.iterations"]
    objectives = get("search.objective_state_prep", "calls")
    trials = get("ec.run_ec_trial", "calls")
    sweep_s = get("ec.ec_sweep", "s")
    values = {
        "search.multi_start.calls": starts,
        "search.search_state_map.calls": restarts,
        "search.restart_win_ratio": ratio(starts, restarts),
        "search.iterations": iterations,
        "search.converged_ratio": ratio(counters["search.converged"], restarts),
        "search.objective_state_prep.calls": objectives,
        "search.objective_per_iteration": ratio(objectives, iterations),
        "search.search_state_map.self_s": get("search.search_state_map", "self_s"),
        "control.propagate.calls": get("control.propagate", "calls"),
        "eigensynth.synthesize_unitary.self_s": get("eigensynth.synthesize_unitary", "self_s"),
        "eigensynth.plan_unitary.s": get("eigensynth.plan_unitary", "s"),
        "eigensynth.skipped_ratio": ratio(counters["eigensynth.skipped_steps"], counters["eigensynth.planned_steps"]),
        "eigensynth.synthesize_unitary_exact.s": get("eigensynth.synthesize_unitary_exact", "s"),
        "subspace.synthesize_subspace_map.self_s": get("subspace.synthesize_subspace_map", "self_s"),
        "subspace.plan_subspace_map.s": get("subspace.plan_subspace_map", "s"),
        "subspace.skipped_ratio": ratio(counters["subspace.skipped_steps"], counters["subspace.planned_steps"]),
        "cesium.build_restricted_system.s": get("cesium.build_restricted_system", "s"),
        "ec.synthesize_ec_maps.self_s": get("ec.synthesize_ec_maps", "self_s"),
        "ec.ec_sweep.s": sweep_s,
        "ec.run_ec_trial.calls": trials,
        "ec.trials_per_s": ratio(trials, sweep_s),
        "core.eig_unitary.calls": get("core.eig_unitary", "calls"),
        "core.eig_unitary.s": get("core.eig_unitary", "s"),
        "wigner.wigner_grid.s": get("wigner.wigner_grid", "s"),
        "wigner.tensor_cache.hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
        "gates.verify_clifford_relations.s": get("gates.verify_clifford_relations", "s"),
        "io.write_s": tracer.outermost_seconds("io.save_"),
        "io.bytes_written": counters["io.bytes_written"],
        "io.validate_report.calls": get("io.validate_report", "calls"),
        "io.validate_report.s": get("io.validate_report", "s"),
        "cli.main.calls": get("cli.main", "calls"),
        # self time of the whole cli layer: command time outside every other layer's spans
        "cli.main.self_s": sum(a["self_s"] for name, a in agg.items() if name.startswith("cli.")),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.untraced_s": traced_wall - tracer.top_level_seconds(),
        "trace.spans": tracer.span_count(),
        "trace.span_cost_s": tracer.span_count() * span_cost,
    }
    out = {name: (value, 1) for name, value in values.items()}
    for name, value in kernel_ms.items():
        out[name] = (value, n_steps)
    return out


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "unimap").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "thread_env": {var: os.environ.get(var) for var in (*THREAD_VARS, "UNIMAP_THREADS")},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    if not (SRC / "unimap" / "__init__.py").is_file():
        print(f"error: no unimap package under {SRC}", file=sys.stderr)
        return 2
    # thread settings must be in place before numpy loads; multi_start runs serially
    os.environ.pop("UNIMAP_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))

    from speed import SpeedTrace
    from tracing import Probe, Rebinder, Tracer, kernel_probe, package_modules, span_cost_s
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]

    work = OUT_DIR / f"work-{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        speed = SpeedTrace(enabled=not args.trace)
        speed.sample()
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(set_up())
            speed.sample()
        import unimap

        if Path(unimap.__file__).resolve().parent != SRC / "unimap":
            print(f"error: imported unimap from {unimap.__file__}, not {SRC}", file=sys.stderr)
            return 2
        modules = package_modules(sys.modules)
        commands = WORKLOADS[args.workload](args.seed, Path("inputs"))
        probe = Probe(speed)
        probe_binding = Rebinder(modules)
        probe.install(probe_binding)

        if args.trace:
            passes = [run_pass(commands, modules, probe)]
            tracer = Tracer()
            trace_binding = Rebinder(modules)
            tracer.install(trace_binding)
            try:
                passes.append(run_pass(commands, modules, probe, tracer))
                cache = modules["wigner"].spherical_tensor_operators.cache_info()
            finally:
                trace_binding.restore()
            probe_binding.restore()
            steps = [s for r in passes[1].records for s in r.steps]
            ev = evaluate(passes, modules)
            samples = timed_samples(passes, setups, speed)
            raw = {}
            metrics = per_layer(tracer, passes[0], passes[1], kernel_probe(modules, steps), cache, span_cost_s())
            spans_path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.csv"
            tracer.write_csv(spans_path)
        else:
            deadline = time.perf_counter() + args.seconds
            passes = []
            while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
                passes.append(run_pass(commands, modules, probe))
            probe_binding.restore()
            ev = evaluate(passes, modules)
            samples = timed_samples(passes, setups, speed)
            metrics = end_to_end(samples, ev, column=1)
            raw = end_to_end(samples, ev, column=0)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    prov = provenance(args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{ev['attempted']} attempted, {ev['failed']} failed")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        print(f"spans written to {spans_path}")
    for msg in ev["failures"]:
        print(f"FAILED {msg}")
    if ev["missed_steps"]:
        print(f"{ev['missed_steps']} searched steps missed their fidelity goal")
    for name in wanted:
        value, n = metrics[name]
        at_raw = f"  (raw {raw[name][0]:.6g})" if name in raw and raw[name][0] != value else ""
        print(f"{name:42s} {value:>16.6g} {units[name]:8s} n={n}{at_raw}")
    correct = not ev["failures"]
    if args.out:
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "provenance": prov,
            "import_s": samples["setup_s"][0][0],
            "correct": correct,
            "attempted": ev["attempted"],
            "failed": ev["failed"],
            "failures": ev["failures"],
            "metrics": {name: {"value": v, "unit": units.get(name, ""), "samples": n} for name, (v, n) in metrics.items()},
            "raw_metrics": {name: v for name, (v, _) in raw.items()},
            "slowdown_samples": [round(s, 4) for _, _, s in speed.samples],
            "samples": {name: [t[1] for t in values] for name, values in samples.items()},
            "raw_samples": {name: [t[0] for t in values] for name, values in samples.items()},
            "outputs_sha256": hashlib.sha256(json.dumps(passes[0].digests, sort_keys=True).encode()).hexdigest(),
        }
        with open(Path(cwd) / args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": ev["attempted"],
        "failed": ev["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
