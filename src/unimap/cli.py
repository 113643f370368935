"""Command-line interface, argv rules only (``io`` owns the files): model inspection, searches, synthesis, sweeps.

Every stochastic command takes --seed and is deterministic given its
configuration; result files (CSV, report JSON) are byte-stable across
reruns.  Exit codes: 0 success; 2 when a command raises ValueError or
OSError (bad input, configuration or file); 1, with a traceback, for
anything else, which is an internal error.  One table,
``OPTIONAL_FLAGS``, declares each optional flag that some runs never
read (type, help, default) and says which runs read it: a flag given to
a run that does not read it exits 2 before anything is written, and one
a run reads but was not given takes the table's default, which reads
``SearchConfig``'s or ``ECConfig``'s where the library owns it.  ``main``
derives each manifest from the flags, ``FILE_FLAGS`` and ``OUTPUT_FLAGS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cesium import CONTROL_NAMES, CesiumParams, PRESETS, build_restricted_system
from .control import ControlSystem, check_waveform
from .core import as_state, basis_state, trace_fidelity
from .ec import ECConfig, ec_maps, ec_sweep, synthesize_ec_maps
from .eigensynth import synthesize_unitary
from .gates import gate_from_name, verify_clifford_relations
from .io import (load_matrix_json, load_state_json, load_subspace_spec, load_waveform, read_json, save_ec_csv,
                 save_json, save_waveform, save_wigner_csv, validate_report, write_report)
from .search import SearchConfig, default_search_config, multi_start, objective_state_prep
from .subspace import ExactMapper, SearchedMapper, synthesize_subspace_map
from .wigner import extract_block, wigner_grid


#: the search flags that set a SearchConfig field, each with its field
CONFIG_FLAGS = {"segments": "segment_count", "segment_duration": "segment_duration", "goal": "fidelity_goal",
                "max_iterations": "max_iterations", "restarts": "restarts"}
#: the flags naming a file a run reads, and those naming a file it writes, in the order its manifest lists them
FILE_FLAGS = ("params", "spec", "matrix_file", "state", "initial", "target")
OUTPUT_FLAGS = ("out_report", "out_waveform", "out")


def _searches(args) -> bool:
    """False for the runs that never search: the exact builds and the ideal EC sweeps."""
    return not (getattr(args, "exact_mappers", False) or getattr(args, "exact", False)
                or getattr(args, "maps", None) == "ideal")


_SEARCH = ("runs that search", _searches)
_GRID = ("the default grid; --epsilons lists every angle", lambda args: args.epsilons is None)
#: every optional flag that some runs never read, as flag -> (the value a run that reads it takes when
#: not given, or None to leave that to the code reading it; the runs an error names; whether a run reads
#: it; its type; its help, which ``_help`` ends with the default)
OPTIONAL_FLAGS = {
    "preset": ("cs133-f3-aux4", *_SEARCH, str, "control-system preset"),
    "params": (None, *_SEARCH, str, "JSON file overriding the cesium parameters"),
    "waveform_dir": (None, *_SEARCH, str, "directory of the step waveforms (default: that of --out-report)"),
    "segments": (None, *_SEARCH, int, "segment count (default: 2 d^2 variables)"),
    "segment_duration": (SearchConfig.segment_duration, *_SEARCH, float, "segment duration in seconds"),
    "goal": (SearchConfig.fidelity_goal, *_SEARCH, float, "fidelity goal"),
    "max_iterations": (SearchConfig.max_iterations, *_SEARCH, int, "iteration cap of each search"),
    "restarts": (SearchConfig.restarts, *_SEARCH, int, "tries until one meets --goal"),
    "seed": (SearchConfig.seed, "runs that search or draw Haar states",
             lambda args: _searches(args) or getattr(args, "average", None) == "haar", int, "random seed"),
    "samples": (ECConfig.samples, "--average haar; axes mode averages the six Bloch-axis states",
                lambda args: args.average == "haar", int, "Haar states averaged with --average haar"),
    "eps_min": (0.02, *_GRID, float, "smallest error half-angle of the default grid"),
    "eps_max": (0.3, *_GRID, float, "largest error half-angle of the default grid"),
    "eps_count": (9, *_GRID, int, "error half-angles in the default grid, spaced geometrically"),
    "d": (7, "--gate builds; a --matrix-file sets its own dimension",
          lambda args: getattr(args, "matrix_file", None) is None, int, "gate dimension"),
}
#: the flags that set up a system or a search, in the order a subcommand declares them
SEARCH_FLAGS = ("preset", "params", "segments", "segment_duration", "goal", "max_iterations", "seed", "restarts")


def _load_params(path: str | None) -> CesiumParams:
    return CesiumParams() if path is None else CesiumParams.from_dict(read_json(path))


def _resolve_system(args, params: CesiumParams | None = None):
    if args.preset not in PRESETS:
        raise ValueError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[args.preset](params or _load_params(args.params))


def _is_state_file(spec: str) -> bool:
    """Whether a state argument, which is 'basis:<k>', 'fiducial' or a JSON file path, names a file."""
    return not spec.startswith("basis:") and spec != "fiducial"


def _resolve_state(spec: str, sys_model: ControlSystem) -> np.ndarray:
    """The state a state argument names, at the system's dimension."""
    if _is_state_file(spec):
        return as_state(load_state_json(spec), sys_model.dim)
    if spec == "fiducial":
        return sys_model.fiducial_state()
    try:
        k = int(spec.removeprefix("basis:"))
    except ValueError:
        raise ValueError(f"state {spec!r} must be basis:<k>, fiducial or a JSON file") from None
    return basis_state(sys_model.dim, k)


def _search_config(args, sys_model) -> SearchConfig:
    """Search settings from the flags, where a flag left None takes the system's default sizing."""
    given = {field: getattr(args, flag, None) for flag, field in CONFIG_FLAGS.items()}
    return default_search_config(sys_model, seed=args.seed, **{k: v for k, v in given.items() if v is not None})


def _help(name: str, required: bool = False) -> str:
    """A flag's help from its OPTIONAL_FLAGS entry, ending "(default X)" when an optional flag has a default X."""
    default, *_, text = OPTIONAL_FLAGS[name]
    return text if default is None or required else f"{text} (default {default})"


def _add_flags(p: argparse.ArgumentParser, names, required: bool = False) -> None:
    """Declare the ``OPTIONAL_FLAGS`` named, the subset of them that the subcommand reads."""
    for name in names:
        p.add_argument(f"--{name.replace('_', '-')}", type=OPTIONAL_FLAGS[name][3], help=_help(name, required),
                       required=required)


def cmd_model_info(args) -> None:
    params = _load_params(args.params)
    sys_model = _resolve_system(args, params)
    info = {
        "name": sys_model.name,
        "dimension": sys_model.dim,
        "fiducial_index": sys_model.fiducial_index,
        "controls": list(CONTROL_NAMES),
        "amplitude_bounds": sys_model.amplitude_bounds.tolist(),
        "rates_rad_per_s": dataclasses.asdict(params),
    }
    print(json.dumps(info, indent=2, sort_keys=True))


def cmd_optimize_state(args) -> None:
    sys_model = _resolve_system(args)
    psi_i = _resolve_state(args.initial, sys_model)
    psi_f = _resolve_state(args.target, sys_model)
    cfg = _search_config(args, sys_model)
    result = multi_start(sys_model, psi_i, psi_f, cfg)
    save_waveform(args.out_waveform, result.waveform)
    write_report(args.out_report, "search_report", {
        "system": sys_model.name,
        "fidelity": result.fidelity,
        "converged": result.converged,
        "iterations": result.iterations,
        "restart_index": result.restart_index,
        "waveform_file": str(args.out_waveform),
        "total_duration_s": result.waveform.total_duration,
        "objective_history": [float(x) for x in result.objective_history],
        "config": dataclasses.asdict(cfg),
    })
    print(f"fidelity {result.fidelity:.6f} converged={result.converged} iterations={result.iterations}")


def _load_target(args) -> tuple[np.ndarray, str]:
    """The requested gate or matrix at its natural dimension, plus a label."""
    if args.gate and args.matrix_file:
        raise ValueError("give either --gate or --matrix-file, not both")
    if args.gate:
        return gate_from_name(args.gate, args.d), f"{args.gate}:d{args.d}"
    if args.matrix_file:
        return load_matrix_json(args.matrix_file), Path(args.matrix_file).stem
    raise ValueError("one of --gate or --matrix-file is required")


def _pick_mapper(args, dim: int):
    """The searched mapper on the preset if this run searches, else the exact one on ``dim`` levels; plus its config."""
    if not _searches(args):
        return ExactMapper(dim), {}
    sys_model = _resolve_system(args)
    cfg = _search_config(args, sys_model)
    return SearchedMapper(sys_model, cfg), dataclasses.asdict(cfg)


def _save_waveforms(prefix, rep, start: int = 0) -> list[str]:
    """Write the k-th searched step's waveform to ``<prefix><k>.csv``, k counting from ``start``; return the paths."""
    waveforms = [step.result.waveform for step in rep.steps if step.result is not None]
    paths = [f"{prefix}{k}.csv" for k in range(start, start + len(waveforms))]
    if paths:
        Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    for path, wf in zip(paths, waveforms):
        save_waveform(path, wf)
    return paths


def _step_prefix(args) -> Path:
    """A build writes its k-th searched step's waveform to ``<prefix><k>.csv``, under --waveform-dir or by the report."""
    return Path(args.waveform_dir or Path(args.out_report).parent) / f"{Path(args.out_report).stem}-step"


def _write_build(args, kind: str, score: str, rep, cfg: dict, fields: dict) -> list[str]:
    """Write a build's step waveforms, then its ``kind`` report: ``fields``, its fidelity as ``score``, the per-step
    fields and ``config``; print the fidelity and return the waveform paths."""
    paths = _save_waveforms(_step_prefix(args), rep)
    write_report(args.out_report, kind, {
        **fields,
        score: rep.fidelity,
        "step_fidelities": list(rep.step_fidelities),
        "step_converged": [step.result is None or step.result.converged for step in rep.steps if not step.skipped],
        "skipped_steps": list(rep.skipped_steps),
        "searches_performed": rep.searches_performed,
        "total_duration_s": float(sum(step.result.waveform.total_duration for step in rep.steps if step.result is not None)),
        "waveform_files": paths,
        "config": cfg,
    })
    print(f"{score.replace('_', ' ')} {rep.fidelity:.8f} searched_steps={rep.searches_performed}")
    return paths


def cmd_build_unitary(args) -> list[str]:
    target, label = _load_target(args)
    d_block = target.shape[0]
    mapper, cfg = _pick_mapper(args, d_block)
    if d_block < mapper.dim:
        full = np.eye(mapper.dim, dtype=complex)
        full[:d_block, :d_block] = target
        target = full
    rep = synthesize_unitary(target, mapper)
    block_fid = None
    if not args.exact_mappers:
        block_fid = trace_fidelity(target[:d_block, :d_block], rep.assembled[:d_block, :d_block])
    return _write_build(args, "synthesis_report", "trace_fidelity", rep, cfg, {
        "target": label, "dimension": mapper.dim, "block_trace_fidelity": block_fid,
        "exact_mappers": bool(args.exact_mappers)})


def cmd_build_subspace_map(args) -> list[str]:
    spec = load_subspace_spec(args.spec)
    mapper, cfg = _pick_mapper(args, spec.dim)
    rep = synthesize_subspace_map(spec, mapper)
    return _write_build(args, "subspace_report", "subspace_fidelity", rep, cfg, {
        "dimension": spec.dim, "subspace_size": spec.n,
        "basis_errors": [float(np.linalg.norm(rep.assembled @ a - b)) for a, b in zip(spec.source, spec.target)],
        "phase_correction": spec.phase_correction, "exact": bool(args.exact)})


def _sweep_stem(args) -> Path:
    """A sweep writes its meta to ``<stem>.meta.json`` and map i's step k to ``<stem>-map<i>-step<k>.csv``."""
    return Path(args.out).with_suffix("")


def cmd_ec_sweep(args) -> list[str]:
    if args.epsilons is None:
        ends = (args.eps_min, args.eps_max)
        if not (np.isfinite(ends).all() and (min(ends) > 0 or max(ends) < 0)):
            raise ValueError(f"--eps-min and --eps-max must be finite, nonzero and of one sign, got {ends}")
        if args.eps_count < 1:
            raise ValueError(f"--eps-count must be >= 1, got {args.eps_count}")
        grid = tuple(np.geomspace(*ends, args.eps_count))
    else:
        try:
            grid = tuple(float(x) for x in args.epsilons.split(","))
        except ValueError:
            raise ValueError(f"--epsilons must be comma-separated numbers, got {args.epsilons!r}") from None
    # a flag this sweep does not read is None here and keeps ECConfig's default
    read = {k: getattr(args, k) for k in ("samples", "seed") if getattr(args, k) is not None}
    cfg = ECConfig(epsilon_grid=grid, average=args.average, **read)
    stem = _sweep_stem(args)
    if args.maps == "ideal":
        maps, reports = ec_maps(), ()
    else:
        params = _load_params(args.params)
        maps, reports = synthesize_ec_maps(params, _search_config(args, build_restricted_system(params)))
    waveform_files = [path for i, rep in enumerate(reports, 1)
                      for path in _save_waveforms(f"{stem}-map{i}-step", rep, start=1)]
    result = ec_sweep(cfg, maps)
    save_ec_csv(args.out, result)
    meta_path = f"{stem}.meta.json"
    write_report(meta_path, "ec_metadata", {
        "seed": cfg.seed,
        "samples": cfg.n_states,
        "maps_mode": args.maps,
        "average": cfg.average,
        "epsilon_grid": [float(e) for e in cfg.epsilon_grid],
        "csv_file": str(args.out),
        "map_step_fidelities": [list(rep.step_fidelities) for rep in reports],
        "waveform_files": waveform_files,
    })
    print(f"swept {len(grid)} error angles x {cfg.n_states} states ({args.maps} maps)")
    return [meta_path, *waveform_files]


def cmd_wigner(args) -> None:
    state = load_state_json(args.state)
    if args.block:
        try:
            start, size = (int(x) for x in args.block.split(":"))
        except ValueError:
            raise ValueError("--block must be START:SIZE") from None
        state = extract_block(state, start, size)
    # as_state admits a norm off by up to its tolerance; W scales with the norm squared
    state = as_state(state)
    grid = wigner_grid(state / np.linalg.norm(state), n_theta=args.n_theta, n_phi=args.n_phi)
    save_wigner_csv(args.out, grid)
    print(f"wrote {args.n_theta} x {args.n_phi} grid")


def cmd_verify_clifford(args) -> None:
    report = verify_clifford_relations(args.d, a=args.a)
    doc = validate_report("clifford_report", report._asdict())
    for name, dev in report.deviations.items():
        marker = "  <-- DISCREPANCY (reported, not patched)" if (
            name == "SXS* = XZ" and report.s_discrepancy
        ) else ""
        print(f"{name:24s} max deviation {dev:.3e}{marker}")
    if args.out:
        save_json(args.out, doc)


def cmd_propagate(args) -> None:
    """Utility: check a stored waveform on a system and, given two states, print its state-map fidelity as ``optimize-state`` scores it.

    Without the states nothing is diagonalized; the first line keeps its earlier
    wording and reports the checked waveform's dimension, segments and duration.
    """
    if (args.initial_state is None) != (args.target_state is None):
        raise ValueError("give --initial-state and --target-state together, or neither")
    sys_model = _resolve_system(args)
    w = load_waveform(args.waveform)
    check_waveform(sys_model, w)
    print(f"propagator unitary on d={sys_model.dim}, {w.n_segments} segments, "
          f"{w.total_duration:.6g} s total")
    if args.target_state is not None:
        psi_i = _resolve_state(args.initial_state, sys_model)
        psi_f = _resolve_state(args.target_state, sys_model)
        print(f"state-map fidelity {objective_state_prep(sys_model, w, psi_i, psi_f):.8f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unimap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"unimap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="inspect control-system presets")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_info = model_sub.add_parser("info", help="print a preset summary as JSON")
    p_info.add_argument("preset", nargs="?", help=_help("preset"))
    _add_flags(p_info, ("params",))
    p_info.set_defaults(func=cmd_model_info)

    p_opt = sub.add_parser("optimize-state", help="search a waveform for a state map")
    p_opt.add_argument("--initial", required=True, help="state JSON file, basis:<k>, or fiducial")
    p_opt.add_argument("--target", required=True, help="state JSON file, basis:<k>, or fiducial")
    p_opt.add_argument("--out-waveform", required=True)
    p_opt.add_argument("--out-report", required=True)
    _add_flags(p_opt, SEARCH_FLAGS)
    p_opt.set_defaults(func=cmd_optimize_state)

    p_bu = sub.add_parser("build-unitary", help="synthesize a full unitary map")
    p_bu.add_argument("--gate", help="gate name: X, Z, H, S, or G:<a>")
    p_bu.add_argument("--matrix-file", help="JSON matrix of [re, im] pairs")
    p_bu.add_argument("--exact-mappers", action="store_true", help="algebraic mappers, no searches")
    p_bu.add_argument("--out-report", required=True)
    _add_flags(p_bu, ("d", "waveform_dir", *SEARCH_FLAGS))
    p_bu.set_defaults(func=cmd_build_unitary)

    p_bs = sub.add_parser("build-subspace-map", help="synthesize a subspace map")
    p_bs.add_argument("--spec", required=True, help="subspace spec JSON")
    p_bs.add_argument("--exact", action="store_true", help="exact phase steps, no searches")
    p_bs.add_argument("--out-report", required=True)
    _add_flags(p_bs, ("waveform_dir", *SEARCH_FLAGS))
    p_bs.set_defaults(func=cmd_build_subspace_map)

    p_ec = sub.add_parser("ec-sweep", help="error-correction fidelity sweep")
    p_ec.add_argument("--maps", choices=("ideal", "synthesized"), default="ideal")
    p_ec.add_argument("--epsilons", help="comma-separated error half-angles")
    p_ec.add_argument("--average", choices=("haar", "axes"), default=ECConfig.average)
    p_ec.add_argument("--out", required=True, help="result CSV path")
    _add_flags(p_ec, ("eps_min", "eps_max", "eps_count", "samples", "params", "goal", "max_iterations", "seed",
                      "restarts"))
    p_ec.set_defaults(func=cmd_ec_sweep)

    p_w = sub.add_parser("wigner", help="emit a Wigner sphere grid as CSV")
    p_w.add_argument("--state", required=True, help="state JSON file")
    p_w.add_argument("--block", help="START:SIZE slice holding the spin block")
    p_w.add_argument("--n-theta", type=int, default=61)
    p_w.add_argument("--n-phi", type=int, default=120)
    p_w.add_argument("--out", required=True)
    p_w.set_defaults(func=cmd_wigner)

    p_vc = sub.add_parser("verify-clifford", help="check the Clifford-generator relations")
    _add_flags(p_vc, ("d",), required=True)
    p_vc.add_argument("--a", type=int, default=None, help="multiplier for the G gate")
    p_vc.add_argument("--out", help="optional JSON report path")
    p_vc.set_defaults(func=cmd_verify_clifford)

    p_pr = sub.add_parser("propagate", help="propagate a stored waveform")
    p_pr.add_argument("--waveform", required=True)
    p_pr.add_argument("--initial-state")
    p_pr.add_argument("--target-state")
    _add_flags(p_pr, ("preset", "params"))
    p_pr.set_defaults(func=cmd_propagate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first ``main`` call and reused by later ones."""
    return build_parser()


def _flag_files(args, flags) -> dict[str, str]:
    """'--flag' -> path for each of ``flags`` given, in order; --initial and --target only when they name a file."""
    return {f"--{flag.replace('_', '-')}": path for flag in flags if (path := getattr(args, flag, None)) is not None
            and (flag not in ("initial", "target") or _is_state_file(path))}


def _derived_outputs(args) -> dict[str, str]:
    """What each file a run writes under a name no flag gives is -> a regex over its resolved path."""
    if args.command == "ec-sweep":
        stem = re.escape(str(_sweep_stem(args).resolve()))
        return {"the meta of --out": rf"{stem}\.meta\.json",
                **({"a step waveform of --out": rf"{stem}-map\d+-step\d+\.csv"} if _searches(args) else {})}
    if args.command.startswith("build-") and _searches(args):
        return {"a step waveform of --out-report": rf"{re.escape(str(_step_prefix(args).resolve()))}\d+\.csv"}
    return {}


def _given_outputs(args, inputs: dict[str, str]) -> list[str]:
    """The output flags given, in manifest order; one that names an input, another output or the manifest exits 2,
    as does an input that a file the run derives from them would overwrite."""
    derived_outputs = _derived_outputs(args)
    for label, path in inputs.items():
        for derived, pattern in derived_outputs.items():
            if re.fullmatch(pattern, str(Path(path).resolve())):
                raise ValueError(f"{label} and {derived} name one file: {path}")
    given = _flag_files(args, OUTPUT_FLAGS)
    if not given:
        return []
    first, named = next(iter(given)), {Path(path).resolve(): label for label, path in inputs.items()}
    for label, path in [*given.items(), (f"the manifest of {first}", f"{given[first]}.manifest.json")]:
        other = named.setdefault(Path(path).resolve(), label)
        if other != label:
            raise ValueError(f"{other} and {label} name one file: {path}")
    return list(given.values())


def main(argv=None) -> int:
    """Run one command; derive its manifest from the flags: ``inputs`` the FILE_FLAGS given (--initial and
    --target when they name a file), ``outputs`` the OUTPUT_FLAGS given, then the files the handler returns."""
    args = _parser().parse_args(argv)
    # the cached parser holds the handlers it was built with: call the
    # module's current binding, so a handler rebound since (by a test or a
    # tracer) is the one that runs
    handler = globals()[args.func.__name__]
    t0 = time.monotonic()
    # the flags as given, before the table fills in the defaults this run reads
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    try:
        for name, (default, scope, reads, *_) in OPTIONAL_FLAGS.items():
            if name in vars(args) and reads(args):
                if getattr(args, name) is None:
                    setattr(args, name, default)
            elif getattr(args, name, None) is not None:
                raise ValueError(f"--{name.replace('_', '-')} applies only to {scope}")
        inputs = _flag_files(args, FILE_FLAGS)
        outputs = [*_given_outputs(args, inputs), *(handler(args) or [])]
        if outputs:
            write_report(f"{outputs[0]}.manifest.json", "run_manifest", {
                "command": args.command,
                "config": config,
                "inputs": list(inputs.values()),
                "outputs": outputs,
                "seed": getattr(args, "seed", None),
                "version": __version__,
                "duration_s": time.monotonic() - t0,
            })
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
