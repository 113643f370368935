"""Command-line interface: model inspection, searches, synthesis, sweeps.

Every stochastic command takes --seed and is deterministic given its
configuration; result files (CSV, report JSON) are byte-stable across
reruns.  Exit codes: 0 success, 2 configuration/validation error, 1
internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cesium import CONTROL_NAMES, CesiumParams, PRESETS, build_restricted_system
from .control import ControlSystem, propagate
from .core import as_state, basis_state, trace_fidelity
from .ec import ECConfig, ec_maps, ec_sweep, synthesize_ec_maps
from .eigensynth import synthesize_unitary
from .gates import gate_from_name, verify_clifford_relations
from .io import (
    RunManifest,
    load_state_json,
    load_subspace_spec,
    load_waveform,
    save_ec_csv,
    save_json,
    save_manifest,
    save_waveform,
    save_wigner_csv,
    validate_report,
)
from .search import SearchConfig, default_search_config, multi_start
from .subspace import ExactMapper, SearchedMapper, synthesize_subspace_map
from .wigner import extract_block, wigner_grid


class CliError(ValueError):
    """Configuration problem that should exit with status 2."""


#: values a run that searches takes for the search flags it is not given
SEARCH_DEFAULTS = {"preset": "cs133-f3-aux4", "goal": 0.99, "max_iterations": 5000, "restarts": 3}
#: the search flags that set a SearchConfig field, each with its field
CONFIG_FLAGS = {"segments": "segment_count", "segment_duration": "segment_duration", "goal": "fidelity_goal",
                "max_iterations": "max_iterations", "restarts": "restarts"}
#: flags that only a search reads (exact builds write no waveforms); --seed
#: is not one, haar EC sweeps read it too
SEARCH_FLAGS = ("preset", "params", "waveform_dir", *CONFIG_FLAGS)


def _load_params(path: str | None) -> CesiumParams:
    if path is None:
        return CesiumParams()
    with open(path, "r", encoding="utf-8") as fh:
        return CesiumParams.from_dict(json.load(fh))


def _search_flag(args, name: str):
    """The flag's value as given, else its search default (None if it has none)."""
    value = getattr(args, name, None)
    return SEARCH_DEFAULTS.get(name) if value is None else value


def _reject_search_flags(args) -> None:
    """Exit 2 on a search flag given to a run that does not search."""
    for name in SEARCH_FLAGS:
        if getattr(args, name, None) is not None:
            raise CliError(f"--{name.replace('_', '-')} applies only to runs that search")


def _resolve_system(args, params: CesiumParams | None = None):
    preset = _search_flag(args, "preset")
    if preset not in PRESETS:
        raise CliError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[preset](params or _load_params(getattr(args, "params", None)))


def _resolve_state(spec: str, sys_model: ControlSystem) -> np.ndarray:
    """A state argument: 'basis:<k>', 'fiducial', or a JSON file path."""
    d = sys_model.dim
    if spec.startswith("basis:"):
        return basis_state(d, int(spec.split(":", 1)[1]))
    if spec == "fiducial":
        return sys_model.fiducial_state()
    return as_state(load_state_json(spec), d)


def _search_config(args, sys_model) -> SearchConfig:
    """Search settings from the flags given, else SEARCH_DEFAULTS, else the system's default sizing."""
    given = {field: _search_flag(args, flag) for flag, field in CONFIG_FLAGS.items()}
    return default_search_config(sys_model, seed=args.seed, **{k: v for k, v in given.items() if v is not None})


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="control-system preset (default cs133-f3-aux4)")
    p.add_argument("--params", help="JSON file overriding the cesium parameters")
    p.add_argument("--segments", type=int, help="segment count (default: 2 d^2 variables)")
    p.add_argument("--segment-duration", type=float, help="segment duration in seconds (default 1e-5)")
    p.add_argument("--goal", type=float, help="fidelity goal (default 0.99)")
    p.add_argument("--max-iterations", type=int, help="default 5000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, help="default 3")


def cmd_model_info(args) -> None:
    params = _load_params(args.params)
    sys_model = _resolve_system(args, params)
    info = {
        "name": sys_model.name,
        "dimension": sys_model.dim,
        "fiducial_index": sys_model.fiducial_index,
        "controls": list(CONTROL_NAMES),
        "amplitude_bounds": [list(b) for b in sys_model.amplitude_bounds],
        "rates_rad_per_s": {
            "rf_rabi_max": params.rf_rabi_max,
            "uw_rabi_max": params.uw_rabi_max,
            "lightshift_max": params.lightshift_max,
            "rf_detuning": params.rf_detuning,
        },
        "reversible_drift": sys_model.reversible_drift,
    }
    print(json.dumps(info, indent=2, sort_keys=True))


def cmd_optimize_state(args):
    sys_model = _resolve_system(args)
    psi_i = _resolve_state(args.initial, sys_model)
    psi_f = _resolve_state(args.target, sys_model)
    cfg = _search_config(args, sys_model)
    result = multi_start(sys_model, psi_i, psi_f, cfg)
    save_waveform(args.out_waveform, result.waveform)
    report = validate_report(
        "search_report",
        {
            "system": sys_model.name,
            "fidelity": result.fidelity,
            "converged": result.converged,
            "iterations": result.iterations,
            "restart_index": result.restart_index,
            "waveform_file": str(args.out_waveform),
            "total_duration_s": result.waveform.total_duration,
            "objective_history": [float(x) for x in result.objective_history],
            "config": dataclasses.asdict(cfg),
        },
    )
    save_json(args.out_report, report)
    print(f"fidelity {result.fidelity:.6f} converged={result.converged} iterations={result.iterations}")
    inputs = [s for s in (args.initial, args.target) if not s.startswith("basis:") and s != "fiducial"]
    return inputs, [args.out_report, args.out_waveform]


def _load_target(args) -> tuple[np.ndarray, str]:
    """The requested gate or matrix at its natural dimension, plus a label."""
    if args.gate and args.matrix_file:
        raise CliError("give either --gate or --matrix-file, not both")
    if args.gate:
        d = 7 if args.d is None else args.d
        return gate_from_name(args.gate, d), f"{args.gate}:d{d}"
    if args.matrix_file:
        if args.d is not None:
            raise CliError("--d goes only with --gate; a --matrix-file sets its own dimension")
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        entries = np.asarray(data["entries"] if isinstance(data, dict) else data, dtype=float)
        if entries.ndim != 3 or entries.shape[2] != 2 or entries.shape[0] != entries.shape[1]:
            raise CliError(f"{args.matrix_file}: entries must be a d x d matrix of [re, im] pairs")
        if entries.shape[0] < 2:
            raise CliError(f"{args.matrix_file}: dimension must be >= 2, got {entries.shape[0]}")
        return entries[..., 0] + 1j * entries[..., 1], Path(args.matrix_file).stem
    raise CliError("one of --gate or --matrix-file is required")


def _pick_mapper(args, exact: bool, dim: int):
    """The exact mapper on ``dim`` levels, or the searched mapper on the preset, plus its config."""
    if exact:
        _reject_search_flags(args)
        return ExactMapper(dim), {}
    sys_model = _resolve_system(args)
    cfg = _search_config(args, sys_model)
    return SearchedMapper(sys_model, cfg), dataclasses.asdict(cfg)


def _save_waveforms(prefix, waveforms, start: int = 0) -> list[str]:
    """Write waveform k to ``<prefix><k>.csv``, k counting from ``start``; return the paths."""
    paths = [f"{prefix}{k}.csv" for k in range(start, start + len(waveforms))]
    if paths:
        Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    for path, wf in zip(paths, waveforms):
        save_waveform(path, wf)
    return paths


def _step_fields(args, rep) -> dict:
    """Write the report's waveforms next to it; the per-step fields both build reports share."""
    prefix = Path(args.waveform_dir or Path(args.out_report).parent) / f"{Path(args.out_report).stem}-step"
    return {
        "step_fidelities": list(rep.step_fidelities),
        "step_converged": list(rep.converged),
        "skipped_steps": list(rep.skipped_steps),
        "searches_performed": rep.searches_performed,
        "total_duration_s": rep.total_duration,
        "waveform_files": _save_waveforms(prefix, rep.waveforms),
    }


def cmd_build_unitary(args):
    target, label = _load_target(args)
    d_block = target.shape[0]
    mapper, cfg = _pick_mapper(args, args.exact_mappers, d_block)
    if d_block > mapper.dim:
        raise CliError(f"gate dimension {d_block} exceeds system dimension {mapper.dim}")
    if d_block < mapper.dim:
        full = np.eye(mapper.dim, dtype=complex)
        full[:d_block, :d_block] = target
        target = full
    rep = synthesize_unitary(target, mapper)
    block_fid = None
    if not args.exact_mappers:
        block_fid = trace_fidelity(target[:d_block, :d_block], rep.assembled[:d_block, :d_block])
    report = validate_report(
        "synthesis_report",
        {
            "target": label,
            "dimension": mapper.dim,
            "trace_fidelity": rep.fidelity,
            "block_trace_fidelity": block_fid,
            **_step_fields(args, rep),
            "exact_mappers": bool(args.exact_mappers),
            "config": cfg,
        },
    )
    save_json(args.out_report, report)
    print(f"trace fidelity {rep.fidelity:.8f} searches={rep.searches_performed}")
    inputs = [args.matrix_file] if args.matrix_file else []
    return inputs, [args.out_report, *report["waveform_files"]]


def cmd_build_subspace_map(args):
    spec = load_subspace_spec(args.spec)
    mapper, cfg = _pick_mapper(args, args.exact, spec.dim)
    rep = synthesize_subspace_map(spec, mapper)
    report = validate_report(
        "subspace_report",
        {
            "dimension": spec.dim,
            "subspace_size": spec.n,
            "subspace_fidelity": rep.fidelity,
            "basis_errors": [
                float(np.linalg.norm(rep.assembled @ a - b)) for a, b in zip(spec.source, spec.target)
            ],
            **_step_fields(args, rep),
            "phase_correction": spec.phase_correction,
            "exact": bool(args.exact),
            "config": cfg,
        },
    )
    save_json(args.out_report, report)
    print(f"subspace fidelity {rep.fidelity:.8f} searches={rep.searches_performed}")
    return [args.spec], [args.out_report, *report["waveform_files"]]


def cmd_ec_sweep(args):
    if args.samples is not None and args.average == "axes":
        raise CliError("--samples applies only to --average haar; axes mode averages the six Bloch-axis states")
    if args.epsilons is None:
        grid = tuple(np.geomspace(args.eps_min, args.eps_max, args.eps_count))
    else:
        try:
            grid = tuple(float(x) for x in args.epsilons.split(","))
        except ValueError:
            raise CliError(f"--epsilons must be comma-separated numbers, got {args.epsilons!r}") from None
    samples = ECConfig.samples if args.samples is None else args.samples
    cfg = ECConfig(epsilon_grid=grid, samples=samples, seed=args.seed, average=args.average)
    stem = Path(args.out).with_suffix("")
    step_fidelities: list[list[float]] = []
    waveform_files: list[str] = []
    if args.maps == "ideal":
        _reject_search_flags(args)
        maps = ec_maps()
    else:
        params = _load_params(args.params)
        maps, reports = synthesize_ec_maps(params, _search_config(args, build_restricted_system(params)))
        step_fidelities = [list(r.step_fidelities) for r in reports]
        for i, rep in enumerate(reports, 1):
            waveform_files += _save_waveforms(f"{stem}-map{i}-step", rep.waveforms, start=1)
    result = ec_sweep(cfg, maps)
    save_ec_csv(args.out, result)
    meta = validate_report(
        "ec_metadata",
        {
            "seed": cfg.seed,
            "samples": cfg.n_states,
            "maps_mode": args.maps,
            "average": cfg.average,
            "epsilon_grid": [float(e) for e in cfg.epsilon_grid],
            "csv_file": str(args.out),
            "map_step_fidelities": step_fidelities,
            "waveform_files": waveform_files,
        },
    )
    meta_path = f"{stem}.meta.json"
    save_json(meta_path, meta)
    print(f"swept {len(grid)} error angles x {cfg.n_states} states ({args.maps} maps)")
    return [], [args.out, meta_path, *waveform_files]


def cmd_wigner(args):
    state = load_state_json(args.state)
    if args.block:
        try:
            start, size = (int(x) for x in args.block.split(":"))
        except ValueError:
            raise CliError("--block must be START:SIZE") from None
        state = extract_block(state, start, size)
    # as_state admits a norm off by up to its tolerance; W scales with the norm squared
    state = as_state(state)
    grid = wigner_grid(state / np.linalg.norm(state), n_theta=args.n_theta, n_phi=args.n_phi)
    save_wigner_csv(args.out, grid)
    print(f"wrote {args.n_theta} x {args.n_phi} grid")
    return [args.state], [args.out]


def cmd_verify_clifford(args):
    report = verify_clifford_relations(args.d, a=args.a)
    doc = {
        "d": report.d,
        "a": report.a,
        "deviations": {k: float(v) for k, v in report.deviations.items()},
        "s_discrepancy": report.s_discrepancy,
    }
    validate_report("clifford_report", doc)
    for name, dev in report.deviations.items():
        marker = "  <-- DISCREPANCY (reported, not patched)" if (
            name == "SXS* = XZ" and report.s_discrepancy
        ) else ""
        print(f"{name:24s} max deviation {dev:.3e}{marker}")
    if args.out:
        save_json(args.out, doc)
        return [], [args.out]


def cmd_propagate(args) -> None:
    """Utility: propagate a stored waveform and report the fidelity to a target."""
    if (args.initial_state is None) != (args.target_state is None):
        raise CliError("give --initial-state and --target-state together, or neither")
    sys_model = _resolve_system(args)
    w = load_waveform(args.waveform)
    u = propagate(sys_model, w)
    print(f"propagator unitary on d={sys_model.dim}, {w.n_segments} segments, "
          f"{w.total_duration:.6g} s total")
    if args.target_state is not None:
        psi_i = _resolve_state(args.initial_state, sys_model)
        psi_f = _resolve_state(args.target_state, sys_model)
        fid = float(abs(np.vdot(psi_f, u @ psi_i)) ** 2)
        print(f"state-map fidelity {fid:.8f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unimap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"unimap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="inspect control-system presets")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_info = model_sub.add_parser("info", help="print a preset summary as JSON")
    p_info.add_argument("preset", nargs="?", default="cs133-f3-aux4")
    p_info.add_argument("--params", help="JSON parameter file")
    p_info.set_defaults(func=cmd_model_info)

    p_opt = sub.add_parser("optimize-state", help="search a waveform for a state map")
    p_opt.add_argument("--initial", required=True, help="state JSON file, basis:<k>, or fiducial")
    p_opt.add_argument("--target", required=True, help="state JSON file, basis:<k>, or fiducial")
    p_opt.add_argument("--out-waveform", required=True)
    p_opt.add_argument("--out-report", required=True)
    _add_search_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize_state)

    p_bu = sub.add_parser("build-unitary", help="synthesize a full unitary map")
    p_bu.add_argument("--gate", help="gate name: X, Z, H, S, or G:<a>")
    p_bu.add_argument("--matrix-file", help="JSON matrix of [re, im] pairs")
    p_bu.add_argument("--d", type=int, help="gate dimension (default 7)")
    p_bu.add_argument("--exact-mappers", action="store_true", help="algebraic mappers, no searches")
    p_bu.add_argument("--out-report", required=True)
    p_bu.add_argument("--waveform-dir")
    _add_search_flags(p_bu)
    p_bu.set_defaults(func=cmd_build_unitary)

    p_bs = sub.add_parser("build-subspace-map", help="synthesize a subspace map")
    p_bs.add_argument("--spec", required=True, help="subspace spec JSON")
    p_bs.add_argument("--exact", action="store_true", help="ideal pi-rotations, no searches")
    p_bs.add_argument("--out-report", required=True)
    p_bs.add_argument("--waveform-dir")
    _add_search_flags(p_bs)
    p_bs.set_defaults(func=cmd_build_subspace_map)

    p_ec = sub.add_parser("ec-sweep", help="error-correction fidelity sweep")
    p_ec.add_argument("--maps", choices=("ideal", "synthesized"), default="ideal")
    p_ec.add_argument("--epsilons", help="comma-separated error half-angles")
    p_ec.add_argument("--eps-min", type=float, default=0.02)
    p_ec.add_argument("--eps-max", type=float, default=0.3)
    p_ec.add_argument("--eps-count", type=int, default=9)
    p_ec.add_argument("--samples", type=int, help="Haar states averaged (haar mode only; default 200)")
    p_ec.add_argument("--seed", type=int, default=0)
    p_ec.add_argument("--average", choices=("haar", "axes"), default="haar")
    p_ec.add_argument("--out", required=True, help="result CSV path")
    p_ec.add_argument("--params", help="cesium parameter JSON (synthesized maps)")
    p_ec.add_argument("--goal", type=float, help="fidelity goal (default 0.99)")
    p_ec.add_argument("--max-iterations", type=int, help="default 5000")
    p_ec.add_argument("--restarts", type=int, help="default 3")
    p_ec.set_defaults(func=cmd_ec_sweep)

    p_w = sub.add_parser("wigner", help="emit a Wigner sphere grid as CSV")
    p_w.add_argument("--state", required=True, help="state JSON file")
    p_w.add_argument("--block", help="START:SIZE slice holding the spin block")
    p_w.add_argument("--n-theta", type=int, default=61)
    p_w.add_argument("--n-phi", type=int, default=120)
    p_w.add_argument("--out", required=True)
    p_w.set_defaults(func=cmd_wigner)

    p_vc = sub.add_parser("verify-clifford", help="check the Clifford-generator relations")
    p_vc.add_argument("--d", type=int, required=True)
    p_vc.add_argument("--a", type=int, default=None, help="multiplier for the G gate")
    p_vc.add_argument("--out", help="optional JSON report path")
    p_vc.set_defaults(func=cmd_verify_clifford)

    p_pr = sub.add_parser("propagate", help="propagate a stored waveform")
    p_pr.add_argument("--waveform", required=True)
    p_pr.add_argument("--initial-state")
    p_pr.add_argument("--target-state")
    p_pr.add_argument("--preset", default="cs133-f3-aux4")
    p_pr.add_argument("--params")
    p_pr.set_defaults(func=cmd_propagate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first ``main`` call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; when its handler returns the (inputs, outputs) it wrote, write their manifest."""
    args = _parser().parse_args(argv)
    # the cached parser holds the handlers it was built with: call the
    # module's current binding, so a handler rebound since (by a test or a
    # tracer) is the one that runs
    handler = globals()[args.func.__name__]
    t0 = time.monotonic()
    try:
        written = handler(args)
        if written is not None:
            inputs, outputs = written
            save_manifest(
                f"{outputs[0]}.manifest.json",
                RunManifest(
                    command=args.command,
                    config={k: v for k, v in vars(args).items() if k != "func" and v is not None},
                    inputs=[str(p) for p in inputs],
                    outputs=[str(p) for p in outputs],
                    seed=getattr(args, "seed", None),
                    version=__version__,
                    duration_s=time.monotonic() - t0,
                ),
            )
        return 0
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
