"""Command-line interface: model inspection, searches, synthesis, sweeps.

Every stochastic command takes --seed and is deterministic given its
configuration; result files (CSV, report JSON) are byte-stable across
reruns.  Exit codes: 0 success, 2 configuration/validation error, 1
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cesium import CONTROL_NAMES, CesiumParams, PRESETS, build_restricted_system
from .control import ControlSystem, propagate
from .core import as_state, basis_state
from .ec import ECConfig, ec_maps, ec_sweep, synthesize_ec_maps
from .eigensynth import synthesize_unitary, synthesize_unitary_exact
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
from .subspace import plan_subspace_map, assemble_subspace_map, subspace_fidelity, synthesize_subspace_map
from .wigner import extract_block, wigner_grid


class CliError(ValueError):
    """Configuration problem that should exit with status 2."""


def _load_params(path: str | None) -> CesiumParams:
    if path is None:
        return CesiumParams()
    with open(path, "r", encoding="utf-8") as fh:
        return CesiumParams.from_dict(json.load(fh))


def _resolve_system(args):
    preset = getattr(args, "preset", "cs133-f3-aux4")
    if preset not in PRESETS:
        raise CliError(f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[preset](_load_params(getattr(args, "params", None)))


def _resolve_state(spec: str, sys_model: ControlSystem) -> np.ndarray:
    """A state argument: 'basis:<k>', 'fiducial', or a JSON file path."""
    d = sys_model.dim
    if spec.startswith("basis:"):
        return basis_state(d, int(spec.split(":", 1)[1]))
    if spec == "fiducial":
        return sys_model.fiducial_state()
    return as_state(load_state_json(spec), d)


def _search_config(args, sys_model) -> SearchConfig:
    overrides = {}
    if args.segments is not None:
        overrides["segment_count"] = args.segments
    if args.segment_duration is not None:
        overrides["segment_duration"] = args.segment_duration
    return default_search_config(
        sys_model,
        fidelity_goal=args.goal,
        max_iterations=args.max_iterations,
        seed=args.seed,
        restarts=args.restarts,
        **overrides,
    )


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default="cs133-f3-aux4", help="control-system preset")
    p.add_argument("--params", help="JSON file overriding the cesium parameters")
    p.add_argument("--segments", type=int, default=None, help="segment count (default: 2 d^2 variables)")
    p.add_argument("--segment-duration", type=float, default=None, help="segment duration in seconds")
    p.add_argument("--goal", type=float, default=0.99, help="fidelity goal")
    p.add_argument("--max-iterations", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=3)


def _manifest(args, command: str, inputs, outputs, seed, t0: float) -> None:
    primary = outputs[0]
    save_manifest(
        str(primary) + ".manifest.json",
        RunManifest(
            command=command,
            config={k: v for k, v in vars(args).items() if k != "func" and v is not None},
            inputs=[str(p) for p in inputs],
            outputs=[str(p) for p in outputs],
            seed=seed,
            version=__version__,
            duration_s=time.monotonic() - t0,
        ),
    )


def cmd_model_info(args) -> int:
    sys_model = _resolve_system(args)
    params = _load_params(args.params)
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
    return 0


def cmd_optimize_state(args) -> int:
    t0 = time.monotonic()
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
            "config": _cfg_dict(cfg),
        },
    )
    save_json(args.out_report, report)
    _manifest(args, "optimize-state", _state_inputs(args), [args.out_report, args.out_waveform], args.seed, t0)
    print(f"fidelity {result.fidelity:.6f} converged={result.converged} iterations={result.iterations}")
    return 0


def _state_inputs(args):
    return [s for s in (args.initial, args.target) if not s.startswith("basis:") and s != "fiducial"]


def _cfg_dict(cfg: SearchConfig) -> dict:
    return {
        "segment_count": cfg.segment_count,
        "segment_duration": cfg.segment_duration,
        "fidelity_goal": cfg.fidelity_goal,
        "max_iterations": cfg.max_iterations,
        "seed": cfg.seed,
        "restarts": cfg.restarts,
    }


def _load_target(args) -> tuple[np.ndarray, str]:
    """The requested gate or matrix at its natural dimension, plus a label."""
    if args.gate and args.matrix_file:
        raise CliError("give either --gate or --matrix-file, not both")
    if args.gate:
        d = args.d or 7
        return gate_from_name(args.gate, d), f"{args.gate}:d{d}"
    if args.matrix_file:
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        entries = np.asarray(data["entries"] if isinstance(data, dict) else data, dtype=float)
        if entries.ndim != 3 or entries.shape[2] != 2 or entries.shape[0] != entries.shape[1]:
            raise CliError(f"{args.matrix_file}: entries must be a d x d matrix of [re, im] pairs")
        return entries[..., 0] + 1j * entries[..., 1], Path(args.matrix_file).stem
    raise CliError("one of --gate or --matrix-file is required")


def cmd_build_unitary(args) -> int:
    t0 = time.monotonic()
    target, label = _load_target(args)
    d_block = target.shape[0]
    if args.exact_mappers:
        report_obj = synthesize_unitary_exact(target, fiducial_index=0)
        waveform_files: list[str] = []
        block_fid = None
        dim = d_block
    else:
        sys_model = _resolve_system(args)
        if d_block > sys_model.dim:
            raise CliError(f"gate dimension {d_block} exceeds system dimension {sys_model.dim}")
        if d_block < sys_model.dim:
            full = np.eye(sys_model.dim, dtype=complex)
            full[:d_block, :d_block] = target
            target = full
        cfg = _search_config(args, sys_model)
        report_obj = synthesize_unitary(sys_model, target, cfg)
        wave_dir = Path(args.waveform_dir or Path(args.out_report).parent)
        wave_dir.mkdir(parents=True, exist_ok=True)
        waveform_files = []
        for i, wf in enumerate(report_obj.waveforms):
            path = wave_dir / f"{Path(args.out_report).stem}-step{i}.csv"
            save_waveform(str(path), wf)
            waveform_files.append(str(path))
        block = report_obj.assembled[:d_block, :d_block]
        block_fid = min(float(abs(np.trace(target[:d_block, :d_block].conj().T @ block)) / d_block), 1.0)
        dim = sys_model.dim
    report = validate_report(
        "synthesis_report",
        {
            "target": label,
            "dimension": dim,
            "trace_fidelity": report_obj.fidelity,
            "block_trace_fidelity": block_fid,
            "step_fidelities": list(report_obj.step_fidelities),
            "step_converged": list(report_obj.converged),
            "skipped_steps": list(report_obj.skipped_steps),
            "searches_performed": report_obj.searches_performed,
            "total_duration_s": report_obj.total_duration,
            "waveform_files": waveform_files,
            "exact_mappers": bool(args.exact_mappers),
            "config": {} if args.exact_mappers else _cfg_dict(cfg),
        },
    )
    save_json(args.out_report, report)
    inputs = [args.matrix_file] if args.matrix_file else []
    _manifest(args, "build-unitary", inputs, [args.out_report, *waveform_files], args.seed, t0)
    print(f"trace fidelity {report_obj.fidelity:.8f} searches={report_obj.searches_performed}")
    return 0


def cmd_build_subspace_map(args) -> int:
    t0 = time.monotonic()
    spec = load_subspace_spec(args.spec)
    if args.exact:
        steps = plan_subspace_map(spec)
        t = assemble_subspace_map(steps, spec)
        basis_errors = [float(np.linalg.norm(t @ a - b)) for a, b in zip(spec.source, spec.target)]
        report = {
            "dimension": spec.dim,
            "subspace_size": spec.n,
            "subspace_fidelity": subspace_fidelity(t, spec),
            "basis_errors": basis_errors,
            "step_fidelities": [],
            "step_converged": [],
            "skipped_steps": [k for k, s in enumerate(steps) if s.skipped],
            "searches_performed": 0,
            "total_duration_s": 0.0,
            "waveform_files": [],
            "phase_correction": spec.phase_correction,
            "exact": True,
            "config": {},
        }
    else:
        sys_model = _resolve_system(args)
        cfg = _search_config(args, sys_model)
        rep = synthesize_subspace_map(sys_model, spec, cfg)
        wave_dir = Path(args.waveform_dir or Path(args.out_report).parent)
        wave_dir.mkdir(parents=True, exist_ok=True)
        waveform_files = []
        for i, wf in enumerate(rep.waveforms):
            path = wave_dir / f"{Path(args.out_report).stem}-step{i}.csv"
            save_waveform(str(path), wf)
            waveform_files.append(str(path))
        report = {
            "dimension": spec.dim,
            "subspace_size": spec.n,
            "subspace_fidelity": rep.subspace_fidelity,
            "basis_errors": [
                float(np.linalg.norm(rep.assembled @ a - b))
                for a, b in zip(spec.source, spec.target)
            ],
            "step_fidelities": list(rep.step_fidelities),
            "step_converged": list(rep.converged),
            "skipped_steps": list(rep.skipped_steps),
            "searches_performed": rep.searches_performed,
            "total_duration_s": rep.total_duration,
            "waveform_files": waveform_files,
            "phase_correction": spec.phase_correction,
            "exact": False,
            "config": _cfg_dict(cfg),
        }
    save_json(args.out_report, validate_report("subspace_report", report))
    outputs = [args.out_report, *report["waveform_files"]]
    _manifest(args, "build-subspace-map", [args.spec], outputs, args.seed, t0)
    print(f"subspace fidelity {report['subspace_fidelity']:.8f} searches={report['searches_performed']}")
    return 0


def cmd_ec_sweep(args) -> int:
    t0 = time.monotonic()
    if args.epsilons:
        grid = tuple(float(x) for x in args.epsilons.split(","))
    else:
        grid = tuple(np.geomspace(args.eps_min, args.eps_max, args.eps_count))
    cfg = ECConfig(
        epsilon_grid=grid,
        samples=args.samples,
        seed=args.seed,
        maps_mode=args.maps,
        average=args.average,
    )
    step_fidelities: list[list[float]] = []
    waveform_files: list[str] = []
    if args.maps == "ideal":
        maps = ec_maps(ideal=True)
    else:
        params = _load_params(args.params)
        sys_model = build_restricted_system(params)
        search_cfg = default_search_config(
            sys_model,
            fidelity_goal=args.goal,
            max_iterations=args.max_iterations,
            seed=args.seed,
            restarts=args.restarts,
        )
        maps, reports = synthesize_ec_maps(params, search_cfg)
        step_fidelities = [list(r.step_fidelities) for r in reports]
        stem = Path(args.out).with_suffix("")
        for i, rep in enumerate(reports):
            for j, wf in enumerate(rep.waveforms):
                path = f"{stem}-map{i + 1}-step{j + 1}.csv"
                save_waveform(path, wf)
                waveform_files.append(path)
    result = ec_sweep(cfg, maps)
    save_ec_csv(args.out, result)
    meta = validate_report(
        "ec_metadata",
        {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "maps_mode": cfg.maps_mode,
            "average": cfg.average,
            "epsilon_grid": [float(e) for e in cfg.epsilon_grid],
            "csv_file": str(args.out),
            "map_step_fidelities": step_fidelities,
            "waveform_files": waveform_files,
        },
    )
    meta_path = str(Path(args.out).with_suffix("")) + ".meta.json"
    save_json(meta_path, meta)
    _manifest(args, "ec-sweep", [], [args.out, meta_path, *waveform_files], args.seed, t0)
    print(f"swept {len(grid)} error angles x {cfg.samples} samples ({cfg.maps_mode} maps)")
    return 0


def cmd_wigner(args) -> int:
    t0 = time.monotonic()
    state = load_state_json(args.state)
    if args.block:
        try:
            start, size = (int(x) for x in args.block.split(":"))
        except ValueError:
            raise CliError("--block must be START:SIZE") from None
        state = extract_block(state, start, size)
    state = state / np.linalg.norm(state)
    grid = wigner_grid(state, n_theta=args.n_theta, n_phi=args.n_phi)
    save_wigner_csv(args.out, grid)
    _manifest(args, "wigner", [args.state], [args.out], None, t0)
    print(f"wrote {args.n_theta} x {args.n_phi} grid")
    return 0


def cmd_verify_clifford(args) -> int:
    t0 = time.monotonic()
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
        _manifest(args, "verify-clifford", [], [args.out], None, t0)
    return 0


def cmd_propagate(args) -> int:
    """Utility: propagate a stored waveform and report the fidelity to a target."""
    sys_model = _resolve_system(args)
    w = load_waveform(args.waveform)
    u = propagate(sys_model, w)
    print(f"propagator unitary on d={sys_model.dim}, {w.n_segments} segments, "
          f"{w.total_duration:.6g} s total")
    if args.target_state and args.initial_state:
        psi_i = _resolve_state(args.initial_state, sys_model)
        psi_f = _resolve_state(args.target_state, sys_model)
        fid = float(abs(np.vdot(psi_f, u @ psi_i)) ** 2)
        print(f"state-map fidelity {fid:.8f}")
    return 0


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
    p_ec.add_argument("--samples", type=int, default=200)
    p_ec.add_argument("--seed", type=int, default=0)
    p_ec.add_argument("--average", choices=("haar", "axes"), default="haar")
    p_ec.add_argument("--out", required=True, help="result CSV path")
    p_ec.add_argument("--params", help="cesium parameter JSON (synthesized maps)")
    p_ec.add_argument("--goal", type=float, default=0.99)
    p_ec.add_argument("--max-iterations", type=int, default=5000)
    p_ec.add_argument("--restarts", type=int, default=3)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
