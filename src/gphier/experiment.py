"""Experiment orchestration: reproducible runs, CSV/JSON emission, manifest.

Fixed config+seed produces bit-identical CSV/JSON result files (floats are
written with shortest-roundtrip repr, key order is fixed, no timestamps).
The manifest additionally records versions and wall time and is therefore
excluded from the byte-identity contract.

Column dictionary (CSV headers follow the estimate symbols):
  norm_Halpha      per-level H^alpha norm of gamma^(k)
  norm_Hxi_alpha   xi-weighted sequence norm of the state
  tail_xi_prime    ||P_{>N1} Gamma_0|| at weight xi'
  bdiff_l2         L2-in-time H_xi norm of B(Gamma_N1 - Gamma_N2)
  traj_diff_sup    sup-in-time H_xi norm of Gamma_N1 - Gamma_N2
  ratio_l2_over_tail, ratio_sup_over_tail   the Cauchy-property ratios
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .grid import make_grid
from .marginal import (
    HierarchyState,
    NormParams,
    h_alpha_norm,
    hxi_norm,
    trace,
    validate_marginal,
)
from .nls import BUILTIN_FIELDS, WaveFunction, compare_hierarchy_vs_nls, nls_solve
from .operators import InteractionSpec, b_hat
from .snapshots import snapshot_read, snapshot_write
from .solver import Trajectory, solve_oracle, solve_truncated
from .studies import StudyReport, boardgame_probe, cauchy_study, km_report, strichartz_study

COMMANDS = ("evolve", "nls-compare", "cauchy", "strichartz", "boardgame", "km-report")


class InvariantFailure(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, complex):
        return repr(value)
    return str(value)


def write_csv(rows: list[dict], path: str, columns: list[str] | None = None) -> None:
    """Deterministic CSV writer: fixed column order, repr floats, \\n endings."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")


def write_json(obj: dict, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _resolve_phi0(config: ExperimentConfig, grid) -> WaveFunction:
    name = config.phi0
    if name in BUILTIN_FIELDS:
        return BUILTIN_FIELDS[name](grid)
    # anything else is a snapshot path holding a level-1 marginal; the
    # field is its dominant eigenvector (exact for pure product states)
    obj = snapshot_read(name)
    gamma = obj.level(1) if isinstance(obj, HierarchyState) else obj
    if gamma.k != 1:
        raise ConfigError(f"phi0 snapshot {name!r} must hold a level-1 marginal, got level {gamma.k}")
    if gamma.grid != grid:
        raise ConfigError("phi0 snapshot grid does not match the configured grid")
    n = grid.M**grid.d
    mat = gamma.data.reshape(n, n)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    vec = eigvecs[:, -1]
    nz = np.flatnonzero(np.abs(vec) > 1e-12)
    if len(nz):
        vec = vec * np.exp(-1j * np.angle(vec[nz[0]]))
    # gamma = phi phi^* as a matrix outer product: the top eigenpair gives
    # phi = sqrt(lambda) v directly (v is unit in the plain entry sum)
    phi = np.sqrt(max(eigvals[-1], 0.0)) * vec.reshape((grid.M,) * grid.d)
    return WaveFunction(grid, phi)


def _structural_invariants(traj: Trajectory, spec: InteractionSpec, alpha: float) -> list[dict]:
    """Trace-drift and defect table; raises InvariantFailure on violation."""
    rows = []
    init = traj.states[0]
    init_traces = {k: trace(init.level(k)) for k in range(1, init.N + 1)}
    for t, state in zip(traj.times, traj.states):
        for k in range(1, state.N + 1):
            rep = validate_marginal(state.level(k), check_positivity=False)
            drift = abs(trace(state.level(k)) - init_traces[k])
            free = k + spec.half > state.N
            rows.append(
                {
                    "t": float(t),
                    "level": k,
                    "free": free,
                    "trace_drift": drift,
                    "herm_defect": rep.hermiticity_defect,
                    "sym_defect": rep.symmetry_defect,
                }
            )
            limit = 1e-12 if free else 1e-8
            if drift > limit:
                raise InvariantFailure(
                    f"invariant 'trace conservation' failed: level {k} at t={t}: drift {drift:.3e} > {limit}"
                )
            if rep.hermiticity_defect > 1e-9:
                raise InvariantFailure(
                    f"invariant 'hermiticity preservation' failed: level {k} at t={t}: defect {rep.hermiticity_defect:.3e}"
                )
            if rep.symmetry_defect > 1e-9:
                raise InvariantFailure(
                    f"invariant 'permutation symmetry preservation' failed: level {k} at t={t}: defect {rep.symmetry_defect:.3e}"
                )
    return rows


def _norm_tables(traj: Trajectory, alpha: float, xi: float) -> tuple[list[dict], list[dict]]:
    per_level, per_state = [], []
    for t, state in zip(traj.times, traj.states):
        for k in range(1, state.N + 1):
            g = state.level(k)
            tr = trace(g)
            per_level.append(
                {
                    "t": float(t),
                    "level": k,
                    "norm_Halpha": h_alpha_norm(g, alpha),
                    "trace_re": tr.real,
                    "trace_im": tr.imag,
                }
            )
        per_state.append({"t": float(t), "norm_Hxi_alpha": hxi_norm(state, xi, alpha)})
    return per_level, per_state


def _report_to_files(report: StudyReport, out_dir: str, stem: str) -> None:
    for name, rows in report.tables.items():
        write_csv(rows, os.path.join(out_dir, f"{stem}_{name}.csv"))
    write_json(
        {"inputs": report.inputs, "fitted": report.fitted, "warnings": report.warnings},
        os.path.join(out_dir, f"{stem}_summary.json"),
    )


def run_experiment(config: ExperimentConfig, command: str, out_dir: str | None = None) -> int:
    """Run one command, write manifest plus result tables, return exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    status, error = 0, None
    try:
        grid = make_grid(config.d, config.M, config.L)
        spec = InteractionSpec(config.p, config.mu)
        params = NormParams(config.alpha, config.xi, config.xi2, config.xi_prime, config.eta)
        if command == "evolve":
            phi0 = _resolve_phi0(config, grid)
            gamma0 = HierarchyState.factorized(phi0.values, config.N, grid, config.p, config.mu)
            solvers = ["volterra", "oracle"] if config.solver == "both" else [config.solver]
            terminal = {}
            for solver_name in solvers:
                if solver_name == "volterra":
                    traj = solve_truncated(gamma0, spec, config.T, config.dt, config.quadrature, config.store_every)
                else:
                    traj = solve_oracle(gamma0, spec, config.T, config.dt, config.store_every)
                per_level, per_state = _norm_tables(traj, config.alpha, config.xi)
                write_csv(per_level, os.path.join(out_dir, f"evolve_{solver_name}_levels.csv"))
                write_csv(per_state, os.path.join(out_dir, f"evolve_{solver_name}_norms.csv"))
                inv_rows = _structural_invariants(traj, spec, config.alpha)
                write_csv(inv_rows, os.path.join(out_dir, f"evolve_{solver_name}_invariants.csv"))
                terminal[solver_name] = traj.states[-1]
                if config.save_state:
                    snapshot_write(traj.states[-1], os.path.join(out_dir, f"evolve_{solver_name}_final.gph"))
            if len(terminal) == 2:
                dist = sum(
                    config.xi**k
                    * h_alpha_norm(terminal["volterra"].level(k) - terminal["oracle"].level(k), config.alpha)
                    for k in range(1, config.N + 1)
                )
                write_csv(
                    [{"t": config.T, "hxi_distance_volterra_oracle": dist}],
                    os.path.join(out_dir, "evolve_solver_distance.csv"),
                )
        elif command == "nls-compare":
            phi0 = _resolve_phi0(config, grid)
            gamma0 = HierarchyState.factorized(phi0.values, config.N, grid, config.p, config.mu)
            traj = solve_truncated(gamma0, spec, config.T, config.dt, config.quadrature, config.store_every)
            wave = nls_solve(phi0, spec, config.T, config.dt, config.store_every)
            rows = compare_hierarchy_vs_nls(traj, wave, config.alpha, config.xi)
            write_csv(rows, os.path.join(out_dir, "nls_compare.csv"))
            _structural_invariants(traj, spec, config.alpha)
        elif command == "cauchy":
            n_list = config.N_list or [3, 4]
            phi0 = _resolve_phi0(config, grid)
            gamma0 = HierarchyState.factorized(phi0.values, max(n_list), grid, config.p, config.mu)
            report = cauchy_study(gamma0, n_list, params, spec, config.T, config.dt, config.quadrature)
            _report_to_files(report, out_dir, "cauchy")
        elif command == "strichartz":
            report = strichartz_study(
                config.ensemble_size,
                params,
                grid,
                spec,
                config.T,
                config.dt,
                n_levels=config.N,
                seed=config.seed,
                quadrature=config.quadrature,
            )
            _report_to_files(report, out_dir, "strichartz")
            if not all(np.isfinite(r["ratio"]) for r in report.tables["per_draw"]):
                raise InvariantFailure("invariant 'finite Strichartz ratios' failed")
        elif command == "boardgame":
            phi0 = _resolve_phi0(config, grid)
            N_needed = 1 + config.j_max * spec.half
            gamma_test = HierarchyState.factorized(phi0.values, max(config.N, N_needed), grid, config.p, config.mu)
            report = boardgame_probe(
                1, range(1, config.j_max + 1), gamma_test, spec, config.T, params, config.quadrature, config.dt
            )
            _report_to_files(report, out_dir, "boardgame")
        elif command == "km-report":
            phi0 = _resolve_phi0(config, grid)
            gamma0 = HierarchyState.factorized(phi0.values, config.N, grid, config.p, config.mu)
            traj = solve_truncated(gamma0, spec, config.T, config.dt, config.quadrature, config.store_every)
            report = km_report(traj, params, config.quadrature)
            _report_to_files(report, out_dir, "km")
            _structural_invariants(traj, spec, config.alpha)
    except InvariantFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        status, error = 2, exc
    except Exception as exc:
        # no run ends without saying why: record the failure, then let it propagate
        _write_manifest(config, command, out_dir, t_start, 1, exc)
        raise
    _write_manifest(config, command, out_dir, t_start, status, error)
    return status


def _write_manifest(config, command: str, out_dir: str, t_start: float, status: int, error) -> None:
    manifest = {
        "command": command,
        "config": config.to_dict(),
        "config_warnings": config.warnings,
        "versions": {"gphier": __version__, "numpy": np.__version__},
        "wall_time_s": time.perf_counter() - t_start,
        "status": status,
    }
    if error is not None:
        manifest["error"] = f"{type(error).__name__}: {error}"
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
