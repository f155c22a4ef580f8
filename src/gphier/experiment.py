"""Experiment orchestration: reproducible runs, CSV/JSON emission, manifest.

Fixed config+seed produces bit-identical CSV/JSON result files (floats are
written with shortest-roundtrip repr, key order is fixed, no timestamps).
The manifest additionally records versions and wall time and is therefore
excluded from the byte-identity contract.

evolve, nls-compare and km-report stream the solver's stored nodes
({level: mode tensor} dicts) into their consumers and keep no list of
nodes.  The free top p/2 levels of the factorized initial data are product
levels (marginal.ProductLevel), held by one M^d factor.  Norms and traces
come from the mode tensors: the H^alpha norm of each level once per node
(norm_Hxi_alpha is the xi-weighted sum of those numbers), the trace as
h^(dk) * sum_r hat[r; -r] (closed forms on a product level), and
Theta = B Gamma by the mode-space collapse, once per node, with its
fixed-point defect in the same pass (km-report keeps no Theta sample).
Only the structural invariants of the dense levels and the NLS comparison
work in real space: each level is built, used and dropped.  A non-finite
H^alpha norm stops the run with status 2 (marginal._h_alpha_norm_hat).

Column dictionary (CSV headers follow the estimate symbols):
  norm_Halpha      per-level H^alpha norm of gamma^(k)
  norm_Hxi_alpha   xi-weighted sequence norm of the state
  trace_drift, herm_defect, sym_defect
                   per-level invariant drifts; on a free level of
                   factorized data (a product level) herm_defect and
                   sym_defect are 0 by construction
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
    InvariantFailure,
    NormParams,
    ProductLevel,
    _h_alpha_norm_hat,
    _hat_difference,
    _trace_hat,
    validate_marginal,
)
from .nls import BUILTIN_FIELDS, WaveFunction, _compare_nodes, nls_solve
from .operators import InteractionSpec
from .snapshots import snapshot_read, snapshot_write
from .solver import QuadratureRule, _initial_hats, _materialize, _oracle_nodes, _sampling, _volterra_nodes
from .studies import StudyReport, _km_report, boardgame_probe, cauchy_study, strichartz_study

COMMANDS = ("evolve", "nls-compare", "cauchy", "strichartz", "boardgame", "km-report")


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


def _structural_invariants(
    t: float,
    hats: dict[int, np.ndarray],
    grid,
    spec: InteractionSpec,
    init_traces: dict[int, complex] | None,
) -> tuple[list[dict], dict[int, complex], str | None]:
    """Trace-drift and defect rows of one node, its traces, and its first violation.

    Builds the real-space state of the node's dense levels, checks each
    level there and drops the state; a product level reports zero defects
    and its closed-form trace (ProductLevel.report).  The dense levels are
    the coupled levels 1..N - p/2, since only free levels are products.
    Drift is measured against init_traces, the traces at t=0 (None for the
    first node, which is its own reference).  Every comparison is written
    so that NaN fails.
    """
    N = max(hats)
    dense = {k: h for k, h in hats.items() if not isinstance(h, ProductLevel)}
    reports = {k: h.report() for k, h in hats.items() if k not in dense}
    if dense:
        state = _materialize(grid, dense)
        reports.update((k, validate_marginal(g, check_positivity=False)) for k, g in enumerate(state.levels, start=1))
    rows, traces, failure = [], {}, None
    for k in range(1, N + 1):
        rep = reports[k]
        traces[k] = rep.trace
        drift = abs(rep.trace - (init_traces or traces)[k])
        free = k + spec.half > N
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
        checks = (
            ("trace conservation", not drift <= limit, f"drift {drift:.3e} > {limit}"),
            ("hermiticity preservation", not rep.hermiticity_defect <= 1e-9, f"defect {rep.hermiticity_defect:.3e}"),
            ("permutation symmetry preservation", not rep.symmetry_defect <= 1e-9, f"defect {rep.symmetry_defect:.3e}"),
        )
        for name, violated, detail in checks:
            if failure is None and violated:
                failure = f"invariant '{name}' failed: level {k} at t={t}: {detail}"
    return rows, traces, failure


class _InvariantCheck:
    """Runs _structural_invariants on streamed nodes as they pass through.

    Keeps the invariant rows and the first violation; once one is found the
    remaining nodes pass unchecked.  rows() raises InvariantFailure for it,
    so a caller can write its other tables first, as a run without
    streaming would.
    """

    def __init__(self, grid, spec: InteractionSpec):
        self.grid, self.spec = grid, spec
        self._rows: list[dict] = []
        self._failure: str | None = None

    def watch(self, nodes):
        init_traces = None
        for t, hats in nodes:
            if self._failure is None:
                rows, traces, self._failure = _structural_invariants(t, hats, self.grid, self.spec, init_traces)
                init_traces = init_traces or traces
                self._rows += rows
            yield t, hats

    def rows(self) -> list[dict]:
        if self._failure is not None:
            raise InvariantFailure(self._failure)
        return self._rows


def _norm_tables(t: float, hats: dict[int, np.ndarray], grid, alpha: float, xi: float) -> tuple[list[dict], dict]:
    """One node's rows of the levels table and of the norms table, from its mode tensors.

    Each level's H^alpha norm is computed once; norm_Hxi_alpha is their
    xi-weighted sum.
    """
    norms = {k: _h_alpha_norm_hat(hats[k], grid, k, alpha) for k in sorted(hats)}
    level_rows = []
    for k, norm in norms.items():
        tr = _trace_hat(hats[k], grid, k)
        level_rows.append({"t": float(t), "level": k, "norm_Halpha": norm, "trace_re": tr.real, "trace_im": tr.imag})
    return level_rows, {"t": float(t), "norm_Hxi_alpha": sum(xi**k * norm for k, norm in norms.items())}


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
        config.check_command(command)
        grid = make_grid(config.d, config.M, config.L)
        spec = InteractionSpec(config.p, config.mu)
        params = NormParams(config.alpha, config.xi, config.xi2, config.xi_prime, config.eta)
        if command == "evolve":
            phi0 = _resolve_phi0(config, grid)
            hat0 = _initial_hats(HierarchyState.factorized(phi0.values, config.N, grid), spec)
            solvers = ["volterra", "oracle"] if config.solver == "both" else [config.solver]
            terminal = {}
            for solver_name in solvers:
                if solver_name == "volterra":
                    rule = QuadratureRule(config.quadrature)
                    nodes = _volterra_nodes(grid, hat0, spec, config.T, config.dt, rule, config.store_every)
                else:
                    nodes = _oracle_nodes(grid, hat0, spec, config.T, config.dt, config.store_every)
                check = _InvariantCheck(grid, spec)
                per_level, per_state = [], []
                for t, hats in check.watch(nodes):
                    level_rows, state_row = _norm_tables(t, hats, grid, config.alpha, config.xi)
                    per_level += level_rows
                    per_state.append(state_row)
                    terminal[solver_name] = hats
                write_csv(per_level, os.path.join(out_dir, f"evolve_{solver_name}_levels.csv"))
                write_csv(per_state, os.path.join(out_dir, f"evolve_{solver_name}_norms.csv"))
                write_csv(check.rows(), os.path.join(out_dir, f"evolve_{solver_name}_invariants.csv"))
                if config.save_state:
                    final = _materialize(grid, terminal[solver_name])
                    snapshot_write(final, os.path.join(out_dir, f"evolve_{solver_name}_final.gph"))
            if len(terminal) == 2:
                vol, orc = terminal["volterra"], terminal["oracle"]
                dist = sum(
                    config.xi**k * _h_alpha_norm_hat(_hat_difference(vol[k], orc[k]), grid, k, config.alpha)
                    for k in range(1, config.N + 1)
                )
                write_csv(
                    [{"t": config.T, "hxi_distance_volterra_oracle": dist}],
                    os.path.join(out_dir, "evolve_solver_distance.csv"),
                )
        elif command == "nls-compare":
            phi0 = _resolve_phi0(config, grid)
            hat0 = _initial_hats(HierarchyState.factorized(phi0.values, config.N, grid), spec)
            wave = nls_solve(phi0, spec, config.T, config.dt, config.store_every)
            rule = QuadratureRule(config.quadrature)
            nodes = _volterra_nodes(grid, hat0, spec, config.T, config.dt, rule, config.store_every)
            check = _InvariantCheck(grid, spec)
            rows = _compare_nodes(check.watch(nodes), grid, wave, config.alpha, config.xi)
            write_csv(rows, os.path.join(out_dir, "nls_compare.csv"))
            check.rows()
        elif command == "cauchy":
            n_list = config.N_list or [3, 4]
            phi0 = _resolve_phi0(config, grid)
            gamma0 = HierarchyState.factorized(phi0.values, max(n_list), grid)
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
            gamma_test = HierarchyState.factorized(phi0.values, max(config.N, N_needed), grid)
            report = boardgame_probe(
                1, range(1, config.j_max + 1), gamma_test, spec, config.T, params, config.quadrature, config.dt
            )
            _report_to_files(report, out_dir, "boardgame")
        elif command == "km-report":
            phi0 = _resolve_phi0(config, grid)
            hat0 = _initial_hats(HierarchyState.factorized(phi0.values, config.N, grid), spec)
            rule = QuadratureRule(config.quadrature)
            nodes = _volterra_nodes(grid, hat0, spec, config.T, config.dt, rule, config.store_every)
            check = _InvariantCheck(grid, spec)
            S, stride = _sampling(config.T, config.dt, config.store_every)
            report = _km_report(check.watch(nodes), grid, spec, params, S // stride, stride * config.dt, rule)
            _report_to_files(report, out_dir, "km")
            check.rows()
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
