"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload is one ``gphier`` CLI command at a pinned configuration.  The
program receives only generated inputs: a band-limited random phi_0 written
as a level-1 ``GPH1`` snapshot, or the ensemble seed of the Strichartz study.

Why these three.  Shares are of the traced wall time, measured with
``--trace 1`` on a 2-core Intel Xeon VM:

- ``evolve-march`` (~5.5 s): the top-down Volterra march dominates.
  fourier_collapse in its p=2 shape takes 43 % and ``_march`` itself, the
  phase advance of the 6^8 top level, 23 %.  Only the two endpoints are
  stored, so the output path (norm tables, invariants) is 29 %.
- ``strichartz-ensemble`` (~4 s): random draws and the free collapse.
  ``_free_collapse_norms`` self time is 30 %, fourier_collapse 21 % and
  ``random_marginal`` with its symmetrize, hermitize and norm 35 %.  It never
  runs ``_march``, ``_Cumulative``, ``_materialize`` or the invariant checks,
  so it bypasses every optimisation aimed at the march or the trajectory.
- ``quintic-km`` (~2.8 s): fourier_collapse in its p=4 shape (a Python loop
  over the M^4 pinned-mode combinations) takes 39 %.  Every node is stored,
  so the real-space round trip (``_materialize`` ifft, ``h_alpha_norm`` fft,
  ``validate_marginal``) takes 54 %.  It is the only workload that runs
  ``theta_residual`` (24 %), ``b_hat`` and ``spacetime_norm``.

The sizes are chosen so that one 35 s measurement holds 6 to 13 program
runs, whose median is the reported wall time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

#: Outputs of this seed are compared with the files under reference/.
DEFAULT_SEED = 1
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: Relative agreement required against the reference outputs.
REL_TOL = 1e-9
#: Values this small are rounding noise (trace drift, hermiticity defect,
#: Theta residual); they are checked against this absolute bound instead.
FLOOR = 1e-12

L_TORUS = 2 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    settings: dict
    seeded_phi0: bool

    def cli_args(self, seed: int, phi0_path: str, out_dir: str) -> list[str]:
        settings = dict(self.settings)
        if self.seeded_phi0:
            settings["phi0"] = phi0_path
        else:
            settings["seed"] = seed
        args = [self.command]
        for key, value in settings.items():
            args += ["--set", f"{key}={value}"]
        return args + ["--out-dir", out_dir]

    @property
    def steps(self) -> int:
        return round(self.settings["T"] / self.settings["dt"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve-march",
            "evolve",
            # store_every = T/dt stores only the two endpoints
            dict(d=1, p=2, M=6, N=4, solver="volterra", T=0.08, dt=1e-3, store_every=80),
            seeded_phi0=True,
        ),
        Workload(
            "strichartz-ensemble",
            "strichartz",
            dict(d=1, p=2, M=12, N=3, ensemble_size=1, T=0.08, dt=4e-3),
            seeded_phi0=False,
        ),
        Workload(
            "quintic-km",
            "km-report",
            dict(d=1, p=4, M=8, N=3, T=0.02, dt=1e-3, store_every=1),
            seeded_phi0=True,
        ),
    )
}


# -- inputs -------------------------------------------------------------------


def write_phi0(path: str, seed: int, d: int, M: int) -> None:
    """Seeded band-limited phi_0 as a level-1 GPH1 snapshot of phi phi^*.

    Complex Gaussian modes times (1+|p|^2)^(-1) per axis, normalized to unit
    discrete L2 norm h^d sum |phi|^2 = 1, so every level has trace one.
    """
    rng = np.random.default_rng(seed)
    alias = np.fft.fftfreq(M, d=1.0 / M)
    alias[M // 2] = M // 2
    p = 2 * np.pi * alias / L_TORUS
    shape = (M,) * d
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ax in range(d):
        sl = [1] * d
        sl[ax] = M
        coeffs *= (1.0 / (1.0 + p**2)).reshape(sl)
    phi = np.fft.ifftn(coeffs, norm="ortho")
    phi /= np.sqrt((L_TORUS / M) ** d * np.sum(np.abs(phi) ** 2))
    gamma = np.multiply.outer(phi, phi.conj())
    with open(path, "wb") as fh:
        fh.write(b"GPH1")
        fh.write(struct.pack("<III", 1, d, M))
        fh.write(struct.pack("<d", L_TORUS))
        fh.write(struct.pack("<I", 1))
        fh.write(np.ascontiguousarray(gamma.astype("<c16")).tobytes())


# -- outputs ------------------------------------------------------------------


def result_files(out_dir: str) -> list[str]:
    """Result tables of a run; the manifest holds timings and is excluded."""
    return sorted(
        name for name in os.listdir(out_dir) if name.endswith((".csv", ".json")) and name != "manifest.json"
    )


def read_outputs(out_dir: str) -> dict:
    outputs = {}
    for name in result_files(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, newline="") as fh:
            outputs[name] = json.load(fh) if name.endswith(".json") else list(csv.reader(fh))
    return outputs


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _values_differ(out, ref) -> bool:
    a, b = _number(out), _number(ref)
    if a is None or b is None:
        return out != ref
    if math.isnan(a) or math.isnan(b):
        return not (math.isnan(a) and math.isnan(b))
    if max(abs(a), abs(b)) <= FLOOR:
        return False
    return abs(a - b) > REL_TOL * abs(b)


def _compare(out, ref, where: str, problems: list[str]) -> None:
    if isinstance(ref, dict) and isinstance(out, dict):
        if sorted(out) != sorted(ref):
            problems.append(f"{where}: keys {sorted(out)} != {sorted(ref)}")
            return
        for key in ref:
            _compare(out[key], ref[key], f"{where}.{key}", problems)
    elif isinstance(ref, list) and isinstance(out, list):
        if len(out) != len(ref):
            problems.append(f"{where}: length {len(out)} != {len(ref)}")
            return
        for i, (o, r) in enumerate(zip(out, ref)):
            _compare(o, r, f"{where}[{i}]", problems)
    elif _values_differ(out, ref):
        problems.append(f"{where}: {out!r} != reference {ref!r}")


def compare_outputs(out: dict, ref: dict) -> list[str]:
    """Numeric agreement to REL_TOL (FLOOR for rounding-level values)."""
    problems: list[str] = []
    _compare(out, ref, "outputs", problems)
    return problems


def byte_identical(out_dir: str, ref_dir: str) -> bool:
    names = result_files(out_dir)
    if names != result_files(ref_dir):
        return False
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as a, open(os.path.join(ref_dir, name), "rb") as b:
            if a.read() != b.read():
                return False
    return True


def _table(outputs: dict, name: str) -> list[dict]:
    rows = outputs[name]
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def _finite(value) -> bool:
    return math.isfinite(float(value))


def check_invariants(workload: Workload, outputs: dict) -> list[str]:
    """Checks that hold for every seed."""
    s = workload.settings
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{workload.name}: {what}")

    try:
        if workload.command == "evolve":
            levels = _table(outputs, "evolve_volterra_levels.csv")
            need(len(levels) == 2 * s["N"], f"{len(levels)} level rows, expected {2 * s['N']}")
            for row in levels:
                need(_finite(row["norm_Halpha"]) and float(row["norm_Halpha"]) > 0, f"bad norm {row}")
                need(abs(float(row["trace_re"]) - 1) <= 1e-8, f"trace not one: {row}")
                need(abs(float(row["trace_im"])) <= 1e-8, f"trace not real: {row}")
            # the top p/2 levels evolve freely: a unitary map keeps their norms
            for k in range(s["N"] - s["p"] // 2 + 1, s["N"] + 1):
                first, last = (float(r["norm_Halpha"]) for r in levels if int(r["level"]) == k)
                need(abs(last - first) <= 1e-10 * first, f"free level {k} norm drifted {first} -> {last}")
            for row in _table(outputs, "evolve_volterra_invariants.csv"):
                need(float(row["trace_drift"]) <= 1e-8, f"trace drift {row}")
                need(float(row["herm_defect"]) <= 1e-9, f"hermiticity defect {row}")
                need(float(row["sym_defect"]) <= 1e-9, f"symmetry defect {row}")
            need(len(_table(outputs, "evolve_volterra_norms.csv")) == 2, "norm rows")
        elif workload.command == "strichartz":
            draws = _table(outputs, "strichartz_per_draw.csv")
            need(len(draws) == s["ensemble_size"], f"{len(draws)} draws, expected {s['ensemble_size']}")
            for row in draws:
                for key in ("lhs", "rhs", "ratio"):
                    need(_finite(row[key]) and float(row[key]) > 0, f"non-finite or non-positive {key}: {row}")
            need(outputs["strichartz_summary.json"]["fitted"]["samples"] == s["ensemble_size"], "sample count")
        elif workload.command == "km-report":
            rows = _table(outputs, "km_per_time.csv")
            need(len(rows) == workload.steps + 1, f"{len(rows)} time rows, expected {workload.steps + 1}")
            for row in rows:
                need(_finite(row["hxi_norm"]) and float(row["hxi_norm"]) > 0, f"bad norm {row}")
                need(_finite(row["bhat_hxi_norm"]), f"bad collapse norm {row}")
            fitted = outputs["km_summary.json"]["fitted"]
            need(abs(fitted["theta_residual"]) <= FLOOR, f"Theta residual {fitted['theta_residual']} above the rounding floor")
            need(math.isfinite(fitted["l2_t_bhat_norm"]) and fitted["l2_t_bhat_norm"] > 0, "spacetime norm")
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append(f"{workload.name}: malformed output ({type(exc).__name__}: {exc})")
    return problems
