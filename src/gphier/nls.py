"""Split-step reference solver for i dphi/dt = -Lap phi + mu |phi|^p phi.

Factorized hierarchy data gamma^(k) = prod phi(x_j) conj(phi(x'_j)) stays
factorized under the hierarchy flow exactly when phi solves this NLS with
the spectral Laplacian and the pointwise grid nonlinearity, so this module
is the consistency target for the truncated solvers.  The nonlinear term
is deliberately not dealiased: the hierarchy collapse pins grid points, so
the matching NLS is the one with the pointwise product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, phase_weights
from .marginal import _marginal_of, factorized_marginal, h_alpha_norm
from .operators import InteractionSpec
from .solver import Trajectory, _sampling


@dataclass
class WaveFunction:
    """One-particle complex field on the torus grid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.M,) * self.grid.d:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid (M={self.grid.M}, d={self.grid.d})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        self.values = np.asarray(self.values, dtype=np.complex128)

    @property
    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.h**self.grid.d))


@dataclass
class WaveTrajectory:
    times: np.ndarray
    fields: list[WaveFunction]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def plane_wave_field(grid: TorusGrid, mode: int = 1) -> WaveFunction:
    """exp(i p_mode x) / sqrt(L^d); unit grid L2 norm, constant modulus."""
    p = grid.wavenumbers[mode % grid.M]
    x = grid.points
    phi = np.exp(1j * p * x) / np.sqrt(grid.L)
    for _ in range(grid.d - 1):
        phi = np.multiply.outer(phi, np.exp(1j * p * x) / np.sqrt(grid.L))
    return WaveFunction(grid, phi)


def cosine_field(grid: TorusGrid, depth: float = 0.5) -> WaveFunction:
    """Smooth band-limited default c*(1 + depth*cos(2 pi x / L)), unit L2 norm."""
    x = grid.points
    profile = 1.0 + depth * np.cos(2 * np.pi * x / grid.L)
    phi = profile.astype(np.complex128)
    for _ in range(grid.d - 1):
        phi = np.multiply.outer(phi, profile)
    wf = WaveFunction(grid, phi)
    return WaveFunction(grid, phi / wf.l2_norm)


BUILTIN_FIELDS = {"cosine": cosine_field, "plane_wave": plane_wave_field}


def nls_solve(
    phi0: WaveFunction,
    spec: InteractionSpec,
    T: float,
    dt: float,
    store_every: int = 1,
) -> WaveTrajectory:
    """Strang splitting: half nonlinear phase, full spectral linear step, half nonlinear.

    Second order in dt; the linear step is exact, so the L2 norm is
    conserved to rounding.
    """
    S, store_every = _sampling(T, dt, store_every)
    grid = phi0.grid
    lin = phase_weights(grid, dt, "unprimed")
    lin_full = lin
    for _ in range(grid.d - 1):
        lin_full = np.multiply.outer(lin_full, lin)
    phi = phi0.values.copy()
    times, fields = [0.0], [WaveFunction(grid, phi.copy())]
    for i in range(1, S + 1):
        phi = phi * np.exp(-0.5j * dt * spec.mu * np.abs(phi) ** spec.p)
        phi = np.fft.ifftn(np.fft.fftn(phi, norm="ortho") * lin_full, norm="ortho")
        phi = phi * np.exp(-0.5j * dt * spec.mu * np.abs(phi) ** spec.p)
        if i % store_every == 0:
            times.append(i * dt)
            fields.append(WaveFunction(grid, phi.copy()))
    return WaveTrajectory(np.array(times), fields)


def compare_hierarchy_vs_nls(
    trajectory: Trajectory,
    wave_trajectory: WaveTrajectory,
    alpha: float,
    xi: float,
) -> list[dict]:
    """Per-level H^alpha distance to the factorized state of the NLS field.

    Returns one row per shared time sample with keys "t", "level_<k>_error"
    for k = 1..N, and the xi-weighted aggregate "hxi_error".
    """
    return _compare_nodes(zip(trajectory.times, trajectory.hats), trajectory.grid, wave_trajectory, alpha, xi)


def _compare_nodes(nodes, grid: TorusGrid, wave_trajectory: WaveTrajectory, alpha: float, xi: float) -> list[dict]:
    """compare_hierarchy_vs_nls over streamed nodes (t, {level: mode tensor}).

    Each level is built in real space, compared and dropped.
    """
    if grid != wave_trajectory.fields[0].grid:
        raise ValueError("hierarchy and NLS trajectories live on different grids")
    mismatch = "hierarchy and NLS trajectories have different time samples"
    rows = []
    for i, (t, hats) in enumerate(nodes):
        if i >= len(wave_trajectory.times) or not np.isclose(t, wave_trajectory.times[i], rtol=1e-9, atol=1e-12):
            raise ValueError(mismatch)
        row = {"t": float(t)}
        for k in sorted(hats):
            target = factorized_marginal(wave_trajectory.fields[i].values, k, grid)
            row[f"level_{k}_error"] = h_alpha_norm(_marginal_of(hats[k], grid, k) - target, alpha)
        row["hxi_error"] = sum(xi**k * row[f"level_{k}_error"] for k in sorted(hats))
        rows.append(row)
    if len(rows) != len(wave_trajectory.times):
        raise ValueError(mismatch)
    return rows
