"""Quantitative verification studies for the hierarchy estimates.

Each study measures a ratio that the corresponding inequality bounds:
free-evolution collapse ratios (Strichartz-type), truncation-difference
ratios against the initial-data tail (the Cauchy property in N), the decay
of iterated Duhamel terms in the iteration depth j, and the a posteriori
spacetime bound on B Gamma.  Fitted constants are least-squares artifacts
of the configured grid/window and are reported with residuals and sample
counts; they are never claimed to be the sharp constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _GATHER_BLOCK, conj_negated, fourier_collapse, ifftn_level
from ._packed import pack
from ._packed import shape as packed_shape
from .grid import TorusGrid, sobolev_weights
from .marginal import (
    HierarchyState,
    Marginal,
    NormParams,
    ProductLevel,
    _check_memory_guard,
    _h_alpha_norm_hat,
    _h_alpha_norms_hat,
    _hat_difference,
    _hxi_norm_hat,
    _permutation_sum,
    hxi_norm,
)
from .operators import InteractionSpec, admissible_alpha_range
from .solver import (
    QuadratureRule,
    Trajectory,
    _check_coupled,
    _duhamel_nodes,
    _initial_hats,
    _level_hat,
    _march,
    _resolve_steps,
    _theta_defects,
    l2_in_time,
)


@dataclass
class StudyReport:
    """Inputs, per-case tables, and fitted constants of one study run."""

    study: str
    inputs: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)
    fitted: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def spacetime_norm(times, states, xi: float, alpha: float, quadrature="trapezoid") -> float:
    """( int_0^T ||Theta(t)||^2_{H^alpha_xi} dt )^(1/2) on uniform samples."""
    rule = QuadratureRule.of(quadrature)
    times = np.asarray(times, dtype=float)
    S = len(times) - 1
    if S < 1:
        raise ValueError("need at least two time samples")
    dt = times[1] - times[0]
    return l2_in_time(rule.weights(S, dt), [hxi_norm(st, xi, alpha) for st in states])


def _xi_series(rows: dict[int, np.ndarray], xi: float, S: int) -> np.ndarray:
    """sum_n xi^n * rows[n] on the S + 1 nodes, added in the order of rows."""
    series = np.zeros(S + 1)
    for n, r in rows.items():
        series += xi**n * r
    return series


def random_marginal(grid: TorusGrid, k: int, rng: np.random.Generator, alpha: float) -> Marginal:
    """Random hermitean, permutation-symmetric kernel with decaying spectrum.

    The real-space kernel of the mode tensor that _random_hat draws from
    rng: hermitean, symmetric and of unit H^alpha norm.  The Strichartz
    study takes the mode tensor itself and transforms nothing.
    """
    return Marginal(grid, k, ifftn_level(_random_hat(grid, k, rng, alpha)))


def _random_hat(grid: TorusGrid, k: int, rng: np.random.Generator, alpha: float) -> np.ndarray:
    """Mode tensor of a random hermitean, permutation-symmetric level-k kernel.

    The coefficients are complex Gaussians, all real parts drawn before the
    imaginary parts, with per-axis standard deviation (1+p^2)^(-s/2) and
    s = alpha+1 (keeping H^alpha norms balanced across grid sizes).  The
    draw is hermitized in mode space, where the adjoint is
    conj hat[-r'; -r] (conj_negated, then the blocks swapped), and summed
    over permutations of its variables (_permutation_sum: permuting
    variables permutes mode axes as it permutes point axes).  The profile
    comes after both, in one pass: the same factor on every axis and even
    in r (the Nyquist index maps to itself under r -> -r), it commutes with
    them.  The 1/2 of the hermitean part and the 1/(k!)^2 of the average are
    left out, since the last step, the scaling to unit H^alpha norm, cancels
    any constant.  Two level buffers serve it all: the real scratch of the
    draw and the profile live in the spare's memory.
    """
    _check_memory_guard(grid, k)
    n_axes = grid.axis_count(k)
    shape = (grid.M,) * n_axes
    hat = np.empty(shape, dtype=np.complex128)
    spare = np.empty_like(hat)
    real = spare.view(np.float64).reshape(-1)[: hat.size].reshape(shape)
    hat.real = rng.standard_normal(out=real)
    hat.imag = rng.standard_normal(out=real)
    half = n_axes // 2
    hat += conj_negated(hat, out=spare).transpose(tuple(range(half, n_axes)) + tuple(range(half)))
    _permutation_sum(hat, spare, hat, grid, k)
    prof = (1.0 + grid.wavenumbers**2) ** (-(alpha + 1.0) / 2.0)
    profile = prof
    for _ in range(n_axes - 2):
        profile = np.multiply.outer(profile, prof)
    hat *= np.multiply.outer(profile, prof, out=real)
    del spare, real  # the norm's squares take their place
    nrm = _h_alpha_norm_hat(hat, grid, k, alpha)
    if nrm == 0:
        raise ValueError("degenerate random draw")
    hat /= nrm
    return hat


def _free_collapse_norms(
    hats0: dict[int, np.ndarray | ProductLevel],
    grid: TorusGrid,
    spec: InteractionSpec,
    S: int,
    dt: float,
    alpha: float,
) -> dict[int, np.ndarray]:
    """Per-level H^alpha norms of (B U(t) Gamma0)^(n) on the node grid.

    Level n collapses level n + p/2 of hats0, a packed or product level;
    rows come in the order of hats0.  Each fourier_collapse call evolves and
    collapses one block of nodes at their exact times.  A block holds one
    node per pin of a pin sum, M^((p-1)d), and no more than _GATHER_BLOCK
    packed level-n entries, so its stack is no larger than one pinned gather
    of the free collapse and the memory held does not grow with S.  The
    norms of a block are one reduction over its stack (_h_alpha_norms_hat).
    """
    half = spec.half
    times = dt * np.arange(S + 1)
    rows = {}
    for m, hat in hats0.items():
        if m <= half:
            continue
        n_k = packed_shape(grid, m - half)[0]
        block = max(1, min(grid.M ** ((spec.p - 1) * grid.d), _GATHER_BLOCK // (n_k * n_k)))
        row = rows[m - half] = np.zeros(S + 1)
        for start in range(0, S + 1, block):
            nodes = fourier_collapse(hat, grid, m, half, times[start : start + block])
            row[start : start + len(nodes)] = _h_alpha_norms_hat(nodes, grid, m - half, alpha)
    return rows


def strichartz_study(
    ensemble_size: int,
    params: NormParams,
    grid: TorusGrid,
    spec: InteractionSpec,
    T: float,
    dt: float = 2e-3,
    n_levels: int = 3,
    seed: int = 42,
    quadrature="trapezoid",
) -> StudyReport:
    """Finite-window ratios ||B U(t) Gamma0||_{L2 H_xi} / ||Gamma0||_{H_xi'}.

    Draws random admissible states (levels 1..n_levels, unit H^alpha norm
    per level), reports the ratio distribution and per-level ratios versus
    the source particle number (probing the linear-in-k growth of the
    per-level bound).  Finite-window ratios lower-bound the full-line ones.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble must contain at least one draw")
    _check_coupled(n_levels, spec)
    rule = QuadratureRule.of(quadrature)
    S = _resolve_steps(T, dt)
    xi, xi_p, alpha = params.xi, params.xi_prime, params.alpha
    w = rule.weights(S, dt)
    seeds = np.random.SeedSequence(seed).spawn(ensemble_size)
    per_draw = []
    for idx in range(ensemble_size):
        rng = np.random.default_rng(seeds[idx])
        # a draw is symmetric by construction, so it packs without a defect pass
        hats0 = {k: pack(_random_hat(grid, k, rng, alpha), grid, k) for k in range(1, n_levels + 1)}
        rows = _free_collapse_norms(hats0, grid, spec, S, dt, alpha)
        # _random_hat scales every level to unit H^alpha norm
        rhs_norm = sum(xi_p**k for k in sorted(hats0))
        lhs = l2_in_time(w, _xi_series(rows, xi, S))
        row = {"draw": idx, "lhs": lhs, "rhs": rhs_norm, "ratio": lhs / rhs_norm}
        for n, r in sorted(rows.items()):
            per_level = l2_in_time(w, r)  # source level norm is 1
            row[f"level_{n}_ratio"] = per_level
            row[f"level_{n}_ratio_over_k"] = per_level / n
        per_draw.append(row)
    ratios = np.array([r["ratio"] for r in per_draw])
    report = StudyReport(
        study="strichartz",
        inputs={
            "ensemble_size": ensemble_size,
            "alpha": alpha,
            "xi": xi,
            "xi_prime": xi_p,
            "M": grid.M,
            "d": grid.d,
            "L": grid.L,
            "p": spec.p,
            "mu": spec.mu,
            "T": T,
            "dt": dt,
            "n_levels": n_levels,
            "seed": seed,
        },
        tables={"per_draw": per_draw},
        fitted={
            "max_ratio": float(ratios.max()),
            "mean_ratio": float(ratios.mean()),
            "q90_ratio": float(np.quantile(ratios, 0.9)),
            "samples": float(len(ratios)),
        },
    )
    if not np.all(np.isfinite(ratios)):
        report.warnings.append("non-finite ratio encountered")
    if params.alpha not in admissible_alpha_range(grid.d, spec.p):
        report.warnings.append(
            f"alpha={params.alpha} outside the admissible range "
            f"{admissible_alpha_range(grid.d, spec.p)} for (d={grid.d}, p={spec.p})"
        )
    return report


def _check_truncations(N_list: list[int], spec: InteractionSpec) -> list[int]:
    """The truncation levels of a Cauchy study, sorted: at least two, each >= 1 + p/2."""
    if len(N_list) < 2:
        raise ValueError("N_list needs at least two truncation levels")
    N_list = sorted(N_list)
    if N_list[0] < 1 + spec.half:
        raise ValueError(f"every truncation in N_list must be >= {1 + spec.half}")
    return N_list


def cauchy_study(
    gamma0: HierarchyState,
    N_list: list[int],
    params: NormParams,
    spec: InteractionSpec,
    T: float,
    dt: float,
    quadrature="trapezoid",
) -> StudyReport:
    """Truncation-difference ratios against the initial-data tail.

    Solves each truncation once from the shared data and, for each pair
    N1 < N2, reports ||B(Gamma_N1 - Gamma_N2)||_{L2_t H_xi} and the sup-in-time
    trajectory difference against ||P_{>N1} Gamma0||_{H_xi'}.  The nested
    scale chain xi < eta*xi'' < eta^2*xi' is recorded as a flag, not
    enforced: the ratios are well defined either way, only the bound's
    guarantee needs the chain.
    """
    N_list = _check_truncations(N_list, spec)
    if gamma0.N < N_list[-1]:
        raise ValueError("initial data has fewer levels than max(N_list)")
    rule = QuadratureRule.of(quadrature)
    S = _resolve_steps(T, dt)
    w = rule.weights(S, dt)
    grid = gamma0.grid
    half = spec.half
    alpha, xi, xi_p = params.alpha, params.xi, params.xi_prime

    report = StudyReport(
        study="cauchy",
        inputs={
            "N_list": list(N_list),
            "alpha": alpha,
            "xi": xi,
            "xi2": params.xi2,
            "xi_prime": xi_p,
            "eta": params.eta,
            "M": grid.M,
            "T": T,
            "dt": dt,
            "p": spec.p,
            "mu": spec.mu,
            "quadrature": rule.kind,
        },
    )
    if not params.cauchy_chain_ok():
        report.warnings.append(
            "scale chain xi < eta*xi'' < eta^2*xi' violated; ratios reported anyway"
        )

    hat0 = _initial_hats(gamma0)
    # one march per truncation on its first N levels, in lockstep; every pair reads the shared nodes
    marches = {N: _march(grid, {n: hat0[n] for n in range(1, N + 1)}, spec, S, dt, rule) for N in set(N_list)}
    pairs = list(itertools.combinations(N_list, 2))
    bnorms = {(N1, N2): {n: np.zeros(S + 1) for n in range(1, N2 - half + 1)} for N1, N2 in pairs}
    sup_diff = dict.fromkeys(pairs, 0.0)
    for nodes in zip(*marches.values()):
        i = nodes[0][0]
        assert all(s == i for s, _ in nodes)
        h = {N: hats for N, (_, hats) in zip(marches, nodes)}
        for N1, N2 in pairs:
            h1, h2, rows = h[N1], h[N2], bnorms[N1, N2]
            diff_norm = 0.0
            for m in range(1, N2 + 1):
                # a level beyond N1 differs by -h2, whose norms are those of h2
                dh = _hat_difference(h1[m], h2[m]) if m in h1 else h2[m]
                diff_norm += xi**m * _h_alpha_norm_hat(dh, grid, m, alpha)
                if m > half:
                    rows[m - half][i] = _h_alpha_norm_hat(fourier_collapse(dh, grid, m, half), grid, m - half, alpha)
                del dh
            sup_diff[N1, N2] = max(sup_diff[N1, N2], diff_norm)
    pair_rows = []
    bnorm_store = {}
    for N1, N2 in pairs:
        l2_bdiff = l2_in_time(w, _xi_series(bnorms[N1, N2], xi, S))
        tail = sum(xi_p**n * _h_alpha_norm_hat(hat0[n], grid, n, alpha) for n in range(N1 + 1, gamma0.N + 1))
        pair_rows.append(
            {
                "N1": N1,
                "N2": N2,
                "bdiff_l2": l2_bdiff,
                "traj_diff_sup": sup_diff[N1, N2],
                "tail_xi_prime": tail,
                # no tail (N1 is the deepest level of the data): the ratios are undefined
                "ratio_l2_over_tail": l2_bdiff / tail if tail > 0 else None,
                "ratio_sup_over_tail": sup_diff[N1, N2] / tail if tail > 0 else None,
                # both marches start levels 1..N1 from the same _initial_hats objects
                "shared_levels_equal": True,
            }
        )
        bnorm_store[(N1, N2)] = (bnorms[N1, N2], tail)
    report.tables["pairs"] = pair_rows

    finite = [r["ratio_l2_over_tail"] for r in pair_rows if r["ratio_l2_over_tail"] is not None]
    if finite:
        report.fitted["max_ratio"] = float(max(finite))
        report.fitted["min_ratio"] = float(min(finite))
        if min(finite) > 0:
            report.fitted["ratio_spread"] = float(max(finite) / min(finite))

        def max_ratio_at(xi_test: float) -> float:
            vals = []
            for (N1, N2), (bnorms, tail) in bnorm_store.items():
                if tail > 0:
                    vals.append(l2_in_time(w, _xi_series(bnorms, xi_test, S)) / tail)
            return max(vals) if vals else np.nan

        base = max_ratio_at(xi)
        lo, hi = xi, xi_p
        if max_ratio_at(hi * (1 - 1e-9)) <= 2 * base:
            eta_hat = 1.0
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if max_ratio_at(mid) <= 2 * base:
                    lo = mid
                else:
                    hi = mid
            eta_hat = lo / xi_p
        report.fitted["eta_hat"] = float(eta_hat)
        report.fitted["eta_hat_base_ratio"] = float(base)
    report.fitted["samples"] = float(len(pair_rows))
    return report


def boardgame_probe(
    n,
    j_range,
    gamma_test: HierarchyState,
    spec: InteractionSpec,
    T: float,
    params: NormParams,
    quadrature="trapezoid",
    dt: float = 1e-3,
) -> StudyReport:
    """Decay of collapsed iterated Duhamel terms in the iteration depth j.

    ratio_j = ||B Duh_j(t)||_{L2_t H^alpha} / ||B U(t) gamma0^(n+jp/2)||_{L2_t H^alpha};
    j=1 gives ratio 1 by construction.  Fits log ratio_j ~ slope*j to
    estimate c0_hat from the (c0*T)^(j/2) scaling; with several n values,
    fits the intercepts against n for C0_hat.
    """
    rule = QuadratureRule.of(quadrature)
    S = _resolve_steps(T, dt)
    w = rule.weights(S, dt)
    n_values = [n] if isinstance(n, int) else list(n)
    j_values = sorted(j_range)
    if min(j_values) < 1:
        raise ValueError("iteration depths must be >= 1")
    if max(j_values) > 4:
        raise ValueError("iteration depth capped at 4 (nested-integral cost)")
    grid = gamma_test.grid
    half = spec.half
    alpha = params.alpha
    for nv in n_values:
        if nv + max(j_values) * half > gamma_test.N:
            raise ValueError(
                f"n={nv}, j={max(j_values)} needs level {nv + max(j_values) * half} > N={gamma_test.N}"
            )

    rows = []
    intercepts = {}
    for nv in n_values:
        log_ratios = []
        for j in j_values:
            deepest = nv + j * half
            # the deepest level only evolves freely
            deep_hat = _level_hat(gamma_test, deepest)
            lhs_nodes = [
                _h_alpha_norm_hat(fourier_collapse(h, grid, nv + half, half), grid, nv, alpha)
                for h in _duhamel_nodes(j, nv, grid, deep_hat, spec, S, dt, rule)
            ]
            lhs = l2_in_time(w, lhs_nodes)
            deep_norm = _h_alpha_norm_hat(deep_hat, grid, deepest, alpha)
            rhs = l2_in_time(w, _free_collapse_norms({deepest: deep_hat}, grid, spec, S, dt, alpha)[deepest - half])
            # normalizers at the rounding floor mean a vanishing collapse
            # (constant-modulus data); the ratio is then 0/0, undefined
            degenerate = rhs <= 1e-11 * max(deep_norm, 1.0) * np.sqrt(T)
            ratio = None if degenerate else lhs / rhs
            rows.append(
                {"n": nv, "j": j, "lhs": lhs, "rhs": rhs, "ratio": ratio, "degenerate": degenerate}
            )
            if not degenerate and ratio > 0:
                log_ratios.append((j, np.log(ratio)))
        if len(log_ratios) >= 2:
            js = np.array([x[0] for x in log_ratios], dtype=float)
            ys = np.array([x[1] for x in log_ratios])
            intercepts[nv] = np.polyfit(js, ys, 1)[1]

    report = StudyReport(
        study="boardgame",
        inputs={
            "n": n_values,
            "j_range": j_values,
            "alpha": alpha,
            "M": grid.M,
            "T": T,
            "dt": dt,
            "p": spec.p,
            "mu": spec.mu,
            "quadrature": rule.kind,
        },
        tables={"ratios": rows},
    )
    valid = [r for r in rows if not r["degenerate"]]
    if not valid:
        report.warnings.append("all ratios degenerate (vanishing normalizer)")
        return report
    last_n = n_values[-1]
    per_j = {r["j"]: r["ratio"] for r in rows if r["n"] == last_n and not r["degenerate"]}
    if len(per_j) >= 2:
        js = np.array(sorted(per_j), dtype=float)
        ys = np.log([per_j[j] for j in js])
        slope, intercept = np.polyfit(js, ys, 1)
        resid = float(np.sqrt(np.mean((ys - (slope * js + intercept)) ** 2)))
        report.fitted["slope_log_ratio_vs_j"] = float(slope)
        report.fitted["c0_hat"] = float(np.exp(2 * slope) / T)
        report.fitted["fit_residual"] = resid
        report.fitted["geometric_decay"] = float(
            all(per_j[js[i + 1]] <= per_j[js[i]] for i in range(len(js) - 1))
        )
    if len(intercepts) >= 2:
        ns = np.array(sorted(intercepts), dtype=float)
        ys = np.array([intercepts[v] - np.log(v) for v in ns])
        c0slope, _ = np.polyfit(ns, ys, 1)
        report.fitted["C0_hat"] = float(np.exp(c0slope))
    report.fitted["samples"] = float(len(valid))
    return report


def km_report(
    trajectory: Trajectory,
    params: NormParams,
    quadrature="trapezoid",
) -> StudyReport:
    """A posteriori spacetime bound: sup-in-time state norm, L2-in-time
    norm of B Gamma, and the Theta fixed-point residual."""
    nodes = zip(trajectory.times, trajectory.hats)
    S = len(trajectory.times) - 1
    return _km_report(nodes, trajectory.grid, trajectory.spec, params, S, trajectory.dt, quadrature)


def _km_report(
    nodes, grid: TorusGrid, spec: InteractionSpec, params: NormParams, S: int, dt: float, quadrature="trapezoid"
) -> StudyReport:
    """km_report over the S + 1 streamed nodes (t, {level: packed or product level}) of a dt grid.

    One pass: each node's state norm, Theta = B Gamma and its fixed-point
    defect are computed as the node streams by (_theta_defects), and no
    node or Theta sample is kept past its step.
    """
    rule = QuadratureRule.of(quadrature)
    alpha, xi = params.alpha, params.xi
    rows, defects = [], []
    for t, hats, theta, defect in _theta_defects(nodes, None, grid, spec, S, dt, rule, xi, alpha):
        rows.append(
            {
                "t": float(t),
                "hxi_norm": _hxi_norm_hat(hats, grid, xi, alpha),
                "bhat_hxi_norm": _hxi_norm_hat(theta, grid, xi, alpha),
            }
        )
        defects.append(defect)
    w = rule.weights(S, dt)
    fitted = {
        "sup_t_hxi_norm": max(r["hxi_norm"] for r in rows),
        "l2_t_bhat_norm": l2_in_time(w, [r["bhat_hxi_norm"] for r in rows]),
        "theta_residual": l2_in_time(w, defects),
        "samples": float(len(rows)),
    }
    return StudyReport(
        study="km-report",
        inputs={
            "alpha": alpha,
            "xi": xi,
            "N": len(hats),
            "M": grid.M,
            "T": rows[-1]["t"],
            "dt": dt,
            "p": spec.p,
            "mu": spec.mu,
            "quadrature": rule.kind,
        },
        tables={"per_time": rows},
        fitted=fitted,
    )
