"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Scales are desk-sized for a single-core box: stationary pipeline at M=6
(grid size is not pinned by the criterion; the 1-minute budget rules out
M=8, whose top level alone is 2^24 entries), truncation sweeps reaching
N=5 at M=4 (M=8 at N=5 is 2^30 entries, beyond the dense-tensor guard),
ensemble ratios at M=8 and M=12 with three-level draws.
"""

import time

import numpy as np
import pytest

from gphier import (
    HierarchyState,
    InteractionSpec,
    NormParams,
    b_collapse,
    b_hat,
    compare_hierarchy_vs_nls,
    cosine_field,
    free_evolve,
    h_alpha_norm,
    make_grid,
    nls_solve,
    parse_config,
    partial_trace,
    plane_wave_field,
    reconstruct_bhat,
    run_experiment,
    solve_oracle,
    solve_truncated,
    strichartz_study,
    theta_residual,
    trace,
    validate_marginal,
)
from gphier.studies import boardgame_probe, cauchy_study

CUBIC = InteractionSpec(2, 1)
ALPHA = 1.0
XI = 0.02


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _hxi_distance(a, b, xi=XI, alpha=ALPHA):
    return sum(xi**k * h_alpha_norm(a.level(k) - b.level(k), alpha) for k in range(1, a.N + 1))


def test_criterion_1_stationary_pipeline():
    # plane-wave factorized data, N=4, T=1, dt=1e-3: constant levels, zero collapse
    grid = make_grid(1, 6, 2 * np.pi)
    wf = plane_wave_field(grid, 1)
    g0 = HierarchyState.factorized(wf.values, 4, grid)
    t0 = time.perf_counter()
    traj = solve_truncated(g0, CUBIC, T=1.0, dt=1e-3, store_every=100)
    states = traj.states
    level_dev = max(
        h_alpha_norm(st.level(k) - g0.level(k), ALPHA) for st in states for k in range(1, 5)
    )
    bhat_norm = max(
        h_alpha_norm(b_hat(st, CUBIC).level(k), ALPHA) for st in states for k in (1, 2, 3)
    )
    wall = time.perf_counter() - t0
    ok = level_dev <= 1e-9 and bhat_norm <= 1e-10 and wall < 60
    _report(1, ok, f"level deviation {level_dev:.2e} (<=1e-9), ||B Gamma|| {bhat_norm:.2e} (<=1e-10), {wall:.1f}s (<60s)")


def test_criterion_2_oracle_equivalence():
    # smooth data, N=3: Volterra vs integrating-factor RK4, order-2 refinement
    grid = make_grid(1, 8, 2 * np.pi)
    g0 = HierarchyState.factorized(cosine_field(grid).values, 3, grid)
    t0 = time.perf_counter()
    dts = [1e-3, 5e-4, 2.5e-4]
    dists = []
    for dt in dts:
        tv = solve_truncated(g0, CUBIC, T=0.1, dt=dt, store_every=None)
        to = solve_oracle(g0, CUBIC, T=0.1, dt=dt, store_every=None)
        dists.append(_hxi_distance(tv.state(-1), to.state(-1)))
    rel = dists[0] / (XI * h_alpha_norm(g0.level(1), ALPHA))
    slope = np.polyfit(np.log(dts), np.log(dists), 1)[0]
    wall = time.perf_counter() - t0
    ok = dists[0] <= 1e-6 and rel <= 1e-6 and abs(slope - 2.0) <= 0.5 and wall < 300
    _report(2, ok, f"terminal distance {dists[0]:.2e} (<=1e-6), slope {slope:.2f} (2.0+-0.5), {wall:.1f}s (<5min)")


def test_criterion_3_duhamel_reconstruction():
    # the finite Duhamel sum equals B of the solved trajectory; this pins
    # the (-i mu)^(j-1) prefactor convention
    worst_a = 0.0
    grid = make_grid(1, 8, 2 * np.pi)
    g0 = HierarchyState.factorized(cosine_field(grid).values, 3, grid)
    T, dt = 0.1, 1e-3
    traj = solve_truncated(g0, CUBIC, T=T, dt=dt, store_every=50)
    for idx, t in ((1, T / 2), (2, T)):
        for n in (1,):
            ref = b_collapse(traj.state(idx).level(n + 1), CUBIC)
            rec = reconstruct_bhat(n, t, g0, CUBIC, dt=dt)
            worst_a = max(worst_a, h_alpha_norm(rec - ref, ALPHA))
    grid4 = make_grid(1, 4, 2 * np.pi)
    g5 = HierarchyState.factorized(cosine_field(grid4).values, 5, grid4)
    traj5 = solve_truncated(g5, CUBIC, T=T, dt=dt, store_every=50)
    worst_b = 0.0
    for idx, t in ((1, T / 2), (2, T)):
        for n in range(1, 5):
            ref = b_collapse(traj5.state(idx).level(n + 1), CUBIC)
            rec = reconstruct_bhat(n, t, g5, CUBIC, dt=dt)
            worst_b = max(worst_b, h_alpha_norm(rec - ref, ALPHA))
    ok = worst_a <= 1e-5 and worst_b <= 1e-4
    _report(3, ok, f"N=3 j<=2 defect {worst_a:.2e} (<=1e-5); N=5 j<=4 defect {worst_b:.2e} (<=1e-4)")


def test_criterion_4_nls_consistency():
    # level-1 error vs split-step NLS strictly decreasing along N=2..5
    grid = make_grid(1, 4, 2 * np.pi)
    phi = cosine_field(grid)
    h1 = np.sqrt(h_alpha_norm(HierarchyState.factorized(phi.values, 1, grid).level(1), 1.0))
    wave = nls_solve(phi, CUBIC, T=0.1, dt=1e-3, store_every=100)
    errs = []
    for N in (2, 3, 4, 5):
        g0 = HierarchyState.factorized(phi.values, N, grid)
        traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=None)
        errs.append(compare_hierarchy_vs_nls(traj, wave, ALPHA, XI)[-1]["level_1_error"])
    ratios = [errs[i + 1] / errs[i] for i in range(3)]
    ok = (
        abs(h1 - 1.0) < 0.1
        and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        and all(r <= 0.8 for r in ratios)
        and errs[-1] <= 1e-3
    )
    _report(4, ok, f"||phi0||_H1={h1:.3f}, errors {['%.2e' % e for e in errs]}, ratios {['%.2f' % r for r in ratios]} (<=0.8), N=5 error {errs[-1]:.2e} (<=1e-3)")


def test_criterion_5_cauchy_property():
    # truncation-difference ratios uniformly bounded against the data tail
    grid = make_grid(1, 4, 2 * np.pi)
    params = NormParams(alpha=ALPHA, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.5)
    assert params.cauchy_chain_ok()
    g0 = HierarchyState.factorized(cosine_field(grid).values, 5, grid)
    rep = cauchy_study(g0, [3, 4, 5], params, CUBIC, T=0.1, dt=1e-3)
    rows = rep.tables["pairs"]
    l2r = [r["ratio_l2_over_tail"] for r in rows]
    supr = [r["ratio_sup_over_tail"] for r in rows]
    spread_l2 = max(l2r) / min(l2r)
    spread_sup = max(supr) / min(supr)
    r2 = h_alpha_norm(g0.level(1), ALPHA)
    tail_defect = max(
        abs(r["tail_xi_prime"] - sum((0.2 * r2) ** k for k in range(r["N1"] + 1, 6)))
        / r["tail_xi_prime"]
        for r in rows
    )
    ok = (
        all(np.isfinite(x) for x in l2r + supr)
        and spread_l2 <= 10
        and spread_sup <= 10
        and tail_defect <= 1e-12
    )
    _report(5, ok, f"L2 ratio spread {spread_l2:.2f}, sup ratio spread {spread_sup:.2f} (<=10), tail vs geometric series {tail_defect:.2e} (<=1e-12)")


def test_criterion_6_free_strichartz_ensemble():
    # 100-draw seeded ensemble: finite ratios, max stable under M 8->12 and
    # quadrature refinement
    t0 = time.perf_counter()
    params = NormParams(alpha=ALPHA, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.5)
    spec = CUBIC
    runs = {}
    for label, M, dt in (("M8", 8, 4e-3), ("M8_fine", 8, 2e-3), ("M12", 12, 4e-3)):
        grid = make_grid(1, M, 2 * np.pi)
        rep = strichartz_study(100, params, grid, spec, T=0.1, dt=dt, n_levels=3, seed=2026)
        assert all(np.isfinite(r["ratio"]) for r in rep.tables["per_draw"])
        runs[label] = rep.fitted["max_ratio"]
    base = runs["M8"]
    dev_fine = abs(runs["M8_fine"] - base) / base
    dev_m12 = abs(runs["M12"] - base) / base
    wall = time.perf_counter() - t0
    ok = dev_fine <= 0.2 and dev_m12 <= 0.2 and wall < 600
    _report(6, ok, f"max ratios M8={runs['M8']:.4f} M8/dt2={runs['M8_fine']:.4f} M12={runs['M12']:.4f}; changes {100*dev_fine:.1f}%, {100*dev_m12:.1f}% (<=20%), {wall:.0f}s (<10min)")


def test_criterion_7_boardgame_probe():
    # geometric decay of the j-ratio ladder, and the T-halving factor at
    # j=3 consistent with the (c0 T)^(j/2)-type scaling within a factor 2
    grid = make_grid(1, 6, 2 * np.pi)
    params = NormParams(alpha=ALPHA, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.5)
    g0 = HierarchyState.factorized(cosine_field(grid).values, 4, grid)
    rep_full = boardgame_probe(1, [1, 2, 3], g0, CUBIC, T=0.05, params=params, dt=1e-3)
    rep_half = boardgame_probe(1, [1, 2, 3], g0, CUBIC, T=0.025, params=params, dt=1e-3)
    full = {r["j"]: r["ratio"] for r in rep_full.tables["ratios"]}
    half = {r["j"]: r["ratio"] for r in rep_half.tables["ratios"]}
    monotone = full[1] >= full[2] >= full[3]
    factor = full[3] / half[3]
    ok = monotone and np.sqrt(2) <= factor <= 4 * np.sqrt(2)
    _report(7, ok, f"ratios {['%.3e' % full[j] for j in (1,2,3)]} decay, j=3 T-halving factor {factor:.2f} in [1.41, 5.66]")


def test_criterion_8_structural_invariants():
    grid = make_grid(1, 8, 2 * np.pi)
    phi = cosine_field(grid).values
    g0 = HierarchyState.factorized(phi, 3, grid)
    traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=10)
    worst_drift_coupled = worst_drift_free = worst_defect = 0.0
    for st in traj.states:
        for k in (1, 2, 3):
            drift = abs(trace(st.level(k)) - trace(g0.level(k)))
            if k + 1 <= 3:
                worst_drift_coupled = max(worst_drift_coupled, drift)
            else:
                worst_drift_free = max(worst_drift_free, drift)
            rep = validate_marginal(st.level(k), check_positivity=False)
            worst_defect = max(worst_defect, rep.hermiticity_defect, rep.symmetry_defect)
    # admissibility: the partial trace commutes with the free evolution and
    # reproduces the lower level for factorized (admissible) data
    adm = 0.0
    for t in (0.0, 0.05, 0.1):
        upper = free_evolve(g0.level(3), t)
        lower = free_evolve(g0.level(2), t)
        adm = max(adm, h_alpha_norm(partial_trace(upper) - lower, ALPHA))
    ok = (
        worst_drift_coupled <= 1e-8
        and worst_drift_free <= 1e-12
        and worst_defect <= 1e-9
        and adm <= 1e-8
    )
    _report(8, ok, f"trace drift coupled {worst_drift_coupled:.2e} (<=1e-8) free {worst_drift_free:.2e} (<=1e-12), defects {worst_defect:.2e} (<=1e-9), admissibility {adm:.2e} (<=1e-8)")


def test_criterion_9_theta_fixed_point():
    grid = make_grid(1, 4, 2 * np.pi)
    phi = cosine_field(grid).values
    # quadrature regime: residual of the near-exact (order-4) solution
    g4 = HierarchyState.factorized(phi, 4, grid)
    res_dt = []
    for dt in (1e-3, 5e-4):
        traj = solve_oracle(g4, CUBIC, T=0.1, dt=dt, store_every=1)
        res_dt.append(theta_residual(traj, XI, ALPHA, "trapezoid"))
    # truncation regime: residual against common deeper reference data
    g5 = HierarchyState.factorized(phi, 5, grid)
    g6 = HierarchyState.factorized(phi, 6, grid)
    tr4 = solve_truncated(g5.truncate(4), CUBIC, T=0.1, dt=5e-3, store_every=1)
    tr5 = solve_truncated(g6.truncate(5), CUBIC, T=0.1, dt=5e-3, store_every=1)
    res_n4 = theta_residual(tr4, XI, ALPHA, reference_data=g5)
    res_n5 = theta_residual(tr5, XI, ALPHA, reference_data=g6)
    ok = res_dt[0] <= 1e-4 and res_dt[1] < res_dt[0] and res_n5 < res_n4
    _report(9, ok, f"residual {res_dt[0]:.2e} (<=1e-4), dt/2 -> {res_dt[1]:.2e} (decreases), N=4 tail {res_n4:.2e} -> N=5 {res_n5:.2e} (decreases)")


def test_criterion_10_determinism(tmp_path):
    text = "M = 4\nN = 3\nT = 0.02\ndt = 0.001\nstore_every = 5\nsolver = volterra\nseed = 3\n"
    outputs = []
    for sub in ("a", "b"):
        cfg = parse_config(text)
        out = tmp_path / sub
        assert run_experiment(cfg, "evolve", out_dir=str(out)) == 0
        outputs.append(
            b"".join(
                (out / name).read_bytes()
                for name in (
                    "evolve_volterra_levels.csv",
                    "evolve_volterra_norms.csv",
                    "evolve_volterra_invariants.csv",
                )
            )
        )
    ok = outputs[0] == outputs[1]
    _report(10, ok, f"repeated run CSVs byte-identical ({len(outputs[0])} bytes compared)")
