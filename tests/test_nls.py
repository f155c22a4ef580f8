import numpy as np
import pytest

from gphier import (
    HierarchyState,
    InteractionSpec,
    WaveFunction,
    compare_hierarchy_vs_nls,
    cosine_field,
    make_grid,
    nls_solve,
    plane_wave_field,
    solve_truncated,
)

GRID = make_grid(1, 8, 2 * np.pi)
CUBIC = InteractionSpec(2, 1)


def test_plane_wave_exact_phase():
    # phi = c e^{ipx} evolves by the exact phase e^{-it(p^2 + mu |c|^p)}
    for p_order, mu in [(2, 1), (2, -1), (4, 1)]:
        spec = InteractionSpec(p_order, mu)
        wf = plane_wave_field(GRID, 1)
        c = 1 / np.sqrt(GRID.L)
        traj = nls_solve(wf, spec, T=0.1, dt=1e-3, store_every=100)
        omega = GRID.wavenumbers[1] ** 2 + mu * c**p_order
        expected = np.exp(-1j * 0.1 * omega) * wf.values
        assert np.max(np.abs(traj.fields[-1].values - expected)) <= 1e-8


def test_l2_conservation():
    wf = cosine_field(GRID)
    traj = nls_solve(wf, CUBIC, T=0.1, dt=1e-3, store_every=10)
    for f in traj.fields:
        assert abs(f.l2_norm - 1.0) <= 1e-10


def test_conjugation_time_reversal_involution():
    # conj(solve(T, conj(solve(T, phi0)))) returns phi0: evolving the
    # conjugate backwards undoes the flow at fixed mu
    for mu in (1, -1):
        spec = InteractionSpec(2, mu)
        wf = cosine_field(GRID)
        fwd = nls_solve(wf, spec, T=0.05, dt=5e-4, store_every=100).fields[-1]
        back = nls_solve(WaveFunction(GRID, fwd.values.conj()), spec, T=0.05, dt=5e-4, store_every=100).fields[-1]
        assert np.max(np.abs(back.values.conj() - wf.values)) <= 1e-9


def test_strang_order2_self_convergence():
    wf = cosine_field(GRID)
    ref = nls_solve(wf, CUBIC, T=0.1, dt=1.25e-4, store_every=800).fields[-1].values
    errs = []
    for dt in (1e-3, 5e-4):
        got = nls_solve(wf, CUBIC, T=0.1, dt=dt, store_every=round(0.1 / dt)).fields[-1].values
        errs.append(np.max(np.abs(got - ref)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)


def test_nls_input_validation():
    wf = cosine_field(GRID)
    with pytest.raises(ValueError):
        nls_solve(wf, CUBIC, T=0.1, dt=3e-4)
    with pytest.raises(ValueError):
        WaveFunction(GRID, np.ones(6, dtype=complex))
    bad = np.ones(8, dtype=complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(GRID, bad)


def test_compare_plane_wave_all_small():
    wf = plane_wave_field(GRID, 1)
    g0 = HierarchyState.factorized(wf.values, 3, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.05, dt=1e-3, store_every=10)
    wave = nls_solve(wf, CUBIC, T=0.05, dt=1e-3, store_every=10)
    rows = compare_hierarchy_vs_nls(traj, wave, 1.0, 0.02)
    assert rows[0]["hxi_error"] <= 1e-13  # t = 0 exact
    for row in rows:
        for k in (1, 2, 3):
            assert row[f"level_{k}_error"] <= 1e-9


def test_compare_errors_decrease_with_truncation_depth():
    g4 = make_grid(1, 4, 2 * np.pi)
    phi = cosine_field(g4)
    errs = []
    for N in (2, 3, 4):
        g0 = HierarchyState.factorized(phi.values, N, g4)
        traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=None)
        wave = nls_solve(phi, CUBIC, T=0.1, dt=1e-3, store_every=100)
        rows = compare_hierarchy_vs_nls(traj, wave, 1.0, 0.02)
        errs.append(rows[-1]["level_1_error"])
    assert errs[0] > errs[1] > errs[2]
    # truncation error enters at the top level and cascades down, so
    # per-level errors increase with k along a truncated trajectory
    g0 = HierarchyState.factorized(phi.values, 4, g4)
    traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=None)
    wave = nls_solve(phi, CUBIC, T=0.1, dt=1e-3, store_every=100)
    last = compare_hierarchy_vs_nls(traj, wave, 1.0, 0.02)[-1]
    assert last["level_1_error"] < last["level_2_error"] < last["level_3_error"]


def test_compare_t0_row_is_exactly_zero():
    # at t = 0 the stored levels and the NLS product levels share psi_hat
    g4 = make_grid(1, 4, 2 * np.pi)
    phi = cosine_field(g4)
    traj = solve_truncated(HierarchyState.factorized(phi.values, 3, g4), CUBIC, T=0.01, dt=1e-3, store_every=10)
    wave = nls_solve(phi, CUBIC, T=0.01, dt=1e-3, store_every=10)
    first = compare_hierarchy_vs_nls(traj, wave, 1.0, 0.02)[0]
    assert first["t"] == 0.0
    assert [first[f"level_{k}_error"] for k in (1, 2, 3)] + [first["hxi_error"]] == [0.0] * 4


@pytest.mark.parametrize("d, p_order", [(1, 2), (1, 4), (2, 2)])
def test_compare_matches_real_space_oracle(d, p_order):
    # each level error against the kernels built in real space and
    # subtracted there, at every level of every node
    from gphier import factorized_marginal, h_alpha_norm
    from gphier.marginal import _marginal_of

    grid = make_grid(d, 4, 2 * np.pi)
    spec = InteractionSpec(p_order, 1)
    phi = cosine_field(grid)
    traj = solve_truncated(HierarchyState.factorized(phi.values, 3, grid), spec, T=0.004, dt=1e-3)
    wave = nls_solve(phi, spec, T=0.004, dt=1e-3)
    rows = compare_hierarchy_vs_nls(traj, wave, 1.0, 0.02)
    assert len(rows) == len(traj.times) == 5
    for row, hats, field in zip(rows, traj.hats, wave.fields):
        for k, hat in hats.items():
            oracle = h_alpha_norm(_marginal_of(hat, grid, k) - factorized_marginal(field.values, k, grid), 1.0)
            assert row[f"level_{k}_error"] == pytest.approx(oracle, rel=0, abs=1e-13)


def test_product_structure_error_ratio_for_field_perturbations():
    # for factorized states of nearby fields the level-2 distance is a
    # small multiple of the level-1 distance (first-order product rule)
    from gphier import factorized_marginal, h_alpha_norm

    phi = cosine_field(GRID).values
    rng = np.random.default_rng(6)
    pert = phi + 1e-4 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    e1 = h_alpha_norm(factorized_marginal(phi, 1, GRID) - factorized_marginal(pert, 1, GRID), 1.0)
    e2 = h_alpha_norm(factorized_marginal(phi, 2, GRID) - factorized_marginal(pert, 2, GRID), 1.0)
    assert e2 <= 10 * e1


def test_compare_mismatch_rejected():
    wf = cosine_field(GRID)
    g0 = HierarchyState.factorized(wf.values, 2, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.05, dt=1e-3, store_every=10)
    wave = nls_solve(wf, CUBIC, T=0.05, dt=1e-3, store_every=25)
    with pytest.raises(ValueError):
        compare_hierarchy_vs_nls(traj, wave, 1.0, 0.02)
    # equal leading samples, but the NLS run goes on longer
    longer = nls_solve(wf, CUBIC, T=0.1, dt=1e-3, store_every=10)
    with pytest.raises(ValueError, match="different time samples"):
        compare_hierarchy_vs_nls(traj, longer, 1.0, 0.02)
