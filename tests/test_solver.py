import collections
import tracemalloc
import weakref

import numpy as np
import pytest

from gphier import (
    HierarchyState,
    InteractionSpec,
    NormParams,
    QuadratureRule,
    Trajectory,
    b_collapse,
    b_hat,
    cosine_field,
    duhamel_term,
    free_evolve,
    h_alpha_norm,
    hxi_norm,
    make_grid,
    nls_solve,
    plane_wave_field,
    reconstruct_bhat,
    solve_oracle,
    solve_truncated,
    theta_residual,
    trace,
    validate_marginal,
    zero_marginal,
)
from gphier._kernels import multiplier_tensor, phase_tensor
from gphier._packed import pack
from gphier.marginal import _free_nodes, _packed_hat
from gphier.solver import (
    _Cumulative,
    _duhamel_nodes,
    _initial_hats,
    _level_hat,
    _march,
    _materialize,
    _oracle_nodes,
    _theta_defects,
    _Volterra,
    _volterra_nodes,
    l2_in_time,
)
from gphier.studies import _km_report

GRID = make_grid(1, 8, 2 * np.pi)
CUBIC = InteractionSpec(2, 1)


def _hxi_distance(a, b, xi=0.02, alpha=1.0):
    return sum(xi**k * h_alpha_norm(a.level(k) - b.level(k), alpha) for k in range(1, a.N + 1))


def test_quadrature_weights_match_polynomials():
    # both rules integrate their exactness class exactly
    for kind, degree in (("trapezoid", 1), ("simpson", 3)):
        rule = QuadratureRule(kind)
        for S in (4, 5, 7, 8):
            dt = 0.1
            w = rule.weights(S, dt)
            for q in range(degree + 1):
                nodes = (np.arange(S + 1) * dt) ** q
                exact = (S * dt) ** (q + 1) / (q + 1)
                assert np.dot(w, nodes) == pytest.approx(exact, rel=1e-12), (kind, S, q)
    with pytest.raises(ValueError):
        QuadratureRule("midpoint")


def test_cumulative_matches_weights():
    rng = np.random.default_rng(5)
    for kind in ("trapezoid", "simpson"):
        rule = QuadratureRule(kind)
        S, dt = 9, 0.05
        f = rng.standard_normal((S + 1, 3))
        cum = _Cumulative(rule, dt)
        got = {}
        for i in range(S + 1):
            for s, Q in cum.push(f[i]):
                got[s] = Q.copy()
        for m in range(2, S + 1):
            np.testing.assert_allclose(
                got[m], np.tensordot(rule.weights(m, dt), f[: m + 1], axes=1), atol=1e-13
            )


@pytest.mark.parametrize("d, M, ks", [(1, 8, (1, 2, 3)), (2, 4, (1, 2))])
def test_phase_tensor_is_exp_of_the_multiplier(d, M, ks):
    # the packed phases are those of the dense multiplier at the sorted
    # representatives.  |t| is small enough that the rounding of t * lambda
    # in the reference exp stays inside the bound
    grid = make_grid(d, M, 2 * np.pi)
    for k in ks:
        lam = multiplier_tensor(grid, k)
        for t in (0.0, 0.37, -1.3):
            got = phase_tensor(grid, k, t)
            want = pack(np.exp(-1j * t * lam), grid, k)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * 2 * k * d, err_msg=f"k={k} t={t}")
    with pytest.raises(ValueError, match="finite"):
        phase_tensor(grid, 1, np.nan)


def test_free_nodes_of_a_dense_level_do_not_drift():
    # a level that is not a product: packed
    # every node takes the phases of its own time, so node 2*10^4 is as
    # close to exp(-i t lambda) hat as node 1; a stream of repeated step
    # multiplies drifts by about 1e-12 here
    k, dt, S = 2, 1e-5, 20000
    rng = np.random.default_rng(3)
    shape = (GRID.M,) * GRID.axis_count(k)
    hat = pack(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), GRID, k)
    lam = pack(multiplier_tensor(GRID, k), GRID, k)
    scale = np.abs(hat).max()
    for i, node in zip(range(S + 1), _free_nodes(GRID, k, hat, dt)):
        if i % 1000 == 0:
            err = np.abs(node - np.exp(-1j * (i * dt) * lam) * hat).max() / scale
            assert err <= 1e-14, (i, err)


def _direct_volterra(g, base, rule, s, dt, mu):
    """U(t_s)[base - i*mu sum_r w_r U(-t_r) g_r] with exact phases."""
    if s == 0:
        w = np.zeros(1)
    elif s == 1 and rule.kind == "simpson":
        w = (dt / 12) * np.array([5.0, 8.0, -1.0])  # node 1 also reads g_2
    else:
        w = rule.weights(s, dt)
    acc = sum(w[r] * np.conj(phase_tensor(GRID, 1, r * dt)) * g[r] for r in range(len(w)))
    return phase_tensor(GRID, 1, s * dt) * (base - 1j * mu * acc)


def test_volterra_matches_direct_weighted_sum():
    # dt is large enough that U(t_1) and U(t_2) differ visibly, so a phase
    # taken at the wrong node (Simpson finalizes node 1 at push 2) shows
    rng = np.random.default_rng(9)
    dt, shape = 0.05, (GRID.M,) * 2
    for kind in ("trapezoid", "simpson"):
        rule = QuadratureRule(kind)
        for S in (2, 3, 8, 9):
            g = rng.standard_normal((S + 1,) + shape) + 1j * rng.standard_normal((S + 1,) + shape)
            for base, mu in ((None, 1), (rng.standard_normal(shape) + 0j, -1)):
                vol = _Volterra(GRID, 1, InteractionSpec(2, mu), dt, rule, base=base)
                nodes = list(vol.stream(iter(g)))
                assert len(nodes) == S + 1
                for s, x in enumerate(nodes):
                    want = _direct_volterra(g, 0 if base is None else base, rule, s, dt, mu)
                    np.testing.assert_allclose(x, want, rtol=0, atol=1e-13, err_msg=f"{kind} S={S} s={s}")


def test_stationary_plane_wave_trajectory():
    wf = plane_wave_field(GRID, 1)
    g0 = HierarchyState.factorized(wf.values, 3, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.2, dt=2e-3, store_every=20)
    for st in traj.states:
        for k in (1, 2, 3):
            assert h_alpha_norm(st.level(k) - g0.level(k), 1.0) <= 1e-10


def test_degenerate_truncation_is_free():
    # N < 1 + p/2: no coupling range at all, the whole hierarchy is free
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 1, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=25)
    for st in traj.states:
        assert h_alpha_norm(st.level(1), 1.0) == pytest.approx(h_alpha_norm(g0.level(1), 1.0), abs=1e-12)


def test_zero_collapse_top_keeps_lower_level_free():
    # a constant-modulus top level has vanishing collapse, so the coupled
    # level below it stays exactly zero and the top evolves freely
    wf = plane_wave_field(GRID, 2)
    levels = [zero_marginal(GRID, 1), HierarchyState.factorized(wf.values, 2, GRID).level(2)]
    g0 = HierarchyState(GRID, levels)
    traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=25)
    for st in traj.states:
        assert h_alpha_norm(st.level(2), 1.0) == pytest.approx(h_alpha_norm(g0.level(2), 1.0), abs=1e-12)
        assert np.max(np.abs(st.level(1).data)) < 1e-13


def test_solver_agreement_and_order():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    dists = []
    for dt in (1e-3, 5e-4):
        tv = solve_truncated(g0, CUBIC, T=0.1, dt=dt, store_every=None)
        to = solve_oracle(g0, CUBIC, T=0.1, dt=dt, store_every=None)
        dists.append(_hxi_distance(tv.state(-1), to.state(-1)))
    assert dists[0] <= 1e-6
    assert dists[0] / dists[1] == pytest.approx(4.0, rel=0.35)  # trapezoid order 2


def test_simpson_march_order():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    dists = []
    for dt in (2e-3, 1e-3):
        tv = solve_truncated(g0, CUBIC, T=0.1, dt=dt, quadrature="simpson", store_every=None)
        ref = solve_oracle(g0, CUBIC, T=0.1, dt=dt / 4, store_every=None)
        dists.append(_hxi_distance(tv.state(-1), ref.state(-1)))
    assert dists[0] / dists[1] == pytest.approx(16.0, rel=0.5)  # order 4


def test_simpson_march_odd_steps_against_oracle():
    # with odd S the endpoint closes with the 3/8 block on the last three
    # intervals; dividing dt by 3 keeps S odd (27, 81), so the error falls by 3^4
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    ref = solve_oracle(g0, CUBIC, T=0.081, dt=2.5e-4, store_every=None)
    dists = []
    for dt in (9e-3, 3e-3):
        tv = solve_truncated(g0, CUBIC, T=0.081, dt=dt, quadrature="simpson", store_every=None)
        dists.append(_hxi_distance(tv.state(-1), ref.state(-1)))
    assert dists[0] / dists[1] == pytest.approx(81.0, rel=0.5)


def test_oracle_self_convergence_order4():
    # dt coarse enough that the error sits above the rounding floor
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    ref = solve_oracle(g0, CUBIC, T=0.1, dt=6.25e-4, store_every=None).state(-1)
    errs = []
    for dt in (1e-2, 5e-3):
        t = solve_oracle(g0, CUBIC, T=0.1, dt=dt, store_every=None)
        errs.append(_hxi_distance(t.state(-1), ref))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)


def test_oracle_zero_data():
    traj = solve_oracle(HierarchyState.zero(GRID, 3), CUBIC, T=0.02, dt=1e-3, store_every=None)
    assert all(np.max(np.abs(traj.state(-1).level(k).data)) == 0 for k in (1, 2, 3))


def test_mu_sign_changes_dynamics():
    phi = cosine_field(GRID).values
    plus = solve_truncated(HierarchyState.factorized(phi, 2, GRID), InteractionSpec(2, 1), 0.05, 1e-3, store_every=None)
    minus = solve_truncated(HierarchyState.factorized(phi, 2, GRID), InteractionSpec(2, -1), 0.05, 1e-3, store_every=None)
    assert _hxi_distance(plus.state(-1), minus.state(-1)) > 1e-8


def test_quintic_smoke_n3():
    g4 = make_grid(1, 4, 2 * np.pi)
    phi = cosine_field(g4).values
    spec = InteractionSpec(4, 1)
    g0 = HierarchyState.factorized(phi, 3, g4)
    traj = solve_truncated(g0, spec, T=0.05, dt=1e-3, store_every=None)
    final = traj.state(-1)
    assert abs(trace(final.level(1)) - 1.0) <= 1e-8
    rep = validate_marginal(final.level(1), check_positivity=False)
    assert rep.hermiticity_defect <= 1e-9
    # cross-check against the oracle integrator
    to = solve_oracle(g0, spec, T=0.05, dt=1e-3, store_every=None)
    assert _hxi_distance(final, to.state(-1)) <= 1e-6


def test_trajectory_structural_preservation():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.1, dt=1e-3, store_every=20)
    for st in traj.states:
        for k in (1, 2, 3):
            rep = validate_marginal(st.level(k), check_positivity=False)
            assert rep.hermiticity_defect <= 1e-9
            assert rep.symmetry_defect <= 1e-9
            drift = abs(trace(st.level(k)) - trace(g0.level(k)))
            assert drift <= (1e-12 if k == 3 else 1e-8)


def test_solver_input_validation():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 2, GRID)
    with pytest.raises(ValueError):
        solve_truncated(g0, CUBIC, T=0.1, dt=3e-4)  # dt does not divide T
    with pytest.raises(ValueError):
        solve_truncated(g0, CUBIC, T=0.1, dt=1e-2, store_every=3)  # 3 does not divide 10
    # S=1: Simpson falls back to the trapezoid, in the march as in its weights
    simpson = solve_truncated(g0, CUBIC, T=1e-2, dt=1e-2, quadrature="simpson")
    trapezoid = solve_truncated(g0, CUBIC, T=1e-2, dt=1e-2, quadrature="trapezoid")
    assert np.array_equal(simpson.state(1).level(1).data, trapezoid.state(1).level(1).data)


@pytest.mark.parametrize("store_every", [0, -5])
def test_store_every_below_one_rejected(store_every):
    wf = cosine_field(GRID)
    g0 = HierarchyState.factorized(wf.values, 2, GRID)
    with pytest.raises(ValueError, match="store_every"):
        solve_truncated(g0, CUBIC, T=0.01, dt=1e-3, store_every=store_every)
    with pytest.raises(ValueError, match="store_every"):
        solve_oracle(g0, CUBIC, T=0.01, dt=1e-3, store_every=store_every)
    with pytest.raises(ValueError, match="store_every"):
        nls_solve(wf, CUBIC, T=0.01, dt=1e-3, store_every=store_every)


@pytest.mark.parametrize("T,dt", [(np.inf, 1e-3), (0.1, np.inf), (0.1, 1e-320), (np.nan, 1e-3), (-0.1, -1e-3)])
def test_non_finite_time_grid_rejected(T, dt):
    g0 = HierarchyState.factorized(cosine_field(GRID).values, 2, GRID)
    with pytest.raises(ValueError, match="T > 0, dt > 0 and T/dt finite"):
        solve_truncated(g0, CUBIC, T=T, dt=dt)


def test_theta_residual_needs_coupled_levels():
    traj = solve_truncated(HierarchyState.factorized(cosine_field(GRID).values, 1, GRID), CUBIC, T=0.01, dt=1e-3)
    with pytest.raises(ValueError, match="no coupled levels"):
        theta_residual(traj, 0.02, 1.0)


def test_trajectory_type_validation():
    phi = cosine_field(GRID).values
    hats = _initial_hats(HierarchyState.factorized(phi, 2, GRID))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.15]), [hats, hats, hats], GRID, CUBIC)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), [hats], GRID, CUBIC)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), [hats, {1: hats[1]}], GRID, CUBIC)  # levels differ
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), [hats, hats], make_grid(1, 4, 2 * np.pi), CUBIC)  # grid differs


def test_trajectory_state_matches_materialized_march():
    # state(i) is the real-space node built from the march's mode tensors
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.02, dt=1e-3, store_every=5)
    march = _march(GRID, _initial_hats(g0), CUBIC, 20, 1e-3, QuadratureRule("trapezoid"))
    built = [_materialize(GRID, hats) for i, hats in march if i % 5 == 0]
    assert len(built) == len(traj.times) == 5
    for i, ref in enumerate(built):
        for k in (1, 2, 3):
            assert np.array_equal(traj.state(i).level(k).data, ref.level(k).data)
    assert np.array_equal(traj.state(-1).level(3).data, built[-1].level(3).data)


def _drain_peak(nodes) -> int:
    """Peak traced bytes above those live at the start while building and draining nodes()."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        collections.deque(nodes(), maxlen=0)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_streams_keep_no_past_nodes():
    # a stream that keeps finalized nodes alive (itertools.tee holds them
    # in blocks of 57) peaks higher as S grows; these streams hold a fixed
    # number of nodes, so quadrupling S may not add even one level-3 tensor
    grid = make_grid(1, 6, 2 * np.pi)
    g0 = HierarchyState.factorized(cosine_field(grid).values, 4, grid)
    hat0 = _initial_hats(g0)
    deep_hat = _level_hat(g0, 4)
    rule, dt = QuadratureRule("simpson"), 1e-3
    params = NormParams(1.0, 0.02, 0.06, 0.2, 0.3)
    runs = {
        "march": lambda S: _march(grid, hat0, CUBIC, S, dt, rule),
        "duhamel": lambda S: _duhamel_nodes(3, 1, grid, deep_hat, CUBIC, S, dt, rule),
        # the same node at every time keeps the live input small
        "theta": lambda S: _theta_defects(
            ((i * dt, hat0) for i in range(S + 1)), None, grid, CUBIC, S, dt, rule, 0.02, 1.0
        ),
        # a whole km-report: the march, the per-node rows and the residual in one pass
        "km-report": lambda S: [
            _km_report(_volterra_nodes(grid, hat0, CUBIC, S * dt, dt, rule), grid, CUBIC, params, S, dt, rule)
        ],
    }
    level3 = 16 * grid.M**6
    for name, run in runs.items():
        peaks = [_drain_peak(lambda: run(S)) for S in (20, 80)]
        assert peaks[1] - peaks[0] < level3, (name, peaks)


@pytest.mark.parametrize("kind, kept", [("trapezoid", 1), ("simpson", 3)])
def test_cumulative_keeps_only_the_values_later_pushes_read(kind, kept):
    # the trapezoid reads f_(i-1); Simpson's 3/8 block on odd i reads f_(i-3)
    cum = _Cumulative(QuadratureRule(kind), 0.1)
    refs = []
    for i in range(9):
        f = np.full(3, float(i))
        refs.append(weakref.ref(f))
        cum.push(f)
        del f
        assert sum(r() is not None for r in refs) <= kept, (kind, i)


@pytest.mark.parametrize("kind, limit", [("trapezoid", 7.5), ("simpson", 10.6)])
def test_duhamel_chain_memory(kind, limit):
    # the chain of j=3 holds dense levels 2 and 3; the deepest level stays a product
    grid = make_grid(1, 8, 2 * np.pi)
    deep_hat = _level_hat(HierarchyState.factorized(cosine_field(grid).values, 4, grid), 4)
    rule = QuadratureRule(kind)
    peak = _drain_peak(lambda: _duhamel_nodes(3, 1, grid, deep_hat, CUBIC, 6, 1e-3, rule))
    assert peak < limit * 16 * grid.M**6, peak / (16 * grid.M**6)


def test_oracle_nodes_collect_into_solve_oracle():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    traj = solve_oracle(g0, CUBIC, T=0.02, dt=1e-3, store_every=10)
    nodes = list(_oracle_nodes(GRID, _initial_hats(g0), CUBIC, 0.02, 1e-3, 10))
    assert [t for t, _ in nodes] == list(traj.times)
    for (_, hats), ref in zip(nodes, traj.hats):
        for k in (1, 2, 3):
            assert np.array_equal(_packed_hat(hats[k]), _packed_hat(ref[k]))


def test_l2_in_time_matches_weighted_sum():
    w = QuadratureRule("simpson").weights(4, 0.1)
    values = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
    assert l2_in_time(w, values) == float(np.sqrt(np.dot(w, values**2)))
    assert l2_in_time(w, list(values)) == l2_in_time(w, values)


def test_duhamel_j1_is_free_evolution():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    term = duhamel_term(1, 1, g0, CUBIC, t=0.05)
    np.testing.assert_allclose(term.data, free_evolve(g0.level(2), 0.05).data, atol=1e-13)


def test_duhamel_plane_wave_higher_terms_vanish():
    wf = plane_wave_field(GRID, 1)
    g0 = HierarchyState.factorized(wf.values, 4, GRID)
    for j in (2, 3):
        term = duhamel_term(j, 1, g0, CUBIC, t=0.05, dt=1e-3)
        assert np.max(np.abs(b_collapse(term, CUBIC).data)) < 1e-12


def test_duhamel_truncation_and_validation():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    beyond = duhamel_term(4, 1, g0, CUBIC, t=0.05, dt=1e-3)  # level 5 > N: zero
    assert np.max(np.abs(beyond.data)) == 0
    with pytest.raises(ValueError):
        duhamel_term(0, 1, g0, CUBIC, t=0.05)
    with pytest.raises(ValueError):
        duhamel_term(1, 0, g0, CUBIC, t=0.05)


def test_duhamel_j2_against_direct_quadrature_oracle():
    # assemble the j=2 integrand pointwise from the public real-space ops
    phi = cosine_field(make_grid(1, 4, 2 * np.pi)).values
    g4 = make_grid(1, 4, 2 * np.pi)
    g0 = HierarchyState.factorized(phi, 3, g4)
    t, dt = 0.04, 2e-3
    S = round(t / dt)
    term = duhamel_term(2, 1, g0, CUBIC, t=t, dt=dt)
    w = QuadratureRule("trapezoid").weights(S, dt)
    acc = np.zeros_like(term.data)
    for i in range(S + 1):
        s = i * dt
        inner = free_evolve(g0.level(3), s)
        acc = acc + w[i] * free_evolve(b_collapse(inner, CUBIC), t - s).data
    oracle = -1j * CUBIC.mu * acc
    np.testing.assert_allclose(term.data, oracle, atol=1e-12)


def test_reconstruct_single_term_case():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 2, GRID)  # N = 1 + p/2
    rec = reconstruct_bhat(1, 0.03, g0, CUBIC, dt=1e-3)
    expected = b_collapse(free_evolve(g0.level(2), 0.03), CUBIC)
    np.testing.assert_allclose(rec.data, expected.data, atol=1e-12)


def test_reconstruct_matches_solved_bhat():
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    T, dt = 0.1, 1e-3
    traj = solve_truncated(g0, CUBIC, T=T, dt=dt, store_every=50)
    for idx, t in [(1, T / 2), (2, T)]:
        ref = b_collapse(traj.state(idx).level(2), CUBIC)
        rec = reconstruct_bhat(1, t, g0, CUBIC, dt=dt)
        assert h_alpha_norm(rec - ref, 1.0) <= 1e-5


def test_reconstruct_plane_wave_zero():
    wf = plane_wave_field(GRID, 1)
    g0 = HierarchyState.factorized(wf.values, 3, GRID)
    rec = reconstruct_bhat(1, 0.05, g0, CUBIC, dt=1e-3)
    assert np.max(np.abs(rec.data)) < 1e-12


def test_theta_residual_plane_wave_and_zero():
    wf = plane_wave_field(GRID, 1)
    g0 = HierarchyState.factorized(wf.values, 3, GRID)
    traj = solve_truncated(g0, CUBIC, T=0.05, dt=1e-3, store_every=1)
    assert theta_residual(traj, 0.02, 1.0) <= 1e-10
    zero_traj = solve_truncated(HierarchyState.zero(GRID, 3), CUBIC, T=0.05, dt=1e-3, store_every=1)
    assert theta_residual(zero_traj, 0.02, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_theta_residual_quadrature_refinement():
    # residual of the near-exact (4th order) solution measures the rule's
    # own quadrature error and drops at its order under dt halving
    phi = cosine_field(GRID).values
    g0 = HierarchyState.factorized(phi, 3, GRID)
    res = []
    for dt in (2e-3, 1e-3):
        traj = solve_oracle(g0, CUBIC, T=0.1, dt=dt, store_every=1)
        res.append(theta_residual(traj, 0.02, 1.0, "trapezoid"))
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.4)


def test_theta_residual_factorized_reference_matches_its_dense_copy():
    # every level of factorized reference data is a product level; its
    # dense copy goes the real-space route, the same numbers to rounding
    grid = make_grid(1, 4, 2 * np.pi)
    g4 = HierarchyState.factorized(cosine_field(grid).values, 4, grid)
    traj = solve_truncated(g4.truncate(3), CUBIC, T=0.01, dt=1e-3)
    got = theta_residual(traj, 0.02, 1.0, reference_data=g4)
    dense = theta_residual(traj, 0.02, 1.0, reference_data=HierarchyState(grid, g4.levels))
    assert got > 1e-8
    assert got == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("ref_grid", [make_grid(1, 4, 4.0), make_grid(1, 6, 2 * np.pi)], ids=["L", "M"])
def test_theta_residual_rejects_reference_on_another_grid(ref_grid):
    grid = make_grid(1, 4, 2 * np.pi)
    traj = solve_truncated(HierarchyState.factorized(cosine_field(grid).values, 3, grid), CUBIC, T=0.01, dt=1e-3)
    ref = HierarchyState.factorized(cosine_field(ref_grid).values, 4, ref_grid)
    with pytest.raises(ValueError, match="different grids"):
        theta_residual(traj, 0.02, 1.0, reference_data=ref)


def test_oracle_builds_each_phase_set_once_per_stage_time(monkeypatch):
    # M=8, N=4: the phases of the dense levels 1..3 at the mid-step and the
    # end-of-step times, 6 tensors per step (23 if every stage built its own)
    calls = []

    def counted(*args):
        calls.append(args)
        return phase_tensor(*args)

    monkeypatch.setattr("gphier.solver.phase_tensor", counted)
    monkeypatch.setattr("gphier.marginal.phase_tensor", counted)
    hat0 = _initial_hats(HierarchyState.factorized(cosine_field(GRID).values, 4, GRID))
    counts = []
    for S in (4, 8):
        calls.clear()
        collections.deque(_oracle_nodes(GRID, hat0, CUBIC, S * 1e-3, 1e-3), maxlen=0)
        counts.append(len(calls))
    assert (counts[1] - counts[0]) / 4 <= 6, counts


def test_theta_residual_self_consistency_cancellation():
    # own reference, matching rule and every node stored: the defect's
    # Volterra levels are the march's own levels, bit for bit, so the
    # residual is exactly 0, in the focusing and the defocusing case
    cases = [((1, 8, 2, 4), "trapezoid"), ((1, 8, 2, 4), "simpson"), ((1, 6, 2, 5), "simpson")]
    cases += [((1, 6, 4, 5), "trapezoid"), ((2, 4, 2, 3), "trapezoid")]
    for (d, M, p, N), kind in cases:
        grid = make_grid(d, M, 2 * np.pi)
        g0 = HierarchyState.factorized(cosine_field(grid).values, N, grid)
        for mu in (-1, 1):
            traj = solve_truncated(g0, InteractionSpec(p, mu), T=0.05, dt=1e-3, quadrature=kind, store_every=1)
            assert theta_residual(traj, 0.02, 1.0, kind) == 0.0, (d, M, p, N, kind, mu)
