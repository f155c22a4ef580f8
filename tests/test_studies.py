import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gphier import (
    HierarchyState,
    InteractionSpec,
    NormParams,
    b_hat,
    boardgame_probe,
    cauchy_study,
    cosine_field,
    h_alpha_norm,
    hxi_norm,
    km_report,
    make_grid,
    plane_wave_field,
    random_marginal,
    solve_truncated,
    spacetime_norm,
    strichartz_study,
)
from gphier._kernels import fftn_level, fourier_collapse, multiplier_tensor
from gphier._packed import layout, multiset_products, pack, rank, tuple_ranks, unpack
from gphier._packed import shape as packed_shape
from gphier._packed import weights as packed_weights
from gphier.grid import sobolev_weights
from gphier.marginal import (
    Marginal,
    ProductLevel,
    _free_nodes,
    _h_alpha_norm_hat,
    _h_alpha_norms_hat,
    hermitize,
    symmetrize,
    validate_marginal,
)
from gphier.studies import _free_collapse_norms, _q90, _random_hat
from gphier.solver import QuadratureRule, _level_hat

CUBIC = InteractionSpec(2, 1)
PARAMS = NormParams(alpha=1.0, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.5)


def test_spacetime_norm_constant_integrand():
    grid = make_grid(1, 8, 2 * np.pi)
    wf = plane_wave_field(grid, 1)
    st = HierarchyState.factorized(wf.values, 2, grid)
    times = np.linspace(0.0, 0.1, 11)
    c = hxi_norm(st, 0.02, 1.0)
    got = spacetime_norm(times, [st] * 11, 0.02, 1.0)
    assert got == pytest.approx(c * np.sqrt(0.1), rel=1e-12)
    zeros = [HierarchyState.zero(grid, 2)] * 11
    assert spacetime_norm(times, zeros, 0.02, 1.0) == 0.0


def test_spacetime_norm_of_plane_wave_bhat_vanishes():
    grid = make_grid(1, 8, 2 * np.pi)
    wf = plane_wave_field(grid, 1)
    g0 = HierarchyState.factorized(wf.values, 3, grid)
    traj = solve_truncated(g0, CUBIC, T=0.05, dt=1e-3, store_every=10)
    thetas = [b_hat(st, CUBIC) for st in traj.states]
    assert spacetime_norm(traj.times, thetas, 0.02, 1.0) <= 1e-11


def test_random_marginal_structure():
    grid = make_grid(1, 6, 2 * np.pi)
    gam = random_marginal(grid, 2, np.random.default_rng(3), alpha=1.0)
    rep = validate_marginal(gam, check_positivity=False)
    assert rep.hermiticity_defect <= 1e-12
    assert rep.symmetry_defect <= 1e-12
    assert h_alpha_norm(gam, 1.0) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("d, k", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
def test_random_hat_matches_real_space_draw(d, k):
    # the real-space route as the oracle: the same coefficients, then
    # ifftn, hermitize, symmetrize, the H^alpha norm and fftn_level
    grid = make_grid(d, 4, 2 * np.pi)
    alpha, seed = 1.0, 7 + k
    got = _random_hat(grid, k, np.random.default_rng(seed), alpha)
    rng = np.random.default_rng(seed)
    shape = (grid.M,) * grid.axis_count(k)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    prof = (1.0 + grid.wavenumbers**2) ** (-(alpha + 1.0) / 2.0)
    for ax in range(len(shape)):
        coeffs *= prof.reshape([grid.M if a == ax else 1 for a in range(len(shape))])
    gamma = symmetrize(hermitize(Marginal(grid, k, np.fft.ifftn(coeffs, norm="ortho"))))
    want = fftn_level(gamma.data / h_alpha_norm(gamma, alpha))
    assert np.max(np.abs(unpack(got, grid, k) - want)) <= 1e-13 * np.max(np.abs(want))


def test_random_hat_is_hermitean_and_symmetric():
    # hermitean in mode space, P[A, B] = conj P[-B, -A], to rounding; its
    # dense tensor is symmetric under every transposition of unprimed and of
    # primed variables, which the packed layout holds by construction
    grid, k = make_grid(1, 6, 2 * np.pi), 4
    P = _random_hat(grid, k, np.random.default_rng(5), 1.0)
    scale = np.max(np.abs(P))
    neg = layout(grid, k).neg
    assert np.max(np.abs(P - P[neg][:, neg].T.conj())) <= 1e-15 * scale
    sym = validate_marginal(Marginal(grid, k, unpack(P, grid, k)), check_positivity=False).symmetry_defect
    assert sym <= 1e-15 * scale


def test_random_hat_memory():
    # the draw is binned into its packed level row block by row block, so
    # no dense level is held: at (d, M, k) = (1, 8, 4) the traced peak stays
    # under a quarter of one dense level-4 tensor (8^8 complex entries)
    grid = make_grid(1, 8, 2 * np.pi)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _random_hat(grid, 4, np.random.default_rng(0), 1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8**8 * 16 / 4, peak


@pytest.mark.parametrize("d, M, k", [(1, 12, 3), (1, 6, 3), (2, 4, 2)])
def test_random_hat_is_independent_of_its_blocking(d, M, k):
    # each of these draws is binned in several blocks; the reference bins the
    # whole stream (all real parts, then all imaginary parts) by one
    # np.bincount each and then hermitizes, profiles and norms as the draw does
    grid, alpha, seed = make_grid(d, M, 2 * np.pi), 1.0, 11
    got = _random_hat(grid, k, np.random.default_rng(seed), alpha)
    lay, ranks = layout(grid, k), tuple_ranks(grid, k)
    n_k = lay.size
    bins = (ranks[:, np.newaxis] * n_k + ranks).reshape(-1)
    rng = np.random.default_rng(seed)
    Q = np.empty(n_k * n_k, dtype=np.complex128)
    Q.real = np.bincount(bins, rng.standard_normal(bins.size), minlength=n_k * n_k)
    Q.imag = np.bincount(bins, rng.standard_normal(bins.size), minlength=n_k * n_k)
    Q = Q.reshape(n_k, n_k)
    want = Q + Q[np.ix_(lay.neg, lay.neg)].T.conj()
    prof = (1.0 + grid.wavenumbers**2) ** (-(alpha + 1.0) / 2.0)
    c = math.factorial(k) / lay.mult * multiset_products(prof, grid, k)
    want *= np.multiply.outer(c, c)
    want /= _h_alpha_norm_hat(want, grid, k, alpha)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d, M, k", [(1, 12, 3), (1, 8, 4)])
def test_random_hat_working_set_is_a_few_packed_levels(d, M, k):
    # the normals are read in blocks of a quarter of the packed level and the
    # hermitean part is formed in place, one gathered real part at a time, so
    # the traced peak of a draw (its tables already built) stays within two
    # packed levels of n_k^2 complex entries
    grid = make_grid(d, M, 2 * np.pi)
    _random_hat(grid, k, np.random.default_rng(0), 1.0)
    n_k = layout(grid, k).size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _random_hat(grid, k, np.random.default_rng(1), 1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n_k * n_k * 16, peak


def test_q90_is_numpy_quantile_bit_for_bit():
    rng = np.random.default_rng(3)
    cases = [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for n in range(1, 301)]
    inf, nan = np.inf, np.nan
    specials = [[inf], [-inf], [nan], [-0.0], [1.0, inf], [-inf, 1.0], [-inf, inf], [2.0, nan, 1.0], [nan, inf]]
    cases += [np.array(x) for x in specials]
    cases += [np.array([-inf] + list(range(2, 11)) + [inf]), np.array([1.0] * 9 + [inf])]
    for x in cases:
        with np.errstate(invalid="ignore"):
            want = float(np.quantile(x, 0.9))
        got = _q90(x)
        assert (math.isnan(got) and math.isnan(want)) or np.float64(got).tobytes() == np.float64(want).tobytes(), x


def test_strichartz_run_does_not_import_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma on its first call; the study takes its
    # quantile by _q90, so a fresh strichartz run never loads it
    argv = ["strichartz", "--set", "M=4", "--set", "N=2", "--set", "T=0.004", "--set", "dt=0.002"]
    argv += ["--set", "ensemble_size=3", "--out-dir", str(tmp_path / "out")]
    code = f"import sys\nfrom gphier.cli import main\nprint(main({argv!r}), 'numpy.ma' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "False"], result.stdout


def test_strichartz_study_transforms_no_dense_level(monkeypatch):
    # the draws stay in mode space: no FFT larger than one M^d field
    grid = make_grid(1, 4, 2 * np.pi)
    sizes = []
    for name in ("fftn", "ifftn"):
        real = getattr(np.fft, name)

        def counted(a, *args, _real=real, **kwargs):
            sizes.append(np.size(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    strichartz_study(2, PARAMS, grid, CUBIC, T=0.008, dt=4e-3, n_levels=3, seed=1)
    assert all(n <= grid.M**grid.d for n in sizes), sizes


def _phased(P, grid, k, t):
    """The packed level of U(t) P, phased densely on the unpacked draw."""
    return pack(np.exp(-1j * t * multiplier_tensor(grid, k)) * unpack(P, grid, k), grid, k)


@pytest.mark.parametrize(
    "d, p, M",
    [pytest.param(1, 2, 4, id="2-4"), pytest.param(1, 2, 6, id="2-6"), pytest.param(1, 4, 4, id="4-4"), (2, 2, 4)],
)
def test_free_collapse_norms_match_node_by_node_collapse(d, p, M):
    # S spans two blocks of M^((p-1)d) nodes and a part of a third; a row of a
    # packed draw follows the packed collapse of the phased draw at every node,
    # and a product row keeps every bit of the node-by-node collapse of its
    # free nodes.  Only the draws with at most 4^8 dense entries are drawn.
    grid = make_grid(d, M, 2 * np.pi)
    spec, half = InteractionSpec(p, 1), p // 2
    rng = np.random.default_rng(M + p)
    levels = [m for m in range(1, half + 3) if M ** (2 * m * d) <= 4**8]
    hats = {k: _random_hat(grid, k, rng, 1.0) for k in levels}
    S, dt = 2 * M ** ((p - 1) * d) + 1, 3e-3
    rows = _free_collapse_norms(hats, grid, spec, S, dt, 1.0)
    assert sorted(rows) == [m - half for m in levels if m > half]
    for m in levels[half:]:
        want = [
            _h_alpha_norm_hat(fourier_collapse(_phased(hats[m], grid, m, i * dt), grid, m, half), grid, m - half, 1.0)
            for i in range(S + 1)
        ]
        np.testing.assert_allclose(rows[m - half], want, rtol=1e-13, atol=0)
    level = ProductLevel(grid, half + 2, fftn_level(cosine_field(grid).values))
    nodes = _free_nodes(grid, half + 2, level, dt)
    want = [_h_alpha_norm_hat(fourier_collapse(next(nodes), grid, half + 2, half), grid, 2, 1.0) for _ in range(S + 1)]
    assert np.array_equal(_free_collapse_norms({half + 2: level}, grid, spec, S, dt, 1.0)[2], want)


@pytest.mark.parametrize("d, M, k", [(1, 12, 1), (1, 12, 2), (2, 4, 2), (1, 8, 3)])
def test_batched_node_norms_equal_per_node_norms(d, M, k):
    # one reduction over a stack of packed nodes, bit for bit the per-node
    # norm |node|^2, the weight of row A and of column B, sqrt(sum) * h^(dk);
    # the real-space h_alpha_norm keeps the dense formula, the weight of every axis
    grid = make_grid(d, M, 2 * np.pi)
    rng = np.random.default_rng(M + k)
    shape = (5,) + packed_shape(grid, k)
    nodes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = packed_weights(grid, k, 1.0)
    want = [np.sqrt((np.abs(node) ** 2 * w[:, np.newaxis] * w).sum()) * grid.h ** (d * k) for node in nodes]
    assert np.array_equal(_h_alpha_norms_hat(nodes, grid, k, 1.0), want)
    assert np.array_equal([_h_alpha_norm_hat(node, grid, k, 1.0) for node in nodes], want)
    gamma = Marginal(grid, k, np.fft.ifftn(unpack(nodes[0], grid, k), norm="ortho"))
    acc = np.abs(fftn_level(gamma.data)) ** 2
    w2 = sobolev_weights(grid, 1.0) ** 2
    for ax in range(acc.ndim):
        acc *= w2.reshape([M if a == ax else 1 for a in range(acc.ndim)])
    assert h_alpha_norm(gamma, 1.0) == np.sqrt(acc.sum()) * grid.h ** (d * k)


def test_free_collapse_memory_is_flat_in_steps():
    # one block's stack is no larger than one pinned gather of the packed
    # draw, so the peak does not grow with S and stays under the bytes of two
    # dense level-3 draws; the node-by-node loop held the phase stream, its
    # step and a node buffer, three copies of the dense level
    grid = make_grid(1, 6, 2 * np.pi)
    packed = _random_hat(grid, 3, np.random.default_rng(0), 1.0)
    peaks = {}
    for S in (20, 2000):
        tracemalloc.start()
        try:
            _free_collapse_norms({3: packed}, grid, CUBIC, S, 1e-3, 1.0)
            peaks[S] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= 1.25 * peaks[20], peaks
    assert max(peaks.values()) < 2 * 6**6 * 16, peaks


def test_strichartz_single_mode_closed_form():
    # a lone Fourier mode evolves by a pure phase, so ||B U(t) gamma|| is
    # constant in time and the windowed norm is sqrt(T) * ||B gamma||
    # (a packed level with one entry, the symmetric level of modes 1, 2; 3, 0)
    grid = make_grid(1, 4, 2 * np.pi)
    hat = np.zeros(packed_shape(grid, 2), dtype=complex)
    hat[rank(grid, np.array([1, 2])), rank(grid, np.array([3, 0]))] = 1.0 + 0.5j
    T, dt = 0.08, 2e-3
    S = round(T / dt)
    nodes = fourier_collapse(hat, grid, 2, 1, dt * np.arange(S + 1))
    rows_norm = np.array([_h_alpha_norm_hat(g, grid, 1, 1.0) for g in nodes])
    base = rows_norm[0]
    np.testing.assert_allclose(rows_norm, base, rtol=1e-12)
    w = QuadratureRule("trapezoid").weights(S, dt)
    assert np.sqrt(np.dot(w, rows_norm**2)) == pytest.approx(base * np.sqrt(T), rel=1e-12)


def test_strichartz_study_smoke_and_determinism():
    grid = make_grid(1, 6, 2 * np.pi)
    rep1 = strichartz_study(4, PARAMS, grid, CUBIC, T=0.1, dt=5e-3, n_levels=3, seed=9)
    rep2 = strichartz_study(4, PARAMS, grid, CUBIC, T=0.1, dt=5e-3, n_levels=3, seed=9)
    assert rep1.fitted["max_ratio"] == rep2.fitted["max_ratio"]
    assert all(np.isfinite(r["ratio"]) and r["ratio"] >= 0 for r in rep1.tables["per_draw"])
    assert rep1.fitted["samples"] == 4
    # per-level columns present and finite
    assert all(np.isfinite(r["level_1_ratio"]) for r in rep1.tables["per_draw"])


def test_strichartz_ratios_scale_invariant():
    # both sides of the bound are 1-homogeneous; scaling the draw leaves
    # the ratio fixed (checked through the study's own pipeline by scaling
    # the normalization factor via a doubled state built by hand)
    grid = make_grid(1, 6, 2 * np.pi)
    rng = np.random.default_rng(5)
    levels = [random_marginal(grid, k, rng, 1.0) for k in (1, 2, 3)]
    st1 = HierarchyState(grid, levels)
    st2 = HierarchyState(grid, [2.0 * g for g in levels])

    T, dt = 0.06, 2e-3
    S = round(T / dt)
    w = QuadratureRule("trapezoid").weights(S, dt)

    def ratio(state):
        hats = {k: _level_hat(state, k) for k in (1, 2, 3)}
        rows = _free_collapse_norms(hats, grid, CUBIC, S, dt, 1.0)
        series = sum(PARAMS.xi**n * r for n, r in rows.items())
        return np.sqrt(np.dot(w, series**2)) / hxi_norm(state, PARAMS.xi_prime, 1.0)

    assert ratio(st1) == pytest.approx(ratio(st2), rel=1e-12)


def test_strichartz_time_translation_surrogate():
    # preapplying a small free evolution shifts the integration window;
    # over a long window the ratio moves only at the boundary-fraction level
    grid = make_grid(1, 6, 2 * np.pi)
    rng = np.random.default_rng(11)
    levels = [random_marginal(grid, k, rng, 1.0) for k in (1, 2)]
    st = HierarchyState(grid, levels)
    from gphier import free_evolve

    T_long, dt, t0 = 4.0, 4e-3, 0.02
    S = round(T_long / dt)
    w = QuadratureRule("trapezoid").weights(S, dt)

    def lhs(state):
        hats = {k: _level_hat(state, k) for k in (1, 2)}
        rows = _free_collapse_norms(hats, grid, CUBIC, S, dt, 1.0)
        series = sum(PARAMS.xi**n * r for n, r in rows.items())
        return float(np.sqrt(np.dot(w, series**2)))

    shifted = HierarchyState(grid, [free_evolve(g, t0) for g in levels])
    a, b = lhs(st), lhs(shifted)
    assert abs(a - b) / a <= 1e-3


def _cosine_hierarchy(grid, N):
    return HierarchyState.factorized(cosine_field(grid).values, N, grid)


def test_cauchy_plane_wave_differences():
    # every truncation is stationary; collapses vanish, so the B-difference
    # is zero, while the trajectory difference is exactly the static
    # xi-weighted tail over the levels only the deeper truncation carries
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = HierarchyState.factorized(plane_wave_field(grid, 1).values, 5, grid)
    rep = cauchy_study(g0, [3, 4, 5], PARAMS, CUBIC, T=0.05, dt=2.5e-3)
    r2 = h_alpha_norm(g0.level(1), 1.0)
    for r in rep.tables["pairs"]:
        assert r["bdiff_l2"] <= 1e-12
        static_tail = sum((PARAMS.xi * r2) ** k for k in range(r["N1"] + 1, r["N2"] + 1))
        assert r["traj_diff_sup"] == pytest.approx(static_tail, rel=1e-10)


def test_cauchy_smooth_data_bounded_ratios():
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 5)
    rep = cauchy_study(g0, [3, 4, 5], PARAMS, CUBIC, T=0.1, dt=2e-3)
    rows = rep.tables["pairs"]
    assert len(rows) == 3
    assert all(r["shared_levels_equal"] for r in rows)
    ratios = [r["ratio_l2_over_tail"] for r in rows]
    assert all(np.isfinite(x) and x >= 0 for x in ratios)
    assert max(ratios) / min(ratios) <= 10
    # tails match the geometric closed form for factorized data
    r2 = h_alpha_norm(g0.level(1), 1.0)
    for r in rows:
        expected = sum((PARAMS.xi_prime * r2) ** k for k in range(r["N1"] + 1, 6))
        assert r["tail_xi_prime"] == pytest.approx(expected, rel=1e-12)
    assert 0 < rep.fitted["eta_hat"] <= 1.0


def test_cauchy_marches_each_truncation_once(monkeypatch):
    # one march per truncation serves every pair; the rows equal those of
    # the pairs studied one at a time
    from gphier import studies

    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 5)
    study = dict(params=PARAMS, spec=CUBIC, T=0.02, dt=2e-3)
    pairs = [cauchy_study(g0, pair, **study).tables["pairs"][0] for pair in ([3, 4], [3, 5], [4, 5])]
    marched = []
    real_march = studies._march

    def counting_march(grid, hat0, *args):
        marched.append(max(hat0))
        return real_march(grid, hat0, *args)

    monkeypatch.setattr(studies, "_march", counting_march)
    rows = cauchy_study(g0, [5, 3, 4], **study).tables["pairs"]
    assert rows == pairs
    assert sorted(marched) == [3, 4, 5]


def test_cauchy_builds_no_real_space_kernel(monkeypatch):
    # shared_levels_equal holds by construction (every march starts from the
    # one _initial_hats dict); no level of the data is built in real space
    from gphier import marginal

    built = []
    real_factorized = marginal.factorized_marginal

    def counting(*args):
        built.append(args[1])
        return real_factorized(*args)

    monkeypatch.setattr(marginal, "factorized_marginal", counting)
    grid = make_grid(1, 4, 2 * np.pi)
    rows = cauchy_study(_cosine_hierarchy(grid, 5), [3, 4, 5], PARAMS, CUBIC, T=0.01, dt=2e-3).tables["pairs"]
    assert all(r["shared_levels_equal"] for r in rows)
    assert built == []


def test_cauchy_chain_warning():
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 4)
    loose = NormParams(alpha=1.0, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.3)
    rep = cauchy_study(g0, [3, 4], loose, CUBIC, T=0.02, dt=2e-3)
    assert any("chain" in w for w in rep.warnings)
    with pytest.raises(ValueError):
        cauchy_study(g0, [4], PARAMS, CUBIC, T=0.02, dt=2e-3)
    # a repeated level made a pair N1 = N2 (ratio 0) and every pair with it twice
    with pytest.raises(ValueError, match=r"N_list repeats a truncation level, got \[3, 3, 4\]"):
        cauchy_study(g0, [3, 4, 3], PARAMS, CUBIC, T=0.02, dt=2e-3)


def test_boardgame_j1_ratio_one_and_decay():
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 4)
    rep = boardgame_probe(1, [1, 2, 3], g0, CUBIC, T=0.05, params=PARAMS, dt=1e-3)
    rows = {r["j"]: r for r in rep.tables["ratios"]}
    assert rows[1]["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rows[1]["ratio"] > rows[2]["ratio"] > rows[3]["ratio"]
    assert rep.fitted["geometric_decay"] == 1.0
    assert rep.fitted["slope_log_ratio_vs_j"] < 0


def test_boardgame_of_kernel_levels_matches_factorized_state():
    # a state given by its kernels holds packed levels, whose free collapse
    # at the probe's nodes is the packed one; its ratios are those of the
    # same state held as a factorized field
    grid = make_grid(1, 4, 2 * np.pi)
    factorized = _cosine_hierarchy(grid, 3)
    kernels = HierarchyState(grid, factorized.levels)
    got, want = (boardgame_probe(1, [1, 2], g0, CUBIC, T=0.05, params=PARAMS, dt=1e-3) for g0 in (kernels, factorized))
    assert len(got.tables["ratios"]) == len(want.tables["ratios"]) == 2
    for g, w in zip(got.tables["ratios"], want.tables["ratios"]):
        assert not g["degenerate"] and not w["degenerate"]
        for key in ("lhs", "rhs", "ratio"):
            assert g[key] == pytest.approx(w[key], rel=1e-12, abs=0)


def test_boardgame_plane_wave_degenerate():
    grid = make_grid(1, 8, 2 * np.pi)
    g0 = HierarchyState.factorized(plane_wave_field(grid, 1).values, 4, grid)
    rep = boardgame_probe(1, [2, 3], g0, CUBIC, T=0.05, params=PARAMS, dt=2.5e-3)
    assert all(r["degenerate"] for r in rep.tables["ratios"])
    assert any("degenerate" in w for w in rep.warnings)


def test_boardgame_t_scaling():
    # halving T drops the deep ratios roughly like the nested-integral count
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 4)
    r_full = boardgame_probe(1, [1, 2, 3], g0, CUBIC, T=0.05, params=PARAMS, dt=1e-3)
    r_half = boardgame_probe(1, [1, 2, 3], g0, CUBIC, T=0.025, params=PARAMS, dt=1e-3)
    full = {r["j"]: r["ratio"] for r in r_full.tables["ratios"]}
    half = {r["j"]: r["ratio"] for r in r_half.tables["ratios"]}
    factor_j3 = full[3] / half[3]
    assert np.sqrt(2) <= factor_j3 <= 4 * np.sqrt(2)


def test_boardgame_validation():
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 3)
    with pytest.raises(ValueError):
        boardgame_probe(1, [1, 2, 3], g0, CUBIC, T=0.05, params=PARAMS)  # needs level 4
    with pytest.raises(ValueError):
        boardgame_probe(1, [5], _cosine_hierarchy(grid, 5), CUBIC, T=0.05, params=PARAMS)
    with pytest.raises(ValueError, match="range of iteration depths j is empty"):
        boardgame_probe(1, [], g0, CUBIC, T=0.05, params=PARAMS)


def test_km_report_plane_wave():
    grid = make_grid(1, 8, 2 * np.pi)
    g0 = HierarchyState.factorized(plane_wave_field(grid, 1).values, 3, grid)
    traj = solve_truncated(g0, CUBIC, T=0.05, dt=1e-3, store_every=1)
    rep = km_report(traj, PARAMS)
    assert rep.fitted["l2_t_bhat_norm"] <= 1e-11
    norms = [r["hxi_norm"] for r in rep.tables["per_time"]]
    assert max(norms) - min(norms) <= 1e-10


def test_km_report_n_sweep_cauchy_like():
    grid = make_grid(1, 4, 2 * np.pi)
    vals = {}
    for N in (3, 4, 5):
        g0 = _cosine_hierarchy(grid, N)
        traj = solve_truncated(g0, CUBIC, T=0.1, dt=2e-3, store_every=1)
        vals[N] = km_report(traj, PARAMS).fitted["l2_t_bhat_norm"]
    assert abs(vals[5] - vals[4]) < abs(vals[4] - vals[3])


def test_study_ratio_scale_invariance_cauchy():
    grid = make_grid(1, 4, 2 * np.pi)
    g0 = _cosine_hierarchy(grid, 4)
    doubled = HierarchyState(grid, [2.0 * g for g in g0.levels])
    r1 = cauchy_study(g0, [3, 4], PARAMS, CUBIC, T=0.05, dt=2.5e-3)
    r2 = cauchy_study(doubled, [3, 4], PARAMS, CUBIC, T=0.05, dt=2.5e-3)
    a = r1.tables["pairs"][0]["ratio_l2_over_tail"]
    b = r2.tables["pairs"][0]["ratio_l2_over_tail"]
    assert a == pytest.approx(b, rel=1e-12)
