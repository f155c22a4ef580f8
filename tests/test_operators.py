import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gphier import (
    HierarchyState,
    InteractionSpec,
    Marginal,
    admissible_alpha_range,
    b_collapse,
    b_hat,
    b_minus,
    b_plus,
    cosine_field,
    factorized_marginal,
    free_evolve,
    h_alpha_norm,
    hermitize,
    make_grid,
    plane_wave_field,
    rhs,
    symmetrize,
    trace,
    validate_marginal,
    zero_marginal,
)
from gphier._kernels import fftn_level, fourier_collapse, ifftn_level, multiplier_tensor
from gphier._packed import pack, unpack
from gphier._packed import shape as packed_shape

GRID = make_grid(1, 8, 2 * np.pi)
CUBIC = InteractionSpec(2, 1)
QUINTIC = InteractionSpec(4, 1)


def _random_marginal(grid, k, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.M,) * grid.axis_count(k)
    return Marginal(grid, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _loop_collapse_plus(data, M, kappa, k, j, p_half):
    """Nested-loop contraction oracle for B^+_j (d=1)."""
    out = np.zeros((M,) * (2 * k), dtype=complex)
    for idx in np.ndindex(*(M,) * (2 * k)):
        x, xp = idx[:k], idx[k:]
        full = x + (x[j - 1],) * p_half + xp + (x[j - 1],) * p_half
        out[idx] = data[full]
    return out


def _loop_collapse_minus(data, M, kappa, k, j, p_half):
    out = np.zeros((M,) * (2 * k), dtype=complex)
    for idx in np.ndindex(*(M,) * (2 * k)):
        x, xp = idx[:k], idx[k:]
        full = x + (xp[j - 1],) * p_half + xp + (xp[j - 1],) * p_half
        out[idx] = data[full]
    return out


def test_b_plus_factorized_cubic():
    phi = cosine_field(GRID).values
    g2 = factorized_marginal(phi, 2, GRID)
    out = b_plus(1, g2, CUBIC)
    expected = np.abs(phi[:, None]) ** 2 * phi[:, None] * phi[None, :].conj()
    np.testing.assert_allclose(out.data, expected, atol=1e-14)


def test_b_plus_factorized_quintic():
    g4 = make_grid(1, 4, 2 * np.pi)
    phi = cosine_field(g4).values
    g3 = factorized_marginal(phi, 3, g4)
    out = b_plus(1, g3, QUINTIC)
    expected = np.abs(phi[:, None]) ** 4 * phi[:, None] * phi[None, :].conj()
    np.testing.assert_allclose(out.data, expected, atol=1e-14)


def test_b_minus_factorized_cubic():
    phi = cosine_field(GRID).values
    g2 = factorized_marginal(phi, 2, GRID)
    out = b_minus(1, g2, CUBIC)
    expected = np.abs(phi[None, :]) ** 2 * phi[:, None] * phi[None, :].conj()
    np.testing.assert_allclose(out.data, expected, atol=1e-14)


def test_b_ops_zero_input_and_range_checks():
    z = zero_marginal(GRID, 2)
    assert np.max(np.abs(b_plus(1, z, CUBIC).data)) == 0
    assert np.max(np.abs(b_minus(1, z, CUBIC).data)) == 0
    with pytest.raises(ValueError):
        b_plus(2, z, CUBIC)  # j out of range: output level is 1
    with pytest.raises(ValueError):
        b_collapse(zero_marginal(GRID, 1), CUBIC)  # level too small
    with pytest.raises(ValueError):
        b_collapse(zero_marginal(make_grid(1, 4, 1.0), 2), QUINTIC)


def test_b_minus_is_hermitean_mirror_of_b_plus():
    gam = hermitize(symmetrize(_random_marginal(make_grid(1, 6, 2 * np.pi), 2, seed=4)))
    plus = b_plus(1, gam, CUBIC)
    minus = b_minus(1, gam, CUBIC)
    np.testing.assert_allclose(plus.adjoint().data, minus.data, atol=1e-13)


@pytest.mark.parametrize("M,kappa,p", [(4, 2, 2), (6, 2, 2), (8, 2, 2), (8, 3, 2), (4, 3, 4)])
def test_b_ops_against_loop_oracle(M, kappa, p):
    grid = make_grid(1, M, 2 * np.pi)
    spec = InteractionSpec(p, 1)
    k = kappa - p // 2
    gam = _random_marginal(grid, kappa, seed=M + kappa + p)
    for j in range(1, k + 1):
        np.testing.assert_allclose(
            b_plus(j, gam, spec).data,
            _loop_collapse_plus(gam.data, M, kappa, k, j, p // 2),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            b_minus(j, gam, spec).data,
            _loop_collapse_minus(gam.data, M, kappa, k, j, p // 2),
            atol=1e-13,
        )


def test_b_collapse_d2_against_loop_oracle():
    grid = make_grid(2, 4, 2 * np.pi)
    rng = np.random.default_rng(8)
    shape = (4,) * 8  # level 2, d=2
    gam = Marginal(grid, 2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    out = b_collapse(gam, CUBIC)
    oracle = np.zeros((4,) * 4, dtype=complex)
    for a, b, c, d in np.ndindex(4, 4, 4, 4):
        # x_1 = (a, b), x'_1 = (c, d); pin x_2 and x'_2 to x_1 resp. x'_1
        oracle[a, b, c, d] = gam.data[a, b, a, b, c, d, a, b] - gam.data[a, b, c, d, c, d, c, d]
    np.testing.assert_allclose(out.data, oracle, atol=1e-13)


def test_b_collapse_plane_wave_cancellation():
    wf = plane_wave_field(GRID, 1)
    g2 = factorized_marginal(wf.values, 2, GRID)
    assert np.max(np.abs(b_collapse(g2, CUBIC).data)) < 1e-14


def test_b_collapse_trace_cancellation():
    gam = symmetrize(hermitize(_random_marginal(make_grid(1, 6, 2 * np.pi), 2, seed=12)))
    assert abs(trace(b_collapse(gam, CUBIC))) <= 1e-11


def test_b_collapse_factorized_formula_and_oracle():
    phi = cosine_field(GRID).values
    g2 = factorized_marginal(phi, 2, GRID)
    out = b_collapse(g2, CUBIC)
    expected = (np.abs(phi[:, None]) ** 2 - np.abs(phi[None, :]) ** 2) * phi[:, None] * phi[None, :].conj()
    np.testing.assert_allclose(out.data, expected, atol=1e-14)
    oracle = _loop_collapse_plus(g2.data, 8, 2, 1, 1, 1) - _loop_collapse_minus(g2.data, 8, 2, 1, 1, 1)
    np.testing.assert_allclose(out.data, oracle, atol=1e-14)


def test_b_collapse_antihermitean_on_hermitean_input():
    # (B^+)^dagger = B^-, so the full collapse flips sign under the adjoint;
    # -i*mu*B*gamma is then hermitean, which is what the flow preserves
    gam = symmetrize(hermitize(_random_marginal(make_grid(1, 6, 2 * np.pi), 2, seed=21)))
    out = b_collapse(gam, CUBIC)
    np.testing.assert_allclose(out.adjoint().data, -out.data, atol=1e-13)
    drift = Marginal(gam.grid, 1, -1j * out.data)
    assert validate_marginal(drift, check_positivity=False).hermiticity_defect <= 1e-13


def test_b_collapse_symmetrize_pass():
    gam = symmetrize(hermitize(_random_marginal(make_grid(1, 4, 2 * np.pi), 3, seed=31)))
    plain = b_collapse(gam, CUBIC)
    symd = symmetrize(b_collapse(gam, CUBIC))
    np.testing.assert_allclose(plain.data, symd.data, atol=1e-12)


def _check_fourier_collapse(d, M, kappa, p, seed):
    # a packed level is a symmetric one: the random kernel is symmetrized
    # first, and the packed collapse unpacked to compare in real space
    grid = make_grid(d, M, 2 * np.pi)
    gam = symmetrize(_random_marginal(grid, kappa, seed=seed))
    ref = b_collapse(gam, InteractionSpec(p, 1)).data
    P = pack(fftn_level(gam.data), grid, kappa)
    P_before = P.copy()
    fast = ifftn_level(unpack(fourier_collapse(P, grid, kappa, p // 2), grid, kappa - p // 2))
    assert np.array_equal(P, P_before)
    np.testing.assert_allclose(fast, ref, atol=1e-12)


def test_fourier_collapse_matches_real_space():
    shapes = [
        (1, 4, 3, 2),
        (1, 6, 2, 2),
        (1, 8, 3, 2),
        (1, 12, 3, 2),  # the Strichartz shape
        (1, 4, 3, 4),
        (1, 4, 4, 4),  # two pinned variables in each block
        (2, 4, 2, 2),
        (2, 4, 3, 2),
        (2, 4, 3, 4),
    ]
    for d, M, kappa, p in shapes:
        _check_fourier_collapse(d, M, kappa, p, seed=d * M * kappa * p)


# every (d, M, kappa, p) with at most 4^8 level-kappa entries
SMALL_COLLAPSE_SHAPES = [
    (d, M, kappa, p)
    for d in (1, 2)
    for M in (4, 6, 8)
    for p in (2, 4)
    for kappa in range(p // 2 + 1, 5)
    if M ** (2 * kappa * d) <= 4**8
]


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(SMALL_COLLAPSE_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_fourier_collapse_property(shape, seed):
    _check_fourier_collapse(*shape, seed=seed)


@pytest.mark.parametrize("shape", SMALL_COLLAPSE_SHAPES)
def test_fourier_collapse_over_times_matches_phased_fold(shape):
    # B U(t) P of a packed level at many times at once against the packed
    # collapse of each phased level, the phases built densely from the
    # kinetic multiplier; a dense level with times is refused
    d, M, kappa, p = shape
    grid = make_grid(d, M, 2 * np.pi)
    hat = fftn_level(symmetrize(_random_marginal(grid, kappa, seed=d * M * kappa * p)).data)
    P = pack(hat, grid, kappa)
    P_before = P.copy()
    times = np.array([0.0, 1e-3, 0.37, 2.5, -0.8])
    got = fourier_collapse(P, grid, kappa, p // 2, times)
    assert np.array_equal(P, P_before)
    assert got.shape == (len(times),) + packed_shape(grid, kappa - p // 2)
    for t, node in zip(times, got):
        phased = pack(np.exp(-1j * t * multiplier_tensor(grid, kappa)) * hat, grid, kappa)
        want = fourier_collapse(phased, grid, kappa, p // 2)
        assert np.max(np.abs(node - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="collapses a packed"):
        fourier_collapse(hat, grid, kappa, p // 2, times)


def test_b_hat_levels_and_cancellation():
    phi = cosine_field(GRID).values
    st = HierarchyState.factorized(phi, 3, GRID)
    out = b_hat(st, CUBIC)
    assert out.N == 2
    wf = plane_wave_field(GRID, 1)
    pw = HierarchyState.factorized(wf.values, 3, GRID)
    out_pw = b_hat(pw, CUBIC)
    assert all(np.max(np.abs(out_pw.level(k).data)) < 1e-13 for k in (1, 2))
    zero = b_hat(HierarchyState.zero(GRID, 3), CUBIC)
    assert all(np.max(np.abs(zero.level(k).data)) == 0 for k in (1, 2))
    with pytest.raises(ValueError):
        b_hat(HierarchyState.factorized(phi, 1, GRID), CUBIC)


def test_free_evolve_identity_and_stationary_plane_wave():
    phi = cosine_field(GRID).values
    g1 = factorized_marginal(phi, 1, GRID)
    np.testing.assert_allclose(free_evolve(g1, 0.0).data, g1.data, atol=1e-14)
    wf = plane_wave_field(GRID, 1)
    g2 = factorized_marginal(wf.values, 2, GRID)
    for t in (0.1, 1.0, 7.3):
        np.testing.assert_allclose(free_evolve(g2, t).data, g2.data, atol=1e-12)
    for t in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            free_evolve(g1, t)


def test_free_evolve_preserves_everything():
    gam = symmetrize(hermitize(_random_marginal(GRID, 2, seed=17)))
    ev = free_evolve(gam, 0.42)
    assert h_alpha_norm(ev, 1.3) == pytest.approx(h_alpha_norm(gam, 1.3), rel=1e-12)
    assert trace(ev) == pytest.approx(trace(gam), abs=1e-12)
    rep = validate_marginal(ev, check_positivity=False)
    assert rep.hermiticity_defect <= 1e-12
    assert rep.symmetry_defect <= 1e-12


def test_free_evolve_group_law():
    gam = _random_marginal(GRID, 1, seed=23)
    a = free_evolve(free_evolve(gam, 0.13), 0.29)
    b = free_evolve(gam, 0.42)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_rhs_plane_wave_stationary():
    wf = plane_wave_field(GRID, 1)
    st = HierarchyState.factorized(wf.values, 3, GRID)
    out = rhs(st, CUBIC)
    assert all(np.max(np.abs(out.level(k).data)) < 1e-12 for k in (1, 2, 3))
    zero = rhs(HierarchyState.zero(GRID, 2), CUBIC)
    assert all(np.max(np.abs(zero.level(k).data)) == 0 for k in (1, 2))


def test_rhs_matches_free_flow_derivative():
    # central finite difference of the free evolution against the kinetic
    # part of rhs, refined once (Richardson: error drops ~4x)
    phi = cosine_field(GRID).values
    st = HierarchyState.factorized(phi, 2, GRID)
    full = rhs(st, CUBIC)
    errors = []
    for delta in (1e-4, 5e-5):
        worst = 0.0
        for n in (1, 2):
            fd = (free_evolve(st.level(n), delta).data - free_evolve(st.level(n), -delta).data) / (2 * delta)
            kinetic = full.level(n).data
            if n + 1 <= st.N:
                kinetic = kinetic + 1j * CUBIC.mu * b_collapse(st.level(n + 1), CUBIC).data
            worst = max(worst, float(np.max(np.abs(fd - kinetic))))
        errors.append(worst)
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)


def test_admissible_alpha_range_cases():
    r = admissible_alpha_range(1, 2)
    assert r.lower == 0.5 and not r.closed
    assert 1.0 in r and 0.5 not in r
    r32 = admissible_alpha_range(3, 2)
    assert r32.lower == 1.0 and r32.closed and 1.0 in r32
    r24 = admissible_alpha_range(2, 4)
    assert r24.lower == pytest.approx(5 / 6) and not r24.closed
    with pytest.raises(ValueError):
        admissible_alpha_range(1, 3)
    with pytest.raises(ValueError):
        admissible_alpha_range(0, 2)


def test_interaction_spec_validation():
    assert InteractionSpec(2, -1).focusing
    assert InteractionSpec(4, 1).half == 2
    with pytest.raises(ValueError):
        InteractionSpec(3, 1)
    with pytest.raises(ValueError):
        InteractionSpec(2, 2)
    with pytest.raises(ValueError):
        InteractionSpec(2, 0)
