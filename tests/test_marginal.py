import dataclasses
import itertools
import math

import numpy as np
import pytest

from gphier import (
    HierarchyState,
    Marginal,
    MemoryGuardError,
    NormParams,
    cosine_field,
    factorized_marginal,
    h_alpha_norm,
    hermitize,
    hxi_norm,
    make_grid,
    partial_trace,
    plane_wave_field,
    project_tail,
    symmetrize,
    tail_norm,
    trace,
    validate_marginal,
    zero_marginal,
)
from gphier._kernels import ifftn_level
from gphier._packed import pack, unpack
from gphier._packed import shape as packed_shape
from gphier.marginal import _h_alpha_norm_hat, _hxi_norm_hat, _trace_hat

GRID = make_grid(1, 8, 2 * np.pi)


def _random_marginal(k, M=8, seed=0, d=1):
    rng = np.random.default_rng(seed)
    g = make_grid(d, M, 2 * np.pi)
    shape = (M,) * (2 * k * d)
    return Marginal(g, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_factorized_constant_field():
    L = 2 * np.pi
    phi = np.full(8, 1 / np.sqrt(L), dtype=complex)
    g2 = factorized_marginal(phi, 2, GRID)
    np.testing.assert_allclose(g2.data, 1 / L**2)
    assert trace(g2) == pytest.approx(1.0)


def test_factorized_plane_wave_kernel():
    wf = plane_wave_field(GRID, 1)
    g1 = factorized_marginal(wf.values, 1, GRID)
    expected = np.multiply.outer(wf.values, wf.values.conj())
    np.testing.assert_allclose(g1.data, expected, atol=1e-15)
    assert trace(g1) == pytest.approx(1.0)


def test_factorized_passes_validation_exactly():
    phi = cosine_field(GRID).values
    rep = validate_marginal(factorized_marginal(phi, 3, GRID), check_positivity=False)
    assert rep.hermiticity_defect <= 1e-14
    assert rep.symmetry_defect <= 1e-14
    assert rep.trace == pytest.approx(1.0)


def test_factorized_grid_mismatch():
    with pytest.raises(ValueError):
        factorized_marginal(np.ones(6, dtype=complex), 2, GRID)


def test_validate_detects_hermiticity_defect():
    phi = cosine_field(GRID).values
    g1 = factorized_marginal(phi, 1, GRID)
    g1.data[2, 5] += 1e-3
    rep = validate_marginal(g1)
    assert rep.hermiticity_defect == pytest.approx(1e-3, rel=0.1)
    assert not rep.passed


def test_validate_zero_marginal():
    rep = validate_marginal(zero_marginal(GRID, 2), check_positivity=False)
    assert rep.hermiticity_defect == 0 and rep.symmetry_defect == 0 and rep.trace == 0
    assert rep.passed


def test_validate_positivity_k1():
    phi = cosine_field(GRID).values
    rep = validate_marginal(factorized_marginal(phi, 1, GRID))
    assert rep.positivity_flag is True
    # rank-one kernel: smallest eigenvalue 0, largest = trace
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_trace_linearity_and_zero():
    gam = _random_marginal(2)
    assert trace(2 * gam) == pytest.approx(2 * trace(gam))
    assert trace(zero_marginal(GRID, 2)) == 0


def test_partial_trace_factorized_exact():
    for d, M, k in ((1, 8, 3), (2, 4, 2)):
        grid = make_grid(d, M, 2 * np.pi)
        phi = cosine_field(grid).values
        upper = factorized_marginal(phi, k, grid)
        lower = factorized_marginal(phi, k - 1, grid)
        np.testing.assert_allclose(partial_trace(upper).data, lower.data, atol=1e-14)
        assert np.max(np.abs(partial_trace(zero_marginal(grid, k)).data)) == 0


def test_partial_trace_level0_rejected():
    with pytest.raises(ValueError):
        partial_trace(_random_marginal(1))


def test_partial_trace_against_loop_oracle():
    # direct summation over all grid points x_1, x'_1, y, each a d-tuple
    for d in (1, 2):
        gam = symmetrize(hermitize(_random_marginal(2, M=4, seed=5, d=d)))
        oracle = np.zeros((4,) * (2 * d), dtype=complex)
        for x1 in np.ndindex(*(4,) * d):
            for xp1 in np.ndindex(*(4,) * d):
                for y in np.ndindex(*(4,) * d):
                    oracle[x1 + xp1] += gam.data[x1 + y + xp1 + y]
        oracle *= gam.grid.h**d
        out = partial_trace(gam)
        np.testing.assert_allclose(out.data, oracle, atol=1e-13)
        rep = validate_marginal(out, check_positivity=False)
        assert rep.hermiticity_defect <= 1e-13
        assert trace(out) == pytest.approx(trace(gam), abs=1e-12)


def test_h_alpha_norm_constant_field():
    L = 2 * np.pi
    phi = np.full(8, 1 / np.sqrt(L), dtype=complex)
    for k in (1, 2):
        for alpha in (0.0, 1.0, 2.5):
            assert h_alpha_norm(factorized_marginal(phi, k, GRID), alpha) == pytest.approx(1.0)


def test_h_alpha_norm_plane_wave_closed_form():
    wf = plane_wave_field(GRID, 1)
    assert h_alpha_norm(factorized_marginal(wf.values, 1, GRID), 1.0) == pytest.approx(2.0)
    assert h_alpha_norm(factorized_marginal(wf.values, 2, GRID), 1.0) == pytest.approx(4.0)


def test_h_alpha_norm_alpha0_is_grid_l2():
    gam = _random_marginal(2, M=4, seed=9)
    g = gam.grid
    l2 = np.sqrt(np.sum(np.abs(gam.data) ** 2) * g.h**4)
    assert h_alpha_norm(gam, 0.0) == pytest.approx(l2, rel=1e-12)


def test_h_alpha_norm_monotone_in_alpha():
    gam = _random_marginal(1, seed=2)
    norms = [h_alpha_norm(gam, a) for a in (0.0, 0.5, 1.0, 2.0)]
    assert all(norms[i] <= norms[i + 1] for i in range(3))


def test_hxi_norm_geometric_sum():
    wf = plane_wave_field(GRID, 1)
    r2 = 2.0  # ||phi||_{H^1}^2 for |p| = 1
    state = HierarchyState.factorized(wf.values, 4, GRID)
    xi = 0.1
    expected = sum((xi * r2) ** k for k in range(1, 5))
    assert hxi_norm(state, xi, 1.0) == pytest.approx(expected, rel=1e-12)
    # single nonzero level
    levels = [zero_marginal(GRID, 1), 3.0 * factorized_marginal(wf.values, 2, GRID)]
    st = HierarchyState(GRID, levels)
    assert hxi_norm(st, 0.1, 0.0) == pytest.approx(0.03, rel=1e-12)
    with pytest.raises(ValueError):
        hxi_norm(state, 1.5, 1.0)


def test_hxi_norm_monotone_in_xi():
    phi = cosine_field(GRID).values
    st = HierarchyState.factorized(phi, 3, GRID)
    assert hxi_norm(st, 0.01, 1.0) <= hxi_norm(st, 0.1, 1.0)


def test_tail_norm_geometric_closed_form():
    # constant field: ||phi||_{H^alpha} = 1, so the tail is a pure geometric sum
    g4 = make_grid(1, 4, 2 * np.pi)
    phi = np.full(4, 1 / np.sqrt(2 * np.pi), dtype=complex)
    N = 5
    st = HierarchyState.factorized(phi, N, g4)
    xi_p = 0.1
    expected = sum(xi_p**k for k in range(5, N + 1))
    got = tail_norm(st, 4, xi_p, 1.0)
    assert got == pytest.approx(expected, rel=1e-12)
    # stored-level partial sum sits just below the 1e-5/0.9 full-series limit
    assert got < 1e-5 / 0.9 < got * 1.2
    assert tail_norm(st, N, xi_p, 1.0) == 0.0
    assert tail_norm(st, 0, xi_p, 1.0) == pytest.approx(hxi_norm(st, xi_p, 1.0), rel=1e-12)


def test_project_tail_zeroes_low_levels():
    phi = cosine_field(GRID).values
    st = HierarchyState.factorized(phi, 3, GRID)
    tail = project_tail(st, 2)
    assert np.max(np.abs(tail.level(1).data)) == 0
    assert np.max(np.abs(tail.level(2).data)) == 0
    np.testing.assert_array_equal(tail.level(3).data, st.level(3).data)


def test_hierarchy_implicit_zero_above_truncation():
    phi = cosine_field(GRID).values
    st = HierarchyState.factorized(phi, 2, GRID)
    assert np.max(np.abs(st.level(3).data)) == 0
    with pytest.raises(ValueError):
        st.level(0)


def test_hierarchy_state_validation():
    phi = cosine_field(GRID).values
    with pytest.raises(ValueError):
        HierarchyState(GRID, [factorized_marginal(phi, 2, GRID)])  # slot 1 holds level 2


def test_memory_guard():
    with pytest.raises(MemoryGuardError):
        factorized_marginal(np.ones(8, dtype=complex) / np.sqrt(2 * np.pi), 5, GRID)
    with pytest.raises(MemoryGuardError):
        zero_marginal(GRID, 5)


def test_norm_params_validation():
    p = NormParams(alpha=1.0, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.5)
    assert p.cauchy_chain_ok()
    assert not NormParams(eta=0.3).cauchy_chain_ok()  # spec defaults break the chain
    with pytest.raises(ValueError):
        NormParams(xi=0.3, xi_prime=0.2)
    with pytest.raises(ValueError):
        NormParams(eta=1.5)


@pytest.mark.parametrize("d, M, k", [(1, 4, 1), (1, 4, 2), (1, 4, 3), (1, 4, 4), (2, 3, 1), (2, 3, 2), (2, 3, 3)])
def test_symmetrize_matches_brute_force_average(d, M, k):
    # the two-stage average (over the unprimed slots, then over the primed
    # slots of that sum) against the average over all k! * k! pairs of
    # permutations at once; symmetrize reads only d and the shape, so d=2
    # takes a 3-point grid (which make_grid refuses) to keep level 3 at
    # 3^12 entries
    grid = dataclasses.replace(make_grid(d, 4, 2 * np.pi), M=M)
    rng = np.random.default_rng(10 * d + k)
    shape = (M,) * grid.axis_count(k)
    gam = Marginal(grid, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    before = gam.data.copy()
    want = np.zeros_like(gam.data)
    blocks = [[list(range((b * k + v) * d, (b * k + v + 1) * d)) for v in range(k)] for b in (0, 1)]
    for unprimed in itertools.permutations(blocks[0]):
        for primed in itertools.permutations(blocks[1]):
            want += gam.data.transpose(sum(unprimed + primed, []))
    want /= math.factorial(k) ** 2
    got = symmetrize(gam)
    assert got.data is not gam.data and np.array_equal(gam.data, before)
    np.testing.assert_allclose(got.data, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


def test_symmetrize_and_hermitize_project():
    gam = _random_marginal(2, M=4, seed=3)
    sym = symmetrize(hermitize(gam))
    rep = validate_marginal(sym, check_positivity=False)
    assert rep.hermiticity_defect <= 1e-13
    assert rep.symmetry_defect <= 1e-13
    # projections are idempotent
    again = symmetrize(hermitize(sym))
    np.testing.assert_allclose(again.data, sym.data, atol=1e-14)
    # one NaN entry makes both defects NaN, and the report fails
    sym.data[0, 1, 2, 3] = np.nan
    rep = validate_marginal(sym, check_positivity=False)
    assert math.isnan(rep.hermiticity_defect) and math.isnan(rep.symmetry_defect) and not rep.passed


@pytest.mark.parametrize("d,M", [(1, 6), (2, 4)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mode_space_trace_and_norm_match_real_space(d, M, k):
    # the norm tables read packed levels; they must equal the real-space
    # definitions (d=2, k=3 holds 4^12 entries: about 0.8 GB peak RSS)
    grid = make_grid(d, M, 3.0)
    rng = np.random.default_rng(10 * d + k)
    # a random packed level: its dense tensor is exactly symmetric
    P = rng.standard_normal(packed_shape(grid, k)) + 1j * rng.standard_normal(packed_shape(grid, k))
    hat = unpack(P, grid, k)
    tr_hat = _trace_hat(P, grid, k)
    norm_hat = _h_alpha_norm_hat(P, grid, k, 1.5)
    gamma = Marginal(grid, k, ifftn_level(hat))
    del hat
    tr = trace(gamma)
    assert abs(tr_hat - tr) <= 1e-12 * abs(tr)
    assert norm_hat == pytest.approx(h_alpha_norm(gamma, 1.5), rel=1e-12)


def test_mode_space_hxi_norm_matches_real_space():
    from gphier._kernels import fftn_level

    st = HierarchyState.factorized(cosine_field(GRID).values, 3, GRID)
    hats = {k: pack(fftn_level(st.level(k).data), GRID, k) for k in (1, 2, 3)}
    assert _hxi_norm_hat(hats, GRID, 0.02, 1.0) == pytest.approx(hxi_norm(st, 0.02, 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        _hxi_norm_hat(hats, GRID, 1.5, 1.0)
