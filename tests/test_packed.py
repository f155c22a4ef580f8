"""The packed layout of symmetric levels against the dense forms it replaces.

A packed level holds one entry per pair of sorted multisets of modes
(gphier._packed).  Its norm and trace are checked against the dense
formulas on random kernels made symmetric by _permutation_sum; its
collapse against the real-space b_collapse in tests/test_operators.py.
"""

import math

import numpy as np
import pytest

from gphier import HierarchyState, Marginal, MemoryGuardError, _kernels, make_grid, marginal
from gphier._kernels import fftn_level, fourier_collapse, ifftn_level
from gphier._packed import layout, pack, shape, unpack
from gphier.grid import sobolev_weights
from gphier.marginal import ProductLevel, SymmetryError, _h_alpha_norm_hat, _pack_level, _permutation_sum, _trace_hat
from gphier.solver import _level_hat


def _symmetric_kernel(grid, k, seed):
    rng = np.random.default_rng(seed)
    dims = (grid.M,) * grid.axis_count(k)
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return _permutation_sum(data, np.empty_like(data), np.empty_like(data), grid, k)


@pytest.mark.parametrize("d, M", [(1, 4), (1, 6), (2, 4)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_layout_ranks_every_multiset_once(d, M, k):
    grid = make_grid(d, M, 2 * np.pi)
    lay = layout(grid, k)
    n = M**d
    assert lay.size == math.comb(n + k - 1, k) and shape(grid, k) == (lay.size, lay.size)
    assert np.all(np.diff(lay.modes, axis=1) >= 0)
    assert len({tuple(row) for row in lay.modes}) == lay.size
    # every mode tuple is one of the mult(A) orderings of exactly one multiset
    assert lay.mult.sum() == n**k
    assert np.array_equal(lay.neg[lay.neg], np.arange(lay.size))


@pytest.mark.parametrize("M, kappa, p", [(6, 3, 2), (4, 3, 4)])
def test_collapse_in_gather_blocks_matches_one_block(monkeypatch, M, kappa, p):
    # deep levels gather their sums in row blocks; the sums are the same,
    # and the free collapse's chunked pin sums agree to rounding
    grid = make_grid(1, M, 2 * np.pi)
    rng = np.random.default_rng(M + p)
    P = rng.standard_normal(shape(grid, kappa)) + 1j * rng.standard_normal(shape(grid, kappa))
    times = np.array([0.0, 0.3])
    whole, free = fourier_collapse(P, grid, kappa, p // 2), fourier_collapse(P, grid, kappa, p // 2, times)
    monkeypatch.setattr(_kernels, "_GATHER_BLOCK", 50)
    assert np.array_equal(fourier_collapse(P, grid, kappa, p // 2), whole)
    chunked = fourier_collapse(P, grid, kappa, p // 2, times)
    assert np.max(np.abs(chunked - free)) <= 1e-14 * np.max(np.abs(free))


@pytest.mark.parametrize("d, M, k", [(1, 4, 1), (1, 6, 3), (2, 4, 2)])
def test_pack_unpack_round_trip(d, M, k):
    grid = make_grid(d, M, 2 * np.pi)
    hat = _symmetric_kernel(grid, k, seed=k)
    P = pack(hat, grid, k)
    assert P.shape == shape(grid, k)
    # the permutation sum is symmetric to rounding, not bit for bit
    assert np.max(np.abs(unpack(P, grid, k) - hat)) <= 1e-14 * np.max(np.abs(hat))
    rng = np.random.default_rng(5)
    Q = rng.standard_normal(P.shape) + 1j * rng.standard_normal(P.shape)
    assert np.array_equal(pack(unpack(Q, grid, k), grid, k), Q)


@pytest.mark.parametrize("d, M, k", [(1, 8, 1), (1, 6, 3), (1, 4, 4), (2, 4, 2)])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_packed_norm_and_trace_match_dense_formulas(d, M, k, alpha):
    grid = make_grid(d, M, 2 * np.pi)
    hat = _symmetric_kernel(grid, k, seed=3 * k + d)
    hat /= np.abs(hat).max()
    P = pack(hat, grid, k)
    # dense formulas: sum of |hat|^2 times the squared weight of every axis,
    # and h^(dk) sum_r hat[r; -r] over all mode tuples r
    weight = np.ones(())
    for _ in range(grid.axis_count(k)):
        weight = np.multiply.outer(weight, sobolev_weights(grid, alpha) ** 2)
    norm = np.sqrt(np.sum(np.abs(hat) ** 2 * weight)) * grid.h ** (d * k)
    n = grid.M ** (d * k)
    flat = np.indices((grid.M,) * (d * k)).reshape(d * k, n)
    neg = np.ravel_multi_index(tuple(-flat % grid.M), (grid.M,) * (d * k))
    trace = hat.reshape(n, n)[np.arange(n), neg].sum() * grid.h ** (d * k)
    assert _h_alpha_norm_hat(P, grid, k, alpha) == pytest.approx(norm, rel=1e-14)
    assert _trace_hat(P, grid, k) == pytest.approx(trace, rel=1e-14, abs=1e-14 * norm)


def test_asymmetric_dense_level_is_refused_not_symmetrized():
    grid = make_grid(1, 4, 2 * np.pi)
    hat = fftn_level(_symmetric_kernel(grid, 2, seed=1))
    assert np.max(np.abs(unpack(_pack_level(hat, grid, 2), grid, 2) - hat)) <= 1e-13
    hat[0, 1, 2, 3] += 1e-6
    with pytest.raises(SymmetryError, match="level-2 mode tensor is not permutation symmetric"):
        _pack_level(hat, grid, 2)
    # a state's dense level enters the solvers the same way
    level1 = Marginal(grid, 1, np.eye(4, dtype=complex))
    kernel = ifftn_level(hat)
    with pytest.raises(SymmetryError):
        _level_hat(HierarchyState(grid, [level1, Marginal(grid, 2, kernel)]), 2)


def test_memory_guard_counts_packed_entries(monkeypatch):
    # M=4: packed level 3 has 20^2 = 400 entries, packed level 2 has 10^2 = 100
    grid = make_grid(1, 4, 2 * np.pi)
    level = ProductLevel(grid, 3, fftn_level(np.ones(4, dtype=complex)))
    monkeypatch.setattr(marginal, "MEMORY_GUARD_ELEMENTS", 100)
    assert level.collapse(1).shape == (10, 10)
    with pytest.raises(MemoryGuardError, match="packed level 3 on M=4, d=1 has 400 elements"):
        level.packed()
