"""Collapses in node blocks, in the march and in Theta.

fourier_collapse takes a stack of B nodes of one level (packed levels on a
leading axis, or a product level whose factor carries one).  The march
collapses the nodes of each fed level B at a time, and Theta = B Gamma is
collapsed B nodes at a time from any node stream, marched or stored.  A
stack must collapse bit for bit like its nodes one by one, so the march
and every report read from it are the same whatever B is.
"""

import math
import weakref

import numpy as np
import pytest

from gphier import HierarchyState, InteractionSpec, NormParams, cosine_field, make_grid, solver
from gphier._kernels import fftn_level, fourier_collapse
from gphier._packed import shape as packed_shape
from gphier.config import parse_config
from gphier.experiment import run_experiment
from gphier.marginal import ProductLevel
from gphier.solver import QuadratureRule, _collapse_block, _initial_hats, _march, _node_block, _volterra_nodes
from gphier.studies import _km_report, km_report

PARAMS = NormParams(1.0, 0.02, 0.06, 0.2, 0.3)


def _grid_and_field(d, M, seed):
    grid = make_grid(d, M, 2 * np.pi)
    rng = np.random.default_rng(seed)
    return grid, rng.standard_normal((M,) * d) + 1j * rng.standard_normal((M,) * d)


@pytest.mark.parametrize("d, M, kappa, p", [(1, 6, 3, 2), (1, 6, 3, 4), (2, 4, 2, 2), (2, 4, 3, 4)])
@pytest.mark.parametrize("B", [1, 2, 3])
def test_stack_collapses_like_its_nodes_one_by_one(d, M, kappa, p, B):
    grid, _ = _grid_and_field(d, M, 0)
    rng = np.random.default_rng(B)
    n = packed_shape(grid, kappa)[0]
    packed = rng.standard_normal((B, n, n)) + 1j * rng.standard_normal((B, n, n))
    factors = np.stack([_grid_and_field(d, M, 10 * B + b)[1] for b in range(B)])
    products = [ProductLevel(grid, kappa, fftn_level(f)) for f in factors]
    stacks = {
        "packed": (fourier_collapse(packed, grid, kappa, p // 2), list(packed)),
        "product": (
            fourier_collapse(ProductLevel(grid, kappa, np.stack([h.psi_hat for h in products])), grid, kappa, p // 2),
            products,
        ),
    }
    for kind, (stacked, nodes) in stacks.items():
        assert stacked.shape == (B,) + packed_shape(grid, kappa - p // 2), kind
        # a stack is laid out as its nodes' collapses, so later reductions read it in their order
        assert stacked.flags.c_contiguous, kind
        blocks = _collapse_block(nodes, grid, kappa, p // 2)
        for b, node in enumerate(nodes):
            alone = fourier_collapse(node, grid, kappa, p // 2)
            assert np.array_equal(stacked[b], alone), (kind, b)
            assert np.array_equal(blocks[b], alone), (kind, b)


def test_stack_of_packed_levels_refuses_times():
    grid, _ = _grid_and_field(1, 4, 0)
    stack = np.zeros((2,) + packed_shape(grid, 2), dtype=complex)
    with pytest.raises(ValueError, match="stack"):
        fourier_collapse(stack, grid, 2, 1, np.array([0.0, 1e-3]))


def test_node_block_is_the_gather_cap_over_the_largest_packed_level():
    grid = make_grid(1, 6, 2 * np.pi)
    # levels 1..3 at M=6: 6, 21 and 56 multisets
    assert _node_block(grid, [1, 2, 3]) == 2**15 // 56**2 == 10
    assert _node_block(grid, [1]) == 2**15 // 36
    # 2^15 entries or more: one node per call
    assert _node_block(make_grid(1, 8, 2 * np.pi), [5]) == 1


@pytest.mark.parametrize("p, N, kind", [(2, 4, "trapezoid"), (2, 4, "simpson"), (4, 4, "trapezoid"), (2, 3, "simpson")])
def test_march_in_node_blocks_matches_the_march_node_by_node(monkeypatch, p, N, kind):
    # 8 nodes in blocks of 3 (the last a remainder of 2) and of 1
    grid = make_grid(1, 4, 2 * np.pi)
    spec = InteractionSpec(p, 1)
    hat0 = _initial_hats(HierarchyState.factorized(cosine_field(grid).values, N, grid))
    rule = QuadratureRule(kind)
    n_max = max(packed_shape(grid, n)[0] for n in hat0 if n + p // 2 <= N)
    marches = {}
    for B in (1, 3):
        monkeypatch.setattr(solver, "_GATHER_CAP", B * n_max**2)
        marches[B] = list(_march(grid, hat0, spec, 7, 1e-3, rule))
    for (i, hats), (j, hats1) in zip(marches[3], marches[1]):
        assert i == j and sorted(hats) == sorted(hats1)
        for n in hats:
            assert type(hats[n]) is type(hats1[n])
            if isinstance(hats[n], ProductLevel):
                assert np.array_equal(hats[n].psi_hat, hats1[n].psi_hat), (i, n)
            else:
                assert np.array_equal(hats[n], hats1[n]), (i, n)
    assert len(marches[3]) == 8


@pytest.mark.parametrize("kind", ["trapezoid", "simpson"])
@pytest.mark.parametrize("B", [1, 3])
def test_march_holds_no_node_its_consumer_dropped(monkeypatch, kind, B):
    # a block is queued ahead, but once a node is yielded, nothing in the
    # march holds its levels (node 0 is the Volterra bases)
    grid = make_grid(1, 4, 2 * np.pi)
    hat0 = _initial_hats(HierarchyState.factorized(cosine_field(grid).values, 4, grid))
    monkeypatch.setattr(solver, "_GATHER_CAP", B * packed_shape(grid, 3)[0] ** 2)
    for i, hats in _march(grid, hat0, InteractionSpec(2, 1), 7, 1e-3, QuadratureRule(kind)):
        refs = [weakref.ref(value) for value in hats.values()]
        del hats
        if i > 0:
            assert not any(ref() is not None for ref in refs), i


@pytest.mark.parametrize(
    "p, N, kind, store_every", [(2, 4, "trapezoid", 1), (2, 4, "simpson", 1), (4, 3, "trapezoid", 1), (2, 3, "trapezoid", 2)]
)
def test_theta_read_from_the_march_equals_theta_of_the_stored_trajectory(p, N, kind, store_every):
    grid = make_grid(1, 6, 2 * np.pi)
    spec = InteractionSpec(p, 1)
    g0 = HierarchyState.factorized(cosine_field(grid).values, N, grid)
    rule, T, dt = QuadratureRule(kind), 0.012, 1e-3
    S = round(T / dt) // store_every
    nodes = _volterra_nodes(grid, _initial_hats(g0), spec, T, dt, rule, store_every)
    marched = _km_report(nodes, grid, spec, PARAMS, S, store_every * dt, rule)
    stored = km_report(solver.solve_truncated(g0, spec, T, dt, rule, store_every), PARAMS, rule)
    assert marched.tables == stored.tables
    assert marched.fitted == stored.fitted


@pytest.mark.parametrize(
    "p, N, gather_cap, fed",
    [
        # p=4: Theta has level 1, from level 3, and the residual's levels are free
        (4, 3, None, 1),
        (4, 3, 3 * 4**2, 1),
        # p=2: Theta has levels 1, 2 and 3; the residual integrates levels 2 and 3
        (2, 4, None, 3 + 2),
        (2, 4, 3 * 20**2, 3 + 2),
    ],
)
def test_km_report_collapses_each_node_block_once(tmp_path, monkeypatch, p, N, gather_cap, fed):
    # one fourier_collapse call per block of B nodes and level of Theta or
    # of the residual, at S + 1 = 8 nodes, marched or stored; a march
    # collapses as many levels as Theta has
    if gather_cap is not None:
        monkeypatch.setattr(solver, "_GATHER_CAP", gather_cap)
    grid = make_grid(1, 4, 2 * np.pi)
    B = _node_block(grid, [n for n in range(1, N + 1) if n + p // 2 <= N])
    assert B == (3 if gather_cap else 2**15 // packed_shape(grid, N - p // 2)[0] ** 2)
    g0 = HierarchyState.factorized(cosine_field(grid).values, N, grid)
    stored = solver.solve_truncated(g0, InteractionSpec(p, 1), 0.007, 1e-3)
    calls = []
    real = solver.fourier_collapse

    def counting(hat, *args, **kwargs):
        calls.append(hat.shape if isinstance(hat, np.ndarray) else hat.psi_hat.shape)
        return real(hat, *args, **kwargs)

    monkeypatch.setattr(solver, "fourier_collapse", counting)
    text = f"p = {p}\nM = 4\nN = {N}\nT = 0.007\ndt = 0.001\n"
    assert run_experiment(parse_config(text), "km-report", str(tmp_path)) == 0
    assert len(calls) == math.ceil(8 / B) * (N - p // 2 + fed), calls
    calls.clear()
    solver.theta_residual(stored, PARAMS.xi, PARAMS.alpha)
    assert len(calls) == math.ceil(8 / B) * fed, calls
