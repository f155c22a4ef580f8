"""Product levels against the packed path they replace.

Every level of factorized data enters the solvers as its one-particle
factor (marginal.ProductLevel).  Its collapse, norm, trace and free
evolution must agree with those of its packed level, which packed() builds
and the dense tensor of outer products checks; and a march started from
product levels must agree with the march started from the packed levels of
the same data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gphier import HierarchyState, InteractionSpec, MemoryGuardError, cosine_field, make_grid
from gphier._kernels import fftn_level, fourier_collapse, ifftn_level, phase_tensor
from gphier._packed import pack
from gphier.experiment import _structural_invariants
from gphier.marginal import ProductLevel, _h_alpha_norm_hat, _packed_hat, _trace_hat
from gphier.solver import QuadratureRule, _initial_hats, _march

#: (d, M, kappa, p) with a collapse (kappa > p/2) and at most 4^8 dense entries
SHAPES = [
    (d, M, kappa, p)
    for d in (1, 2)
    for M in (4, 6, 8)
    for p in (2, 4)
    for kappa in range(1 + p // 2, 6)
    if M ** (2 * kappa * d) <= 4**8
]


def _product(d: int, M: int, kappa: int, seed: int, t: float) -> ProductLevel:
    grid = make_grid(d, M, 2 * np.pi)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((M,) * d) + 1j * rng.standard_normal((M,) * d)
    return ProductLevel(grid, kappa, fftn_level(psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.h**d))).evolved(t)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _dense(level: ProductLevel) -> np.ndarray:
    """The dense mode tensor psi_hat^(x k) (x) conj(psi_hat[-r])^(x k); conj(psi_hat[-r])
    is the DFT of conj(psi)."""
    out = level.psi_hat
    conj_hat = fftn_level(np.conj(ifftn_level(level.psi_hat)))
    for f in [level.psi_hat] * (level.k - 1) + [conj_hat] * level.k:
        out = np.multiply.outer(out, f)
    return out


def test_packed_level_is_the_dense_tensor_packed():
    level = _product(2, 4, 2, seed=3, t=0.2)
    assert _rel(level.packed(), pack(_dense(level), level.grid, 2)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_product_collapse_matches_dense(shape, seed, t):
    d, M, kappa, p = shape
    level = _product(d, M, kappa, seed, t)
    packed = fourier_collapse(pack(_dense(level), level.grid, kappa), level.grid, kappa, p // 2)
    assert _rel(level.collapse(p // 2), packed) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 1.0),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_product_norm_and_trace_match_dense(shape, seed, t, alpha):
    d, M, kappa, _ = shape
    level = _product(d, M, kappa, seed, t)
    packed = pack(_dense(level), level.grid, kappa)
    assert level.h_alpha_norm(alpha) == pytest.approx(_h_alpha_norm_hat(packed, level.grid, kappa, alpha), rel=1e-13)
    assert level.trace() == pytest.approx(_trace_hat(packed, level.grid, kappa), rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_product_evolution_matches_dense_phases(shape, seed, t):
    d, M, kappa, _ = shape
    level = _product(d, M, kappa, seed, 0.0)
    assert _rel(level.evolved(t).packed(), phase_tensor(level.grid, kappa, t) * level.packed()) <= 1e-13


@pytest.mark.parametrize("shape", SHAPES)
def test_product_collapse_over_times_is_node_by_node(shape):
    # bit for bit the collapse of each evolved level, and the level itself at t = 0
    d, M, kappa, p = shape
    level = _product(d, M, kappa, seed=kappa, t=0.3)
    times = np.array([0.0, 2e-3, 4e-3, 0.5])
    got = fourier_collapse(level, level.grid, kappa, p // 2, times)
    assert np.array_equal(got[0], level.collapse(p // 2))
    for t, node in zip(times[1:], got[1:]):
        assert np.array_equal(node, level.evolved(t).collapse(p // 2))


def test_d2_quintic_product_level_matches_dense():
    # the smallest d=2, p=4 collapse, kappa=3 at M=4, has 4^12 dense
    # entries (268 MB), beyond SHAPES, and 816^2 packed ones: one fixed case
    level = _product(2, 4, 3, 7, 0.3)
    packed = level.packed()
    assert _rel(level.collapse(2), fourier_collapse(packed, level.grid, 3, 2)) <= 1e-13
    assert level.h_alpha_norm(1.0) == pytest.approx(_h_alpha_norm_hat(packed, level.grid, 3, 1.0), rel=1e-13)
    assert level.trace() == pytest.approx(_trace_hat(packed, level.grid, 3), rel=1e-13)


@pytest.mark.parametrize("d,p,N", [(1, 2, 2), (1, 2, 4), (1, 4, 3), (1, 4, 4), (2, 2, 2)])
def test_march_from_products_matches_dense_march(d, p, N):
    # 'dense' as in not a product: the third march packs every level, free ones too
    grid = make_grid(d, 4, 2 * np.pi)
    spec = InteractionSpec(p, -1)
    hat0 = _initial_hats(HierarchyState.factorized(cosine_field(grid).values, N, grid))
    assert all(isinstance(h, ProductLevel) for h in hat0.values())
    # packed before the march: coupled levels bit for bit, since _Volterra packs
    # its base the same way; every level, free ones too, within rounding
    coupled0 = {n: h.packed() if n + p // 2 <= N else h for n, h in hat0.items()}
    packed0 = {n: h.packed() for n, h in hat0.items()}
    rule = QuadratureRule("trapezoid")
    marches = zip(*(_march(grid, h0, spec, 10, 1e-3, rule) for h0 in (hat0, coupled0, packed0)))
    for (i, prod), (_, coupled), (_, packed) in marches:
        for n in range(1, N + 1):
            assert isinstance(prod[n], ProductLevel) == (n + p // 2 > N), (i, n)
            assert np.array_equal(_packed_hat(prod[n]), _packed_hat(coupled[n])), (i, n)
            assert _rel(_packed_hat(prod[n]), packed[n]) <= 1e-12, (i, n)


def test_factorized_state_builds_dense_levels_on_request():
    # M=8, N=5: level 5 has 2^30 entries, beyond the guard; as a free level
    # it is a product, and only an explicit request for its kernel is refused
    grid = make_grid(1, 8, 2 * np.pi)
    state = HierarchyState.factorized(cosine_field(grid).values, 5, grid)
    top = _initial_hats(state.truncate(2))[2]
    assert isinstance(top, ProductLevel)
    free5 = ProductLevel(grid, 5, fftn_level(state.phi))
    assert free5.trace() == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(MemoryGuardError):
        state.level(5)
    with pytest.raises(MemoryGuardError):
        free5.marginal()


def test_product_invariant_rows_and_nan_gate():
    grid = make_grid(1, 4, 2 * np.pi)
    spec = InteractionSpec(2, 1)
    hat0 = _initial_hats(HierarchyState.factorized(cosine_field(grid).values, 3, grid))
    # node 0 of the march: the coupled level 1 is packed, the free levels are products
    _, hats = next(_march(grid, hat0, spec, 1, 1e-3, QuadratureRule("trapezoid")))
    hats = dict(hats)
    rows, traces, failure = _structural_invariants(0.0, hats, grid, spec, None)
    assert failure is None
    assert rows[2]["free"] and rows[2]["herm_defect"] == 0.0 and rows[2]["sym_defect"] == 0.0
    assert traces[3] == pytest.approx(1.0, rel=1e-13)
    # a NaN anywhere fails the gate instead of passing every comparison
    hats[1] = hats[1] * np.nan
    _, _, failure = _structural_invariants(0.0, hats, grid, spec, traces)
    assert failure is not None and "level 1" in failure
