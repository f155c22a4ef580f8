"""Contraction operators, free propagator, and the hierarchy right-hand side.

The collapse B^+_{j} evaluates a level-(k+p/2) kernel with all p/2 extra
unprimed and primed slots set equal to x_j; B^-_{j} pins them to x'_j.  On
the grid each delta pair cancels one integration weight, so the operation
is a pure diagonal restriction with no h factors, which keeps
Tr B^+ gamma = Tr B^- gamma exact.

Adopted sign convention (validated by the finite-difference residual test
and the Duhamel reconstruction identity): the evolution reads
d/dt gamma^(k) = i*(sum_j Delta_{x_j} - Delta_{x'_j}) gamma^(k) - i*mu*(B gamma^(k+p/2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import fftn_level, ifftn_level, multiplier_tensor
from .grid import TorusGrid, transform
from .marginal import HierarchyState, Marginal


@dataclass(frozen=True)
class InteractionSpec:
    """Interaction order p (2 cubic, 4 quintic) and coupling sign mu."""

    p: int = 2
    mu: int = 1

    def __post_init__(self):
        if self.p not in (2, 4):
            raise ValueError(f"interaction order p must be 2 or 4, got {self.p}")
        if self.mu not in (-1, 1):
            raise ValueError(f"coupling mu must be -1 or +1, got {self.mu}")

    @property
    def half(self) -> int:
        return self.p // 2

    @property
    def focusing(self) -> bool:
        return self.mu == -1


def _restrict_to_slot(
    data: np.ndarray, grid: TorusGrid, kappa: int, k: int, j: int, pin_primed: bool
) -> np.ndarray:
    """Generalized diagonal: the extra slots reuse the einsum labels of x_j (or x'_j).

    The 2k retained variables own labels 0..2kd-1, d per variable, and every
    pinned extra slot, unprimed and primed, takes the labels of the pinned one.
    """
    d = grid.d
    pinned = [((k if pin_primed else 0) + j - 1) * d + c for c in range(d)]
    extra = pinned * (kappa - k)
    labels = list(range(k * d)) + extra + list(range(k * d, 2 * k * d)) + extra
    return np.ascontiguousarray(np.einsum(data, labels, list(range(2 * k * d))))


def _check_collapse_input(gamma: Marginal, spec: InteractionSpec) -> int:
    k = gamma.k - spec.half
    if k < 1:
        raise ValueError(
            f"collapse needs input level >= {1 + spec.half} (p={spec.p}), got level {gamma.k}"
        )
    return k


def _pin_slot(j: int, gamma: Marginal, spec: InteractionSpec, pin_primed: bool) -> Marginal:
    k = _check_collapse_input(gamma, spec)
    if not 1 <= j <= k:
        raise ValueError(f"slot index j={j} out of range 1..{k}")
    return Marginal(gamma.grid, k, _restrict_to_slot(gamma.data, gamma.grid, gamma.k, k, j, pin_primed))


def b_plus(j: int, gamma: Marginal, spec: InteractionSpec) -> Marginal:
    """B^+_{j}: pin the p/2 extra unprimed and primed slots to x_j."""
    return _pin_slot(j, gamma, spec, pin_primed=False)


def b_minus(j: int, gamma: Marginal, spec: InteractionSpec) -> Marginal:
    """B^-_{j}: pin the p/2 extra unprimed and primed slots to x'_j."""
    return _pin_slot(j, gamma, spec, pin_primed=True)


def b_collapse(gamma: Marginal, spec: InteractionSpec) -> Marginal:
    """B_{k+p/2} gamma = sum_j (B^+_j - B^-_j) gamma, mapping level k+p/2 to k.

    The j-sum is evaluated without intermediate symmetrization (symmetry
    holds analytically for symmetric inputs).
    """
    k = _check_collapse_input(gamma, spec)
    out = np.zeros((gamma.grid.M,) * gamma.grid.axis_count(k), dtype=np.complex128)
    for j in range(1, k + 1):
        out += _restrict_to_slot(gamma.data, gamma.grid, gamma.k, k, j, pin_primed=False)
        out -= _restrict_to_slot(gamma.data, gamma.grid, gamma.k, k, j, pin_primed=True)
    return Marginal(gamma.grid, k, out)


def b_hat(state: HierarchyState, spec: InteractionSpec) -> HierarchyState:
    """Sequence collapse: level-k output is B gamma^(k+p/2); N shrinks by p/2."""
    if state.N < 1 + spec.half:
        raise ValueError(f"b_hat needs N >= {1 + spec.half}, got N={state.N}")
    levels = [b_collapse(state.level(k + spec.half), spec) for k in range(1, state.N - spec.half + 1)]
    return HierarchyState(state.grid, levels)


def free_evolve(gamma: Marginal, t: float) -> Marginal:
    """Apply U^(k)(t): diagonal phases exp(-it|p|^2) (unprimed) and conjugate (primed).

    Unitary and diagonal, so trace, hermiticity, symmetry, and every
    H^alpha norm are preserved exactly.  The level need not be symmetric,
    so it stays dense: the phases are exp(-i t lambda) of the dense
    kinetic multiplier.
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    phases = np.exp(-1j * t * multiplier_tensor(gamma.grid, gamma.k))
    return Marginal(gamma.grid, gamma.k, ifftn_level(phases * fftn_level(gamma.data)))


def rhs(state: HierarchyState, spec: InteractionSpec) -> HierarchyState:
    """Time derivative of the truncated hierarchy at the given state.

    Per level: -i*(|p|^2 multiplier) part (the kinetic commutator, diagonal
    in Fourier, consistent with free_evolve) minus i*mu times the collapse
    of the level p/2 above (zero above the truncation).
    """
    grid = state.grid
    out = []
    for n in range(1, state.N + 1):
        g = state.level(n)
        hat = transform(g.data, range(g.n_axes), "forward")
        hat *= -1j * multiplier_tensor(grid, n)
        dgamma = transform(hat, range(g.n_axes), "inverse")
        if n + spec.half <= state.N:
            dgamma = dgamma - 1j * spec.mu * b_collapse(state.level(n + spec.half), spec).data
        out.append(Marginal(grid, n, dgamma))
    return HierarchyState(grid, out)


@dataclass(frozen=True)
class AlphaInterval:
    """Half-line of admissible regularities (lower end open or closed)."""

    lower: float
    closed: bool

    def __contains__(self, alpha: float) -> bool:
        return alpha >= self.lower if self.closed else alpha > self.lower

    def __str__(self) -> str:
        bracket = "[" if self.closed else "("
        return f"{bracket}{self.lower}, inf)"


def admissible_alpha_range(d: int, p: int) -> AlphaInterval:
    """Regularity range in which the collapse Strichartz estimates hold."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if p not in (2, 4):
        raise ValueError(f"interaction order p must be 2 or 4, got {p}")
    if d == 1:
        return AlphaInterval(0.5, closed=False)
    if (d, p) == (3, 2):
        return AlphaInterval(1.0, closed=True)
    return AlphaInterval(d / 2 - 1 / (2 * (p - 1)), closed=False)
