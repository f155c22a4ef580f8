"""Internal Fourier-domain kernels for the time marches.

The solver keeps hierarchy levels as mode tensors so that the free
propagator is a single elementwise phase multiply per node.  The collapse
is evaluated directly on mode tensors: pinning p/2 extra unprimed and
primed slots to x_j turns, on the mode side, into a mode-sum convolution

    out[r_1..r_k; r'] = M^(-pd/2) * sum_{pinned modes} hat[.., r_j - sigma, .., pinned]

with sigma the componentwise sum of all pinned modes (indices mod M, which
is exact on the grid).  The sigma-grouped intermediate is independent of
the slot j and of the +/- branch, so one pass over the input serves the
whole j-sum.  It is built by folding the p pinned variables into sigma one
variable at a time, each fold a cyclic shift-add per mode of the folded
variable: (p - 1) * M^d shift-adds, with one code path for every p and
d.  Cross-checked elementwise against the real-space operators in the
test suite.

A product level, the level-k mode tensor of a product state
prod_j psi(x_j) conj(psi(x'_j)), is held by its M^d factor psi_hat (see
marginal.ProductLevel), and fourier_collapse hands it to product_collapse,
which collapses it from that factor: pinning puts g = |psi|^p psi into one
slot, so the result is a sum of 2k outer products of M^d vectors and no
M^(2 kappa d) tensor is formed.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .grid import TorusGrid

if TYPE_CHECKING:
    from .marginal import ProductLevel


def multiplier_tensor(grid: TorusGrid, k: int) -> np.ndarray:
    """Dense kinetic multiplier sum_j(|p_j|^2 - |p'_j|^2) on level-k modes."""
    n_axes = grid.axis_count(k)
    half = n_axes // 2
    p2 = grid.wavenumbers**2
    lam = np.zeros((grid.M,) * n_axes)
    for ax in range(n_axes):
        shape = [1] * n_axes
        shape[ax] = grid.M
        lam += (p2 if ax < half else -p2).reshape(shape)
    return lam


def phase_tensor(grid: TorusGrid, k: int, t: float) -> np.ndarray:
    """Dense free-propagator phases exp(-i t lambda) on level-k modes."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return np.exp(-1j * t * multiplier_tensor(grid, k))


def phase_stream(grid: TorusGrid, k: int, dt: float):
    """U(i*dt) on level-k modes for i = 0, 1, 2, ...

    One array is advanced in place by the phases of one step, so each
    yielded value is overwritten by the next; copy it to keep it.
    """
    step = phase_tensor(grid, k, dt)
    P = np.ones_like(step)
    while True:
        yield P
        np.multiply(P, step, out=P)


def fftn_level(data: np.ndarray) -> np.ndarray:
    return np.fft.fftn(data, norm="ortho")


def ifftn_level(hat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(hat, norm="ortho")


def conj_negated(hat: np.ndarray) -> np.ndarray:
    """conj(hat[-r]) on one-particle modes: the unitary DFT of conj(f) when hat is that of f."""
    axes = tuple(range(hat.ndim))
    return np.conj(np.roll(np.flip(hat, axes), 1, axes))


def product_collapse(psi_hat: np.ndarray, grid: TorusGrid, kappa: int, half: int) -> np.ndarray:
    """Mode-space B_{k+p/2} of the level-kappa product level with factor psi_hat.

    The result equals fourier_collapse of the dense tensor.  In real space
    B^+_j puts g = |psi|^p psi in place of psi in unprimed slot j, and B^-_j
    puts conj(g) in primed slot j, so with u = psi_hat, v = conj(u[-r]) and
    g_hat, g_bar alike, the output is
        sum_j u..g_hat(slot j)..u (x) v^k  -  u^k (x) sum_j v..g_bar(slot j)..v.
    """
    k = kappa - half
    if k < 1:
        raise ValueError(f"collapse needs level >= {half + 1}, got {kappa}")
    psi = ifftn_level(psi_hat)
    g_hat = fftn_level(np.abs(psi) ** (2 * half) * psi)

    def power_and_slot_sum(f: np.ndarray, f_slot: np.ndarray):
        # f^(x k) and the sum over j of f^(x k) with f_slot in slot j
        power, slot_sum = f, f_slot
        for _ in range(k - 1):
            slot_sum = np.multiply.outer(slot_sum, f) + np.multiply.outer(power, f_slot)
            power = np.multiply.outer(power, f)
        return power, slot_sum

    u_power, u_sum = power_and_slot_sum(psi_hat, g_hat)
    v_power, v_sum = power_and_slot_sum(conj_negated(psi_hat), conj_negated(g_hat))
    out = np.multiply.outer(u_sum, v_power)
    out -= np.multiply.outer(u_power, v_sum)
    return out


def _shift_add(dst: np.ndarray, src: np.ndarray, first_axis: int, shift, subtract: bool = False) -> None:
    """In place: dst[.., r + shift, ..] += src[.., r, ..] (or -=), indices mod M.

    The shift acts on the len(shift) axes starting at `first_axis`; `dst`
    and `src` have the same shape.  Each shifted axis splits into its
    unwrapped and its wrapped piece, so this is at most 2^len(shift) slice
    adds and allocates nothing.
    """
    # (dst piece, src piece) per axis: the unwrapped part, then the wrapped one
    per_axis = [
        [(slice(None), slice(None))]
        if s == 0
        else [(slice(s, None), slice(None, -s)), (slice(None, s), slice(-s, None))]
        for s in shift
    ]
    lead = (slice(None),) * first_axis
    for pieces in itertools.product(*per_axis):
        view = dst[lead + tuple(dst_piece for dst_piece, _ in pieces)]
        part = src[lead + tuple(src_piece for _, src_piece in pieces)]
        if subtract:
            view -= part
        else:
            view += part


def fourier_collapse(hat: np.ndarray | ProductLevel, grid: TorusGrid, kappa: int, half: int) -> np.ndarray:
    """Mode-space B_{k+p/2}: collapse a level-kappa mode tensor to level kappa-half.

    `half` is p/2.  Output axes follow the standard (unprimed block, primed
    block) order of the retained k = kappa - half variables; `hat` is not
    modified.  A product level (marginal.ProductLevel) in place of the
    tensor is collapsed from its factor by product_collapse.

    The p pinned variables are folded one at a time into the first pinned
    unprimed variable, which thereby comes to hold sigma:
    new[.., s, ..] = sum_q acc[.., s - q, .., q, ..], one cyclic shift-add
    per mode q of the folded variable.  The unprimed pinned variables go
    first, while the tensor is largest and their slabs are contiguous.  The
    j-sum then shift-adds each sigma slab into `out` along the j-th
    unprimed (+) and primed (-) variable.  In all: (p - 1) * M^d fold
    shift-adds and 2k * M^d output shift-adds, each at most 2^d slice adds.
    """
    if not isinstance(hat, np.ndarray):
        return hat.collapse(half)
    d, M = grid.d, grid.M
    k = kappa - half
    if k < 1:
        raise ValueError(f"collapse needs level >= {half + 1}, got {kappa}")
    modes = list(np.ndindex(*(M,) * d))
    # acc variables, d axes each: k retained unprimed, sigma, the unprimed
    # pinned ones not yet folded, k retained primed, the primed pinned ones
    acc = hat
    for n in range(2 * half - 1):
        var = k + 1 if n < half - 1 else 2 * k + 1
        new = np.zeros(acc.shape[: var * d] + acc.shape[(var + 1) * d :], dtype=np.complex128)
        lead = (slice(None),) * (var * d)
        for q in modes:
            _shift_add(new, acc[lead + q], k * d, q)
        acc = new

    out = np.zeros((M,) * (2 * k * d), dtype=np.complex128)
    lead = (slice(None),) * (k * d)
    for sigma in modes:
        slab = acc[lead + sigma]
        for j in range(k):
            _shift_add(out, slab, j * d, sigma)
            _shift_add(out, slab, (k + j) * d, sigma, subtract=True)
    out *= float(M) ** (-half * d)
    return out
