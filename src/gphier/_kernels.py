"""Internal Fourier-domain kernels for the time marches.

The solvers keep every hierarchy level in mode space, as a packed level
(the (n_k, n_k) array of _packed: its values on sorted multisets of modes)
or as a product level, so the free propagator is one elementwise phase
multiply per node (phase_tensor).  The collapse pins p/2 extra unprimed and
primed slots to x_j; on the mode side that is a mode-sum convolution

    out[r_1..r_k; r'] = M^(-pd/2) * sum_{pinned modes} hat[.., r_j - sigma, .., pinned]

with sigma the componentwise sum of all pinned modes (indices mod M, which
is exact on the grid).  fourier_collapse is the one entry point.  On a
packed level it is a fixed linear map between packed levels,
B(P) = F(P) - F'(P), both branches read from one sigma-grouped
intermediate X_s (_packed_collapse): three row gathers with cached tables,
whose cost is set by the packed sizes, not by M^(2 kappa d).  The
real-space operators stay its test oracle.

A product level, the level-k mode tensor of a product state
prod_j psi(x_j) conj(psi(x'_j)), is held by its M^d factor psi_hat (see
marginal.ProductLevel), and fourier_collapse hands it to product_collapse,
which collapses it from that factor: pinning puts g = |psi|^p psi into one
slot, so the result is the packed rank-two form
u_sum (x) v_pow - u_pow (x) v_sum on multisets.

The free collapse B U(t) P of a packed level at many times (the
Strichartz probe and the boardgame's normalizer) is linear in P, and only
phases depend on t.  The phase of U(t) splits into a part on the retained
multisets and a part on the pinned modes, so for each pin sum s one
gather of P at the pinned ranks and one matrix product with the pinned
phases give X_s at every time at once; the j-sum then gathers its shifted
rows and columns, the time axis last (_free_collapse).  Its tables
(_free_tables) are built apart, so a march never builds them.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

import numpy as np

from ._packed import cached, layout, multiset_products, one_particle, rank
from ._packed import shape as packed_shape
from .grid import TorusGrid, phase_weights

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
    """Packed free-propagator phases exp(-i t (lam(A) - lam(B))) of level k.

    U(t) of a packed level has this one form: every node of every march
    builds the phases of its own time here, exact to rounding, so no phase
    drifts with the step count.  e(A) is the product of the per-axis phases
    exp(-i t p^2) of A's modes, and the packed phases are the outer product
    of e with conj(e).
    """
    e = multiset_products(phase_weights(grid, t), grid, k)
    return np.multiply.outer(e, e.conj())


def fftn_level(data: np.ndarray) -> np.ndarray:
    return np.fft.fftn(data, norm="ortho")


def ifftn_level(hat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(hat, norm="ortho")


def conj_negated(hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """conj(hat[-r]) on every axis: the unitary DFT of conj(f) when hat is that of f.

    Written into `out` when given, which must not overlap hat.  On each axis
    -r keeps index 0 and reverses 1..M-1, so this is 2^ndim slice copies
    and allocates nothing beyond `out`.
    """
    if out is None:
        out = np.empty_like(hat)
    # (out piece, hat piece) per axis
    per_axis = [((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))] * hat.ndim
    for pieces in itertools.product(*per_axis):
        dst, src = zip(*pieces)
        np.conjugate(hat[src], out=out[dst])
    return out


def product_collapse(psi_hat: np.ndarray, grid: TorusGrid, kappa: int, half: int) -> np.ndarray:
    """Packed B_{k+p/2} of the level-kappa product level with factor psi_hat.

    The result equals fourier_collapse of the packed level.  In real space
    B^+_j puts g = |psi|^p psi in place of psi in unprimed slot j, and B^-_j
    puts conj(g) in primed slot j, so with u = psi_hat, v = conj(u[-r]) and
    g_hat, g_bar alike, the output is the rank-two
        u_sum (x) v_pow  -  u_pow (x) v_sum
    on multisets A: u_pow[A] = prod_a u[a] and u_sum[A] the sum over the
    slots j of that product with g_hat[a_j] in place of u[a_j].
    """
    k = kappa - half
    if k < 1:
        raise ValueError(f"collapse needs level >= {half + 1}, got {kappa}")
    psi = ifftn_level(psi_hat)
    g_hat = fftn_level(np.abs(psi) ** (2 * half) * psi)
    # f[2 * side + slot, i]: the factor (slot 0) or the slot factor (slot 1) of
    # the unprimed (side 0) or primed (side 1) block at mode i of each multiset
    f = np.array([psi_hat, g_hat, conj_negated(psi_hat), conj_negated(g_hat)]).reshape(4, -1)
    f = f[:, layout(grid, k).modes.T]
    power, slot_sum = f[0::2, 0], f[1::2, 0]
    for i in range(1, k):
        slot_sum = slot_sum * f[0::2, i] + power * f[1::2, i]
        power = power * f[0::2, i]
    out = np.multiply.outer(slot_sum[0], power[1])
    out -= np.multiply.outer(power[0], slot_sum[1])
    return out


def product_power(psi_hat: np.ndarray, grid: TorusGrid, k: int) -> np.ndarray:
    """Packed level k of the product state: prod_a u[a] (x) prod_b v[b], v = conj(u[-r])."""
    modes = layout(grid, k).modes
    u, v = psi_hat.reshape(-1)[modes], conj_negated(psi_hat).reshape(-1)[modes]
    return np.multiply.outer(u.prod(axis=1), v.prod(axis=1))


def fourier_collapse(
    hat: np.ndarray | ProductLevel, grid: TorusGrid, kappa: int, half: int, times=None
) -> np.ndarray:
    """Mode-space B_{k+p/2}: collapse a level-kappa level to level k = kappa - half.

    `half` is p/2; `hat` is not modified.  It takes
      - a packed level (the (n_kappa, n_kappa) array of _packed), collapsed
        by _packed_collapse to a packed level k;
      - a product level (marginal.ProductLevel), collapsed from its factor
        by product_collapse to a packed level k;
      - with `times`, B U(t) hat stacked over t in times on a leading axis,
        packed: a packed level by _free_collapse, all times at once, and a
        product level by collapsing hat.evolved(t), and hat itself at t = 0.
    """
    k = kappa - half
    if k < 1:
        raise ValueError(f"collapse needs level >= {half + 1}, got {kappa}")
    if not isinstance(hat, np.ndarray):
        if times is None:
            return hat.collapse(half)
        return np.stack([(hat if t == 0 else hat.evolved(t)).collapse(half) for t in times])
    if hat.shape != packed_shape(grid, kappa):
        raise ValueError(f"level {kappa} collapses a packed {packed_shape(grid, kappa)} level, got {hat.shape}")
    if times is not None:
        return _free_collapse(hat, grid, kappa, half, times)
    return _packed_collapse(hat, grid, kappa, half)


#: the most entries one gather of _row_sums builds at once
_GATHER_BLOCK = 2**21


def _row_sums(src: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """out[i] = sum_j src[idx[i, j]] for a 2-D src, gathered in blocks of at most _GATHER_BLOCK entries."""
    if idx.shape[1] == 1:
        return src[idx[:, 0]]
    out = np.empty((len(idx), src.shape[1]), dtype=src.dtype)
    step = max(1, _GATHER_BLOCK // (idx.shape[1] * src.shape[1]))
    for i in range(0, len(idx), step):
        np.sum(src[idx[i : i + step]], axis=1, out=out[i : i + step])
    return out


@cached
def _collapse_tables(grid: TorusGrid, kappa: int, half: int):
    """The gather tables of _packed_collapse for level kappa, built once per (grid, kappa, p).

    With U the n^half ordered tuples of pinned modes of one block and
    ins[A, U] the rank of A + U on level kappa:
      fold[(sigma, A), :]  ins[A, U] over the U whose modes sum to sigma
      pair[(s, B), U]      ins[B, U] * n + (s - sum U), a row (C, sigma) of W^T
      shift[A, (j, s)]     s * n_k + rank of A with a_j -> a_j - s
    followed by the scale M^(-half d), ins and the sums of the U (usum).
    """
    k, n = kappa - half, grid.M**grid.d
    one = one_particle(grid)
    modes = layout(grid, k).modes
    n_k = len(modes)
    U = np.indices((n,) * half).reshape(half, -1).T
    usum = U[:, 0]
    for u in U[:, 1:].T:
        usum = one.add[usum, u]
    A = np.broadcast_to(modes[:, None], (n_k, len(U), k))
    ins = rank(grid, np.concatenate([A, np.broadcast_to(U, (n_k,) + U.shape)], axis=2))
    # each sum sigma has n^(half-1) tuples
    fold = ins[:, np.argsort(usum, kind="stable").reshape(n, -1)].transpose(1, 0, 2).reshape(n * n_k, -1)
    sub = one.add[:, one.neg]  # sub[a, b]: the mode a - b
    pair = (ins * n + sub[:, usum][:, None, :]).reshape(n * n_k, -1)
    shifted = np.repeat(modes[:, None, None, :], k * n, axis=1).reshape(n_k, k, n, k)
    for j in range(k):
        shifted[:, j, :, j] = sub[modes[:, j]]
    shift = (np.arange(n) * n_k + rank(grid, shifted)).reshape(n_k, k * n)
    return fold, pair, shift, float(grid.M) ** (-half * grid.d), ins, usum


def _packed_collapse(P: np.ndarray, grid: TorusGrid, kappa: int, half: int) -> np.ndarray:
    """B_{k+p/2} of a packed level-kappa level P, as a packed level k.

    The dense collapse pins p = 2 * half modes, U unprimed and V primed, and
    shifts slot j of the retained block by their sum s:
        out[A; B] = M^(-half d) sum_j (X_s[A with a_j - s; B] - X_s[A; B with b_j - s]),
        X_s[A; B] = sum_{sum U + sum V = s} P[A + U, B + V],
    both sums also over s.  X_s is the fold's sigma slab on multisets: the
    unprimed pins are folded first (W, rows (sigma, A)), then the primed
    ones with the rest of s (X_s^T, rows (s, B)).  The + and - branches of
    the j-sum are one gather-and-sum from X_s and from X_s^T.  Every step is
    a row gather of _row_sums with a cached table (_collapse_tables).
    """
    fold, pair, shift, scale, _, _ = _collapse_tables(grid, kappa, half)
    n_k = len(shift)
    n = len(pair) // n_k
    W = _row_sums(P, fold)
    XT = _row_sums(np.ascontiguousarray(W.T).reshape(-1, n_k), pair)
    X = XT.reshape(n, n_k, n_k).transpose(0, 2, 1).reshape(n * n_k, n_k)
    out = _row_sums(X, shift)
    out -= _row_sums(XT, shift).T
    out *= scale
    return out


@cached
def _free_tables(grid: TorusGrid, kappa: int, half: int):
    """The tables of _free_collapse for level kappa, built once per (grid, kappa, p).

    The pins are the pairs (U, V) of ordered tuples of half unprimed and
    half primed modes; those of sum s are the n^(p-1) rows c of
      rows[s, c] = ins[:, U_c], cols[s, c] = ins[:, V_c]    (ins of _collapse_tables)
      omega[s, c] = lam(U_c) - lam(V_c)                     their kinetic multiplier
    and shifted[s, j, A] is the rank of A with a_j -> a_j - s, the shift
    table of _collapse_tables without its s * n_k offset.
    """
    _, _, shift, scale, ins, usum = _collapse_tables(grid, kappa, half)
    one = one_particle(grid)
    n, n_k = grid.M**grid.d, len(shift)
    by_sum = np.argsort(one.add[usum[:, None], usum].reshape(-1), kind="stable").reshape(n, -1)
    iu, iv = np.divmod(by_sum, len(usum))
    p2 = (grid.wavenumbers[one.digits] ** 2).sum(axis=0)  # |p|^2 of each one-particle mode
    lam = p2[np.indices((n,) * half).reshape(half, -1)].sum(axis=0)
    shifted = (shift.reshape(n_k, -1, n) - np.arange(n) * n_k).transpose(2, 1, 0)
    return ins.T[iu], ins.T[iv], lam[iu] - lam[iv], shifted, scale


def _free_collapse(P: np.ndarray, grid: TorusGrid, kappa: int, half: int, times) -> np.ndarray:
    """B U(t) P of a packed level-kappa level P for every t in times, stacked on a leading axis.

    The phase of U(t) on P[A + U, B + V] is e_t(A) conj e_t(B) exp(-i t omega(U, V)),
    e_t the packed phases of phase_tensor, so the X_s of _packed_collapse at t is
        X_s(t)[A; B] = e_t(A) conj e_t(B) sum_c exp(-i t omega_c) G_s[c, A, B],
        G_s[c, A, B] = P[A + U_c, B + V_c],
    over the pins c of sum s.  Per s, the gathers G_s, at most _GATHER_BLOCK
    entries each, and one matrix product with the pinned phases give X_s at
    every time; the j-sum then adds its shifted rows and subtracts its
    shifted columns, each one gather with the time axis last.  Memory
    holds a few (n_k, n_k) arrays per time, so callers pass times in blocks.
    """
    rows, cols, omega, shifted, scale = _free_tables(grid, kappa, half)
    n, m, n_k = rows.shape
    e = np.stack([multiset_products(phase_weights(grid, t), grid, kappa - half) for t in times], axis=1)
    retained = e[:, None] * e.conj()
    out = np.zeros_like(retained)
    step = max(1, _GATHER_BLOCK // (n_k * n_k))
    for s in range(n):
        X = functools.reduce(
            np.add,
            (
                P[rows[s, c : c + step, :, None], cols[s, c : c + step, None, :]].reshape(-1, n_k * n_k).T
                @ np.exp(-1j * np.multiply.outer(omega[s, c : c + step], times))
                for c in range(0, m, step)
            ),
        ).reshape(retained.shape)
        X *= retained
        for a in shifted[s]:
            out += X[a]
            out -= X[:, a]
    out *= scale
    return out.transpose(2, 0, 1)
