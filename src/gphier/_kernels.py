"""Internal Fourier-domain kernels for the time marches.

The solvers keep every hierarchy level in mode space, as a packed level
(the (n_k, n_k) array of _packed: its values on sorted multisets of modes)
or as a product level, so the free propagator is one elementwise phase
multiply per node (phase_tensor).  The collapse pins p/2 extra unprimed and
primed slots to x_j; on the mode side that is a mode-sum convolution

    out[r_1..r_k; r'] = M^(-pd/2) * sum_{pinned modes} hat[.., r_j - sigma, .., pinned]

with sigma the componentwise sum of all pinned modes (indices mod M, which
is exact on the grid).  fourier_collapse is the one entry point.  On a
packed level it is a fixed linear map between packed levels, read from
the slabs X_s of the pins of sum s (_packed_collapse): cached gathers,
whose cost is set by the packed sizes, not by M^(2 kappa d), build the
slabs a block of pin sums at a time, and one j-sum adds their shifted
rows and subtracts their shifted columns.  The same routine collapses
B U(t) P at many times at once (the Strichartz probe and the boardgame's
normalizer): the phase of U(t) splits into a part on the retained
multisets and a part on the pinned modes, so one matrix product with the
pinned phases sums the pins of each slab at every t.  A stack of nodes of
one level (the march's node blocks) rides through the same gathers and
sums as a trailing axis, so each node is collapsed bit for bit as it would
be alone.  The real-space operators stay its test oracle.

A product level, the level-k mode tensor of a product state
prod_j psi(x_j) conj(psi(x'_j)), is held by its M^d factor psi_hat (see
marginal.ProductLevel), and fourier_collapse hands it to product_collapse,
which collapses it from that factor: pinning puts g = |psi|^p psi into one
slot, so the result is the packed rank-two form
u_sum (x) v_pow - u_pow (x) v_sum on multisets.
"""

from __future__ import annotations

import functools
import math
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


def fftn_level(data: np.ndarray, axes=None) -> np.ndarray:
    return np.fft.fftn(data, axes=axes, norm="ortho")


def ifftn_level(hat: np.ndarray, axes=None) -> np.ndarray:
    return np.fft.ifftn(hat, axes=axes, norm="ortho")


def product_collapse(psi_hat: np.ndarray, grid: TorusGrid, kappa: int, half: int) -> np.ndarray:
    """Packed B_{k+p/2} of the level-kappa product level with factor psi_hat.

    The result equals fourier_collapse of the packed level.  In real space
    B^+_j puts g = |psi|^p psi in place of psi in unprimed slot j, and B^-_j
    puts conj(g) in primed slot j, so with u = psi_hat, v = conj(u[-r]) and
    g_hat, g_bar alike, the output is the rank-two
        u_sum (x) v_pow  -  u_pow (x) v_sum
    on multisets A: u_pow[A] = prod_a u[a] and u_sum[A] the sum over the
    slots j of that product with g_hat[a_j] in place of u[a_j].  A stack of
    factors on leading axes gives the stack of their collapses, each bit for
    bit the collapse of its factor alone.
    """
    k = kappa - half
    if k < 1:
        raise ValueError(f"collapse needs level >= {half + 1}, got {kappa}")
    axes = tuple(range(-grid.d, 0))
    lead = psi_hat.shape[: -grid.d]
    psi = ifftn_level(psi_hat, axes)
    g_hat = fftn_level(np.abs(psi) ** (2 * half) * psi, axes)
    # f[2 * side + slot, ..., i, A]: the factor (slot 0) or the slot factor (slot 1) of
    # the unprimed (side 0) or primed (side 1) block at mode i of each multiset A
    unprimed = np.array([psi_hat, g_hat]).reshape(2, *lead, -1)
    f = np.concatenate([unprimed, np.take(unprimed, one_particle(grid).neg, axis=-1).conj()])
    # take, not fancy indexing: its result is in C order, with the modes of a multiset innermost
    f = np.take(f, layout(grid, k).modes.T, axis=-1)
    power, slot_sum = f[0::2, ..., 0, :], f[1::2, ..., 0, :]
    for i in range(1, k):
        slot_sum = slot_sum * f[0::2, ..., i, :] + power * f[1::2, ..., i, :]
        power = power * f[0::2, ..., i, :]
    # C order: a stack is laid out as its collapses one by one would be
    out = np.multiply(slot_sum[0][..., :, None], power[1][..., None, :], order="C")
    out -= power[0][..., :, None] * slot_sum[1][..., None, :]
    return out


def product_power(psi_hat: np.ndarray, grid: TorusGrid, k: int) -> np.ndarray:
    """Packed level k of the product state: prod_a u[a] (x) prod_b v[b], v = conj(u[-r])."""
    modes, flat = layout(grid, k).modes, psi_hat.reshape(-1)
    u, v = flat[modes], flat[one_particle(grid).neg[modes]].conj()
    return np.multiply.outer(u.prod(axis=1), v.prod(axis=1))


def fourier_collapse(
    hat: np.ndarray | ProductLevel, grid: TorusGrid, kappa: int, half: int, times=None
) -> np.ndarray:
    """Mode-space B_{k+p/2}: collapse a level-kappa level to level k = kappa - half.

    `half` is p/2; `hat` is not modified.  It takes
      - a packed level (the (n_kappa, n_kappa) array of _packed), collapsed
        by _packed_collapse to a packed level k;
      - a stack of B packed levels, a (B, n_kappa, n_kappa) array, collapsed
        by _packed_collapse in one pass to the (B, n_k, n_k) stack of their
        collapses, each bit for bit the collapse of its node alone;
      - a product level (marginal.ProductLevel), collapsed from its factor
        by product_collapse to a packed level k, and a product level whose
        factor carries a leading axis of B factors to the stack of their B
        collapses;
      - with `times`, B U(t) hat stacked over t in times on a leading axis,
        packed: a packed level by _packed_collapse, all times at once, and
        a product level by one product_collapse of its factors evolved to
        every t (hat's own factor at t = 0).
    """
    k = kappa - half
    if k < 1:
        raise ValueError(f"collapse needs level >= {half + 1}, got {kappa}")
    if not isinstance(hat, np.ndarray):
        if times is not None:
            factors = [(hat if t == 0 else hat.evolved(t)).psi_hat for t in times]
            hat = type(hat)(grid, kappa, np.stack(factors))
        return hat.collapse(half)
    if hat.shape[-2:] != packed_shape(grid, kappa) or not (hat.ndim == 2 or hat.ndim == 3 and times is None):
        raise ValueError(
            f"level {kappa} collapses a packed {packed_shape(grid, kappa)} level, or a stack of them"
            f" without times, got {hat.shape}"
        )
    return _packed_collapse(hat, grid, kappa, half, times)


#: the most entries one gather of _packed_collapse builds (512 KiB): a gather and sum
#: this size runs from cache, 3x faster per entry than one of a level-7 input level at M=8
_GATHER_CAP = 2**15


def _block_entries(P: np.ndarray) -> int:
    """The entries the slabs of one block may hold: one input level, and _GATHER_CAP for a small one."""
    return max(P.size, _GATHER_CAP)


@cached
def _collapse_tables(grid: TorusGrid, kappa: int, half: int, fold: bool, b: int):
    """The gather tables of _packed_collapse for level kappa, built once per (grid, kappa, p, fold, b).

    With U the n^half ordered tuples of pinned modes of one side and
    ins[A, U] the rank of A + U on level kappa, the unprimed tuples are
    grouped: by their sum sigma when folded, one tuple per group otherwise.
    The pins c of sum s are the pairs (group g, primed tuple V of sum
    s - sigma_g), and
      rows[A, g, u]     ins[A, U] over the tuples u of group g
      cols[s, c, B]     g * n_kappa + ins[B, V], a column of W[A] (the rows
                        of P at rows[A, g] summed, side by side over g)
      omega[s, c]       lam(U) - lam(V), the kinetic multiplier of an unfolded pin
    then the scale M^(-half d) and, per block of b pin sums, the gathers of
    _j_sum: with shifted[s, j, A] the rank of A with a_j -> a_j - s, row A of
      row   the rows (A, b) and (shifted[s, j, A], s) of the block's slabs
      col   the entries (b + 1, B) and (s, shifted[s, j, B]) of their row A
    """
    k, n = kappa - half, grid.M**grid.d
    one = one_particle(grid)
    modes = layout(grid, k).modes
    n_k = len(modes)
    U = np.indices((n,) * half).reshape(half, -1)
    usum = functools.reduce(lambda x, y: one.add[x, y], U)
    lam = (grid.wavenumbers[one.digits] ** 2).sum(axis=0)[U].sum(axis=0)
    A = np.broadcast_to(modes[:, None], (n_k, U.shape[1], k))
    ins = rank(grid, np.concatenate([A, np.broadcast_to(U.T, (n_k,) + U.T.shape)], axis=2))
    by_sum = np.argsort(usum, kind="stable").reshape(n, -1)  # the n^(half-1) tuples of each sum
    groups = by_sum if fold else by_sum.reshape(-1, 1)
    sub = one.add[:, one.neg]  # sub[a, b]: the mode a - b
    V = by_sum[sub[:, usum[groups[:, 0]]]]  # V[s, g]: the primed tuples of the pins of group g
    offset = np.arange(len(groups))[:, None, None] * packed_shape(grid, kappa)[0]
    cols = (ins[:, V].transpose(1, 2, 3, 0) + offset).reshape(n, -1, n_k)
    omega = (lam[groups[:, 0], None] - lam[V]).reshape(n, -1)
    shifted = np.repeat(modes[None, None], n * k, axis=0).reshape(n, k, n_k, k)
    for j in range(k):
        shifted[:, j, :, j] = sub[modes[:, j]].T
    shifted = rank(grid, shifted).reshape(n, k * n_k)
    blocks = []
    for s0 in range(0, n, b):
        sh = shifted[s0 : s0 + b].reshape(-1, n_k)
        s_of, at = np.repeat(np.arange(len(sh) // k), k)[:, None], np.arange(n_k)
        row = np.concatenate([at[None] * (b + 2) + b, sh * (b + 2) + s_of]).T
        blocks.append((row, np.concatenate([at[None] + (b + 1) * n_k, sh + s_of * n_k])))
    return ins[:, groups], cols, omega, float(grid.M) ** (-half * grid.d), blocks


def _packed_collapse(P: np.ndarray, grid: TorusGrid, kappa: int, half: int, times=None) -> np.ndarray:
    """B_{k+p/2} of a packed level-kappa level P as a packed level k; with times, B U(t) P stacked over t.

    A (B, n, n) stack P of nodes gives the stack of their collapses: the
    nodes ride as a trailing axis through every gather and sum, so each
    node's terms are added in the order of its collapse alone.

    The dense collapse pins p = 2 * half modes, U unprimed and V primed, and
    shifts slot j of the retained block by their sum s:
        out[A; B] = M^(-half d) sum_j (X_s[A with a_j - s; B] - X_s[A; B with b_j - s]),
        X_s[A; B] = sum_{sum U + sum V = s} P[A + U, B + V],
    both sums also over s.  The slabs X_s are built a block of pin sums at
    a time, as many as one input level holds (_block_entries) and at least
    two, and each block in gathers of at most _GATHER_CAP entries over a few
    rows A: W[A] sums the rows of P at the unprimed tuples of each group
    (the fold by sigma = sum U), and one gather of W[A] at the primed ranks
    of every pin gives the terms of X_s[A] at every s of the block.  Under
    U(t) the term of pin c gains exp(-i t omega_c) and X_s the retained
    phases e_t(A) conj e_t(B) (e_t as in phase_tensor), so with times the
    pins are not folded and one matrix product with their phases sums them
    at every t, the time axis last.  _j_sum then sums each block's shifted
    rows and shifted columns.  Every sum runs in one order, whatever the
    blocks.
    """
    n_k, n = packed_shape(grid, kappa - half)[0], grid.M**grid.d
    if P.ndim == 3:
        P = np.moveaxis(P, 0, -1)
    nodes = P.shape[2:]
    tail = nodes if times is None else (len(times),)
    b = min(n, max(2, _block_entries(P) // (n_k * n_k * math.prod(tail))))
    rows, cols, omega, scale, blocks = _collapse_tables(grid, kappa, half, times is None, b)
    n_g, m = rows.shape[1:]
    c = cols.shape[1]
    # slots b and b + 1 of each row A hold the running sums of its shifted rows and columns
    X = np.zeros((n_k, b + 2, n_k) + tail, dtype=P.dtype if times is None else complex)
    if times is not None:
        e = np.stack([multiset_products(phase_weights(grid, t), grid, kappa - half) for t in times], axis=1)
    for s0, shifts in zip(range(0, n, b), blocks):
        bb = min(b, n - s0)
        if times is not None:
            E = np.exp(-1j * np.multiply.outer(omega[s0 : s0 + bb], times))
        # per row A: W, the m rows of P that a fold sums into each of its groups, and G
        step = max(1, _GATHER_CAP // ((n_g * P.shape[1] * (m + 1 if m > 1 else 1) + bb * c * n_k) * math.prod(nodes)))
        for a0 in range(0, n_k, step):
            R = rows[a0 : a0 + step]
            W = P[R[..., 0]] if m == 1 else P[R].sum(axis=2)
            G = np.take(W.reshape(len(R), -1, *nodes), cols[s0 : s0 + bb], axis=1)
            x = X[a0 : a0 + step, :bb]
            if times is None:
                np.sum(G, axis=2, out=x)
            else:
                np.matmul(G.swapaxes(2, 3), E * e[a0 : a0 + step, None, None], out=x)
                x *= e.conj()
        del W, G  # the last gather is not held through the j-sum
        _j_sum(X, *shifts)
    out = X[:, -2].copy()  # a copy, then in place: no temporary beside X
    out -= X[:, -1]
    out *= scale
    if times is None and out.ndim == 3:
        # in the layout of the nodes' own collapses, which later reductions read in order
        return np.ascontiguousarray(np.moveaxis(out, -1, 0))
    return out if times is None else np.moveaxis(out, -1, 0)


def _j_sum(X: np.ndarray, row: np.ndarray, col: np.ndarray) -> None:
    """Sum the shifted rows and the shifted columns of the slabs X[:, s] into the last two slots.

    X[A, s] is slab s of the block, any time axis last.  Row A of slot -2
    gains sum_{s, j} X[A with a_j - s, s] and of slot -1
    sum_{s, j} X[A, s, B with b_j - s] over B: per few rows A, one gather
    of each side (row, col of _collapse_tables) whose first term is the
    slot itself, reduced in order, so the sums do not depend on the blocks.
    """
    n_k, slots = X.shape[:2]
    rows, per_row = X.reshape(n_k * slots, n_k, -1), X.reshape(n_k, slots * n_k, -1)
    sums = X[:, -2:].reshape(n_k, 2, n_k, -1)
    step = max(1, _GATHER_CAP // (row.shape[1] * X[0, 0].size))
    for a in map(slice, range(0, n_k, step), range(step, n_k + step, step)):
        np.add.reduce(rows[row[a]], axis=1, out=sums[a, 0])
        np.add.reduce(np.take(per_row[a], col, axis=1), axis=1, out=sums[a, 1])
