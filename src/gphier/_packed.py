"""Packed layout of permutation-symmetric levels.

A level-k mode tensor hat[r_1..r_k; r'_1..r'_k] that is symmetric under
separate permutations of its unprimed and of its primed variables is fixed
by its values on sorted multisets of one-particle modes: the packed level
P[A, B] = hat[a_1..a_k; b_1..b_k] with a_1 <= .. <= a_k and b_1 <= .. <= b_k,
a 2-D (n_k, n_k) array with n_k = C(n + k - 1, k) rows, n = M^d.  A dense
level has 2kd axes, so the two forms only look alike at k*d = 1, where
packing is the identity.

A one-particle mode is its flat index in the C order of its d axes.  A
multiset is stored as its sorted modes a_1 <= .. <= a_k and ranked by the
colex rank sum_i C(a_i + i, i + 1) (0-based i) of the strictly increasing
sequence a_i + i, so rank is one table lookup per mode and a sum.

Per multiset A the layout holds what sums over the dense tensor need:
  mult(A) = k! / prod(counts!)   the number of mode tuples that sort to A
  neg(A)  = rank of -A           the antidiagonal partner of the trace
so the H^alpha norm is the sum of mult(A) mult(B) W(A) W(B) |P[A, B]|^2
(W the product of the squared Bessel weights of A's modes), the trace is
h^(dk) sum_A mult(A) P[A, -A], and U(t) is exp(-i t (lam(A) - lam(B)))
with lam(A) = sum_a |p_a|^2: a per-axis factor multiplied over the modes
of each multiset (multiset_products), as the dense outer products did.
pack and unpack convert between the forms; only real space keeps dense
tensors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, sobolev_weights


def cached(build):
    """build(*key) once per key, for tables that depend only on (grid, level, ...).

    A plain closure rather than functools.lru_cache, so the module holds no
    wrapped function (an outside tracer rebinds wrapped names).
    """
    tables = {}

    def get(*key):
        try:
            return tables[key]
        except KeyError:
            table = tables[key] = build(*key)
            return table

    get.__name__, get.__doc__ = build.__name__, build.__doc__
    return get


@dataclass(frozen=True, eq=False)
class OneParticle:
    """The n = M^d one-particle modes: their axis indices, mode sums and negatives."""

    digits: np.ndarray  # digits[c, a]: the index of mode a on axis c
    add: np.ndarray  # add[a, b]: the mode a + b (componentwise mod M)
    neg: np.ndarray  # neg[a]: the mode -a


@cached
def one_particle(grid: TorusGrid) -> OneParticle:
    shape = (grid.M,) * grid.d
    digits = np.indices(shape).reshape(grid.d, -1)
    add = np.ravel_multi_index(tuple((digits[:, :, None] + digits[:, None, :]) % grid.M), shape)
    neg = np.ravel_multi_index(tuple(-digits % grid.M), shape)
    return OneParticle(*_frozen(digits, add, neg))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # cached tables are shared by every caller
    for a in arrays:
        a.setflags(write=False)
    return arrays


@cached
def _binomials(n: int, k: int) -> np.ndarray:
    """table[x, i] = C(x, i) for x < n + k, i <= k."""
    return np.array([[math.comb(x, i) for i in range(k + 1)] for x in range(n + k)], dtype=np.int64)


def rank(grid: TorusGrid, multisets: np.ndarray) -> np.ndarray:
    """Packed index of each multiset along the last axis (any order of its modes)."""
    k = multisets.shape[-1]
    sequence = np.sort(multisets, axis=-1) + np.arange(k)
    return _binomials(grid.M**grid.d, k)[sequence, np.arange(1, k + 1)].sum(axis=-1)


@dataclass(frozen=True, eq=False)
class Layout:
    """The multisets of one level in packed order, and their per-multiset tables."""

    modes: np.ndarray  # (n_k, k): the sorted modes of each multiset
    axes: np.ndarray  # (n_k, k*d): the axis indices of those modes, d per mode
    mult: np.ndarray  # k! / prod(counts!)
    neg: np.ndarray  # rank of -A

    @property
    def size(self) -> int:
        return len(self.modes)


@cached
def layout(grid: TorusGrid, k: int) -> Layout:
    n = grid.M**grid.d
    combos = np.array(list(itertools.combinations_with_replacement(range(n), k)), dtype=np.int64)
    modes = np.empty_like(combos)
    modes[rank(grid, combos)] = combos
    # run[:, i]: how many of modes[:, :i+1] equal modes[:, i]; their product is prod(counts!)
    run = np.ones(modes.shape, dtype=np.int64)
    for i in range(1, k):
        run[:, i] = np.where(modes[:, i] == modes[:, i - 1], run[:, i - 1] + 1, 1)
    mult = math.factorial(k) / run.prod(axis=1)
    one = one_particle(grid)
    axes = one.digits[:, modes].transpose(1, 2, 0).reshape(len(modes), k * grid.d)
    return Layout(*_frozen(modes, axes, mult, rank(grid, one.neg[modes])))


def shape(grid: TorusGrid, k: int) -> tuple[int, int]:
    """Shape (n_k, n_k) of a packed level-k array."""
    n_k = math.comb(grid.M**grid.d + k - 1, k)
    return (n_k, n_k)


@cached
def weights(grid: TorusGrid, k: int, alpha: float) -> np.ndarray:
    """mult(A) * W(A): the factor of row A (and of column A) in the squared H^alpha norm."""
    lay = layout(grid, k)
    return _frozen(lay.mult * multiset_products(sobolev_weights(grid, alpha) ** 2, grid, k))[0]


def multiset_products(per_axis: np.ndarray, grid: TorusGrid, k: int) -> np.ndarray:
    """prod over the k modes of each multiset, and the d axes of each mode, of a per-axis factor."""
    return per_axis[layout(grid, k).axes].prod(axis=1)


@cached
def tuple_ranks(grid: TorusGrid, k: int) -> np.ndarray:
    """Packed index of every mode tuple of a k-variable block, in dense (C) order."""
    n = grid.M**grid.d
    return _frozen(rank(grid, np.indices((n,) * k).reshape(k, -1).T))[0]


def pack(hat: np.ndarray, grid: TorusGrid, k: int) -> np.ndarray:
    """P[A, B] of a dense level-k mode tensor: its entries at the sorted representatives.

    The value is taken, not checked: a caller that cannot trust the
    symmetry measures it (marginal._pack_level).
    """
    n = grid.M**grid.d
    rep = layout(grid, k).modes @ n ** np.arange(k - 1, -1, -1)
    return hat.reshape(n**k, n**k)[np.ix_(rep, rep)]


def unpack(P: np.ndarray, grid: TorusGrid, k: int) -> np.ndarray:
    """The dense level-k mode tensor of a packed level."""
    ranks = tuple_ranks(grid, k)
    return P[np.ix_(ranks, ranks)].reshape((grid.M,) * grid.axis_count(k))
