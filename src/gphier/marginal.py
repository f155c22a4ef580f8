"""Marginal density kernels, truncated hierarchy states, and their norms.

A level-k marginal is the kernel gamma^(k)(x_1..x_k; x'_1..x'_k) stored as
a dense rank-2k complex tensor (2kd axes for d>1), axes ordered unprimed
block first.  Physical marginals are hermitean, symmetric under separate
permutations of the unprimed and primed slots, and trace one.  _permuted
(two permutations of the slots) and Marginal.adjoint write these maps
once: symmetrize and hermitize, test oracles that no run path calls,
project onto them, and validate_marginal measures their defects.

All torus integrals are Riemann sums with weight h^d per integrated
variable, so trace/norm identities are exact for band-limited data.

The solvers hold each level in mode space (the unitary DFT of the kernel)
in one of two forms.  A packed level is the (n_k, n_k) array P[A, B] of
the mode tensor's values on sorted multisets of modes (_packed), which
fixes a permutation-symmetric level; a dense mode tensor enters it through
_pack_level, which refuses one whose symmetry defect is above
STRUCTURAL_TOL (SymmetryError) instead of symmetrizing it.  Every level of
factorized data is a product level (ProductLevel): the one-particle factor
psi_hat stands for the whole level.  Its H^alpha norm and trace are closed
forms in psi_hat, it is hermitean and symmetric by construction, and
packed() builds its packed level where a solver integrates a coupled level
(marginal() the real-space kernel).  The mode-space helpers below
(_h_alpha_norm_hat, _trace_hat, _hat_difference, _packed_hat, _marginal_of,
and _evolved_hat and _free_nodes for U(t)) accept either form, as does
_kernels.fourier_collapse.  Dense mode tensors remain only in real space
(_marginal_of unpacks).

The memory guard counts the entries of each array a level is about to
become: M^(2kd) for a dense tensor (_check_memory_guard) and n_k^2 for a
packed level (_check_packed_guard), against one MEMORY_GUARD_ELEMENTS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _packed
from ._kernels import ifftn_level, phase_tensor, product_collapse, product_power
from .grid import TorusGrid, phase_weights, sobolev_weights, transform

#: Dense tensors and packed levels above this element count are refused
#: (guards against accidental 100+ GB allocations; 2^28 complex128 = 4 GiB).
MEMORY_GUARD_ELEMENTS = 2**28

#: Defect (and negative eigenvalue) tolerance of validate_marginal.
STRUCTURAL_TOL = 1e-10


class MemoryGuardError(MemoryError):
    """Raised when a marginal would exceed the dense-tensor memory guard."""


class InvariantFailure(RuntimeError):
    """Raised when a run's numbers break an invariant (run_experiment exits 2)."""


class SymmetryError(ValueError):
    """Raised when a dense level to be packed is not permutation symmetric."""


def _check_memory_guard(grid: TorusGrid, k: int) -> None:
    _refuse_over_guard(grid.M ** (2 * grid.d * k), f"level-{k} marginal", grid)


def _check_packed_guard(grid: TorusGrid, k: int) -> None:
    n_k, _ = _packed.shape(grid, k)
    _refuse_over_guard(n_k * n_k, f"packed level {k}", grid)


def _refuse_over_guard(n_elements: int, what: str, grid: TorusGrid) -> None:
    if n_elements > MEMORY_GUARD_ELEMENTS:
        raise MemoryGuardError(
            f"{what} on M={grid.M}, d={grid.d} has {n_elements} elements "
            f"(> {MEMORY_GUARD_ELEMENTS}); reduce M, d or the number of levels"
        )


@dataclass
class Marginal:
    """k-particle density kernel on a torus grid."""

    grid: TorusGrid
    k: int
    data: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"particle number must be >= 1, got k={self.k}")
        expected = (self.grid.M,) * self.grid.axis_count(self.k)
        if self.data.shape != expected:
            raise ValueError(
                f"level-{self.k} kernel needs shape {expected}, got {self.data.shape}"
            )
        if not np.iscomplexobj(self.data):
            self.data = self.data.astype(np.complex128)

    @property
    def n_axes(self) -> int:
        return self.grid.axis_count(self.k)

    def copy(self) -> "Marginal":
        return Marginal(self.grid, self.k, self.data.copy())

    def adjoint(self) -> "Marginal":
        """Hermitean adjoint: swap primed/unprimed blocks and conjugate."""
        half = self.n_axes // 2
        perm = tuple(range(half, 2 * half)) + tuple(range(half))
        return Marginal(self.grid, self.k, self.data.transpose(perm).conj())

    def __add__(self, other: "Marginal") -> "Marginal":
        return Marginal(self.grid, self.k, self.data + other.data)

    def __sub__(self, other: "Marginal") -> "Marginal":
        return Marginal(self.grid, self.k, self.data - other.data)

    def __mul__(self, c) -> "Marginal":
        return Marginal(self.grid, self.k, self.data * c)

    __rmul__ = __mul__


def zero_marginal(grid: TorusGrid, k: int) -> Marginal:
    _check_memory_guard(grid, k)
    shape = (grid.M,) * grid.axis_count(k)
    return Marginal(grid, k, np.zeros(shape, dtype=np.complex128))


def _field(phi: np.ndarray, grid: TorusGrid) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (grid.M,) * grid.d:
        raise ValueError(
            f"field shape {phi.shape} does not match grid (M={grid.M}, d={grid.d})"
        )
    return phi


def factorized_marginal(phi: np.ndarray, k: int, grid: TorusGrid) -> Marginal:
    """Product-state kernel prod_j phi(x_j) conj(phi(x'_j)).

    Trace equals ||phi||_{L2}^{2k}, so unit-normalized phi gives trace one.
    """
    phi = _field(phi, grid)
    if k < 1:
        raise ValueError(f"particle number must be >= 1, got k={k}")
    _check_memory_guard(grid, k)
    factors = [phi] * k + [phi.conj()] * k
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return Marginal(grid, k, out)


def _permuted(data: np.ndarray, grid: TorusGrid, k: int, unprimed, primed) -> np.ndarray:
    """data with its unprimed variables in the slot order `unprimed` and its
    primed ones in the order `primed` (0-based slots): a transposed view."""
    d = grid.d
    blocks = ((0, unprimed), (k, primed))
    return data.transpose([(base + v) * d + c for base, perm in blocks for v in perm for c in range(d)])


def symmetrize(gamma: Marginal) -> Marginal:
    """Average over all permutations of the unprimed slots, then over all
    permutations of the primed slots of that sum: 2 k! transposed adds."""
    grid, k = gamma.grid, gamma.k
    ident = tuple(range(k))
    perms = list(itertools.permutations(ident))
    unprimed = sum(_permuted(gamma.data, grid, k, s, ident) for s in perms)
    out = sum(_permuted(unprimed, grid, k, ident, s) for s in perms)
    out /= math.factorial(k) ** 2
    return Marginal(grid, k, out)


def hermitize(gamma: Marginal) -> Marginal:
    """Project onto the hermitean part (gamma + gamma^dagger)/2."""
    return Marginal(gamma.grid, gamma.k, 0.5 * (gamma.data + gamma.adjoint().data))


@dataclass
class ValidationReport:
    hermiticity_defect: float
    symmetry_defect: float
    trace: complex
    positivity_flag: bool | None  # None when the check was skipped
    min_eigenvalue: float | None
    passed: bool


def validate_marginal(gamma: Marginal, check_positivity: bool | None = None) -> ValidationReport:
    """Report hermiticity/symmetry defects, trace, and (k=1) positivity.

    Defects are max-abs deviations; positivity is computed by the smallest
    eigenvalue of the M^(dk) x M^(dk) kernel matrix.  By default that check
    runs only for k=1 (eigendecomposition cost grows as M^(3dk)); pass
    check_positivity=True to force it for higher k.
    """
    k, grid = gamma.k, gamma.grid
    herm = float(np.max(np.abs(gamma.data - gamma.adjoint().data)))
    ident = tuple(range(k))
    defects = []
    for i, j in itertools.combinations(ident, 2):
        swap = list(ident)
        swap[i], swap[j] = j, i
        for unprimed, primed in ((swap, ident), (ident, swap)):
            defects.append(np.max(np.abs(gamma.data - _permuted(gamma.data, grid, k, unprimed, primed))))
    # np.max, not max: a NaN defect is reported as NaN
    sym = float(np.max(defects, initial=0.0))
    tr = trace(gamma)
    do_pos = check_positivity if check_positivity is not None else (k == 1)
    pos_flag = None
    min_eig = None
    if do_pos:
        n = grid.M ** (grid.d * k)
        mat = gamma.data.reshape(n, n)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        min_eig = float(eigs[0]) * grid.h ** (grid.d * k)
        pos_flag = min_eig >= -STRUCTURAL_TOL
    passed = herm <= STRUCTURAL_TOL and sym <= STRUCTURAL_TOL
    return ValidationReport(herm, sym, tr, pos_flag, min_eig, passed)


def trace(gamma: Marginal) -> complex:
    """Quadrature trace h^(dk) * sum_x gamma(x; x)."""
    n = gamma.grid.M ** (gamma.grid.d * gamma.k)
    return complex(np.trace(gamma.data.reshape(n, n)) * gamma.grid.h ** (gamma.grid.d * gamma.k))


def partial_trace(gamma: Marginal) -> Marginal:
    """Contract the last particle: h^d * sum over x_{k+1} = x'_{k+1}."""
    k_out = gamma.k - 1
    if k_out < 1:
        raise ValueError("cannot partial-trace a level-1 marginal to level 0")
    grid = gamma.grid
    kd = k_out * grid.d
    # x_{k+1} and x'_{k+1} share the einsum labels 2kd..2kd+d-1, summed away
    traced = list(range(2 * kd, 2 * kd + grid.d))
    labels = list(range(kd)) + traced + list(range(kd, 2 * kd)) + traced
    return Marginal(grid, k_out, np.einsum(gamma.data, labels, list(range(2 * kd))) * grid.h**grid.d)


def h_alpha_norm(gamma: Marginal, alpha: float) -> float:
    """Weighted Hilbert-Schmidt norm || S^(k,alpha) gamma ||_HS.

    Transforms all axes, applies the Bessel weight per axis, and takes the
    quadrature-exact L2 norm of the weighted kernel.  For factorized data
    with unit-L2 phi this equals ||<grad>^alpha phi||_{L2}^{2k}.
    """
    grid, k = gamma.grid, gamma.k
    hat = transform(gamma.data, range(gamma.n_axes), "forward")
    norm = np.sqrt(_weighted_squares(hat, grid, alpha).sum()) * grid.h ** (grid.d * k)
    return float(_finite_norms(norm, k, alpha))


def _weighted_squares(hat: np.ndarray, grid: TorusGrid, alpha: float) -> np.ndarray:
    """|hat|^2 times the squared Bessel weight of every axis."""
    acc = np.abs(hat)
    np.square(acc, out=acc)
    if alpha != 0:
        w2 = sobolev_weights(grid, alpha) ** 2
        for ax in range(acc.ndim):
            shape = [1] * acc.ndim
            shape[ax] = grid.M
            acc *= w2.reshape(shape)
    return acc


@dataclass(frozen=True, eq=False)
class ProductLevel:
    """Level-k mode tensor of the product state prod_j psi(x_j) conj(psi(x'_j)).

    psi_hat is the unitary DFT of psi on the M^d one-particle modes.  The
    tensor it stands for is psi_hat^(x k) (x) conj(psi_hat[-r])^(x k), since
    the DFT of conj(psi) is conj(psi_hat[-r]).  A factor with a leading
    axis stands for a stack of levels, one per factor, as the march's node
    blocks collapse them; only evolved() and collapse() read such a stack.
    """

    grid: TorusGrid
    k: int
    psi_hat: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the packed level."""
        return _packed.shape(self.grid, self.k)

    def packed(self) -> np.ndarray:
        """The packed level: prod_a psi_hat[a] (x) prod_b conj(psi_hat[-b]) on multisets."""
        _check_packed_guard(self.grid, self.k)
        return product_power(self.psi_hat, self.grid, self.k)

    def marginal(self) -> Marginal:
        """The real-space level: the product kernel of psi, the inverse DFT of psi_hat."""
        return factorized_marginal(ifftn_level(self.psi_hat), self.k, self.grid)

    def h_alpha_norm(self, alpha: float) -> float:
        """(h^d sum_r w(r)^2 |psi_hat(r)|^2)^k: the primed factor gives the
        same sum as the unprimed one, because the weights are even in r."""
        return float((_weighted_squares(self.psi_hat, self.grid, alpha).sum() * self.grid.h**self.grid.d) ** self.k)

    def trace(self) -> complex:
        """(h^d sum_r |psi_hat(r)|^2)^k = ||psi||_{L2}^{2k}."""
        return complex(self.h_alpha_norm(0.0))

    def report(self) -> ValidationReport:
        """validate_marginal of the level, without positivity: a product is
        hermitean and symmetric by construction, so its defects are exactly 0."""
        return ValidationReport(0.0, 0.0, self.trace(), None, None, True)

    def evolved(self, t: float) -> "ProductLevel":
        """U(t) of the level: psi_hat(t) = exp(-i t |p|^2) psi_hat, exact at every t."""
        ph = phase_weights(self.grid, t)
        psi_hat = self.psi_hat
        for ax in range(self.grid.d):
            shape = [1] * self.grid.d
            shape[ax] = self.grid.M
            psi_hat = psi_hat * ph.reshape(shape)
        return ProductLevel(self.grid, self.k, psi_hat)

    def collapse(self, half: int) -> np.ndarray:
        """Packed level of B_{k} of this level, down to level k - half
        (what fourier_collapse returns for a product level)."""
        _check_packed_guard(self.grid, self.k - half)
        return product_collapse(self.psi_hat, self.grid, self.k, half)


def _packed_hat(hat: np.ndarray | ProductLevel) -> np.ndarray:
    return hat.packed() if isinstance(hat, ProductLevel) else hat


def _pack_level(hat: np.ndarray, grid: TorusGrid, k: int) -> np.ndarray:
    """The packed level of a dense level-k mode tensor, which must be symmetric.

    The symmetry defect is the largest |hat - unpack(pack(hat))|: a level
    whose defect is above STRUCTURAL_TOL raises SymmetryError, since
    packing keeps one entry per multiset and would silently symmetrize it.
    """
    P = _packed.pack(hat, grid, k)
    defect = float(np.max(np.abs(hat - _packed.unpack(P, grid, k))))
    if not defect <= STRUCTURAL_TOL:
        raise SymmetryError(f"level-{k} mode tensor is not permutation symmetric: defect {defect:.3e}")
    return P


def _evolved_hat(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int, t: float):
    """U(t) of a packed level or product level, with the exact phases of t.

    A product level evolves its factor (ProductLevel.evolved); a packed
    level is multiplied by the packed phases of t (phase_tensor).
    """
    if isinstance(hat, ProductLevel):
        return hat.evolved(t)
    return phase_tensor(grid, k, t) * hat


def _free_nodes(grid: TorusGrid, k: int, hat: np.ndarray | ProductLevel, dt: float):
    """The free evolution U(i*dt) hat at i = 0, 1, 2, ...; node 0 is hat itself.

    Every later node is _evolved_hat at its own time t_i = i*dt, so node i
    is as exact as node 1 for a packed level and a product level alike.
    """
    yield hat
    for i in itertools.count(1):
        yield _evolved_hat(hat, grid, k, i * dt)


def _marginal_of(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int) -> Marginal:
    """Real-space level-k marginal of a packed level or product level."""
    if isinstance(hat, ProductLevel):
        return hat.marginal()
    _check_memory_guard(grid, k)
    return Marginal(grid, k, ifftn_level(_packed.unpack(hat, grid, k)))


def _hat_difference(a: np.ndarray | ProductLevel, b: np.ndarray | ProductLevel) -> np.ndarray | ProductLevel:
    """a - b of two levels, packed; product levels with equal factors give the zero product."""
    if isinstance(a, ProductLevel) and isinstance(b, ProductLevel) and np.array_equal(a.psi_hat, b.psi_hat):
        return ProductLevel(a.grid, a.k, np.zeros_like(a.psi_hat))
    return _packed_hat(a) - _packed_hat(b)


def _h_alpha_norm_hat(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int, alpha: float) -> float:
    """H^alpha norm from the Fourier representation (internal fast path);
    a packed level is a stack of one node for _h_alpha_norms_hat."""
    if isinstance(hat, ProductLevel):
        return _finite_norms(hat.h_alpha_norm(alpha), k, alpha)
    return float(_h_alpha_norms_hat(hat[np.newaxis], grid, k, alpha)[0])


def _h_alpha_norms_hat(nodes: np.ndarray, grid: TorusGrid, k: int, alpha: float) -> np.ndarray:
    """H^alpha norms of the packed level-k nodes[0], nodes[1], ... (a 3-D stack).

    One reduction over the stack: |nodes|^2, row A and column B of each
    node weighed by mult * W (_packed.weights), and a sum per node, bit for
    bit the sum over one node.
    """
    acc = np.abs(nodes)
    np.square(acc, out=acc)
    w = _packed.weights(grid, k, alpha)
    acc *= w[:, np.newaxis]
    acc *= w
    return _finite_norms(np.sqrt(acc.reshape(len(nodes), -1).sum(axis=1)) * grid.h ** (grid.d * k), k, alpha)


def _finite_norms(norms: float | np.ndarray, k: int, alpha: float) -> float | np.ndarray:
    """Every reported H^alpha norm, one or an array of them, passes through
    here, so a non-finite one (the Bessel weights overflow at large alpha)
    raises InvariantFailure."""
    bad = np.asarray(norms)[~np.isfinite(norms)]
    if bad.size:
        raise InvariantFailure(f"invariant 'finite norms' failed: level-{k} H^{alpha} norm is {bad[0]}")
    return norms


def _trace_hat(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int) -> complex:
    """Trace from the Fourier representation: h^(dk) * sum_r hat[r; -r].

    The unitary DFT turns the diagonal sum over x = x' into a sum over
    antidiagonal mode pairs r' = -r (mod M); on a packed level the mult(A)
    tuples r of multiset A all give P[A, -A].
    """
    if isinstance(hat, ProductLevel):
        return hat.trace()
    lay = _packed.layout(grid, k)
    return complex((lay.mult * hat[np.arange(lay.size), lay.neg]).sum() * grid.h ** (grid.d * k))


def _hxi_norm_hat(hats: dict[int, np.ndarray | ProductLevel], grid: TorusGrid, xi: float, alpha: float) -> float:
    """hxi_norm of the state whose level k is hats[k] (packed or product), k = 1..N."""
    if not 0 < xi < 1:
        raise ValueError(f"weight xi must lie in (0, 1), got {xi}")
    return sum(xi**k * _h_alpha_norm_hat(hats[k], grid, k, alpha) for k in sorted(hats))


class HierarchyState:
    """Finite sequence of marginals (gamma^(1), ..., gamma^(N)); levels above N are zero.

    A state is only the sequence: the interaction order p and the coupling
    mu belong to the equation, and the solvers take them as an InteractionSpec.
    It is built from its levels, or, as a factorized state, from its
    one-particle field phi and N alone (phi is None for any other state):
    then level(n) builds the product kernel of phi when first asked for it.
    """

    def __init__(
        self,
        grid: TorusGrid,
        levels: list[Marginal] | None = None,
        phi: np.ndarray | None = None,
        N: int | None = None,
    ):
        if (levels is None) == (phi is None):
            raise ValueError("a hierarchy state needs either its levels or a factorized field phi")
        if phi is not None:
            if N is None or N < 1:
                raise ValueError(f"truncation level must be >= 1, got N={N}")
            phi = _field(phi, grid).copy()
            levels = []
        elif not levels:
            raise ValueError("hierarchy state needs at least one level")
        for n, g in enumerate(levels, start=1):
            if g.k != n:
                raise ValueError(f"slot {n} holds a level-{g.k} marginal")
            if g.grid is not grid and g.grid != grid:
                raise ValueError("all levels must share one grid")
        self.grid = grid
        self.N = len(levels) if phi is None else N
        self.phi = phi
        self._built = dict(enumerate(levels, start=1))

    @property
    def levels(self) -> list[Marginal]:
        return [self.level(n) for n in range(1, self.N + 1)]

    def level(self, n: int) -> Marginal:
        """Level n; queries above the truncation return the zero marginal."""
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        if n > self.N:
            return zero_marginal(self.grid, n)
        if n not in self._built:
            self._built[n] = factorized_marginal(self.phi, n, self.grid)
        return self._built[n]

    @classmethod
    def factorized(cls, phi: np.ndarray, N: int, grid: TorusGrid) -> "HierarchyState":
        return cls(grid, phi=phi, N=N)

    @classmethod
    def zero(cls, grid: TorusGrid, N: int) -> "HierarchyState":
        return cls(grid, [zero_marginal(grid, k) for k in range(1, N + 1)])

    def truncate(self, N1: int) -> "HierarchyState":
        """P_{<=N1}: keep levels 1..N1 (shares level data with self; a
        factorized state keeps phi and builds its levels on request)."""
        if N1 < 1:
            raise ValueError(f"truncation level must be >= 1, got {N1}")
        N1 = min(N1, self.N)
        if self.phi is None:
            return HierarchyState(self.grid, self.levels[:N1])
        return HierarchyState(self.grid, phi=self.phi, N=N1)


def hxi_norm(state: HierarchyState, xi: float, alpha: float) -> float:
    """Weighted sequence norm sum_k xi^k ||gamma^(k)||_{H^alpha_k}."""
    if not 0 < xi < 1:
        raise ValueError(f"weight xi must lie in (0, 1), got {xi}")
    return sum(xi**k * h_alpha_norm(g, alpha) for k, g in enumerate(state.levels, start=1))


def project_tail(state: HierarchyState, N1: int) -> HierarchyState:
    """P_{>N1}: zero out levels 1..N1, keep the rest."""
    if N1 < 0:
        raise ValueError(f"tail cutoff must be >= 0, got {N1}")
    levels = []
    for k, g in enumerate(state.levels, start=1):
        levels.append(zero_marginal(state.grid, k) if k <= N1 else g.copy())
    return HierarchyState(state.grid, levels)


def tail_norm(state: HierarchyState, N1: int, xi_prime: float, alpha: float) -> float:
    """sum_{k > N1} xi'^k ||gamma^(k)||_{H^alpha} over the stored levels."""
    if N1 < 0:
        raise ValueError(f"tail cutoff must be >= 0, got {N1}")
    if not 0 < xi_prime < 1:
        raise ValueError(f"weight xi' must lie in (0, 1), got {xi_prime}")
    return sum(
        xi_prime**k * h_alpha_norm(g, alpha)
        for k, g in enumerate(state.levels, start=1)
        if k > N1
    )


@dataclass
class NormParams:
    """Regularity and the nested weight scales (alpha, xi < xi'' < xi', eta)."""

    alpha: float = 1.0
    xi: float = 0.02
    xi2: float = 0.06
    xi_prime: float = 0.2
    eta: float = 0.3

    def __post_init__(self):
        # the first inequality that fails is the one named
        for holds, rule in (
            (0 < self.xi, "xi > 0"),
            (self.xi < self.xi_prime, "xi < xi_prime"),
            (self.xi < self.xi2, "xi < xi2"),
            (self.xi2 < self.xi_prime, "xi2 < xi_prime"),
            (self.xi_prime < 1, "xi_prime < 1"),
            (0 < self.eta < 1, "0 < eta < 1"),
            (0 <= self.alpha < math.inf, "alpha >= 0 and finite"),
        ):
            if not holds:
                raise ValueError(
                    f"{rule}, got alpha={self.alpha}, xi={self.xi}, xi2={self.xi2}, "
                    f"xi_prime={self.xi_prime}, eta={self.eta}"
                )

    def cauchy_chain_ok(self) -> bool:
        """Whether xi < eta*xi'' < eta^2*xi' holds (the truncation-Cauchy regime)."""
        return self.xi < self.eta * self.xi2 < self.eta**2 * self.xi_prime
