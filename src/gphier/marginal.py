"""Marginal density kernels, truncated hierarchy states, and their norms.

A level-k marginal is the kernel gamma^(k)(x_1..x_k; x'_1..x'_k) stored as
a dense rank-2k complex tensor (2kd axes for d>1), axes ordered unprimed
block first.  Physical marginals are hermitean, symmetric under separate
permutations of the unprimed and primed slots, and trace one.

All torus integrals are Riemann sums with weight h^d per integrated
variable, so trace/norm identities are exact for band-limited data.

The solvers hold each level as its mode tensor (unitary DFT of the
kernel).  A level of factorized data that evolves freely is a product
level (ProductLevel): the one-particle factor psi_hat stands for the whole
M^(2kd) tensor.  Its H^alpha norm and trace are closed forms in psi_hat,
it is hermitean and symmetric by construction, and dense() builds the
tensor for the consumers that need one (marginal() the real-space
kernel).  The memory guard counts only dense levels.  The mode-space
helpers below (_h_alpha_norm_hat, _trace_hat, _hat_difference,
_dense_hat, _marginal_of, and _evolved_hat and _free_nodes for U(t)) accept
either kind, as does _kernels.fourier_collapse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import conj_negated, ifftn_level, phase_stream, phase_tensor, product_collapse
from .grid import TorusGrid, phase_weights, sobolev_weights, transform

#: Dense tensors above this element count are refused
#: (guards against accidental 100+ GB allocations; 2^28 complex128 = 4 GiB).
MEMORY_GUARD_ELEMENTS = 2**28

#: Defect (and negative eigenvalue) tolerance of validate_marginal.
STRUCTURAL_TOL = 1e-10


class MemoryGuardError(MemoryError):
    """Raised when a marginal would exceed the dense-tensor memory guard."""


class InvariantFailure(RuntimeError):
    """Raised when a run's numbers break an invariant (run_experiment exits 2)."""


def _check_memory_guard(grid: TorusGrid, k: int) -> None:
    n_elements = grid.M ** (2 * grid.d * k)
    if n_elements > MEMORY_GUARD_ELEMENTS:
        raise MemoryGuardError(
            f"level-{k} marginal on M={grid.M}, d={grid.d} has {n_elements} elements "
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


def _variable_axes(grid: TorusGrid, k: int, var: int, primed: bool) -> tuple[int, ...]:
    """Tensor axes of variable x_var (1-based) in a level-k kernel."""
    base = (k * grid.d if primed else 0) + (var - 1) * grid.d
    return tuple(range(base, base + grid.d))


def _swap_variables(data: np.ndarray, grid: TorusGrid, k: int, i: int, j: int, primed: bool) -> np.ndarray:
    perm = list(range(data.ndim))
    for c in range(grid.d):
        a = _variable_axes(grid, k, i, primed)[c]
        b = _variable_axes(grid, k, j, primed)[c]
        perm[a], perm[b] = perm[b], perm[a]
    return data.transpose(perm)


def symmetrize(gamma: Marginal) -> Marginal:
    """Average over all permutations of unprimed slots, then of primed slots."""
    k, grid = gamma.k, gamma.grid
    if k == 1:
        return gamma.copy()
    # the product group factorizes: average the unprimed block, then the primed
    out = np.zeros_like(gamma.data)
    for perm in itertools.permutations(range(1, k + 1)):
        axes = []
        for var in perm:
            axes.extend(_variable_axes(grid, k, var, primed=False))
        axes.extend(range(k * grid.d, 2 * k * grid.d))
        out += gamma.data.transpose(axes)
    out /= math.factorial(k)
    out2 = np.zeros_like(out)
    for perm in itertools.permutations(range(1, k + 1)):
        axes = list(range(k * grid.d))
        for var in perm:
            axes.extend(_variable_axes(grid, k, var, primed=True))
        out2 += out.transpose(axes)
    out2 /= math.factorial(k)
    return Marginal(grid, k, out2)


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
    sym = 0.0
    for primed in (False, True):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                swapped = _swap_variables(gamma.data, grid, k, i, j, primed)
                sym = max(sym, float(np.max(np.abs(gamma.data - swapped))))
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
    data = gamma.data
    for j in range(grid.d):
        # tie component d-1-j of x_{k+1} (at axis k_out*d + d-1-j) with the
        # matching component of x'_{k+1}, which sits at the current last axis
        data = np.trace(data, axis1=k_out * grid.d + (grid.d - 1 - j), axis2=data.ndim - 1)
    return Marginal(grid, k_out, data * grid.h**grid.d)


def h_alpha_norm(gamma: Marginal, alpha: float) -> float:
    """Weighted Hilbert-Schmidt norm || S^(k,alpha) gamma ||_HS.

    Transforms all axes, applies the Bessel weight per axis, and takes the
    quadrature-exact L2 norm of the weighted kernel.  For factorized data
    with unit-L2 phi this equals ||<grad>^alpha phi||_{L2}^{2k}.
    """
    hat = transform(gamma.data, range(gamma.n_axes), "forward")
    return _h_alpha_norm_hat(hat, gamma.grid, gamma.k, alpha)


def _weighted_square_sum(hat: np.ndarray, grid: TorusGrid, alpha: float) -> float:
    """sum |hat|^2 times the squared Bessel weight of every axis."""
    acc = np.abs(hat) ** 2
    if alpha != 0:
        w2 = sobolev_weights(grid, alpha) ** 2
        for ax in range(acc.ndim):
            shape = [1] * acc.ndim
            shape[ax] = grid.M
            acc *= w2.reshape(shape)
    return acc.sum()


@dataclass(frozen=True, eq=False)
class ProductLevel:
    """Level-k mode tensor of the product state prod_j psi(x_j) conj(psi(x'_j)).

    psi_hat is the unitary DFT of psi on the M^d one-particle modes.  The
    tensor it stands for is psi_hat^(x k) (x) conj(psi_hat[-r])^(x k), since
    the DFT of conj(psi) is conj(psi_hat[-r]).
    """

    grid: TorusGrid
    k: int
    psi_hat: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the dense mode tensor."""
        return (self.grid.M,) * self.grid.axis_count(self.k)

    def dense(self) -> np.ndarray:
        _check_memory_guard(self.grid, self.k)
        out = self.psi_hat
        psi_bar = conj_negated(self.psi_hat)
        for f in [self.psi_hat] * (self.k - 1) + [psi_bar] * self.k:
            out = np.multiply.outer(out, f)
        return out

    def marginal(self) -> Marginal:
        """The real-space level: the product kernel of psi, the inverse DFT of psi_hat."""
        return factorized_marginal(ifftn_level(self.psi_hat), self.k, self.grid)

    def h_alpha_norm(self, alpha: float) -> float:
        """(h^d sum_r w(r)^2 |psi_hat(r)|^2)^k: the primed factor gives the
        same sum as the unprimed one, because the weights are even in r."""
        return float((_weighted_square_sum(self.psi_hat, self.grid, alpha) * self.grid.h**self.grid.d) ** self.k)

    def trace(self) -> complex:
        """(h^d sum_r |psi_hat(r)|^2)^k = ||psi||_{L2}^{2k}."""
        return complex(self.h_alpha_norm(0.0))

    def report(self) -> ValidationReport:
        """validate_marginal of the level, without positivity: a product is
        hermitean and symmetric by construction, so its defects are exactly 0."""
        return ValidationReport(0.0, 0.0, self.trace(), None, None, True)

    def evolved(self, t: float) -> "ProductLevel":
        """U(t) of the level: psi_hat(t) = exp(-i t |p|^2) psi_hat, exact at every t."""
        ph = phase_weights(self.grid, t, "unprimed")
        psi_hat = self.psi_hat
        for ax in range(self.grid.d):
            shape = [1] * self.grid.d
            shape[ax] = self.grid.M
            psi_hat = psi_hat * ph.reshape(shape)
        return ProductLevel(self.grid, self.k, psi_hat)

    def collapse(self, half: int) -> np.ndarray:
        """Dense mode tensor of B_{k} of this level, down to level k - half
        (what fourier_collapse returns for a product level)."""
        _check_memory_guard(self.grid, self.k - half)
        return product_collapse(self.psi_hat, self.grid, self.k, half)


def _dense_hat(hat: np.ndarray | ProductLevel) -> np.ndarray:
    return hat.dense() if isinstance(hat, ProductLevel) else hat


def _evolved_hat(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int, t: float, phases: np.ndarray | None = None):
    """U(t) of a level-k mode tensor or product level; t need not be a node.

    A product level takes the exact phases of t on its factor.  A dense
    level is multiplied by phases, the level-k phase tensor of t, computed
    here unless the caller passes the one it holds (the oracle's stage
    phases).
    """
    if isinstance(hat, ProductLevel):
        return hat.evolved(t)
    return (phase_tensor(grid, k, t) if phases is None else phases) * hat


def _free_nodes(grid: TorusGrid, k: int, hat: np.ndarray | ProductLevel, dt: float):
    """The free evolution U(i*dt) hat at i = 0, 1, 2, ...; node 0 is hat itself.

    A product level takes the exact phases of each node on its factor;
    a dense level is advanced by one phase stream.
    """
    yield hat
    if isinstance(hat, ProductLevel):
        for i in itertools.count(1):
            yield hat.evolved(i * dt)
    phases = phase_stream(grid, k, dt)
    next(phases)
    for P in phases:
        yield P * hat


def _marginal_of(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int) -> Marginal:
    """Real-space level-k marginal of a mode tensor or product level."""
    if isinstance(hat, ProductLevel):
        return hat.marginal()
    return Marginal(grid, k, ifftn_level(hat))


def _hat_difference(a: np.ndarray | ProductLevel, b: np.ndarray | ProductLevel) -> np.ndarray | ProductLevel:
    """a - b of two level mode tensors; product levels with equal factors give the zero product."""
    if isinstance(a, ProductLevel) and isinstance(b, ProductLevel) and np.array_equal(a.psi_hat, b.psi_hat):
        return ProductLevel(a.grid, a.k, np.zeros_like(a.psi_hat))
    return _dense_hat(a) - _dense_hat(b)


def _h_alpha_norm_hat(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int, alpha: float) -> float:
    """H^alpha norm from the Fourier representation (internal fast path).

    Every reported H^alpha norm passes through here, so a non-finite one
    (the Bessel weights overflow at large alpha) raises InvariantFailure.
    """
    if isinstance(hat, ProductLevel):
        norm = hat.h_alpha_norm(alpha)
    else:
        norm = float(np.sqrt(_weighted_square_sum(hat, grid, alpha)) * grid.h ** (grid.d * k))
    if not math.isfinite(norm):
        raise InvariantFailure(f"invariant 'finite norms' failed: level-{k} H^{alpha} norm is {norm}")
    return norm


def _trace_hat(hat: np.ndarray | ProductLevel, grid: TorusGrid, k: int) -> complex:
    """Trace from the Fourier representation: h^(dk) * sum_r hat[r; -r].

    The unitary DFT turns the diagonal sum over x = x' into a sum over
    antidiagonal mode pairs r' = -r (mod M).
    """
    if isinstance(hat, ProductLevel):
        return hat.trace()
    shape = (grid.M,) * (grid.d * k)
    n = grid.M ** (grid.d * k)
    modes = np.indices(shape).reshape(len(shape), n)
    neg = np.ravel_multi_index(tuple(-modes % grid.M), shape)  # flat index of -r for each flat r
    return complex(hat.reshape(n, n)[np.arange(n), neg].sum() * grid.h ** (grid.d * k))


def _hxi_norm_hat(hats: dict[int, np.ndarray | ProductLevel], grid: TorusGrid, xi: float, alpha: float) -> float:
    """hxi_norm of the state whose level-k mode tensor is hats[k], k = 1..N."""
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
