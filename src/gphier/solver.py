"""Truncated-hierarchy solvers and iterated Duhamel machinery.

Every time integral here is one Volterra integral on a level's modes,
x(t) = U(t)[x0 - i*mu int_0^t U(-s) g(s) ds], evaluated on the node grid
t_i = i*dt by two primitives: _kernels.phase_stream streams U(i*dt),
advancing one array in place, and _Volterra.stream pushes g at each node
and yields every node x(t_i) once, in order.  Simpson's rule finalizes
node 1 only with node 2; _Cumulative and _Volterra are the only places
that know it, so every consumer reads one node of each level per step.
_theta_defects pushes each node's Theta = B Gamma into several Volterra
levels and holds the node in one deque until they finalize it, so Theta
and its fixed-point defect take one pass over the stored nodes.

The truncated system is upper triangular: the top p/2 levels evolve
freely, and each level below satisfies a Volterra integral equation whose
source is the collapse of the already-solved level p/2 above,

    gamma^(n)(t) = U(t) gamma0^(n) - i*mu * int_0^t U(t-s) B gamma^(n+p/2)(s) ds.

_march solves it top-down with phase streams for the free levels (so all
quadrature error sits in the coupling term) and one Volterra stream per
coupled level, fed by the stream of the level p/2 above; solve_oracle integrates the same linear system with a classical
4-stage integrating-factor Runge-Kutta step and serves as the cross-check
route.  Both collect the stored nodes of a generator (_volterra_nodes,
_oracle_nodes) that yields each node as a {level: mode tensor} dict; a
Trajectory keeps those dicts and builds real space one node at a time.

For factorized data the free levels are product levels
(marginal.ProductLevel): U(t) of prod psi(x_j) conj(psi(x'_j)) is the
product of psi(t), psi_hat(t) = exp(-i t |p|^2) psi_hat, so a free level
is one M^d factor with exact phases at every node, and its collapse is the
rank-one product_collapse.  _level_hat makes that choice, for the free top
p/2 levels of the truncated system, the deepest level of a Duhamel term
and the free levels of the oracle and of the Theta residual; every coupled
level stays a dense mode tensor.  U(t) of a level of either kind is
marginal._evolved_hat, and marginal._free_nodes streams it on the nodes.

Iterated Duhamel terms are built by the recursion
Duh_1 = U(t) gamma0, Duh_j(t) = (-i*mu) int_0^t U(t-s) B Duh_{j-1}(s) ds,
i.e. prefactor (-i*mu)^(j-1) with j-1 nested integrals, which is the
convention under which the finite reconstruction identity
(B Gamma)^(n)(t) = sum_j B Duh_j(t) holds exactly.  _duhamel_nodes streams
one term through a chain of j-1 Volterra streams with no base.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._kernels import fftn_level, fourier_collapse, ifftn_level, phase_stream, phase_tensor
from .grid import TorusGrid
from .marginal import (
    HierarchyState,
    Marginal,
    ProductLevel,
    _dense_hat,
    _evolved_hat,
    _free_nodes,
    _h_alpha_norm_hat,
    _marginal_of,
    zero_marginal,
)
from .operators import InteractionSpec


@dataclass(frozen=True)
class QuadratureRule:
    """Composite quadrature aligned to the trajectory time grid."""

    kind: str = "trapezoid"

    def __post_init__(self):
        if self.kind not in ("trapezoid", "simpson"):
            raise ValueError(f"quadrature kind must be 'trapezoid' or 'simpson', got {self.kind!r}")

    def on(self, S: int) -> "QuadratureRule":
        """The rule applied on S intervals: Simpson needs two, so S=1 falls back to the trapezoid."""
        return QuadratureRule("trapezoid") if S == 1 else self

    def weights(self, S: int, dt: float) -> np.ndarray:
        """Node weights for int_0^{S*dt} on S+1 uniform nodes.

        Simpson uses plain pairs for even S and a 3/8 block on the last
        three intervals for odd S >= 3 (see on() for S=1).
        """
        if S < 1:
            raise ValueError(f"need at least one interval, got S={S}")
        w = np.zeros(S + 1)
        if self.on(S).kind == "trapezoid":
            w[:] = dt
            w[0] = w[-1] = dt / 2
            return w
        m = S if S % 2 == 0 else S - 3
        if m > 0:
            w[0] += dt / 3
            w[1:m:2] += 4 * dt / 3
            w[2:m:2] += 2 * dt / 3
            w[m] += dt / 3
        if S % 2 == 1:
            w[S - 3] += 3 * dt / 8
            w[S - 2] += 9 * dt / 8
            w[S - 1] += 9 * dt / 8
            w[S] += 3 * dt / 8
        return w


class _Cumulative:
    """Streaming composite quadrature of a tensor-valued integrand.

    push(f_i) feeds node values in order and returns the list of newly
    finalized (node_index, integral_value) pairs.  The trapezoid rule
    finalizes each node immediately; Simpson finalizes node 1 only once
    f_2 is known (via the three-point rule int_0^h = h/12*(5f0+8f1-f2)),
    so push(f_2) returns nodes 1 and 2 together.  Returned arrays remain
    owned by the caller.
    """

    def __init__(self, rule: QuadratureRule, dt: float):
        self.kind = rule.kind
        self.dt = dt
        self.i = -1
        self._f: dict[int, np.ndarray] = {}
        self._trap = None
        self._even: dict[int, np.ndarray] = {}

    def push(self, f: np.ndarray) -> list[tuple[int, np.ndarray]]:
        self.i += 1
        i, dt = self.i, self.dt
        self._f[i] = f
        if self.kind == "trapezoid":
            if i == 0:
                return []
            inc = (dt / 2) * (self._f[i - 1] + self._f[i])
            self._trap = inc if self._trap is None else self._trap + inc
            del self._f[i - 1]
            return [(i, self._trap)]
        # simpson
        if i == 0:
            return []
        if i == 1:
            return []
        out = []
        if i == 2:
            f0, f1, f2 = self._f[0], self._f[1], self._f[2]
            out.append((1, (dt / 12) * (5 * f0 + 8 * f1 - f2)))
            s2 = (dt / 3) * (f0 + 4 * f1 + f2)
            self._even[2] = s2
            out.append((2, s2))
        elif i % 2 == 0:
            s = self._even[i - 2] + (dt / 3) * (self._f[i - 2] + 4 * self._f[i - 1] + self._f[i])
            self._even[i] = s
            out.append((i, s))
        else:
            base = self._even[i - 3] if i > 3 else 0.0
            out.append(
                (i, base + (3 * dt / 8) * (self._f[i - 3] + 3 * self._f[i - 2] + 3 * self._f[i - 1] + self._f[i]))
            )
        # keep only the last four node values and two even cumulatives
        for key in [k for k in self._f if k < i - 3]:
            del self._f[key]
        for key in [k for k in self._even if k < i - 2]:
            del self._even[key]
        return out


def _resolve_steps(T: float, dt: float) -> int:
    """Step count S = T/dt of the node grid; T and dt must be positive and finite."""
    if not (0 < T < math.inf and 0 < dt < math.inf and T / dt < math.inf):
        raise ValueError(f"T > 0, dt > 0 and T/dt finite, got T={T}, dt={dt}")
    S = round(T / dt)
    if S < 1 or abs(S * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"dt divides T, got T={T}, dt={dt}")
    return S


def _check_coupled(N: int, spec: InteractionSpec) -> None:
    """A truncation at N has a coupled level, one the collapse reaches, only if N >= 1 + p/2."""
    if N < 1 + spec.half:
        raise ValueError(f"N >= {1 + spec.half} for a coupled level at p={spec.p}, got N={N}")


class _Volterra:
    """Streaming x(t) = U(t)[base - i*mu int_0^t U(-r) g(r) dr] on one level.

    push(g_i) feeds the level's integrand at node i and returns the nodes
    x(t_s) that the composite rule of _Cumulative finalizes, in order;
    base=None stands for zero.  Under Simpson push(g_1) returns no node and
    push(g_2) returns nodes 1 and 2.  stream(sources) hides that: it pushes
    each integrand and yields every node once, in order, so no consumer
    tracks node indices.
    """

    def __init__(self, grid: TorusGrid, level: int, spec: InteractionSpec, dt: float, rule: QuadratureRule, base=None):
        self._cum = _Cumulative(rule, dt)
        self._phases = phase_stream(grid, level, dt)
        self._held: dict[int, np.ndarray] = {}
        self._base = base
        self._mu_coef = -1j * spec.mu

    def push(self, g: np.ndarray) -> list[np.ndarray]:
        P = next(self._phases)
        i = self._cum.i + 1
        if i == 0:
            # the phases are unity at node 0
            self._cum.push(g)
            return [np.zeros_like(g) if self._base is None else self._base]
        out = []
        for s, Q in self._cum.push(np.conj(P) * g):
            # keep the phase a named operand: numpy writes `a * (b + c)` into
            # whichever operand is a temporary, and that choice moves the last bit
            ph = P if s == i else self._held.pop(s)
            if self._base is None:
                out.append(ph * (self._mu_coef * Q))
            else:
                out.append(ph * (self._base + self._mu_coef * Q))
        if not out:
            # node i is finalized late (Simpson's node 1): keep its phase
            self._held[i] = P.copy()
        return out

    def stream(self, sources):
        """Push each integrand of sources; yield every node once, in order."""
        # map keeps no integrand between pushes, and popping leaves no
        # yielded node in this frame while the consumer holds it
        for nodes in map(self.push, sources):
            while nodes:
                yield nodes.pop(0)


def _march(
    grid: TorusGrid,
    hat0: dict[int, np.ndarray],
    spec: InteractionSpec,
    S: int,
    dt: float,
    rule: QuadratureRule,
):
    """Lockstep Fourier-space march of all levels; yields (node, states) in order.

    Each level is one stream of its nodes.  The top p/2 levels are free
    streams (hat0 may hold them as product levels); each coupled level n is
    the stream of a _Volterra accumulator started from its dense hat0[n] and
    fed the collapse of each node of level n + p/2.  Every node passes
    through its level's FIFO: a level that feeds the one below queues each
    node as it is collapsed, the bottom p/2 levels are pulled here, and the
    output pops one node of every level per step.  Yielded dicts map
    level -> mode tensor or product level and are never mutated afterwards.
    """
    N, half = max(hat0), spec.half
    rule = rule.on(S)
    fifo = {n: deque() for n in hat0}

    def queued_collapse(m: int, hat: np.ndarray | ProductLevel) -> np.ndarray:
        fifo[m].append(hat)
        return fourier_collapse(hat, grid, m, half)

    streams = {}
    for n in sorted(hat0, reverse=True):
        if n + half > N:
            streams[n] = _free_nodes(grid, n, hat0[n], dt)
        else:
            feed = map(functools.partial(queued_collapse, n + half), streams[n + half])
            streams[n] = _Volterra(grid, n, spec, dt, rule, base=hat0[n]).stream(feed)
    bottom = [n for n in hat0 if n <= half]
    for i in range(S + 1):
        for n in bottom:
            fifo[n].append(next(streams[n]))
        if i == S:
            # consumers of the last nodes run while this generator is
            # suspended; no later step needs the phases or accumulators
            streams.clear()
        yield i, {n: fifo[n].popleft() for n in sorted(hat0)}


def l2_in_time(w: np.ndarray, values) -> float:
    """(sum_i w_i * values_i^2)^(1/2): the L2-in-time norm of node samples
    under the quadrature weights w of QuadratureRule.weights."""
    return float(np.sqrt(np.dot(w, np.asarray(values, dtype=float) ** 2)))


@dataclass
class Trajectory:
    """Time-sampled hierarchy states on a uniform grid over [0, T].

    Each stored node is kept as the solver produced it: a dict mapping
    level n = 1..N to its mode tensor (unitary DFT of the level-n kernel)
    or, for a free level of factorized data, its ProductLevel.  Norms and
    collapses read these directly; state(i) builds the real-space
    HierarchyState of one node on request.
    """

    times: np.ndarray
    hats: list[dict[int, np.ndarray]]
    grid: TorusGrid
    spec: InteractionSpec
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.hats):
            raise ValueError("times and node tensors must have equal length")
        if len(self.times) < 2:
            raise ValueError("a trajectory needs at least two samples")
        steps = np.diff(self.times)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("trajectory time grid must be uniform")
        levels = list(range(1, len(self.hats[0]) + 1))
        for hats in self.hats:
            if sorted(hats) != levels or any(
                hats[n].shape != (self.grid.M,) * self.grid.axis_count(n) for n in levels
            ):
                raise ValueError("trajectory nodes must hold levels 1..N on the trajectory grid")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def state(self, i: int) -> HierarchyState:
        """Real-space hierarchy state at node i (built on each call)."""
        return _materialize(self.grid, self.hats[i])

    @property
    def states(self) -> list[HierarchyState]:
        """Every node in real space; for small trajectories such as tests."""
        return [self.state(i) for i in range(len(self.times))]


def _level_hat(state: HierarchyState, n: int, free: bool) -> np.ndarray | ProductLevel:
    """Mode representation of level n of state.

    This is where a level becomes a product level: when the state is
    factorized and the caller only evolves the level freely (or reads its
    norms).  Every other level is the dense mode tensor.
    """
    if free and state.phi is not None:
        return ProductLevel(state.grid, n, fftn_level(state.phi))
    return fftn_level(state.level(n).data)


def _initial_hats(state: HierarchyState, spec: InteractionSpec) -> dict[int, np.ndarray | ProductLevel]:
    """Initial data of the truncated system; the free top p/2 levels of a factorized state are product levels."""
    return {n: _level_hat(state, n, free=n + spec.half > state.N) for n in range(1, state.N + 1)}


def _materialize(grid: TorusGrid, hats: dict[int, np.ndarray | ProductLevel]) -> HierarchyState:
    return HierarchyState(grid, [_marginal_of(hats[n], grid, n) for n in sorted(hats)])


def _sampling(T: float, dt: float, store_every: int | None) -> tuple[int, int]:
    """Step count S and the stored stride (None stores only the endpoints)."""
    S = _resolve_steps(T, dt)
    if store_every is None:
        store_every = S
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    if S % store_every != 0:
        raise ValueError(f"store_every={store_every} must divide the step count S={S}")
    return S, store_every


def _volterra_nodes(
    grid: TorusGrid,
    hat0: dict[int, np.ndarray],
    spec: InteractionSpec,
    T: float,
    dt: float,
    rule: QuadratureRule,
    store_every: int | None = 1,
):
    """Stored nodes (t, {level: mode tensor}) of the Volterra march from the
    initial mode tensors hat0, in order."""
    S, store_every = _sampling(T, dt, store_every)
    for i, hats in _march(grid, hat0, spec, S, dt, rule):
        if i % store_every == 0:
            yield i * dt, hats


def _oracle_nodes(
    grid: TorusGrid,
    hat0: dict[int, np.ndarray],
    spec: InteractionSpec,
    T: float,
    dt: float,
    store_every: int | None = 1,
):
    """Stored nodes (t, {level: mode tensor}) of the integrating-factor RK4
    oracle from the initial mode tensors hat0, in order.

    Works in the free-evolution frame w(t) = U(-t) Gamma(t), where
    w' = -i*mu * U(-t) B U(t) w, and applies the classical 4-stage
    Runge-Kutta step to this coupling (4th order in dt).  A free level is
    constant in this frame; a product level takes its exact phases at each
    stage time, and only dense levels carry phase tensors E.
    """
    S, store_every = _sampling(T, dt, store_every)
    N, half = max(hat0), spec.half
    coupled = [n for n in range(1, N + 1) if n + half <= N]
    srcs = sorted({n + half for n in coupled})
    w = dict(hat0)
    dense = [n for n in w if not isinstance(w[n], ProductLevel)]
    E = {n: np.ones(w[n].shape, dtype=np.complex128) for n in dense}
    E_half = {n: phase_tensor(grid, n, dt / 2) for n in dense}
    mu_coef = -1j * spec.mu

    def frame(t: float, E_t: dict[int, np.ndarray], w_t: dict, m: int):
        # U(t) w_t[m]: level m of the state at stage time t
        return _evolved_hat(w_t[m], grid, m, t, E_t.get(m))

    def F(t: float, E_t: dict[int, np.ndarray], w_t: dict) -> dict[int, np.ndarray]:
        out = {}
        for n in coupled:
            g = fourier_collapse(frame(t, E_t, w_t, n + half), grid, n + half, half)
            out[n] = mu_coef * np.conj(E_t[n]) * g
        return out

    def axpy(base: dict[int, np.ndarray], coeff: float, delta: dict[int, np.ndarray]):
        return {n: base[n] + coeff * delta[n] if n in delta else base[n] for n in base}

    # levels of w are rebound, never written in place, so a yielded dict stays valid
    yield 0.0, dict(w)
    for i in range(1, S + 1):
        E_mid = {n: E[n] * E_half[n] for n in dense}
        E_end = {n: E_mid[n] * E_half[n] for n in dense}
        k1 = F((i - 1) * dt, E, w)
        k2 = F((i - 0.5) * dt, E_mid, axpy(w, dt / 2, k1))
        k3 = F((i - 0.5) * dt, E_mid, axpy(w, dt / 2, k2))
        k4 = F(i * dt, E_end, axpy(w, dt, k3))
        for n in coupled:
            w[n] = w[n] + (dt / 6) * (k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n])
        E = E_end
        if i % store_every == 0:
            yield i * dt, {n: frame(i * dt, E, w, n) for n in w}


def solve_truncated(
    gamma0: HierarchyState,
    spec: InteractionSpec,
    T: float,
    dt: float,
    quadrature: QuadratureRule | str = "trapezoid",
    store_every: int | None = 1,
) -> Trajectory:
    """Solve the truncated hierarchy by the top-down Volterra march.

    Levels n > N - p/2 are exact free evolutions; coupled levels evaluate
    their Volterra integral with the composite rule on the dt grid.  The
    free part uses exact phase multipliers, so all quadrature error sits
    in the coupling term.  store_every controls the stored sampling stride
    (None stores only the endpoints); it must divide S = T/dt.
    """
    rule = QuadratureRule(quadrature) if isinstance(quadrature, str) else quadrature
    _, stride = _sampling(T, dt, store_every)
    times, hats = zip(*_volterra_nodes(gamma0.grid, _initial_hats(gamma0, spec), spec, T, dt, rule, store_every))
    meta = {"solver": "volterra", "quadrature": rule.kind, "dt_integration": dt, "store_every": stride}
    return Trajectory(np.array(times), list(hats), gamma0.grid, spec, meta=meta)


def solve_oracle(
    gamma0: HierarchyState,
    spec: InteractionSpec,
    T: float,
    dt: float,
    store_every: int | None = 1,
) -> Trajectory:
    """Independent reference integrator for the same truncated linear system
    (the integrating-factor RK4 of _oracle_nodes)."""
    _, stride = _sampling(T, dt, store_every)
    times, hats = zip(*_oracle_nodes(gamma0.grid, _initial_hats(gamma0, spec), spec, T, dt, store_every))
    meta = {"solver": "oracle-ifrk4", "quadrature": "rk4", "dt_integration": dt, "store_every": stride}
    return Trajectory(np.array(times), list(hats), gamma0.grid, spec, meta=meta)


def duhamel_term(
    j: int,
    n: int,
    gamma0: HierarchyState,
    spec: InteractionSpec,
    t: float,
    quadrature: QuadratureRule | str = "trapezoid",
    dt: float = 1e-3,
) -> Marginal:
    """j-th iterated Duhamel term at level n+p/2 and time t.

    j=1 is the bare free evolution of gamma0^(n+p/2); deeper terms carry
    (-i*mu)^(j-1) and j-1 nested integrals, evaluated by the composite rule
    on the uniform dt grid (t must be a node).  Terms whose deepest level
    n + j*p/2 exceeds the truncation are zero.
    """
    if j < 1:
        raise ValueError(f"iteration depth must be >= 1, got j={j}")
    if n < 1:
        raise ValueError(f"level index must be >= 1, got n={n}")
    grid = gamma0.grid
    if n + j * spec.half > gamma0.N or (j > 1 and t <= 0):
        return zero_marginal(grid, n + spec.half)
    rule = QuadratureRule(quadrature) if isinstance(quadrature, str) else quadrature
    return _marginal_of(_duhamel_hat(j, n, gamma0, spec, t, dt, rule), grid, n + spec.half)


def _duhamel_hat(
    j: int, n: int, gamma0: HierarchyState, spec: InteractionSpec, t: float, dt: float, rule: QuadratureRule
) -> np.ndarray | ProductLevel:
    """Mode tensor of duhamel_term for n + j*p/2 <= N (and t > 0 when j > 1).

    The deepest level n + j*p/2 only evolves freely, so factorized data
    keeps it as a product level.
    """
    deep_hat = _level_hat(gamma0, n + j * spec.half, free=True)
    if j == 1:
        # exact phases: t need not be a node
        return _evolved_hat(deep_hat, gamma0.grid, n + spec.half, t)
    for hat in _duhamel_nodes(j, n, gamma0.grid, deep_hat, spec, _resolve_steps(t, dt), dt, rule):
        pass
    return hat


def _duhamel_nodes(
    j: int,
    n: int,
    grid: TorusGrid,
    deep_hat: np.ndarray | ProductLevel,
    spec: InteractionSpec,
    S: int,
    dt: float,
    rule: QuadratureRule,
):
    """Mode tensors of Duh_j(Gamma0)^(n+p/2) at the nodes 0..S, in order.

    deep_hat is the mode tensor (or product level) of the deepest level
    n + j*p/2 of Gamma0.
    Its free evolution feeds a chain of j-1 Volterra streams with no base,
    one per nested integral, each fed the collapse of the stream above; the
    chain stops after node S.
    """
    half = spec.half
    deepest = n + j * half
    rule = rule.on(S)
    nodes = _free_nodes(grid, deepest, deep_hat, dt)
    for src in range(deepest, n + half, -half):
        collapse = functools.partial(fourier_collapse, grid=grid, kappa=src, half=half)
        nodes = _Volterra(grid, src - half, spec, dt, rule).stream(map(collapse, nodes))
    return itertools.islice(nodes, S + 1)


def reconstruct_bhat(
    n: int,
    t: float,
    gamma0: HierarchyState,
    spec: InteractionSpec,
    quadrature: QuadratureRule | str = "trapezoid",
    dt: float = 1e-3,
) -> Marginal:
    """Finite Duhamel-sum identity: (B Gamma_N)^(n)(t) from initial data only."""
    half = spec.half
    if n < 1 or n > gamma0.N - half:
        raise ValueError(f"level n={n} out of coupled range 1..{gamma0.N - half}")
    rule = QuadratureRule(quadrature) if isinstance(quadrature, str) else quadrature
    grid = gamma0.grid
    out = np.zeros((grid.M,) * grid.axis_count(n), dtype=np.complex128)
    j = 1
    while n + j * half <= gamma0.N and (j == 1 or t > 0):
        out += fourier_collapse(_duhamel_hat(j, n, gamma0, spec, t, dt, rule), grid, n + half, half)
        j += 1
    return Marginal(grid, n, ifftn_level(out))


def theta_residual(
    trajectory: Trajectory,
    xi: float,
    alpha: float,
    quadrature: QuadratureRule | str = "trapezoid",
    reference_data: HierarchyState | None = None,
) -> float:
    """L2-in-time defect of Theta = B Gamma in its closed fixed-point equation.

    With Theta(t) := B Gamma(t) sampled on the trajectory grid, returns the
    L2_t H^alpha_xi norm of
        Theta(t) - B U(t) Gamma_ref - (-i*mu) int_0^t B U(t-s) Theta(s) ds,
    all time integrals by the composite rule on the stored grid, in one
    pass over the stored nodes (_theta_defects).  By default Gamma_ref is
    the trajectory's own initial state (the residual is then pure
    quadrature error); passing deeper reference data measures the
    truncation tail instead.
    """
    rule = QuadratureRule(quadrature) if isinstance(quadrature, str) else quadrature
    ref_hat = None if reference_data is None else _reference_hats(reference_data, trajectory.spec)
    S, dt = len(trajectory.times) - 1, trajectory.dt
    nodes = zip(trajectory.times, trajectory.hats)
    defects = _theta_defects(nodes, ref_hat, trajectory.grid, trajectory.spec, S, dt, rule, xi, alpha)
    return l2_in_time(rule.weights(S, dt), [defect for *_, defect in defects])


def _reference_hats(reference_data: HierarchyState, spec: InteractionSpec) -> dict[int, np.ndarray | ProductLevel]:
    """Mode representations of the reference levels that the Theta residual collapses."""
    N = reference_data.N
    return {m: _level_hat(reference_data, m, free=m + spec.half > N) for m in range(1 + spec.half, N + 1)}


def _theta_defects(
    nodes, ref_hat, grid: TorusGrid, spec: InteractionSpec, S: int, dt: float, rule: QuadratureRule, xi, alpha
):
    """Theta = B Gamma and its fixed-point defect at each of the S + 1 nodes, in one pass.

    nodes yields the stored nodes (t, {level: mode tensor}) of a dt grid;
    this yields (t, hats, theta, defect) once per node, in order: theta
    maps level n = 1..N - p/2 to the mode tensor of Theta^(n), and defect
    is the H^alpha_xi norm of the node's defect (see theta_residual).
    ref_hat maps level m to the mode tensor (or product level) of
    Gamma_ref^(m); None stands for the first node's levels.  The defect of
    level n collapses level m = n + p/2 of U(t)[Gamma_ref - i*mu int_0^t
    U(-s) Theta(s) ds]: a Volterra integral pushed each node's Theta^(m)
    where Theta has level m, the free evolution of the reference otherwise.
    A level the reference lacks is zero: no base for a Volterra integral,
    the zero product level for a free one.  Every Volterra level finalizes
    the same nodes, so a node waits with its Theta in one deque until they
    do (only Simpson's node 1 waits).
    """
    half = spec.half
    rule = rule.on(S)
    nodes = iter(nodes)
    first = next(nodes)
    N = max(first[1])
    if N <= half:
        raise ValueError("trajectory has no coupled levels")
    ref_hat = first[1] if ref_hat is None else ref_hat
    res_levels = range(1, max(N, max(ref_hat, default=0)) - half + 1)
    zero = np.zeros((grid.M,) * grid.d, dtype=np.complex128)
    integrals, free = {}, {}
    for lv in res_levels:
        m, b = lv + half, ref_hat.get(lv + half)
        if m <= N - half:
            integrals[lv] = _Volterra(grid, m, spec, dt, rule, None if b is None else _dense_hat(b))
        else:
            free[lv] = _free_nodes(grid, m, ProductLevel(grid, m, zero) if b is None else b, dt)
    waiting = deque()
    for t, hats in itertools.chain([first], nodes):
        theta = {n: fourier_collapse(hats[n + half], grid, n + half, half) for n in range(1, N - half + 1)}
        waiting.append((t, hats, theta))
        pushed = [v.push(theta[lv + half]) for lv, v in integrals.items()]
        # with no Volterra level, every node is final at once
        for xs in zip(*pushed) if pushed else [()]:
            t, hats, theta = waiting.popleft()
            x = dict(zip(integrals, xs))
            defect = 0.0
            for lv in res_levels:
                r = -fourier_collapse(x[lv] if lv in x else next(free[lv]), grid, lv + half, half)
                if lv in theta:
                    r = r + theta[lv]
                defect += xi**lv * _h_alpha_norm_hat(r, grid, lv, alpha)
            yield t, hats, theta, defect
