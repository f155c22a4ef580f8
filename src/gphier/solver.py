"""Truncated-hierarchy solvers and iterated Duhamel machinery.

Every level a solver holds is in mode space, as a packed level (the
(n_k, n_k) array of its values on sorted multisets of modes, _packed) or a
product level, so U(t), the collapse, the norms and the traces all act on
n_k^2 entries in place of M^(2kd).  Only the real-space views of a node
(_materialize, duhamel_term, reconstruct_bhat) unpack a level.

Every time integral here is one Volterra integral on a level's modes,
x(t) = U(t)[x0 - i*mu int_0^t U(-s) g(s) ds], evaluated on the node grid
t_i = i*dt.  U(t) has one form: _kernels.phase_tensor builds the packed
phases exp(-i t (lam(A) - lam(B))) of a level at any t, so U(t_i) is exact
to rounding at every node, its error does not grow with i, and no phase is
streamed, advanced in place or held between nodes.
_Volterra.stream pushes g at each node and yields every node x(t_i)
once, in order.  Simpson's rule finalizes node 1 only with node 2;
_Cumulative and _Volterra are the only places that know it, so every
consumer reads one node of each level per step.  _theta_defects takes the
nodes of any node stream, marched or stored, B at a time, collapses each
level of Theta = B Gamma for the block in one call, pushes each node's
Theta into the Volterra levels of its fixed-point defect and holds the
node in one deque until they finalize it; the defect terms of the
finalized nodes are then collapsed a block of nodes per call.  With the
run's own initial data as reference, a free level's defect term is
exactly 0, since its Theta is the collapse of that free evolution itself,
and no free stream is built.  So Theta and its fixed-point defect take one
pass over the stored nodes, and Theta is computed only where it is read.

The truncated system is upper triangular: the top p/2 levels evolve
freely, and each level below satisfies a Volterra integral equation whose
source is the collapse of the already-solved level p/2 above,

    gamma^(n)(t) = U(t) gamma0^(n) - i*mu * int_0^t U(t-s) B gamma^(n+p/2)(s) ds.

_march solves it top-down with the exact free evolution of the free levels
(so all quadrature error sits in the coupling term) and one Volterra
stream per coupled level, fed by the stream of the level p/2 above, whose
nodes it collapses a block of B at a time (_node_block);
solve_oracle integrates the same linear system with a classical 4-stage
integrating-factor Runge-Kutta step and serves as the cross-check route.
Both collect the stored nodes of a generator (_volterra_nodes,
_oracle_nodes) that yields each node as (t, levels): levels maps each
level to its packed or product level; a Trajectory keeps the levels and
builds real space one node at a time.

For factorized data every level enters as a product level
(marginal.ProductLevel): U(t) of prod psi(x_j) conj(psi(x'_j)) is the
product of psi(t), psi_hat(t) = exp(-i t |p|^2) psi_hat, so a free level
is one M^d factor with exact phases at every node, and its collapse is the
packed rank-two product_collapse.  _level_hat makes that choice for every
level of a factorized state and packs the levels of any other state
(marginal._pack_level, which refuses an asymmetric one); a coupled level
is packed by ProductLevel.packed() only where it is integrated, as the base
of its _Volterra accumulator or in the frame of the oracle.  U(t) of a
level of either kind is marginal._evolved_hat, and marginal._free_nodes
yields it at each node.

Iterated Duhamel terms are built by the recursion
Duh_1 = U(t) gamma0, Duh_j(t) = (-i*mu) int_0^t U(t-s) B Duh_{j-1}(s) ds,
i.e. prefactor (-i*mu)^(j-1) with j-1 nested integrals, which is the
convention under which the finite reconstruction identity
(B Gamma)^(n)(t) = sum_j B Duh_j(t) holds exactly.  The truncated system
is linear, so Duh_j(Gamma0)^(n+p/2) is level n+p/2 of the march started
from gamma0^(n+j*p/2) alone, with zero data at the levels in between:
_duhamel_nodes marches the levels n+p/2, ..., n+j*p/2 from that data, so
_march builds every chain of Volterra streams.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _packed
from ._kernels import _GATHER_CAP, fftn_level, fourier_collapse, phase_tensor
from .grid import TorusGrid
from .marginal import (
    HierarchyState,
    Marginal,
    ProductLevel,
    _evolved_hat,
    _free_nodes,
    _h_alpha_norm_hat,
    _marginal_of,
    _pack_level,
    _packed_hat,
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

    @classmethod
    def of(cls, rule: "QuadratureRule | str") -> "QuadratureRule":
        """rule itself, or the rule of the kind it names."""
        return cls(rule) if isinstance(rule, str) else rule

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

    It holds only what later pushes read, in two deques: the last node
    value and running integral (trapezoid), or the last three node values
    and the integrals up to the last two even nodes (Simpson: a 3/8 block
    on an odd node i reads f_(i-3) and the integral up to node i-3; the
    leading 0.0 is the integral up to node 0).
    """

    def __init__(self, rule: QuadratureRule, dt: float):
        self.kind = rule.kind
        self.dt = dt
        self.i = -1
        simpson = self.kind == "simpson"
        self._f = deque(maxlen=3 if simpson else 1)
        self._sums = deque([0.0] if simpson else [], maxlen=2 if simpson else 1)

    def push(self, f: np.ndarray) -> list[tuple[int, np.ndarray]]:
        self.i += 1
        i, dt, fs, sums = self.i, self.dt, self._f, self._sums
        out = []
        if self.kind == "trapezoid":
            if i > 0:
                inc = (dt / 2) * (fs[0] + f)
                sums.append(sums[0] + inc if sums else inc)
                out.append((i, sums[0]))
        elif i == 2:
            f0, f1 = fs
            out.append((1, (dt / 12) * (5 * f0 + 8 * f1 - f)))
            sums.append((dt / 3) * (f0 + 4 * f1 + f))
            out.append((2, sums[-1]))
        elif i > 2 and i % 2 == 0:
            sums.append(sums[-1] + (dt / 3) * (fs[1] + 4 * fs[2] + f))
            out.append((i, sums[-1]))
        elif i > 2:
            out.append((i, sums[0] + (3 * dt / 8) * (fs[0] + 3 * fs[1] + 3 * fs[2] + f)))
        fs.append(f)
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
    tracks node indices.  Each node's phases are phase_tensor at its own
    time t_s = s*dt, built when the node is pushed or finalized, so no phase
    is held between pushes.  Every value is a packed level; a product-level
    base is packed here.
    """

    def __init__(self, grid: TorusGrid, level: int, spec: InteractionSpec, dt: float, rule: QuadratureRule, base=None):
        self._cum = _Cumulative(rule, dt)
        self._grid, self._level, self._dt = grid, level, dt
        self._base = None if base is None else _packed_hat(base)
        self._mu_coef = -1j * spec.mu

    def push(self, g: np.ndarray) -> list[np.ndarray]:
        i = self._cum.i + 1
        if i == 0:
            # the phases are unity at node 0
            self._cum.push(g)
            return [np.zeros_like(g) if self._base is None else self._base]
        P = phase_tensor(self._grid, self._level, i * self._dt)
        out = []
        for s, Q in self._cum.push(np.conj(P) * g):
            # keep the phase a named operand: numpy writes `a * (b + c)` into
            # whichever operand is a temporary, and that choice moves the last bit
            ph = P if s == i else phase_tensor(self._grid, self._level, s * self._dt)
            if self._base is None:
                out.append(ph * (self._mu_coef * Q))
            else:
                out.append(ph * (self._base + self._mu_coef * Q))
        return out

    def stream(self, sources):
        """Push each integrand of sources; yield every node once, in order."""
        # map keeps no integrand between pushes, and popping leaves no
        # yielded node in this frame while the consumer holds it
        for nodes in map(self.push, sources):
            while nodes:
                yield nodes.pop(0)


def _node_block(grid: TorusGrid, levels) -> int:
    """Nodes per collapse call: _GATHER_CAP // n^2 of the largest packed level of levels, at least 1.

    A stack of that many nodes of the largest level holds no more entries
    than one gather of _packed_collapse, so levels of 2^15 entries or more
    are collapsed one node per call.
    """
    return max(1, _GATHER_CAP // max((_packed.shape(grid, n)[0] ** 2 for n in levels), default=1))


def _collapse_block(block: list, grid: TorusGrid, m: int, half: int) -> list[np.ndarray]:
    """The collapses of the level-m nodes of block, all packed or all product levels, by one fourier_collapse call.

    Packed nodes are stacked on a leading axis and product levels by their
    factors; a block of one node is collapsed as it is, since a stack would
    copy it.
    """
    if len(block) == 1:
        return [fourier_collapse(block[0], grid, m, half)]
    if isinstance(block[0], ProductLevel):
        stack = ProductLevel(grid, m, np.stack([hat.psi_hat for hat in block]))
    else:
        stack = np.stack(block)
    return list(fourier_collapse(stack, grid, m, half))


def _march(
    grid: TorusGrid,
    hat0: dict[int, np.ndarray | ProductLevel | None],
    spec: InteractionSpec,
    S: int,
    dt: float,
    rule: QuadratureRule,
):
    """Lockstep Fourier-space march of the levels of hat0; yields (node, levels) in order.

    hat0 maps each marched level to its data at t=0: a packed level, a
    product level, or None for zero on a level fed from the one p/2 above.
    The levels need not be 1..N; a chain n, n + p/2, n + p (the levels of
    an iterated Duhamel term) is marched the same way.  Each level is one
    stream of its nodes.  A level n without level n + p/2 in hat0 evolves
    freely; every other level is the stream of a _Volterra accumulator
    started from hat0[n] (packed there if it is a product level, no
    base if it is None) and fed the collapse of each node of level
    n + p/2.  The feed takes B nodes of level n + p/2 from its stream at a
    time, never past node S, with B = _node_block of the march's packed
    levels: it queues them in that level's FIFO, collapses them in one
    fourier_collapse call (_collapse_block) and pushes the B results one by
    one; the march keeps no collapse past its push.  The levels without
    level n - p/2 in hat0 feed nothing and are pulled here, and the output
    pops one node of every level per step.  A yielded dict maps level ->
    packed or product level and is never mutated afterwards.
    """
    half = spec.half
    rule = rule.on(S)
    fifo = {n: deque() for n in hat0}
    fed = {n for n in hat0 if n + half in hat0}
    B = _node_block(grid, [n for n, hat in hat0.items() if n in fed or not isinstance(hat, ProductLevel)])

    def feed(m: int, stream):
        for start in range(0, S + 1, B):
            block = list(itertools.islice(stream, min(B, S + 1 - start)))
            collapses = deque(_collapse_block(block, grid, m, half))
            fifo[m].extend(block)
            del block  # the FIFO alone holds the queued nodes
            while collapses:
                # popped, so the march holds no collapse once it is pushed
                yield collapses.popleft()

    streams = {}
    for n in sorted(hat0, reverse=True):
        if n in fed:
            streams[n] = _Volterra(grid, n, spec, dt, rule, base=hat0[n]).stream(feed(n + half, streams[n + half]))
        else:
            streams[n] = _free_nodes(grid, n, hat0[n], dt)
    pulled = [n for n in hat0 if n - half not in hat0]
    for i in range(S + 1):
        for n in pulled:
            fifo[n].append(next(streams[n]))
        if i == S:
            # consumers of the last nodes run while this generator is
            # suspended; no later step needs the streams or accumulators
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
    level n = 1..N to its packed level (of the unitary DFT of the level-n
    kernel) or, for a free level of factorized data, its ProductLevel.  Norms and
    collapses read these directly; state(i) builds the real-space
    HierarchyState of one node on request.
    """

    times: np.ndarray
    hats: list[dict[int, np.ndarray]]
    grid: TorusGrid
    spec: InteractionSpec

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
            if sorted(hats) != levels or any(hats[n].shape != _packed.shape(self.grid, n) for n in levels):
                raise ValueError("trajectory nodes must hold levels 1..N on the trajectory grid")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def nodes(self):
        """The stored nodes (t, levels), in order."""
        return zip(self.times, self.hats)

    def state(self, i: int) -> HierarchyState:
        """Real-space hierarchy state at node i (built on each call)."""
        return _materialize(self.grid, self.hats[i])

    @property
    def states(self) -> list[HierarchyState]:
        """Every node in real space; for small trajectories such as tests."""
        return [self.state(i) for i in range(len(self.times))]


def _level_hat(state: HierarchyState, n: int) -> np.ndarray | ProductLevel:
    """Mode representation of level n of state: the product level of a factorized
    state (no kernel is built), else the packed DFT of the level's kernel."""
    if state.phi is not None:
        return ProductLevel(state.grid, n, fftn_level(state.phi))
    return _pack_level(fftn_level(state.level(n).data), state.grid, n)


def _initial_hats(state: HierarchyState) -> dict[int, np.ndarray | ProductLevel]:
    """Mode representations of the levels 1..N of state (_level_hat)."""
    return {n: _level_hat(state, n) for n in range(1, state.N + 1)}


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
    """Stored nodes (t, levels) of the Volterra march from the initial
    levels hat0, in order (levels as _march yields them)."""
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
    """Stored nodes (t, {level: packed or product level}) of the
    integrating-factor RK4 oracle from the initial levels hat0, in order.

    Works in the free-evolution frame w(t) = U(-t) Gamma(t), where
    w' = -i*mu * U(-t) B U(t) w, and applies the classical 4-stage
    Runge-Kutta step to this coupling (4th order in dt).  A free level is
    constant in this frame; a coupled level is packed when w is built.
    phases(t) holds one set, the phases of the packed levels at the last
    stage time: k2 and k3 share the mid-step set, and the set at t_i serves
    k4, the stored node and the next step's k1.
    """
    S, store_every = _sampling(T, dt, store_every)
    N, half = max(hat0), spec.half
    coupled = [n for n in range(1, N + 1) if n + half <= N]
    w = {n: _packed_hat(hat) if n in coupled else hat for n, hat in hat0.items()}
    mu_coef = -1j * spec.mu

    @functools.lru_cache(maxsize=1)
    def phases(t: float) -> dict[int, np.ndarray]:
        return {n: phase_tensor(grid, n, t) for n, hat in w.items() if not isinstance(hat, ProductLevel)}

    def U(t: float, n: int, hat):
        # the operands of _evolved_hat, so the same bits
        return phases(t)[n] * hat if n in phases(t) else hat.evolved(t)

    def F(t: float, w_t: dict) -> dict[int, np.ndarray]:
        out = {}
        for n in coupled:
            g = fourier_collapse(U(t, n + half, w_t[n + half]), grid, n + half, half)
            out[n] = mu_coef * np.conj(phases(t)[n]) * g
        return out

    def axpy(base: dict[int, np.ndarray], coeff: float, delta: dict[int, np.ndarray]):
        return {n: base[n] + coeff * delta[n] if n in delta else base[n] for n in base}

    # levels of w are rebound, never written in place, so a yielded dict stays valid
    yield 0.0, dict(w)
    for i in range(1, S + 1):
        k1 = F((i - 1) * dt, w)
        k2 = F((i - 0.5) * dt, axpy(w, dt / 2, k1))
        k3 = F((i - 0.5) * dt, axpy(w, dt / 2, k2))
        k4 = F(i * dt, axpy(w, dt, k3))
        for n in coupled:
            w[n] = w[n] + (dt / 6) * (k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n])
        if i % store_every == 0:
            yield i * dt, {n: U(i * dt, n, w[n]) for n in w}


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
    rule = QuadratureRule.of(quadrature)
    nodes = _volterra_nodes(gamma0.grid, _initial_hats(gamma0), spec, T, dt, rule, store_every)
    return _stored(nodes, gamma0.grid, spec)


def solve_oracle(
    gamma0: HierarchyState,
    spec: InteractionSpec,
    T: float,
    dt: float,
    store_every: int | None = 1,
) -> Trajectory:
    """Independent reference integrator for the same truncated linear system
    (the integrating-factor RK4 of _oracle_nodes)."""
    return _stored(_oracle_nodes(gamma0.grid, _initial_hats(gamma0), spec, T, dt, store_every), gamma0.grid, spec)


def _stored(nodes, grid: TorusGrid, spec: InteractionSpec) -> Trajectory:
    """The Trajectory of the nodes (t, levels)."""
    times, hats = zip(*nodes)
    return Trajectory(np.array(times), list(hats), grid, spec)


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
    rule = QuadratureRule.of(quadrature)
    return _marginal_of(_duhamel_hat(j, n, gamma0, spec, t, dt, rule), grid, n + spec.half)


def _duhamel_hat(
    j: int, n: int, gamma0: HierarchyState, spec: InteractionSpec, t: float, dt: float, rule: QuadratureRule
) -> np.ndarray | ProductLevel:
    """Packed level of duhamel_term for n + j*p/2 <= N (and t > 0 when j > 1).

    The deepest level n + j*p/2 only evolves freely, so factorized data
    keeps it as a product level.
    """
    deep_hat = _level_hat(gamma0, n + j * spec.half)
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
    """Packed levels of Duh_j(Gamma0)^(n+p/2) at the nodes 0..S, in order.

    deep_hat is the packed level (or product level) of the deepest level
    n + j*p/2 of Gamma0.  The truncated system is linear and upper
    triangular, so the term is level n + p/2 of the march started from
    deep_hat alone, with zero data at the levels in between.
    """
    half = spec.half
    hat0 = dict.fromkeys(range(n + half, n + j * half, half))
    hat0[n + j * half] = deep_hat
    # map, not a generator expression, so no step's dict outlives its step
    return map(lambda node: node[1][n + half], _march(grid, hat0, spec, S, dt, rule))


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
    rule = QuadratureRule.of(quadrature)
    grid = gamma0.grid
    out = np.zeros(_packed.shape(grid, n), dtype=np.complex128)
    j = 1
    while n + j * half <= gamma0.N and (j == 1 or t > 0):
        out += fourier_collapse(_duhamel_hat(j, n, gamma0, spec, t, dt, rule), grid, n + half, half)
        j += 1
    return _marginal_of(out, grid, n)


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
    the trajectory's own initial state: on a solve_truncated trajectory
    stored at every node and read with its rule, the defect's Volterra
    levels are then the march's own, bit for bit, and the residual is
    exactly 0.0 (a coarser stored grid, another rule or the oracle leaves
    quadrature error).  Deeper reference data measures the truncation tail
    instead (on the trajectory's grid).
    """
    rule = QuadratureRule.of(quadrature)
    if reference_data is not None and reference_data.grid != trajectory.grid:
        raise ValueError("reference data and trajectory live on different grids")
    ref_hat = None if reference_data is None else _initial_hats(reference_data)
    S, dt = len(trajectory.times) - 1, trajectory.dt
    defects = _theta_defects(trajectory.nodes(), ref_hat, trajectory.grid, trajectory.spec, S, dt, rule, xi, alpha)
    return l2_in_time(rule.weights(S, dt), [defect for *_, defect in defects])


def _theta_defects(
    nodes, ref_hat, grid: TorusGrid, spec: InteractionSpec, S: int, dt: float, rule: QuadratureRule, xi, alpha
):
    """Theta = B Gamma and its fixed-point defect at each of the S + 1 nodes, in one pass.

    nodes yields the nodes (t, levels) of a dt grid, marched or stored:
    levels maps each level to its packed or product level.  This yields
    (t, levels, theta, defect) once per node, in order: theta maps level
    n = 1..N - p/2 to the packed level of Theta^(n), and defect is the
    H^alpha_xi norm of the node's defect (see theta_residual).  The nodes
    are taken B at a time, B = _node_block of the first node's packed
    levels and the defect levels, and each level of Theta is collapsed for
    the block in one fourier_collapse call (_collapse_block).  ref_hat maps
    level m to the packed level (or product level) of Gamma_ref^(m); None
    stands for the first node's levels.  The defect of level n collapses level m = n + p/2
    of U(t)[Gamma_ref - i*mu int_0^t U(-s) Theta(s) ds]: a Volterra
    integral pushed each node's Theta^(m) where Theta has level m, the free
    evolution of the reference otherwise.  With the first node as
    reference, a free level m > N - p/2 is that free evolution itself, so
    its term B U(t) Gamma(0)^(m) = Theta^(n) has a defect of exactly 0 and
    no stream is built.  A level the reference lacks is zero: no base for a
    Volterra integral, the zero product level for a free one.  Every
    Volterra level finalizes the same nodes, so a node waits with its Theta
    in one deque until they do (only Simpson's node 1 waits).  The defect
    terms of the finalized nodes are collapsed B nodes per call and level.
    """
    half = spec.half
    rule = rule.on(S)
    nodes = iter(nodes)
    first = next(nodes)
    N = max(first[1])
    if N <= half:
        raise ValueError("trajectory has no coupled levels")
    own = ref_hat is None
    ref_hat = first[1] if own else ref_hat
    zero = np.zeros((grid.M,) * grid.d, dtype=np.complex128)
    integrals, free = {}, {}
    for lv in range(1, max(N, max(ref_hat)) - half + 1):
        m, b = lv + half, ref_hat.get(lv + half)
        if m <= N - half:
            integrals[lv] = _Volterra(grid, m, spec, dt, rule, b)
        elif not own:
            free[lv] = _free_nodes(grid, m, ProductLevel(grid, m, zero) if b is None else b, dt)
    packed = [n for n, hat in first[1].items() if not isinstance(hat, ProductLevel)]
    B = _node_block(grid, packed + [lv + half for lv in (*integrals, *free)])

    def settle(block):
        # the defect levels, in increasing order, collapsed once for the block
        bx = {lv: _collapse_block([x[lv] for *_, x in block], grid, lv + half, half) for lv in block[0][3]}
        for j, (t, hats, theta, _) in enumerate(block):
            defect = 0.0
            for lv, collapses in bx.items():
                r = -collapses[j]
                if lv in theta:
                    r = r + theta[lv]
                defect += xi**lv * _h_alpha_norm_hat(r, grid, lv, alpha)
            yield t, hats, theta, defect

    waiting, final = deque(), []
    nodes = itertools.chain([first], nodes)
    while block := list(itertools.islice(nodes, B)):
        collapses = {
            m - half: _collapse_block([hats[m] for _, hats in block], grid, m, half) for m in range(1 + half, N + 1)
        }
        for j, (t, hats) in enumerate(block):
            theta = {n: c[j] for n, c in collapses.items()}
            waiting.append((t, hats, theta))
            pushed = [v.push(theta[lv + half]) for lv, v in integrals.items()]
            # with no Volterra level, every node is final at once
            for xs in zip(*pushed) if pushed else [()]:
                x = dict(zip(integrals, xs))
                x.update((lv, next(stream)) for lv, stream in free.items())
                final.append((*waiting.popleft(), x))
            while len(final) >= B:
                yield from settle(final[:B])
                del final[:B]
    if final:
        yield from settle(final)
