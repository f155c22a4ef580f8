"""Truncated-hierarchy solvers and iterated Duhamel machinery.

The truncated system is upper triangular: the top p/2 levels evolve
freely, and each level below satisfies a Volterra integral equation whose
source is the collapse of the already-solved level p/2 above,

    gamma^(n)(t) = U(t) gamma0^(n) - i*mu * int_0^t U(t-s) B gamma^(n+p/2)(s) ds.

solve_truncated marches this top-down with exact phase multipliers for
the free part (quadrature error lives only in the coupling term);
solve_oracle integrates the same linear system with a classical 4-stage
integrating-factor Runge-Kutta step and serves as the cross-check route.
Both collect the stored nodes of a generator (_volterra_nodes,
_oracle_nodes) that yields each node as a {level: mode tensor} dict; a
Trajectory keeps those dicts and builds real space one node at a time.

Iterated Duhamel terms are built by the recursion
Duh_1 = U(t) gamma0, Duh_j(t) = (-i*mu) int_0^t U(t-s) B Duh_{j-1}(s) ds,
i.e. prefactor (-i*mu)^(j-1) with j-1 nested integrals, which is the
convention under which the finite reconstruction identity
(B Gamma)^(n)(t) = sum_j B Duh_j(t) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import fftn_level, fourier_collapse, ifftn_level, phase_tensor
from .grid import TorusGrid
from .marginal import HierarchyState, Marginal, _h_alpha_norm_hat, zero_marginal
from .operators import InteractionSpec


@dataclass(frozen=True)
class QuadratureRule:
    """Composite quadrature aligned to the trajectory time grid."""

    kind: str = "trapezoid"

    def __post_init__(self):
        if self.kind not in ("trapezoid", "simpson"):
            raise ValueError(f"quadrature kind must be 'trapezoid' or 'simpson', got {self.kind!r}")

    def weights(self, S: int, dt: float) -> np.ndarray:
        """Node weights for int_0^{S*dt} on S+1 uniform nodes.

        Simpson uses plain pairs for even S and a 3/8 block on the last
        three intervals for odd S >= 3 (S=1 falls back to the trapezoid).
        """
        if S < 1:
            raise ValueError(f"need at least one interval, got S={S}")
        w = np.zeros(S + 1)
        if self.kind == "trapezoid" or S == 1:
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
    S = round(T / dt)
    if S < 1 or abs(S * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return S


def _march(
    grid: TorusGrid,
    hat0: dict[int, np.ndarray],
    spec: InteractionSpec,
    S: int,
    dt: float,
    rule: QuadratureRule,
):
    """Lockstep Fourier-space march of all levels; yields (node, states) in order.

    Yielded dicts map level -> mode tensor and are never mutated afterwards.
    """
    N = max(hat0)
    half = spec.half
    if rule.kind == "simpson" and S < 2:
        raise ValueError("the Simpson march needs at least two time steps")
    coupled = [n for n in range(1, N + 1) if n + half <= N]
    step = {n: phase_tensor(grid, n, dt) for n in hat0}
    P = {n: np.ones_like(step[n]) for n in hat0}
    cum = {n: _Cumulative(rule, dt) for n in coupled}
    mu_coef = -1j * spec.mu

    node_states: dict[int, dict[int, np.ndarray]] = {n: {0: hat0[n]} for n in hat0}
    next_src = {n: 0 for n in coupled}
    for n in coupled:
        # node-0 integrand: the phases are unity there
        cum[n].push(fourier_collapse(hat0[n + half], grid, n + half, half))
    pending: dict[int, dict[int, np.ndarray]] = {0: {n: hat0[n] for n in hat0}}
    next_yield = 0

    def flush():
        nonlocal next_yield
        while next_yield in pending and len(pending[next_yield]) == len(hat0):
            yield next_yield, pending.pop(next_yield)
            next_yield += 1

    yield from flush()

    for i in range(1, S + 1):
        P_prev = {}
        for n in sorted(hat0, reverse=True):
            P_prev[n] = P[n]
            P[n] = P[n] * step[n]
            if n not in cum:
                st = P[n] * hat0[n]
                node_states[n][i] = st
                pending.setdefault(i, {})[n] = st
            else:
                src = n + half
                while next_src[n] + 1 in node_states[src]:
                    s = next_src[n] + 1
                    g = fourier_collapse(node_states[src][s], grid, src, half)
                    ph = P[n] if s == i else P_prev[n]
                    finals = cum[n].push(np.conj(ph) * g)
                    for s2, Q in finals:
                        ph2 = P[n] if s2 == i else P_prev[n]
                        st = ph2 * (hat0[n] + mu_coef * Q)
                        node_states[n][s2] = st
                        pending.setdefault(s2, {})[n] = st
                    next_src[n] = s
        # prune consumed/yielded node states (keep the last two nodes per level)
        for n in hat0:
            for key in [s for s in node_states[n] if s < i - 1]:
                del node_states[n][key]
        if i == S:
            # consumers of the last nodes run while this generator is
            # suspended; no later step needs the phases or source states
            del P, P_prev, step, node_states
        yield from flush()

    if pending:
        raise RuntimeError("march ended with unfinalized nodes")


def l2_in_time(w: np.ndarray, values) -> float:
    """(sum_i w_i * values_i^2)^(1/2): the L2-in-time norm of node samples
    under the quadrature weights w of QuadratureRule.weights."""
    return float(np.sqrt(np.dot(w, np.asarray(values, dtype=float) ** 2)))


@dataclass
class Trajectory:
    """Time-sampled hierarchy states on a uniform grid over [0, T].

    Each stored node is kept as the solver produced it: a dict mapping
    level n = 1..N to its mode tensor (unitary DFT of the level-n kernel).
    Norms and collapses read these directly; state(i) builds the
    real-space HierarchyState of one node on request.
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

    @property
    def N(self) -> int:
        return len(self.hats[0])

    def state(self, i: int) -> HierarchyState:
        """Real-space hierarchy state at node i (built on each call)."""
        return _materialize(self.grid, self.hats[i], self.spec)

    @property
    def states(self) -> list[HierarchyState]:
        """Every node in real space; for small trajectories such as tests."""
        return [self.state(i) for i in range(len(self.times))]


def _initial_hats(state: HierarchyState) -> dict[int, np.ndarray]:
    return {n: fftn_level(state.level(n).data) for n in range(1, state.N + 1)}


def _materialize(grid: TorusGrid, hats: dict[int, np.ndarray], spec: InteractionSpec) -> HierarchyState:
    levels = [Marginal(grid, n, ifftn_level(hats[n])) for n in sorted(hats)]
    return HierarchyState(grid, levels, spec.p, spec.mu)


def _check_spec(state: HierarchyState, spec: InteractionSpec) -> None:
    if state.p != spec.p or state.mu != spec.mu:
        raise ValueError("interaction spec does not match the hierarchy state")


def _sampling(T: float, dt: float, store_every: int | None) -> tuple[int, int]:
    """Step count S and the stored stride (None stores only the endpoints)."""
    S = _resolve_steps(T, dt)
    if store_every is None:
        store_every = S
    if S % store_every != 0:
        raise ValueError(f"store_every={store_every} must divide the step count S={S}")
    return S, store_every


def _volterra_nodes(
    gamma0: HierarchyState,
    spec: InteractionSpec,
    T: float,
    dt: float,
    rule: QuadratureRule,
    store_every: int | None = 1,
):
    """Stored nodes (t, {level: mode tensor}) of the Volterra march, in order."""
    _check_spec(gamma0, spec)
    S, store_every = _sampling(T, dt, store_every)
    for i, hats in _march(gamma0.grid, _initial_hats(gamma0), spec, S, dt, rule):
        if i % store_every == 0:
            yield i * dt, hats


def _oracle_nodes(
    gamma0: HierarchyState,
    spec: InteractionSpec,
    T: float,
    dt: float,
    store_every: int | None = 1,
):
    """Stored nodes (t, {level: mode tensor}) of the integrating-factor RK4
    oracle, in order.

    Works in the free-evolution frame w(t) = U(-t) Gamma(t), where
    w' = -i*mu * U(-t) B U(t) w, and applies the classical 4-stage
    Runge-Kutta step to this coupling (4th order in dt).
    """
    _check_spec(gamma0, spec)
    S, store_every = _sampling(T, dt, store_every)
    grid = gamma0.grid
    N, half = gamma0.N, spec.half
    coupled = [n for n in range(1, N + 1) if n + half <= N]
    srcs = sorted({n + half for n in coupled})
    w = _initial_hats(gamma0)
    E = {n: np.ones(w[n].shape, dtype=np.complex128) for n in w}
    E_half = {n: phase_tensor(grid, n, dt / 2) for n in w}
    mu_coef = -1j * spec.mu

    def F(E_t: dict[int, np.ndarray], w_t: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        real_frame = {m: E_t[m] * w_t[m] for m in srcs}
        out = {}
        for n in coupled:
            g = fourier_collapse(real_frame[n + half], grid, n + half, half)
            out[n] = mu_coef * np.conj(E_t[n]) * g
        return out

    def axpy(base: dict[int, np.ndarray], coeff: float, delta: dict[int, np.ndarray]):
        return {n: base[n] + coeff * delta[n] if n in delta else base[n] for n in base}

    # levels of w are rebound, never written in place, so a yielded dict stays valid
    yield 0.0, dict(w)
    for i in range(1, S + 1):
        E_mid = {n: E[n] * E_half[n] for n in w}
        E_end = {n: E_mid[n] * E_half[n] for n in w}
        k1 = F(E, w)
        k2 = F(E_mid, axpy(w, dt / 2, k1))
        k3 = F(E_mid, axpy(w, dt / 2, k2))
        k4 = F(E_end, axpy(w, dt, k3))
        for n in coupled:
            w[n] = w[n] + (dt / 6) * (k1[n] + 2 * k2[n] + 2 * k3[n] + k4[n])
        E = E_end
        if i % store_every == 0:
            yield i * dt, {n: E[n] * w[n] for n in w}


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
    times, hats = zip(*_volterra_nodes(gamma0, spec, T, dt, rule, store_every))
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
    times, hats = zip(*_oracle_nodes(gamma0, spec, T, dt, store_every))
    meta = {"solver": "oracle-ifrk4", "quadrature": "rk4", "dt_integration": dt, "store_every": stride}
    return Trajectory(np.array(times), list(hats), gamma0.grid, spec, meta=meta)


def _volterra_from_samples(
    source_hat,
    out_level: int,
    grid: TorusGrid,
    spec: InteractionSpec,
    S: int,
    dt: float,
    rule: QuadratureRule,
    keep_all: bool,
):
    """Integrate x(t) = prefactor * int_0^t U(t-s) B source(s) ds on the node grid.

    source_hat(i) must return the level-(out_level + p/2) mode tensor at
    node i.  Returns the list of node values (keep_all) or just the final one.
    """
    half = spec.half
    step = phase_tensor(grid, out_level, dt)
    P = np.ones_like(step)
    cum = _Cumulative(rule, dt)
    mu_coef = -1j * spec.mu
    shape = (grid.M,) * grid.axis_count(out_level)
    values: dict[int, np.ndarray] = {0: np.zeros(shape, dtype=np.complex128)}
    phases: dict[int, np.ndarray] = {0: P}
    for i in range(0, S + 1):
        if i > 0:
            P = P * step
        phases[i] = P
        g = fourier_collapse(source_hat(i), grid, out_level + half, half)
        for s, Q in cum.push(np.conj(P) * g):
            values[s] = phases[s] * (mu_coef * Q)
        for key in [s for s in phases if s < i - 3]:
            del phases[key]
    if keep_all:
        return [values[i] for i in range(S + 1)]
    return values[S]


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
    _check_spec(gamma0, spec)
    grid = gamma0.grid
    if n + j * spec.half > gamma0.N or (j > 1 and t <= 0):
        return zero_marginal(grid, n + spec.half)
    rule = QuadratureRule(quadrature) if isinstance(quadrature, str) else quadrature
    return Marginal(grid, n + spec.half, ifftn_level(_duhamel_hat(j, n, gamma0, spec, t, dt, rule)))


def _duhamel_hat(
    j: int, n: int, gamma0: HierarchyState, spec: InteractionSpec, t: float, dt: float, rule: QuadratureRule
) -> np.ndarray:
    """Mode tensor of duhamel_term for n + j*p/2 <= N (and t > 0 when j > 1)."""
    half = spec.half
    grid = gamma0.grid
    deepest = n + j * half
    hat_deep = fftn_level(gamma0.level(deepest).data)
    if j == 1:
        return phase_tensor(grid, deepest, t) * hat_deep
    S = _resolve_steps(t, dt)
    step_deep = phase_tensor(grid, deepest, dt)

    # rung 2 sources stream the free evolution of the deepest level
    free_phase = {"P": np.ones_like(step_deep), "i": 0}

    def free_source(i: int) -> np.ndarray:
        if i == 0:
            free_phase["P"] = np.ones_like(step_deep)
            free_phase["i"] = 0
        while free_phase["i"] < i:
            free_phase["P"] = free_phase["P"] * step_deep
            free_phase["i"] += 1
        return free_phase["P"] * hat_deep

    source = free_source
    for m in range(2, j):
        samples = _volterra_from_samples(source, n + (j - m + 1) * half, grid, spec, S, dt, rule, keep_all=True)
        source = lambda i, _s=samples: _s[i]
    return _volterra_from_samples(source, n + half, grid, spec, S, dt, rule, keep_all=False)


def reconstruct_bhat(
    n: int,
    t: float,
    gamma0: HierarchyState,
    spec: InteractionSpec,
    quadrature: QuadratureRule | str = "trapezoid",
    dt: float = 1e-3,
) -> Marginal:
    """Finite Duhamel-sum identity: (B Gamma_N)^(n)(t) from initial data only."""
    _check_spec(gamma0, spec)
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
    all time integrals by the composite rule on the stored grid.  By
    default Gamma_ref is the trajectory's own initial state (the residual
    is then pure quadrature error); passing deeper reference data measures
    the truncation tail instead.
    """
    rule = QuadratureRule(quadrature) if isinstance(quadrature, str) else quadrature
    spec, grid = trajectory.spec, trajectory.grid
    if trajectory.N < 1 + spec.half:
        raise ValueError("trajectory has no coupled levels")
    ref_hat = trajectory.hats[0] if reference_data is None else _reference_hats(reference_data, spec)
    thetas = [_theta_hats(hats, grid, spec) for hats in trajectory.hats]
    norms = _theta_defect_norms(thetas, ref_hat, grid, spec, trajectory.dt, rule, xi, alpha)
    return l2_in_time(rule.weights(len(thetas) - 1, trajectory.dt), norms)


def _reference_hats(reference_data: HierarchyState, spec: InteractionSpec) -> dict[int, np.ndarray]:
    """Mode tensors of the reference levels that the Theta residual collapses."""
    _check_spec(reference_data, spec)
    return {m: fftn_level(reference_data.level(m).data) for m in range(1 + spec.half, reference_data.N + 1)}


def _theta_hats(hats: dict[int, np.ndarray], grid: TorusGrid, spec: InteractionSpec) -> dict[int, np.ndarray]:
    """Theta = B Gamma at one node, in mode space: level n collapses level n + p/2."""
    half = spec.half
    return {n: fourier_collapse(hats[n + half], grid, n + half, half) for n in range(1, max(hats) - half + 1)}


def _theta_defect_norms(
    thetas: list[dict[int, np.ndarray]],
    ref_hat: dict[int, np.ndarray],
    grid: TorusGrid,
    spec: InteractionSpec,
    dt: float,
    rule: QuadratureRule,
    xi: float,
    alpha: float,
) -> list[float]:
    """Per-node H^alpha_xi norms of the Theta fixed-point defect (see theta_residual).

    thetas[i] maps level n to the mode tensor of Theta^(n) at node i;
    ref_hat maps level m to the mode tensor of Gamma_ref^(m).
    """
    half = spec.half
    S = len(thetas) - 1
    theta_levels = sorted(thetas[0])
    res_levels = list(range(1, max(len(theta_levels), max(ref_hat, default=0) - half) + 1))
    need = sorted({lv + half for lv in res_levels})

    step = {lv: phase_tensor(grid, lv, dt) for lv in theta_levels}
    P = {lv: np.ones_like(step[lv]) for lv in theta_levels}
    cum = {lv: _Cumulative(rule, dt) for lv in theta_levels}
    W: dict[int, dict[int, np.ndarray]] = {lv: {0: np.zeros_like(step[lv])} for lv in theta_levels}
    for lv in theta_levels:
        cum[lv].push(thetas[0][lv])
    for i in range(1, S + 1):
        for lv in theta_levels:
            P[lv] = P[lv] * step[lv]
            for s, Q in cum[lv].push(np.conj(P[lv]) * thetas[i][lv]):
                W[lv][s] = Q

    mu_coef = -1j * spec.mu
    norms = []
    P_out = {m: np.ones((grid.M,) * grid.axis_count(m), dtype=np.complex128) for m in need}
    step_out = {m: phase_tensor(grid, m, dt) for m in need}
    for i in range(0, S + 1):
        if i > 0:
            for m in need:
                P_out[m] = P_out[m] * step_out[m]
        total = 0.0
        for lv in res_levels:
            m = lv + half
            x = ref_hat[m] if m in ref_hat else np.zeros((grid.M,) * grid.axis_count(m), dtype=np.complex128)
            if i > 0 and m in W:
                x = x + mu_coef * W[m][i]
            r = -fourier_collapse(P_out[m] * x, grid, m, half)
            if lv in thetas[i]:
                r = r + thetas[i][lv]
            total += xi**lv * _h_alpha_norm_hat(r, grid, lv, alpha)
        norms.append(total)
    return norms
