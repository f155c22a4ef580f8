"""Experiment configuration: flat key=value documents, strict validation.

Unknown keys are hard errors (silent typos invalidate studies); every
constraint violation names the inequality it breaks.  Each rule lives with
the object that owns it, and validation asks that owner: make_grid (d, M, L),
InteractionSpec (p, mu), NormParams (alpha, xi, xi2, xi_prime, eta),
QuadratureRule (quadrature), solver._resolve_steps (T, dt) and
studies._check_truncations (N_list).  Only the rules for N, solver,
ensemble_size, j_max and store_every >= 1 are kept here.  check_command adds
the rules of one command: strichartz and km-report collapse the state, so
they ask solver._check_coupled for a coupled level, and evolve, km-report
and nls-compare store every store_every-th node, so they ask
solver._sampling whether store_every divides the step count.  The same
three check the invariants of every stored node in real space, which
builds the dense coupled level N - p/2; evolve with save_state also builds
a dense level N, and nls-compare packs the free level N of the march and
of the NLS field to compare them.  strichartz draws dense levels 1..N.
Each asks the memory guard for the largest dense and packed level it
builds before anything is allocated.
Regularities
outside the admissible range are errors unless allow_inadmissible_alpha is
set, in which case a warning is recorded and the run proceeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .grid import make_grid
from .marginal import NormParams, _check_memory_guard, _check_packed_guard
from .operators import InteractionSpec, admissible_alpha_range
from .solver import QuadratureRule, _check_coupled, _resolve_steps, _sampling
from .studies import _check_truncations


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    d: int = 1
    p: int = 2
    mu: int = 1
    M: int = 8
    L: float = 2 * math.pi
    alpha: float = 1.0
    xi: float = 0.02
    xi2: float = 0.06
    xi_prime: float = 0.2
    eta: float = 0.3
    N: int = 4
    N_list: list[int] | None = None
    T: float = 0.1
    dt: float = 1e-3
    quadrature: str = "trapezoid"
    solver: str = "both"
    phi0: str = "cosine"
    seed: int = 42
    out_dir: str = "runs"
    ensemble_size: int = 100
    j_max: int = 3
    store_every: int = 1
    save_state: bool = False
    allow_inadmissible_alpha: bool = False
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self):
        try:
            make_grid(self.d, self.M, self.L)
            spec = InteractionSpec(self.p, self.mu)
            NormParams(self.alpha, self.xi, self.xi2, self.xi_prime, self.eta)
            QuadratureRule(self.quadrature)
            _resolve_steps(self.T, self.dt)
            if self.N_list is not None:
                _check_truncations(self.N_list, spec)
        except ValueError as exc:
            raise ConfigError(f"constraint violated: {exc}") from exc
        if self.N < 1:
            raise ConfigError("constraint violated: N >= 1")
        if self.solver not in ("volterra", "oracle", "both"):
            raise ConfigError("constraint violated: solver in {volterra, oracle, both}")
        if self.ensemble_size < 1:
            raise ConfigError("constraint violated: ensemble_size >= 1")
        if not 1 <= self.j_max <= 4:
            raise ConfigError("constraint violated: 1 <= j_max <= 4")
        if self.store_every < 1:
            raise ConfigError("constraint violated: store_every >= 1")
        rng = admissible_alpha_range(self.d, self.p)
        if self.alpha not in rng:
            msg = f"alpha={self.alpha} outside the admissible range {rng} for (d={self.d}, p={self.p})"
            if not self.allow_inadmissible_alpha:
                raise ConfigError(msg + "; set allow_inadmissible_alpha=true to run anyway")
            if msg not in self.warnings:
                self.warnings.append(msg)

    def check_command(self, command: str) -> None:
        """Raise ConfigError if this config cannot run `command`."""
        try:
            if command in ("strichartz", "km-report"):
                _check_coupled(self.N, InteractionSpec(self.p, self.mu))
            grid = make_grid(self.d, self.M, self.L)
            if command == "strichartz":
                _check_memory_guard(grid, self.N)
            if command in ("evolve", "km-report", "nls-compare"):
                _sampling(self.T, self.dt, self.store_every)
                if command == "evolve" and self.save_state:
                    _check_memory_guard(grid, self.N)
                elif self.N > self.p // 2:
                    _check_memory_guard(grid, self.N - self.p // 2)
                if command == "nls-compare":
                    _check_packed_guard(grid, self.N)
        except ValueError as exc:
            raise ConfigError(f"constraint violated: {exc}") from exc

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "warnings":
                continue
            out[f.name] = getattr(self, f.name)
        return out


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _integers(raw: str) -> list[int]:
    return [int(x) for x in raw.replace(";", ",").split(",") if x.strip()]


#: parser and expected form of a value, by the annotation of its ExperimentConfig field
_PARSERS = {
    "bool": (lambda raw: _BOOLEANS[raw.lower()], "a boolean"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, None),
    "list[int] | None": (_integers, "comma-separated integers"),
}
_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "warnings"}


def _parse_value(key: str, raw: str):
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown key: {key}")
    parse, expected = _PARSERS[_KEY_TYPES[key]]
    raw = raw.strip()
    try:
        return parse(raw)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"key {key}: expected {expected}, got {raw!r}") from e


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat key=value document (# comments, blank lines allowed)."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, str(raw))
    return ExperimentConfig(**values)
