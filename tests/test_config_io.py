import cmath
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gphier import (
    BadMagicError,
    ConfigError,
    HierarchyState,
    InteractionSpec,
    Marginal,
    MemoryGuardError,
    NormParams,
    QuadratureRule,
    SnapshotError,
    TruncatedPayloadError,
    VersionMismatchError,
    b_hat,
    cosine_field,
    h_alpha_norm,
    hxi_norm,
    make_grid,
    parse_config,
    run_experiment,
    snapshot_read,
    snapshot_write,
    solve_truncated,
    spacetime_norm,
    trace,
    validate_marginal,
)
from gphier import marginal, studies
from gphier.cli import main
from gphier.experiment import COMMANDS
from gphier.marginal import ProductLevel
from gphier.solver import _resolve_steps

GRID = make_grid(1, 4, 2 * np.pi)


def test_defaults_from_empty_document():
    cfg = parse_config("")
    assert cfg.d == 1 and cfg.p == 2 and cfg.mu == 1
    assert cfg.M == 8 and cfg.L == pytest.approx(2 * np.pi)
    assert cfg.alpha == 1.0 and cfg.xi == 0.02 and cfg.xi2 == 0.06 and cfg.xi_prime == 0.2
    assert cfg.eta == 0.3 and cfg.N == 4 and cfg.T == 0.1 and cfg.dt == 1e-3
    assert cfg.quadrature == "trapezoid" and cfg.solver == "both" and cfg.seed == 42
    assert cfg.j_max == 3 and cfg.warnings == []


def test_comments_and_overrides():
    text = "# a comment\nM = 6\nT = 0.2  # trailing comment\n\nN_list = 3,4\n"
    cfg = parse_config(text, overrides={"seed": "7"})
    assert cfg.M == 6 and cfg.T == 0.2 and cfg.N_list == [3, 4] and cfg.seed == 7


def test_xi_ordering_violation_named():
    with pytest.raises(ConfigError, match="xi < xi_prime"):
        parse_config("xi = 0.3\nxi_prime = 0.2\n")
    with pytest.raises(ConfigError, match="xi < xi2"):
        parse_config("xi = 0.07\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("xl = 0.3\n")


def test_alpha_admissibility_flag():
    with pytest.raises(ConfigError, match="admissible"):
        parse_config("alpha = 0.4\n")
    cfg = parse_config("alpha = 0.4\nallow_inadmissible_alpha = true\n")
    assert any("outside the admissible range" in w for w in cfg.warnings)


def test_dt_divides_T_checked():
    with pytest.raises(ConfigError, match="dt divides T"):
        parse_config("T = 0.1\ndt = 0.0003\n")


@pytest.mark.parametrize(
    "key,value", [("T", "inf"), ("dt", "1e-320"), ("L", "inf"), ("N_list", "3"), ("N_list", "1,2")]
)
def test_unusable_inputs_named(tmp_path, capsys, key, value):
    # each used to pass the config or to escape it with a bare exception
    with pytest.raises(ConfigError, match="constraint violated"):
        parse_config(f"{key} = {value}\n")
    assert main(["cauchy", "--set", f"{key}={value}", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: constraint violated: ")


def _owners_reject(v: dict) -> bool:
    try:
        make_grid(v["d"], v["M"], v["L"])
        InteractionSpec(v["p"], v["mu"])
        NormParams(v["alpha"], v["xi"], v["xi2"], v["xi_prime"], v["eta"])
        QuadratureRule(v["quadrature"])
        _resolve_steps(v["T"], v["dt"])
    except ValueError:
        return True
    return False


def _numbers(*typical):
    edge = (0.0, -1.0, 1e-320, math.inf, -math.inf, math.nan)
    return st.sampled_from(typical + edge) | st.floats()


VALID_INPUTS = dict(
    d=1, M=8, L=2 * math.pi, p=2, mu=1, alpha=1.0, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.3,
    T=0.1, dt=1e-3, quadrature="trapezoid",
)
CHANGED_INPUTS = dict(
    d=st.integers(-1, 3),
    M=st.integers(-2, 12),
    L=_numbers(1.0),
    p=st.sampled_from([4, 3, 0]),
    mu=st.sampled_from([-1, 0, 2]),
    alpha=_numbers(0.25, 2.0),
    xi=_numbers(0.05, 0.1),
    xi2=_numbers(0.01, 0.1),
    xi_prime=_numbers(0.05, 0.5),
    eta=_numbers(0.5),
    T=_numbers(1.0, 0.05),
    dt=_numbers(0.05, 3e-4),
    quadrature=st.sampled_from(["simpson", "gauss"]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_rejects_what_the_owners_reject(data):
    # up to three inputs moved off a valid config, including inf, nan, 0 and
    # negative values: the config keeps no copy of these rules and fails
    # exactly when an owner does
    values = dict(VALID_INPUTS)
    for key in data.draw(st.lists(st.sampled_from(sorted(CHANGED_INPUTS)), max_size=3, unique=True)):
        values[key] = data.draw(CHANGED_INPUTS[key], label=key)
    overrides = {key: str(v) for key, v in values.items()}
    overrides["allow_inadmissible_alpha"] = "true"
    if _owners_reject(values):
        with pytest.raises(ConfigError, match="constraint violated"):
            parse_config("", overrides)
    else:
        parse_config("", overrides)


def test_bad_value_types():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("M = eight\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("T = soon\n")
    with pytest.raises(ConfigError, match="key save_state: expected a boolean, got 'maybe'"):
        parse_config("save_state = maybe\n")
    with pytest.raises(ConfigError, match="key N_list: expected comma-separated integers, got '3, four'"):
        parse_config("N_list = 3, four\n")
    # warnings is a field but no key: a config cannot set it
    with pytest.raises(ConfigError, match="unknown key: warnings"):
        parse_config("warnings = x\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def _random_m(k, seed=0):
    rng = np.random.default_rng(seed)
    shape = (4,) * (2 * k)
    return Marginal(GRID, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_snapshot_marginal_roundtrip_bitwise(tmp_path):
    gam = _random_m(2, seed=1)
    path = str(tmp_path / "m.gph")
    snapshot_write(gam, path)
    back = snapshot_read(path)
    assert isinstance(back, Marginal) and back.k == 2
    assert back.grid == GRID
    assert np.array_equal(back.data, gam.data)  # bit-exact


def test_snapshot_state_roundtrip_bitwise(tmp_path):
    st = HierarchyState(GRID, [_random_m(1, 2), _random_m(2, 3), _random_m(3, 4)])
    path = str(tmp_path / "s.gph")
    snapshot_write(st, path)
    back = snapshot_read(path)
    assert isinstance(back, HierarchyState) and back.N == 3
    for k in (1, 2, 3):
        assert np.array_equal(back.level(k).data, st.level(k).data)


def test_snapshot_bad_magic(tmp_path):
    path = str(tmp_path / "bad.gph")
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + b"\0" * 64)
    with pytest.raises(BadMagicError):
        snapshot_read(path)


def test_snapshot_version_mismatch(tmp_path):
    gam = _random_m(1)
    path = str(tmp_path / "v.gph")
    snapshot_write(gam, path)
    raw = bytearray(open(path, "rb").read())
    raw[4] = 99  # bump the version field
    open(path, "wb").write(bytes(raw))
    with pytest.raises(VersionMismatchError):
        snapshot_read(path)


def test_snapshot_truncated(tmp_path):
    gam = _random_m(2)
    path = str(tmp_path / "t.gph")
    snapshot_write(gam, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) - 7])
    with pytest.raises(TruncatedPayloadError):
        snapshot_read(path)


def _write_crafted(path, d, M, L, k, payload=b""):
    with open(path, "wb") as fh:
        fh.write(b"GPH1" + struct.pack("<IIIdI", 1, d, M, L, k) + payload)


def test_snapshot_oversized_header(tmp_path):
    # d=1, M=4096, k=3 would need 16 * 4096^6 bytes; rejected before allocating
    path = str(tmp_path / "huge.gph")
    _write_crafted(path, 1, 4096, 1.0, 3, b"\0" * 64)
    with pytest.raises(SnapshotError):
        snapshot_read(path)


@pytest.mark.parametrize("d,M,L", [(0, 4, 1.0), (1, 4, float("nan")), (1, 4, float("inf")), (1, 6, -1.0), (1, 5, 1.0)])
def test_snapshot_invalid_grid_header(tmp_path, d, M, L):
    path = str(tmp_path / "grid.gph")
    _write_crafted(path, d, M, L, 1, b"\0" * (16 * M ** (2 * d)))
    with pytest.raises(SnapshotError):
        snapshot_read(path)


def test_snapshot_payload_size_mismatch(tmp_path):
    gam = _random_m(2)
    path = str(tmp_path / "long.gph")
    snapshot_write(gam, path)
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(SnapshotError):
        snapshot_read(path)
    # a state header claiming 2^32 - 1 levels over a one-level payload
    state_path = str(tmp_path / "count.gph")
    _write_crafted(state_path, 1, 4, 1.0, 0, struct.pack("<I", 2**32 - 1) + b"\0" * (16 * 4**2))
    with pytest.raises(SnapshotError):
        snapshot_read(state_path)


VALID_MARGINAL_HEADER = struct.pack("<IIIdI", 1, 1, 4, 2 * np.pi, 1)
VALID_STATE_HEADER = struct.pack("<IIIdI", 1, 1, 4, 2 * np.pi, 0)
HEADER_FIELDS = st.builds(
    lambda version, d, M, L, k: struct.pack("<IIIdI", version, d, M, L, k),
    st.sampled_from([1, 0, 2**32 - 1]),
    st.integers(0, 3) | st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2, 4, 5, 6, 2**32 - 2]) | st.integers(0, 2**32 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 3) | st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.binary(min_size=24, max_size=24) | HEADER_FIELDS,
    payload_len=st.integers(0, 300) | st.sampled_from([4356, 65536]),
)
@example(header=VALID_MARGINAL_HEADER, payload_len=256)
@example(header=VALID_STATE_HEADER, payload_len=260)
def test_snapshot_header_fuzz(tmp_path, header, payload_len):
    # the 24 header bytes after the magic, then a payload whose first u32
    # is 1 (a one-level count when the header announces a state)
    payload = (struct.pack("<I", 1) + b"\0" * payload_len)[:payload_len]
    path = tmp_path / "fuzz.gph"
    path.write_bytes(b"GPH1" + header + payload)
    try:
        obj = snapshot_read(str(path))
    except SnapshotError:
        return
    assert isinstance(obj, (Marginal, HierarchyState))


FAST_CONFIG = "M = 4\nN = 3\nT = 0.02\ndt = 0.001\nstore_every = 5\n"


def test_run_evolve_writes_tables(tmp_path):
    cfg = parse_config(FAST_CONFIG + "solver = volterra\nphi0 = plane_wave\nsave_state = true\n")
    status = run_experiment(cfg, "evolve", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "manifest.json").exists()
    norms = (tmp_path / "evolve_volterra_norms.csv").read_text().splitlines()
    assert norms[0] == "t,norm_Hxi_alpha"
    values = {float(line.split(",")[1]) for line in norms[1:]}
    assert max(values) - min(values) <= 1e-10  # plane wave: constant norms
    # snapshot written and loadable
    snap = snapshot_read(str(tmp_path / "evolve_volterra_final.gph"))
    assert isinstance(snap, HierarchyState)


def test_run_cauchy_table_shape(tmp_path):
    cfg = parse_config(FAST_CONFIG + "N_list = 3,4\neta = 0.5\n")
    status = run_experiment(cfg, "cauchy", out_dir=str(tmp_path))
    assert status == 0
    rows = (tmp_path / "cauchy_pairs.csv").read_text().splitlines()
    assert len(rows) >= 2  # header + at least one pair


def test_run_determinism_byte_identical(tmp_path):
    cfg_text = FAST_CONFIG + "solver = volterra\nseed = 11\n"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = parse_config(cfg_text)
        assert run_experiment(cfg, "evolve", out_dir=str(out)) == 0
    for name in ("evolve_volterra_levels.csv", "evolve_volterra_norms.csv", "evolve_volterra_invariants.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_strichartz_smoke(tmp_path):
    cfg = parse_config("M = 4\nN = 2\nT = 0.02\ndt = 0.002\nensemble_size = 3\n")
    status = run_experiment(cfg, "strichartz", out_dir=str(tmp_path))
    assert status == 0
    assert (tmp_path / "strichartz_per_draw.csv").exists()
    assert (tmp_path / "strichartz_summary.json").exists()


def test_run_boardgame_and_km(tmp_path):
    cfg = parse_config("M = 4\nN = 4\nT = 0.02\ndt = 0.001\nj_max = 2\neta = 0.5\n")
    assert run_experiment(cfg, "boardgame", out_dir=str(tmp_path / "bg")) == 0
    assert run_experiment(cfg, "km-report", out_dir=str(tmp_path / "km")) == 0
    assert (tmp_path / "bg" / "boardgame_ratios.csv").exists()
    assert (tmp_path / "km" / "km_summary.json").exists()


def test_run_nls_compare(tmp_path):
    cfg = parse_config(FAST_CONFIG)
    assert run_experiment(cfg, "nls-compare", out_dir=str(tmp_path)) == 0
    header = (tmp_path / "nls_compare.csv").read_text().splitlines()[0]
    assert header.startswith("t,level_1_error")


def test_phi0_snapshot_roundtrip(tmp_path):
    # a pure product-state marginal reproduces its field up to phase
    from gphier import factorized_marginal, trace

    phi = cosine_field(GRID).values
    g1 = factorized_marginal(phi, 1, GRID)
    path = str(tmp_path / "phi.gph")
    snapshot_write(g1, path)
    cfg = parse_config(f"M = 4\nN = 2\nT = 0.02\ndt = 0.001\nphi0 = {path}\nsolver = volterra\n")
    assert run_experiment(cfg, "evolve", out_dir=str(tmp_path / "run")) == 0
    levels = (tmp_path / "run" / "evolve_volterra_levels.csv").read_text().splitlines()
    header = levels[0].split(",")
    first = levels[1].split(",")
    assert float(first[header.index("trace_re")]) == pytest.approx(1.0, abs=1e-9)


def test_manifest_written_on_error(tmp_path):
    missing = tmp_path / "missing.gph"
    cfg = parse_config(f"M = 4\nN = 2\nT = 0.02\ndt = 0.001\nphi0 = {missing}\nsolver = volterra\n")
    out = tmp_path / "run"
    with pytest.raises(FileNotFoundError):
        run_experiment(cfg, "evolve", out_dir=str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 1
    assert manifest["error"].startswith("FileNotFoundError:")


def test_cli_main_end_to_end(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(FAST_CONFIG + "solver = volterra\n")
    result = subprocess.run(
        [sys.executable, "-m", "gphier.cli", "evolve", "--config", str(config), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_rejects_bad_config(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("xi = 0.5\nxi_prime = 0.2\n")
    result = subprocess.run(
        [sys.executable, "-m", "gphier.cli", "evolve", "--config", str(config)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "xi < xi_prime" in result.stderr


def test_cli_memory_guard_exit_code(tmp_path, capsys):
    # level 3 at M=32 has 2^30 entries: the guard fires before allocating.
    # At N=4 level 3 couples, so it is dense (the free level 4 is a product)
    out = tmp_path / "out"
    assert main(["evolve", "--set", "M=32", "--set", "N=4", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: level-3 marginal")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 1
    assert manifest["error"].startswith("MemoryGuardError:")


def test_cli_strichartz_checks_memory_guard_at_config(tmp_path, capsys, monkeypatch):
    # with the guard at 1000 entries the dense draw of level N = 3 (4^6
    # entries) is refused by the config check, before levels 1 and 2 are
    # drawn; the study called directly refuses the level-2 draw (4^4 = 256
    # entries) itself at a guard of 100
    monkeypatch.setattr(marginal, "MEMORY_GUARD_ELEMENTS", 1000)
    drawn = []
    monkeypatch.setattr(studies, "_random_hat", lambda grid, k, *args: drawn.append(k))
    out = tmp_path / "out"
    argv = ["strichartz", "--set", "M=4", "--set", "N=3", "--set", "T=0.004", "--set", "dt=0.002"]
    assert main(argv + ["--set", "ensemble_size=1", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: level-3 marginal on M=4, d=1 has 4096 elements")
    assert drawn == []
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 1
    assert manifest["error"].startswith("MemoryGuardError: level-3 marginal")
    monkeypatch.undo()
    monkeypatch.setattr(marginal, "MEMORY_GUARD_ELEMENTS", 100)
    params = NormParams(alpha=1.0, xi=0.02, xi2=0.06, xi_prime=0.2, eta=0.5)
    with pytest.raises(MemoryGuardError, match="level-2 marginal"):
        studies.strichartz_study(1, params, make_grid(1, 4, 2 * np.pi), InteractionSpec(2, 1), 0.004, 0.002, 3)


@pytest.mark.parametrize(
    "command,settings",
    [("evolve", ["N=3", "save_state=true", "solver=volterra"]), ("nls-compare", ["N=4"])],
    ids=["evolve", "nls-compare"],
)
def test_cli_real_space_output_checks_memory_guard_first(tmp_path, capsys, monkeypatch, command, settings):
    # both commands build level 3 (4^6 entries) in real space: evolve's
    # save_state at N=3, and the invariant check of the coupled level N - 1
    # at N=4; with the guard at 1000 entries the run is refused before it marches
    monkeypatch.setattr(marginal, "MEMORY_GUARD_ELEMENTS", 1000)
    out = tmp_path / "out"
    argv = [command, "--set", "M=4", "--set", "T=0.004", "--out-dir", str(out)]
    assert main(argv + [arg for s in settings for arg in ("--set", s)]) == 3
    assert capsys.readouterr().err.startswith("error: level-3 marginal")
    assert sorted(os.listdir(out)) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["error"].startswith("MemoryGuardError:")


def test_cli_nls_compare_guards_its_packed_top_level(tmp_path, capsys, monkeypatch):
    # M=4, N=3: the invariant check builds level 2 (256 dense entries), and
    # the comparison packs the free level 3 (20^2 = 400 entries)
    monkeypatch.setattr(marginal, "MEMORY_GUARD_ELEMENTS", 300)
    out = tmp_path / "out"
    assert main(["nls-compare", "--set", "M=4", "--set", "N=3", "--set", "T=0.004", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: packed level 3 on M=4")
    assert sorted(os.listdir(out)) == ["manifest.json"]


@pytest.mark.parametrize("command", ["evolve", "km-report", "nls-compare", "cauchy", "boardgame"])
def test_non_finite_norms_refused_before_tables(tmp_path, capsys, command):
    # the Bessel weights of alpha=300 overflow: the first reported norm stops the run
    text = "M = 4\nN = 4\nT = 0.002\nalpha = 300\nsolver = volterra\n"
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_experiment(parse_config(text), command, out_dir=str(out)) == 2
    assert capsys.readouterr().err.startswith("FAILED: invariant 'finite norms' failed: level-")
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 2
    assert manifest["error"].startswith("InvariantFailure: invariant 'finite norms' failed")


def _read_csv(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _close(got: str, want: float, rel=1e-12, floor=1e-12) -> bool:
    return abs(float(got) - want) <= max(rel * abs(want), floor if abs(want) <= floor else 0.0)


def test_run_evolve_tables_match_real_space(tmp_path):
    # streamed mode-space tables against the stored trajectory's real-space
    # states through h_alpha_norm, trace, hxi_norm and validate_marginal
    cfg = parse_config(FAST_CONFIG + "solver = volterra\n")
    assert run_experiment(cfg, "evolve", out_dir=str(tmp_path)) == 0
    grid = make_grid(1, 4, cfg.L)
    g0 = HierarchyState.factorized(cosine_field(grid).values, 3, grid)
    traj = solve_truncated(g0, InteractionSpec(2, 1), cfg.T, cfg.dt, "trapezoid", cfg.store_every)
    levels = _read_csv(tmp_path / "evolve_volterra_levels.csv")
    norms = _read_csv(tmp_path / "evolve_volterra_norms.csv")
    invariants = _read_csv(tmp_path / "evolve_volterra_invariants.csv")
    assert len(levels) == len(invariants) == 3 * len(traj.times) and len(norms) == len(traj.times)
    states = traj.states
    for row, inv in zip(levels, invariants):
        i, k = list(traj.times).index(float(row["t"])), int(row["level"])
        g = states[i].level(k)
        tr = trace(g)
        assert _close(row["norm_Halpha"], h_alpha_norm(g, cfg.alpha))
        assert _close(row["trace_re"], tr.real) and _close(row["trace_im"], tr.imag)
        rep = validate_marginal(g, check_positivity=False)
        drift = abs(tr - trace(states[0].level(k)))
        if inv["free"] == "true":
            # a free level of factorized data is a product level: its rows
            # come from the factor, with defects 0 by construction
            assert isinstance(traj.hats[i][k], ProductLevel)
            level_drift = abs(traj.hats[i][k].trace() - traj.hats[0][k].trace())
            assert float(inv["trace_drift"]) == level_drift
            assert abs(level_drift - drift) <= 1e-15
            assert float(inv["herm_defect"]) == float(inv["sym_defect"]) == 0.0
            assert max(rep.hermiticity_defect, rep.symmetry_defect) <= 1e-15
            continue
        assert float(inv["trace_drift"]) == drift
        assert float(inv["herm_defect"]) == rep.hermiticity_defect
        assert float(inv["sym_defect"]) == rep.symmetry_defect
    for row, st in zip(norms, states):
        assert _close(row["norm_Hxi_alpha"], hxi_norm(st, cfg.xi, cfg.alpha))


def test_run_km_report_tables_match_real_space(tmp_path):
    cfg = parse_config("p = 4\nM = 4\nN = 3\nT = 0.02\ndt = 0.001\nstore_every = 1\n")
    assert run_experiment(cfg, "km-report", out_dir=str(tmp_path)) == 0
    grid = make_grid(1, 4, cfg.L)
    spec = InteractionSpec(4, 1)
    g0 = HierarchyState.factorized(cosine_field(grid).values, 3, grid)
    traj = solve_truncated(g0, spec, cfg.T, cfg.dt, "trapezoid", 1)
    states = traj.states
    thetas = [b_hat(st, spec) for st in states]
    rows = _read_csv(tmp_path / "km_per_time.csv")
    assert len(rows) == len(states) == 21
    for row, st, th in zip(rows, states, thetas):
        assert _close(row["hxi_norm"], hxi_norm(st, cfg.xi, cfg.alpha))
        assert _close(row["bhat_hxi_norm"], hxi_norm(th, cfg.xi, cfg.alpha))
    fitted = json.loads((tmp_path / "km_summary.json").read_text())["fitted"]
    assert _close(fitted["sup_t_hxi_norm"], max(hxi_norm(st, cfg.xi, cfg.alpha) for st in states))
    assert _close(fitted["l2_t_bhat_norm"], spacetime_norm(traj.times, thetas, cfg.xi, cfg.alpha))
    assert abs(fitted["theta_residual"]) <= 1e-12
    assert fitted["samples"] == 21.0


@pytest.mark.parametrize("command", ["evolve", "km-report"])
def test_streamed_invariant_failure_keeps_other_tables(tmp_path, monkeypatch, command):
    # a violation found mid-stream: the run still writes every row of its
    # other tables, writes no invariants table and records the failure
    from gphier import experiment

    real = experiment._structural_invariants

    def fail_after_start(t, hats, grid, spec, init_traces):
        rows, traces, failure = real(t, hats, grid, spec, init_traces)
        return rows, traces, failure or (f"invariant 'injected' failed at t={t}" if t > 0 else None)

    monkeypatch.setattr(experiment, "_structural_invariants", fail_after_start)
    cfg = parse_config(FAST_CONFIG + "solver = volterra\n")
    assert run_experiment(cfg, command, out_dir=str(tmp_path)) == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == 2
    assert manifest["error"] == "InvariantFailure: invariant 'injected' failed at t=0.005"
    if command == "evolve":
        assert len(_read_csv(tmp_path / "evolve_volterra_levels.csv")) == 5 * 3
        assert len(_read_csv(tmp_path / "evolve_volterra_norms.csv")) == 5
        assert not (tmp_path / "evolve_volterra_invariants.csv").exists()
    else:
        assert len(_read_csv(tmp_path / "km_per_time.csv")) == 5


def test_cli_rejects_subnormal_period(tmp_path, capsys):
    # 2*pi*m/L overflows: the run used to exit 0 with nan in every column
    settings = ["L=1e-320", "M=4", "N=2", "T=0.002", "solver=volterra"]
    args = ["evolve"] + [arg for s in settings for arg in ("--set", s)]
    assert main(args + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "non-finite wavenumbers" in err[0]


@pytest.mark.parametrize("command", ["evolve", "km-report", "boardgame"])
def test_simpson_single_step_runs(tmp_path, command):
    # with one interval Simpson falls back to the trapezoid, as its weights do
    args = [command, "--set", "M=4", "--set", "T=0.001", "--set", "dt=0.001", "--set", "quadrature=simpson"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 0


_STRIDE = ["store_every=7", "T=0.01", "M=4", "N=3", "solver=volterra"]


@pytest.mark.parametrize(
    "command, settings, message",
    [
        pytest.param("strichartz", ["M=4", "N=1"], "N >= 2", id="strichartz"),
        pytest.param("km-report", ["M=4", "N=1"], "N >= 2", id="km-report"),
        # store_every must divide S = 10: caught before the run, not by its traceback
        pytest.param("evolve", _STRIDE, "store_every=7 must divide the step count S=10", id="evolve-stride"),
        pytest.param("km-report", _STRIDE, "store_every=7 must divide the step count S=10", id="km-report-stride"),
        pytest.param("nls-compare", _STRIDE, "store_every=7 must divide the step count S=10", id="nls-compare-stride"),
    ],
)
def test_uncoupled_truncation_rejected_with_manifest(tmp_path, capsys, command, settings, message):
    args = [command] + [arg for s in settings for arg in ("--set", s)]
    assert main(args + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: constraint violated: {message}")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == 1
    assert manifest["error"].startswith("ConfigError:")


#: inputs that steer a run, at M=4 and N <= 3; T is steps * dt
RUN_INPUTS = st.fixed_dictionaries(
    {
        "p": st.sampled_from([2, 4]),
        "mu": st.sampled_from([-1, 1]),
        "N": st.integers(1, 3),
        "N_list": st.sampled_from(["2,3", "3,2", "1,3", "3,3", "2,2,3"]),
        "steps": st.integers(1, 4),
        "dt": st.sampled_from([1e-3, 2e-3]),
        "store_every": st.integers(1, 3),
        "quadrature": st.sampled_from(["trapezoid", "simpson"]),
        "solver": st.sampled_from(["volterra", "oracle", "both"]),
        "phi0": st.sampled_from(["cosine", "plane_wave"]),
        "alpha": st.sampled_from([0.75, 1.0, 3.0, 300.0]),
        "L": st.sampled_from([2 * math.pi, 1.0, 40.0]),
        "j_max": st.integers(1, 3),
        "ensemble_size": st.integers(1, 2),
    }
)


def _non_finite_numbers(path: str) -> list:
    """The numbers in a CSV or JSON result file that are not finite."""

    def numbers(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, list):
            return [x for item in obj for x in numbers(item)]
        if isinstance(obj, str):  # a CSV cell: a real or complex number, a flag or empty
            try:
                return [complex(obj)]
            except ValueError:
                return []
        return [obj] if isinstance(obj, (int, float)) else []

    with open(path) as fh:
        if path.endswith(".json"):
            values = numbers(json.load(fh))
        else:
            values = numbers([line.split(",") for line in fh.read().splitlines()[1:]])
    return [x for x in values if not cmath.isfinite(x)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), inputs=RUN_INPUTS)
def test_every_parsed_run_succeeds_finite_or_fails_named(command, inputs):
    # a run exits 0 with finite numbers in every table, or exits non-zero
    # with one named error line and a manifest that records it
    inputs = dict(inputs, T=repr(inputs["steps"] * inputs["dt"]), M=4)
    del inputs["steps"]
    try:
        parse_config("", inputs)
    except ConfigError:
        assume(False)
    argv = [command] + [arg for key, v in inputs.items() for arg in ("--set", f"{key}={v}")]
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(over="ignore", invalid="ignore"):
            status = main(argv + ["--out-dir", out])
        lines = err.getvalue().splitlines()
        files = sorted(os.listdir(out))
        if status == 0:
            assert lines == []
            assert {name: _non_finite_numbers(os.path.join(out, name)) for name in files} == dict.fromkeys(files, [])
        else:
            assert len(lines) == 1 and lines[0].startswith(("error: ", "FAILED: ")), lines
            with open(os.path.join(out, "manifest.json")) as fh:
                manifest = json.load(fh)
            assert manifest["status"] == status and manifest["error"]
