import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from gphier import (
    BadMagicError,
    ConfigError,
    HierarchyState,
    Marginal,
    SnapshotError,
    TruncatedPayloadError,
    VersionMismatchError,
    cosine_field,
    make_grid,
    parse_config,
    run_experiment,
    snapshot_read,
    snapshot_write,
)

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


def test_bad_value_types():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("M = eight\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("T = soon\n")
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
    st = HierarchyState(GRID, [_random_m(1, 2), _random_m(2, 3), _random_m(3, 4)], p=2, mu=-1)
    path = str(tmp_path / "s.gph")
    snapshot_write(st, path)
    back = snapshot_read(path, p=2, mu=-1)
    assert isinstance(back, HierarchyState) and back.N == 3 and back.mu == -1
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
