"""Golden outputs: every CSV/JSON result file of the six commands, byte for byte.

Each case runs one command at a tiny pinned configuration (M=4) and its
result files are compared with the committed copies under
tests/golden/<case>/.  The manifest is not compared: it records wall time
and versions.  Every other file is compared byte for byte, km-report's
fitted theta_residual included: it is 0.0 when the stored grid is the
march's own grid, and km-report-stride pins its nonzero value on a coarser
stored grid.

    PYTHONPATH=src python tests/test_golden_outputs.py

writes the files of every case whose directory does not exist yet and
leaves the others alone.  A change that is meant to alter the results of
a case deletes that case's directory first, after

    PYTHONPATH=src python tests/test_golden_outputs.py --compare

has run every case and printed, per case, the largest relative and
absolute deviation of the numeric fields from the committed files.  It
names each field that moved beyond rel 1e-12 and abs 1e-15 (the
tolerance of an arithmetic change), and each non-numeric field or file
that differs, and exits 1 if there is one.
"""

import csv
import io
import json
import math
import os
import sys
import tempfile

import pytest

from gphier import parse_config, run_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: case name -> (command, config); each case's files live in GOLDEN_DIR/<case>
CONFIGS = {
    # odd S under Simpson runs the 3/8 tail; both solvers add the distance table
    "evolve": ("evolve", "M = 4\nN = 4\nT = 0.007\ndt = 0.001\nsolver = both\nquadrature = simpson\n"),
    "km-report": ("km-report", "M = 4\np = 4\nmu = -1\nN = 3\nT = 0.01\ndt = 0.001\n"),
    # odd S: the Theta defect runs the 3/8 tail and Simpson's late node 1
    "km-report-simpson": ("km-report", "M = 4\nN = 4\nT = 0.009\ndt = 0.001\nquadrature = simpson\n"),
    # stored S=3: the defect runs on the coarse stored grid, so the residual is not 0
    "km-report-stride": (
        "km-report",
        "M = 4\nN = 4\nT = 0.009\ndt = 0.001\nstore_every = 3\nquadrature = simpson\n",
    ),
    "cauchy": ("cauchy", "M = 4\nN_list = 3,4\nT = 0.01\ndt = 0.001\n"),
    "boardgame": ("boardgame", "M = 4\nN = 4\nj_max = 3\nT = 0.009\ndt = 0.001\nquadrature = simpson\n"),
    "strichartz": ("strichartz", "M = 4\nN = 3\nT = 0.02\ndt = 0.002\nensemble_size = 2\n"),
    # the free collapse gathers three pinned modes per row (p=4) and two-axis modes (d=2)
    "strichartz-quintic": ("strichartz", "M = 4\np = 4\nN = 3\nT = 0.02\ndt = 0.002\nensemble_size = 2\n"),
    "strichartz-d2": ("strichartz", "d = 2\nM = 4\nN = 2\nT = 0.02\ndt = 0.002\nensemble_size = 2\n"),
    "nls-compare": ("nls-compare", "M = 4\nmu = -1\nN = 3\nT = 0.01\ndt = 0.001\n"),
}


def _run(case: str, out_dir: str) -> dict[str, bytes]:
    command, text = CONFIGS[case]
    assert run_experiment(parse_config(text), command, out_dir=out_dir) == 0
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
        if name != "manifest.json"
    }


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_golden_outputs(case, tmp_path):
    got = _run(case, str(tmp_path))
    golden = os.path.join(GOLDEN_DIR, case)
    want = {name: open(os.path.join(golden, name), "rb").read() for name in sorted(os.listdir(golden))}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{name} differs from its golden copy"


#: the real-space oracle of the tests; no run path calls any of these
ORACLE = (
    "symmetrize", "hermitize", "partial_trace", "h_alpha_norm", "hxi_norm", "tail_norm", "project_tail",
    "b_plus", "b_minus", "b_collapse", "b_hat", "rhs", "free_evolve", "multiplier_tensor",
    "_restrict_to_slot", "spacetime_norm", "random_marginal",
)


def test_no_run_path_calls_the_real_space_oracle(tmp_path, monkeypatch):
    # each oracle name, in every gphier module that holds it, raises when
    # called; every case and an evolve run that saves its state still run
    # to the end.  validate_marginal, trace, factorized_marginal and
    # _materialize stay on the run paths: the invariant check of stored
    # nodes and the state snapshot read real space.
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a run path called the real-space oracle {name}")

        return call

    modules = [m for key, m in sys.modules.items() if key == "gphier" or key.startswith("gphier.")]
    for module in modules:
        for name in ORACLE:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    for case in sorted(CONFIGS):
        _run(case, str(tmp_path / case))
    evolve = parse_config("M = 4\nN = 3\nT = 0.004\ndt = 0.001\nsave_state = true\n")
    assert run_experiment(evolve, "evolve", out_dir=str(tmp_path / "save_state")) == 0
    for solver in ("volterra", "oracle"):
        assert os.path.exists(tmp_path / "save_state" / f"evolve_{solver}_final.gph")


#: a numeric field is within tolerance if it moved by at most REL_TOL
#: relative or ABS_TOL absolute (the rounding floor of a value near 0)
REL_TOL, ABS_TOL = 1e-12, 1e-15


def _fields(name: str, data: bytes) -> dict[str, object]:
    """Every cell of a CSV file or leaf of a JSON file, keyed by where it sits."""
    if name.endswith(".json"):
        flat = {}

        def walk(value, key):
            if isinstance(value, (dict, list)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for sub, v in items:
                    walk(v, f"{key}[{sub!r}]")
            else:
                flat[key] = value

        walk(json.loads(data), name)
        return flat
    rows = list(csv.reader(io.StringIO(data.decode())))
    fields = {f"{name} columns": rows[0]}
    for r, row in enumerate(rows[1:], start=2):
        fields[f"{name} row {r} width"] = len(row)
        fields.update({f"{name} row {r} {col}": cell for col, cell in zip(rows[0], row)})
    return fields


def _number(value) -> float | None:
    """value as a float; None for a field that is not a number (a bool, a blank cell, a name)."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _deviation(got, want) -> tuple[float, float] | None:
    """(relative, absolute) deviation of two numeric fields; None if either is not a number."""
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    return (diff / abs(b) if b != 0 else math.inf), diff


def compare(case: str) -> list[str]:
    """Run one case, print its largest deviations from the golden files, return the fields out of tolerance."""
    golden = os.path.join(GOLDEN_DIR, case)
    want = {name: open(os.path.join(golden, name), "rb").read() for name in sorted(os.listdir(golden))}
    with tempfile.TemporaryDirectory() as out_dir:
        got = _run(case, out_dir)
    bad = [f"file {name} {'missing' if name in want else 'new'}" for name in sorted(set(got) ^ set(want))]
    worst = {"rel": (0.0, None), "abs": (0.0, None)}
    for name in sorted(set(got) & set(want)):
        got_fields, want_fields = _fields(name, got[name]), _fields(name, want[name])
        for key in sorted(set(got_fields) | set(want_fields)):
            if key not in got_fields or key not in want_fields:
                bad.append(f"{key}: present in only one of the outputs")
                continue
            dev = _deviation(got_fields[key], want_fields[key])
            if dev is None:
                if got_fields[key] != want_fields[key]:
                    bad.append(f"{key}: {got_fields[key]!r} against golden {want_fields[key]!r}")
                continue
            for kind, value in zip(("rel", "abs"), dev):
                if value > worst[kind][0]:
                    worst[kind] = (value, key)
            if dev[0] > REL_TOL and dev[1] > ABS_TOL:
                bad.append(f"{key}: rel {dev[0]:.2e}, abs {dev[1]:.2e} ({got_fields[key]} against {want_fields[key]})")
    summary = ", ".join(f"max {kind} {value:.2e}" + (f" ({key})" if key else "") for kind, (value, key) in worst.items())
    print(f"{case}: {'identical' if got == want else summary}")
    for line in bad:
        print(f"  OUTSIDE: {line}")
    return bad


def test_compare_names_each_field_out_of_tolerance(tmp_path, monkeypatch, capsys):
    # a copy of the km-report golden with one field moved beyond, one
    # within the tolerance, and one CSV cell that is no longer a number
    src = os.path.join(GOLDEN_DIR, "km-report")
    summary = json.load(open(os.path.join(src, "km_summary.json")))
    summary["fitted"]["l2_t_bhat_norm"] *= 1 + 1e-9
    summary["fitted"]["sup_t_hxi_norm"] *= 1 + 1e-14
    os.makedirs(tmp_path / "km-report")
    json.dump(summary, open(tmp_path / "km-report" / "km_summary.json", "w"))
    rows = open(os.path.join(src, "km_per_time.csv")).read().split("\n")
    t, hxi_norm, rest = rows[1].split(",", 2)
    rows[1] = f"{t},x,{rest}"
    open(tmp_path / "km-report" / "km_per_time.csv", "w").write("\n".join(rows))
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", str(tmp_path))
    bad = compare("km-report")
    assert len(bad) == 2
    assert "['fitted']['l2_t_bhat_norm']: rel 1.00e-09" in bad[1]
    assert bad[0].startswith(f"km_per_time.csv row 2 hxi_norm: '{hxi_norm}' against golden 'x'")
    assert "max rel 1.00e-09" in capsys.readouterr().out


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        outside = [line for case in sorted(CONFIGS) for line in compare(case)]
        print(f"{len(outside)} field(s) outside rel {REL_TOL:g} / abs {ABS_TOL:g}")
        sys.exit(1 if outside else 0)
    for case in sorted(CONFIGS):
        out = os.path.join(GOLDEN_DIR, case)
        if os.path.exists(out):
            continue
        os.makedirs(out)
        files = _run(case, out)
        os.remove(os.path.join(out, "manifest.json"))
        print(f"{case}: {', '.join(files)}", file=sys.stderr)
