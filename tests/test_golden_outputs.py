"""Golden outputs: every CSV/JSON result file of the six commands, byte for byte.

Each case runs one command at a tiny pinned configuration (M=4) and its
result files are compared with the committed copies under
tests/golden/<case>/.  The manifest is not compared: it records wall time
and versions.  The one value compared with a tolerance is km-report's
fitted theta_residual, which is pure rounding noise (about 1e-19) under the
trajectory's own reference.

    PYTHONPATH=src python tests/test_golden_outputs.py

writes the files of every case whose directory does not exist yet and
leaves the others alone.  A change that is meant to alter the results of
a case deletes that case's directory first.
"""

import json
import os
import sys

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
    "cauchy": ("cauchy", "M = 4\nN_list = 3,4\nT = 0.01\ndt = 0.001\n"),
    "boardgame": ("boardgame", "M = 4\nN = 4\nj_max = 3\nT = 0.009\ndt = 0.001\nquadrature = simpson\n"),
    "strichartz": ("strichartz", "M = 4\nN = 3\nT = 0.02\ndt = 0.002\nensemble_size = 2\n"),
    "nls-compare": ("nls-compare", "M = 4\nmu = -1\nN = 3\nT = 0.01\ndt = 0.001\n"),
}

#: (file, key in "fitted") compared at an absolute tolerance instead of bytes
NOISE = {("km_summary.json", "theta_residual"): 1e-15}


def _run(case: str, out_dir: str) -> dict[str, bytes]:
    command, text = CONFIGS[case]
    assert run_experiment(parse_config(text), command, out_dir=out_dir) == 0
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
        if name != "manifest.json"
    }


def _assert_same(name: str, got: bytes, want: bytes) -> None:
    noisy = {key: tol for (fname, key), tol in NOISE.items() if fname == name}
    if not noisy:
        assert got == want, f"{name} differs from its golden copy"
        return
    got_obj, want_obj = json.loads(got), json.loads(want)
    for key, tol in noisy.items():
        assert abs(got_obj["fitted"].pop(key) - want_obj["fitted"].pop(key)) <= tol, f"{name}: {key}"
    assert got_obj == want_obj, f"{name} differs from its golden copy"


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_golden_outputs(case, tmp_path):
    got = _run(case, str(tmp_path))
    golden = os.path.join(GOLDEN_DIR, case)
    want = {name: open(os.path.join(golden, name), "rb").read() for name in sorted(os.listdir(golden))}
    assert sorted(got) == sorted(want)
    for name in want:
        _assert_same(name, got[name], want[name])


if __name__ == "__main__":
    for case in sorted(CONFIGS):
        out = os.path.join(GOLDEN_DIR, case)
        if os.path.exists(out):
            continue
        os.makedirs(out)
        files = _run(case, out)
        os.remove(os.path.join(out, "manifest.json"))
        print(f"{case}: {', '.join(files)}", file=sys.stderr)
