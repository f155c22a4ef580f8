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
a case deletes that case's directory first.
"""

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


if __name__ == "__main__":
    for case in sorted(CONFIGS):
        out = os.path.join(GOLDEN_DIR, case)
        if os.path.exists(out):
            continue
        os.makedirs(out)
        files = _run(case, out)
        os.remove(os.path.join(out, "manifest.json"))
        print(f"{case}: {', '.join(files)}", file=sys.stderr)
