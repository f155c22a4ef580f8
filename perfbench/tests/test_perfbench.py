"""Self-tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from gphier import _kernels, solver, studies  # noqa: E402
from gphier.config import parse_config  # noqa: E402
from gphier.experiment import run_experiment  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, check_invariants, compare_outputs, read_outputs  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_and_generator_spans():
    clock = FakeClock()
    tracer = Tracer(targets={}, clock=clock)

    def leaf():
        clock.now += 3.0

    leaf = tracer._wrap_function("m.leaf", leaf, None, None)

    def march():
        for _ in range(2):
            clock.now += 1.0
            leaf()
            yield clock.now

    march = tracer._wrap_generator("m.march", march)

    def outer():
        clock.now += 1.0
        leaf()
        for _ in march():
            clock.now += 5.0  # consumer work between next() calls
        clock.now += 2.0

    tracer._wrap_function("m.outer", outer, None, None)()

    stats = tracer.report()
    assert stats["m.leaf"]["calls"] == 3
    assert stats["m.leaf"]["self_s"] == pytest.approx(9.0)
    # two yielding next() calls and the one that ends the generator
    assert stats["m.march"]["calls"] == 3
    assert stats["m.march"]["nodes"] == 2
    assert stats["m.march"]["total_s"] == pytest.approx(8.0)
    assert stats["m.march"]["self_s"] == pytest.approx(2.0)
    assert stats["m.outer"]["total_s"] == pytest.approx(24.0)
    assert stats["m.outer"]["self_s"] == pytest.approx(13.0)
    # every instant of the root span is attributed to exactly one span
    assert tracer.self_time_s() == pytest.approx(24.0)
    parents = {span[2]: span[1] for span in tracer.spans}
    assert tracer.spans[parents["m.march"]][2] == "m.outer"


def test_exception_closes_span():
    clock = FakeClock()
    tracer = Tracer(targets={}, clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer._wrap_function("m.boom", boom, None, None)()
    assert tracer.report()["m.boom"]["total_s"] == pytest.approx(1.0)
    assert not tracer._stack


def test_install_rebinds_every_copy_and_restore_puts_originals_back():
    original = _kernels.fourier_collapse
    march = solver._march
    push = solver._Cumulative.__dict__["push"]
    assert solver.fourier_collapse is original and studies.fourier_collapse is original
    with Tracer():
        wrapped = _kernels.fourier_collapse
        assert wrapped is not original
        assert solver.fourier_collapse is wrapped and studies.fourier_collapse is wrapped
        assert studies._march is solver._march is not march
        assert solver._Cumulative.__dict__["push"] is not push
    assert _kernels.fourier_collapse is original
    assert solver.fourier_collapse is original and studies.fourier_collapse is original
    assert solver._march is march and studies._march is march
    assert solver._Cumulative.__dict__["push"] is push
    for name, module in list(sys.modules.items()):
        if name == "gphier" or name.startswith("gphier."):
            for value in vars(module).values():
                assert getattr(value, "__wrapped__", None) is None, f"{name} keeps a wrapper"


@pytest.mark.parametrize(
    "command, text",
    [
        ("evolve", "M = 4\nN = 3\nT = 0.004\ndt = 0.001\nsolver = volterra\n"),
        ("km-report", "p = 4\nM = 4\nN = 3\nT = 0.004\ndt = 0.001\n"),
        ("strichartz", "M = 4\nN = 3\nT = 0.008\ndt = 0.004\nensemble_size = 2\n"),
    ],
)
def test_traced_run_matches_untraced_run(tmp_path, command, text):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert run_experiment(parse_config(text), command, str(plain)) == 0
    with Tracer() as tracer:
        assert run_experiment(parse_config(text), command, str(traced)) == 0
    out_plain, out_traced = read_outputs(str(plain)), read_outputs(str(traced))
    assert out_plain and compare_outputs(out_traced, out_plain) == []
    for name in out_plain:
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    stats = tracer.report()
    assert stats["kernels.fourier_collapse"]["calls"] > 0
    assert stats["experiment.write_csv"]["bytes"] > 0
    split = [v["calls"] for k, v in stats.items() if k.startswith("kernels.fourier_collapse.p")]
    assert sum(split) == stats["kernels.fourier_collapse"]["calls"]
    if command != "strichartz":
        assert stats["solver._march"]["nodes"] == 5
        assert stats["solver._materialize"]["bytes"] > 0


def test_output_check_rejects_a_perturbed_csv():
    ref = read_outputs(os.path.join(REFERENCE_DIR, "evolve-march"))
    assert compare_outputs(copy.deepcopy(ref), ref) == []

    perturbed = copy.deepcopy(ref)
    row = perturbed["evolve_volterra_levels.csv"][1]
    row[2] = repr(float(row[2]) * (1 + 1e-6))
    assert compare_outputs(perturbed, ref)
    assert check_invariants(WORKLOADS["evolve-march"], perturbed) == []

    # a rounding-level value may change within the absolute floor
    floor = copy.deepcopy(ref)
    row = floor["evolve_volterra_invariants.csv"][1]
    row[4] = repr(float(row[4]) * 2)
    assert compare_outputs(floor, ref) == []

    broken = copy.deepcopy(ref)
    broken["evolve_volterra_levels.csv"][1][3] = "1.001"
    assert compare_outputs(broken, ref)
    assert check_invariants(WORKLOADS["evolve-march"], broken)

