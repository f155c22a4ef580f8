"""gphier benchmark: end-to-end and per-layer metrics of pinned CLI workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference [--workload NAME|all]

Run from the root of a source checkout; the program is imported from
``src/``.  Each program run is a fresh child process (``child.py``) with the
BLAS thread pools pinned to one thread, and runs execute one after another.

``--trace 0`` measures, for one workload (or all, one after another):

- ``wall_s``: median wall time of ``run_experiment`` over the runs made;
- ``setup_s``: median time from spawn until ``run_experiment`` is called,
  over several set-up-only children and the full runs;
- ``peak_rss_mb``: median peak RSS of the children that ran the experiment.

``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics declared in ``BENCHMARK.json`` (``<module>.<function>.<stat>``, the
module named without its leading underscore), ``trace.unattributed_s`` (traced
wall minus the sum of self times) and ``trace.overhead_s`` (traced minus
untraced wall).

Every run's outputs are checked: exit status 0 (the invariants inside
``run_experiment`` held), seed-independent checks on the result tables, and
for the default seed numeric agreement with ``perfbench/reference/``.  Runs
that fail count in ``failed``; the table printed before the result shows
``failed_share``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, byte_identical, check_invariants
from workloads import compare_outputs, read_outputs, result_files, write_phi0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-up-only children per run, on top of the set-up of each full run
SETUP_SAMPLES = 6
MIN_RUNS = 3
COUNTS = ("calls", "nodes", "bytes")
#: a workload's runs stop being started after this many seconds, so that
#: the whole benchmark ends well within three minutes
DEADLINE_S = 150
HOST_NOTE = (
    "measured on a shared 2-core Intel Xeon host with 7.8 GB: user CPU time alone varied by about "
    "+-10% between identical runs, and 11 identical output-heavy evolve runs took 11.4 to 17.7 s wall"
)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "mem_total_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "thread_pins": THREAD_PINS,
        "commit": _commit(),
        "note": HOST_NOTE,
    }


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Spawner:
    """Starts one child at a time and waits for it, within a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_PINS, "PYTHONPATH": SRC}
        self.count = 0

    def run(self, mode: str, cli_args: list[str], log_dir: str) -> dict:
        self.count += 1
        result = os.path.join(log_dir, f"child{self.count}.json")
        with open(os.path.join(log_dir, f"child{self.count}.log"), "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, "--spawned-at", repr(t0), "--result", result, "--mode", mode, "--", *cli_args],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline + 20 - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"mode": mode, "status": None, "problems": ["run timed out"]}
        try:
            with open(result) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"mode": mode, "status": proc.returncode}
        problems = []
        if proc.returncode != 0 or record.get("status") != 0:
            problems.append(f"exit status {proc.returncode}: {record.get('error', 'see ' + log.name)}")
        record["problems"] = problems
        return record


class WorkloadRun:
    """All children of one workload at one seed."""

    def __init__(self, name: str, seed: int, spawner: Spawner):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.spawner = spawner
        self.dir = os.path.join(WORK, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.phi0 = os.path.join(self.dir, "phi0.gph")
        if self.workload.seeded_phi0:
            s = self.workload.settings
            write_phi0(self.phi0, seed, s["d"], s["M"])
        self.records: list[dict] = []
        self.reference_bytes_identical = []

    def spawn(self, mode: str, out_name: str) -> dict:
        out_dir = os.path.join(self.dir, out_name)
        record = self.spawner.run(mode, self.workload.cli_args(self.seed, self.phi0, out_dir), self.dir)
        record["out_dir"] = out_dir
        self.records.append(record)
        return record

    def setup_only(self) -> dict:
        return self.spawn("setup", "setup")

    def full(self, mode: str = "full") -> dict:
        record = self.spawn(mode, f"{mode}{len(self.records)}")
        if record["problems"]:
            return record
        try:
            outputs = read_outputs(record["out_dir"])
        except (OSError, ValueError) as exc:
            record["problems"].append(f"unreadable outputs: {exc}")
            return record
        record["outputs"] = outputs
        record["problems"] += check_invariants(self.workload, outputs)
        if self.seed == DEFAULT_SEED:
            ref_dir = os.path.join(REFERENCE_DIR, self.workload.name)
            record["problems"] += compare_outputs(outputs, read_outputs(ref_dir))
            self.reference_bytes_identical.append(byte_identical(record["out_dir"], ref_dir))
        return record

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def problems(self) -> list[str]:
        return [p for r in self.records for p in r["problems"]]


def _median(values):
    return statistics.median(values) if values else None


def measure(run: WorkloadRun, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    run.setup_only()  # warm-up: bytecode and page caches; not a sample
    start = time.monotonic()
    setups = [run.setup_only() for _ in range(SETUP_SAMPLES)]
    fulls = []
    while len(fulls) < MIN_RUNS or time.monotonic() - start < seconds:
        if time.monotonic() > run.spawner.deadline:
            break
        fulls.append(run.full())
    ok = [r for r in fulls if not r["problems"]]
    return {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in setups + fulls if not r["problems"]]),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in ok]),
    }


def measure_traced(run: WorkloadRun, seconds: float, names: list[str]) -> dict:
    """Per-layer metrics: alternating untraced and traced runs."""
    run.setup_only()
    start = time.monotonic()
    plain, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        if time.monotonic() > run.spawner.deadline:
            break
        plain.append(run.full())
        traced.append(run.full("trace"))
        if "outputs" in plain[-1] and "outputs" in traced[-1]:
            diff = compare_outputs(traced[-1]["outputs"], plain[-1]["outputs"])
            traced[-1]["problems"] += [f"traced output differs: {d}" for d in diff]
    plain = [r for r in plain if not r["problems"]]
    traced = [r for r in traced if not r["problems"]]
    if not plain or not traced:
        return {}
    traced_wall = _median([r["wall_s"] for r in traced])
    metrics = {}
    for name in names:
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - _median([r["wall_s"] for r in plain])
        elif name == "trace.unattributed_s":
            value = _median([r["wall_s"] - r["trace"]["self_s"] for r in traced])
        else:
            label, stat = name.rsplit(".", 1)
            values = [r["trace"]["stats"].get(label, {}).get(stat, 0) for r in traced]
            value = statistics.median_low(values) if stat in COUNTS else _median(values)
        metrics[name] = value
    return metrics


def _print_table(name: str, seed: int, run: WorkloadRun, metrics: dict, units: dict) -> None:
    print(f"workload {name}  seed {seed}  attempted {run.attempted}  failed {run.failed}")
    for metric, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:44s} {shown:>14s} {units[metric]}")
    print(f"  {'failed_share':44s} {run.failed / max(run.attempted, 1):>14.6g} 1")
    walls = sorted(r["wall_s"] for r in run.records if r["mode"] == "full" and not r["problems"])
    if walls:
        print(f"  untraced runs: {len(walls)}, wall_s min {walls[0]:.4g}  median {statistics.median(walls):.4g}  max {walls[-1]:.4g}")
    if run.reference_bytes_identical:
        print(f"  reference outputs byte-identical (information only): {all(run.reference_bytes_identical)}")
    for problem in run.problems()[:20]:
        print(f"  problem: {problem}")


def write_reference(names: list[str]) -> int:
    spawner = Spawner(time.monotonic() + DEADLINE_S * len(names))
    for name in names:
        run = WorkloadRun(name, DEFAULT_SEED, spawner)
        record = run.spawn("full", "reference")
        outputs = read_outputs(record["out_dir"]) if not record["problems"] else {}
        problems = record["problems"] + check_invariants(run.workload, outputs)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        ref_dir = os.path.join(REFERENCE_DIR, name)
        shutil.rmtree(ref_dir, ignore_errors=True)
        os.makedirs(ref_dir)
        for file_name in result_files(record["out_dir"]):
            shutil.copy(os.path.join(record["out_dir"], file_name), ref_dir)
        print(f"wrote {ref_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="store default-seed outputs as reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gphier", "__init__.py")):
        print(f"error: no gphier sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % 2**32  # numpy and the program take non-negative seeds
    os.makedirs(WORK, exist_ok=True)
    if args.write_reference:
        return write_reference(names)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declaration = json.load(fh)
    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
    declared = declaration["per_layer"] if args.trace else declaration["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = environment()
    with open(os.path.join(WORK, "environment.json"), "w") as fh:
        json.dump(env, fh, indent=2)
    print("environment: " + json.dumps(env))

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = WorkloadRun(name, seed, Spawner(time.monotonic() + DEADLINE_S))
        if args.trace:
            metrics = measure_traced(run, seconds, list(units))
        else:
            metrics = measure(run, seconds)
        metrics = {m: metrics.get(m) for m in units}
        _print_table(name, seed, run, metrics, units)
        result["correct"] = result["correct"] and run.failed == 0
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        for metric, value in metrics.items():
            if value is None:
                print(f"error: {name}: metric {metric} could not be measured", file=sys.stderr)
                return 1
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result["metrics"][key] = {"value": value, "unit": units[metric]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
