"""One run of the gphier CLI in a fresh process, timed from the outside.

    python3 perfbench/child.py --spawned-at T --result FILE [--mode M] -- <gphier CLI arguments>

The parent passes the ``time.monotonic()`` reading taken just before it
spawned this process.  ``gphier.cli.main`` runs unchanged except that its
``run_experiment`` is replaced by a shim that records

- ``setup_s``: spawn until ``run_experiment`` is called (interpreter start,
  ``import gphier``, argument and config parsing);
- ``wall_s``: the duration of ``run_experiment``.

Modes: ``full`` runs the experiment, ``setup`` returns from the shim at once
(a set-up-only sample), ``trace`` runs the experiment under the span tracer
and adds the per-label statistics.  The record, with the exit status and the
process's peak RSS, is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("full", "setup", "trace"), default="full")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import gphier.cli as cli

    record: dict = {"mode": opts.mode}
    run_experiment = cli.run_experiment

    def timed_run(config, command, out_dir=None):
        record["setup_s"] = time.monotonic() - opts.spawned_at
        if opts.mode == "setup":
            return 0
        tracer = None
        if opts.mode == "trace":
            from tracer import Tracer

            tracer = Tracer().install()
        t0 = time.perf_counter()
        try:
            return run_experiment(config, command, out_dir)
        finally:
            record["wall_s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
                record["trace"] = {"self_s": tracer.self_time_s(), "stats": tracer.report()}
                with open(opts.result + ".spans.json", "w") as fh:
                    json.dump(tracer.spans, fh)

    cli.run_experiment = timed_run
    try:
        status = cli.main(argv)
    except Exception:  # boundary: the parent counts the run as failed
        record["error"] = traceback.format_exc()
        status = 3
    record["status"] = status
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(opts.result, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
