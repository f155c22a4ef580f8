"""Outside-in span tracer for gphier's module-level functions.

The tracer changes no program file.  It replaces each traced function with
a wrapper that records one span per call (per ``next()`` for the generator
``_march``), and binds the wrapper in every ``gphier.*`` module that holds
the same function object: ``from ._kernels import fourier_collapse`` copies
the binding into ``solver`` and ``studies``, and a wrapper installed in
``_kernels`` alone would miss those calls.  ``_Cumulative.push`` is patched
on its class.  ``restore()`` puts every original binding back.

A span's self time is its duration minus the durations of its child spans.
Bytes are computed from ``ndarray.nbytes`` of arguments and results (or the
size of the file written), not measured from memory traffic.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np


def _nbytes(obj) -> int:
    """Bytes of the dense arrays an argument or result holds (computed)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "levels"):
        return sum(_nbytes(g) for g in obj.levels)
    data = getattr(obj, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def _collapse_bytes(args, kwargs, result) -> int:
    return _nbytes(args[0] if args else kwargs["hat"]) + _nbytes(result)


def _result_bytes(args, kwargs, result) -> int:
    return _nbytes(result)


def _file_bytes(args, kwargs, result) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


#: traced functions per module; "Class.method" is patched on the class
TARGETS = {
    "gphier._kernels": ("fourier_collapse", "fftn_level", "ifftn_level", "phase_tensor"),
    "gphier.solver": ("_march", "_Cumulative.push", "_materialize", "theta_residual", "solve_truncated"),
    "gphier.studies": ("random_marginal", "_free_collapse_norms", "strichartz_study", "km_report"),
    "gphier.marginal": (
        "h_alpha_norm",
        "_h_alpha_norm_hat",
        "validate_marginal",
        "symmetrize",
        "hermitize",
        "factorized_marginal",
    ),
    "gphier.operators": ("b_hat", "b_collapse"),
    "gphier.grid": ("transform",),
    "gphier.experiment": ("_norm_tables", "_structural_invariants", "write_csv"),
    "gphier.snapshots": ("snapshot_read",),
}
#: computed bytes per call, from (args, kwargs, result)
BYTES = {
    "fourier_collapse": _collapse_bytes,
    "_materialize": _result_bytes,
    "factorized_marginal": _result_bytes,
    "write_csv": _file_bytes,
}
#: statistics also split by one argument's value: fourier_collapse's `half`
#: is p/2, so its spans are counted under `.p2` and `.p4` as well
VARIANTS = {"fourier_collapse": "half"}


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "bytes", "nodes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.bytes = 0
        self.nodes = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Frame:
    __slots__ = ("span_id", "labels", "start", "child_s")

    def __init__(self, span_id, labels, start):
        self.span_id = span_id
        self.labels = labels
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records spans of the functions in `targets` while installed.

    Spans are kept in memory as (id, parent id, label, start, end, self time)
    and aggregated per label into `stats`.  Not thread-safe: gphier runs on
    one thread.
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, Stats] = {}
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, labels) -> _Frame:
        frame = _Frame(len(self.spans), labels, self.clock())
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, nbytes: int = 0, nodes: int = 0) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span stack out of order at {frame.labels[0]}")
        duration = end - frame.start
        self_s = duration - frame.child_s
        parent_id = None
        if self._stack:
            self._stack[-1].child_s += duration
            parent_id = self._stack[-1].span_id
        self.spans[frame.span_id] = (frame.span_id, parent_id, frame.labels[0], frame.start, end, self_s)
        for label in frame.labels:
            st = self.stats.get(label)
            if st is None:
                st = self.stats[label] = Stats()
            st.calls += 1
            st.total_s += duration
            st.self_s += self_s
            st.bytes += nbytes
            st.nodes += nodes

    # -- wrappers ---------------------------------------------------------
    def _wrap_function(self, label, fn, measure, variant):
        tracer = self
        signature = inspect.signature(fn) if variant else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            labels = (label,)
            if variant:
                value = signature.bind(*args, **kwargs).arguments[variant]
                labels = (label, f"{label}.p{2 * value}")
            frame = tracer._enter(labels)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            tracer._exit(frame, measure(args, kwargs, result) if measure else 0)
            return result

        return wrapper

    def _wrap_generator(self, label, fn):
        tracer = self

        def timed(gen):
            try:
                while True:
                    frame = tracer._enter((label,))
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._exit(frame)
                        return
                    except BaseException:
                        tracer._exit(frame)
                        raise
                    tracer._exit(frame, nodes=1)
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    # -- install / restore ------------------------------------------------
    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "gphier" or name.startswith("gphier.")]
        for module_name, attrs in self.targets.items():
            module = sys.modules[module_name]
            for attr in attrs:
                # metric label: module name without package or leading underscore
                label = module_name.rsplit(".", 1)[-1].lstrip("_") + "." + attr
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, self._wrap_function(label, original, None, None))
                    continue
                original = getattr(module, attr)
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(label, original)
                else:
                    wrapper = self._wrap_function(label, original, BYTES.get(attr), VARIANTS.get(attr))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, name, original))
                            setattr(mod, name, wrapper)
        return self

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_time_s(self) -> float:
        """Sum of self times over all spans (each span counted once)."""
        return sum(span[5] for span in self.spans if span is not None)

    def report(self) -> dict:
        return {label: st.as_dict() for label, st in sorted(self.stats.items())}
