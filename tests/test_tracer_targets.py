"""The benchmark tracer (perfbench/tracer.py) patches gphier functions by name.

``--trace 1`` looks up every name in its TARGETS table with getattr, so a
renamed or removed function breaks traced runs.  This reads the table
without changing the tracer and checks that each entry still resolves.
"""

import importlib
import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_benchmark_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, attrs in targets.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            if "." in attr:
                # patched on the class, from the class's own namespace
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                ok = inspect.isclass(cls) and inspect.isfunction(vars(cls).get(meth))
            else:
                ok = inspect.isfunction(getattr(module, attr, None))
            if not ok:
                missing.append(f"{module_name}.{attr}")
    assert not missing, f"tracer targets that no longer resolve: {missing}"


def test_march_stays_a_shared_generator_function():
    # the tracer times `_march` per next() only if it is a generator
    # function; a plain function returning an iterator would be traced as
    # one call and report solver._march.nodes as 0
    solver = importlib.import_module("gphier.solver")
    studies = importlib.import_module("gphier.studies")
    assert inspect.isgeneratorfunction(solver._march)
    assert studies._march is solver._march
