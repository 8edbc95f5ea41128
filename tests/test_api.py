"""Public names, and the bindings that the benchmark harness in
``perfbench/`` (outside this suite's test paths) looks up by name."""

import importlib
import pkgutil

import qthermo


def test_public_names_and_benchmark_bindings():
    modules = [qthermo] + [
        importlib.import_module(f"qthermo.{info.name}") for info in pkgutil.iter_modules(qthermo.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names unknown attributes {missing}"
    # the perfbench tracer wraps the pool by these names, and its tests
    # check the package-level re-export of the propagation route
    experiments = importlib.import_module("qthermo.experiments")
    assert callable(experiments.parallel_map) and callable(experiments.worker_count)
    assert qthermo.propagate is qthermo.dynamics.propagate
