"""Public names, the bindings that the benchmark harness in ``perfbench/``
(outside this suite's test paths) looks up by name, and the exit-code table."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import qthermo
from qthermo import cli, errors


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


def test_exit_code_table_matches_error_classes_and_readme():
    classes = [
        obj for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, errors.QThermoError)
    ]
    table = [klass for klass, _ in cli.EXIT_CODES]
    assert sorted(table, key=lambda k: k.__name__) == sorted(classes, key=lambda k: k.__name__)
    codes = [code for _, code in cli.EXIT_CODES]
    assert len(set(codes)) == len(codes)
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("### Exit codes", 1)[1].split("\n\n")[1]
    # whole numbers only: the digits of "1e-10" name no code
    named = {int(n) for n in re.findall(r"(?<![\w.-])\d+(?![\w.])", paragraph)}
    assert set(codes) <= named, f"README exit codes omit {sorted(set(codes) - named)}"
