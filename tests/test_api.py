"""Public names, the package surface, the bindings that the benchmark harness
in ``perfbench/`` (outside this suite's test paths) looks up by name, the
exit-code table and the README's library example."""

import ast
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


def test_every_public_definition_is_run_or_exported():
    # what only tests read lives in tests/reference.py, not in the package
    src = pathlib.Path(qthermo.__file__).parent
    definitions, readers = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                definitions.append((path.stem, top))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                readers.setdefault(name, []).append(top)
    unread = [
        f"{module}.{top.name}" for module, top in definitions
        if top.name not in qthermo.__all__ and all(reader is top for reader in readers.get(top.name, []))
    ]
    assert not unread, f"public definitions that no other src/ code reads and qthermo.__all__ omits: {unread}"


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


def test_readme_library_example_runs(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("(500, 4, 4) (500, 2, 2)\n")
    assert "QFI at t=20:" in out and "sigma_x FI at t=20:" in out
