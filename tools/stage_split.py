"""Self time of each stage of benchmark requests, in microseconds per request.

    python3 tools/stage_split.py --workload W --seed N --passes P [--src TREE]

Runs the requests of ``perfbench/workloads.py`` (read, never written) for
the workload ``W`` at seed ``N`` in this process, through
``qthermo.cli.main``, as the benchmark runs them untraced: the workload's
``QTHERMO_WORKERS`` setting, a fresh output directory per request, and the
outputs read after each call.  One pass warms up; then every stage of
``STAGES`` is wrapped in a ``perf_counter`` timer, and ``P`` passes are
timed.  A stage's self time is its elapsed time less that of the stages it
calls, per thread, so the rows add up to the time inside ``cli.main``; a
timer's own cost lands in its caller's row, and under a thread pool a
caller's row includes its wait.  ``TREE`` is a checkout's root or its
``src`` directory (default: this checkout's), so that a parent and a
change are split by the same stages; a stage missing from a tree is listed
and skipped.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import importlib
import inspect
import os
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import import_cli, outcome, package_dir, workloads  # noqa: E402

#: ``module:attribute`` of each stage; a class's method is ``Class.method``
#: and ``*`` matches names of the module's functions.
STAGES = (
    "qthermo.cli:main",
    "qthermo.cli:_parse",
    "qthermo.cli:run",
    "qthermo.cli:write_csv",
    "qthermo.cli:write_gnuplot",
    "qthermo.cli:write_summary",
    "qthermo.config:resolve",
    "qthermo.experiments:run_*",
    "qthermo.experiments:_fit",
    "qthermo.experiments:_roots",
    "qthermo.experiments:_grid_table",
    "qthermo.experiments:_qubit_record",
    "qthermo.experiments:_two_qubit_record",
    "qthermo.experiments:TemperatureFamily.state_and_derivative",
    "qthermo.master_equation:jump_channels",
    "qthermo.master_equation:_assemble",
    "qthermo.dynamics:rate_law",
    "qthermo.dynamics:law_states",
    "qthermo.dynamics:_states",
    "qthermo.dynamics:_eigen_ops",
    "qthermo.dynamics:_decompose",
    "qthermo.dynamics:_Evolution.__init__",
    "qthermo.dynamics:_Evolution.__call__",
    "qthermo.dynamics:_Evolution._grid",
    "qthermo.fisher:qfi_spectral",
    "qthermo.fisher:sector_qfi",
    "qthermo.fisher:_sector_qfi",
    "qthermo.fisher:qubit_qfi",
    "qthermo.fisher:bloch_components",
    "qthermo.fisher:cfi_povm",
    "qthermo.fisher:measurement_fi",
    "qthermo.fisher:qsnr",
    "qthermo.linalg:validate_density_matrix",
    "qthermo.linalg:eig_hermitian",
    "qthermo.linalg:partial_trace",
    "qthermo.linalg:expm",
    "numpy.linalg:eig",
    "numpy.linalg:inv",
    "numpy.linalg:eigvals",
)


class Timers:
    """Self time and calls per stage label, over all threads."""

    def __init__(self):
        self.self_s, self.calls = Counter(), Counter()
        self._lock, self._local = threading.Lock(), threading.local()

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested = self._local.__dict__.setdefault("nested", [])
            nested.append(0.0)  # elapsed time of the stages this call makes
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                with self._lock:
                    self.self_s[label] += elapsed - inner
                    self.calls[label] += 1

        return timed


def install(timers: Timers, stages=STAGES) -> list[str]:
    """Wrap every stage, and every reference that a loaded qthermo module
    (or an experiment spec) holds to a wrapped function; returns the stages
    that this tree lacks."""
    missing, swaps = [], {}
    for stage in stages:
        module_name, _, path = stage.partition(":")
        owner_path, _, pattern = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(stage)
            continue
        if "*" in pattern:
            names = [n for n, v in vars(owner).items() if fnmatch.fnmatchcase(n, pattern)
                     and inspect.isfunction(v) and v.__module__ == module_name]
        else:
            names = [pattern] if callable(getattr(owner, pattern, None)) else []
        if not names:
            missing.append(stage)
            continue
        for name in names:
            original = getattr(owner, name)
            label = f"{module_name}:{owner_path + '.' if owner_path else ''}{name}"
            wrapper = timers.wrap(label, original)
            setattr(owner, name, wrapper)
            swaps[id(original)] = (original, wrapper)
    for module in [m for name, m in sys.modules.items() if name == "qthermo" or name.startswith("qthermo.")]:
        for name, value in list(vars(module).items()):
            if id(value) in swaps and swaps[id(value)][0] is value:
                setattr(module, name, swaps[id(value)][1])
    for spec in importlib.import_module("qthermo.experiments").EXPERIMENTS.values():
        if id(spec.run) in swaps:
            object.__setattr__(spec, "run", swaps[id(spec.run)][1])  # a frozen dataclass
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent),
                        help="source tree (a checkout's root or its src directory)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    workers = workloads.WORKLOADS[args.workload][0]
    if workers is None:
        os.environ.pop("QTHERMO_WORKERS", None)
    else:
        os.environ["QTHERMO_WORKERS"] = workers
    requests = workloads.requests(args.workload, args.seed)
    cli = import_cli(package_dir(args.src))
    timers = Timers()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        for argv_ in requests:  # warm-up pass, untimed
            outcome(cli, argv_, out_dir)
        missing = install(timers)
        for _ in range(args.passes):
            for argv_ in requests:
                outcome(cli, argv_, out_dir)
    n = args.passes * len(requests)
    total = sum(timers.self_s.values())
    print(f"{args.workload} seed {args.seed}: {len(requests)} requests x {args.passes} passes, "
          f"QTHERMO_WORKERS={workers or 'unset'}, sources {package_dir(args.src)}")
    print(f"{'stage':<60} {'us/request':>11} {'share':>7} {'calls/request':>14}")
    for label, seconds in timers.self_s.most_common():
        print(f"{label:<60} {1e6 * seconds / n:>11.1f} {100 * seconds / total:>6.1f}% "
              f"{timers.calls[label] / n:>14.2f}")
    print(f"{'total':<60} {1e6 * total / n:>11.1f}")
    for stage in missing:
        print(f"absent from this tree: {stage}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
