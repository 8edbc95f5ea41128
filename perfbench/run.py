"""qthermo benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

One client runs a workload's request list through ``qthermo.cli.main(argv)``
in-process, pass after pass, each request sent after the previous one
returned.  Every output is checked (see checks.py).  The last line of
standard output is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics from
the span tracer (tracer.py) with ``--trace 1``.

Usage, from the repository root:

    python3 perfbench/run.py --workload scans --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --write-reference

``all`` runs every workload in both modes, each in a fresh interpreter.
``--write-reference`` regenerates reference/seed0.json.gz from the current
source tree.  See README.md for the workloads, metrics and known failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_TIMEOUT_S = 120
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qthermo.cli; "
    "sys.exit(qthermo.cli.main(sys.argv[2:]))"
)

# name -> unit; reported with --trace 0
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "latency_ms.p50": "ms",
    "latency_ms.p95": "ms", "ok_frac": "fraction", "peak_rss_mb": "MB",
}
# Function-level self times are reported only for functions every workload
# calls, so that no reported time is identically zero; the printout lists
# the self time of every traced function.
SELF_TIME_FUNCTIONS = (
    "linalg.validate_density_matrix", "linalg.expm", "linalg.eig_hermitian",
    "linalg.partial_trace", "dynamics.trajectory", "dynamics.propagate",
    "fisher.qfi_spectral", "fisher.qubit_qfi", "master_equation.build_liouvillian",
    "master_equation.jump_operators", "fisher.halving_consistency",
    "config.resolve", "cli.main", "cli.write_csv",
)
CALL_COUNT_FUNCTIONS = (
    "linalg.validate_density_matrix", "linalg.partial_trace", "linalg.expm",
    "linalg.eig_hermitian", "dynamics.trajectory", "dynamics.propagate",
    "dynamics.steady_state", "master_equation.build_liouvillian",
    "fisher.qfi_spectral", "fisher.qubit_qfi", "fisher.halving_consistency",
    "experiments.parallel_map",
)
SELF_TIME_LAYERS = tuple(l for l in tracing.LAYERS if l != "closed_forms")


def per_layer_units() -> dict[str, str]:
    """name -> unit of every metric reported with --trace 1."""
    units = {f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS}
    units.update({f"{fn}.self_s": "s" for fn in SELF_TIME_FUNCTIONS})
    units.update({f"{fn}.calls": "count" for fn in CALL_COUNT_FUNCTIONS})
    units.update({
        "models.calls": "count",
        "closed_forms.calls": "count",
        "dynamics.trajectory.states": "count",
        "dynamics.steady_state.dynamical": "count",
        "dynamics.steady_state.propagations": "count",
        "fisher.halving_consistency.raised": "count",
        "experiments.states_per_row": "states/row",
        "experiments.parallel_map.utilization": "fraction",
        "cli.output_bytes": "bytes",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_s": "s",
    })
    return units


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (start, end) of each request
    statuses: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    rows: int = 0
    output_bytes: int = 0


def import_program():
    """Import qthermo from this checkout's src/ and nowhere else."""
    if not (SRC / "qthermo" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qthermo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qthermo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported qthermo from {cli.__file__}, not {SRC}")
    return cli


def set_workers(value: str | None) -> dict:
    if value is None:
        os.environ.pop("QTHERMO_WORKERS", None)
    else:
        os.environ["QTHERMO_WORKERS"] = value
    return dict(os.environ)


def invoke(cli, argv, out_dir: str, meter: speed.Speedometer | None = None):
    """Run one CLI request; returns (exit code, wall s, process CPU s).
    Calibration kernel time that ``meter`` spent inside the call is not
    counted."""
    full = argv + ["--out", out_dir, "--quiet"]
    spent = (meter.spent_wall, meter.spent_cpu) if meter else (0.0, 0.0)
    with contextlib.redirect_stderr(io.StringIO()):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(full)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a benchmark error
            code = f"uncaught {type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
    if meter:
        t0 += meter.spent_wall - spent[0]
        c0 += meter.spent_cpu - spent[1]
    return code, t1 - t0, c1 - c0


def run_pass(cli, requests, out_dir: str, checker: checks.Checker,
             meter: speed.Speedometer | None = None) -> Pass:
    p = Pass()
    for i, argv in enumerate(requests):
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        code, wall, cpu = invoke(cli, argv, out_dir, meter)
        p.windows.append((start, time.perf_counter()))
        if meter:
            meter.catch_up()
        outcome = checks.read_outcome(code, out_dir, argv[0])
        status = checker.check(i, outcome)
        p.wall += wall
        p.cpu += cpu
        p.latencies.append(wall)
        p.cpus.append(cpu)
        p.statuses.append(status)
        p.codes.append(code)
        if code == 0:
            p.rows += outcome["csv"].count("\n") - 1
            p.output_bytes += outcome["bytes"]
    return p


def measure_setup(argv, out_dir: str, env: dict) -> tuple[float, int]:
    """Wall time for a fresh interpreter to import qthermo.cli and finish
    ``argv``; returns (seconds, exit code)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *argv, "--out", out_dir, "--quiet"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def openblas_info() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded in this process,
    as found (the benchmark never sets the thread count)."""
    maps = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in (_read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), platform.processor())
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    if cpu_max is None:
        quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = f"{quota} {period} (cgroup v1 cfs quota, period)" if quota else "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "qthermo_workers": os.environ.get("QTHERMO_WORKERS", "unset (nproc threads)"),
    }


def request_ventiles(latencies: list[list[float]]) -> list[float]:
    """p5 ... p95 over the requests of a pass of each request's median
    latency across passes; ``latencies`` is one list per pass."""
    medians = [statistics.median(per_pass) for per_pass in zip(*latencies)]
    return statistics.quantiles(medians, n=20, method="inclusive")


def layer_metrics(summary: dict, p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    funcs, layers, pairs = summary["functions"], summary["layers"], summary["child_counts"]
    get = lambda fn, key: funcs.get(fn, {}).get(key, 0)
    m = {f"{layer}.self_s": layers[layer]["self_s"] for layer in SELF_TIME_LAYERS}
    m.update({f"{fn}.self_s": get(fn, "self_s") for fn in SELF_TIME_FUNCTIONS})
    m.update({f"{fn}.calls": get(fn, "calls") for fn in CALL_COUNT_FUNCTIONS})
    m.update({
        "models.calls": layers["models"]["calls"],
        "closed_forms.calls": layers["closed_forms"]["calls"],
        "dynamics.trajectory.states": pairs.get(("dynamics.trajectory", "linalg.validate_density_matrix"), 0),
        "dynamics.steady_state.dynamical": summary["steady_state_dynamical"],
        "dynamics.steady_state.propagations": pairs.get(("dynamics.steady_state", "dynamics.propagate"), 0),
        "fisher.halving_consistency.raised": get("fisher.halving_consistency", "raised"),
        "experiments.states_per_row": get("linalg.validate_density_matrix", "calls") / max(p.rows, 1),
        "experiments.parallel_map.utilization": summary["parallel_map_utilization"],
        "cli.output_bytes": p.output_bytes,
        "trace.wall_s": p.wall,
        "trace.unattributed_s": p.wall - summary["root_s"],
    })
    return m


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_s,end_s,thread,raised\n")
        t_base = min((s[3] for s in spans), default=0.0)
        for sid, parent, name, t0, t1, thread, raised in spans:
            fh.write(f"{sid},{parent},{name},{t0 - t_base:.9f},{t1 - t_base:.9f},{thread},{int(raised)}\n")


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workers, _ = workloads.WORKLOADS[name]
    env = set_workers(workers)
    requests = workloads.requests(name, seed)
    reference = checks.load_reference() if seed == 0 else None
    checker = checks.Checker(requests, reference, [code for _, code in cli.EXIT_CODES])
    out_dir = str(WORK / "out" / name)
    load_before = os.getloadavg()

    setup = []  # fresh interpreters; not needed for the per-layer metrics
    if not trace:
        for _ in range(SETUP_REPEATS):
            setup.append(measure_setup(requests[0], str(WORK / "out" / f"{name}-setup"), env))

    # The pass times are scaled by the calibration kernel (speed.py); the
    # traced run reports raw times and never runs the kernel.
    meter = None if trace else speed.Speedometer()

    plain, traced, summaries = [], [], []
    tr = tracing.Tracer()
    last_spans = []
    if meter:
        for _ in range(speed.NEIGHBOURS):
            meter.sample()
        meter.start()
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        plain.append(run_pass(cli, requests, out_dir, checker, meter))
        if trace:
            tr.reset()
            tr.install()
            try:
                traced.append(run_pass(cli, requests, out_dir, checker))
            finally:
                tr.uninstall()
            summaries.append(tracing.summarize(tr.spans, tr.maps))
            last_spans = tr.spans
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(plain) >= MIN_PASSES
        now = time.perf_counter()
        # stop when another pass would end nearer past the budget than this one
        if enough and now - start + (now - t_iter) / 2 >= seconds:
            break
    if meter:
        meter.stop()
        for _ in range(speed.NEIGHBOURS):
            meter.sample()
    load_after = os.getloadavg()
    first = plain[0]
    for _, code in setup:
        if code != first.codes[0]:
            checker.fail(checks.request_key(requests[0]),
                         f"fresh interpreter exited {code}, in-process {first.codes[0]}")

    timed = plain + traced
    statuses = [s for p in timed for s in p.statuses]
    attempted = len(statuses)
    failed = statuses.count("fail")
    ok = statuses.count("ok") + statuses.count("recovered")
    if meter:
        scales = [[meter.factor(*w) for w in p.windows] for p in plain]
    else:
        scales = [[1.0] * len(p.windows) for p in plain]
    scaled_wall = [sum(x * f for x, f in zip(p.latencies, fs)) for p, fs in zip(plain, scales)]
    scaled_cpu = [sum(x * f for x, f in zip(p.cpus, fs)) for p, fs in zip(plain, scales)]
    # The program is deterministic, so a request's latency varies from pass
    # to pass only with the machine: each request counts with its median.
    scaled_latency = [[x * f for x, f in zip(p.latencies, fs)] for p, fs in zip(plain, scales)]
    ventiles = request_ventiles(scaled_latency)  # p5 ... p95
    raw_ventiles = request_ventiles([p.latencies for p in plain])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "requests_per_pass": len(requests),
        "passes": len(plain), "traced_passes": len(traced),
        "environment": environment(),
        "load_average_before": load_before, "load_average_after": load_after,
        "correct": not checker.failures,
        "attempted": attempted, "failed": failed,
        "diagnostics": {
            "failed_frac": (attempted - ok) / attempted,
            "refused": statuses.count("refused"),
            "recovered": statuses.count("recovered"),
            "refused_per_pass": first.statuses.count("refused"),
            "outputs_identical": checker.identical,
            "output_max_rel_dev": checker.max_rel_dev if reference is not None else None,
            "latency_samples": sum(len(p.latencies) for p in plain),
            "pass_wall_s": [p.wall for p in plain],
            "pass_wall_s_scaled": scaled_wall,
            "request_wall_s": [p.latencies for p in plain],
            "check_failures": checker.failures,
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": statistics.median(scaled_wall),
            "cpu_s": statistics.median(scaled_cpu),
            "latency_ms.p50": 1e3 * ventiles[9],
            "latency_ms.p95": 1e3 * ventiles[18],
            "ok_frac": ok / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["units"] = END_TO_END
        result["diagnostics"]["setup_s_samples"] = [t for t, _ in setup]
        result["calibration"] = {
            "nominal_s": speed.NOMINAL_S,
            "samples": len(meter.durations),
            "warmup_s": meter.warmup_s,
            "kernel_s_deciles": statistics.quantiles(meter.durations, n=10),
            "kernel_s_range": [min(meter.durations), max(meter.durations)],
            # raw material for checking the scaling: (time, duration) of
            # every sample and (start, end) of every request, from run start
            "kernel_samples": [(t - start, d) for t, d in zip(meter.times, meter.durations)],
            "request_windows": [[(a - start, b - start) for a, b in p.windows] for p in plain],
            "kernel_s_total": meter.spent_wall,
            "pass_scale": [statistics.fmean(fs) for fs in scales],
            # the same statistics on unscaled times
            "raw": {
                "wall_s": statistics.median(p.wall for p in plain),
                "cpu_s": statistics.median(p.cpu for p in plain),
                "latency_ms.p50": 1e3 * raw_ventiles[9],
                "latency_ms.p95": 1e3 * raw_ventiles[18],
            },
        }
    else:
        per_pass = [layer_metrics(s, p) for s, p in zip(summaries, traced)]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p.wall for p in plain)
        result["metrics"] = metrics
        result["units"] = per_layer_units()
        result["functions"] = {
            fn: {k: statistics.median(s["functions"].get(fn, {}).get(k, 0) for s in summaries)
                 for k in ("calls", "self_s", "raised")}
            for fn in sorted({fn for s in summaries for fn in s["functions"]})
        }
        result["reconciliation"] = {
            "wall_s": statistics.mean(p.wall for p in traced),
            "unattributed_s": statistics.mean(p.wall - s["root_s"] for s, p in zip(summaries, traced)),
            **{layer: statistics.mean(s["layers"][layer]["self_s"] for s in summaries)
               for layer in tracing.LAYERS},
        }
        result["diagnostics"]["spans_per_pass"] = summaries[-1]["spans"]
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{name}-seed{seed}.csv"
        write_spans(spans_file, last_spans)
        result["diagnostics"]["spans_file"] = str(spans_file.relative_to(ROOT))
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(WORK / "out" / f"{name}-setup", ignore_errors=True)
    return result


def print_report(result: dict) -> None:
    r, d = result, result["diagnostics"]
    env = r["environment"]
    print(f"== {r['workload']} seed={r['seed']} trace={r['trace']}: {r['passes']} passes"
          f" + {r['traced_passes']} traced of {r['requests_per_pass']} requests, closed loop, 1 client")
    print(f"   env: nproc={env['nproc']} affinity={env['affinity_cpus']} cpu={env['cpu_model']!r}"
          f" cgroup cpu.max={env['cgroup_cpu_max']!r} QTHERMO_WORKERS={env['qthermo_workers']}")
    print(f"   env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']}; openblas "
          + "; ".join(f"{b.get('config', b['library'])} threads={b.get('threads', '?')}" for b in env["openblas"]))
    print(f"   load average before {r['load_average_before']} after {r['load_average_after']}")
    print(f"   checks: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}"
          f" failed_frac={d['failed_frac']:.6g} refused={d['refused']} recovered={d['recovered']}"
          f" outputs_identical={d['outputs_identical']} output_max_rel_dev={d['output_max_rel_dev']}")
    for line in d["check_failures"]:
        print(f"   CHECK FAILED {line}")
    if not r["trace"]:
        print(f"   latency: percentiles over {r['requests_per_pass']} requests of each one's median over {r['passes']} passes"
              f" ({d['latency_samples']} samples);"
              f" setup samples {['%.4f' % x for x in d['setup_s_samples']]}")
    for key, value in r["metrics"].items():
        print(f"   {key:<48} {value:>16.6g} {r['units'][key]}")
    if not r["trace"]:
        cal = r["calibration"]
        print(f"   wall, CPU and latency above are scaled to a calibration kernel of {1e3 * cal['nominal_s']:g} ms (speed.py):"
              f" {cal['samples']} kernel samples, deciles {['%.3f' % (1e3 * x) for x in cal['kernel_s_deciles']]} ms,"
              f" mean scale per pass {['%.3f' % x for x in cal['pass_scale']]}")
        print("   unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in cal["raw"].items()))
    if r["trace"]:
        # Means over the traced passes, which add up exactly: wall = sum of
        # layer self times + unattributed - overlap, where overlap is self
        # time that pool threads ran concurrently.
        rec = r["reconciliation"]
        wall, rest = rec["wall_s"], rec["unattributed_s"]
        overhead = r["metrics"]["trace.overhead_s"]
        print(f"   reconciliation of traced wall_s {wall:.4f} s, mean of {r['traced_passes']} passes"
              f" ({d['spans_per_pass']} spans/pass):")
        for layer in tracing.LAYERS:
            print(f"     {layer:<16} self {rec[layer]:10.4f} s  {100 * rec[layer] / wall:7.2f} %")
        overlap = sum(rec[layer] for layer in tracing.LAYERS) + rest - wall
        print(f"     {'unattributed':<16}      {rest:10.4f} s  {100 * rest / wall:7.2f} %")
        print(f"     {'thread overlap':<16}     {-overlap:10.4f} s  {-100 * overlap / wall:7.2f} %")
        print(f"     trace.overhead_s {overhead:.4f} s ({100 * overhead / wall:.1f} % of traced wall)")
        print("   traced functions (median per pass): calls, self s")
        for fn, v in r["functions"].items():
            print(f"     {fn:<56} {v['calls']:>10g} {v['self_s']:12.6f}")


def write_reference(cli) -> None:
    entries = {}
    for name, (workers, _) in workloads.WORKLOADS.items():
        set_workers(workers)
        out_dir = str(WORK / "out" / name)
        for argv in workloads.requests(name, 0):
            shutil.rmtree(out_dir, ignore_errors=True)
            code, _, _ = invoke(cli, argv, out_dir)
            entries[checks.request_key(argv)] = checks.read_outcome(code, out_dir, argv[0])
        shutil.rmtree(out_dir, ignore_errors=True)
    checks.write_reference(entries)
    failing = sum(1 for e in entries.values() if e["exit"] != 0)
    print(f"wrote {len(entries)} reference outcomes ({failing} failing) to {checks.REFERENCE_FILE}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            worst = max(worst, proc.returncode)
            try:
                last = json.loads(lines[-1])
            except json.JSONDecodeError:
                merged["correct"] = False
                continue
            merged["correct"] &= last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            for key, value in last["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the seed-0 reference outputs and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    cli = import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.write_reference:
        write_reference(cli)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"   result record: {record.relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
