"""Self-checks of the benchmark: tracer binding, traced/untraced identity,
seed-time call counts, span nesting under the pool, and the output checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_program()


def _outcomes(requests, out_dir, tr=None):
    """Run each request once; returns (outcomes, per-request trace summaries)."""
    outcomes, summaries = [], []
    for argv in requests:
        if tr is not None:
            tr.reset()
            tr.install()
        try:
            code, _, _ = run.invoke(cli, argv, out_dir)
        finally:
            if tr is not None:
                tr.uninstall()
        outcomes.append(checks.read_outcome(code, out_dir, argv[0]))
        if tr is not None:
            summaries.append((tracing.summarize(tr.spans, tr.maps), list(tr.spans)))
    return outcomes, summaries


@pytest.fixture(scope="module")
def seed0_runs(tmp_path_factory):
    """Untraced and traced seed-0 outcomes of every workload."""
    out = {}
    for name, (workers, _) in workloads.WORKLOADS.items():
        run.set_workers(workers)
        out_dir = str(tmp_path_factory.mktemp(name))
        requests = workloads.requests(name, 0)
        plain, _ = _outcomes(requests, out_dir)
        traced, summaries = _outcomes(requests, out_dir, tracing.Tracer())
        out[name] = (requests, plain, traced, summaries)
    run.set_workers("1")
    return out


def test_seed0_scans_are_cli_defaults():
    assert workloads.requests("scans", 0)[:5] == [
        ["theta_scan"], ["direct_vs_ancilla"], ["kappa_sweep"], ["coherence_parametric"],
        ["two_qubit_configs"]]
    assert workloads.requests("scan_pool", 0) == workloads.requests("scans", 0)


def test_generator_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.requests(name, 7) == workloads.requests(name, 7)
        assert workloads.requests(name, 7) != workloads.requests(name, 8)
    assert len(workloads.requests("point_queries", 3)) == workloads.POINT_REQUESTS


def test_tracer_replaces_every_binding_and_restores_it():
    modules = {k: m for k, m in sys.modules.items() if k == "qthermo" or k.startswith("qthermo.")}
    before = {(k, a): v for k, m in modules.items() for a, v in vars(m).items() if inspect.isfunction(v)}
    tr = tracing.Tracer()
    targets = {fn for owner, _, _, fn in tr._targets() if owner is None}
    tr.install()
    try:
        for (k, attr), fn in before.items():
            now = getattr(modules[k], attr)
            if fn in targets:
                assert now is not fn and now.__wrapped_by_tracer__ is fn, f"{k}.{attr} not wrapped"
            else:
                assert now is fn
        # bindings copied by "from .linalg import expm" are wrapped too
        assert modules["qthermo.dynamics"].expm is modules["qthermo.linalg"].expm
        assert modules["qthermo"].propagate is modules["qthermo.dynamics"].propagate
    finally:
        tr.uninstall()
    for (k, attr), fn in before.items():
        assert getattr(modules[k], attr) is fn


def test_traced_outputs_are_byte_identical(seed0_runs):
    for name, (requests, plain, traced, _) in seed0_runs.items():
        for argv, a, b in zip(requests, plain, traced):
            # "bytes" also counts the summary's wall_time_s, which varies
            assert (a["exit"], a.get("sha256")) == (b["exit"], b.get("sha256")), f"{name}: {argv}"


def test_seed0_outputs_match_reference(seed0_runs):
    reference = checks.load_reference()
    for name, (requests, plain, _, _) in seed0_runs.items():
        checker = checks.Checker(requests, reference, [c for _, c in cli.EXIT_CODES])
        statuses = [checker.check(i, o) for i, o in enumerate(plain)]
        assert "fail" not in statuses, checker.failures
        assert checker.identical is True


def test_seed_time_call_counts(seed0_runs):
    theta = seed0_runs["scans"][3][0][0]["functions"]
    assert theta["master_equation.build_liouvillian"]["calls"] == 25
    assert theta["dynamics.trajectory"]["calls"] == 25
    assert theta["linalg.validate_density_matrix"]["calls"] == 12500
    two = seed0_runs["scans"][3][4][0]["functions"]
    assert two["master_equation.build_liouvillian"]["calls"] == 20
    assert two["dynamics.propagate"]["calls"] == 6000
    assert two["fisher.qfi_spectral"]["calls"] == 1200


def test_pool_spans_nest_across_threads(seed0_runs):
    main = threading.get_ident()
    summary, spans = seed0_runs["scan_pool"][3][0]  # theta_scan: 5 tasks on the pool
    by_id = {s[0]: s for s in spans}
    worker_spans = 0
    for sid, parent, name, t0, t1, thread, _ in spans:
        if parent == 0:
            assert name == "cli.main" and thread == main
            continue
        p = by_id[parent]
        assert p[3] <= t0 and t1 <= p[4], f"{name} not inside {p[2]}"
        if thread != main:
            worker_spans += 1
            anc = p
            while anc[2] != "experiments.parallel_map":
                anc = by_id[anc[1]]
    if (os.cpu_count() or 1) > 1:
        assert worker_spans > 0
    assert 0.0 < summary["parallel_map_utilization"] <= 1.0 + 1e-9


def test_self_times_partition_serial_wall(seed0_runs):
    summary, spans = seed0_runs["scans"][3][0]
    total_self = sum(layer["self_s"] for layer in summary["layers"].values())
    assert total_self == pytest.approx(summary["root_s"], rel=1e-9)


def test_seed0_failure_inventory():
    """The README's known-failure table matches the stored reference."""
    reference = checks.load_reference()
    failing = {i: reference[checks.request_key(r)]["exit"]
               for i, r in enumerate(workloads.requests("point_queries", 0))
               if reference[checks.request_key(r)]["exit"] != 0}
    with open(os.path.join(os.path.dirname(__file__), "README.md"), encoding="utf-8") as fh:
        table = dict((int(i), int(code)) for i, code in
                     re.findall(r"^\| (\d+) \| qfi_point \|.*\| (\d+) `\w+` \|$", fh.read(), re.M))
    assert failing == table
    assert failing  # the known failures are reported, not tuned away


def test_tolerance_separates_truncation_from_physics():
    ref = "t,qfi\n0,0\n0.5,0.125\n1,0.25\n"
    assert checks.compare_csv("t,qfi\n0,3e-12\n0.5,0.125000000125\n1,0.25\n", ref)[0] is None
    assert checks.compare_csv("t,qfi\n0,0\n0.5,0.12500125\n1,0.25\n", ref)[0] is not None
    assert checks.compare_csv("t,qfi\n0,0\n0.5,0.125\n", ref)[0] is not None


def test_reference_outcomes_are_classified():
    requests = [["qfi_point", "--param", "at=1"], ["qfi_point", "--param", "at=2"]]
    csv = "at,qfi,cfi,qsnr,qfi_per_t,coherence_abs\n1,0.5,0.25,0.08,0.5,0.25\n"
    good = {"exit": 0, "csv": csv, "results": "{}", "sha256": "x"}
    reference = {checks.request_key(requests[0]): {"exit": 8},
                 checks.request_key(requests[1]): good}
    checker = checks.Checker(requests, reference, [8])
    assert checker.check(0, {"exit": 8}) == "refused"
    assert checks.Checker(requests, reference, [8]).check(0, good) == "recovered"
    assert checker.check(1, {"exit": 8}) == "fail"
    assert checker.check(1, {"exit": 8}) == "fail"
    assert checks.Checker(requests, None, [8]).check(0, {"exit": 8}) == "refused"
    assert checks.Checker(requests, None, [8]).check(0, {"exit": "uncaught ValueError"}) == "fail"
    bad = dict(good, csv=csv.replace("0.25,0.08", "0.75,0.08"), sha256="y")
    assert checks.Checker(requests, None, [8]).check(1, bad) == "fail"


def test_scale_factor_uses_samples_around_the_request():
    meter = speed.Speedometer()
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    meter.durations = [1e-3, 1e-3, 1e-3, 4e-3, 2e-3, 1e-3, 1e-3]
    # samples 3 and 4 fall inside [2.5, 4.5]; neighbours 1, 2 and 5, 6
    assert meter.factor(2.5, 4.5) == pytest.approx(speed.NOMINAL_S / 1e-3)
    # inside [2.9, 3.1] only sample 3; neighbours 1, 2 and 4, 5
    assert meter.factor(2.9, 3.1) == pytest.approx(speed.NOMINAL_S / 1e-3)
    # none inside [3.5, 3.6]; neighbours 2, 3 and 4, 5
    assert meter.factor(3.5, 3.6) == pytest.approx(speed.NOMINAL_S / 1.5e-3)


def test_kernel_samples_leave_outputs_and_timing_intact(tmp_path, monkeypatch):
    """Timer samples inside a request change none of its outputs, and their
    time is taken out of the request's wall time."""
    argv = ["qfi_point", "--param", "model=direct", "--param", "at=steady"]
    run.set_workers("1")
    code, _, _ = run.invoke(cli, argv, str(tmp_path / "plain"))
    plain = checks.read_outcome(code, str(tmp_path / "plain"), argv[0])
    monkeypatch.setattr(speed, "INTERVAL_S", 0.002)
    meter = speed.Speedometer()
    meter.start()
    try:
        t0 = time.perf_counter()
        code, wall, _ = run.invoke(cli, argv, str(tmp_path / "sampled"), meter)
        elapsed = time.perf_counter() - t0
    finally:
        meter.stop()
    sampled = checks.read_outcome(code, str(tmp_path / "sampled"), argv[0])
    assert sampled["sha256"] == plain["sha256"]
    assert len(meter.durations) > 0
    assert wall == pytest.approx(elapsed - meter.spent_wall, abs=1e-3)


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [why for _, why in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
