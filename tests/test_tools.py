import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_outputs_names_the_requests_a_change_moves(tmp_path):
    # a copy whose log grids start at 0.02 instead of 0.01: the two log-spaced
    # two_qubit_configs requests of the scans workload move, the rest do not
    shutil.copytree(ROOT / "src" / "qthermo", tmp_path / "src" / "qthermo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    experiments = tmp_path / "src" / "qthermo" / "experiments.py"
    text = experiments.read_text()
    assert "\n_FIRST_LOG_TIME = 0.01\n" in text
    experiments.write_text(text.replace("\n_FIRST_LOG_TIME = 0.01\n", "\n_FIRST_LOG_TIME = 0.02\n"))
    # its own process: the tool drops qthermo from sys.modules
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), str(ROOT), str(tmp_path),
         "--workload", "scans", "--seeds", "0-0"],
        capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "2 of 6 requests differ"
    assert "    csv t" in {line.partition(":")[0] for line in lines}


def test_stage_split_books_every_request_to_its_stages():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_split.py"), "--workload", "scans", "--seed", "0",
         "--passes", "1", "--src", str(ROOT)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("scans seed 0: 6 requests x 1 passes, QTHERMO_WORKERS=1")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:] if not line.startswith("absent")}
    # every request enters cli.main once, and the rows add up to the total
    assert float(rows["qthermo.cli:main"][2]) == 1.0
    assert float(rows["qthermo.dynamics:_Evolution._grid"][2]) > 0
    total = float(rows.pop("total")[0])
    assert abs(sum(float(r[0]) for r in rows.values()) - total) <= 0.1 * len(rows)
    assert not [line for line in lines if line.startswith("absent")]
