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
