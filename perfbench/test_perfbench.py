"""Self-test of the benchmark: every workload briefly, with its checks.

Run with ``python -m pytest perfbench`` (about two minutes on 2 CPUs);
the tier-1 suite does not collect this directory.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_self_test_passes():
    completed = subprocess.run(
        [sys.executable, str(RUN), "--self-test"],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.count("\nok ") + completed.stdout.startswith("ok ") == 6


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in RUN.parent.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "kernel-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
