"""The benchmark's own self-test, run on a copy of the checkout.

``perfbench/selftest.py`` runs every workload at a tiny size, untraced and
traced, and checks the result object, the correctness checks and that both
runs wrote the same program outputs. Running it here makes a change that
breaks any of that fail the test suite. The copy keeps the checkout clean:
the self-test writes its temporary files under ``perfbench/results/``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes(tmp_path):
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]
    ok = [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("ok ")]
    assert ok == ["ok toy_train", "ok paper_train", "ok sweep"]
