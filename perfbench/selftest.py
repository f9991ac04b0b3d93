"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/selftest.py

For each workload it runs the benchmark untraced and traced and checks that
the last line of output is the result object with exactly the metrics and
units BENCHMARK.json names, that the correctness checks passed with no
failed operation, and that both runs produced byte-identical program
outputs (the digest of loss logs, predictions and sweep curves). Finally it
checks that the benchmark fails, without a result, in a directory holding
only BENCHMARK.json and the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> str:
    if proc.returncode != 0:
        raise SystemExit(f"exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"bad status {result['correct']} {result['attempted']} {result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] < 0:
            raise SystemExit(f"{name} = {m['value']!r}")
    digest = [ln for ln in lines if ln.startswith("outputs_sha256 ")]
    return digest[-1].split()[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = check_result(run(ROOT, workload, 0), end_to_end)
        traced = check_result(run(ROOT, workload, 1), per_layer)
        if plain != traced:
            raise SystemExit(f"{workload}: traced run changed the program's outputs")
        print(f"ok {workload}: metrics, checks and traced/untraced outputs {plain[:12]}")

    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "results") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("benchmark did not fail in a directory without the program")
    print("ok: fails without a result when the program is absent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
