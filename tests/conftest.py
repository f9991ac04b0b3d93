"""Shared pytest wiring: one BLAS thread, the package path for child
processes, and a visible summary block for the acceptance criteria."""

import os
from pathlib import Path

# One BLAS thread for this process and its CLI children, set before numpy
# loads: a second thread spends CPU on the suite's small matrices without
# shortening the wall time. An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# pyproject's ``pythonpath`` reaches this process only; the CLI tests start
# ``python -m m2fcn.cli`` children, which find the checkout through this.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    lines = []
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in tr.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1].replace("test_criterion_", "")
                lines.append((name, label))
    if lines:
        tr.write_sep("=", "acceptance criteria")
        for name, label in sorted(lines):
            tr.write_line(f"{label}  {name}")
