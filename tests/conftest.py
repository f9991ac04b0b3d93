"""Shared pytest wiring: the package path for child processes, and a visible
summary block for the acceptance criteria."""

import os
from pathlib import Path

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
