"""Shared fixtures plus the acceptance summary printed after each run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from demandflow.cli import bundled_scenario_path
from demandflow.scenario import load_scenario


@pytest.fixture(scope="session")
def reference_scenario():
    return load_scenario(bundled_scenario_path("collective_perception"))


@pytest.fixture(scope="session")
def upgrade_scenario():
    return load_scenario(bundled_scenario_path("collective_perception_upgrade"))


@pytest.fixture(scope="session")
def waypoint_scenario():
    return load_scenario(bundled_scenario_path("waypoint_drive"))


@pytest.fixture(scope="session")
def benchmark_workloads():
    """The benchmark's own input generators: perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up there
    return module


# One line per acceptance test at the end of the run, pass or fail, so the
# suite's verdict is readable without digging through pytest output.

_acceptance: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    verdicts = {"passed": "PASS", "failed": "FAIL"}
    for name in sorted(_acceptance):
        verdict = verdicts.get(_acceptance[name], _acceptance[name].upper())
        terminalreporter.write_line(f"{name}: {verdict}")
