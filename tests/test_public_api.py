"""API-surface contract tests: every advertised name exists and imports.

A release's ``__all__`` lists are promises; these tests keep them honest
across refactors.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.cloudsim",
    "repro.analysis",
    "repro.detect",
    "repro.obs",
    "repro.trust",
    "repro.service",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), f"{package_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), (
            f"{package_name}.__all__ lists {name!r} but it is missing"
        )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted_unique(package_name):
    module = importlib.import_module(package_name)
    names = list(module.__all__)
    assert len(names) == len(set(names)), f"duplicates in {package_name}"


def test_every_submodule_imports():
    """No module in the tree is broken (even ones __init__ skips)."""
    for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        importlib.import_module(info.name)


def test_version_present():
    assert repro.__version__


def test_quickstart_snippet_from_readme():
    """The README's quickstart code must actually run."""
    from repro import PlanRequest, ShuffleEngine, plan

    shuffle = plan(PlanRequest(n_clients=1000, n_bots=200, n_replicas=100))
    assert "greedy" in shuffle.describe()
    optimal = plan(PlanRequest(1000, 200, 100, method="dp_fast"))
    assert optimal.expected_saved > 0

    engine = ShuffleEngine(
        n_replicas=100, planner="greedy", estimator="moment"
    )
    state = engine.run(benign=1_000, bots=2_000, target_fraction=0.5)
    assert state.benign_saved > 0


def test_cloudsim_snippet_from_readme():
    from repro.cloudsim import CloudDefenseSystem

    system = CloudDefenseSystem(seed=1)
    system.add_benign_clients(20)
    system.add_persistent_bots(2)
    report = system.run(duration=30.0)
    assert "shuffles=" in report.describe()
