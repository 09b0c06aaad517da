"""Facade aliasing contracts: package re-exports point at the real thing.

``repro.cloudsim.RunReport`` and ``repro.cloudsim.system.RunReport`` must
be the *same object* — code that imports through the facade and code that
imports the defining module must agree on ``isinstance`` checks and
pickling identity.  These tests pin every re-exported name to its
defining module so a facade refactor that silently forks a symbol (say,
re-declaring a dataclass in ``__init__``) fails loudly.

These imports are also the static cross-module uses reprolint's P5 pass
counts: every name asserted here is exercised through its facade.
"""

from __future__ import annotations

from repro import cloudsim as cloudsim_pkg
from repro import devtools as devtools_pkg
from repro import sim as sim_pkg
from repro.cloudsim import (
    ClientStats,
    Coordinator,
    Event,
    MigrationSample,
    ReplicaStats,
    RunReport,
    ShuffleRecord,
)
from repro.cloudsim import clients, coordinator, engine, migration, replica
from repro.cloudsim import system as cloudsim_system
from repro.devtools import (
    FileContext,
    LintReport,
    ProjectRule,
    Rule,
    Violation,
    all_project_rules,
    get_project_rule,
    get_rule,
    lint_project,
    project_rule,
    render_json,
    resolve_rule_sets,
    rule,
)
from repro.devtools import context as devtools_context
from repro.devtools import registry, reporters, runner, violations
from repro.devtools.program import (
    ImportEdge,
    LAYER_CONTRACT,
    ModuleInfo,
)
from repro.devtools.program import context as program_context
from repro.devtools.program import graph as program_graph
from repro.experiments import ablations
from repro.experiments import ablations as ablations_module
from repro.sim import CampaignResult, RunRecord, WaveOutcome
from repro.sim import campaign, shuffle_sim
from repro import BotEstimate, RoundResult
from repro.analysis import PAPER_HEADLINE_SHUFFLES, TrajectoryPoint
from repro.analysis import convergence, series
from repro.core import estimator, shuffler


def test_cloudsim_facade_aliases():
    assert cloudsim_pkg.ClientStats is ClientStats is clients.ClientStats
    assert Coordinator is coordinator.Coordinator
    assert ShuffleRecord is coordinator.ShuffleRecord
    assert Event is engine.Event
    assert MigrationSample is migration.MigrationSample
    assert ReplicaStats is replica.ReplicaStats
    assert RunReport is cloudsim_system.RunReport


def test_sim_facade_aliases():
    assert sim_pkg.CampaignResult is CampaignResult is campaign.CampaignResult
    assert WaveOutcome is campaign.WaveOutcome
    assert RunRecord is shuffle_sim.RunRecord


def test_top_level_facade_aliases():
    assert BotEstimate is estimator.BotEstimate
    assert RoundResult is shuffler.RoundResult


def test_analysis_facade_aliases():
    assert TrajectoryPoint is convergence.TrajectoryPoint
    assert PAPER_HEADLINE_SHUFFLES == series.PAPER_HEADLINE_SHUFFLES


def test_experiments_facade_aliases():
    # `ablations` is dispatched by name in the experiment runner; the
    # facade must expose the same module object the runner imports.
    assert ablations is ablations_module
    assert ablations.run_ablations is ablations_module.run_ablations


def test_devtools_facade_aliases():
    assert devtools_pkg.FileContext is FileContext
    assert FileContext is devtools_context.FileContext
    assert LintReport is runner.LintReport
    assert lint_project is runner.lint_project
    assert Violation is violations.Violation
    assert render_json is reporters.render_json
    for name in (
        "Rule",
        "ProjectRule",
        "rule",
        "project_rule",
        "get_rule",
        "get_project_rule",
        "all_project_rules",
        "resolve_rule_sets",
    ):
        assert getattr(devtools_pkg, name) is getattr(registry, name)
    assert Rule is registry.Rule
    assert ProjectRule is registry.ProjectRule
    assert rule is registry.rule
    assert project_rule is registry.project_rule
    assert get_rule is registry.get_rule
    assert get_project_rule is registry.get_project_rule
    assert all_project_rules is registry.all_project_rules
    assert resolve_rule_sets is registry.resolve_rule_sets


def test_program_facade_aliases():
    assert ImportEdge is program_graph.ImportEdge
    assert LAYER_CONTRACT is program_graph.LAYER_CONTRACT
    assert ModuleInfo is program_context.ModuleInfo


def test_layer_contract_shape():
    """The declared contract names real top-level packages only."""
    import repro

    top_level = {
        name
        for name in dir(repro)
        if not name.startswith("_")
    }
    for layer, allowed in LAYER_CONTRACT.items():
        assert isinstance(allowed, frozenset)
        for dep in allowed:
            assert dep in LAYER_CONTRACT, (
                f"{layer} allows unknown layer {dep}"
            )
    # Defense in depth: every contract key is an actual subpackage.
    for layer in LAYER_CONTRACT:
        assert layer in top_level or layer in {
            "core", "sim", "analysis", "cloudsim",
            "service", "experiments", "devtools", "obs",
        }
