"""``repro-serve`` — command-line entry point for the live defense.

Usage::

    repro-serve scenario --clients 200 --bots 20 --replicas 10
    repro-serve scenario --json report.json --windows windows.json
    repro-serve budget --clients 200 --bots 20 --replicas 10
    repro-serve serve --replicas 10 --port 9000 --telemetry-port 9100

Exit codes: 0 success (scenario reached quarantine with the benign
target met), 1 scenario failed its target, 2 usage error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Sequence

from .budget import shuffle_budget
from .config import ServiceConfig
from ..obs.instruments import Instruments
from .coordinator import ServiceCoordinator
from .harness import run_scenario_sync
from .loadgen import LoadConfig
from .telemetry import TelemetryServer, export_windows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Live shuffling DDoS defense over localhost sockets: run "
            "attack scenarios end to end, print shuffle budgets, or "
            "serve the replica pool interactively."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    scenario = commands.add_parser(
        "scenario",
        help="run one live attack scenario and report the outcome",
    )
    _population_args(scenario)
    scenario.add_argument(
        "--duration", type=float, default=60.0,
        help="wall-clock cap in seconds (default: 60)",
    )
    scenario.add_argument(
        "--target", type=float, default=0.95,
        help="benign clean-fraction target (default: 0.95)",
    )
    scenario.add_argument(
        "--seed", type=int, default=ServiceConfig.seed,
        help="service-side RNG seed",
    )
    scenario.add_argument(
        "--load-seed", type=int, default=LoadConfig.seed,
        help="load-generator RNG seed",
    )
    scenario.add_argument(
        "--detector", choices=("exact", "sketch"),
        default=ServiceConfig.detector,
        help="saturation-monitor backend: per-event deque (exact) or "
        "fixed-memory sketch window with heavy-hitter attribution "
        "(default: %(default)s)",
    )
    scenario.add_argument(
        "--bot-profile", choices=("burst", "flood"),
        default=LoadConfig.bot_profile,
        help="bot flood shape: rate-paced pipelined bursts, or an "
        "unpaced socket-saturating flood (default: %(default)s)",
    )
    scenario.add_argument(
        "--telemetry-port", type=int, default=None,
        help="serve live metrics while the scenario runs "
        "(Prometheus text at /metrics, JSON snapshot elsewhere)",
    )
    _trust_args(scenario)
    scenario.add_argument(
        "--json", metavar="FILE",
        help="write the full scenario report as JSON",
    )
    scenario.add_argument(
        "--windows", metavar="FILE",
        help="write the QoS windows (shared sim/live schema) as JSON",
    )

    budget = commands.add_parser(
        "budget",
        help="print the shuffle budget for a scenario "
        "(oracle prediction with slack)",
    )
    _population_args(budget)
    budget.add_argument(
        "--target", type=float, default=0.95,
        help="benign saved-fraction target (default: 0.95)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the coordinator + replica pool until interrupted",
    )
    serve.add_argument(
        "--replicas", type=int, default=ServiceConfig.n_replicas,
        help="replica pool size P",
    )
    serve.add_argument(
        "--port", type=int, default=9000,
        help="control-channel port (default: 9000)",
    )
    serve.add_argument(
        "--telemetry-port", type=int, default=9100,
        help="JSON metrics endpoint port (default: 9100)",
    )
    serve.add_argument(
        "--seed", type=int, default=ServiceConfig.seed,
        help="service-side RNG seed",
    )
    _trust_args(serve)
    return parser


def _trust_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trust", action="store_true",
        help="enable per-client trust profiles and the graduated "
        "TRUSTED/WATCH/THROTTLED/DENIED admission ladder",
    )
    parser.add_argument(
        "--trust-prior-strength", type=float,
        default=ServiceConfig.trust_prior_strength,
        help="weight of the trust-derived estimator prior "
        "(0 disables the prior; default: %(default)s)",
    )
    parser.add_argument(
        "--state-backend", default=ServiceConfig.state_backend,
        help="bindings/profiles/belief persistence: 'memory', "
        "'sqlite:PATH', or 'file:PATH' — persistent backends survive "
        "a coordinator kill-and-restart (default: %(default)s)",
    )


def _population_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--clients", type=int, default=200,
        help="benign client count (default: 200)",
    )
    parser.add_argument(
        "--bots", type=int, default=20,
        help="persistent insider-bot count (default: 20)",
    )
    parser.add_argument(
        "--replicas", type=int, default=ServiceConfig.n_replicas,
        help="replica pool size P (default: %(default)s)",
    )


def _cmd_scenario(options: argparse.Namespace) -> int:
    service_config = ServiceConfig(
        n_replicas=options.replicas, seed=options.seed,
        telemetry_port=options.telemetry_port,
        detector=options.detector,
        trust_enabled=options.trust,
        trust_prior_strength=options.trust_prior_strength,
        state_backend=options.state_backend,
    )
    load_config = LoadConfig(
        n_benign=options.clients, n_bots=options.bots,
        seed=options.load_seed,
        bot_profile=options.bot_profile,
    )
    report = run_scenario_sync(
        service_config, load_config,
        duration=options.duration, target_fraction=options.target,
    )
    print(
        f"repro-serve: {options.clients} clients / {options.bots} bots / "
        f"{options.replicas} replicas"
    )
    print(
        f"  shuffles: {report.shuffles_completed}"
        f" (budget: {report.budget})"
    )
    print(f"  quarantined: {report.quarantined}")
    print(f"  benign clean fraction: {report.benign_clean_fraction:.3f}")
    print(f"  bot replicas: {', '.join(report.bot_replicas) or '-'}")
    print(f"  duration: {report.duration:.1f}s")
    trust = report.snapshot.get("trust")
    if trust is not None:
        tiers = ", ".join(
            f"{name}={count}" for name, count in trust["tiers"].items()
        )
        print(
            f"  trust: {trust['population']} profiles, "
            f"mean {trust['mean_trust']:.3f} ({tiers})"
        )
    if report.snapshot.get("restored"):
        print(
            "  restored from state backend "
            f"({report.snapshot.get('restored_shuffles', 0)} prior "
            "shuffles credited)"
        )
    if options.json:
        with open(options.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"  report written to {options.json}")
    if options.windows:
        export_windows(report.windows, options.windows)
        print(f"  windows written to {options.windows}")
    ok = (
        report.quarantined
        and report.benign_clean_fraction >= options.target
    )
    return 0 if ok else 1


def _cmd_budget(options: argparse.Namespace) -> int:
    value = shuffle_budget(
        benign=options.clients, bots=options.bots,
        n_replicas=options.replicas, target_fraction=options.target,
    )
    if value is None:
        print(
            "repro-serve: unreachable target at this replica count "
            "(Theorem 1 saturation) — provision more replicas"
        )
        return 1
    print(value)
    return 0


async def _serve_forever(options: argparse.Namespace) -> int:
    config = ServiceConfig(
        n_replicas=options.replicas,
        control_port=options.port,
        telemetry_port=options.telemetry_port,
        seed=options.seed,
        trust_enabled=options.trust,
        trust_prior_strength=options.trust_prior_strength,
        state_backend=options.state_backend,
    )
    instruments = Instruments.create(source="service")
    # event-loop-safe: one-time construction before any load exists
    coordinator = ServiceCoordinator(config, instruments=instruments)
    await coordinator.start()
    telemetry = TelemetryServer(
        coordinator.snapshot, host=config.host,
        port=options.telemetry_port,
        registry=instruments.registry,
    )
    await telemetry.start()
    host, port = coordinator.control_address
    print(f"repro-serve: control channel on {host}:{port}")
    print(f"repro-serve: telemetry on http://{host}:{telemetry.port}/")
    print(
        f"repro-serve: prometheus on http://{host}:{telemetry.port}/metrics"
    )
    try:
        while True:
            await asyncio.sleep(3600)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await telemetry.stop()
        await coordinator.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.command == "scenario":
        return _cmd_scenario(options)
    if options.command == "budget":
        return _cmd_budget(options)
    if options.command == "serve":
        try:
            return asyncio.run(_serve_forever(options))
        except KeyboardInterrupt:
            return 0
    parser.error(f"unknown command {options.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
