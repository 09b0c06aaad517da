"""``repro-obs`` — inspect JSONL trace files from any layer.

Usage::

    repro-obs summarize trace.jsonl
    repro-obs diff before.jsonl after.jsonl
    repro-obs tail trace.jsonl -n 20

``summarize`` prints per-kind counts, the covered time range, and span
statistics; ``diff`` compares per-kind counts between two traces (new
and vanished kinds flagged); ``tail`` pretty-prints the last N events.

Exit codes: 0 success, 1 ``diff`` found differences, 2 usage error
(including a trace that is missing or does not parse).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from .events import Event
from .export import TraceLineError, read_events


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Summarize, diff, and tail JSONL trace files produced by "
            "the repro.obs observability layer (cloudsim traces, "
            "service audit logs, span exports)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="per-kind counts, time range, span stats"
    )
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.add_argument(
        "--json", action="store_true",
        help="machine-readable summary instead of the table",
    )

    diff = commands.add_parser(
        "diff", help="compare per-kind event counts of two traces"
    )
    diff.add_argument("left", help="baseline JSONL trace")
    diff.add_argument("right", help="candidate JSONL trace")

    tail = commands.add_parser(
        "tail", help="pretty-print the last N events"
    )
    tail.add_argument("trace", help="JSONL trace file")
    tail.add_argument(
        "-n", "--lines", type=int, default=10,
        help="events to show (default: 10)",
    )
    tail.add_argument(
        "--kind", help="only events of this kind",
    )
    return parser


def _fail(message: str) -> NoReturn:
    """Report a usage error in one line and exit 2."""
    print(f"repro-obs: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load(path: str) -> list[Event]:
    if not Path(path).exists():
        _fail(f"no such trace file: {path}")
    try:
        return read_events(path)
    except TraceLineError as exc:
        _fail(f"{path}:{exc.lineno}: {exc.reason}")
    except (OSError, ValueError) as exc:
        _fail(f"{path}: {exc}")


def heavy_hitter_tables(
    events: Sequence[Event],
) -> dict[str, dict[str, object]]:
    """Latest ``heavy_hitters`` report per replica, rendered
    structurally from the event payload (this layer never imports
    :mod:`repro.detect`): replica -> window tallies + top-k rows of
    ``[key, count, error]``."""
    latest: dict[str, dict[str, object]] = {}
    for event in events:
        if event.kind != "heavy_hitters":
            continue
        data = event.data
        replica = str(data.get("replica", "?"))
        previous = latest.get(replica)
        if previous is not None and previous["time"] > event.time:
            continue
        latest[replica] = {
            "time": event.time,
            "total": int(data.get("total", 0)),
            "throttled": int(data.get("throttled", 0)),
            "top": [
                [str(key), int(count), int(error)]
                for key, count, error in data.get("top", [])
            ],
        }
    return dict(sorted(latest.items()))


def trust_tables(
    events: Sequence[Event],
) -> dict[str, dict[str, object]]:
    """Latest ``trust_snapshot`` per replica, rendered structurally
    from the event payload (this layer never imports
    :mod:`repro.trust`): replica -> cohort size, mean trust, and
    clients-per-tier counts."""
    latest: dict[str, dict[str, object]] = {}
    for event in events:
        if event.kind != "trust_snapshot":
            continue
        data = event.data
        replica = str(data.get("replica", "?"))
        previous = latest.get(replica)
        if previous is not None and previous["time"] > event.time:
            continue
        tiers = data.get("tiers", {})
        latest[replica] = {
            "time": event.time,
            "clients": int(data.get("clients", 0)),
            "mean_trust": float(data.get("mean_trust", 0.0)),
            "tiers": {
                str(name): int(count)
                for name, count in (
                    tiers.items() if isinstance(tiers, dict) else ()
                )
            },
        }
    return dict(sorted(latest.items()))


def summarize_events(events: Sequence[Event]) -> dict[str, object]:
    """The ``summarize`` payload (testable without the CLI)."""
    kinds: dict[str, int] = {}
    sources: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.source is not None:
            sources[event.source] = sources.get(event.source, 0) + 1
    spans = [e for e in events if e.kind == "span"]
    span_stats: dict[str, dict[str, float]] = {}
    for event in spans:
        name = str(event.data.get("name", "?"))
        duration = float(event.data.get("duration", 0.0))
        stats = span_stats.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stats["count"] += 1
        stats["total_s"] += duration
        stats["max_s"] = max(stats["max_s"], duration)
    times = [event.time for event in events]
    return {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "sources": dict(sorted(sources.items())),
        "time_range": (
            {"first": min(times), "last": max(times)} if times else None
        ),
        "spans": {
            name: {
                "count": int(stats["count"]),
                "total_s": round(stats["total_s"], 6),
                "max_s": round(stats["max_s"], 6),
            }
            for name, stats in sorted(span_stats.items())
        },
        "heavy_hitters": heavy_hitter_tables(events),
        "trust_tiers": trust_tables(events),
    }


def _cmd_summarize(options: argparse.Namespace) -> int:
    summary = summarize_events(_load(options.trace))
    if options.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{options.trace}: {summary['events']} events")
    time_range = summary["time_range"]
    if isinstance(time_range, dict):
        print(
            f"  time range: {time_range['first']:.6f} .. "
            f"{time_range['last']:.6f}"
        )
    kinds = summary["kinds"]
    assert isinstance(kinds, dict)
    for kind, count in kinds.items():
        print(f"  {kind:<24} {count}")
    spans = summary["spans"]
    assert isinstance(spans, dict)
    if spans:
        print("  spans:")
        for name, stats in spans.items():
            print(
                f"    {name:<22} n={stats['count']} "
                f"total={stats['total_s']:.6f}s "
                f"max={stats['max_s']:.6f}s"
            )
    hitters = summary["heavy_hitters"]
    assert isinstance(hitters, dict)
    if hitters:
        print("  heavy hitters (latest report per replica):")
        for replica, table in hitters.items():
            print(
                f"    replica {replica}: {table['total']} requests, "
                f"{table['throttled']} throttled "
                f"@t={table['time']:.3f}"
            )
            for key, count, error in table["top"]:
                guaranteed = count - error
                print(
                    f"      {key:<20} count<={count} "
                    f"(>= {guaranteed})"
                )
    trust = summary["trust_tiers"]
    assert isinstance(trust, dict)
    if trust:
        print("  trust tiers (latest snapshot per replica):")
        for replica, table in trust.items():
            tiers = ", ".join(
                f"{name}={count}"
                for name, count in table["tiers"].items()
            )
            print(
                f"    replica {replica}: {table['clients']} clients, "
                f"mean trust {table['mean_trust']:.3f} "
                f"@t={table['time']:.3f}"
            )
            print(f"      {tiers}")
    return 0


def diff_counts(
    left: Sequence[Event], right: Sequence[Event]
) -> dict[str, tuple[int, int]]:
    """Per-kind (left count, right count) for kinds that differ."""
    counts: dict[str, list[int]] = {}
    for event in left:
        counts.setdefault(event.kind, [0, 0])[0] += 1
    for event in right:
        counts.setdefault(event.kind, [0, 0])[1] += 1
    return {
        kind: (pair[0], pair[1])
        for kind, pair in sorted(counts.items())
        if pair[0] != pair[1]
    }


def _cmd_diff(options: argparse.Namespace) -> int:
    left = _load(options.left)
    right = _load(options.right)
    differences = diff_counts(left, right)
    print(
        f"{options.left}: {len(left)} events | "
        f"{options.right}: {len(right)} events"
    )
    if not differences:
        print("  per-kind counts identical")
        return 0
    for kind, (before, after) in differences.items():
        delta = after - before
        print(f"  {kind:<24} {before} -> {after} ({delta:+d})")
    return 1


def _cmd_tail(options: argparse.Namespace) -> int:
    events = _load(options.trace)
    if options.kind is not None:
        events = [e for e in events if e.kind == options.kind]
    for event in events[-max(0, options.lines):]:
        payload = json.dumps(event.data, sort_keys=True)
        source = f" [{event.source}]" if event.source else ""
        print(f"{event.time:>14.6f} {event.kind}{source} {payload}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.command == "summarize":
        return _cmd_summarize(options)
    if options.command == "diff":
        return _cmd_diff(options)
    if options.command == "tail":
        return _cmd_tail(options)
    parser.error(f"unknown command {options.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
