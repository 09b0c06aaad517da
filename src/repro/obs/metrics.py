"""Counters, gauges, and fixed-bucket histograms with label support.

The registry is the service-independent half of the observability layer:
components register named metric families once and update them on hot
paths.  Design constraints, in priority order:

- **Cheapness** — the metric objects do one dict lookup per labelled
  update and no allocation on the label-free fast path; a disabled
  bundle (:data:`repro.obs.instruments.DISABLED`) hands out subclasses
  whose updates return at once, so instrumented code calls its metrics
  unconditionally.
- **Determinism** — rendering sorts families by name and series by
  label values, so exported text is independent of update order and of
  ``PYTHONHASHSEED`` (the repo-wide contract reprolint's P3 pass and the
  CI ``hashseed`` job enforce).
- **Stdlib only** — the ``obs`` layer sits below every other layer in
  the import contract (reprolint P1) and must not pull in numpy.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (seconds-flavoured, spanning
#: microseconds to minutes — wide enough for both span durations and
#: queue depths).  Callers measuring other units pass their own.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: The empty label tuple — shared so the label-free fast path never
#: allocates.
_NO_LABELS: tuple[str, ...] = ()


def _label_values(
    label_names: tuple[str, ...], labels: Mapping[str, object]
) -> tuple[str, ...]:
    """Canonical series key: values in declaration order, stringified."""
    try:
        return tuple(str(labels[name]) for name in label_names)
    except KeyError as missing:
        raise ValueError(
            f"missing label {missing.args[0]!r}; declared labels are "
            f"{list(label_names)}"
        ) from None


class Metric:
    """Common shape of one metric family (name, help text, labels)."""

    kind = "untyped"
    #: ``False`` on the disabled bundle's metrics, which ignore every
    #: update: an emit site can skip computing values nobody keeps
    records = True

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        if not name or not all(
            ch.isalnum() or ch == "_" for ch in name
        ) or name[0].isdigit():
            raise ValueError(
                f"invalid metric name {name!r}: use [a-zA-Z_][a-zA-Z0-9_]*"
            )
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if not self.label_names:
            if labels:
                raise ValueError(
                    f"metric {self.name!r} declared no labels, got "
                    f"{sorted(labels)}"
                )
            return _NO_LABELS
        return _label_values(self.label_names, labels)


class Counter(Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def series(self) -> Iterator[tuple[tuple[str, ...], float]]:
        """(label values, value) pairs in sorted label order."""
        yield from sorted(self._values.items())


class Gauge(Metric):
    """A value that can go up and down (pool sizes, beliefs, ratios)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def series(self) -> Iterator[tuple[tuple[str, ...], float]]:
        yield from sorted(self._values.items())


class _HistogramSeries:
    """Cumulative bucket counts + sum + count for one label set."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        # Per-bucket counts (cumulated only at render time), running sum
        # of observed values, and total observation count.
        self.bucket_counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket histogram (Prometheus ``le`` semantics).

    Bucket bounds are *upper* edges; an observation lands in the first
    bucket whose bound is ``>= value`` (``le``, i.e. edge values belong
    to the bucket they name).  Observations above the last bound are
    counted only in the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError(
                "bucket bounds must be finite; +Inf is implicit"
            )
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                len(self.buckets) + 1
            )
        # Linear scan: bucket lists are short (~10) and the loop body is
        # a single comparison — bisect would cost more in call overhead.
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        series.bucket_counts[index] += 1
        series.total += value
        series.count += 1

    def count(self, **labels: object) -> int:
        series = self._series.get(self._key(labels))
        return 0 if series is None else series.count

    def sum(self, **labels: object) -> float:
        series = self._series.get(self._key(labels))
        return 0.0 if series is None else series.total

    def cumulative_buckets(
        self, **labels: object
    ) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ``+Inf`` last."""
        series = self._series.get(self._key(labels))
        bounds = [*self.buckets, math.inf]
        if series is None:
            return [(bound, 0) for bound in bounds]
        running = 0
        out = []
        for bound, count in zip(bounds, series.bucket_counts):
            running += count
            out.append((bound, running))
        return out

    def series(
        self,
    ) -> Iterator[tuple[tuple[str, ...], _HistogramSeries]]:
        yield from sorted(self._series.items())


class MetricsRegistry:
    """Named metric families, each created once and shared thereafter.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the help text, label names, and (for histograms) bucket
    bounds; later calls with the same name return the same object and
    reject conflicting declarations — two call sites silently updating
    differently shaped families is how dashboards lie.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def _get_or_create(
        self, cls: type, name: str, *args: object, **kwargs: object
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> Counter:
        metric = self._get_or_create(Counter, name, help_text, label_names)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> Gauge:
        metric = self._get_or_create(Gauge, name, help_text, label_names)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, help_text, label_names, buckets
        )
        assert isinstance(metric, Histogram)
        return metric

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dump of every family (sorted, hash-seed stable)."""
        families: dict[str, object] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                series = [
                    {
                        "labels": dict(
                            zip(metric.label_names, values)
                        ),
                        "count": data.count,
                        "sum": data.total,
                        "buckets": [
                            {
                                "le": "+Inf" if math.isinf(b) else b,
                                "count": c,
                            }
                            for b, c in metric.cumulative_buckets(
                                **dict(zip(metric.label_names, values))
                            )
                        ],
                    }
                    for values, data in metric.series()
                ]
            else:
                assert isinstance(metric, (Counter, Gauge))
                series = [
                    {
                        "labels": dict(zip(metric.label_names, values)),
                        "value": value,
                    }
                    for values, value in metric.series()
                ]
            families[metric.name] = {
                "kind": metric.kind,
                "help": metric.help_text,
                "series": series,
            }
        return families
